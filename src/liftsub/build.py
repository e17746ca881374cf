"""Constructive clique-subdivision pipelines for lifts of complete graphs.

Two regimes:

* `build_large_ell` targets a full K_n subdivision when the lift is tall
  enough (ell at least about n): branch vertices sit in one fiber, their
  neighborhoods form disjoint transversals, a greedy cross-matching covers
  most transversal pairs with single edges, and BFS routing connects the
  rest.

* `build_small_ell` targets order about sqrt(2*n*ell/(1-1/ell)) for short
  lifts: branch vertices form a partial transversal, most pairs are joined by
  direct edges or length-2 paths through fresh common neighbors, stragglers
  are pruned, and the few remaining connections run through a reserved block
  of fibers via vertex-disjoint stars.

A build never returns an unverified certificate: every success is checked by
the verifier before it is reported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations, compress, filterfalse, repeat
from typing import Iterator, Optional, Sequence

import numpy as np

from .connect import (EmbeddingState, ExtendabilityParams, NoPathWithinBudget,
                      connect_between_sets, default_max_len)
from .lifts import LiftGraph, VertexId, _integer, derive_rng
from .properties import CrossMatching, find_cross_matching
from .verify import SubdivisionCertificate, certificate_vertex_count, verify_certificate

__all__ = [
    "BuildConfig",
    "BuildFailure",
    "BuildOutcome",
    "BuildStats",
    "build_large_ell",
    "build_small_ell",
    "default_extendability_params",
    "target_order",
]


def target_order(n: int, ell: int) -> float:
    """The aimed-for clique-subdivision order sqrt(2*n*ell / (1 - 1/ell))."""
    if ell < 2:
        raise ValueError("target_order needs ell >= 2 (formula singular at ell=1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(2.0 * n * ell / (1.0 - 1.0 / ell))


def default_extendability_params(n: int, ell: int) -> ExtendabilityParams:
    """(D, m) defaults: D = n^0.99, m = 5*ell*log(n), clamped to valid ranges."""
    D = max(3, math.ceil(n ** 0.99))
    m = max(1, math.ceil(5 * ell * math.log(max(n, 2))))
    return ExtendabilityParams(D=D, m=m)


@dataclass(frozen=True)
class BuildConfig:
    """Knobs for both pipelines.

    The conservative constants from the original asymptotic analysis (prune
    threshold eps*b/40, star size eps*b/40, cross-matching reserved for
    ell <= gamma^3*n^2/48 with gamma = eps/11) are unusable at experiment
    scale; the practical defaults divide by 4 instead of 40 and always take
    the cross-matching.  `paper_constants=True` restores the conservative set.
    """

    epsilon: float = 0.1
    params: Optional[ExtendabilityParams] = None  # routing budget; defaults per instance
    seed: int = 0
    attempts: int = 3
    paper_constants: bool = False
    prune_divisor: float = 4.0
    star_divisor: float = 4.0

    def __post_init__(self):
        # messages start with the field name, which the sweep CLI turns into its flag
        for name in ("epsilon", "prune_divisor", "star_divisor"):
            value = getattr(self, name)
            # math.isfinite takes a bool as 0 or 1; refuse it, as `seed` and `attempts` do
            if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value}")
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        object.__setattr__(self, "attempts", _integer(self.attempts, "attempts"))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    @property
    def effective_prune_divisor(self) -> float:
        return 40.0 if self.paper_constants else self.prune_divisor

    @property
    def effective_star_divisor(self) -> float:
        return 40.0 if self.paper_constants else self.star_divisor

    def resolve_params(self, n: int, ell: int) -> ExtendabilityParams:
        return self.params if self.params is not None else default_extendability_params(n, ell)


@dataclass
class BuildStats:
    builder: str
    direct_edges: int = 0
    length2_paths: int = 0
    connector_paths: int = 0
    pruned_branch: int = 0
    vertices_used: int = 0
    attempts_used: int = 0
    max_connector_len: int = 0
    target: float = 0.0
    achieved: int = 0


@dataclass(frozen=True)
class BuildFailure:
    stage: str
    reason: str


@dataclass
class BuildOutcome:
    certificate: Optional[SubdivisionCertificate]
    stats: BuildStats
    failure: Optional[BuildFailure] = None

    @property
    def ok(self) -> bool:
        return self.certificate is not None

    def __post_init__(self):
        if (self.certificate is None) == (self.failure is None):
            raise ValueError("exactly one of certificate and failure must be present")


def _require_complete(G: LiftGraph) -> None:
    if not G.base.is_complete:
        raise ValueError("builder requires a lift of a complete base graph")


def _certificate(G: LiftGraph, branch: Sequence[int],
                 paths: dict[tuple[int, int], Sequence[int]]) -> SubdivisionCertificate:
    """The certificate of flat-id branch vertices and paths; the builders make
    VertexIds only here."""
    ell = G.ell

    def vertices(ids: Sequence[int]) -> tuple[VertexId, ...]:
        return tuple(map(VertexId._make, map(divmod, ids, repeat(ell))))
    return SubdivisionCertificate(branch=vertices(branch),
                                  paths={pair: vertices(p) for pair, p in paths.items()})


def _self_verified(G: LiftGraph, cert: SubdivisionCertificate,
                   stats: BuildStats) -> BuildOutcome:
    verdict = verify_certificate(G, cert)
    if not verdict.ok:
        head = "; ".join(str(v) for v in verdict.violations[:3])
        return BuildOutcome(certificate=None, stats=stats,
                            failure=BuildFailure("self-verify", head))
    stats.vertices_used = certificate_vertex_count(cert)
    stats.achieved = len(cert.branch)
    return BuildOutcome(certificate=cert, stats=stats)


# --- large-ell pipeline -------------------------------------------------------


def build_large_ell(G: LiftGraph, cfg: BuildConfig = BuildConfig()) -> BuildOutcome:
    """Build a K_n subdivision with all branch vertices in a single fiber.

    Stages: pick n branch vertices in one fiber; their neighborhoods
    V_1..V_n are disjoint transversals of the remaining fibers; a greedy
    cross-matching covers pairs by single edges; every uncovered pair is
    routed by BFS between the still-unused vertices of its two transversals,
    keeping internal vertices off everything built so far.  Below the
    ell >= (1+eps)n threshold the run proceeds as an experiment with a
    warning.
    """
    _require_complete(G)
    n, ell = G.base.num_vertices, G.ell
    if ell < (1 + cfg.epsilon) * n:
        warnings.warn(
            f"ell={ell} is below (1+eps)*n = {(1 + cfg.epsilon) * n:g}; "
            "running as an off-regime experiment", RuntimeWarning, stacklevel=2)
    max_len = default_max_len(cfg.resolve_params(n, ell))
    stats = BuildStats(builder="large", target=float(n))
    if ell < n:
        return BuildOutcome(certificate=None, stats=stats,
                            failure=BuildFailure("branch", f"fiber holds {ell} < n = {n} vertices"))
    if n == 1:
        stats.attempts_used = 1
        return _self_verified(G, _certificate(G, [0], {}), stats)

    last_failure = BuildFailure("connector", "unreached")
    for attempt in range(cfg.attempts):
        stats = BuildStats(builder="large", target=float(n), attempts_used=attempt + 1)
        if attempt == 0:
            w_fiber = 0
            layers = list(range(n))
        else:
            rng = derive_rng(cfg.seed, attempt)
            w_fiber = int(rng.integers(n))
            layers = sorted(int(x) for x in rng.choice(ell, size=n, replace=False))
        branch = [w_fiber * ell + a for a in layers]
        # on a complete base, w's neighbour row holds one vertex per other
        # fiber in ascending order: the transversal V_w
        trans = G.flat_adjacency[branch].tolist()

        # the branch vertices block their fiber-mates only where chosen; the
        # remaining ell-n fiber-W vertices stay routable
        state = EmbeddingState(G, branch)
        for t in trans:
            state.add_vertices(t)

        # the cross-matching only ever helps, so the practical default always
        # takes it; under the stated constants it is reserved for short lifts
        gamma = cfg.epsilon / 11.0
        if cfg.paper_constants and ell > gamma ** 3 * n ** 2 / 48:
            matching = CrossMatching(by_pair={})
        else:
            matching = find_cross_matching(G, trans)
        used: set[int] = set()
        paths: dict[tuple[int, int], tuple[int, ...]] = {}
        for (i, j), (x, y) in matching.by_pair.items():
            paths[(i, j)] = (branch[i], x, y, branch[j])
            used.add(x)
            used.add(y)
        stats.direct_edges = len(matching.by_pair)

        pending = [p for p in combinations(range(n), 2) if p not in matching.by_pair]
        if attempt > 0:
            pending = [pending[k] for k in rng.permutation(len(pending))]
        failed_pair: Optional[tuple[int, int]] = None
        for i, j in pending:
            sources = [v for v in trans[i] if v not in used]
            targets = [v for v in trans[j] if v not in used]
            try:
                path = connect_between_sets(G, state, sources, targets, max_len=max_len)
            except NoPathWithinBudget:
                failed_pair = (i, j)
                break
            paths[(i, j)] = (branch[i],) + path + (branch[j],)
            used.add(path[0])
            used.add(path[-1])
            stats.connector_paths += 1
            stats.max_connector_len = max(stats.max_connector_len, len(path) - 1)
        if failed_pair is not None:
            last_failure = BuildFailure(
                "connector", f"no admissible path for transversal pair {failed_pair} "
                             f"within length {max_len}")
            continue
        return _self_verified(G, _certificate(G, branch, paths), stats)
    return BuildOutcome(certificate=None, stats=stats, failure=last_failure)


# --- small-ell pipeline -------------------------------------------------------


def build_small_ell(G: LiftGraph, cfg: BuildConfig = BuildConfig()) -> BuildOutcome:
    """Build a near-target clique subdivision in a short lift.

    Stages: (1) branch set B = partial transversal of size
    ceil((1-2*eps)*target) inside the first ceil((1-eps)*n) fibers, the rest
    of the fibers are reserved; (2) direct edges inside B; (3) greedy
    length-2 paths through unused common neighbors in the main fiber block,
    most-deficient branch vertex first; (4) prune vertices missing more than
    eps*b/prune_divisor connections; (5) vertex-disjoint stars from the
    still-deficient survivors into the reserved fibers; (6) BFS connections
    between star leaves inside the reserved block.

    The achieved order is at most b = ceil((1-2*eps)*target) by
    construction, so achieved/target near 1-2*eps is set by eps; it is not a
    measurement of the constant in sqrt(2*n*ell/(1-1/ell)).
    """
    _require_complete(G)
    n, ell = G.base.num_vertices, G.ell
    if ell < 2:
        raise ValueError("small-ell builder needs ell >= 2")
    eps = cfg.epsilon
    tgt = target_order(n, ell)
    b = math.ceil((1 - 2 * eps) * tgt)
    f1_count = math.ceil((1 - eps) * n)
    max_len = default_max_len(cfg.resolve_params(n, ell))
    stats = BuildStats(builder="small", target=tgt)
    if b < 1:
        return BuildOutcome(certificate=None, stats=stats,
                            failure=BuildFailure("branch", "target order below one"))
    if b > f1_count:
        return BuildOutcome(
            certificate=None, stats=stats,
            failure=BuildFailure("branch",
                                 f"partial transversal of size {b} does not fit in {f1_count} fibers"))

    prune_threshold = eps * b / cfg.effective_prune_divisor
    star_size = max(1, math.ceil(eps * b / cfg.effective_star_divisor))
    floor = math.ceil(0.5 * b)  # fewer surviving branch vertices is a failure

    last_failure = BuildFailure("connector", "unreached")
    for attempt in range(cfg.attempts):
        stats = BuildStats(builder="small", target=tgt, attempts_used=attempt + 1)
        if attempt == 0:
            branch = [f * ell for f in range(b)]
        else:
            rng = derive_rng(cfg.seed, attempt)
            fibers = sorted(int(x) for x in rng.choice(f1_count, size=b, replace=False))
            branch = [f * ell + int(rng.integers(ell)) for f in fibers]
        outcome = _small_ell_attempt(
            G, branch, f1_count, prune_threshold, star_size, floor, max_len, stats)
        if isinstance(outcome, BuildFailure):
            last_failure = outcome
            continue
        return _self_verified(G, outcome, stats)
    return BuildOutcome(certificate=None, stats=stats, failure=last_failure)


def _small_ell_attempt(
    G: LiftGraph,
    branch: list[int],
    main: int,
    prune_threshold: float,
    star_size: int,
    floor: int,
    max_len: int,
    stats: BuildStats,
) -> SubdivisionCertificate | BuildFailure:
    # branch vertices, paths and star leaves are flat ids; the main block is
    # fibers 0..main-1 and the reserved block the rest
    b, ell = len(branch), G.ell
    reserved = range(main, G.base.num_vertices)
    fiber = [v // ell for v in branch]
    R = _neighbour_matrix(G, branch, fiber)
    paths, uncovered = _short_paths(branch, fiber, R, main, stats)

    # stage 4: prune branch vertices that still miss too many connections
    missing = [0] * b
    for i, j in uncovered:
        missing[i] += 1
        missing[j] += 1
    survivors = [i for i in range(b) if missing[i] <= prune_threshold]
    stats.pruned_branch = b - len(survivors)
    if len(survivors) < floor:
        return BuildFailure("prune", f"pruned-too-many: {len(survivors)} of {b} survive, "
                                     f"floor is {floor}")
    alive = set(survivors)
    pending_pairs = sorted(p for p in uncovered if p[0] in alive and p[1] in alive)

    # stage 5: vertex-disjoint stars into the reserved fibers
    needs_star = sorted({i for p in pending_pairs for i in p})
    star_leaves: dict[int, list[int]] = {}
    used_leaves: set[int] = set()
    if needs_star and not reserved:
        return BuildFailure("stars", "no reserved fibers but connections remain")
    dropped: set[int] = set()
    for i in needs_star:
        leaves = []
        for w in R[i, main:].tolist():
            if w not in used_leaves:
                leaves.append(w)
                if len(leaves) == star_size:
                    break
        if len(leaves) < star_size:
            dropped.add(i)
            continue
        star_leaves[i] = leaves
        used_leaves.update(leaves)
    if dropped:
        alive -= dropped
        stats.pruned_branch += len(dropped)
        if len(alive) < floor:
            return BuildFailure("stars", f"pruned-too-many: {len(alive)} of {b} survive "
                                         f"after star stage, floor is {floor}")
        pending_pairs = [p for p in pending_pairs if p[0] in alive and p[1] in alive]

    # stage 6: connect star leaves inside the reserved block
    state = EmbeddingState(G, range(main * ell))
    for leaves in star_leaves.values():
        state.add_vertices(leaves)
    consumed_leaves: set[int] = set()

    def available_leaves(i: int) -> list[int]:
        return [w for w in star_leaves[i] if w not in consumed_leaves]
    for pair in list(pending_pairs):
        i, j = pair
        if i not in alive or j not in alive:
            continue
        src = available_leaves(i)
        dst = available_leaves(j)
        try:
            if not src or not dst:
                raise NoPathWithinBudget("star leaves exhausted")
            path = connect_between_sets(G, state, src, dst, max_len=max_len)
        except NoPathWithinBudget:
            # drop the endpoint with more remaining obligations and move on
            rem_i = sum(1 for p in pending_pairs if i in p and p[0] in alive and p[1] in alive)
            rem_j = sum(1 for p in pending_pairs if j in p and p[0] in alive and p[1] in alive)
            victim = i if (rem_i, i) >= (rem_j, j) else j
            alive.discard(victim)
            stats.pruned_branch += 1
            if len(alive) < floor:
                return BuildFailure("connector", f"pruned-too-many while routing: "
                                                 f"{len(alive)} of {b} survive")
            continue
        consumed_leaves.add(path[0])
        consumed_leaves.add(path[-1])
        paths[pair] = (branch[i],) + path + (branch[j],)
        stats.connector_paths += 1
        stats.max_connector_len = max(stats.max_connector_len, len(path) - 1)

    final = sorted(alive)
    index = {old: new for new, old in enumerate(final)}
    out_paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for i, j in combinations(final, 2):
        p = paths.get((i, j))
        if p is None:
            return BuildFailure("assemble", f"pair ({i},{j}) left unconnected")
        out_paths[(index[i], index[j])] = p
    # recount stage stats against the final certificate
    stats.direct_edges = sum(1 for p in out_paths.values() if len(p) == 2)
    stats.length2_paths = sum(1 for p in out_paths.values() if len(p) == 3)
    return _certificate(G, [branch[i] for i in final], out_paths)


def _neighbour_matrix(G: LiftGraph, branch: list[int], fiber: list[int]) -> np.ndarray:
    """The (b, n) matrix whose row i holds branch[i]'s neighbour in every
    fiber and -1 at its own fiber, fiber[i]: on a complete base a neighbour
    row has one entry per other fiber, in fiber order."""
    n = G.base.num_vertices
    R = np.full((len(branch), n), -1, dtype=np.intp)
    R[np.arange(n) != np.array(fiber)[:, None]] = G.flat_adjacency[branch].ravel()
    return R


def _short_paths(branch: list[int], fiber: list[int], R: np.ndarray, main: int,
                 stats: BuildStats) -> tuple[dict[tuple[int, int], tuple[int, ...]],
                                             set[tuple[int, int]]]:
    """Stages 2 and 3 of a small-ell attempt: the direct edges inside the
    branch set, then greedy length-2 paths through fresh common neighbours in
    the main block (fibers 0..main-1), most-deficient branch vertex first.
    R is the (b, n) neighbour matrix of the branch vertices (-1 at each row's
    own fiber).  Returns the paths by branch-index pair and the pairs left
    uncovered."""
    b = len(branch)
    paths: dict[tuple[int, int], tuple[int, ...]] = {}

    # stage 2: branch[i] and branch[j] are adjacent iff branch[i]'s neighbour
    # in fiber[j] is branch[j]
    direct = R[:, fiber] == branch
    # partners[i]: the j whose pair with i is still uncovered
    partners: list[set[int]] = [set() for _ in range(b)]
    for i in range(b - 1):
        row = direct[i].tolist()
        for j in range(i + 1, b):
            if row[j]:
                paths[(i, j)] = (branch[i], branch[j])
                stats.direct_edges += 1
            else:
                partners[i].add(j)
                partners[j].add(i)

    # stage 3: a pair's candidate middles are the main-block columns where
    # the two rows agree and the common neighbour is not a branch vertex, in
    # ascending fiber order; one (b, main) boolean block per row i against
    # rows i+1..b-1.  A pair's candidates are read lazily off its row of the
    # block: the iterator skips used middles, and a middle it returns is used
    # at once
    on_branch = np.full(R.shape[1], -1, dtype=np.intp)
    on_branch[fiber] = branch
    M = R[:, :main]
    fresh = M != on_branch[:main]
    used_middles: set[int] = set()
    candidates: dict[tuple[int, int], Iterator[int]] = {}
    for i in range(b - 1):
        row = M[i].tolist()
        agree = (M[i + 1:] == M[i]) & fresh[i]
        for j in partners[i]:
            if j > i:
                candidates[(i, j)] = filterfalse(used_middles.__contains__,
                                                 compress(row, agree[j - i - 1]))

    # deficiency[i] counts i's uncovered pairs; pickable is the same with an
    # exhausted vertex at 0, so the first maximum is the first most-deficient
    # vertex that is not exhausted
    deficiency = [len(p) for p in partners]
    pickable = deficiency[:]
    while True:
        pick = max(range(b), key=pickable.__getitem__)
        if pickable[pick] <= 0:
            break
        connected = False
        # most-deficient partner first, lower index first among equals (the
        # sort is stable also in reverse)
        for j in sorted(sorted(partners[pick]), key=deficiency.__getitem__, reverse=True):
            pair = (min(pick, j), max(pick, j))
            mid = next(candidates[pair], None)
            if mid is None:
                continue
            used_middles.add(mid)
            paths[pair] = (branch[pair[0]], mid, branch[pair[1]])
            partners[pick].discard(j)
            partners[j].discard(pick)
            for x in pair:
                deficiency[x] -= 1
                pickable[x] -= 1
            stats.length2_paths += 1
            connected = True
            break
        if not connected:
            pickable[pick] = 0
    return paths, {(i, j) for i in range(b) for j in partners[i] if i < j}
