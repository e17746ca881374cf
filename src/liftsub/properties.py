"""Testable pseudorandomness predicates for sampled lifts.

Covers joinedness (every two disjoint m-sets see a crossing edge), expansion
into a fixed vertex set, greedy cross-matchings between transversal families,
and Monte Carlo estimation of matching-avoidance probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .exact import lift_to_simple
from .lifts import LiftGraph, VertexId, _integer, derive_rng

__all__ = [
    "AvoidanceEstimate",
    "BudgetExceededError",
    "CrossMatching",
    "ExpansionReport",
    "JoinedVerdict",
    "check_expansion_into",
    "check_joined",
    "estimate_avoidance_probability",
    "find_cross_matching",
]

EXHAUSTIVE_PAIR_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """An exhaustive check would exceed its enumeration budget."""


@dataclass(frozen=True)
class JoinedVerdict:
    holds: bool
    witness: Optional[tuple[frozenset[VertexId], frozenset[VertexId]]]
    mode: str  # "exhaustive" | "sampled"
    trials: int


def check_joined(
    G: LiftGraph,
    m: int,
    mode: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
    budget: int = EXHAUSTIVE_PAIR_BUDGET,
) -> JoinedVerdict:
    """Decide whether every two disjoint m-sets have a crossing edge.

    Exhaustive mode enumerates all unordered pairs of disjoint m-sets and is
    exact; it refuses (rather than silently sampling) when the enumeration
    exceeds `budget`.  Sampled mode draws random disjoint pairs: a verdict of
    False comes with a concrete witness, True proves nothing.
    """
    m = _integer(m, "m")
    if m < 1:
        raise ValueError("m must be >= 1")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode '{mode}'")
    if mode == "sampled" and trials < 1:
        raise ValueError("trials must be >= 1")
    N = G.num_vertices
    if 2 * m > N:
        return JoinedVerdict(holds=True, witness=None, mode=mode, trials=0)
    if mode == "exhaustive":
        total = math.comb(N, m) * math.comb(N - m, m) // 2
        if total > budget:
            raise BudgetExceededError(
                f"exhaustive joinedness needs {total} set pairs, budget is {budget}")
        trials = 0
        # each unordered pair {A, B} once: B's vertices all follow A[0]
        pairs = ((A, B) for A in combinations(range(N), m)
                 for B in combinations([v for v in range(A[0] + 1, N) if v not in A], m))
    else:
        rng = derive_rng(seed)
        picks = (rng.choice(N, size=2 * m, replace=False).tolist() for _ in range(trials))
        pairs = ((pick[:m], pick[m:]) for pick in picks)
    masks = lift_to_simple(G).adj
    for A, B in pairs:
        mask_B = 0
        for x in B:
            mask_B |= 1 << x
        if not any(masks[a] & mask_B for a in A):
            witness = (frozenset(map(G.vertex_at, A)), frozenset(map(G.vertex_at, B)))
            return JoinedVerdict(holds=False, witness=witness, mode=mode, trials=trials)
    return JoinedVerdict(holds=True, witness=None, mode=mode, trials=trials)


@dataclass(frozen=True)
class ExpansionReport:
    epsilon: float
    tested_sets: int
    worst_ratio: float
    violating_set: Optional[frozenset[VertexId]]


def check_expansion_into(
    G: LiftGraph,
    V: Iterable[VertexId],
    epsilon: float,
    set_sizes: Sequence[int] = (1,),
    trials: int = 1000,
    seed: int = 0,
) -> ExpansionReport:
    """Probe |N(U) cap V| >= min(eps*n*|U|, eps^6*ell*n) over sampled U.

    N(U) here is the closed neighborhood (U together with its neighbors).
    Singletons are checked exhaustively; larger requested sizes are sampled.
    V must contain at least max(9*eps*ell, ell-n) vertices of every fiber,
    mirroring the hypothesis under which the bound is meaningful.
    """
    if not (0 < epsilon <= 0.5):
        raise ValueError("epsilon must lie in (0, 1/2]")
    sizes = [_integer(size, "set size") for size in set_sizes]
    for size in sizes:
        if not (1 <= size <= G.num_vertices):
            raise ValueError(f"set size {size} out of range")
    if trials < 1 and any(size > 1 for size in sizes):
        raise ValueError("trials must be >= 1 to sample sets above size 1")
    n, ell = G.base.num_vertices, G.ell
    v_flags = np.zeros(G.num_vertices, dtype=bool)
    per_fiber = [0] * n
    for v in V:
        f = G.flat_id(v)
        if not v_flags[f]:
            v_flags[f] = True
            per_fiber[f // ell] += 1
    need = max(9.0 * epsilon * ell, float(ell - n))
    for f, count in enumerate(per_fiber):
        if count < need:
            raise ValueError(
                f"fiber {f} contributes {count} vertices to V, hypothesis needs at least {need:g}")

    adj = G.flat_adjacency
    cap = epsilon ** 6 * ell * n

    def measure(U: Sequence[int]) -> tuple[float, float]:
        hit = set(u for u in U if v_flags[u])
        for u in U:
            for w in adj[u].tolist():
                if v_flags[w]:
                    hit.add(w)
        bound = min(epsilon * n * len(U), cap)
        return len(hit), bound

    worst = math.inf
    violator: Optional[frozenset[VertexId]] = None
    tested = 0
    rng = derive_rng(seed)
    for size in sizes:
        if size == 1:
            candidates: Iterable[Sequence[int]] = ([u] for u in range(G.num_vertices))
        else:
            candidates = (rng.choice(G.num_vertices, size=size, replace=False).tolist()
                          for _ in range(trials))
        for U in candidates:
            got, bound = measure(U)
            ratio = got / bound
            tested += 1
            if ratio < worst:
                worst = ratio
                if got < bound:
                    violator = frozenset(G.vertex_at(u) for u in U)
    return ExpansionReport(epsilon=epsilon, tested_sets=tested,
                           worst_ratio=worst, violating_set=violator)


@dataclass(frozen=True)
class CrossMatching:
    """A lift matching covering at most one edge per transversal pair.

    `by_pair[(i, j)] = (u, w)` in flat ids, u in transversal i and w in j."""

    by_pair: dict[tuple[int, int], tuple[int, int]]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(tuple(sorted(e)) for e in self.by_pair.values())

    @property
    def covered_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.by_pair)


def find_cross_matching(G: LiftGraph, transversals: Sequence[Sequence[int]]) -> CrossMatching:
    """Greedy maximal matching with at most one edge per transversal pair.

    Transversals are lists of flat vertex ids: pairwise disjoint, one vertex
    per fiber, all over the same fibers.  Pairs (i, j) are processed in
    lexicographic order; within a pair the scan walks transversal i in
    increasing fiber and takes the first vertex-disjoint lift edge into
    transversal j.  One pass is maximal: the matched vertices only grow, so a
    pair that found no edge stays uncoverable.
    """
    N, ell = G.num_vertices, G.ell
    rows = [sorted(T) for T in transversals]  # ascending flat id is ascending fiber
    fibers = [x // ell for x in rows[0]] if rows else []
    owner: dict[int, int] = {}  # flat id -> index of its transversal
    for t, row in enumerate(rows):
        for x in row:
            if not 0 <= x < N:
                raise ValueError(f"vertex id {x} out of range [0,{N})")
            if owner.setdefault(x, t) != t:
                raise ValueError(f"transversals are not pairwise disjoint at {x}")
        row_fibers = [x // ell for x in row]
        if len(set(row_fibers)) != len(row):
            raise ValueError(f"transversal {t} has two vertices in one fiber")
        if row_fibers != fibers:
            raise ValueError("all transversals must cover the same set of fibers")

    adj = G.flat_adjacency
    used: set[int] = set()
    by_pair: dict[tuple[int, int], tuple[int, int]] = {}

    def try_cover(i: int, j: int) -> None:
        for u in rows[i]:
            if u in used:
                continue
            for w in adj[u].tolist():
                if w not in used and owner.get(w) == j:
                    used.add(u)
                    used.add(w)
                    by_pair[(i, j)] = (u, w)
                    return

    for i, j in combinations(range(len(rows)), 2):
        try_cover(i, j)
    return CrossMatching(by_pair=by_pair)


@dataclass(frozen=True)
class AvoidanceEstimate:
    estimate: float
    lower: float
    upper: float
    trials: int
    successes: int


_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def _wilson(successes: int, trials: int, z: float = _Z99) -> tuple[float, float]:
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_avoidance_probability(
    F: Iterable[tuple[int, int]],
    ell: int,
    trials: int = 10000,
    seed: int = 0,
) -> AvoidanceEstimate:
    """Monte Carlo estimate that a uniform perfect matching avoids all of F.

    F is a set of (left layer, right layer) pairs on [0, ell) x [0, ell).
    Returns the point estimate with a two-sided 99% Wilson interval.
    """
    ell = _integer(ell, "ell")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pairs = set()
    for a, b in F:
        a, b = _integer(a, "layer"), _integer(b, "layer")
        if not (0 <= a < ell and 0 <= b < ell):
            raise ValueError(f"pair ({a},{b}) out of range for ell={ell}")
        pairs.add((a, b))
    forbidden = np.zeros((ell, ell), dtype=bool)
    for a, b in pairs:
        forbidden[a, b] = True
    rng = derive_rng(seed)
    base = np.tile(np.arange(ell), (trials, 1))
    perms = rng.permuted(base, axis=1)
    hits = forbidden[np.arange(ell)[None, :], perms]
    successes = int((~hits.any(axis=1)).sum())
    lower, upper = _wilson(successes, trials)
    return AvoidanceEstimate(estimate=successes / trials, lower=lower, upper=upper,
                             trials=trials, successes=successes)
