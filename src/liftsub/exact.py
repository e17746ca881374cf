"""Exact brute-force references at tiny scale.

Everything here is a ground-truth oracle: exact largest clique-subdivision
order, exact matching-avoidance probabilities via the permanent, the
edge-count nonexistence criterion, and the common-neighbor property used to
rule out full-order subdivisions.  All searches are budget-bounded and report
partial answers explicitly instead of silently degrading.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .lifts import BaseGraph, LiftGraph, _integer, derive_rng

__all__ = [
    "HajosResult",
    "MaxEdgesResult",
    "NonexistenceVerdict",
    "OracleBudget",
    "PropertySearchResult",
    "check_property_P",
    "exact_avoidance_probability",
    "exact_hajos_number",
    "lift_to_simple",
    "load_edge_list",
    "max_edges_on_b_subset",
    "search_property_P_violator",
    "subdivision_nonexistence_by_counting",
]


@dataclass(frozen=True)
class OracleBudget:
    max_nodes: int = 24
    max_states: int = 100_000_000
    time_limit: float = 60.0

    def __post_init__(self):
        object.__setattr__(self, "max_nodes", _integer(self.max_nodes, "max_nodes"))
        object.__setattr__(self, "max_states", _integer(self.max_states, "max_states"))
        # `not > 0` also refuses a NaN limit, which would never expire
        if self.max_nodes < 1 or self.max_states < 1 or not self.time_limit > 0:
            raise ValueError("budget components must be positive")


class _BudgetExhausted(Exception):
    pass


class _Tracker:
    def __init__(self, budget: OracleBudget, deadline: Optional[float] = None):
        self.max_states = budget.max_states
        self.deadline = deadline if deadline is not None else time.monotonic() + budget.time_limit
        self.states = 0

    def charge(self, k: int = 1) -> None:
        self.states += k
        if self.states > self.max_states:
            raise _BudgetExhausted("state budget exhausted")
        if self.states % 4096 == 0 and time.monotonic() > self.deadline:
            raise _BudgetExhausted("time budget exhausted")


def lift_to_simple(G: LiftGraph) -> BaseGraph:
    """The lift as a plain graph on its flat ids fiber*ell + layer."""
    edges = tuple((u, w) for u, row in enumerate(G.flat_adjacency) for w in row.tolist() if u < w)
    return BaseGraph(G.num_vertices, edges)


def load_edge_list(text: str) -> BaseGraph:
    """Parse a plain edge list, one '"u v"' pair per line, 0-indexed.

    Only canonical input is read: each edge once in either orientation, no
    loops, and decimal numbers without leading zeros.  The lines may come in
    any order; the graph holds the sorted pairs (min, max).
    """
    seen = set()
    top = -1
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        # ASCII digits only: str.isdigit also takes other scripts' digits
        # and superscripts
        if len(parts) != 2 or not all(p.isascii() and p.isdigit()
                                      and (p == "0" or p[0] != "0") for p in parts):
            raise ValueError(f"line {lineno}: expected 'u v' with non-negative integers "
                             "without leading zeros")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"line {lineno}: loop {u} {v} is not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        top = max(top, u, v)
    return BaseGraph(top + 1 if top >= 0 else 1, tuple(sorted(seen)))


# --- largest clique subdivision ----------------------------------------------


@dataclass(frozen=True)
class HajosResult:
    best: int
    upper: int
    exact: bool
    witness_branch: tuple[int, ...] = ()
    witness_paths: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict, compare=False)
    states: int = 0


def _count_edges_within(H: BaseGraph, B: Sequence[int]) -> int:
    mask = 0
    for v in B:
        mask |= 1 << v
    return sum((H.adj[v] & mask).bit_count() for v in B) // 2


def _iter_bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reachable(H: BaseGraph, u: int, v: int, free_mask: int, memo: dict) -> bool:
    key = (u, v, free_mask)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if H.adj[u] >> v & 1:
        memo[key] = True
        return True
    seen = 1 << u
    frontier = H.adj[u] & (free_mask | 1 << v)
    while frontier:
        if frontier >> v & 1:
            memo[key] = True
            return True
        seen |= frontier
        nxt = 0
        for x in _iter_bits(frontier & free_mask):
            nxt |= H.adj[x]
        frontier = nxt & (free_mask | 1 << v) & ~seen
    memo[key] = False
    return False


def _paths_for_pair(H: BaseGraph, u: int, v: int, free_mask: int,
                    tracker: _Tracker) -> Iterable[tuple[int, ...]]:
    """Yield internal-vertex tuples of simple u-v paths, shortest first."""
    if H.adj[u] >> v & 1:
        yield ()
    max_internal = free_mask.bit_count()

    def exact_depth(last: int, chosen: tuple[int, ...], remaining_mask: int, left: int):
        # enumerate paths with exactly `left` more internal vertices
        tracker.charge()
        for x in _iter_bits(H.adj[last] & remaining_mask):
            nxt = chosen + (x,)
            if left == 1:
                if H.adj[x] >> v & 1:
                    yield nxt
            else:
                yield from exact_depth(x, nxt, remaining_mask & ~(1 << x), left - 1)

    for k in range(1, max_internal + 1):
        yield from exact_depth(u, (), free_mask, k)


def _connect_all(H: BaseGraph, branch: Sequence[int],
                 tracker: _Tracker) -> Optional[dict[tuple[int, int], tuple[int, ...]]]:
    b = len(branch)
    branch_mask = 0
    for v in branch:
        branch_mask |= 1 << v
    all_free = ((1 << H.num_vertices) - 1) & ~branch_mask
    pairs = list(combinations(range(b), 2))

    def common_free(i: int, j: int) -> int:
        return (H.adj[branch[i]] & H.adj[branch[j]] & all_free).bit_count()

    pairs.sort(key=lambda p: (common_free(*p), p))
    memo: dict = {}
    assignment: dict[tuple[int, int], tuple[int, ...]] = {}

    def backtrack(k: int, free_mask: int) -> bool:
        tracker.charge()
        if k == len(pairs):
            return True
        # feasibility prune: every remaining pair must stay connectable and
        # the non-adjacent ones need at least one free internal vertex each
        needed = 0
        for i, j in pairs[k:]:
            u, v = branch[i], branch[j]
            if not H.adj[u] >> v & 1:
                needed += 1
            if not _reachable(H, u, v, free_mask, memo):
                return False
        if needed > free_mask.bit_count():
            return False
        i, j = pairs[k]
        u, v = branch[i], branch[j]
        for internal in _paths_for_pair(H, u, v, free_mask, tracker):
            used = 0
            for x in internal:
                used |= 1 << x
            assignment[(i, j)] = (u,) + internal + (v,)
            if backtrack(k + 1, free_mask & ~used):
                return True
            del assignment[(i, j)]
        return False

    if backtrack(0, all_free):
        return dict(assignment)
    return None


def _find_subdivision(H: BaseGraph, b: int, tracker: _Tracker
                      ) -> Optional[tuple[tuple[int, ...], dict]]:
    N = H.num_vertices
    if b < 1 or b > N:
        return None
    if b == 1:
        return (0,), {}
    candidates = [v for v in range(N) if H.degree(v) >= b - 1]
    if len(candidates) < b:
        return None
    edge_floor = math.comb(b, 2) - (N - b)
    for B in combinations(candidates, b):
        tracker.charge()
        if _count_edges_within(H, B) < edge_floor:
            continue
        paths = _connect_all(H, B, tracker)
        if paths is not None:
            return B, paths
    return None


def exact_hajos_number(H: BaseGraph, budget: Optional[OracleBudget] = None) -> HajosResult:
    """Largest b such that H contains a K_b subdivision, by descending search.

    Starts at min(max degree + 1, |V|) and walks down; each level either finds
    a witness, proves nonexistence, or runs out of budget.  Budget exhaustion
    yields a partial answer: `best` is the largest certified order and
    `exact` is False when some higher order was left undecided.
    """
    if budget is None:
        budget = OracleBudget()
    if H.num_vertices > budget.max_nodes:
        raise ValueError(f"graph has {H.num_vertices} vertices, budget allows {budget.max_nodes}")
    deadline = time.monotonic() + budget.time_limit
    tracker = _Tracker(budget, deadline)
    upper = min(H.max_degree() + 1, H.num_vertices)
    unknown_top = 0
    for b in range(upper, 0, -1):
        try:
            found = _find_subdivision(H, b, tracker)
        except _BudgetExhausted:
            unknown_top = max(unknown_top, b)
            # lower levels get a fresh state counter but share the deadline
            tracker = _Tracker(budget, deadline)
            continue
        if found is not None:
            branch, paths = found
            return HajosResult(best=b, upper=max(unknown_top, b),
                               exact=unknown_top <= b,
                               witness_branch=tuple(branch), witness_paths=paths,
                               states=tracker.states)
    return HajosResult(best=0, upper=unknown_top, exact=unknown_top == 0, states=tracker.states)


# --- edge-count nonexistence criterion ----------------------------------------


@dataclass(frozen=True)
class MaxEdgesResult:
    max_edges: int
    exact: bool
    subset: tuple[int, ...]
    states: int = 0


def max_edges_on_b_subset(H: BaseGraph, b: int,
                          budget: Optional[OracleBudget] = None) -> MaxEdgesResult:
    """Exact max of e(H[B]) over b-subsets, by include-first branch and bound.

    The search walks the vertices in degree-descending order and cuts a
    branch when either bound on its best completion reaches the best count
    so far: the edges already chosen plus the next `need` degrees, or half of
    the summed caps min(deg v, b-1) of the chosen vertices and the next
    `need`, since 2e(B) is the sum of the degrees inside B and none of them
    exceeds b-1.  A cut branch holds nothing strictly better than the best
    count, so the result equals the unpruned search's.

    If the budget runs out the returned value is a lower bound, flagged via
    exact=False.
    """
    if budget is None:
        budget = OracleBudget()
    N = H.num_vertices
    if not (1 <= b <= N):
        raise ValueError(f"b must lie in [1, {N}]")
    tracker = _Tracker(budget)
    order = sorted(range(N), key=lambda v: -H.degree(v))
    position = [0] * N
    for p, v in enumerate(order):
        position[v] = p
    # adjacency and the chosen set as bitmasks over positions in `order`
    adj = [sum(1 << position[w] for w in _iter_bits(H.adj[v])) for v in order]
    degs = [H.degree(v) for v in order]
    caps = [min(d, b - 1) for d in degs]
    # both lists are sorted descending, so the next `need` entries dominate
    # any `need` later ones; prefix sums read their sums in O(1)
    deg_prefix = list(accumulate(degs, initial=0))
    cap_prefix = list(accumulate(caps, initial=0))
    best_edges, best_mask = -1, 0
    # Depth first, include branch first, without recursion: a node walks on
    # into its include child and pushes its exclude child, so nodes are
    # charged in the order of the recursive search and the stack holds at
    # most N pending excludes.
    stack = [(0, 0, 0, 0, 0)]
    exact = True
    try:
        while stack:
            idx, size, chosen, e_cur, cap_cur = stack.pop()
            while True:
                tracker.charge()
                if size == b:
                    if e_cur > best_edges:
                        best_edges, best_mask = e_cur, chosen
                    break
                end = idx + b - size
                if end > N:
                    break
                if (e_cur + deg_prefix[end] - deg_prefix[idx] <= best_edges
                        or (cap_cur + cap_prefix[end] - cap_prefix[idx]) // 2 <= best_edges):
                    break
                stack.append((idx + 1, size, chosen, e_cur, cap_cur))
                e_cur += (adj[idx] & chosen).bit_count()
                cap_cur += caps[idx]
                chosen |= 1 << idx
                idx, size = idx + 1, size + 1
    except _BudgetExhausted:
        exact = False
    subset = tuple(sorted(order[p] for p in _iter_bits(best_mask)))
    return MaxEdgesResult(max_edges=max(best_edges, 0), exact=exact,
                          subset=subset, states=tracker.states)


@dataclass(frozen=True)
class NonexistenceVerdict:
    no_subdivision: bool
    b: int
    threshold: int
    max_edges: int
    exact: bool
    note: str = ""


def subdivision_nonexistence_by_counting(
    G: LiftGraph | BaseGraph, b: int,
    budget: Optional[OracleBudget] = None,
) -> NonexistenceVerdict:
    """Certify 'no K_b subdivision' when every b-set spans too few edges.

    The branch vertices of a K_b subdivision in an N-vertex graph must span
    at least C(b,2) + b - N edges; when even the best b-set falls short, no
    subdivision exists.  A non-positive threshold makes the criterion vacuous.
    """
    H = lift_to_simple(G) if isinstance(G, LiftGraph) else G
    N = H.num_vertices
    threshold = math.comb(b, 2) + b - N
    if threshold <= 0:
        return NonexistenceVerdict(no_subdivision=False, b=b, threshold=threshold,
                                   max_edges=-1, exact=True, note="criterion vacuous")
    res = max_edges_on_b_subset(H, b, budget)
    if res.exact and res.max_edges < threshold:
        return NonexistenceVerdict(no_subdivision=True, b=b, threshold=threshold,
                                   max_edges=res.max_edges, exact=True)
    note = "" if res.exact else "budget exhausted: max_edges is only a lower bound"
    return NonexistenceVerdict(no_subdivision=False, b=b, threshold=threshold,
                               max_edges=res.max_edges, exact=res.exact, note=note)


# --- common-neighbor property --------------------------------------------------


def check_property_P(G: LiftGraph, X: Iterable) -> bool:
    """True iff some two vertices of X have >= 2 common neighbors outside X.

    X must have exactly n vertices (n = number of fibers), the branch-set
    size the property constrains.
    """
    n = G.base.num_vertices
    flat_x = [G.flat_id(v) for v in X]
    if len(set(flat_x)) != len(flat_x):
        raise ValueError("X contains repeated vertices")
    if len(flat_x) != n:
        raise ValueError(f"X must have exactly n={n} vertices, got {len(flat_x)}")
    adj = G.flat_adjacency
    x_set = set(flat_x)
    nbr_sets = {u: set(adj[u].tolist()) - x_set for u in flat_x}
    for u, v in combinations(flat_x, 2):
        if len(nbr_sets[u] & nbr_sets[v]) >= 2:
            return True
    return False


@dataclass(frozen=True)
class PropertySearchResult:
    violator: Optional[tuple]
    exhaustive: bool
    examined: int


def search_property_P_violator(
    G: LiftGraph,
    budget: Optional[OracleBudget] = None,
    seed: int = 0,
) -> PropertySearchResult:
    """Look for an n-set X in which no two vertices share 2 outside neighbors.

    Enumerates all n-subsets when that fits the state budget, otherwise
    samples random n-subsets until the budget runs out.
    """
    if budget is None:
        budget = OracleBudget()
    n = G.base.num_vertices
    N = G.num_vertices
    total = math.comb(N, n)
    examined = 0
    if total <= budget.max_states:
        for X in combinations(range(N), n):
            examined += 1
            vx = [G.vertex_at(u) for u in X]
            if not check_property_P(G, vx):
                return PropertySearchResult(violator=tuple(vx), exhaustive=True, examined=examined)
        return PropertySearchResult(violator=None, exhaustive=True, examined=examined)
    rng = derive_rng(seed)
    deadline = time.monotonic() + budget.time_limit
    while examined < budget.max_states and time.monotonic() < deadline:
        X = rng.choice(N, size=n, replace=False).tolist()
        examined += 1
        vx = [G.vertex_at(u) for u in X]
        if not check_property_P(G, vx):
            return PropertySearchResult(violator=tuple(vx), exhaustive=False, examined=examined)
    return PropertySearchResult(violator=None, exhaustive=False, examined=examined)


# --- exact avoidance probability ------------------------------------------------

# Every Ryser term is a product of ell row sums of at most ell each, so
# |term| <= 12^12 < 2^44, and the 2^12 terms sum to less than 2^56 < 2^63:
# the int64 arithmetic below is exact up to this cap.
MAX_PERMANENT_ELL = 12


def _subset_bits(k: int) -> np.ndarray:
    """Row s holds the bits of s: the (2^k, k) int8 table of column subsets."""
    return (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(np.int8)


def _parity_signs(bits: np.ndarray) -> np.ndarray:
    return 1 - 2 * (bits.sum(axis=1, dtype=np.int64) & 1)


def exact_avoidance_probability(F: Iterable[tuple[int, int]], ell: int) -> Fraction:
    """Exact probability that a uniform perfect matching avoids every pair in F.

    Equals permanent(J - A_F) / ell!, with the permanent of the 0/1 allowed
    matrix computed by inclusion-exclusion over column subsets S (Ryser):
    the signed sum of (-1)^(ell-|S|) times the product of the row sums over
    S.  The row sums over S are those over its low half of columns plus those
    over its high half.  Each half's subset table (at most 2^6 rows) takes
    one small int8 matmul against the allowed matrix, and one broadcast add
    gives the row sums of all 2^ell subsets.
    """
    ell = _integer(ell, "ell")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell > MAX_PERMANENT_ELL:
        raise ValueError(f"ell={ell} exceeds the permanent cap {MAX_PERMANENT_ELL}")
    allowed = np.ones((ell, ell), dtype=np.int8)
    for a, b in F:
        a, b = _integer(a, "layer"), _integer(b, "layer")
        if not (0 <= a < ell and 0 <= b < ell):
            raise ValueError(f"pair ({a},{b}) out of range for ell={ell}")
        allowed[a, b] = 0
    h = ell // 2
    lo_bits, hi_bits = _subset_bits(h), _subset_bits(ell - h)
    # lo[s, i]: allowed columns of row i among the low columns in s; a row
    # sum is at most ell, so int8 holds it
    lo = lo_bits @ allowed[:, :h].T
    hi = hi_bits @ allowed[:, h:].T
    # terms[t, s]: the Ryser product of the subset with high half t, low half s
    terms = (hi[:, None, :] + lo[None, :, :]).prod(axis=2, dtype=np.int64)
    # (-1)^(ell-|S|) = (-1)^ell * (-1)^|high half| * (-1)^|low half|
    total = int(_parity_signs(hi_bits) @ terms @ _parity_signs(lo_bits))
    return Fraction(total if ell % 2 == 0 else -total, math.factorial(ell))
