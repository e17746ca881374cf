"""Joinedness, expansion, cross-matchings, and avoidance estimation."""

import math
from itertools import combinations

import pytest

from liftsub import (BudgetExceededError, check_expansion_into, check_joined,
                     complete_base, estimate_avoidance_probability, find_cross_matching,
                     sample_uniform_lift)
from liftsub.exact import exact_avoidance_probability
from liftsub.lifts import derive_rng


def brute_force_joined(G, m):
    """Literal double enumeration over disjoint m-sets."""
    N = G.num_vertices
    adj = G.flat_adjacency
    vertices = list(range(N))
    for A in combinations(vertices, m):
        rest = [v for v in vertices if v not in set(A)]
        for B in combinations(rest, m):
            if not any(w in set(B) for a in A for w in adj[a]):
                return False
    return True


def test_complete_graph_is_1_joined():
    G = sample_uniform_lift(complete_base(4), 1, seed=0)
    verdict = check_joined(G, 1, mode="exhaustive")
    assert verdict.holds and verdict.witness is None and verdict.mode == "exhaustive"


def test_matching_lift_is_not_1_joined():
    G = sample_uniform_lift(complete_base(2), 2, seed=0)
    verdict = check_joined(G, 1, mode="exhaustive")
    assert not verdict.holds
    (A, B) = verdict.witness
    a, b = next(iter(A)), next(iter(B))
    assert a != b and not G.is_edge(a, b)


def test_sampled_agrees_with_exhaustive():
    for seed in range(50):
        G = sample_uniform_lift(complete_base(4), 2, seed=seed)
        exact = check_joined(G, 2, mode="exhaustive")
        assert exact.holds == brute_force_joined(G, 2)
        sampled = check_joined(G, 2, mode="sampled", trials=300, seed=seed)
        if exact.holds:
            assert sampled.holds  # no false witness can exist
        if not sampled.holds:
            A, B = sampled.witness
            assert not any(G.is_edge(a, b) for a in A for b in B)


def test_exhaustive_budget_refusal():
    G = sample_uniform_lift(complete_base(6), 10, seed=0)
    with pytest.raises(BudgetExceededError):
        check_joined(G, 5, mode="exhaustive", budget=1000)


def test_joined_refuses_non_positive_trials_and_non_integer_m():
    G = sample_uniform_lift(complete_base(4), 3, seed=0)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            check_joined(G, 2, mode="sampled", trials=trials)
    for m in (True, 1.5):
        with pytest.raises(TypeError, match="m must be an integer"):
            check_joined(G, m, mode="sampled")


EPS = 1 / 9  # largest epsilon whose hypothesis (9*eps*ell per fiber) is satisfiable


def test_expansion_singletons_on_full_lift():
    # every singleton's closed neighborhood has n-1 neighbors, so with
    # V = V(G) no violation is possible at this scale
    G = sample_uniform_lift(complete_base(8), 4, seed=1)
    report = check_expansion_into(G, list(G.vertex_ids()), epsilon=EPS,
                                  set_sizes=[1], trials=10, seed=0)
    assert report.violating_set is None
    assert report.tested_sets == G.num_vertices
    n, ell = 8, 4
    bound = min(EPS * n, EPS ** 6 * ell * n)
    assert report.worst_ratio >= n / bound  # supply is 1 + (n-1) per singleton


def test_expansion_full_fiber_set():
    # a full fiber of a K_n lift reaches every other fiber completely
    n, ell = 6, 5
    G = sample_uniform_lift(complete_base(n), ell, seed=3)
    report = check_expansion_into(G, list(G.vertex_ids()), epsilon=EPS,
                                  set_sizes=[ell], trials=1, seed=0)
    assert report.violating_set is None
    assert report.worst_ratio > 0


def test_expansion_hypothesis_violation_names_fiber():
    G = sample_uniform_lift(complete_base(4), 6, seed=2)
    V = [v for v in G.vertex_ids() if v.fiber != 2]
    with pytest.raises(ValueError, match="fiber 2"):
        check_expansion_into(G, V, epsilon=EPS, set_sizes=[1])


def test_expansion_refuses_zero_trials_above_size_one():
    G = sample_uniform_lift(complete_base(9), 9, seed=2)
    V = list(G.vertex_ids())
    with pytest.raises(ValueError, match="trials"):
        check_expansion_into(G, V, epsilon=EPS, set_sizes=[2], trials=0)
    with pytest.raises(TypeError, match="set size"):
        check_expansion_into(G, V, epsilon=EPS, set_sizes=[2.0])
    # singletons are enumerated, not sampled: no trials are needed
    report = check_expansion_into(G, V, epsilon=EPS, set_sizes=[1], trials=0)
    assert report.tested_sets == G.num_vertices


def test_expansion_rejects_bad_epsilon():
    G = sample_uniform_lift(complete_base(3), 2, seed=0)
    with pytest.raises(ValueError):
        check_expansion_into(G, list(G.vertex_ids()), epsilon=0.7)


# cross-matchings take transversals of flat ids, fiber*ell + layer


def flat_is_edge(G, u, v):
    """The lift's own edge test on two flat ids, read from the matchings."""
    return G.is_edge(G.vertex_at(u), G.vertex_at(v))


def test_cross_matching_two_transversals():
    G = sample_uniform_lift(complete_base(4), 6, seed=2)
    T1 = [f * 6 for f in range(4)]  # layer 0 of every fiber
    T2 = [f * 6 + 1 for f in range(4)]  # layer 1
    M = find_cross_matching(G, [T1, T2])
    has_cross_edge = any(
        flat_is_edge(G, u, v) for u in T1 for v in T2 if u // 6 != v // 6)
    assert ((0, 1) in M.covered_pairs) == has_cross_edge


def test_cross_matching_no_edges():
    # a 1-lift of an edgeless-ish base: two transversals inside one fiber pair
    # with no crossing edges between them
    G = sample_uniform_lift(complete_base(2), 4, seed=0)
    perm = G.matchings[0].tolist()  # row 0 is base edge (0, 1)
    T1 = [0, 4 + perm[1]]  # (0,0) and (1,perm[1])
    T2 = [2, 4 + perm[3]]  # (0,2) and (1,perm[3])
    M = find_cross_matching(G, [T1, T2])
    assert M.covered_pairs == frozenset() and M.edges == frozenset()


def _assert_cross_matching_contract(G, transversals, M):
    seen = set()
    for (i, j), (u, v) in M.by_pair.items():
        assert flat_is_edge(G, u, v)
        assert u not in seen and v not in seen
        seen.add(u)
        seen.add(v)
        # ordered: the first vertex lies in transversal i, the second in j
        assert u in transversals[i] and v in transversals[j]
    # greedy maximality: no addable edge covering an uncovered pair
    for i, j in combinations(range(len(transversals)), 2):
        if (i, j) in M.covered_pairs:
            continue
        for u in transversals[i]:
            if u in seen:
                continue
            for v in transversals[j]:
                if v in seen:
                    continue
                assert not flat_is_edge(G, u, v), f"addable edge {u}-{v} for pair {(i, j)}"


def test_cross_matching_maximality_and_disjointness():
    cases = [(8, 10, 4, seed) for seed in range(5)] + [(16, 24, 12, 11)]
    for n, ell, k, seed in cases:
        G = sample_uniform_lift(complete_base(n), ell, seed=seed)
        transversals = [[f * ell + t for f in range(n)] for t in range(k)]
        M = find_cross_matching(G, transversals)
        _assert_cross_matching_contract(G, transversals, M)


def test_cross_matching_rejects_overlap():
    G = sample_uniform_lift(complete_base(3), 2, seed=0)
    T = [f * 2 for f in range(3)]
    with pytest.raises(ValueError):
        find_cross_matching(G, [T, T])


@pytest.mark.parametrize("bad", [-1, 6])
def test_cross_matching_rejects_ids_outside_the_lift(bad):
    # N = 6; -1 would otherwise read the last adjacency row
    G = sample_uniform_lift(complete_base(3), 2, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        find_cross_matching(G, [[0, 2, 4], [bad, 3, 5]])


def test_expansion_sampled_report_at_scale():
    # desk-scale version of the whp expansion statement: sampled U of several
    # sizes against V = V(G); violations would be certificates, none expected
    n, ell = 32, 40
    G = sample_uniform_lift(complete_base(n), ell, seed=6)
    report = check_expansion_into(G, list(G.vertex_ids()), epsilon=EPS,
                                  set_sizes=[1, 2, 8, 32], trials=300, seed=2)
    assert report.violating_set is None
    assert report.tested_sets == G.num_vertices + 3 * 300


def test_cross_matching_coverage_fraction_at_scale():
    # desk-scale analogue of the almost-all-pairs-covered phenomenon
    n, ell = 20, 24
    G = sample_uniform_lift(complete_base(n), ell, seed=7)
    transversals = [[f * ell + t for f in range(n)] for t in range(n)]
    M = find_cross_matching(G, transversals)
    total = math.comb(n, 2)
    covered = len(M.covered_pairs)
    assert covered / total > 0.5  # loose floor; observed well above


def test_avoidance_empty_forbidden_set():
    est = estimate_avoidance_probability([], 5, trials=100, seed=0)
    assert est.estimate == 1.0


def test_avoidance_identity_matching():
    est = estimate_avoidance_probability([(i, i) for i in range(3)], 3,
                                         trials=30000, seed=1)
    assert est.lower <= 1 / 3 <= est.upper
    assert est.estimate <= math.exp(-3 / 6) + 0.05


def test_avoidance_estimate_within_ci_of_exact():
    rng = derive_rng(12)
    for ell in (4, 5, 6):
        pairs = {(int(rng.integers(ell)), int(rng.integers(ell))) for _ in range(2 * ell)}
        exact = float(exact_avoidance_probability(pairs, ell))
        est = estimate_avoidance_probability(pairs, ell, trials=40000, seed=ell)
        assert est.lower <= exact <= est.upper


def test_avoidance_rejects_out_of_range():
    with pytest.raises(ValueError):
        estimate_avoidance_probability([(0, 5)], 3, trials=10)


def test_exact_values_satisfy_avoidance_bound():
    rng = derive_rng(99)
    for _ in range(40):
        ell = int(rng.integers(3, 9))
        k = int(rng.integers(0, 2 * ell))
        pairs = {(int(rng.integers(ell)), int(rng.integers(ell))) for _ in range(k)}
        p = exact_avoidance_probability(pairs, ell)
        assert float(p) <= math.exp(-len(pairs) / (2 * ell)) + 1e-12


def test_avoidance_monotone_in_forbidden_pairs():
    rng = derive_rng(5)
    for _ in range(20):
        ell = int(rng.integers(3, 7))
        pairs = list({(int(rng.integers(ell)), int(rng.integers(ell))) for _ in range(ell)})
        prev = exact_avoidance_probability([], ell)
        for k in range(1, len(pairs) + 1):
            cur = exact_avoidance_probability(pairs[:k], ell)
            assert cur <= prev
            prev = cur
