"""Tiny-scale exact oracles."""

import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from liftsub import (BaseGraph, OracleBudget, check_property_P,
                     exact_avoidance_probability, exact_hajos_number, complete_base,
                     lift_to_simple, max_edges_on_b_subset, sample_uniform_lift,
                     search_property_P_violator, subdivision_nonexistence_by_counting)
from liftsub.exact import MAX_PERMANENT_ELL, load_edge_list
from liftsub.lifts import VertexId, derive_rng


def complete_graph(n):
    return BaseGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle_graph(n):
    return BaseGraph(n, tuple(sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return BaseGraph(10, tuple(sorted(tuple(sorted(e)) for e in outer + spokes + inner)))


def random_graph(n, p, seed):
    rng = derive_rng(seed)
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < p)
    return BaseGraph(n, edges)


def test_hajos_known_values():
    assert exact_hajos_number(complete_graph(5)).best == 5
    assert exact_hajos_number(cycle_graph(7)).best == 3
    assert exact_hajos_number(petersen()).best == 4
    # K_4 minus an edge: only 5 of the 6 required edges available for b=4
    k4e = BaseGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2)))
    assert exact_hajos_number(k4e).best == 3


def test_hajos_degenerate_graphs():
    assert exact_hajos_number(BaseGraph(1, ())).best == 1
    assert exact_hajos_number(BaseGraph(4, ())).best == 1
    assert exact_hajos_number(BaseGraph(4, ((0, 1),))).best == 2
    # two disjoint edges: still only a K_2 subdivision
    assert exact_hajos_number(BaseGraph(4, ((0, 1), (2, 3)))).best == 2


def test_hajos_result_is_exact_and_witnessed():
    H = petersen()
    res = exact_hajos_number(H)
    assert res.exact
    assert len(res.witness_branch) == 4
    used_internal = set()
    for (i, j), path in res.witness_paths.items():
        assert path[0] == res.witness_branch[i] and path[-1] == res.witness_branch[j]
        for a, b in zip(path, path[1:]):
            assert H.has_edge(a, b)
        for x in path[1:-1]:
            assert x not in used_internal
            assert x not in res.witness_branch
            used_internal.add(x)


def test_hajos_bounded_by_max_degree_plus_one():
    for seed in range(30):
        H = random_graph(8, 0.4, seed)
        res = exact_hajos_number(H)
        assert res.exact
        assert res.best <= H.max_degree() + 1


def test_hajos_monotone_under_edge_addition():
    for seed in range(15):
        H = random_graph(7, 0.35, seed + 100)
        non_edges = [(i, j) for i, j in combinations(range(7), 2)
                     if not H.has_edge(i, j)]
        if not non_edges:
            continue
        H2 = BaseGraph(7, tuple(sorted(H.edges + (non_edges[seed % len(non_edges)],))))
        assert exact_hajos_number(H).best <= exact_hajos_number(H2).best


def test_hajos_rejects_oversized_graph():
    with pytest.raises(ValueError):
        exact_hajos_number(complete_graph(30), OracleBudget(max_nodes=24))


def test_hajos_budget_exhaustion_flagged():
    H = random_graph(9, 0.5, 3)
    res = exact_hajos_number(H, OracleBudget(max_states=50, time_limit=60.0))
    full = exact_hajos_number(H)
    assert res.best <= full.best
    if res.best < full.best:
        assert not res.exact


def test_max_edges_on_subsets():
    assert max_edges_on_b_subset(complete_graph(5), 3).max_edges == 3
    assert max_edges_on_b_subset(BaseGraph(6, ()), 4).max_edges == 0
    for seed in range(10):
        H = random_graph(9, 0.5, seed + 50)
        for b in (3, 5):
            res = max_edges_on_b_subset(H, b)
            assert res.exact
            brute = max(
                sum(1 for x, y in combinations(B, 2) if H.has_edge(x, y))
                for B in combinations(range(9), b))
            assert res.max_edges == brute
            assert len(res.subset) == b


def reference_max_edges(H, b):
    """Reference search: the same include-first walk over the
    degree-descending order, cut only by the edges so far plus the next
    `need` degrees.  Returns (max_edges, subset, states)."""
    N = H.num_vertices
    order = sorted(range(N), key=lambda v: -H.degree(v))
    degs = [H.degree(v) for v in order]
    best = {"edges": -1, "subset": ()}
    states = 0

    def extend(idx, chosen, chosen_mask, e_cur):
        nonlocal states
        states += 1
        if len(chosen) == b:
            if e_cur > best["edges"]:
                best["edges"] = e_cur
                best["subset"] = tuple(sorted(chosen))
            return
        need = b - len(chosen)
        if N - idx < need:
            return
        if e_cur + sum(degs[idx:idx + need]) <= best["edges"]:
            return
        v = order[idx]
        gain = (H.adj[v] & chosen_mask).bit_count()
        chosen.append(v)
        extend(idx + 1, chosen, chosen_mask | 1 << v, e_cur + gain)
        chosen.pop()
        extend(idx + 1, chosen, chosen_mask, e_cur)

    extend(0, [], 0, 0)
    return max(best["edges"], 0), best["subset"], states


CRITERION_7_SHAPES = [(2, 10), (3, 6), (4, 5), (2, 8), (3, 5), (4, 4), (2, 6), (3, 4),
                      (4, 3), (2, 4)]


def assert_matches_reference(H):
    for b in range(1, H.num_vertices + 1):
        res = max_edges_on_b_subset(H, b)
        edges, subset, states = reference_max_edges(H, b)
        assert (res.max_edges, res.subset, res.exact) == (edges, subset, True), b
        # the extra bound only cuts branches, so it never adds states
        assert res.states <= states, b


@pytest.mark.parametrize("shape", CRITERION_7_SHAPES, ids=lambda s: f"n{s[0]}-ell{s[1]}")
def test_max_edges_matches_reference_on_lifts(shape):
    n, ell = shape
    for seed in range(3):
        assert_matches_reference(lift_to_simple(sample_uniform_lift(complete_base(n), ell, seed)))


def test_max_edges_matches_reference_on_uneven_degrees():
    # caps min(deg, b-1) differ from vertex to vertex here, unlike on a lift
    for seed in range(10):
        assert_matches_reference(random_graph(9, 0.5, seed))


def test_max_edges_budget_exhaustion_flagged():
    H = lift_to_simple(sample_uniform_lift(complete_base(4), 5, seed=0))
    full = max_edges_on_b_subset(H, 10)
    res = max_edges_on_b_subset(H, 10, OracleBudget(max_states=20))
    assert full.exact and not res.exact
    assert res.states == 21 and res.max_edges <= full.max_edges


def test_nonexistence_vacuous_cases():
    G = sample_uniform_lift(complete_base(4), 3, seed=0)
    v = subdivision_nonexistence_by_counting(G, 3)
    assert not v.no_subdivision and v.note == "criterion vacuous"
    # a clique meets the threshold exactly: inconclusive
    v = subdivision_nonexistence_by_counting(complete_graph(5), 5)
    assert v.threshold == math.comb(5, 2)
    assert not v.no_subdivision


def test_nonexistence_implies_smaller_hajos():
    for seed in range(8):
        G = sample_uniform_lift(complete_base(4), 4, seed=seed)
        H = lift_to_simple(G)
        hajos = exact_hajos_number(H).best
        for b in range(2, 17):
            verdict = subdivision_nonexistence_by_counting(H, b)
            if verdict.no_subdivision:
                assert hajos < b, (seed, b)


def test_nonexistence_certifies_k8_free_lift():
    # an 18-vertex 5-regular lift cannot span the 18 edges a K_8 subdivision
    # needs on its branch set
    G = sample_uniform_lift(complete_base(6), 3, seed=0)
    H = lift_to_simple(G)
    verdict = subdivision_nonexistence_by_counting(H, 8)
    assert verdict.threshold == 18
    assert verdict.no_subdivision and verdict.max_edges < 18
    # the descending search cannot decide b in {5, 6} within a short budget,
    # but its bracket must stay consistent with the counting certificate
    res = exact_hajos_number(H, OracleBudget(max_states=200_000, time_limit=5.0))
    assert res.best >= 3
    assert res.upper < 8


def test_property_p_checker_against_naive():
    def naive(G, X):
        xs = set(X)
        for u in xs:
            for v in xs:
                if u >= v:
                    continue
                common = 0
                for w in G.vertex_ids():
                    if w in xs:
                        continue
                    if G.is_edge(u, w) and G.is_edge(v, w):
                        common += 1
                if common >= 2:
                    return True
        return False

    rng = derive_rng(31)
    for trial in range(30):
        n = int(rng.integers(3, 6))
        ell = int(rng.integers(1, 1 + 24 // n))
        G = sample_uniform_lift(complete_base(n), ell, seed=trial)
        flats = rng.choice(G.num_vertices, size=n, replace=False)
        X = [G.vertex_at(int(f)) for f in flats]
        assert check_property_P(G, X) == naive(G, X)


def test_property_p_whole_graph_is_false():
    G = sample_uniform_lift(complete_base(5), 1, seed=0)
    assert check_property_P(G, list(G.vertex_ids())) is False


def test_property_p_size_validation():
    G = sample_uniform_lift(complete_base(4), 2, seed=0)
    with pytest.raises(ValueError):
        check_property_P(G, [VertexId(0, 0)])


def test_property_p_search_exhaustive_on_tiny():
    G = sample_uniform_lift(complete_base(3), 2, seed=1)
    res = search_property_P_violator(G, OracleBudget(max_states=10 ** 6))
    assert res.exhaustive
    if res.violator is not None:
        assert not check_property_P(G, list(res.violator))


def test_avoidance_probability_known_values():
    assert exact_avoidance_probability([], 4) == 1
    assert exact_avoidance_probability([(i, i) for i in range(3)], 3) == Fraction(1, 3)
    # full forbidden square: no matching avoids it
    full = [(a, b) for a in range(3) for b in range(3)]
    assert exact_avoidance_probability(full, 3) == 0


def test_avoidance_probability_matches_enumeration():
    rng = derive_rng(8)
    for ell in range(2, 8):
        for _ in range(6):
            k = int(rng.integers(0, ell * 2))
            F = {(int(rng.integers(ell)), int(rng.integers(ell))) for _ in range(k)}
            count = sum(1 for p in permutations(range(ell))
                        if not any((a, p[a]) in F for a in range(ell)))
            assert exact_avoidance_probability(F, ell) == Fraction(count, math.factorial(ell))


def reference_permanent_probability(F, ell):
    """Scalar Ryser over column subsets, one row sum at a time."""
    allowed = [[1] * ell for _ in range(ell)]
    for a, b in F:
        allowed[a][b] = 0
    total = 0
    for subset in range(1, 1 << ell):
        cols = [j for j in range(ell) if subset >> j & 1]
        prod = 1
        for i in range(ell):
            prod *= sum(allowed[i][j] for j in cols)
            if prod == 0:
                break
        total += prod if (ell - len(cols)) % 2 == 0 else -prod
    return Fraction(total, math.factorial(ell))


def test_avoidance_probability_matches_scalar_ryser():
    rng = derive_rng(12)
    for ell in range(1, MAX_PERMANENT_ELL + 1):
        full = [(a, b) for a in range(ell) for b in range(ell)]
        cases = [[], full, [(a, a) for a in range(ell)]]
        for _ in range(2 if ell == MAX_PERMANENT_ELL else 4):
            k = int(rng.integers(0, 3 * ell + 1))
            cases.append({(int(rng.integers(ell)), int(rng.integers(ell))) for _ in range(k)})
        for F in cases:
            assert exact_avoidance_probability(F, ell) == reference_permanent_probability(F, ell)
    # F empty at the cap is the largest-magnitude case: permanent(J) = 12!
    assert exact_avoidance_probability([], MAX_PERMANENT_ELL) == 1


def test_permanent_cap_keeps_int64_headroom():
    # each Ryser term is at most ell^ell and there are 2^ell of them
    ell = MAX_PERMANENT_ELL
    assert ell ** ell * 2 ** ell < 2 ** 63


def test_avoidance_probability_cap():
    with pytest.raises(ValueError):
        exact_avoidance_probability([], 13)


def test_load_edge_list():
    H = load_edge_list("0 1\n1 2\n\n# comment\n0 2\n")
    assert H.num_vertices == 3 and len(H.edges) == 3
    # any order and orientation; the graph holds the sorted (min, max) pairs
    assert load_edge_list("2 1\n1 0\n").edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError, match="line 1"):
        load_edge_list("a b\n")
    # an Arabic-Indic three, a superscript two and a fullwidth zero pass
    # str.isdigit; only ASCII digits are accepted
    for line in ("0 \u0663", "0 \u00b2", "\uff10 1"):
        with pytest.raises(ValueError, match="line 2: expected 'u v'"):
            load_edge_list(f"0 1\n{line}\n")


def test_load_edge_list_refuses_non_canonical_lines():
    # a reversed pair is the same edge, and `007` is not a canonical number
    with pytest.raises(ValueError, match="line 2: duplicate edge 1 0"):
        load_edge_list("0 1\n1 0\n007 2\n")
    with pytest.raises(ValueError, match="line 3: duplicate edge 0 1"):
        load_edge_list("0 1\n1 2\n0 1\n")
    for line in ("007 2", "0 00", "01 2"):
        with pytest.raises(ValueError, match="line 2: expected 'u v'"):
            load_edge_list(f"0 1\n{line}\n")
    with pytest.raises(ValueError, match="line 2: loop 3 3"):
        load_edge_list("0 1\n3 3\n")
    # a lone zero and trailing zeros are canonical
    assert load_edge_list("0 10\n10 20\n").edges == ((0, 10), (10, 20))


def test_budget_refuses_nan_time_limit():
    # a NaN deadline never expires, so it would switch the time budget off
    for limit in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            OracleBudget(time_limit=limit)
