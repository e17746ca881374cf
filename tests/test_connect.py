"""Embedding state maintenance and disjoint short-path routing, in flat
vertex ids (fiber*ell + layer)."""

import numpy as np
import pytest

from liftsub import (BaseGraph, EmbeddingState, ExtendabilityParams, NoPathWithinBudget,
                     complete_base, connect_between_sets, default_max_len, find_cross_matching,
                     sample_uniform_lift)

PARAMS = ExtendabilityParams(D=6, m=16)
MAX_LEN = default_max_len(PARAMS)


def snapshot(S):
    return set(S.blocked), set(S.used_edges)


def is_edge(G, a, b):
    """The lift's own edge test on two flat ids, read from the matchings."""
    return G.is_edge(G.vertex_at(a), G.vertex_at(b))


def test_params_validation():
    with pytest.raises(ValueError):
        ExtendabilityParams(D=2, m=5)
    with pytest.raises(ValueError):
        ExtendabilityParams(D=4, m=0)


def test_default_max_len():
    # 3 * ceil(log(32) / log(5))
    assert default_max_len(ExtendabilityParams(D=6, m=16)) == 9
    assert default_max_len(ExtendabilityParams(D=34, m=16)) == 3


@pytest.mark.parametrize("base", [
    complete_base(6),
    BaseGraph(6, tuple(e for e in complete_base(6).edges if e not in ((0, 1), (2, 3)))),
], ids=["complete", "sparse"])
def test_routes_and_cross_matchings_hold_python_ints(base):
    # the index rows are arrays; what leaves a search is plain ints
    G = sample_uniform_lift(base, 8, seed=3)
    transversals = [[f * 8 + a for f in range(6)] for a in range(4)]
    by_pair = find_cross_matching(G, transversals).by_pair
    assert by_pair and {type(x) for edge in by_pair.values() for x in edge} == {int}
    # two vertices of one fiber share no neighbour: the path has two or more
    # internal vertices, so it also holds vertices reached by expansion
    S = EmbeddingState(G, [0, 1, 2])
    path = connect_between_sets(G, S, [0], [1, 2], max_len=MAX_LEN)
    assert len(path) > 3 and {type(x) for x in path} == {int}


def test_add_path_rejects_bad_input():
    G = sample_uniform_lift(complete_base(10), 10, seed=0)
    # (0,0), (1,0), (5,5) and (9,9) with ell = 10
    S = EmbeddingState(G, [0, 10])
    with pytest.raises(ValueError):
        S.add_path((0,))
    with pytest.raises(ValueError):
        S.add_path((0, 55, 99))  # endpoint not in S
    with pytest.raises(ValueError):
        S.add_path((0, 10, 0))  # internal in S
    with pytest.raises(ValueError):
        S.add_path((0, 55, 55, 10))
    S.add_path((0, 10))
    with pytest.raises(ValueError):
        S.add_path((10, 0))  # edge already in S


@pytest.mark.parametrize("bad", [-1, 100])
def test_state_rejects_ids_outside_the_lift(bad):
    # N = 100: -1 would otherwise index the last adjacency row
    G = sample_uniform_lift(complete_base(10), 10, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        EmbeddingState(G, [0, bad])
    S = EmbeddingState(G, [0, 10])
    with pytest.raises(ValueError, match="out of range"):
        S.add_vertices([bad])
    with pytest.raises(ValueError, match="out of range"):
        S.add_path((0, bad, 10))
    assert snapshot(S) == ({0, 10}, set())


def test_connect_adjacent_pair_gives_edge_path():
    G = sample_uniform_lift(complete_base(4), 3, seed=0)
    u = 0
    v = G.flat_adjacency[u][0]
    S = EmbeddingState(G, [u, v])
    assert connect_between_sets(G, S, [u], [v], MAX_LEN) == (u, v)
    assert S.blocked == {u, v}


def test_connect_commits_internals_and_edges():
    G = sample_uniform_lift(complete_base(5), 8, seed=4)
    u, v = 0, 1  # (0,0) and (0,1), same fiber: no direct edge
    S = EmbeddingState(G, [u, v])
    path = connect_between_sets(G, S, [u], [v], MAX_LEN)
    assert len(path) >= 3 and path[0] == u and path[-1] == v
    assert S.blocked == set(path)
    for a, b in zip(path, path[1:]):
        assert is_edge(G, a, b)
        assert (a, b) in S.used_edges
        assert (b, a) in S.used_edges
    assert len(S.used_edges) == 2 * (len(path) - 1)


def test_connect_respects_max_len():
    G = sample_uniform_lift(complete_base(5), 8, seed=4)
    u, v = 0, 1
    S = EmbeddingState(G, [u, v])
    with pytest.raises(NoPathWithinBudget):
        connect_between_sets(G, S, [u], [v], max_len=1)


def test_connect_failure_leaves_state_bit_identical():
    G = sample_uniform_lift(complete_base(2), 3, seed=0)  # a bare matching
    a = 0  # (0,0); fiber 1 starts at flat id 3
    perm = G.matchings[0].tolist()  # row 0 is base edge (0, 1)
    b = 3 + (perm[0] + 1) % 3
    c, d = 2, 3 + perm[2]
    S = EmbeddingState(G, [a, b, c, d])
    S.add_path((c, d))  # a used edge, so the snapshot covers both sets
    before = snapshot(S)
    with pytest.raises(NoPathWithinBudget):
        connect_between_sets(G, S, [a], [b], MAX_LEN)
    assert snapshot(S) == before


def test_connect_validates_endpoints():
    G = sample_uniform_lift(complete_base(4), 3, seed=0)
    u, v = 0, 3  # (0,0) and (1,0)
    S = EmbeddingState(G, [u])
    with pytest.raises(ValueError):
        connect_between_sets(G, S, [u], [u], MAX_LEN)  # pools overlap
    with pytest.raises(ValueError):
        connect_between_sets(G, S, [u], [v], MAX_LEN)  # v not in S
    for bad in (-1, G.num_vertices):  # not a lift vertex
        with pytest.raises(ValueError):
            connect_between_sets(G, S, [u], [bad], MAX_LEN)
        with pytest.raises(ValueError):
            connect_between_sets(G, S, [bad], [u], MAX_LEN)


def test_connect_internal_vertices_fresh_and_disjoint():
    G = sample_uniform_lift(complete_base(6), 12, seed=5)
    pairs = [(2 * k, 12 + 2 * k + 1) for k in range(4)]  # (0, 2k) and (1, 2k+1)
    S = EmbeddingState(G, [x for p in pairs for x in p])
    seen = set()
    for u, v in pairs:
        before = set(S.blocked)
        path = connect_between_sets(G, S, [u], [v], MAX_LEN)
        assert len(path) - 1 <= MAX_LEN
        for x in path[1:-1]:
            assert x not in before
            assert x not in seen
            seen.add(x)


def test_connect_does_not_reuse_direct_edge():
    # two paths between the same endpoints: the second may not repeat the edge
    G = sample_uniform_lift(complete_base(5), 6, seed=3)
    u = 0
    v = min(G.flat_adjacency[u])
    S = EmbeddingState(G, [u, v])
    assert connect_between_sets(G, S, [u], [v], MAX_LEN) == (u, v)
    second = connect_between_sets(G, S, [u], [v], MAX_LEN)
    assert len(second) >= 3
    assert set(second[1:-1]).isdisjoint({u, v})


def test_connect_between_sets_skips_used_direct_edge():
    G = sample_uniform_lift(complete_base(5), 6, seed=3)
    u = 0
    v = min(G.flat_adjacency[u])
    other = 1  # (0,1)
    S = EmbeddingState(G, [u, v, other])
    connect_between_sets(G, S, [u], [v], MAX_LEN)  # consumes the direct edge
    path = connect_between_sets(G, S, [u, other], [v], MAX_LEN)
    for a, b in zip(path, path[1:]):
        assert is_edge(G, a, b)
    assert path != (u, v)


def test_connect_deterministic_on_fresh_states():
    G = sample_uniform_lift(complete_base(8), 12, seed=6)
    sources = list(range(4))  # (0, 0..3)
    targets = [12 + k for k in range(4, 8)]  # (1, 4..7)

    def route():
        S = EmbeddingState(G, sources + targets)
        return connect_between_sets(G, S, sources, targets, MAX_LEN), snapshot(S)

    assert route() == route()


def test_sequential_connects_stay_disjoint_at_scale():
    # 100 routes on a lift of K_47 with 64 layers, transversal-style state
    n, ell = 48, 64
    G = sample_uniform_lift(complete_base(n - 1), ell, seed=10)
    max_len = default_max_len(ExtendabilityParams(D=8, m=min(5 * ell * 4, 1280)))
    S = EmbeddingState(G)
    for t in range(n):
        S.add_vertices(f * ell + t for f in range(n - 1))
    rngpairs = [(f * ell + 2 * k % n, (f + 7) % (n - 1) * ell + (2 * k + 1) % n)
                for k, f in enumerate(range(0, 44))] + \
               [(f * ell + 5, (f + 11) % (n - 1) * ell + 7) for f in range(44)] + \
               [(f * ell + 9, (f + 13) % (n - 1) * ell + 11) for f in range(12)]
    seen_internal = set()
    done = 0
    for u, v in rngpairs[:100]:
        path = connect_between_sets(G, S, [u], [v], max_len)
        done += 1
        for x in path[1:-1]:
            assert x not in seen_internal
            seen_internal.add(x)
        assert len(path) - 1 <= max_len
    assert done == 100


def reference_route(G, S, sources, targets, max_len):
    """The full-depth search: expand every level up to `max_len`, then take
    the terminal with the smallest (distance, flat id)."""
    adj = G.flat_adjacency
    starts = sorted(sources)
    terminals = set(targets)
    dist = {s: 0 for s in starts}
    parent = {}
    frontier = list(starts)
    for depth in range(max_len):
        if not frontier:
            break
        frontier.sort()
        nxt = []
        for x in frontier:
            if x in terminals and dist[x] > 0:
                continue
            for w in adj[x]:
                if w in dist or (w in S.blocked and w not in terminals):
                    continue
                if depth == 0 and (x, w) in S.used_edges:
                    continue
                dist[w] = depth + 1
                parent[w] = x
                nxt.append(w)
        frontier = nxt
    reached = [(dist[t], t) for t in terminals if t in dist]
    if not reached:
        return None
    x = min(reached)[1]
    flat = [x]
    while dist[x] > 0:
        x = parent[x]
        flat.append(x)
    return tuple(reversed(flat))


def random_routing_case(gen):
    """A small lift, a state with used edges, and disjoint endpoint pools."""
    n, ell = int(gen.integers(3, 9)), int(gen.integers(2, 11))
    G = sample_uniform_lift(complete_base(n), ell, seed=int(gen.integers(1 << 30)))
    vertices = list(range(n * ell))
    picked = [vertices[k] for k in gen.permutation(len(vertices))]
    k_src, k_dst = int(gen.integers(1, 5)), int(gen.integers(1, 6))
    sources, targets = picked[:k_src], picked[k_src:k_src + k_dst]
    extra = picked[k_src + k_dst:][:int(gen.integers(0, len(vertices) // 2))]
    in_s = set(sources + targets + extra)
    # commit some direct edges of S, first those joining the two pools
    edges = [(u, v) for u in sources for v in G.flat_adjacency[u] if v in targets]
    edges += [(u, v) for u in extra for v in G.flat_adjacency[u] if v in in_s]
    used = [edges[k] for k in range(len(edges)) if gen.random() < 0.5]
    return G, sources, targets, list(in_s), used, int(gen.integers(1, 6))


def make_state(G, vertices, used):
    S = EmbeddingState(G, vertices)
    for u, v in used:
        if (u, v) not in S.used_edges:
            S.add_path((u, v))
    return S


def test_connect_matches_full_depth_reference():
    gen = np.random.default_rng(2024)
    seen = {"forbidden_direct_hop": 0, "terminal_next_to_terminal": 0, "depth_1": 0,
            "depth_2_plus": 0, "no_path": 0}
    for _ in range(400):
        G, sources, targets, in_s, used, max_len = random_routing_case(gen)
        S = make_state(G, in_s, used)
        R = make_state(G, in_s, used)
        try:
            path = connect_between_sets(G, S, sources, targets, max_len)
        except NoPathWithinBudget:
            path = None
        expected = reference_route(G, R, sources, targets, max_len)
        if expected is not None:
            R.add_path(expected)
        assert path == expected
        assert snapshot(S) == snapshot(R)
        seen["no_path" if path is None
             else "depth_1" if len(path) == 2 else "depth_2_plus"] += 1
        seen["forbidden_direct_hop"] += any(u in sources and v in targets for u, v in used)
        seen["terminal_next_to_terminal"] += any(
            w in targets for t in targets for w in G.flat_adjacency[t])
    assert all(count >= 20 for count in seen.values()), seen
