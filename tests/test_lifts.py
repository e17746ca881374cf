"""Core lift representation, sampling, and serialization."""

import hashlib
import json
import time
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy.stats import chisquare

from liftsub import (BaseGraph, BuildConfig, ExtendabilityParams, LiftFormatError, LiftGraph,
                     OracleBudget, SubdivisionCertificate, VertexId,
                     complete_base, deserialize,
                     derive_rng, estimate_avoidance_probability, exact_avoidance_probability,
                     lifts, sample_uniform_lift, serialize)

SAMPLER_BASES = [complete_base(6), BaseGraph(7, ((0, 3), (1, 2), (2, 6), (4, 5)))]


def test_complete_base_small():
    assert complete_base(3).edges == ((0, 1), (0, 2), (1, 2))
    assert complete_base(1).edges == ()
    assert len(complete_base(5).edges) == 10


def test_complete_base_rejects_zero():
    with pytest.raises(ValueError):
        complete_base(0)


def test_base_graph_validation():
    with pytest.raises(ValueError):
        BaseGraph(3, ((0, 0),))  # loop
    with pytest.raises(ValueError):
        BaseGraph(3, ((1, 0),))  # i >= j
    with pytest.raises(ValueError):
        BaseGraph(3, ((0, 3),))  # out of range
    with pytest.raises(ValueError):
        BaseGraph(3, ((0, 1), (0, 1)))  # duplicate


def test_sampling_is_deterministic():
    base = complete_base(5)
    a = sample_uniform_lift(base, 7, seed=42)
    b = sample_uniform_lift(base, 7, seed=42)
    c = sample_uniform_lift(base, 7, seed=43)
    assert a == b
    assert a != c
    assert serialize(a) == serialize(b)


def test_one_lift_is_the_base():
    G = sample_uniform_lift(complete_base(3), 1, seed=0)
    assert G.flat_adjacency[G.flat_id(VertexId(0, 0))].tolist() == [1, 2]
    flat_edges = {(u, w) for u, nbrs in enumerate(G.flat_adjacency) for w in nbrs if u < w}
    assert flat_edges == set(G.base.edges)


def test_k4_ell5_shape():
    G = sample_uniform_lift(complete_base(4), 5, seed=1)
    assert G.num_vertices == 20
    degrees = [len(nbrs) for nbrs in G.flat_adjacency]
    assert degrees == [3] * 20
    edge_count = sum(len(nbrs) for nbrs in G.flat_adjacency) // 2
    assert edge_count == 30


def test_neighbors_cross_checks_is_edge():
    # flat_adjacency is scattered from the matchings array, is_edge reads one
    # entry of it
    for base, ell in [(complete_base(4), 3), (SAMPLER_BASES[1], 3), (complete_base(5), 7)]:
        G = sample_uniform_lift(base, ell, seed=9)
        vertices = list(G.vertex_ids())
        for u in vertices:
            nbrs = {G.vertex_at(w) for w in G.flat_adjacency[G.flat_id(u)]}
            for v in vertices:
                assert G.is_edge(u, v) == (v in nbrs)
                assert G.is_edge(u, v) == G.is_edge(v, u)


def test_is_edge_same_fiber_and_self():
    G = sample_uniform_lift(complete_base(4), 3, seed=2)
    assert not G.is_edge(VertexId(1, 0), VertexId(1, 2))
    assert not G.is_edge(VertexId(1, 0), VertexId(1, 0))


def test_out_of_range_vertex_rejected():
    G = sample_uniform_lift(complete_base(3), 2, seed=0)
    with pytest.raises(ValueError):
        G.flat_id(VertexId(3, 0))
    with pytest.raises(ValueError):
        G.is_edge(VertexId(0, 0), VertexId(0, 2))


@pytest.mark.parametrize("v, error", [
    ((3, 0), ValueError), ((0, 2), ValueError), ((-1, 0), ValueError), ((0, -1), ValueError),
    ((0.5, 0), TypeError), ((0, 1.0), TypeError), ((True, 0), TypeError), ((0, False), TypeError),
], ids=["fiber-high", "layer-high", "fiber-negative", "layer-negative",
        "fiber-float", "layer-float", "fiber-bool", "layer-bool"])
def test_flat_id_checks_outside_vertices(v, error):
    # flat_id is where a VertexId from outside is checked; is_edge goes
    # through it for both of its vertices
    G = sample_uniform_lift(complete_base(3), 2, seed=0)
    assert G.flat_id(VertexId(2, 1)) == 5
    assert G.flat_id(VertexId(np.int64(2), np.uint8(1))) == 5
    for check in (G.flat_id, lambda x: G.is_edge(x, VertexId(0, 0)),
                  lambda x: G.is_edge(VertexId(0, 0), x)):
        with pytest.raises(error):
            check(VertexId(*v))


def test_fiber_structure_invariants():
    for seed in range(10):
        G = sample_uniform_lift(complete_base(5), 4, seed=seed)
        for v in G.vertex_ids():
            fibers = [w // 4 for w in G.flat_adjacency[G.flat_id(v)]]
            assert v.fiber not in fibers
            assert len(set(fibers)) == len(fibers) == 4


def test_serialization_roundtrip_and_stability():
    G = sample_uniform_lift(complete_base(4), 6, seed=11)
    data = serialize(G)
    G2 = deserialize(data)
    assert G2 == G
    assert serialize(G2) == data


def reference_serialize(G):
    """The file format written the plain way: one dict, json.dumps sorts the keys."""
    obj = {"n": G.base.num_vertices, "ell": G.ell,
           "base_edges": [[i, j] for i, j in G.base.edges],
           "matchings": {f"{i}-{j}": perm for (i, j), perm in zip(G.base.edges, G.matchings.tolist())}}
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


SPARSE = BaseGraph(14, ((0, 3), (0, 12), (1, 2), (2, 6), (2, 10), (4, 5), (9, 11), (10, 13)))


@pytest.mark.parametrize("base, ell, seed", [
    (complete_base(12), 5, 1), (complete_base(101), 3, 2**64 + 5), (SPARSE, 4, 9),
], ids=["K12", "K101", "sparse"])
def test_serialize_round_trip_is_byte_identical(base, ell, seed):
    G = sample_uniform_lift(base, ell, seed)
    data = serialize(G)
    # the file lists keys as sorted strings, '0-10' before '0-2', not in row order
    assert list(json.loads(data)["matchings"]) != [f"{i}-{j}" for i, j in base.edges]
    assert data == reference_serialize(G)
    G2 = deserialize(data)
    assert G2 == G and G2.matchings.tolist() == G.matchings.tolist()
    assert serialize(G2) == data


def reference_adjacency(G):
    """Neighbour lists built one matched pair at a time from the rows."""
    adj = [[] for _ in range(G.num_vertices)]
    for (i, j), perm in zip(G.base.edges, G.matchings.tolist()):
        for a, b in enumerate(perm):
            adj[i * G.ell + a].append(j * G.ell + b)
            adj[j * G.ell + b].append(i * G.ell + a)
    return [sorted(row) for row in adj]


@pytest.mark.parametrize("base, ell", [
    (complete_base(1), 3), (complete_base(2), 1), (complete_base(7), 5), (SPARSE, 3),
    (BaseGraph(3, ()), 2),
], ids=["K1", "K2-ell1", "K7", "sparse", "edgeless"])
def test_flat_adjacency_matches_the_loop_reference(base, ell):
    G = sample_uniform_lift(base, ell, seed=4)
    adj = G.flat_adjacency
    assert [row.tolist() for row in adj] == reference_adjacency(G)
    assert all(row.dtype == np.intp and not row.flags.writeable for row in adj)
    if len(adj[0]):  # the index is read-only: no caller can corrupt a row
        with pytest.raises(ValueError):
            adj[0][0] = 0


def test_is_edge_on_a_sparse_base():
    G = sample_uniform_lift(SPARSE, 4, seed=2)
    assert SPARSE.edge_index(0, 1) is None and SPARSE.edge_index(0, 12) == 1
    # fibers 0 and 1 share no base edge
    assert not any(G.is_edge(VertexId(0, a), VertexId(1, b)) for a in range(4) for b in range(4))
    row = G.matchings[SPARSE.edge_index(0, 12)].tolist()
    assert G.is_edge(VertexId(12, row[3]), VertexId(0, 3))
    with pytest.raises(ValueError):
        G.is_edge(VertexId(0, 0), VertexId(14, 0))
    with pytest.raises(ValueError):
        G.is_edge(VertexId(0, 4), VertexId(3, 0))


def test_equal_lifts_compare_and_hash_equal():
    base = complete_base(5)
    G = sample_uniform_lift(base, 4, seed=3)
    same = [sample_uniform_lift(complete_base(5), 4, seed=3), deserialize(serialize(G)),
            LiftGraph(base, 4, G.matchings.copy()), LiftGraph(base, 4, G.matchings.astype(np.uint8))]
    for H in same:
        assert H == G and hash(H) == hash(G)
    assert len({G, *same}) == 1
    other = sample_uniform_lift(base, 4, seed=4)
    assert other != G and G != "not a lift"
    with pytest.raises(ValueError):  # read-only, so the hash cannot go stale
        G.matchings[0, 0] = G.matchings[0, 1]


GOOD_ROWS = np.array([[0, 1], [1, 0], [0, 1]])


@pytest.mark.parametrize("as_array, error, fragment", [
    (np.array([[0, 1], [1, 0], [0, 1]], dtype=bool), TypeError, "integers, got a boolean"),
    (np.array([[0, 1], [1, 0], [0, 1]], dtype=float), TypeError, "integer"),
    (np.array([[0, 1], [1, 1], [0, 1]]), ValueError, "edge 0-2 is not a bijection"),
    (np.array([[0, 1], [1, 2], [0, 1]], dtype=np.uint8), ValueError, "edge 0-2 is not a bijection"),
    (np.array([[0, 1], [1, 0]]), ValueError, None),
    (np.array([[0, 1], [1, 0], [0, 1], [0, 1]]), ValueError, None),
    (np.array([[0, 1], [1, 0], [0, 1], [1, 0]]), ValueError, None),
], ids=["bool", "float", "not-bijection", "out-of-range", "missing", "extra", "duplicate"])
def test_array_validation_matches_the_mapping_path(as_array, error, fragment):
    """The one check of a lift's matchings array.

    The name and ids are kept from the earlier comparison with the mapping
    form of the constructor, which was removed; each case is the array of
    the mapping it was compared with."""
    base = complete_base(3)
    assert LiftGraph(base, 2, GOOD_ROWS).matchings.tolist() == GOOD_ROWS.tolist()
    with pytest.raises(error, match=fragment):
        LiftGraph(base, 2, as_array)


def test_lift_graph_refuses_other_containers():
    for rows in ([[1, 0]], {(0, 1): (1, 0)}):
        with pytest.raises(TypeError, match=r"\(E, ell\) integer array"):
            LiftGraph(complete_base(2), 2, rows)


def test_deserialize_rejects_non_bijection():
    G = sample_uniform_lift(complete_base(3), 3, seed=0)
    obj = json.loads(serialize(G))
    obj["matchings"]["0-1"] = [0, 0, 2]
    with pytest.raises(LiftFormatError, match="0-1"):
        deserialize(json.dumps(obj))


def test_deserialize_rejects_missing_matching():
    G = sample_uniform_lift(complete_base(3), 3, seed=0)
    obj = json.loads(serialize(G))
    del obj["matchings"]["1-2"]
    with pytest.raises(LiftFormatError, match="1-2"):
        deserialize(json.dumps(obj))


def test_deserialize_rejects_missing_field():
    with pytest.raises(LiftFormatError, match="ell"):
        deserialize('{"n": 2, "base_edges": [[0,1]], "matchings": {"0-1": [0]}}')


def test_deserialize_rejects_garbage():
    with pytest.raises(LiftFormatError):
        deserialize(b"not json at all")


def test_lift_graph_validation():
    base = complete_base(3)
    LiftGraph(base, 2, GOOD_ROWS)
    with pytest.raises(ValueError):
        LiftGraph(base, 2, np.array([[0, 0], [1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        LiftGraph(base, 2, GOOD_ROWS[:2])


def test_general_base_graph_supported():
    path = BaseGraph(4, ((0, 1), (1, 2), (2, 3)))
    G = sample_uniform_lift(path, 3, seed=5)
    assert G.num_vertices == 12
    assert len(G.flat_adjacency[G.flat_id(VertexId(0, 0))]) == 1
    assert len(G.flat_adjacency[G.flat_id(VertexId(1, 0))]) == 2


def reference_absorb(h, x):
    """One SplitMix64-style step, mix64((h ^ x) + gamma) mod 2**64, on ints."""
    z = ((h ^ x) + 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def reference_matching(seed, i, j, ell):
    """Edge (i, j)'s permutation under the keyed map, one scalar step at a time."""
    words = [(seed >> (64 * k)) % 2**64 for k in range(max(1, -(-seed.bit_length() // 64)))]
    key = 0
    for word in words:  # low word first
        key = reference_absorb(key, word)
    edge = reference_absorb(reference_absorb(key, i), j)
    sort_keys = [reference_absorb(edge, a) for a in range(ell)]
    assert len(set(sort_keys)) == ell  # no ties within one edge
    return tuple(sorted(range(ell), key=lambda a: (sort_keys[a], a)))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**200 + 12345])
@pytest.mark.parametrize("ell", [1, 2, 3, 80])
@pytest.mark.parametrize("base", SAMPLER_BASES, ids=["complete", "sparse"])
def test_sampler_matches_derive_rng(base, ell, seed):
    """The vectorised sampler reproduces the scalar keyed map exactly.

    The name and ids are kept from the earlier check against per-edge
    `derive_rng` streams, which the keyed map replaced."""
    G = sample_uniform_lift(base, ell, seed)
    assert G.matchings.shape == (len(base.edges), ell)
    for (i, j), perm in zip(base.edges, G.matchings.tolist()):
        assert tuple(perm) == reference_matching(seed, i, j, ell)


@pytest.mark.parametrize("n, ell", [(12, 1000), (210, 3)])
def test_matching_depends_only_on_its_edge(n, ell):
    """An edge's matching is the same in K_n, sampled over several chunks, and
    in a base that holds only that edge."""
    edges = complete_base(n).edges
    assert len(edges) > lifts._SAMPLE_KEYS // ell  # more than one chunk
    seed = 2**64 + 99
    G = sample_uniform_lift(complete_base(n), ell, seed)
    for e in edges[::max(1, len(edges) // 300)] + edges[-1:]:
        alone = sample_uniform_lift(BaseGraph(n, (e,)), ell, seed)
        assert alone.matchings[0].tolist() == G.matchings[G.base.edge_index(*e)].tolist()


def test_seed_bits_above_64_change_the_lift():
    base = complete_base(6)
    lifts_by_seed = [sample_uniform_lift(base, 80, seed).matchings
                     for seed in (5, 5 + 2**64, 5 + 2**100, 5 + 2**200)]
    for a, b in combinations(lifts_by_seed, 2):
        assert not np.array_equal(a, b)


@pytest.mark.parametrize("n, ell, seed, digest", [
    (6, 5, 0, "3f06b1ebc9b70914e56fae58559a7494b0fb0a0799a374119f8fe993fba921b4"),
    (40, 3, 2**64 + 1, "f76276fce558d107effa684fdf9f433f5172c5faa174db27fb3d96fa6bbf1c52"),
    (9, 80, 7, "b5b462ebc2d2967440ef04b9c84bd207d9a1c87e9e1768792293037110b90557"),
], ids=["K6-ell5-seed0", "K40-ell3-seed2**64+1", "K9-ell80-seed7"])
def test_seed_to_lift_map_is_pinned(n, ell, seed, digest):
    """Any change of the seed -> lift map fails here by name."""
    data = serialize(sample_uniform_lift(complete_base(n), ell, seed))
    assert hashlib.sha256(data).hexdigest() == digest


def test_matchings_are_uniform_across_edges():
    """Chi-square over the edges of one K_80, ell=3 lift: the 6 permutations,
    and the 36 joint permutations of the disjoint pairs (i, j), (i, j+1)."""
    G = sample_uniform_lift(complete_base(80), 3, seed=3160)
    cells = list(permutations(range(3)))
    perms = list(map(tuple, G.matchings.tolist()))
    row = G.base.edge_index
    single = Counter(perms)
    assert sum(single.values()) == 3160
    p_single = chisquare([single[c] for c in cells]).pvalue
    pairs = Counter((perms[row(i, j)], perms[row(i, j + 1)])
                    for i in range(80) for j in range(i + 1, 79, 2))
    p_pairs = chisquare([pairs[(c, d)] for c in cells for d in cells]).pvalue
    print(f"per-edge p={p_single:.4f}, neighbour-pair p={p_pairs:.4f} over {sum(pairs.values())} pairs")
    assert p_single >= 0.01
    assert p_pairs >= 0.01


def test_sampler_rejects_negative_seed():
    with pytest.raises(ValueError):
        sample_uniform_lift(complete_base(3), 2, seed=-1)


@pytest.mark.parametrize("make", [
    lambda: sample_uniform_lift(complete_base(3), True, 0),
    lambda: sample_uniform_lift(complete_base(3), 2.0, 0),
    lambda: sample_uniform_lift(complete_base(3), 2, 1.7),
    lambda: sample_uniform_lift(complete_base(3), 2, True),
    lambda: sample_uniform_lift(complete_base(3), 2, "1"),
    lambda: BaseGraph(3, ((0.5, 1),)),
    lambda: BaseGraph(3, ((0, True),)),
    lambda: BaseGraph(True, ()),
    lambda: BaseGraph(3.0, ()),
    lambda: complete_base(True),
    lambda: LiftGraph(complete_base(2), True, np.array([[0]])),
    lambda: LiftGraph(complete_base(2), 1.0, np.array([[0]])),
], ids=["ell-bool", "ell-float", "seed-float", "seed-bool", "seed-str", "endpoint-float",
        "endpoint-bool", "n-bool", "n-float", "complete-bool", "lift-ell-bool",
        "lift-ell-float"])
def test_constructors_accept_only_integers(make):
    with pytest.raises(TypeError, match="must be an integer"):
        make()


@pytest.mark.parametrize("make", [
    lambda: LiftGraph(complete_base(2), 2, np.array([[0.5, 1]])),
    lambda: LiftGraph(complete_base(2), 2, np.array([[True, False]])),
    lambda: derive_rng(1.7),
    lambda: derive_rng(True),
    lambda: BuildConfig(seed=1.5),
    lambda: BuildConfig(seed=True),
    lambda: BuildConfig(attempts=2.5),
    lambda: SubdivisionCertificate(branch=((0.5, 0),), paths={}),
    lambda: SubdivisionCertificate(branch=((0, 0), (1, 0)), paths={(0, 1.0): ((0, 0), (1, 0))}),
    lambda: BaseGraph(3, ((0.5, 1),)),
    lambda: BaseGraph(3, ((True, 2),)),
    lambda: estimate_avoidance_probability([(0.5, 1)], 3, trials=10),
    lambda: exact_avoidance_probability([(0.5, 1)], 3),
    lambda: sample_uniform_lift(complete_base(3), 2, 0).is_edge(VertexId(0.5, 0), VertexId(1, 0)),
    lambda: ExtendabilityParams(D=29.5, m=1),
    lambda: ExtendabilityParams(D=4, m=1.5),
    lambda: OracleBudget(max_nodes=24.5),
    lambda: OracleBudget(max_nodes=True),
    lambda: OracleBudget(max_states=2.5),
], ids=["matching-float", "matching-bool", "rng-float", "rng-bool", "config-seed-float",
        "config-seed-bool", "config-attempts-float", "certificate-vertex-float",
        "certificate-key-float", "simple-graph-float", "simple-graph-bool",
        "estimate-pair-float", "exact-pair-float", "is-edge-float", "params-D-float",
        "params-m-float", "budget-nodes-float", "budget-nodes-bool", "budget-states-float"])
def test_public_constructors_do_not_truncate(make):
    # a float or bool is refused, never truncated to an int
    with pytest.raises(TypeError, match="integer"):
        make()


def test_numpy_integers_pass_the_integer_checks():
    G = LiftGraph(complete_base(np.int64(2)), np.int64(2), np.array([[1, 0]], dtype=np.int32))
    assert G.matchings.tolist() == [[1, 0]] and G.matchings.dtype == np.intp
    assert type(G.ell) is int
    assert BuildConfig(seed=np.uint64(3), attempts=np.int32(2)) == BuildConfig(seed=3, attempts=2)
    assert derive_rng(np.int64(4)).integers(1 << 30) == derive_rng(4).integers(1 << 30)
    assert BaseGraph(np.int64(3), ((np.int8(0), 2),)).edges == ((0, 2),)


def test_numpy_integers_become_ints():
    G = sample_uniform_lift(complete_base(np.int64(4)), np.int64(3), np.uint64(7))
    assert G == sample_uniform_lift(complete_base(4), 3, 7)
    assert type(G.ell) is int and type(G.base.num_vertices) is int
    assert deserialize(serialize(G)) == G


def test_load_has_no_quadratic_cliff():
    G = sample_uniform_lift(complete_base(300), 3, seed=0)
    start = time.perf_counter()
    assert deserialize(serialize(G)) == G
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("edit, fragment", [
    (lambda m: m.update({"0-1": [0, 1]}), "0-1"),            # wrong length
    (lambda m: m.update({"0-2": [0, 1, 3]}), "0-2"),         # value out of range
    (lambda m: m.update({"0-3": [0, 1, 2]}), "0-3"),         # not a base edge
    (lambda m: m.update({"1-2": [0, 1, True]}), "1-2"),      # boolean entry
    (lambda m: m.update({"1-2": [0, 1, 2.0]}), "1-2"),       # float entry
])
def test_deserialize_errors_name_the_key(edit, fragment):
    obj = json.loads(serialize(sample_uniform_lift(complete_base(3), 3, seed=0)))
    edit(obj["matchings"])
    with pytest.raises(LiftFormatError, match=fragment):
        deserialize(json.dumps(obj))


def test_deserialize_names_the_first_fault_of_two_walks():
    """A matchings object is walked twice in file order: key form and entry
    types first, then base edges and permutations.  A type fault in a later
    key is named before a permutation fault in an earlier one."""
    obj = json.loads(serialize(sample_uniform_lift(complete_base(3), 3, seed=0)))
    obj["matchings"]["0-1"] = [0, 0, 2]
    with pytest.raises(LiftFormatError) as one:
        deserialize(json.dumps(obj))
    assert str(one.value) == "matching for edge 0-1 is not a bijection on [0,3)"
    obj["matchings"]["1-2"] = [0, 1, True]
    with pytest.raises(LiftFormatError) as two:
        deserialize(json.dumps(obj))
    assert str(two.value) == "matchings['1-2'] must be an array of integers"


@pytest.mark.parametrize("alias", ["00-1", "0-01", "٠-١", "+0-1", " 0-1", "0-1 ", "0_0-1", "0--1"])
def test_deserialize_rejects_non_canonical_keys(alias):
    obj = json.loads(serialize(sample_uniform_lift(complete_base(3), 3, seed=0)))
    both = json.loads(json.dumps(obj))
    both["matchings"][alias] = [2, 1, 0]  # next to the canonical "0-1"
    with pytest.raises(LiftFormatError, match="canonical"):
        deserialize(json.dumps(both))
    obj["matchings"][alias] = obj["matchings"].pop("0-1")  # in its place
    with pytest.raises(LiftFormatError, match="canonical"):
        deserialize(json.dumps(obj))


def test_deserialize_rejects_repeated_json_keys():
    text = serialize(sample_uniform_lift(complete_base(3), 3, seed=0)).decode()
    twice = text.replace('"matchings":{', '"matchings":{"0-1":[2,1,0],', 1)
    with pytest.raises(LiftFormatError, match="twice"):
        deserialize(twice)
    with pytest.raises(LiftFormatError, match="twice"):
        deserialize('{"n":1,' + text[1:])


@pytest.mark.parametrize("text", [
    '{"n":true,"ell":1,"base_edges":[],"matchings":{}}',
    '{"n":2,"ell":true,"base_edges":[[0,1]],"matchings":{"0-1":[0]}}',
    '{"n":2,"ell":2,"base_edges":[[false,true]],"matchings":{"0-1":[true,false]}}',
    '{"n":2,"ell":2,"base_edges":[[0,1]],"matchings":{"0-1":[true,false]}}',
])
def test_deserialize_rejects_booleans_as_integers(text):
    with pytest.raises(LiftFormatError):
        deserialize(text)
