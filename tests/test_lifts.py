"""Core lift representation, sampling, and serialization."""

import json
import time

import pytest

from liftsub import (BaseGraph, LiftFormatError, LiftGraph, VertexId, complete_base,
                     deserialize, sample_uniform_lift, serialize)
from liftsub.lifts import derive_rng

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
    assert G.neighbors(VertexId(0, 0)) == {VertexId(1, 0), VertexId(2, 0)}
    flat_edges = {(u, w) for u, nbrs in enumerate(G.flat_adjacency) for w in nbrs if u < w}
    assert flat_edges == set(G.base.edges)


def test_k4_ell5_shape():
    G = sample_uniform_lift(complete_base(4), 5, seed=1)
    assert G.num_vertices == 20
    degrees = [len(G.neighbors(v)) for v in G.vertex_ids()]
    assert degrees == [3] * 20
    edge_count = sum(len(nbrs) for nbrs in G.flat_adjacency) // 2
    assert edge_count == 30


def test_neighbors_cross_checks_is_edge():
    # neighbors reads flat_adjacency, is_edge reads matchings
    for base, ell in [(complete_base(4), 3), (SAMPLER_BASES[1], 3), (complete_base(5), 7)]:
        G = sample_uniform_lift(base, ell, seed=9)
        vertices = list(G.vertex_ids())
        for u in vertices:
            nbrs = G.neighbors(u)
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
        G.neighbors(VertexId(3, 0))
    with pytest.raises(ValueError):
        G.is_edge(VertexId(0, 0), VertexId(0, 2))


def test_fiber_structure_invariants():
    for seed in range(10):
        G = sample_uniform_lift(complete_base(5), 4, seed=seed)
        for v in G.vertex_ids():
            fibers = [w.fiber for w in G.neighbors(v)]
            assert v.fiber not in fibers
            assert len(set(fibers)) == len(fibers) == 4


def test_serialization_roundtrip_and_stability():
    G = sample_uniform_lift(complete_base(4), 6, seed=11)
    data = serialize(G)
    G2 = deserialize(data)
    assert G2 == G
    assert serialize(G2) == data


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
    good = {(0, 1): (0, 1), (0, 2): (1, 0), (1, 2): (0, 1)}
    LiftGraph(base, 2, good)
    with pytest.raises(ValueError):
        LiftGraph(base, 2, {**good, (0, 1): (0, 0)})
    incomplete = {k: v for k, v in good.items() if k != (1, 2)}
    with pytest.raises(ValueError):
        LiftGraph(base, 2, incomplete)


def test_general_base_graph_supported():
    path = BaseGraph(4, ((0, 1), (1, 2), (2, 3)))
    G = sample_uniform_lift(path, 3, seed=5)
    assert G.num_vertices == 12
    assert len(G.neighbors(VertexId(0, 0))) == 1
    assert len(G.neighbors(VertexId(1, 0))) == 2


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**200 + 12345])
@pytest.mark.parametrize("ell", [1, 2, 3, 80])
@pytest.mark.parametrize("base", SAMPLER_BASES, ids=["complete", "sparse"])
def test_sampler_matches_derive_rng(base, ell, seed):
    """The batched sampler reproduces the per-edge reference stream exactly."""
    G = sample_uniform_lift(base, ell, seed)
    assert list(G.matchings) == list(base.edges)
    for (i, j), perm in G.matchings.items():
        assert perm == tuple(derive_rng(seed, i, j).permutation(ell))


def test_sampler_rejects_negative_seed():
    with pytest.raises(ValueError):
        sample_uniform_lift(complete_base(3), 2, seed=-1)


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
