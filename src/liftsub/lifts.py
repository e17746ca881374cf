"""Base graphs, uniform random lifts, and canonical (de)serialization.

A lift replaces every base vertex with a fiber of ``ell`` vertices and every
base edge with a perfect matching between the two fibers.  The matching for
base edge (i, j) with i < j is stored as a permutation of [0, ell): layer a
in fiber i is matched to layer perm[a] in fiber j.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "BaseGraph",
    "LiftFormatError",
    "LiftGraph",
    "VertexId",
    "complete_base",
    "derive_rng",
    "deserialize",
    "sample_uniform_lift",
    "serialize",
]


class LiftFormatError(ValueError):
    """A serialized lift failed structural validation."""


class VertexId(NamedTuple):
    """A lift vertex addressed as (fiber index, layer index)."""

    fiber: int
    layer: int


def derive_rng(*key: int) -> np.random.Generator:
    """Independent RNG substream keyed by a tuple of non-negative ints.

    The same key always yields the same stream, independently of the order in
    which other streams were created.
    """
    parts = tuple(_integer(k, "rng key component") for k in key)
    if any(k < 0 for k in parts):
        raise ValueError(f"rng key components must be non-negative, got {parts}")
    return np.random.default_rng(np.random.SeedSequence(parts))


def _integer(value, name: str) -> int:
    """`value` as an int.  Booleans, floats and other non-integers raise
    TypeError instead of being truncated or written out as JSON booleans."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class BaseGraph:
    """A simple undirected graph given by a sorted, duplicate-free edge list."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = _integer(self.num_vertices, "num_vertices")
        if n < 1:
            raise ValueError("base graph needs at least one vertex")
        normalized = tuple((_integer(i, "edge endpoint"), _integer(j, "edge endpoint"))
                           for i, j in self.edges)
        for i, j in normalized:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) endpoint out of range [0,{n})")
            if i >= j:
                raise ValueError(f"edge ({i},{j}) must satisfy i < j (no loops)")
        if any(a >= b for a, b in zip(normalized, normalized[1:])):
            raise ValueError("edge list must be sorted and duplicate-free")
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "edges", normalized)

    @property
    def is_complete(self) -> bool:
        n = self.num_vertices
        return len(self.edges) == n * (n - 1) // 2


def complete_base(n: int) -> BaseGraph:
    """The complete graph K_n as a base graph."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("complete_base requires n >= 1")
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return BaseGraph(n, edges)


@dataclass(frozen=True)
class LiftGraph:
    """An ell-lift of a base graph.  Immutable after construction."""

    base: BaseGraph
    ell: int
    matchings: Mapping[tuple[int, int], tuple[int, ...]]

    def __post_init__(self):
        # The one validation of a lift's matchings.  Messages name edges as
        # 'i-j', the key form of the file format.
        ell = _integer(self.ell, "ell")
        if ell < 1:
            raise ValueError("ell must be >= 1")
        edge_set = set(self.base.edges)
        identity = list(range(ell))
        normalized: dict[tuple[int, int], tuple[int, ...]] = {}
        for key, perm in self.matchings.items():
            i, j = e = (_integer(key[0], "edge endpoint"), _integer(key[1], "edge endpoint"))
            if e not in edge_set:
                raise ValueError(f"matching key {i}-{j} is not a base edge")
            if e in normalized:
                raise ValueError(f"matching key {i}-{j} given twice")
            p = tuple(map(operator.index, perm))
            if sorted(p) != identity:
                raise ValueError(f"matching for edge {i}-{j} is not a bijection on [0,{ell})")
            normalized[e] = p
        missing = edge_set - normalized.keys()
        if missing:
            i, j = min(missing)
            raise ValueError(f"matching missing for base edge {i}-{j}")
        # operator.index reads booleans as 0 and 1; one scan refuses them
        if bool in map(type, chain.from_iterable(self.matchings.values())):
            raise TypeError("matching entries must be integers, got a boolean")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "matchings", normalized)

    @property
    def num_vertices(self) -> int:
        return self.base.num_vertices * self.ell

    @cached_property
    def flat_adjacency(self) -> list[list[int]]:
        """Sorted neighbor lists indexed by flat vertex id (fiber*ell + layer).

        The one neighbor index derived from `matchings`: a vertex has one
        neighbor per base edge at its fiber, so the list holds them in
        ascending fiber order."""
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        ell = self.ell
        for (i, j), perm in self.matchings.items():
            oi, oj = i * ell, j * ell
            for a, b in enumerate(perm):
                adj[oi + a].append(oj + b)
                adj[oj + b].append(oi + a)
        for lst in adj:
            lst.sort()
        return adj

    def flat_id(self, v: VertexId) -> int:
        """v's flat id fiber*ell + layer.  The one check of a vertex given from
        outside: a non-integer part raises TypeError, a vertex outside the lift
        ValueError."""
        f, a = v
        f, a = _integer(f, "fiber"), _integer(a, "layer")
        if not (0 <= f < self.base.num_vertices and 0 <= a < self.ell):
            raise ValueError(f"vertex ({f},{a}) out of range for n={self.base.num_vertices}, ell={self.ell}")
        return f * self.ell + a

    def vertex_at(self, flat: int) -> VertexId:
        return VertexId(flat // self.ell, flat % self.ell)

    def vertex_ids(self) -> Iterable[VertexId]:
        for f in range(self.base.num_vertices):
            for a in range(self.ell):
                yield VertexId(f, a)

    def neighbors(self, v: VertexId) -> set[VertexId]:
        """The neighbors of v: exactly one per base edge incident to v's fiber."""
        return {self.vertex_at(w) for w in self.flat_adjacency[self.flat_id(v)]}

    def is_edge(self, u: VertexId, v: VertexId) -> bool:
        """True iff u and v are matched under the relevant base-edge permutation."""
        i, a = divmod(self.flat_id(u), self.ell)
        j, b = divmod(self.flat_id(v), self.ell)
        if i > j:
            i, a, j, b = j, b, i, a
        perm = self.matchings.get((i, j))  # None within a fiber
        return perm is not None and perm[a] == b


# --- keyed sampling ------------------------------------------------------------
#
# A counter-based design in the style of Salmon et al., "Parallel random
# numbers: as easy as 1, 2, 3" (SC 2011): every sort key is a hash of
# (seed, i, j, a), a chain of SplitMix64-style absorb steps,
# absorb(h, x) = mix64((h ^ x) + GAMMA) mod 2**64, where mix64 is SplitMix64's
# output function.  The seed's 64-bit words (low word first) fold into one key
# K from h = 0, K absorbs a base vertex i into a fiber hash, the fiber hash
# absorbs j into the hash of edge (i, j), and the edge hash absorbs each layer
# a into the layer's sort key.  The seed and fiber steps run on Python ints,
# where a step costs less than one NumPy call (a one-edge lift is mostly fixed
# costs); the edge and layer steps run on uint64 arrays.

_M64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U64_GAMMA, _U64_MIX1, _U64_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_U64_30, _U64_27, _U64_31 = np.uint64(30), np.uint64(27), np.uint64(31)
_SAMPLE_KEYS = 1 << 16  # sort keys per chunk, whatever ell is


def _absorb(h: int, x: int) -> int:
    """mix64((h ^ x) + GAMMA) mod 2**64 on Python ints."""
    z = (h ^ x) + _GAMMA & _M64
    z = (z ^ z >> 30) * _MIX1 & _M64
    z = (z ^ z >> 27) * _MIX2 & _M64
    return z ^ z >> 31


def _absorb_array(z: np.ndarray) -> np.ndarray:
    """`_absorb` on a uint64 array that already holds h ^ x, in place."""
    z += _U64_GAMMA
    z ^= z >> _U64_30
    z *= _U64_MIX1
    z ^= z >> _U64_27
    z *= _U64_MIX2
    z ^= z >> _U64_31
    return z


def sample_uniform_lift(base: BaseGraph, ell: int, seed: int) -> LiftGraph:
    """Sample a uniformly random ell-lift of `base`, deterministic given seed.

    Edge (i, j)'s permutation is the stable argsort of the ell sort keys
    absorb(absorb(absorb(K, i), j), a), a = 0..ell-1, where K folds the seed
    (see the section comment).  It depends only on (seed, i, j, ell): not on
    edge order, on chunking or on the rest of the base graph.  The keys of one
    edge cannot tie: mix64 is a bijection and (h ^ a) + GAMMA differs for every
    layer a (independent 64-bit keys for E edges would tie with probability
    below E * ell**2 / 2**65).  The sort is stable all the same, so a tie would go to
    the lower layer.  Base vertex indices must be below 2**64.
    """
    ell = _integer(ell, "ell")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if base.num_vertices > 1 << 64:
        raise ValueError("sampling supports base graphs with at most 2**64 vertices")
    key = 0
    while True:
        key = _absorb(key, seed & _M64)
        seed >>= 64
        if not seed:
            break
    fiber = {i: _absorb(key, i) for i in {i for i, _ in base.edges}}
    layers = np.arange(ell, dtype=np.uint64)
    rows = max(1, _SAMPLE_KEYS // ell)
    edges = base.edges
    matchings = {}
    for start in range(0, len(edges), rows):
        chunk = edges[start:start + rows]
        edge_hash = _absorb_array(np.array([fiber[i] ^ j for i, j in chunk], dtype=np.uint64))
        keys = _absorb_array(edge_hash[:, None] ^ layers)
        # one list per edge; LiftGraph makes the tuples
        matchings.update(zip(chunk, keys.argsort(kind="stable").tolist()))
    return LiftGraph(base, ell, matchings)


# --- canonical text format ---------------------------------------------------
#
# {"n": int, "ell": int, "base_edges": [[i,j],...], "matchings": {"i-j": [...]}}
# Keys sorted, fixed separators: byte-stable for a fixed lift.


def serialize(G: LiftGraph) -> bytes:
    """The canonical format as UTF-8 bytes with a trailing newline."""
    obj = {
        "n": G.base.num_vertices,
        "ell": G.ell,
        "base_edges": [[i, j] for i, j in G.base.edges],
        "matchings": {f"{i}-{j}": list(perm) for (i, j), perm in G.matchings.items()},
    }
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _json_object(data: str | bytes, error: type[ValueError]) -> dict:
    """Decode UTF-8 JSON whose top level is an object; a key repeated within
    any object is an error, so no entry can silently replace another."""

    def unique(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    raise error(f"key '{key}' appears twice in one object")
                seen.add(key)
        return obj

    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        obj = json.loads(data, object_pairs_hook=unique)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error("top-level value must be an object")
    return obj


def _pair_key(key: str) -> tuple[int, int] | None:
    """(i, j) for a canonical key 'i-j' (ASCII decimals, no sign, no leading
    zeros), else None.  Canonical keys and pairs correspond one to one."""
    a, _, b = key.partition("-")
    try:
        i, j = int(a), int(b)
    except ValueError:
        return None
    return (i, j) if key == f"{i}-{j}" and min(i, j) >= 0 else None


def deserialize(data: bytes | str) -> LiftGraph:
    """Parse the canonical format.  This checks JSON shape and types only;
    BaseGraph and LiftGraph check the edges and matchings, once."""
    obj = _json_object(data, LiftFormatError)
    for field in ("n", "ell", "base_edges", "matchings"):
        if field not in obj:
            raise LiftFormatError(f"missing field '{field}'")
    n, ell = obj["n"], obj["ell"]
    # type(x) is int: JSON true/false decode to bool, a subclass of int
    if type(n) is not int or n < 1:
        raise LiftFormatError("field 'n' must be a positive integer")
    if type(ell) is not int or ell < 1:
        raise LiftFormatError("field 'ell' must be a positive integer")
    if not isinstance(obj["base_edges"], list):
        raise LiftFormatError("field 'base_edges' must be an array")
    edges = []
    for k, pair in enumerate(obj["base_edges"]):
        if not (isinstance(pair, list) and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            raise LiftFormatError(f"base_edges[{k}] must be a pair of integers")
        edges.append((pair[0], pair[1]))
    try:
        base = BaseGraph(n, tuple(edges))
    except ValueError as exc:
        raise LiftFormatError(f"base_edges invalid: {exc}") from None
    raw = obj["matchings"]
    if not isinstance(raw, dict):
        raise LiftFormatError("field 'matchings' must be an object")
    matchings: dict[tuple[int, int], list[int]] = {}
    for key, perm in raw.items():
        e = _pair_key(key)
        if e is None:
            raise LiftFormatError(f"matchings key '{key}' must have the canonical form 'i-j'")
        if not (isinstance(perm, list) and all(type(x) is int for x in perm)):
            raise LiftFormatError(f"matchings['{key}'] must be an array of integers")
        matchings[e] = perm
    try:
        return LiftGraph(base, ell, matchings)
    except ValueError as exc:
        raise LiftFormatError(str(exc)) from None
