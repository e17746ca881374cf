"""Base graphs, uniform random lifts, and canonical (de)serialization.

A lift replaces every base vertex with a fiber of ``ell`` vertices and every
base edge with a perfect matching between the two fibers.  The matching for
base edge (i, j) with i < j is stored as a permutation of [0, ell): layer a
in fiber i is matched to layer perm[a] in fiber j.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
    parts = tuple(int(k) for k in key)
    if any(k < 0 for k in parts):
        raise ValueError(f"rng key components must be non-negative, got {parts}")
    return np.random.default_rng(np.random.SeedSequence(parts))


@dataclass(frozen=True)
class BaseGraph:
    """A simple undirected graph given by a sorted, duplicate-free edge list."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ValueError("base graph needs at least one vertex")
        normalized = tuple((int(i), int(j)) for i, j in self.edges)
        for i, j in normalized:
            if not (0 <= i < self.num_vertices and 0 <= j < self.num_vertices):
                raise ValueError(f"edge ({i},{j}) endpoint out of range [0,{self.num_vertices})")
            if i >= j:
                raise ValueError(f"edge ({i},{j}) must satisfy i < j (no loops)")
        if any(a >= b for a, b in zip(normalized, normalized[1:])):
            raise ValueError("edge list must be sorted and duplicate-free")
        object.__setattr__(self, "edges", normalized)

    @property
    def is_complete(self) -> bool:
        n = self.num_vertices
        return len(self.edges) == n * (n - 1) // 2


def complete_base(n: int) -> BaseGraph:
    """The complete graph K_n as a base graph."""
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
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        edge_set = set(self.base.edges)
        identity = list(range(self.ell))
        normalized: dict[tuple[int, int], tuple[int, ...]] = {}
        for key, perm in self.matchings.items():
            i, j = e = (int(key[0]), int(key[1]))
            if e not in edge_set:
                raise ValueError(f"matching key {i}-{j} is not a base edge")
            if e in normalized:
                raise ValueError(f"matching key {i}-{j} given twice")
            p = tuple(map(int, perm))
            if sorted(p) != identity:
                raise ValueError(f"matching for edge {i}-{j} is not a bijection on [0,{self.ell})")
            normalized[e] = p
        missing = edge_set - normalized.keys()
        if missing:
            i, j = min(missing)
            raise ValueError(f"matching missing for base edge {i}-{j}")
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
        return v.fiber * self.ell + v.layer

    def vertex_at(self, flat: int) -> VertexId:
        return VertexId(flat // self.ell, flat % self.ell)

    def vertex_ids(self) -> Iterable[VertexId]:
        for f in range(self.base.num_vertices):
            for a in range(self.ell):
                yield VertexId(f, a)

    def _check_vertex(self, v: VertexId) -> VertexId:
        f, a = int(v[0]), int(v[1])
        if not (0 <= f < self.base.num_vertices and 0 <= a < self.ell):
            raise ValueError(f"vertex ({f},{a}) out of range for n={self.base.num_vertices}, ell={self.ell}")
        return VertexId(f, a)

    def neighbors(self, v: VertexId) -> set[VertexId]:
        """The neighbors of v: exactly one per base edge incident to v's fiber."""
        flat = self.flat_id(self._check_vertex(v))
        return {self.vertex_at(w) for w in self.flat_adjacency[flat]}

    def is_edge(self, u: VertexId, v: VertexId) -> bool:
        """True iff u and v are matched under the relevant base-edge permutation."""
        u = self._check_vertex(u)
        v = self._check_vertex(v)
        if u.fiber == v.fiber:
            return False
        if u.fiber > v.fiber:
            u, v = v, u
        perm = self.matchings.get((u.fiber, v.fiber))
        if perm is None:
            return False
        return perm[u.layer] == v.layer


# --- batched substream seeding -------------------------------------------------
#
# derive_rng(seed, i, j) builds a SeedSequence and then a PCG64 per base edge;
# the SeedSequence dominated sampling K_400 (79,800 edges).  _seed_states
# computes what those SeedSequences would generate for a batch of edges at
# once, and each edge's PCG64 is built from its precomputed words, so NumPy's
# own PCG64 seeding runs unchanged.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R_NEG = (1 << 32) - 0x4973F715  # -MIX_MULT_R mod 2**32
_SAMPLE_CHUNK = 1024  # edges per batch; bounds the packed ints below


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """init, init*mult, init*mult**2, ... mod 2**32 (count + 1 values)."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_GENERATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


class _SeedWords(ISeedSequence):
    """Hands a bit generator the state words a SeedSequence would generate."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _seed_states(seed: int, edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Row r is SeedSequence((seed, *edges[r])).generate_state(4, np.uint64).

    This is NumPy's SeedSequence entropy mixing and generate_state
    (numpy/random/bit_generator.pyx), uint32 arithmetic on one word at a time,
    applied to every edge at once: each word is a Python int holding one
    64-bit lane per edge.  Lanes hold values below 2**32 between operations,
    so neither a product with a 32-bit constant nor the sum of two lanes
    carries into the next lane; `& mask` reduces every lane mod 2**32 and
    `v >> 16 & mask` shifts every lane.  Unlike a NumPy call, a big-int
    operation costs almost nothing when there are few edges.  Base vertex
    indices must be below 2**32, so that each is one entropy word.
    """
    rows = len(edges)
    ones = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * rows, "little")
    mask = _MASK32 * ones
    entropy = []
    while True:
        entropy.append((seed & _MASK32) * ones)
        seed >>= 32
        if not seed:
            break
    lanes = f"<{rows}Q"
    entropy.append(int.from_bytes(struct.pack(lanes, *[i for i, _ in edges]), "little"))
    entropy.append(int.from_bytes(struct.pack(lanes, *[j for _, j in edges]), "little"))
    # the k-th hashmix xors with consts[k] and multiplies by consts[k + 1]
    extra = _POOL_SIZE * max(0, len(entropy) - _POOL_SIZE)
    consts = _MIX_CONSTS + _hash_consts(_MIX_CONSTS[-1], _MULT_A, extra)[1:]
    hash_consts = zip(consts, consts[1:])

    pool = []
    for src in range(_POOL_SIZE):
        x, m = next(hash_consts)
        value = ((entropy[src] if src < len(entropy) else 0) ^ x * ones) * m & mask
        pool.append(value ^ value >> 16 & mask)
    for src in range(max(len(entropy), _POOL_SIZE)):
        for dst in range(_POOL_SIZE):
            if dst == src:
                continue
            x, m = next(hash_consts)  # hashmix(source word)
            value = ((pool[src] if src < _POOL_SIZE else entropy[src]) ^ x * ones) * m & mask
            value ^= value >> 16 & mask
            value = (pool[dst] * _MIX_MULT_L & mask) + (value * _MIX_MULT_R_NEG & mask) & mask
            pool[dst] = value ^ value >> 16 & mask  # mix(pool[dst], hashmix(...))

    words = []
    for w in range(8):
        value = (pool[w % _POOL_SIZE] ^ _GENERATE_CONSTS[w] * ones) * _GENERATE_CONSTS[w + 1] & mask
        words.append(value ^ value >> 16 & mask)
    # uint64 word q is uint32 words 2q (low half) and 2q+1 (high half)
    packed = b"".join((words[2 * q] | words[2 * q + 1] << 32).to_bytes(8 * rows, "little")
                      for q in range(4))
    return np.frombuffer(packed, "<u8").reshape(4, rows).T.astype(np.uint64, order="C")


def sample_uniform_lift(base: BaseGraph, ell: int, seed: int) -> LiftGraph:
    """Sample a uniformly random ell-lift of `base`, deterministic given seed.

    Each base edge (i, j) carries an independent uniform permutation drawn
    from the substream keyed by (seed, i, j), so the result does not depend
    on edge iteration order: the matching of (i, j) equals
    ``derive_rng(seed, i, j).permutation(ell)``.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if base.num_vertices > 1 << 32:
        raise ValueError("sampling supports base graphs with at most 2**32 vertices")
    edges = base.edges
    matchings = {}
    for start in range(0, len(edges), _SAMPLE_CHUNK):
        chunk = edges[start:start + _SAMPLE_CHUNK]
        for e, words in zip(chunk, _seed_states(seed, chunk)):
            rng = np.random.Generator(np.random.PCG64(_SeedWords(words)))
            matchings[e] = rng.permutation(ell).tolist()  # LiftGraph makes the tuple
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
