"""Base graphs, uniform random lifts, and canonical (de)serialization.

A lift replaces every base vertex with a fiber of ``ell`` vertices and every
base edge with a perfect matching between the two fibers.  A lift stores all
of them in one (E, ell) integer array: row e is the permutation of base edge
(i, j) = base.edges[e], i < j, and layer a in fiber i is matched to layer
row[a] in fiber j.  The sampler writes that array, the file format reads and
writes it, and the neighbour index is scattered from it.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, NamedTuple

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
    """A simple undirected graph on [0, num_vertices) given by a sorted,
    duplicate-free edge list of pairs (i, j), i < j.

    Row e of a lift's `matchings` array belongs to `edges[e]`.  The exact
    oracles search the same type, through its bitmask adjacency `adj`."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = _integer(self.num_vertices, "num_vertices")
        if n < 1:
            raise ValueError("base graph needs at least one vertex")
        edges = tuple(self.edges)
        if not _plain_edges(edges, n):
            edges = _checked_edges(edges, n)
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "edges", edges)

    @property
    def is_complete(self) -> bool:
        n = self.num_vertices
        return len(self.edges) == n * (n - 1) // 2

    def edge_index(self, i: int, j: int) -> int | None:
        """The row of edge (i, j), i < j, in a lift's `matchings`; None if
        (i, j) is not an edge."""
        n = self.num_vertices
        if self.is_complete:
            return _complete_edge_row(n, i, j) if 0 <= i < j < n else None
        return self._edge_rows.get((i, j))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max(map(int.bit_count, self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    # lazily built views of the edge list; none is built at construction

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Bit w of adj[v] is set iff v and w are adjacent."""
        masks = [0] * self.num_vertices
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return tuple(masks)

    @cached_property
    def _edge_rows(self) -> dict[tuple[int, int], int]:
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def _endpoints(self) -> np.ndarray:
        """The edges as an (E, 2) array."""
        E = len(self.edges)
        return np.fromiter(chain.from_iterable(self.edges), dtype=np.intp,
                           count=2 * E).reshape(E, 2)

    @cached_property
    def _keys(self) -> list[str]:
        """The file format's key 'i-j' of every edge, in row order."""
        return [f"{i}-{j}" for i, j in self.edges]

    @cached_property
    def _file_layout(self) -> tuple[np.ndarray, list[str], str]:
        """What `serialize` takes from the base: the rows in the file's key
        order (keys sorted as strings, so '0-10' comes before '0-2'), the text
        '"i-j":[' that opens each of those rows, and the base_edges text."""
        keys = self._keys
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return (np.array(order, dtype=np.intp), [f'"{keys[e]}":[' for e in order],
                json.dumps(self.edges, separators=(",", ":")))


def _complete_edge_row(n, i, j):
    """The row of edge (i, j), 0 <= i < j < n, of K_n, whose edges run (0,1),
    (0,2), ..., (0,n-1), (1,2), ...; works on ints and on integer arrays."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


def _plain_edges(edges: tuple, n: int) -> bool:
    """True iff every edge is a tuple (i, j) of ints with 0 <= i < j < n and
    the edges strictly increase.  Each condition is one scan in C."""
    if not (set(map(type, edges)) <= {tuple} and set(map(len, edges)) <= {2}):
        return False
    ends = list(chain.from_iterable(edges))
    return (set(map(type, ends)) <= {int}
            and min(ends, default=0) >= 0 and max(ends, default=0) < n
            and all(map(operator.lt, ends[::2], ends[1::2]))
            and all(map(operator.lt, edges, edges[1:])))


def _checked_edges(edges: tuple, n: int) -> tuple[tuple[int, int], ...]:
    """The edges with every endpoint made an int; raises at the first fault."""
    normalized = tuple((_integer(i, "edge endpoint"), _integer(j, "edge endpoint"))
                       for i, j in edges)
    for i, j in normalized:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) endpoint out of range [0,{n})")
        if i >= j:
            raise ValueError(f"edge ({i},{j}) must satisfy i < j (no loops)")
    if any(a >= b for a, b in zip(normalized, normalized[1:])):
        raise ValueError("edge list must be sorted and duplicate-free")
    return normalized


def complete_base(n: int) -> BaseGraph:
    """The complete graph K_n as a base graph."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("complete_base requires n >= 1")
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return BaseGraph(n, edges)


@dataclass(frozen=True, eq=False)
class LiftGraph:
    """An ell-lift of a base graph.  Immutable after construction.

    `matchings` is a read-only (E, ell) integer array: row e is the
    permutation of base edge `base.edges[e]` = (i, j), i < j, and layer a in
    fiber i is matched to layer matchings[e, a] in fiber j.
    """

    base: BaseGraph
    ell: int
    matchings: np.ndarray

    def __post_init__(self):
        # The one validation of a lift's matchings.  Messages name edges as
        # 'i-j', the key form of the file format.
        ell = _integer(self.ell, "ell")
        if ell < 1:
            raise ValueError("ell must be >= 1")
        rows = _array_rows(self.base, ell, self.matchings)
        rows.flags.writeable = False
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "matchings", rows)

    @classmethod
    def _of_permutations(cls, base: BaseGraph, ell: int, rows: np.ndarray) -> "LiftGraph":
        """The lift of an (E, ell) intp array whose rows are permutations by
        construction, without the validation pass."""
        G = object.__new__(cls)
        rows.flags.writeable = False
        object.__setattr__(G, "base", base)
        object.__setattr__(G, "ell", ell)
        object.__setattr__(G, "matchings", rows)
        return G

    def __eq__(self, other):
        if not isinstance(other, LiftGraph):
            return NotImplemented
        return (self.ell == other.ell and self.base == other.base
                and np.array_equal(self.matchings, other.matchings))

    def __hash__(self):
        return hash((self.base, self.ell, self.matchings.tobytes()))

    @property
    def num_vertices(self) -> int:
        return self.base.num_vertices * self.ell

    @cached_property
    def flat_adjacency(self) -> np.ndarray | tuple[np.ndarray, ...]:
        """The one neighbour index, scattered from `matchings` on first use:
        row v (v a flat id fiber*ell + layer) is a read-only intp array of
        v's neighbours, one per base edge at v's fiber, in ascending fiber
        order, so sorted.  On a complete base the index is the (N, n-1)
        table itself; on other bases a tuple of row views of one array.
        Nothing converts the whole index: a caller that walks rows in Python
        calls `.tolist()` on each row it reads."""
        base, ell = self.base, self.ell
        ends = base._endpoints
        low = ends[:, :1] * ell + np.arange(ell)    # fiber i's side of each pair
        high = ends[:, 1:] * ell + self.matchings   # fiber j's side
        if base.is_complete:
            # vertex (f, a) keeps its neighbor in fiber g at column g - (g > f)
            adj = np.empty((self.num_vertices, base.num_vertices - 1), dtype=np.intp)
            adj[low, ends[:, 1:] - 1] = high
            adj[high, ends[:, :1]] = low
            adj.flags.writeable = False
            return adj
        src = np.concatenate((low.ravel(), high.ravel()))
        dst = np.concatenate((high.ravel(), low.ravel()))
        flat = dst[np.lexsort((dst, src))]
        flat.flags.writeable = False
        stops = np.cumsum(np.bincount(src, minlength=self.num_vertices))
        return tuple(np.split(flat, stops[:-1]))

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

    def is_edge(self, u: VertexId, v: VertexId) -> bool:
        """True iff u and v are matched under the relevant base-edge permutation.

        Reads `matchings`, never `flat_adjacency`: the certificate verifier
        checks edges here, apart from the index the builders search."""
        ell = self.ell
        i, a = divmod(self.flat_id(u), ell)
        j, b = divmod(self.flat_id(v), ell)
        if i > j:
            i, a, j, b = j, b, i, a
        e = self.base.edge_index(i, j)  # None within a fiber
        return e is not None and self.matchings.item(e, a) == b


def _array_rows(base: BaseGraph, ell: int, m: np.ndarray) -> np.ndarray:
    """A copy of an (E, ell) integer array as intp, checked in one pass."""
    if not isinstance(m, np.ndarray):
        raise TypeError(f"matchings must be an (E, ell) integer array, got {type(m).__name__}")
    if m.dtype == bool:
        raise TypeError("matching entries must be integers, got a boolean")
    if m.dtype.kind not in "iu":
        raise TypeError(f"matching entries must be integers, got {m.dtype}")
    E = len(base.edges)
    if m.shape != (E, ell):
        raise ValueError(f"matchings must have shape (E, ell) = ({E}, {ell}), got {m.shape}")
    rows = m.astype(np.intp)  # a copy, which the lift owns; uint64 above 2**63 wraps negative
    bad = (np.sort(rows, axis=1) != np.arange(ell)).any(axis=1)
    if bad.any():
        i, j = base.edges[int(bad.argmax())]
        raise ValueError(f"matching for edge {i}-{j} is not a bijection on [0,{ell})")
    return rows


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
    # each chunk's argsort is the chunk's rows of the matchings array
    parts = []
    for start in range(0, len(edges), rows):
        chunk = edges[start:start + rows]
        edge_hash = _absorb_array(np.array([fiber[i] ^ j for i, j in chunk], dtype=np.uint64))
        keys = _absorb_array(edge_hash[:, None] ^ layers)
        parts.append(keys.argsort(kind="stable"))
    if len(parts) == 1:
        matchings = parts[0]
    else:
        matchings = np.concatenate(parts) if parts else np.empty((0, ell), dtype=np.intp)
    return LiftGraph._of_permutations(base, ell, matchings)


# --- canonical text format ---------------------------------------------------
#
# {"n": int, "ell": int, "base_edges": [[i,j],...], "matchings": {"i-j": [...]}}
# Keys sorted, fixed separators: byte-stable for a fixed lift.


def serialize(G: LiftGraph) -> bytes:
    """The canonical format as UTF-8 bytes with a trailing newline."""
    base = G.base
    order, openers, edges_text = base._file_layout
    # one '"i-j":[%d,..,%d]' per row in key order, filled from one flat list
    # of ints: no list per row is made
    row = ",".join(["%d"] * G.ell) + "]"
    body = ",".join(map(operator.add, openers, repeat(row))) % tuple(
        G.matchings[order].ravel().tolist())
    return (f'{{"base_edges":{edges_text},"ell":{G.ell},"matchings":{{{body}}},'
            f'"n":{base.num_vertices}}}\n').encode("utf-8")


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


def _flat_ints(rows: list, width: int) -> list[int] | None:
    """The entries of `rows`, row after row, if every row is a list of
    `width` ints, booleans excluded (JSON true/false decode to bool, a
    subclass of int); else None.  Each condition is one scan in C."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        return None
    flat = list(chain.from_iterable(rows))
    return flat if set(map(type, flat)) <= {int} else None


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
    raw_edges = obj["base_edges"]
    if not isinstance(raw_edges, list):
        raise LiftFormatError("field 'base_edges' must be an array")
    ends = _flat_ints(raw_edges, 2)
    if ends is None:  # name the first pair that is not two integers
        for k, pair in enumerate(raw_edges):
            if not (isinstance(pair, list) and len(pair) == 2
                    and type(pair[0]) is int and type(pair[1]) is int):
                raise LiftFormatError(f"base_edges[{k}] must be a pair of integers")
    try:
        base = BaseGraph(n, tuple(zip(ends[::2], ends[1::2])))
    except ValueError as exc:
        raise LiftFormatError(f"base_edges invalid: {exc}") from None
    raw = obj["matchings"]
    if not isinstance(raw, dict):
        raise LiftFormatError("field 'matchings' must be an object")
    # exactly the E canonical keys, each an array of ell ints
    rows = list(map(raw.get, base._keys))
    entries = _flat_ints(rows, ell) if len(raw) == len(rows) else None
    if entries is not None:
        try:
            return LiftGraph(base, ell, np.array(entries, dtype=np.intp).reshape(len(rows), ell))
        except (OverflowError, ValueError):
            pass  # _matchings_fault names the fault by key, in file order
    raise _matchings_fault(base, ell, raw)


def _matchings_fault(base: BaseGraph, ell: int, raw: dict) -> LiftFormatError:
    """The error naming the first fault of a 'matchings' object that is not
    E valid rows.  Two walks over the keys in file order: the first checks
    each key's form and entry types, the second that it is a base edge and
    its row a permutation; then the first base edge without a key."""
    for key, perm in raw.items():
        if _pair_key(key) is None:
            return LiftFormatError(f"matchings key '{key}' must have the canonical form 'i-j'")
        if not (isinstance(perm, list) and all(type(x) is int for x in perm)):
            return LiftFormatError(f"matchings['{key}'] must be an array of integers")
    identity = list(range(ell))
    for key, perm in raw.items():
        if base.edge_index(*_pair_key(key)) is None:
            return LiftFormatError(f"matching key {key} is not a base edge")
        if sorted(perm) != identity:
            return LiftFormatError(f"matching for edge {key} is not a bijection on [0,{ell})")
    # no key is faulty, yet the rows were not taken: one is missing
    missing = next(key for key in base._keys if key not in raw)
    return LiftFormatError(f"matching missing for base edge {missing}")
