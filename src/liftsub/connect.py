"""Embedding state and short-path routing between prescribed endpoint pools.

The growing subgraph S tracks which lift vertices are already committed to
the construction; new connecting paths must keep their internal vertices
outside S.  Both builders route through the one primitive here,
`connect_between_sets`: breadth-first search, so a failure means no path of
the requested length exists in the current state, not a heuristic miss.
The search is deterministic and stops at the first level that reaches a
target; a builder's retry varies its routes through the branch vertices
and the order of the pairs it routes, not through the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .lifts import LiftGraph, _integer

__all__ = [
    "EmbeddingState",
    "ExtendabilityParams",
    "NoPathWithinBudget",
    "connect_between_sets",
    "default_max_len",
]


class NoPathWithinBudget(RuntimeError):
    """No admissible path within the length budget; the state is unchanged."""


@dataclass(frozen=True)
class ExtendabilityParams:
    D: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "D", _integer(self.D, "D"))
        object.__setattr__(self, "m", _integer(self.m, "m"))
        if self.D < 3:
            raise ValueError("D must be >= 3")
        if self.m < 1:
            raise ValueError("m must be >= 1")


def default_max_len(params: ExtendabilityParams) -> int:
    """Path length budget 3*ceil(log(2m)/log(D-1))."""
    return 3 * math.ceil(math.log(2 * params.m) / math.log(params.D - 1))


class EmbeddingState:
    """The growing subgraph S of a lift, in flat vertex ids (fiber*ell + layer).

    `blocked` holds the vertices of S; `used_edges` holds every edge of S in
    both orientations, so a routing hop (x, w) is looked up as given.  An id
    outside [0, N) never enters S.
    """

    def __init__(self, G: LiftGraph, vertices: Iterable[int] = ()):
        self.graph = G
        self.blocked: set[int] = set()
        self.used_edges: set[tuple[int, int]] = set()
        self.add_vertices(vertices)

    def add_vertices(self, vs: Iterable[int]) -> None:
        vs = set(vs)
        if vs and not (0 <= min(vs) and max(vs) < self.graph.num_vertices):
            raise ValueError(f"vertex ids out of range [0,{self.graph.num_vertices})")
        self.blocked.update(vs)

    def add_path(self, path: Sequence[int]) -> None:
        """Commit a path whose endpoints are in S and internals are new."""
        if len(path) < 2:
            raise ValueError("a path needs at least two vertices")
        if path[0] not in self.blocked or path[-1] not in self.blocked:
            raise ValueError("path endpoints must already belong to S")
        internal = path[1:-1]
        for x in internal:
            if x in self.blocked:
                raise ValueError(f"internal vertex {x} already belongs to S")
        if len(set(internal)) != len(internal):
            raise ValueError("internal vertices must be distinct")
        hops = list(zip(path, path[1:]))
        for a, b in hops:
            if (a, b) in self.used_edges:
                raise ValueError(f"edge {a}-{b} already belongs to S")
        self.add_vertices(internal)  # also checks that the ids lie in the lift
        for a, b in hops:
            self.used_edges.add((a, b))
            self.used_edges.add((b, a))


def connect_between_sets(
    G: LiftGraph,
    S: EmbeddingState,
    sources: Sequence[int],
    targets: Sequence[int],
    max_len: int,
) -> tuple[int, ...]:
    """Shortest admissible path from any source to any target, committed to S.

    Sources, targets and the returned path are flat vertex ids.  Both endpoint
    pools must lie in S and be disjoint.  Internal vertices stay outside S and
    no edge of S is reused.  On failure S is unchanged and NoPathWithinBudget
    is raised.

    The search is a BFS from the sources through vertices outside S, each
    level expanded in ascending order.  It reads rows of `G.flat_adjacency`
    with one `.tolist()` per row read, so paths hold Python ints.  Before
    expanding level d it reads the targets' neighbour rows: the first target
    (smallest id) with a neighbour at distance d, not joined to it by an edge
    of S, ends the search, with its smallest such neighbour as parent.  That is the path a full sweep to
    `max_len` returns when ties go to the smallest target id.
    """
    starts = sorted(sources)
    terminals = sorted(set(targets))
    blocked, used_edges = S.blocked, S.used_edges
    if any(x not in blocked for x in starts) or any(t not in blocked for t in terminals):
        raise ValueError("all endpoint candidates must belong to S")
    if not set(terminals).isdisjoint(starts):
        raise ValueError("source and target pools must be disjoint")
    adj = G.flat_adjacency
    dist = dict.fromkeys(starts, 0)
    parent: dict[int, int] = {}
    frontier = starts
    for depth in range(max_len):
        if not frontier:
            break
        for t in terminals:
            # rows are sorted, so the first qualifying neighbour is the smallest
            x = next((x for x in adj[t].tolist() if dist.get(x) == depth
                      and (x, t) not in used_edges), None)
            if x is not None:
                path = [t, x]
                while x in parent:
                    x = parent[x]
                    path.append(x)
                path.reverse()
                S.add_path(path)
                return tuple(path)
        nxt: list[int] = []
        for x in frontier:
            for w in adj[x].tolist():
                if w not in dist and w not in blocked:
                    dist[w] = depth + 1
                    parent[w] = x
                    nxt.append(w)
        frontier = sorted(nxt)
    raise NoPathWithinBudget(f"no path between the endpoint pools of length <= {max_len}")
