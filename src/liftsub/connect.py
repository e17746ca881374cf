"""Embedding state and short-path routing between prescribed endpoint pools.

The growing subgraph S tracks which lift vertices are already committed to
the construction; new connecting paths must keep their internal vertices
outside S.  Both builders route through the one primitive here,
`connect_between_sets`: breadth-first search, so a failure means no path of
the requested length exists in the current state, not a heuristic miss.

An unseeded search (the first attempt of both builders) stops at the first
level that reaches a target and returns the path a full sweep to the budget
would return.  A seeded search (the retry attempts) sweeps every level up to
the budget, because each level draws from the generator that the attempt's
later routes share; stopping early would change their paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .lifts import LiftGraph

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


def _bfs_levels(
    adj: list[list[int]],
    starts: Sequence[int],
    blocked: set[int],
    terminals: set[int],
    depth_cap: int,
    rng: Optional[np.random.Generator],
    forbidden_hops: set[tuple[int, int]],
) -> tuple[dict[int, int], dict[int, int]]:
    """BFS from `starts` through unblocked vertices; terminals are reachable
    but never expanded.  `forbidden_hops` suppresses specific start-to-terminal
    edges (used when a direct edge already belongs to the state), leaving the
    terminal discoverable along longer routes.  Returns (dist, parent).

    Unseeded (`rng is None`), the search stops at the first level that
    reaches a terminal.  Before expanding level d it reads each terminal's
    neighbour row: the smallest neighbour at distance d (not a reached
    terminal, and at d == 0 not joined by a forbidden hop) is the parent the
    ascending sweep of level d would assign, so the reached terminals get
    the dist and parent the full sweep gives them, and level d is never
    expanded.  Seeded searches sweep to `depth_cap`: every level draws a
    permutation from `rng`, and later routes of the same attempt read the
    same generator, so stopping early would change their paths."""
    dist = {s: 0 for s in starts}
    parent: dict[int, int] = {}
    frontier = list(starts)
    depth = 0
    while frontier and depth < depth_cap:
        if rng is None:
            hits = {}
            for t in terminals:
                # rows are sorted, so the first qualifying neighbour is the smallest
                x = next((x for x in adj[t] if dist.get(x) == depth and x not in terminals
                          and not (depth == 0 and (x, t) in forbidden_hops)), None)
                if x is not None:
                    hits[t] = x
            if hits:
                parent.update(hits)
                dist.update(dict.fromkeys(hits, depth + 1))
                break
            frontier.sort()
        else:
            frontier = [frontier[k] for k in rng.permutation(len(frontier))]
        nxt: list[int] = []
        for x in frontier:
            if x in terminals and dist[x] > 0:
                continue
            for w in adj[x]:
                if w in dist:
                    continue
                if w in blocked and w not in terminals:
                    continue
                if depth == 0 and (x, w) in forbidden_hops:
                    continue
                dist[w] = depth + 1
                parent[w] = x
                nxt.append(w)
        frontier = nxt
        depth += 1
    return dist, parent


def connect_between_sets(
    G: LiftGraph,
    S: EmbeddingState,
    sources: Sequence[int],
    targets: Sequence[int],
    max_len: int,
    rng: Optional[np.random.Generator] = None,
) -> tuple[int, ...]:
    """Shortest admissible path from any source to any target, committed to S.

    Sources, targets and the returned path are flat vertex ids.  Both endpoint
    pools must lie in S and be disjoint.  Internal vertices stay outside S and
    no edge of S is reused.  Ties go to the smallest target flat id, with the
    frontier scanned in ascending order, or in a seeded random order when
    `rng` is given.  On failure S is unchanged and NoPathWithinBudget is
    raised.
    """
    starts = sorted(sources)
    terminals = set(targets)
    if any(x not in S.blocked for x in starts) or any(x not in S.blocked for x in terminals):
        raise ValueError("all endpoint candidates must belong to S")
    if terminals.intersection(starts):
        raise ValueError("source and target pools must be disjoint")
    dist, parent = _bfs_levels(G.flat_adjacency, starts, S.blocked, terminals, max_len,
                               rng, S.used_edges)
    best: Optional[tuple[int, int]] = None
    for t in terminals:
        d = dist.get(t)
        if d is not None and 0 < d <= max_len:
            key = (d, t)
            if best is None or key < best:
                best = key
    if best is None:
        raise NoPathWithinBudget(f"no path between the endpoint pools of length <= {max_len}")
    x = best[1]
    path = [x]
    while dist[x] > 0:
        x = parent[x]
        path.append(x)
    path.reverse()
    S.add_path(path)
    return tuple(path)
