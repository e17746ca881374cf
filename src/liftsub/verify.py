"""Validation of topological-clique certificates against a host lift.

A certificate consists of b branch vertices and one path per unordered pair
of branch indices; the paths must use host edges and be internally
vertex-disjoint.  Verification never raises on malformed input: every
problem becomes a typed violation in the verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Mapping

import numpy as np

from .lifts import (LiftGraph, VertexId, _complete_edge_row, _integer, _json_object,
                    _pair_key)

__all__ = [
    "CertificateFormatError",
    "SubdivisionCertificate",
    "Verdict",
    "Violation",
    "certificate_from_json",
    "certificate_order",
    "certificate_vertex_count",
    "serialize_certificate",
    "verify_certificate",
]

# Violation kinds reported by verify_certificate.
BRANCH_COLLISION = "branch-collision"
MISSING_PAIR = "missing-pair"
UNKNOWN_PAIR = "unknown-pair"
ENDPOINT_MISMATCH = "endpoint-mismatch"
MISSING_EDGE = "missing-edge"
REUSED_INTERNAL = "reused-internal-vertex"
INTERNAL_HITS_BRANCH = "internal-hits-branch"
OUT_OF_RANGE = "out-of-range-vertex"
MALFORMED_PATH = "malformed-path"


class CertificateFormatError(ValueError):
    """A serialized certificate failed structural validation."""


@dataclass(frozen=True)
class SubdivisionCertificate:
    """Branch vertices plus one connecting path per branch-index pair."""

    branch: tuple[VertexId, ...]
    paths: Mapping[tuple[int, int], tuple[VertexId, ...]]

    def __post_init__(self):
        branch = tuple(self.branch)
        given = [(key, tuple(path)) for key, path in self.paths.items()]
        # a VertexId of two ints is already normal: when one scan over all
        # vertices finds only such, the per-vertex pass is skipped
        vertices = tuple if _plain(chain(branch, *(p for _, p in given))) else _vertices
        branch = vertices(branch)
        paths: dict[tuple[int, int], tuple[VertexId, ...]] = {}
        for (i, j), path in given:
            i, j = _integer(i, "branch index"), _integer(j, "branch index")
            if i > j:
                i, j = j, i
                path = path[::-1]
            paths[(i, j)] = vertices(path)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "paths", paths)


def _vertices(seq) -> tuple[VertexId, ...]:
    """Each vertex as a VertexId of two ints; a bool, a float or any other
    non-integer part raises TypeError."""
    def vertex(v) -> VertexId:
        f, a = v
        return VertexId(_integer(f, "fiber"), _integer(a, "layer"))
    return tuple(map(vertex, seq))


def _plain(vertices: Iterable) -> bool:
    """True iff every vertex is a VertexId of two ints.  Each condition is one
    scan in C."""
    vs = list(vertices)
    return set(map(type, vs)) <= {VertexId} and set(map(type, chain.from_iterable(vs))) <= {int}


def certificate_order(cert: SubdivisionCertificate) -> int:
    return len(cert.branch)


def certificate_vertex_count(cert: SubdivisionCertificate) -> int:
    seen = set(cert.branch)
    for path in cert.paths.values():
        seen.update(path)
    return len(seen)


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.message}"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[Violation, ...]

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


def verify_certificate(G: LiftGraph, cert: SubdivisionCertificate) -> Verdict:
    """Check every certificate invariant in G and enumerate all violations.

    Edges are checked against `G.matchings` only, never against
    `G.flat_adjacency`, the neighbour index the builders search: a fault in
    that index cannot certify its own output.  A certificate that passes one
    array pass over its flat ids (`_accepts`) is valid; any other gets the
    vertex-by-vertex walk (`_walk`), which lists every violation."""
    if _accepts(G, cert):
        return Verdict(ok=True, violations=())
    return _walk(G, cert)


def _accepts(G: LiftGraph, cert: SubdivisionCertificate) -> bool:
    """True only if `_walk` would find no violation.  On a complete base it
    checks, over flat ids: the keys are exactly the pairs i < j < b, every
    path has two or more vertices, every vertex is in range, every path runs
    between its two branch vertices, every step is a matched pair in
    `G.matchings`, and the branch vertices together with all internal
    vertices are pairwise distinct.  False on any other base, and whenever a
    condition fails: the walk then decides and names the violations."""
    base, ell = G.base, G.ell
    n, b = base.num_vertices, len(cert.branch)
    pairs, paths = list(cert.paths), list(cert.paths.values())
    if not base.is_complete or len(pairs) != b * (b - 1) // 2:
        return False
    lens = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    if (lens < 2).any():
        return False
    try:
        ij = np.fromiter(chain.from_iterable(pairs), dtype=np.int64,
                         count=2 * len(pairs)).reshape(-1, 2)
        fa = np.fromiter(chain.from_iterable(chain(cert.branch, *paths)), dtype=np.int64,
                         count=2 * (b + int(lens.sum()))).reshape(-1, 2)
    except OverflowError:  # an index beyond int64 is out of range anyway
        return False
    i, j = ij[:, 0], ij[:, 1]
    f, a = fa[:, 0], fa[:, 1]
    # the dict's keys are distinct, so b(b-1)/2 of them in range are all pairs
    if not (((0 <= i) & (i < j) & (j < b)).all()
            and ((0 <= f) & (f < n) & (0 <= a) & (a < ell)).all()):
        return False
    ids = f * ell + a
    branch_ids, path_ids = ids[:b], ids[b:]
    stops = np.cumsum(lens)
    starts = stops - lens
    if not ((path_ids[starts] == branch_ids[i]).all()
            and (path_ids[stops - 1] == branch_ids[j]).all()):
        return False
    last = np.zeros(len(path_ids), dtype=bool)
    last[stops - 1] = True
    # the steps u -> u+1 inside each path, low fiber first
    u = np.flatnonzero(~last) + b
    fu, fv, au, av = f[u], f[u + 1], a[u], a[u + 1]
    low = fu < fv
    lo, hi = np.where(low, fu, fv), np.where(low, fv, fu)
    if (lo == hi).any():
        return False
    rows = _complete_edge_row(n, lo, hi)
    if not (G.matchings[rows, np.where(low, au, av)] == np.where(low, av, au)).all():
        return False
    inner = ~last
    inner[starts] = False
    kept = np.concatenate((branch_ids, path_ids[inner]))
    return len(set(kept.tolist())) == len(kept)


def _walk(G: LiftGraph, cert: SubdivisionCertificate) -> Verdict:
    """The verdict of `verify_certificate`, vertex by vertex, with every
    violation in a fixed order."""
    violations: list[Violation] = []
    n, ell = G.base.num_vertices, G.ell

    def in_range(v: VertexId) -> bool:
        return 0 <= v.fiber < n and 0 <= v.layer < ell

    b = len(cert.branch)
    seen_branch: dict[VertexId, int] = {}
    for idx, v in enumerate(cert.branch):
        if not in_range(v):
            violations.append(Violation(OUT_OF_RANGE, f"branch[{idx}] = {tuple(v)} out of range"))
        if v in seen_branch:
            violations.append(Violation(
                BRANCH_COLLISION, f"branch[{seen_branch[v]}] and branch[{idx}] are both {tuple(v)}"))
        else:
            seen_branch[v] = idx

    expected = set(combinations(range(b), 2))
    present = set(cert.paths)
    for pair in sorted(expected - present):
        violations.append(Violation(MISSING_PAIR, f"no path for branch pair {pair}"))
    for pair in sorted(present - expected):
        violations.append(Violation(UNKNOWN_PAIR, f"path for unknown branch pair {pair}"))

    branch_set = set(cert.branch)
    internal_owner: dict[VertexId, tuple[int, int]] = {}
    for pair in sorted(present & expected):
        i, j = pair
        path = cert.paths[pair]
        if len(path) < 2:
            violations.append(Violation(MALFORMED_PATH, f"path {pair} has fewer than two vertices"))
            continue
        bad_range = [v for v in path if not in_range(v)]
        for v in bad_range:
            violations.append(Violation(OUT_OF_RANGE, f"path {pair} contains {tuple(v)} out of range"))
        if bad_range:
            continue
        if path[0] != cert.branch[i] or path[-1] != cert.branch[j]:
            violations.append(Violation(
                ENDPOINT_MISMATCH,
                f"path {pair} runs {tuple(path[0])}..{tuple(path[-1])}, expected "
                f"{tuple(cert.branch[i])}..{tuple(cert.branch[j])}"))
        for k in range(len(path) - 1):
            if not G.is_edge(path[k], path[k + 1]):
                violations.append(Violation(
                    MISSING_EDGE, f"path {pair} step {k}: {tuple(path[k])}-{tuple(path[k + 1])} is not an edge"))
        seen_in_path: set[VertexId] = set()
        for pos, v in enumerate(path):
            internal = 0 < pos < len(path) - 1
            if v in seen_in_path and internal:
                violations.append(Violation(
                    REUSED_INTERNAL, f"path {pair} repeats vertex {tuple(v)}"))
            seen_in_path.add(v)
            if not internal:
                continue
            if v in branch_set:
                violations.append(Violation(
                    INTERNAL_HITS_BRANCH, f"path {pair} passes through branch vertex {tuple(v)}"))
            elif v in internal_owner and internal_owner[v] != pair:
                violations.append(Violation(
                    REUSED_INTERNAL,
                    f"vertex {tuple(v)} is internal to both {internal_owner[v]} and {pair}"))
            else:
                internal_owner.setdefault(v, pair)

    return Verdict(ok=not violations, violations=tuple(violations))


# --- canonical text format ---------------------------------------------------
#
# {"branch": [[f,l],...], "paths": {"i-j": [[f,l],...]}} with sorted keys.


def serialize_certificate(cert: SubdivisionCertificate) -> bytes:
    """The canonical format as UTF-8 bytes with a trailing newline."""
    obj = {
        "branch": [[v.fiber, v.layer] for v in cert.branch],
        "paths": {f"{i}-{j}": [[v.fiber, v.layer] for v in path]
                  for (i, j), path in cert.paths.items()},
    }
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def certificate_from_json(text: str | bytes) -> SubdivisionCertificate:
    obj = _json_object(text, CertificateFormatError)
    for field in ("branch", "paths"):
        if field not in obj:
            raise CertificateFormatError(f"missing field '{field}'")
    if not isinstance(obj["branch"], list):
        raise CertificateFormatError("field 'branch' must be an array")

    def parse_vertex(raw, where: str) -> VertexId:
        # type(x) is int: JSON true/false decode to bool, a subclass of int
        if not (isinstance(raw, list) and len(raw) == 2
                and type(raw[0]) is int and type(raw[1]) is int):
            raise CertificateFormatError(f"{where} must be a [fiber, layer] integer pair")
        return VertexId(raw[0], raw[1])

    branch = tuple(parse_vertex(v, f"branch[{k}]") for k, v in enumerate(obj["branch"]))
    if not isinstance(obj["paths"], dict):
        raise CertificateFormatError("field 'paths' must be an object")
    paths: dict[tuple[int, int], tuple[VertexId, ...]] = {}
    for key, raw_path in obj["paths"].items():
        pair = _pair_key(key)
        if pair is None:
            raise CertificateFormatError(f"paths key '{key}' must have the canonical form 'i-j'")
        if pair[0] >= pair[1]:
            raise CertificateFormatError(f"paths key '{key}' must satisfy i < j")
        if not isinstance(raw_path, list):
            raise CertificateFormatError(f"paths['{key}'] must be an array")
        paths[pair] = tuple(
            parse_vertex(v, f"paths['{key}'][{k}]") for k, v in enumerate(raw_path))
    return SubdivisionCertificate(branch=branch, paths=paths)
