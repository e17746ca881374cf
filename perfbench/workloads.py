"""The four benchmark workloads: instance inputs, one timed instance, the gate.

Every workload is closed-loop with a single client in a single process: the
next instance starts when the previous one (and its untimed gate) is done.
All inputs derive from the benchmark's seed argument, as an endless stream
whose k-th element does not depend on how many are drawn; the library only
ever sees the generated lifts, seeds and file paths.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import asdict, dataclass
from itertools import combinations, count
from pathlib import Path

import numpy as np

from liftsub import build, cli, exact, lifts, verify

# criterion-7 lift shapes (n, ell), in the acceptance suite's order
ORACLE_SHAPES = ((2, 10), (3, 6), (4, 5), (2, 8), (3, 5), (4, 4), (2, 6), (3, 4), (4, 3), (2, 4))
ORACLE_BUDGET = exact.OracleBudget(max_nodes=24, max_states=5_000_000, time_limit=30.0)


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the paper's acceptance scale, TOY runs in seconds."""

    large: tuple[int, int]
    small_n: int
    small_ells: tuple[int, ...]
    cli: tuple[int, int]
    shapes: tuple[tuple[int, int], ...]
    permanent_ell: int


FULL = Scale(large=(48, 80), small_n=400, small_ells=(2, 3, 4), cli=(100, 3),
             shapes=ORACLE_SHAPES, permanent_ell=12)
TOY = Scale(large=(9, 14), small_n=30, small_ells=(2, 3, 4), cli=(20, 3),
            shapes=((2, 4), (3, 4), (4, 3)), permanent_ell=6)


@dataclass
class Checked:
    """What the gate found for one instance."""

    failed: bool                 # a legitimate negative result; counts in failed_ratio
    violations: list[str]        # wrong outputs; any one breaks the gate
    fingerprint: dict            # exact values two runs on one seed must reproduce
    order_ratio: float | None = None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def lift_seed(seed: int, k: int) -> int:
    """Instance k's lift seed; distinct across benchmark seeds for k < 10**6."""
    return seed * 1_000_000 + k


def subdivision_errors(branch, paths, is_edge) -> list[str]:
    """Independent check that (branch, paths) is a clique subdivision.

    Written apart from `liftsub.verify` so that a fault in the library's
    verifier cannot pass its own output.
    """
    b = len(branch)
    errors = []
    if len(set(branch)) != b:
        errors.append("branch vertices repeat")
    expected = set(combinations(range(b), 2))
    if set(paths) != expected:
        errors.append("paths do not cover exactly the branch pairs")
    used = set(branch)
    for i, j in sorted(expected & set(paths)):
        p = tuple(paths[(i, j)])
        if len(p) < 2 or p[0] != branch[i] or p[-1] != branch[j]:
            errors.append(f"path {i}-{j} does not join its branch vertices")
            continue
        if not all(is_edge(x, y) for x, y in zip(p, p[1:])):
            errors.append(f"path {i}-{j} leaves the host graph")
        for v in p[1:-1]:
            if v in used:
                errors.append(f"path {i}-{j} reuses vertex {tuple(v) if isinstance(v, tuple) else v}")
                break
            used.add(v)
    return errors


def lift_edge(G):
    def is_edge(u, v) -> bool:
        try:
            return G.is_edge(u, v)
        except ValueError:  # out-of-range vertex
            return False
    return is_edge


def certificate_errors(G, cert, order: int | None = None) -> list[str]:
    """Library verdict plus the independent check, and the expected order."""
    errors = [f"verify_certificate: {v}" for v in verify.verify_certificate(G, cert).violations]
    errors += subdivision_errors(cert.branch, cert.paths, lift_edge(G))
    if order is not None and verify.certificate_order(cert) != order:
        errors.append(f"certificate order {verify.certificate_order(cert)} != {order}")
    return errors


def _build_outcome(G, out, order: int | None, target: float) -> Checked:
    fp = {"lift_sha256": sha256(lifts.serialize(G)), "stats": asdict(out.stats)}
    if not out.ok:
        fp["failure"] = asdict(out.failure)
        return Checked(failed=True, violations=[], fingerprint=fp)
    fp["cert_sha256"] = sha256(verify.serialize_certificate(out.certificate))
    return Checked(failed=False, violations=certificate_errors(G, out.certificate, order),
                   fingerprint=fp,
                   order_ratio=verify.certificate_order(out.certificate) / target)


class LargeTall:
    name = "large_tall"
    why = ("criterion-5 regime K_48, ell=80, eps=0.5: routing dominates "
           "(65-79 BFS calls per build); predicted dominant layer connect.route")
    dominant = "connect.route"
    cycle = 1

    def __init__(self, scale: Scale, workdir: Path):
        self.n, self.ell = scale.large
        self.base = lifts.complete_base(self.n)

    def specs(self, seed: int):
        return (lift_seed(seed, k) for k in count())

    def run(self, s: int, tr):
        G = lifts.sample_uniform_lift(self.base, self.ell, s)
        with tr.span("lifts.adjacency"):
            G.flat_adjacency
        return G, build.build_large_ell(G, build.BuildConfig(epsilon=0.5, seed=s))

    def check(self, s: int, result) -> Checked:
        G, out = result
        return _build_outcome(G, out, order=self.n, target=float(self.n))


class SmallShort:
    name = "small_short"
    why = ("criterion-6 regime K_400, ell cycling 2,3,4, eps=0.1: sampling and the "
           "length-2 stage dominate, routing idle; predicted dominant layer lifts.sample")
    dominant = "lifts.sample"

    def __init__(self, scale: Scale, workdir: Path):
        self.n, self.ells = scale.small_n, scale.small_ells
        self.cycle = len(self.ells)
        self.base = lifts.complete_base(self.n)

    def specs(self, seed: int):
        return ((lift_seed(seed, k), self.ells[k % len(self.ells)]) for k in count())

    def run(self, spec, tr):
        s, ell = spec
        G = lifts.sample_uniform_lift(self.base, ell, s)
        with tr.span("lifts.adjacency"):
            G.flat_adjacency
        return G, build.build_small_ell(G, build.BuildConfig(epsilon=0.1, seed=s))

    def check(self, spec, result) -> Checked:
        G, out = result
        return _build_outcome(G, out, order=None, target=build.target_order(self.n, spec[1]))


class CliRoundtrip:
    name = "cli_roundtrip"
    why = ("CLI sample -> build --builder auto -> verify through files at n=100, ell=3: "
           "one lift written and parsed twice; predicted dominant layer lifts.deserialize")
    dominant = "lifts.deserialize"
    epsilon = 0.1
    cycle = 1

    def __init__(self, scale: Scale, workdir: Path):
        self.n, self.ell = scale.cli
        # `--builder auto` picks the small builder in this regime; the gate
        # rebuilds in-process with that builder
        if not (self.ell <= max(2, self.n // 2)):
            raise ValueError("cli_roundtrip scale must lie in the small-builder regime")
        self.base = lifts.complete_base(self.n)
        self.lift_path = workdir / "lift.json"
        self.cert_path = workdir / "cert.json"

    def specs(self, seed: int):
        return (lift_seed(seed, k) for k in count())

    def run(self, s: int, tr):
        lift, cert = str(self.lift_path), str(self.cert_path)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes = [cli.main(["sample", "--n", str(self.n), "--ell", str(self.ell),
                               "--seed", str(s), "-o", lift])]
            if codes[0] == 0:
                codes.append(cli.main(["build", "-i", lift, "--builder", "auto",
                                       "--epsilon", str(self.epsilon), "--seed", str(s),
                                       "-o", cert]))
            if codes == [0, 0]:
                codes.append(cli.main(["verify", "-g", lift, "-c", cert]))
        return codes, stdout.getvalue()

    def check(self, s: int, result) -> Checked:
        codes, stdout = result
        violations = []
        files = {}
        for key, path in (("lift", self.lift_path), ("cert", self.cert_path)):
            if path.exists():
                files[key] = path.read_bytes()
                path.unlink()
        G = lifts.sample_uniform_lift(self.base, self.ell, s)
        out = build.build_small_ell(G, build.BuildConfig(epsilon=self.epsilon, seed=s))
        fp = {"exit_codes": codes, "stats": asdict(out.stats)}
        if "lift" in files:
            fp["lift_sha256"] = sha256(files["lift"])
            if files["lift"] != lifts.serialize(G):
                violations.append("lift.json differs from serialize() of the in-process sample")
        if codes[:2] != [0, 0]:
            if codes == [0, 1] and out.ok:
                violations.append("CLI build failed where the in-process build succeeds")
            return Checked(failed=True, violations=violations, fingerprint=fp)
        if not out.ok:
            violations.append("CLI build succeeded where the in-process build fails")
            return Checked(failed=False, violations=violations, fingerprint=fp)
        expected = verify.serialize_certificate(out.certificate)
        fp["cert_sha256"] = sha256(files.get("cert", b""))
        if files.get("cert") != expected:
            violations.append("cert.json differs from serialize_certificate() of the in-process build")
        else:
            violations += certificate_errors(G, out.certificate)
        if codes[2] != 0 or "PASS" not in stdout:
            violations.append(f"CLI verify rejected a certificate (exit {codes[2]})")
        ratio = verify.certificate_order(out.certificate) / build.target_order(self.n, self.ell)
        return Checked(failed=codes[2] != 0, violations=violations, fingerprint=fp,
                       order_ratio=ratio)


class Oracles:
    name = "oracles"
    why = ("criterion-7 shapes (2,10)..(2,4): exact Hajos search, counting "
           "nonexistence for b=2..N, one ell=12 permanent; predicted dominant layer exact.hajos")
    dominant = "exact.hajos"

    def __init__(self, scale: Scale, workdir: Path):
        self.shapes, self.perm_ell = scale.shapes, scale.permanent_ell
        self.cycle = len(self.shapes)
        self.bases = {n: lifts.complete_base(n) for n in {n for n, _ in self.shapes}}

    def specs(self, seed: int):
        # forbidden pair sets for the permanent, |F| < 3*ell as in criterion 3
        rng = np.random.default_rng(seed)
        for k in count():
            n, ell = self.shapes[k % len(self.shapes)]
            size = int(rng.integers(0, 3 * self.perm_ell))
            F = frozenset(map(tuple, rng.integers(0, self.perm_ell, size=(size, 2)).tolist()))
            yield n, ell, lift_seed(seed, k), F

    def run(self, spec, tr):
        n, ell, s, F = spec
        H = exact.lift_to_simple(lifts.sample_uniform_lift(self.bases[n], ell, s))
        hajos = exact.exact_hajos_number(H, ORACLE_BUDGET)
        verdicts = [exact.subdivision_nonexistence_by_counting(H, b, ORACLE_BUDGET)
                    for b in range(2, H.num_vertices + 1)]
        return H, hajos, verdicts, exact.exact_avoidance_probability(F, self.perm_ell)

    def check(self, spec, result) -> Checked:
        F = spec[3]
        H, hajos, verdicts, p = result
        fp = {"hajos": [hajos.best, hajos.upper, hajos.exact], "hajos_states": hajos.states,
              "nonexistence": [[v.b, v.no_subdivision, v.max_edges, v.exact] for v in verdicts],
              "permanent": str(p)}
        failed = not hajos.exact or not all(v.exact for v in verdicts)
        violations = [f"nonexistence at b={v.b} contradicts hajos={hajos.best}"
                      for v in verdicts if v.no_subdivision and hajos.best >= v.b]
        violations += [f"hajos witness: {e}" for e in subdivision_errors(
            hajos.witness_branch, hajos.witness_paths, H.has_edge)]
        if len(hajos.witness_branch) != hajos.best:
            violations.append(f"hajos witness has {len(hajos.witness_branch)} branch "
                              f"vertices, claimed {hajos.best}")
        if not (0 <= p <= 1) or float(p) > math.exp(-len(F) / (2 * self.perm_ell)) + 1e-12:
            violations.append(f"permanent {float(p):.6g} breaks p <= exp(-|F|/2ell), |F|={len(F)}")
        degree_bound = min(H.max_degree() + 1, H.num_vertices)
        return Checked(failed=failed, violations=violations, fingerprint=fp,
                       order_ratio=hajos.best / degree_bound)


WORKLOADS = {w.name: w for w in (LargeTall, SmallShort, CliRoundtrip, Oracles)}
