#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy sizes, in well under a minute.

    python3 perfbench/smoke.py

Checks that every workload runs traced and untraced and prints the result
line BENCHMARK.json promises; that two runs on one seed reproduce every
fingerprint; that the gate rejects hand-corrupted certificates, an edited
certificate file and wrong oracle values; and that the benchmark refuses to
run, printing no result, in a directory holding only BENCHMARK.json and
perfbench/.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import islice
from pathlib import Path

import run
from compare import compare

run.import_package()
from spans import NullTracer  # noqa: E402
from workloads import TOY, WORKLOADS, lift_edge, subdivision_errors  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def result_line(res: subprocess.CompletedProcess) -> dict | None:
    lines = res.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_runs() -> None:
    promised = {0: [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]],
                1: [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]}
    expect(sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"]),
           "BENCHMARK.json lists exactly the workloads run.py knows")
    for name in WORKLOADS:
        for trace in (0, 1):
            res = bench(run.ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--toy")
            out = result_line(res)
            ok = (res.returncode == 0 and out is not None
                  and sorted(out) == ["attempted", "correct", "failed", "metrics"]
                  and out["correct"] is True and out["attempted"] >= 1
                  and [(k, m["unit"]) for k, m in out["metrics"].items()] == promised[trace])
            expect(ok, f"{name} --trace {trace} runs and reports the promised metrics")
            if not ok:
                print(res.stdout[-1500:] + res.stderr[-1500:])


def check_fingerprints() -> None:
    records = []
    for seed in (5, 5, 6):
        bench(run.ROOT, "--workload", "large_tall", "--seed", str(seed), "--seconds", "1",
              "--trace", "1", "--toy")
        records.append(json.loads((run.OUT / f"large_tall-seed{seed}-trace1.json").read_text()))
    compared, mismatches = compare(records[0], records[1])
    expect(compared > 0 and not mismatches, f"same seed reproduces {compared} fingerprints")
    expect(records[0]["fingerprints"][0]["lift_sha256"]
           != records[2]["fingerprints"][0]["lift_sha256"], "another seed gives other lifts")


def first_success(wl, seed: int):
    for spec in islice(wl.specs(seed), 50):
        result = wl.run(spec, NullTracer())
        if result[1].ok:
            return spec, result
    raise RuntimeError(f"no toy {wl.name} build succeeded")


def check_certificate_gate(workdir: Path) -> None:
    for name in ("large_tall", "small_short"):
        wl = WORKLOADS[name](TOY, workdir)
        spec, (G, out) = first_success(wl, 11)
        expect(not wl.check(spec, (G, out)).violations, f"{name}: gate passes a good certificate")
        cert = out.certificate
        paths = dict(cert.paths)
        first = min(paths)
        longest = max(paths, key=lambda p: len(paths[p]))
        corrupted = {
            "missing path": dataclasses.replace(
                cert, paths={p: v for p, v in paths.items() if p != first}),
            "duplicated branch vertex": dataclasses.replace(
                cert, branch=(cert.branch[1],) + cert.branch[1:]),
            "path through a non-edge": dataclasses.replace(
                cert, paths={**paths, first: (paths[first][0], paths[first][0], paths[first][-1])}),
            "path reversed onto wrong pair": dataclasses.replace(
                cert, paths={**paths, longest: tuple(reversed(paths[longest]))}),
        }
        for what, bad in corrupted.items():
            checked = wl.check(spec, (G, dataclasses.replace(out, certificate=bad)))
            own = subdivision_errors(bad.branch, bad.paths, lift_edge(G))
            expect(bool(checked.violations) and bool(own),
                   f"{name}: gate and independent check reject a {what}")


def check_cli_gate(workdir: Path) -> None:
    wl = WORKLOADS["cli_roundtrip"](TOY, workdir)
    for spec in islice(wl.specs(11), 50):
        result = wl.run(spec, NullTracer())
        if result[0] == [0, 0, 0]:
            break
        wl.check(spec, result)  # removes the files before the next try
    cert = json.loads(wl.cert_path.read_text())
    cert["paths"].pop(min(cert["paths"]))
    wl.cert_path.write_text(json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n")
    expect(bool(wl.check(spec, result).violations), "cli_roundtrip: gate rejects an edited cert.json")


def check_oracle_gate(workdir: Path) -> None:
    wl = WORKLOADS["oracles"](TOY, workdir)
    spec = next(s for s in wl.specs(2) if s[3] and s[0] >= 3)
    H, hajos, verdicts, p = wl.run(spec, NullTracer())
    expect(not wl.check(spec, (H, hajos, verdicts, p)).violations, "oracles: gate passes good values")
    wrong = {
        "permanent above exp(-|F|/2ell)": (H, hajos, verdicts, Fraction(1)),
        "Hajos number above its witness": (
            H, dataclasses.replace(hajos, best=hajos.best + 1), verdicts, p),
        "Hajos witness missing a path": (
            H, dataclasses.replace(hajos, witness_paths={
                k: v for k, v in hajos.witness_paths.items() if k != (0, 1)}), verdicts, p),
        "nonexistence verdict below the Hajos number": (
            H, hajos, [dataclasses.replace(v, no_subdivision=True) if v.b == 2 else v
                       for v in verdicts], p),
    }
    for what, result in wrong.items():
        expect(bool(wl.check(spec, result).violations), f"oracles: gate rejects a {what}")


def check_bare_directory() -> None:
    run.OUT.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        res = bench(bare, "--workload", "oracles", "--seed", "0", "--seconds", "1",
                    "--trace", "0")
        expect(res.returncode != 0 and result_line(res) is None,
               f"bare directory: exit {res.returncode}, no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_runs()
    check_fingerprints()
    run.OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.OUT))
    try:
        check_certificate_gate(workdir)
        check_cli_gate(workdir)
        check_oracle_gate(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
