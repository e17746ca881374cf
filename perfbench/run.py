#!/usr/bin/env python3
"""Benchmark of liftsub: four closed-loop workloads against the public API.

One run:

    python3 perfbench/run.py --workload large_tall --seed 0 --seconds 25 --trace 0

measures set-up several times in fresh interpreters, then runs instances of
the workload until their summed wall time reaches --seconds and a whole cycle
of the workload's parameters is done, checking every instance's outputs
after its timed span.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The full record
(provenance, every metric, per-instance fingerprints, spans) goes to
perfbench/out/.  The exit code is 1 when the correctness gate fails and 2
when the package cannot be imported from this checkout's src/.

    python3 perfbench/run.py --all --seed 0 --seconds 25

runs every workload untraced and then traced, prints every metric with its
unit, the tracing overhead and the dominant-layer checks, and writes
perfbench/out/BENCH-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170

# (metric, unit) in the order of BENCHMARK.json's end_to_end list.
# The instance tail, instances_per_s and failed_ratio are recorded but not
# listed there, because no allowed bound holds them steady (see README.md).
E2E_METRICS = [
    ("setup_s", "s"),
    ("instance_p50_s", "s"),
    ("achieved_order_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]


def import_package():
    """Import liftsub from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import liftsub
    except ImportError as exc:
        print(f"error: cannot import liftsub from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC.resolve() not in Path(liftsub.__file__).resolve().parents:
        print(f"error: liftsub was imported from {liftsub.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return liftsub


def tail_stat(times: list[float]) -> dict:
    """The highest percentile with at least ten instances beyond it.

    With ten or fewer instances no percentile qualifies and the maximum is
    reported, with 0 instances beyond it.
    """
    s = sorted(times)
    n = len(s)
    idx = n - 11 if n >= 11 else n - 1
    return {"value": s[idx], "percentile": 100.0 * (idx + 1) / n,
            "beyond": n - 1 - idx, "samples": n}


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            res = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha, "git_dirty": None if status is None else bool(status)}


def provenance(liftsub) -> dict:
    import numpy
    digest = hashlib.sha256()
    pkg = Path(liftsub.__file__).parent
    for path in sorted(pkg.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "source_sha256": digest.hexdigest(),
            **git_state()}


def measure_setup(args) -> list[float]:
    """Time fresh interpreters from start until the first instance could start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--toy"] if args.toy else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {err.decode(errors='replace').strip()}")
    return times


def jsonable(spec):
    if isinstance(spec, (tuple, list)):
        return [jsonable(x) for x in spec]
    if isinstance(spec, frozenset):
        return sorted(jsonable(x) for x in spec)
    return spec


def run_workload(args, liftsub) -> int:
    from spans import (NullTracer, Tracer, dominant_layer, instance_counts, layer_metrics,
                       patched, span_cost)
    from workloads import FULL, TOY, WORKLOADS
    scale = TOY if args.toy else FULL
    if args.setup_probe:
        next(WORKLOADS[args.workload](scale, OUT).specs(args.seed))
        print("ready", flush=True)
        return 0

    setup_times = measure_setup(args)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](scale, workdir)
        specs = []
        tracer = Tracer() if args.trace else NullTracer()
        times, checks = [], []
        timed = 0.0
        with patched(tracer) if args.trace else nullcontext():
            for k, spec in enumerate(wl.specs(args.seed)):
                # whole cycles keep every parameter value equally represented
                if timed >= args.seconds and k % wl.cycle == 0:
                    break
                if args.trace:
                    tracer.instance = k
                t0 = time.perf_counter()
                with tracer.span("instance"):
                    result = wl.run(spec, tracer)
                dt = time.perf_counter() - t0
                if args.trace:
                    tracer.instance = None
                specs.append(spec)
                times.append(dt)
                timed += dt
                checks.append(wl.check(spec, result))
                del result
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(times)
    failed = sum(c.failed for c in checks)
    ratios = [c.order_ratio for c in checks if c.order_ratio is not None]
    tail = tail_stat(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "instance_p50_s": statistics.median(times),
        "achieved_order_ratio": statistics.median(ratios) if ratios else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    end_to_end = {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}
    violations = [{"instance": k, "violation": v}
                  for k, c in enumerate(checks) for v in c.violations]
    fingerprints = [c.fingerprint for c in checks]
    record = {
        "workload": args.workload, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": "toy" if args.toy else "full",
        "provenance": provenance(liftsub),
        "instances": n, "timed_s": timed, "failed": failed, "failed_ratio": failed / n,
        "instances_per_s": n / timed,
        "instance_tail_s": tail, "setup_probes_s": setup_times,
        "end_to_end": end_to_end, "violations": violations,
        "instance_times_s": times,
    }
    if args.trace:
        for k, counts in instance_counts(tracer.spans).items():
            fingerprints[k].update(counts)
        top, shares = dominant_layer(tracer.spans)
        record["per_layer"] = layer_metrics(tracer.spans, times)
        cost = span_cost()
        record["tracing"] = {"span_cost_s": cost, "spans_per_instance": len(tracer.spans) / n,
                             "estimated_overhead_s": cost * len(tracer.spans) / n}
        record["dominant_layer"] = {"predicted": wl.dominant, "observed": top,
                                    "holds": top == wl.dominant, "self_time_shares": shares}
    record["fingerprints"] = [{"instance": k, "spec": jsonable(spec), **fp}
                              for k, (spec, fp) in enumerate(zip(specs, fingerprints))]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with (OUT / f"{stem}-spans.jsonl").open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")

    metrics = record["per_layer"] if args.trace else end_to_end
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"instances {n}, failed {failed}, tail at p{tail['percentile']:.1f} "
          f"({tail['beyond']} beyond, {n} samples), record {OUT / stem}.json")
    for v in violations:
        print(f"GATE instance {v['instance']}: {v['violation']}")
    print(json.dumps({"correct": not violations, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 1 if violations else 0


def run_all(args) -> int:
    """Every workload untraced, then traced; one table and one BENCH file."""
    from workloads import WORKLOADS
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        rows = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--toy"] if args.toy else [])
            record = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            record.unlink(missing_ok=True)
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=CHILD_TIMEOUT_S)
            if res.returncode != 0:
                print(res.stdout + res.stderr, end="")
                status = 1
            if not record.exists():
                return 1
            rows[trace] = json.loads(record.read_text())
        plain, traced = rows[0], rows[1]
        overhead = (traced["per_layer"]["trace.instance_p50_s"]["value"]
                    - plain["end_to_end"]["instance_p50_s"]["value"])
        summary.setdefault("provenance", plain["provenance"])
        summary["workloads"][name] = {
            "why": plain["why"], "instances": plain["instances"],
            "failed_ratio": plain["failed_ratio"], "instances_per_s": plain["instances_per_s"],
            "instance_tail_s": plain["instance_tail_s"],
            "end_to_end": plain["end_to_end"], "per_layer": traced["per_layer"],
            "tracing_overhead_s": overhead, "tracing": traced["tracing"],
            "dominant_layer": traced["dominant_layer"],
            "correct": not plain["violations"] and not traced["violations"],
        }
        tail = plain["instance_tail_s"]
        print(f"== {name}: {plain['instances']} instances, tail at p{tail['percentile']:.1f}"
              f" ({tail['beyond']} beyond, {tail['samples']} samples)")
        end_to_end = {**plain["end_to_end"],
                      "instance_tail_s": {"value": tail["value"], "unit": "s"},
                      "instances_per_s": {"value": plain["instances_per_s"], "unit": "1/s"},
                      "failed_ratio": {"value": plain["failed_ratio"], "unit": "ratio"}}
        for metric, m in end_to_end.items():
            print(f"  {metric:<40} {m['value']:>12.6g} {m['unit']}")
        for metric, m in traced["per_layer"].items():
            print(f"  {metric:<40} {m['value']:>12.6g} {m['unit']}")
        dom = traced["dominant_layer"]
        print(f"  tracing overhead on instance_p50_s: {overhead:+.4f} s measured, "
              f"{traced['tracing']['estimated_overhead_s']:.4f} s from "
              f"{traced['tracing']['spans_per_instance']:.0f} spans per instance")
        print(f"  dominant layer: predicted {dom['predicted']}, observed {dom['observed']}"
              f" -> {'holds' if dom['holds'] else 'does not hold'}")
    path = OUT / f"BENCH-seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {path}")
    return status


def main(argv=None) -> int:
    liftsub = import_package()
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload untraced and traced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    return run_workload(args, liftsub)


if __name__ == "__main__":
    sys.exit(main())
