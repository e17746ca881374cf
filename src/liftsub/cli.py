"""Command-line surface: sampling, building, verifying, property audits,
oracle runs, and reproducible experiment sweeps.

Exit codes: 0 = success / pass, 1 = verified negative result (failed
verification, failed build, property violated), 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import exact as exact_mod
from . import properties as props_mod
from .build import BuildConfig, BuildOutcome, build_large_ell, build_small_ell, target_order
from .connect import ExtendabilityParams
from .lifts import (BaseGraph, LiftGraph, VertexId, complete_base, deserialize,
                    sample_uniform_lift, serialize)
from .verify import (certificate_from_json, certificate_order, serialize_certificate,
                     verify_certificate)

WORKERS_ENV = "LIFTSUB_WORKERS"


def _load_lift(path: str) -> LiftGraph:
    return deserialize(Path(path).read_bytes())


def _load_graph_any(path: str) -> BaseGraph:
    """Accept either a lift file or a plain edge-list file."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return exact_mod.lift_to_simple(deserialize(text))
    return exact_mod.load_edge_list(text)


class SideFileError(ValueError):
    """A JSON side file (vertex list, transversals, pairs) is malformed."""


def _int_pairs(data, where: str) -> list[tuple[int, int]]:
    """`data` as a list of pairs; only `[[int, int], ...]` is accepted."""
    if not isinstance(data, list):
        raise SideFileError(f"{where} must be an array of [int, int] pairs")
    for k, pair in enumerate(data):
        # type(x) is int: JSON true/false decode to bool, a subclass of int
        if not (isinstance(pair, list) and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            raise SideFileError(f"{where}[{k}] must be an [int, int] pair")
    return [(a, b) for a, b in data]


def _read_pairs(path: str) -> list[tuple[int, int]]:
    return _int_pairs(json.loads(Path(path).read_text()), path)


def _parse_vertex_list(path: str) -> list[VertexId]:
    return [VertexId(f, l) for f, l in _read_pairs(path)]


def _emit(obj, fmt: str = "json") -> None:
    """Print a report as canonical JSON or as key: value text lines."""
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, default=str))
        return
    for key in sorted(obj):
        print(f"{key}: {obj[key]}")


# --- sample -------------------------------------------------------------------


def cmd_sample(args) -> int:
    base = complete_base(args.n)
    G = sample_uniform_lift(base, args.ell, args.seed)
    data = serialize(G)
    if args.output:
        Path(args.output).write_bytes(data)
    else:
        sys.stdout.write(data.decode())
    return 0


# --- build --------------------------------------------------------------------


def _build_config(args, seed: int) -> BuildConfig:
    params = None
    if args.big_d is not None or args.m is not None:
        if args.big_d is None or args.m is None:
            raise ValueError("--D and --m must be given together")
        params = ExtendabilityParams(D=args.big_d, m=args.m)
    return BuildConfig(epsilon=args.epsilon, seed=seed, attempts=args.attempts,
                       params=params, paper_constants=args.paper_constants)


def _run_builder(G: LiftGraph, builder: str, cfg: BuildConfig) -> tuple[str, BuildOutcome]:
    n, ell = G.base.num_vertices, G.ell
    if builder == "large":
        return "large", build_large_ell(G, cfg)
    if builder == "small":
        return "small", build_small_ell(G, cfg)
    # auto: clear regimes go to one builder, the open middle band tries both
    if ell >= (1 + cfg.epsilon) * n:
        return "large", build_large_ell(G, cfg)
    if ell <= max(2, n // 2):
        return "small", build_small_ell(G, cfg)
    large = build_large_ell(G, cfg)
    small = build_small_ell(G, cfg)
    score_large = len(large.certificate.branch) if large.ok else -1
    score_small = len(small.certificate.branch) if small.ok else -1
    return ("large", large) if score_large >= score_small else ("small", small)


def cmd_build(args) -> int:
    G = _load_lift(args.input)
    cfg = _build_config(args, args.seed)
    name, outcome = _run_builder(G, args.builder, cfg)
    summary = {"builder": name, "ok": outcome.ok, "stats": asdict(outcome.stats)}
    if outcome.ok:
        if args.output:
            Path(args.output).write_bytes(serialize_certificate(outcome.certificate))
        summary["order"] = certificate_order(outcome.certificate)
    else:
        summary["failure"] = asdict(outcome.failure)
    _emit(summary, args.format)
    return 0 if outcome.ok else 1


# --- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    G = _load_lift(args.graph)
    cert = certificate_from_json(Path(args.cert).read_bytes())
    verdict = verify_certificate(G, cert)
    if args.format == "json":
        _emit({"ok": verdict.ok, "order": certificate_order(cert),
               "violations": [{"kind": v.kind, "message": v.message}
                              for v in verdict.violations]})
        return 0 if verdict.ok else 1
    if verdict.ok:
        print(f"PASS: certificate of order {certificate_order(cert)} verifies")
        return 0
    print(f"FAIL: {len(verdict.violations)} violation(s)")
    for v in verdict.violations:
        print(f"  {v}")
    return 1


# --- props --------------------------------------------------------------------


def cmd_props(args) -> int:
    if args.prop == "avoidance":
        est = props_mod.estimate_avoidance_probability(
            _read_pairs(args.pairs) if args.pairs else [], ell=args.ell,
            trials=args.trials, seed=args.seed)
        _emit({"estimate": est.estimate, "ci99": [est.lower, est.upper],
               "trials": est.trials}, args.format)
        return 0
    G = _load_lift(args.input)
    if args.prop == "joined":
        verdict = props_mod.check_joined(G, m=args.m, mode=args.mode,
                                         trials=args.trials, seed=args.seed)
        out = {"holds": verdict.holds, "mode": verdict.mode, "trials": verdict.trials}
        if verdict.witness is not None:
            out["witness"] = [sorted(map(tuple, side)) for side in verdict.witness]
        _emit(out, args.format)
        return 0 if verdict.holds else 1
    if args.prop == "expansion":
        V = _parse_vertex_list(args.v_file) if args.v_file else list(G.vertex_ids())
        sizes = [int(s) for s in args.sizes.split(",")]
        report = props_mod.check_expansion_into(G, V, epsilon=args.epsilon,
                                                set_sizes=sizes, trials=args.trials,
                                                seed=args.seed)
        out = {"epsilon": report.epsilon, "tested_sets": report.tested_sets,
               "worst_ratio": report.worst_ratio}
        if report.violating_set is not None:
            out["violating_set"] = sorted(map(tuple, report.violating_set))
        _emit(out, args.format)
        return 0 if report.violating_set is None else 1
    # cross-matching: the last of the parser's fixed choices
    data = json.loads(Path(args.transversals).read_text())
    if not isinstance(data, list):
        raise SideFileError(f"{args.transversals} must be an array of transversals")
    transversals = [[G.flat_id(v) for v in _int_pairs(T, f"{args.transversals}[{k}]")]
                    for k, T in enumerate(data)]
    M = props_mod.find_cross_matching(G, transversals)
    total = math.comb(len(transversals), 2)
    _emit({
        "covered_pairs": sorted(M.covered_pairs),
        "covered": len(M.covered_pairs),
        "uncovered": total - len(M.covered_pairs),
        "edges": sorted([list(G.vertex_at(u)), list(G.vertex_at(w))] for u, w in M.edges),
    }, args.format)
    return 0


# --- oracle -------------------------------------------------------------------


def cmd_oracle(args) -> int:
    budget = exact_mod.OracleBudget(max_nodes=args.max_nodes,
                                    max_states=args.max_states,
                                    time_limit=args.time_limit)
    if args.op == "hajos":
        H = _load_graph_any(args.input)
        res = exact_mod.exact_hajos_number(H, budget)
        _emit({"hajos": res.best, "exact": res.exact, "upper": res.upper,
               "states": res.states}, args.format)
        return 0
    if args.op == "nonexistence":
        H = _load_graph_any(args.input)
        verdict = exact_mod.subdivision_nonexistence_by_counting(H, args.b, budget)
        _emit(asdict(verdict), args.format)
        return 0 if not verdict.no_subdivision else 1
    if args.op == "property-p":
        G = _load_lift(args.input)
        if args.x_file:
            X = _parse_vertex_list(args.x_file)
            holds = exact_mod.check_property_P(G, X)
            _emit({"holds": holds}, args.format)
            return 0 if holds else 1
        res = exact_mod.search_property_P_violator(G, budget, seed=args.seed)
        out = {"exhaustive": res.exhaustive, "examined": res.examined,
               "violator_found": res.violator is not None}
        if res.violator is not None:
            out["violator"] = sorted(map(tuple, res.violator))
        _emit(out, args.format)
        return 1 if res.violator is not None else 0
    # avoidance-exact: the last of the parser's fixed choices
    value = exact_mod.exact_avoidance_probability(
        _read_pairs(args.pairs) if args.pairs else [], ell=args.ell)
    _emit({"probability": str(value), "float": float(value)}, args.format)
    return 0


# --- sweep --------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...]
    ell_for: dict[int, tuple[int, ...]]
    trials: int
    epsilon: float
    seed: int
    builder: str
    output: str
    cert_dir: Optional[str]
    workers: int
    time_budget: Optional[float]
    attempts: int = 3

    def __post_init__(self):
        # checked here, before run_sweep opens the output file; BuildConfig
        # checks --epsilon, --seed and --attempts as the trials' configs will
        if self.trials < 1:
            raise ValueError("--trials must be >= 1")
        try:
            BuildConfig(epsilon=self.epsilon, seed=self.seed, attempts=self.attempts)
        except ValueError as exc:
            raise ValueError(f"--{exc}") from None
        if self.workers < 1:
            raise ValueError(f"--workers (or {WORKERS_ENV}) must be >= 1")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("--time-budget must be > 0")
        # a budget would cut the serial run at a timing-dependent trial, while
        # the parallel run has already submitted every trial: refuse rather
        # than let the flag mean different things in the two modes
        if self.time_budget is not None and self.workers > 1:
            raise ValueError("--time-budget cannot be combined with --workers > 1")
        # the grid, as complete_base, sample_uniform_lift and the builders
        # would check it in every trial
        for n, ell in self.cells():
            if n < 1:
                raise ValueError(f"--n-list values must be >= 1, got {n}")
            if ell < 1:
                raise ValueError(f"--ell-list values must be >= 1, got {ell}")
            # at ell = 1, --builder auto picks the small builder
            if ell < 2 and self.builder != "large":
                raise ValueError(f"--builder {self.builder} needs every ell >= 2, got {ell}")

    def cells(self) -> list[tuple[int, int]]:
        return [(n, ell) for n in self.n_values for ell in self.ell_for[n]]


SWEEP_COLUMNS = ["n", "ell", "trial", "seed", "builder", "success",
                 "achieved_order", "target_order", "runtime_ms", "vertices_used"]


def _trial_seed(seed: int, n: int, ell: int, trial: int) -> int:
    return int(np.random.SeedSequence((seed, n, ell, trial)).generate_state(1, np.uint64)[0])


def _sweep_trial(task: tuple) -> tuple:
    (n, ell, trial, builder, epsilon, seed, attempts) = task
    t0 = time.perf_counter()
    lift_seed = _trial_seed(seed, n, ell, trial)
    G = sample_uniform_lift(complete_base(n), ell, lift_seed)
    cfg = BuildConfig(epsilon=epsilon, seed=lift_seed, attempts=attempts)
    name, outcome = _run_builder(G, builder, cfg)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    tgt = target_order(n, ell) if ell >= 2 else float("nan")
    if outcome.ok:
        cert_bytes = serialize_certificate(outcome.certificate)
        achieved = certificate_order(outcome.certificate)
        vertices = outcome.stats.vertices_used
    else:
        cert_bytes = b""
        achieved = 0
        vertices = 0
    row = {
        "n": n, "ell": ell, "trial": trial, "seed": lift_seed, "builder": name,
        "success": int(outcome.ok), "achieved_order": achieved,
        "target_order": f"{tgt:.6f}" if math.isfinite(tgt) else "",
        "runtime_ms": f"{runtime_ms:.3f}", "vertices_used": vertices,
    }
    return row, cert_bytes


def run_sweep(cfg: SweepConfig) -> list[dict]:
    tasks = [(n, ell, t, cfg.builder, cfg.epsilon, cfg.seed, cfg.attempts)
             for n, ell in cfg.cells() for t in range(cfg.trials)]
    rows: list[dict] = []
    out_path = Path(cfg.output)
    cert_dir = Path(cfg.cert_dir) if cfg.cert_dir else None
    if cert_dir:
        cert_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()

    def write_result(fh, writer, row: dict, cert: bytes) -> None:
        writer.writerow(row)
        fh.flush()
        rows.append(row)
        if cert and cert_dir:
            name = f"cert_n{row['n']}_ell{row['ell']}_trial{row['trial']}.json"
            (cert_dir / name).write_bytes(cert)

    with out_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        fh.flush()
        if cfg.workers == 1:
            for task in tasks:
                if cfg.time_budget is not None and time.monotonic() - started > cfg.time_budget:
                    print("time budget exceeded; stopping early", file=sys.stderr)
                    break
                row, cert = _sweep_trial(task)
                write_result(fh, writer, row, cert)
        else:
            # results are buffered and written in submission order so reruns
            # produce byte-identical files regardless of scheduling
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                futures = [pool.submit(_sweep_trial, task) for task in tasks]
                for fut in futures:
                    row, cert = fut.result()
                    write_result(fh, writer, row, cert)
    return rows


def summarize_sweep(rows: Sequence[dict]) -> str:
    cells: dict[tuple[int, int], list[dict]] = {}
    for row in rows:
        cells.setdefault((int(row["n"]), int(row["ell"])), []).append(row)
    lines = []
    for (n, ell), group in sorted(cells.items()):
        succ = [r for r in group if int(r["success"])]
        rate = len(succ) / len(group)
        achieved = sorted(int(r["achieved_order"]) for r in succ)
        median = achieved[len(achieved) // 2] if achieved else 0
        tgt = target_order(n, ell) if ell >= 2 else float("nan")
        ratio = median / tgt if achieved and math.isfinite(tgt) and tgt > 0 else 0.0
        lines.append(f"cell n={n} ell={ell}: success {len(succ)}/{len(group)}"
                     f" ({rate:.2f}), median achieved {median}"
                     f" (achieved/target {ratio:.3f})")
    return "\n".join(lines)


def cmd_sweep(args) -> int:
    n_values = tuple(int(x) for x in args.n_list.split(","))
    ell_for: dict[int, tuple[int, ...]] = {}
    if args.ell_list:
        ells = tuple(int(x) for x in args.ell_list.split(","))
        ell_for = {n: ells for n in n_values}
    elif args.ratio_list:
        ratios = [float(x) for x in args.ratio_list.split(",")]
        # checked with the grid, before the output file is opened
        for r in ratios:
            if not (math.isfinite(r) and r > 0):
                raise ValueError(f"--ratio-list values must be finite numbers > 0, got {r}")
        ell_for = {n: tuple(max(2, math.ceil(r * n)) for r in ratios) for n in n_values}
    else:
        raise ValueError("one of --ell-list / --ratio-list is required")
    workers = args.workers or int(os.environ.get(WORKERS_ENV, "1"))
    cfg = SweepConfig(n_values=n_values, ell_for=ell_for, trials=args.trials,
                      epsilon=args.epsilon, seed=args.seed, builder=args.builder,
                      output=args.output, cert_dir=args.cert_dir, workers=workers,
                      time_budget=args.time_budget, attempts=args.attempts)
    rows = run_sweep(cfg)
    print(summarize_sweep(rows))
    return 0


# --- parser -------------------------------------------------------------------


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liftsub",
                                     description="random lifts and clique subdivisions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a uniform random lift of K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("build", help="build a clique subdivision in a lift")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--builder", choices=["large", "small", "auto"], default="auto")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=3)
    p.add_argument("--paper-constants", action="store_true")
    p.add_argument("--D", dest="big_d", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify a subdivision certificate")
    p.add_argument("--graph", "-g", required=True)
    p.add_argument("--cert", "-c", required=True)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("props", help="pseudorandomness property checks")
    ps = p.add_subparsers(dest="prop", required=True)
    q = ps.add_parser("joined")
    q.add_argument("--input", "-i", required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--mode", choices=["exhaustive", "sampled"], default="sampled")
    q.add_argument("--trials", type=int, default=1000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--format", choices=["json", "text"], default="json")
    q = ps.add_parser("expansion")
    q.add_argument("--input", "-i", required=True)
    q.add_argument("--epsilon", type=float, required=True)
    q.add_argument("--sizes", default="1")
    q.add_argument("--trials", type=int, default=1000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--v-file", default=None)
    q.add_argument("--format", choices=["json", "text"], default="json")
    q = ps.add_parser("cross-matching")
    q.add_argument("--input", "-i", required=True)
    q.add_argument("--transversals", required=True)
    q.add_argument("--format", choices=["json", "text"], default="json")
    q = ps.add_parser("avoidance")
    q.add_argument("--ell", type=int, required=True)
    q.add_argument("--pairs", default=None)
    q.add_argument("--trials", type=int, default=10000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("oracle", help="exact brute-force references")
    po = p.add_subparsers(dest="op", required=True)
    for name in ("hajos", "nonexistence", "property-p", "avoidance-exact"):
        q = po.add_parser(name)
        q.add_argument("--format", choices=["json", "text"], default="json")
        q.add_argument("--max-nodes", type=int, default=24)
        q.add_argument("--max-states", type=int, default=100_000_000)
        q.add_argument("--time-limit", type=float, default=60.0)
        q.add_argument("--seed", type=int, default=0)
        if name in ("hajos", "nonexistence", "property-p"):
            q.add_argument("--input", "-i", required=True)
        if name == "nonexistence":
            q.add_argument("--b", type=int, required=True)
        if name == "property-p":
            q.add_argument("--x-file", default=None)
        if name == "avoidance-exact":
            q.add_argument("--ell", type=int, required=True)
            q.add_argument("--pairs", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="grid experiment with CSV output")
    p.add_argument("--n-list", required=True)
    p.add_argument("--ell-list", default=None)
    p.add_argument("--ratio-list", default=None)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--builder", choices=["large", "small", "auto"], default="auto")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--cert-dir", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--attempts", type=int, default=3)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        # ValueError covers the typed parse errors (LiftFormatError,
        # CertificateFormatError, SideFileError) and JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
