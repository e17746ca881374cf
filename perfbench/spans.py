"""In-memory span tracing of liftsub calls, patched in from outside the package.

A traced run swaps each public liftsub function the workloads reach for a
timing wrapper, at the module attribute through which it is looked up, and
restores the originals afterwards.  `build.py` imports `connect_between_sets`
by name, for example, so its wrapper goes on `liftsub.build`; patching
`liftsub.connect` alone would miss those calls.  Nothing inside the package
changes.

A span is `[name, start, end, parent, instance, attrs]`: `parent` indexes the
enclosing span (-1 for none), `instance` is the id of the workload instance
it belongs to, and `attrs` holds counts recorded at the same boundary.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from contextlib import contextmanager, nullcontext
from functools import wraps

NAME, START, END, PARENT, INSTANCE, ATTRS = range(6)


class Tracer:
    """Collects spans; records nothing while no instance is active."""

    def __init__(self):
        self.spans: list[list] = []
        self.instance: int | None = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.instance, {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ATTRS].update(attrs)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.spans[idx][ATTRS]
        finally:
            self.end(idx)


class NullTracer:
    """Stand-in for untraced runs: spans cost a no-op context manager."""

    instance = None

    def span(self, name: str):
        return nullcontext({})


# --- patch table ----------------------------------------------------------------
#
# (module whose attribute is the lookup site, attribute, span name, counter hook)


def _bytes_out(args, result):
    return {"bytes": len(result)}


def _bytes_in(args, result):
    return {"bytes": len(args[0])}


def _sampled(args, result):
    return {"matchings": len(result.matchings)}


def _cross_matching(args, result):
    return {"covered": len(result.covered_pairs), "pairs": math.comb(len(args[1]), 2)}


def _build(args, result):
    s = result.stats
    return {"ok": result.ok, "attempts": s.attempts_used, "direct": s.direct_edges,
            "length2": s.length2_paths, "connector": s.connector_paths}


def _hajos(args, result):
    return {"states": result.states}


PATCHES = [
    ("liftsub.lifts", "sample_uniform_lift", "lifts.sample", _sampled),
    ("liftsub.cli", "sample_uniform_lift", "lifts.sample", _sampled),
    ("liftsub.cli", "serialize", "lifts.serialize", _bytes_out),
    ("liftsub.cli", "deserialize", "lifts.deserialize", _bytes_in),
    ("liftsub.build", "find_cross_matching", "properties.cross_matching", _cross_matching),
    ("liftsub.build", "connect_between_sets", "connect.route", None),
    ("liftsub.build", "build_large_ell", "build.large", _build),
    ("liftsub.build", "build_small_ell", "build.small", _build),
    ("liftsub.cli", "build_large_ell", "build.large", _build),
    ("liftsub.cli", "build_small_ell", "build.small", _build),
    ("liftsub.build", "verify_certificate", "verify.self_verify", None),
    ("liftsub.cli", "verify_certificate", "verify.check", None),
    ("liftsub.cli", "certificate_from_json", "verify.certificate_parse", _bytes_in),
    ("liftsub.cli", "serialize_certificate", "verify.certificate_serialize", _bytes_out),
    ("liftsub.exact", "exact_hajos_number", "exact.hajos", _hajos),
    ("liftsub.exact", "subdivision_nonexistence_by_counting", "exact.nonexistence", None),
    ("liftsub.exact", "exact_avoidance_probability", "exact.permanent", None),
    ("liftsub.cli", "main", "cli.main", None),
    ("liftsub.cli", "cmd_sample", "cli.sample", None),
    ("liftsub.cli", "cmd_build", "cli.build", None),
    ("liftsub.cli", "cmd_verify", "cli.verify", None),
]


def _wrap(tracer: Tracer, name: str, fn, hook):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.instance is None:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.end(idx, error=type(exc).__name__)
            raise
        tracer.end(idx, **(hook(args, result) if hook else {}))
        return result
    return wrapper


@contextmanager
def patched(tracer: Tracer):
    """Install the timing wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, hook in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def span_cost(calls: int = 20000) -> float:
    """Seconds a timing wrapper adds to one call, measured on a no-op."""
    tracer = Tracer()
    tracer.instance = -1

    def noop():
        return None
    wrapped = _wrap(tracer, "calibration", noop, None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


# --- aggregation ------------------------------------------------------------------

# (metric, unit) in the order of BENCHMARK.json's per_layer list
LAYER_METRICS = [
    ("lifts.sample_s", "s"),
    ("lifts.matchings_sampled", "count"),
    ("lifts.adjacency_s", "s"),
    ("lifts.serialize_s", "s"),
    ("lifts.deserialize_s", "s"),
    ("lifts.bytes_written", "B"),
    ("lifts.bytes_read", "B"),
    ("properties.cross_matching_s", "s"),
    ("properties.cross_matching_covered_ratio", "ratio"),
    ("connect.route_calls", "count"),
    ("connect.route_s", "s"),
    ("connect.route_failures", "count"),
    ("connect.route_success_ratio", "ratio"),
    ("build.self_s", "s"),
    ("build.attempts_used", "count"),
    ("build.retry_ratio", "ratio"),
    ("build.direct_edges", "count"),
    ("build.length2_paths", "count"),
    ("build.connector_paths", "count"),
    ("verify.self_verify_s", "s"),
    ("verify.certificate_parse_s", "s"),
    ("verify.certificate_serialize_s", "s"),
    ("verify.check_s", "s"),
    ("exact.hajos_s", "s"),
    ("exact.hajos_states", "count"),
    ("exact.nonexistence_s", "s"),
    ("exact.permanent_s", "s"),
    ("cli.sample_s", "s"),
    ("cli.build_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.self_s", "s"),
    ("bench.unattributed_s", "s"),
    ("trace.instance_p50_s", "s"),
]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread with strict nesting, so children of one
    parent never overlap and their durations simply add up.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], instance_times: list[float]) -> dict[str, dict]:
    """Per-layer metrics, as means per traced instance unless named a ratio."""
    n = max(len(instance_times), 1)
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_total: dict[str, float] = {}
    attrs: dict[str, dict[str, float]] = {}
    errors: dict[str, int] = {}
    for s, o in zip(spans, own):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + o
        bucket = attrs.setdefault(name, {})
        for key, value in s[ATTRS].items():
            if key == "error":
                errors[name] = errors.get(name, 0) + 1
            else:
                bucket[key] = bucket.get(key, 0) + value

    def per(name: str) -> float:
        return total.get(name, 0.0) / n

    def count(name: str, key: str) -> float:
        return attrs.get(name, {}).get(key, 0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    builds = ("build.large", "build.small")
    build_calls = sum(calls.get(b, 0) for b in builds)
    attempts = sum(attrs.get(b, {}).get("attempts", 0) for b in builds)
    route_calls = calls.get("connect.route", 0)
    route_failures = errors.get("connect.route", 0)
    cross = attrs.get("properties.cross_matching", {})

    def build_count(key: str) -> float:
        return ratio(sum(attrs.get(b, {}).get(key, 0) for b in builds), build_calls)

    values = {
        "lifts.sample_s": per("lifts.sample"),
        "lifts.matchings_sampled": count("lifts.sample", "matchings"),
        "lifts.adjacency_s": per("lifts.adjacency"),
        "lifts.serialize_s": per("lifts.serialize"),
        "lifts.deserialize_s": per("lifts.deserialize"),
        "lifts.bytes_written": count("lifts.serialize", "bytes"),
        "lifts.bytes_read": count("lifts.deserialize", "bytes"),
        "properties.cross_matching_s": per("properties.cross_matching"),
        "properties.cross_matching_covered_ratio": ratio(cross.get("covered", 0),
                                                         cross.get("pairs", 0)),
        "connect.route_calls": route_calls / n,
        "connect.route_s": per("connect.route"),
        "connect.route_failures": route_failures / n,
        "connect.route_success_ratio": ratio(route_calls - route_failures, route_calls),
        "build.self_s": sum(self_total.get(b, 0.0) for b in builds) / n,
        "build.attempts_used": ratio(attempts, build_calls),
        "build.retry_ratio": ratio(attempts - build_calls, attempts),
        "build.direct_edges": build_count("direct"),
        "build.length2_paths": build_count("length2"),
        "build.connector_paths": build_count("connector"),
        "verify.self_verify_s": per("verify.self_verify"),
        "verify.certificate_parse_s": per("verify.certificate_parse"),
        "verify.certificate_serialize_s": per("verify.certificate_serialize"),
        "verify.check_s": per("verify.check"),
        "exact.hajos_s": per("exact.hajos"),
        "exact.hajos_states": count("exact.hajos", "states"),
        "exact.nonexistence_s": per("exact.nonexistence"),
        "exact.permanent_s": per("exact.permanent"),
        "cli.sample_s": per("cli.sample"),
        "cli.build_s": per("cli.build"),
        "cli.verify_s": per("cli.verify"),
        "cli.self_s": sum(v for k, v in self_total.items() if k.startswith("cli.")) / n,
        "bench.unattributed_s": self_total.get("instance", 0.0) / n,
        "trace.instance_p50_s": statistics.median(instance_times) if instance_times else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def dominant_layer(spans: list[list]) -> tuple[str, dict[str, float]]:
    """The span name with the largest total self time, and every name's share."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for s, o in zip(spans, own):
        if s[NAME] != "instance":
            by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + o
    whole = sum(e - s for s, e in ((x[START], x[END]) for x in spans if x[NAME] == "instance"))
    shares = {k: v / whole for k, v in sorted(by_name.items(), key=lambda kv: -kv[1])} if whole else {}
    top = max(by_name, key=by_name.get) if by_name else ""
    return top, shares


def instance_counts(spans: list[list]) -> dict[int, dict[str, int]]:
    """Exact per-instance counts that only the trace sees (routing calls)."""
    out: dict[int, dict[str, int]] = {}
    for s in spans:
        if s[NAME] == "connect.route":
            c = out.setdefault(s[INSTANCE], {"route_calls": 0, "route_failures": 0})
            c["route_calls"] += 1
            c["route_failures"] += "error" in s[ATTRS]
    return out
