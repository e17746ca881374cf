"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here.
"""

import csv
import math
import time
from fractions import Fraction
from itertools import combinations, permutations

from scipy.stats import chisquare

from corruptions import CLASSES, EXPECTED_KIND, corrupt
from liftsub import (BuildConfig, OracleBudget, build_large_ell, build_small_ell,
                     certificate_order, complete_base, exact_avoidance_probability,
                     exact_hajos_number, lift_to_simple, check_property_P,
                     sample_uniform_lift, serialize,
                     subdivision_nonexistence_by_counting, target_order,
                     verify_certificate)
from liftsub.cli import main as cli_main
from liftsub.lifts import derive_rng
from liftsub.verify import serialize_certificate


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion} ({name}): {status}{suffix}", flush=True)
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_structural_invariants():
    t0 = time.monotonic()
    grid = [(n, ell) for n in range(2, 11) for ell in range(1, 9)]
    violations = 0
    checked = 0
    i = 0
    while checked < 1000:
        n, ell = grid[i % len(grid)]
        i += 1
        G = sample_uniform_lift(complete_base(n), ell, seed=i)
        checked += 1
        if G.num_vertices != n * ell:
            violations += 1
            continue
        ok = True
        for v, nbrs in enumerate(G.flat_adjacency):
            fibers = [w // ell for w in nbrs]
            if len(nbrs) != n - 1:          # (n-1)-regular
                ok = False
            if v // ell in fibers:          # fibers independent, no loops
                ok = False
            if len(set(fibers)) != len(fibers):  # perfect matchings fiberwise
                ok = False
        if ell == 1:
            flat = {(u, w) for u, ns in enumerate(G.flat_adjacency) for w in ns if u < w}
            if flat != set(G.base.edges):
                ok = False
        if not ok:
            violations += 1
    elapsed = time.monotonic() - t0
    report(1, "structural invariants",
           violations == 0 and checked == 1000 and elapsed < 10.0,
           f"{checked} lifts, {violations} violations, {elapsed:.1f}s")


def test_criterion_2_sampler_uniformity():
    t0 = time.monotonic()
    base = complete_base(2)
    counts: dict[tuple, int] = {}
    for seed in range(60000):
        G = sample_uniform_lift(base, 3, seed=seed)
        p = tuple(G.matchings[0].tolist())  # row 0 is base edge (0, 1)
        counts[p] = counts.get(p, 0) + 1
    elapsed = time.monotonic() - t0
    observed = [counts.get(p, 0) for p in permutations(range(3))]
    result = chisquare(observed)
    report(2, "sampler uniformity",
           result.pvalue >= 0.01 and elapsed < 5.0,
           f"chi2 p={result.pvalue:.4f} over {observed}, {elapsed:.1f}s")


def test_criterion_3_avoidance_bound_and_permanent():
    t0 = time.monotonic()
    rng = derive_rng(2024)
    bound_violations = 0
    for _ in range(200):
        ell = int(rng.integers(3, 9))
        k = int(rng.integers(0, 3 * ell))
        F = {(int(rng.integers(ell)), int(rng.integers(ell))) for _ in range(k)}
        p = exact_avoidance_probability(F, ell)
        if float(p) > math.exp(-len(F) / (2 * ell)) + 1e-12:
            bound_violations += 1
    mismatches = 0
    for ell in range(2, 7):
        for trial in range(8):
            k = int(rng.integers(0, 2 * ell + 1))
            F = {(int(rng.integers(ell)), int(rng.integers(ell))) for _ in range(k)}
            count = sum(1 for perm in permutations(range(ell))
                        if not any((a, perm[a]) in F for a in range(ell)))
            if exact_avoidance_probability(F, ell) != Fraction(count, math.factorial(ell)):
                mismatches += 1
    elapsed = time.monotonic() - t0
    report(3, "avoidance bound + permanent oracle",
           bound_violations == 0 and mismatches == 0 and elapsed < 30.0,
           f"200 bound checks, enumeration cross-check, {elapsed:.1f}s")


def test_criterion_4_verifier_soundness():
    bases = []
    for seed in range(4):
        G = sample_uniform_lift(complete_base(6), 14, seed=seed)
        out = build_large_ell(G, BuildConfig(epsilon=0.5, seed=seed, attempts=5))
        assert out.ok, f"base certificate build failed for seed {seed}"
        assert verify_certificate(G, out.certificate).ok
        bases.append((G, out.certificate))
    rng = derive_rng(4040)
    misclassified = 0
    produced = 0
    while produced < 500:
        kind = CLASSES[produced % len(CLASSES)]
        G, cert = bases[produced % len(bases)]
        bad = corrupt(G, cert, kind, rng)
        assert bad is not None, f"corruption {kind} not applicable"
        produced += 1
        verdict = verify_certificate(G, bad)
        if verdict.ok or EXPECTED_KIND[kind] not in verdict.kinds():
            misclassified += 1
    report(4, "verifier soundness", misclassified == 0,
           f"{produced} corruptions across {len(CLASSES)} classes, "
           f"{misclassified} misclassified")


def test_criterion_5_large_ell_builder():
    t0 = time.monotonic()
    results = {}
    all_returned_verify = True
    for n, ell in [(30, 45), (48, 80)]:
        successes = 0
        for seed in range(20):
            G = sample_uniform_lift(complete_base(n), ell, seed=seed)
            out = build_large_ell(G, BuildConfig(epsilon=0.5, seed=seed))
            if out.ok:
                verdict = verify_certificate(G, out.certificate)
                if not (verdict.ok and certificate_order(out.certificate) == n):
                    all_returned_verify = False
                else:
                    successes += 1
        results[(n, ell)] = successes
    elapsed = time.monotonic() - t0
    ok = (all(v >= 18 for v in results.values()) and all_returned_verify
          and elapsed < 300.0)
    report(5, "large-ell builder", ok,
           f"successes {results}, all returned certificates verify: "
           f"{all_returned_verify}, {elapsed:.0f}s")


def test_criterion_6_small_ell_builder():
    t0 = time.monotonic()
    medians = []
    all_verify = True
    detail = []
    for ell in (2, 3, 4):
        achieved = []
        for seed in range(10):
            G = sample_uniform_lift(complete_base(400), ell, seed=seed)
            out = build_small_ell(G, BuildConfig(epsilon=0.1, seed=seed))
            if out.ok:
                verdict = verify_certificate(G, out.certificate)
                if not verdict.ok:
                    all_verify = False
                achieved.append(certificate_order(out.certificate))
            else:
                achieved.append(0)
        achieved.sort()
        med = achieved[len(achieved) // 2]
        medians.append(med)
        detail.append(f"ell={ell}: median {med} (target {target_order(400, ell):.1f})")
    elapsed = time.monotonic() - t0
    monotone = all(a <= b for a, b in zip(medians, medians[1:]))
    nonzero = all(m > 0 for m in medians)
    report(6, "small-ell builder", all_verify and monotone and nonzero,
           "; ".join(detail) + f"; {elapsed:.0f}s")


def test_criterion_7_nonexistence_consistency():
    t0 = time.monotonic()
    shapes = [(2, 10), (3, 6), (4, 5), (2, 8), (3, 5), (4, 4), (2, 6), (3, 4), (4, 3), (2, 4)]
    budget = OracleBudget(max_nodes=24, max_states=5_000_000, time_limit=30.0)
    contradictions = 0
    instances = 0
    conclusive = 0
    for trial in range(50):
        n, ell = shapes[trial % len(shapes)]
        G = sample_uniform_lift(complete_base(n), ell, seed=trial)
        H = lift_to_simple(G)
        instances += 1
        hajos = exact_hajos_number(H, budget)
        assert hajos.exact, f"oracle budget too small at trial {trial}"
        for b in range(2, H.num_vertices + 1):
            verdict = subdivision_nonexistence_by_counting(H, b, budget)
            if verdict.no_subdivision:
                conclusive += 1
                if hajos.best >= b:
                    contradictions += 1
    elapsed = time.monotonic() - t0
    report(7, "nonexistence criterion consistency",
           contradictions == 0 and instances == 50 and elapsed < 600.0,
           f"{instances} lifts, {conclusive} conclusive verdicts, "
           f"{contradictions} contradictions, {elapsed:.0f}s")


def test_criterion_8_oracle_sanity():
    from liftsub.lifts import BaseGraph

    k5 = BaseGraph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
    c7 = BaseGraph(7, tuple(sorted(tuple(sorted((i, (i + 1) % 7))) for i in range(7))))
    ok = exact_hajos_number(k5).best == 5 and exact_hajos_number(c7).best == 3
    rng = derive_rng(888)
    degree_violations = 0
    for trial in range(100):
        nv = int(rng.integers(4, 10))
        p = float(rng.uniform(0.2, 0.6))
        edges = tuple((i, j) for i in range(nv) for j in range(i + 1, nv)
                      if rng.random() < p)
        H = BaseGraph(nv, edges)
        res = exact_hajos_number(H)
        if not res.exact or res.best > H.max_degree() + 1:
            degree_violations += 1
    monotone_violations = 0
    for trial in range(50):
        nv = 7
        edges = tuple((i, j) for i in range(nv) for j in range(i + 1, nv)
                      if rng.random() < 0.35)
        H = BaseGraph(nv, edges)
        non_edges = [(i, j) for i, j in combinations(range(nv), 2)
                     if not H.has_edge(i, j)]
        if not non_edges:
            continue
        extra = non_edges[int(rng.integers(len(non_edges)))]
        H2 = BaseGraph(nv, tuple(sorted(H.edges + (extra,))))
        if exact_hajos_number(H).best > exact_hajos_number(H2).best:
            monotone_violations += 1
    report(8, "oracle sanity",
           ok and degree_violations == 0 and monotone_violations == 0,
           f"K5/C7 exact, {degree_violations} degree-bound violations, "
           f"{monotone_violations} monotonicity violations")


def test_criterion_9_property_p_agreement():
    def naive(G, X):
        xs = set(X)
        for u in xs:
            for v in xs:
                if u >= v:
                    continue
                common = 0
                for w in G.vertex_ids():
                    if w in xs:
                        continue
                    if G.is_edge(u, w) and G.is_edge(v, w):
                        common += 1
                if common >= 2:
                    return True
        return False

    rng = derive_rng(909)
    disagreements = 0
    for trial in range(100):
        n = int(rng.integers(3, 7))
        ell = int(rng.integers(1, 1 + 30 // n))
        G = sample_uniform_lift(complete_base(n), ell, seed=trial)
        flats = rng.choice(G.num_vertices, size=n, replace=False)
        X = [G.vertex_at(int(f)) for f in flats]
        if check_property_P(G, X) != naive(G, X):
            disagreements += 1
    report(9, "property-(P) checker", disagreements == 0,
           f"100 instances, {disagreements} disagreements")


def test_criterion_10_determinism(tmp_path):
    # lift files
    lift_a = serialize(sample_uniform_lift(complete_base(9), 14, seed=77))
    lift_b = serialize(sample_uniform_lift(complete_base(9), 14, seed=77))
    lifts_ok = lift_a == lift_b
    # certificates
    G = sample_uniform_lift(complete_base(9), 14, seed=77)
    cert_a = serialize_certificate(build_large_ell(G, BuildConfig(epsilon=0.5, seed=7)).certificate)
    cert_b = serialize_certificate(build_large_ell(G, BuildConfig(epsilon=0.5, seed=7)).certificate)
    certs_ok = cert_a == cert_b
    # sweep rows (excluding the timing column)
    rows = []
    for tag in ("x", "y"):
        out = tmp_path / f"{tag}.csv"
        code = cli_main(["sweep", "--n-list", "8", "--ell-list", "13,16",
                         "--trials", "2", "--epsilon", "0.5", "--builder", "large",
                         "--seed", "3", "-o", str(out)])
        assert code == 0
        rows.append([
            {k: v for k, v in row.items() if k != "runtime_ms"}
            for row in csv.DictReader(out.open())])
    sweep_ok = rows[0] == rows[1]
    report(10, "determinism", lifts_ok and certs_ok and sweep_ok,
           f"lifts {lifts_ok}, certificates {certs_ok}, sweep rows {sweep_ok}")
