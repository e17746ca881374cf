"""Both construction pipelines end to end."""

import itertools
import math

import pytest

from liftsub import (BuildConfig, build_large_ell, build_small_ell,
                     certificate_order, certificate_vertex_count, complete_base,
                     connect_between_sets, sample_uniform_lift, target_order,
                     verify_certificate)
from liftsub import build
from liftsub.build import BuildStats
from liftsub.lifts import BaseGraph, derive_rng


def test_target_order_formula():
    assert target_order(100, 2) == pytest.approx(math.sqrt(800))
    assert target_order(100, 4) == pytest.approx(32.660, abs=1e-3)
    # the ell=2 and large-ell limits
    n = 50
    assert target_order(n, 2) == pytest.approx(2 * math.sqrt(2 * n))
    assert target_order(n, 10 ** 6) == pytest.approx(math.sqrt(2 * n * 10 ** 6), rel=1e-5)


def test_target_order_rejects_ell_one():
    with pytest.raises(ValueError):
        target_order(10, 1)


@pytest.mark.parametrize("field", ["prune_divisor", "star_divisor"])
@pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
def test_config_rejects_bad_divisors(field, value):
    # refused up front, not as a ZeroDivisionError, a NaN conversion or a
    # prune of every branch vertex in the middle of a build
    with pytest.raises(ValueError, match=f"{field} must be a finite number > 0"):
        BuildConfig(**{field: value})


@pytest.mark.parametrize("field", ["epsilon", "prune_divisor", "star_divisor"])
@pytest.mark.parametrize("value", [True, False])
def test_config_rejects_bool_numbers(field, value):
    # math.isfinite(True) holds, so without the check True would read as 1.0
    with pytest.raises(ValueError, match=f"{field} must be a finite number > 0"):
        BuildConfig(**{field: value})


def test_large_builder_tiny_instance():
    # a 2-regular lift: succeeds whenever the chosen branch layers line up on
    # one cycle; seeded retries find such a choice for this instance
    G = sample_uniform_lift(complete_base(3), 8, seed=0)
    out = build_large_ell(G, BuildConfig(epsilon=1.0, seed=0, attempts=10))
    assert out.ok
    assert certificate_order(out.certificate) == 3
    assert verify_certificate(G, out.certificate).ok


def test_large_builder_standard_instance():
    G = sample_uniform_lift(complete_base(10), 18, seed=3)
    out = build_large_ell(G, BuildConfig(epsilon=0.5, seed=3))
    assert out.ok
    cert = out.certificate
    assert verify_certificate(G, cert).ok
    assert certificate_order(cert) == 10
    # all branch vertices in a single fiber
    assert len({v.fiber for v in cert.branch}) == 1
    # stats reconcile with the certificate
    assert out.stats.vertices_used == certificate_vertex_count(cert)
    assert out.stats.direct_edges + out.stats.connector_paths == math.comb(10, 2)
    # branch plus distinct path internals account for every vertex
    internal_total = sum(len(p) - 2 for p in cert.paths.values())
    assert certificate_vertex_count(cert) == 10 + internal_total
    assert certificate_vertex_count(cert) <= 10 * 18


def test_large_builder_connector_paths_within_budget():
    G = sample_uniform_lift(complete_base(12), 20, seed=5)
    cfg = BuildConfig(epsilon=0.5, seed=5)
    out = build_large_ell(G, cfg)
    assert out.ok
    from liftsub.build import default_extendability_params
    from liftsub.connect import default_max_len
    budget = default_max_len(default_extendability_params(12, 20))
    assert out.stats.max_connector_len <= budget
    # certificate paths add the two branch hops around each routed path
    longest = max(len(p) - 1 for p in out.certificate.paths.values())
    assert longest <= budget + 2


def test_large_builder_routes_through_the_module_level_name(monkeypatch):
    # the builder looks connect_between_sets up in liftsub.build at each
    # call, so a wrapper installed there (as a tracer would) sees every route
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return connect_between_sets(*args, **kwargs)
    monkeypatch.setattr(build, "connect_between_sets", counting)
    G = sample_uniform_lift(complete_base(48), 80, 0)
    out = build_large_ell(G, BuildConfig(epsilon=0.5, seed=0))
    assert out.ok and out.stats.connector_paths == 83
    assert len(calls) == 83


def test_large_builder_below_threshold_warns():
    G = sample_uniform_lift(complete_base(8), 9, seed=1)
    with pytest.warns(RuntimeWarning, match="off-regime"):
        build_large_ell(G, BuildConfig(epsilon=0.5, seed=1, attempts=1))


def test_large_builder_branch_infeasible():
    G = sample_uniform_lift(complete_base(6), 4, seed=0)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = build_large_ell(G, BuildConfig(epsilon=0.5, seed=0, attempts=1))
    assert not out.ok
    assert out.failure.stage == "branch"


def test_large_builder_honest_failure_on_matching_lift():
    # a lift of K_2 is a perfect matching; removing the branch fiber leaves an
    # edgeless graph, so the pipeline must fail, not fake a certificate
    G = sample_uniform_lift(complete_base(2), 6, seed=0)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = build_large_ell(G, BuildConfig(epsilon=0.5, seed=0, attempts=2))
    assert not out.ok
    assert out.failure.stage == "connector"


def test_large_builder_rejects_non_complete_base():
    path_base = BaseGraph(4, ((0, 1), (1, 2), (2, 3)))
    G = sample_uniform_lift(path_base, 8, seed=0)
    with pytest.raises(ValueError):
        build_large_ell(G)


def test_large_builder_deterministic():
    G = sample_uniform_lift(complete_base(9), 15, seed=7)
    cfg = BuildConfig(epsilon=0.5, seed=7)
    a = build_large_ell(G, cfg)
    b = build_large_ell(G, cfg)
    assert a.ok and b.ok and a.certificate == b.certificate


def test_small_builder_moderate_instance():
    n, ell = 150, 3
    G = sample_uniform_lift(complete_base(n), ell, seed=2)
    out = build_small_ell(G, BuildConfig(epsilon=0.1, seed=2))
    assert out.ok
    cert = out.certificate
    assert verify_certificate(G, cert).ok
    # branch vertices form a partial transversal
    fibers = [v.fiber for v in cert.branch]
    assert len(set(fibers)) == len(fibers)
    assert certificate_order(cert) >= 1
    assert out.stats.vertices_used == certificate_vertex_count(cert)


def test_small_builder_length2_middles_are_fresh():
    G = sample_uniform_lift(complete_base(200), 2, seed=4)
    out = build_small_ell(G, BuildConfig(epsilon=0.1, seed=4))
    assert out.ok
    cert = out.certificate
    branch_set = set(cert.branch)
    middles = [p[1] for p in cert.paths.values() if len(p) == 3]
    assert len(middles) == len(set(middles))  # each middle used exactly once
    assert all(m not in branch_set for m in middles)


def test_small_builder_star_stage_exercised():
    # scarcer common neighbors force the reserved-fiber connector stage
    G = sample_uniform_lift(complete_base(64), 5, seed=3)
    cfg = BuildConfig(epsilon=0.1, seed=3, prune_divisor=2.0, star_divisor=2.0)
    out = build_small_ell(G, cfg)
    assert out.ok
    assert verify_certificate(G, out.certificate).ok
    assert out.stats.connector_paths > 0
    # connector paths run between star leaves in the reserved fibers
    f1_count = math.ceil((1 - cfg.epsilon) * 64)
    for path in out.certificate.paths.values():
        if len(path) > 3:
            for v in path[1:-1]:
                assert v.fiber >= f1_count


def test_small_builder_rejects_ell_one():
    G = sample_uniform_lift(complete_base(10), 1, seed=0)
    with pytest.raises(ValueError):
        build_small_ell(G)


def test_small_builder_deterministic():
    G = sample_uniform_lift(complete_base(120), 3, seed=9)
    cfg = BuildConfig(epsilon=0.1, seed=9)
    a = build_small_ell(G, cfg)
    b = build_small_ell(G, cfg)
    assert a.ok and b.ok and a.certificate == b.certificate


def test_small_builder_branch_infeasible_when_target_exceeds_fibers():
    # ell close to n makes the target order larger than the main fiber block
    G = sample_uniform_lift(complete_base(12), 10, seed=0)
    out = build_small_ell(G, BuildConfig(epsilon=0.1, seed=0, attempts=1))
    assert not out.ok
    assert out.failure.stage == "branch"


def test_small_builder_paper_constants_selectable():
    # the stated constants prune at eps*b/40: at this scale that means no
    # missing connections are tolerated at all
    G = sample_uniform_lift(complete_base(150), 3, seed=5)
    out = build_small_ell(G, BuildConfig(epsilon=0.1, seed=5, paper_constants=True))
    if out.ok:
        assert verify_certificate(G, out.certificate).ok
    else:
        assert out.failure.stage in ("prune", "stars", "connector")


def test_build_outcome_exclusivity():
    from liftsub.build import BuildOutcome, BuildStats
    with pytest.raises(ValueError):
        BuildOutcome(certificate=None, stats=BuildStats(builder="large"), failure=None)


# --- the small builder's stages 2-3 against a scalar reference -----------------


def scalar_rows(G, branch):
    """Each branch vertex's neighbour in every fiber, -1 at its own, read one
    base edge at a time from the matchings, not from the neighbour index."""
    ell, perms = G.ell, G.matchings.tolist()
    rows = []
    for v in branch:
        f, a = divmod(v, ell)
        row = []
        for g in range(G.base.num_vertices):
            if g == f:
                row.append(-1)
            elif f < g:  # layer a of fiber f meets layer perm[a] of fiber g
                row.append(g * ell + perms[G.base.edge_index(f, g)][a])
            else:        # layer perm.index(a) of fiber g meets layer a of f
                row.append(g * ell + perms[G.base.edge_index(g, f)].index(a))
        rows.append(row)
    return rows


def scalar_short_paths(branch, fiber, R, main, stats):
    """Stages 2 and 3 one pair and one entry at a time, with the same
    signature as `build._short_paths`."""
    rows = R.tolist()
    b = len(branch)
    paths = {}
    uncovered = set()
    for i, j in itertools.combinations(range(b), 2):
        if rows[i][fiber[j]] == branch[j]:
            paths[(i, j)] = (branch[i], branch[j])
            stats.direct_edges += 1
        else:
            uncovered.add((i, j))
    branch_set = set(branch)
    candidates = {pair: [x for x, y in zip(rows[pair[0]][:main], rows[pair[1]])
                         if x == y and x not in branch_set] for pair in uncovered}
    pointer = dict.fromkeys(uncovered, 0)
    used_middles = set()
    deficiency = [0] * b
    for i, j in uncovered:
        deficiency[i] += 1
        deficiency[j] += 1

    def next_middle(pair):
        mids, k = candidates[pair], pointer[pair]
        while k < len(mids) and mids[k] in used_middles:
            k += 1
        pointer[pair] = k
        return mids[k] if k < len(mids) else None

    exhausted = set()
    while True:
        pick = None
        for i in range(b):
            if i in exhausted or deficiency[i] == 0:
                continue
            if pick is None or deficiency[i] > deficiency[pick]:
                pick = i
        if pick is None:
            break
        partners = sorted((j for j in range(b) if (min(pick, j), max(pick, j)) in uncovered),
                          key=lambda j: (-deficiency[j], j))
        for j in partners:
            pair = (min(pick, j), max(pick, j))
            mid = next_middle(pair)
            if mid is None:
                continue
            used_middles.add(mid)
            paths[pair] = (branch[pair[0]], mid, branch[pair[1]])
            uncovered.discard(pair)
            deficiency[pair[0]] -= 1
            deficiency[pair[1]] -= 1
            stats.length2_paths += 1
            break
        else:
            exhausted.add(pick)
    return paths, uncovered


@pytest.mark.parametrize("n, ell, seed", [(400, 2, 0), (120, 3, 9), (64, 5, 3), (40, 4, 7),
                                          (30, 2, 5), (12, 3, 1)])
def test_short_paths_match_scalar_reference(n, ell, seed):
    # random branch fibers and layers, as a seeded retry draws them, and the
    # first attempt's fibers 0..b-1 at layer 0
    G = sample_uniform_lift(complete_base(n), ell, seed)
    main = math.ceil(0.9 * n)
    b = min(main, math.ceil(0.8 * target_order(n, ell)))
    rng = derive_rng(seed, 99)
    draws = [list(range(b))] + [sorted(rng.choice(main, size=b, replace=False).tolist())
                                for _ in range(3)]
    for k, fibers in enumerate(draws):
        branch = [f * ell + (0 if k == 0 else int(rng.integers(ell))) for f in fibers]
        R = build._neighbour_matrix(G, branch, fibers)
        assert R.tolist() == scalar_rows(G, branch)
        got, want = BuildStats(builder="small"), BuildStats(builder="small")
        assert (build._short_paths(branch, fibers, R, main, got)
                == scalar_short_paths(branch, fibers, R.copy(), main, want))
        assert got == want


@pytest.mark.parametrize("n, ell, seed, divisor", [
    (120, 3, 9, 4.0),   # first attempt succeeds
    (64, 5, 3, 2.0),    # stars and routing run
    (64, 5, 5, 4.0),    # seeded second attempt succeeds
    (40, 4, 7, 4.0),    # third attempt succeeds
    (40, 4, 0, 2.0),    # every attempt fails at prune
    (30, 3, 0, 4.0),
])
def test_small_builder_matches_scalar_reference(monkeypatch, n, ell, seed, divisor):
    G = sample_uniform_lift(complete_base(n), ell, seed)
    cfg = BuildConfig(epsilon=0.1, seed=seed, prune_divisor=divisor, star_divisor=divisor)
    got = build_small_ell(G, cfg)
    monkeypatch.setattr(build, "_short_paths", scalar_short_paths)
    want = build_small_ell(G, cfg)
    assert (got.certificate, got.stats, got.failure) == (want.certificate, want.stats,
                                                         want.failure)
