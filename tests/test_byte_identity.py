"""Pinned outputs: for a fixed seed, a build's certificate bytes and stats.

A refactor that keeps behaviour must keep these.  A change that means to
alter the seed -> lift map or a builder's choices updates the pins and says
so in CHANGES.md.
"""

import hashlib
from dataclasses import asdict

import pytest

from liftsub import (BuildConfig, ExtendabilityParams, build_large_ell, build_small_ell,
                     complete_base, sample_uniform_lift, serialize_certificate)

CASES = {
    "small-K120-ell3-seed9": (
        build_small_ell, 120, 3, 9, BuildConfig(epsilon=0.1, seed=9),
        "77ea43c7372acd075a59123846551a567fdfe4fc2c7ebc11db8e2d95285e2a09",
        {"builder": "small", "direct_edges": 104, "length2_paths": 247, "connector_paths": 0,
         "pruned_branch": 0, "vertices_used": 274, "attempts_used": 1,
         "max_connector_len": 0, "target": 32.863353450309965, "achieved": 27}),
    # the input of test_small_builder_star_stage_exercised: stars and routing run
    "small-stars-K64-ell5-seed3": (
        build_small_ell, 64, 5, 3,
        BuildConfig(epsilon=0.1, seed=3, prune_divisor=2.0, star_divisor=2.0),
        "e88772a5caf756d7c27f6f1ba74c141e17f058377dd4212d13e5a0456c556487",
        {"builder": "small", "direct_edges": 49, "length2_paths": 200, "connector_paths": 4,
         "pruned_branch": 0, "vertices_used": 233, "attempts_used": 1,
         "max_connector_len": 2, "target": 28.284271247461902, "achieved": 23}),
    # routing budget 3 (D=29, m=1): lift seed 5 fails twice and succeeds on
    # the third attempt, so the seeded retries are covered
    "large-K30-ell45-seed5": (
        build_large_ell, 30, 45, 5,
        BuildConfig(epsilon=0.1, seed=5, params=ExtendabilityParams(D=29, m=1)),
        "d1c46a26630be25fcb83899b02dc768a426f9983c1954537e3946da688b2851f",
        {"builder": "large", "direct_edges": 397, "length2_paths": 0, "connector_paths": 38,
         "pruned_branch": 0, "vertices_used": 956, "attempts_used": 3,
         "max_connector_len": 3, "target": 30.0, "achieved": 30}),
    # the criterion-5 scale with default parameters: unseeded routes of
    # length 2 to 4 under a budget of 9
    "large-K48-ell80-seed0": (
        build_large_ell, 48, 80, 0, BuildConfig(epsilon=0.5, seed=0),
        "16d922254a9571719d2e6e597c378f04791b2907fafc4bb49916619fe93a373b",
        {"builder": "large", "direct_edges": 1053, "length2_paths": 0, "connector_paths": 75,
         "pruned_branch": 0, "vertices_used": 2399, "attempts_used": 1,
         "max_connector_len": 4, "target": 48.0, "achieved": 48}),
}


@pytest.mark.parametrize("case", CASES)
def test_build_output_is_pinned(case):
    build, n, ell, seed, cfg, cert_sha256, stats = CASES[case]
    out = build(sample_uniform_lift(complete_base(n), ell, seed), cfg)
    assert out.ok
    assert asdict(out.stats) == stats
    assert hashlib.sha256(serialize_certificate(out.certificate)).hexdigest() == cert_sha256
