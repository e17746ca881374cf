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
        "b4d0eb388d0a35df8224787fc80c2afd8f9e63a397344ccd6fee081b035a896c",
        {"builder": "small", "direct_edges": 112, "length2_paths": 239, "connector_paths": 0,
         "pruned_branch": 0, "vertices_used": 266, "attempts_used": 1,
         "max_connector_len": 0, "target": 32.863353450309965, "achieved": 27}),
    # the input of test_small_builder_star_stage_exercised: stars and routing run
    "small-stars-K64-ell5-seed3": (
        build_small_ell, 64, 5, 3,
        BuildConfig(epsilon=0.1, seed=3, prune_divisor=2.0, star_divisor=2.0),
        "28f71678917a4cfac42a12260ad9795ab3cb2c48dde593cdc61793accc0cf008",
        {"builder": "small", "direct_edges": 39, "length2_paths": 168, "connector_paths": 3,
         "pruned_branch": 2, "vertices_used": 197, "attempts_used": 1,
         "max_connector_len": 2, "target": 28.284271247461902, "achieved": 21}),
    # the first attempt prunes below the floor; the seeded second attempt
    # draws random branch fibers and layers and succeeds
    "small-retry-K64-ell5-seed5": (
        build_small_ell, 64, 5, 5, BuildConfig(epsilon=0.1, seed=5),
        "8c2931b2d3ae36b89e36a1dd43b92324c50bfac309de1e0e8db04800b9835bd7",
        {"builder": "small", "direct_edges": 11, "length2_paths": 55, "connector_paths": 0,
         "pruned_branch": 11, "vertices_used": 67, "attempts_used": 2,
         "max_connector_len": 0, "target": 28.284271247461902, "achieved": 12}),
    # routing budget 3 (D=29, m=1): lift seed 5 fails once and succeeds on
    # the second attempt, so a seeded retry is covered: its branch fiber and
    # layers and its order of pending pairs come from the build seed, and
    # the search itself is the first attempt's
    "large-K30-ell45-seed5": (
        build_large_ell, 30, 45, 5,
        BuildConfig(epsilon=0.1, seed=5, params=ExtendabilityParams(D=29, m=1)),
        "c0bc91a9a1abdefe8214b34f2ce5d86910c3dd973ffce8dabe42f7eff65e5d48",
        {"builder": "large", "direct_edges": 402, "length2_paths": 0, "connector_paths": 33,
         "pruned_branch": 0, "vertices_used": 946, "attempts_used": 2,
         "max_connector_len": 3, "target": 30.0, "achieved": 30}),
    # the criterion-5 scale with default parameters: unseeded routes of
    # length at most 3 under a budget of 9
    "large-K48-ell80-seed0": (
        build_large_ell, 48, 80, 0, BuildConfig(epsilon=0.5, seed=0),
        "0fd7af801dd5e21fc2b372a43dd51c04b5a7d069e8160fefc5b525ef3c25e0eb",
        {"builder": "large", "direct_edges": 1045, "length2_paths": 0, "connector_paths": 83,
         "pruned_branch": 0, "vertices_used": 2406, "attempts_used": 1,
         "max_connector_len": 3, "target": 48.0, "achieved": 48}),
    # paper constants at ell > gamma^3 n^2 / 48: no cross-matching, so every
    # pair is routed
    "large-K30-ell45-paper": (
        build_large_ell, 30, 45, 5, BuildConfig(epsilon=0.5, seed=5, paper_constants=True),
        "4cd092960a972b5c03f49e0fc2aaabfd7e85729c1b8b3cdc17650815cc95cde0",
        {"builder": "large", "direct_edges": 0, "length2_paths": 0, "connector_paths": 435,
         "pruned_branch": 0, "vertices_used": 979, "attempts_used": 1,
         "max_connector_len": 4, "target": 30.0, "achieved": 30}),
}


@pytest.mark.parametrize("case", CASES)
def test_build_output_is_pinned(case):
    build, n, ell, seed, cfg, cert_sha256, stats = CASES[case]
    out = build(sample_uniform_lift(complete_base(n), ell, seed), cfg)
    assert out.ok
    assert asdict(out.stats) == stats
    assert hashlib.sha256(serialize_certificate(out.certificate)).hexdigest() == cert_sha256
