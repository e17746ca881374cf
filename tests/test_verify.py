"""Certificate verification: passing certificates and typed violations."""

import pytest

from corruptions import CLASSES, EXPECTED_KIND, corrupt
from liftsub import (BuildConfig, SubdivisionCertificate, Verdict, VertexId, build_large_ell,
                     build_small_ell, certificate_from_json, certificate_order,
                     certificate_vertex_count, complete_base, sample_uniform_lift,
                     serialize_certificate, verify, verify_certificate)
from liftsub.lifts import BaseGraph, derive_rng
from liftsub.verify import (BRANCH_COLLISION, CertificateFormatError, ENDPOINT_MISMATCH,
                            INTERNAL_HITS_BRANCH, MALFORMED_PATH, MISSING_EDGE,
                            MISSING_PAIR, OUT_OF_RANGE, REUSED_INTERNAL, UNKNOWN_PAIR)


def k4_certificate():
    """K_4 as a 1-lift: the clique is its own subdivision."""
    G = sample_uniform_lift(complete_base(4), 1, seed=0)
    branch = tuple(VertexId(f, 0) for f in range(4))
    paths = {(i, j): (branch[i], branch[j]) for i in range(4) for j in range(i + 1, 4)}
    return G, SubdivisionCertificate(branch=branch, paths=paths)


def test_clique_is_its_own_subdivision():
    G, cert = k4_certificate()
    verdict = verify_certificate(G, cert)
    assert verdict.ok and not verdict.violations
    assert certificate_order(cert) == 4
    assert certificate_vertex_count(cert) == 4


def test_shared_internal_vertex_detected():
    n, ell = 5, 10
    G = sample_uniform_lift(complete_base(n), ell, seed=1)
    out = build_large_ell(G, BuildConfig(epsilon=0.5, seed=1))
    assert out.ok
    cert = out.certificate
    with_internals = [k for k, p in cert.paths.items() if len(p) > 2]
    assert len(with_internals) >= 2
    k1, k2 = with_internals[:2]
    paths = dict(cert.paths)
    p2 = list(paths[k2])
    p2[1] = paths[k1][1]
    paths[k2] = tuple(p2)
    bad = SubdivisionCertificate(branch=cert.branch, paths=paths)
    verdict = verify_certificate(G, bad)
    assert not verdict.ok
    assert REUSED_INTERNAL in verdict.kinds()


def test_missing_pair_and_unknown_pair():
    G, cert = k4_certificate()
    paths = dict(cert.paths)
    del paths[(0, 1)]
    verdict = verify_certificate(G, SubdivisionCertificate(cert.branch, paths))
    assert MISSING_PAIR in verdict.kinds()
    paths = dict(cert.paths)
    paths[(0, 9)] = (cert.branch[0], cert.branch[1])
    verdict = verify_certificate(G, SubdivisionCertificate(cert.branch, paths))
    assert UNKNOWN_PAIR in verdict.kinds()


def test_branch_collision_detected():
    G, cert = k4_certificate()
    branch = list(cert.branch)
    branch[2] = branch[0]
    verdict = verify_certificate(G, SubdivisionCertificate(tuple(branch), cert.paths))
    assert BRANCH_COLLISION in verdict.kinds()


def test_endpoint_mismatch_detected():
    G, cert = k4_certificate()
    paths = dict(cert.paths)
    paths[(0, 1)] = (cert.branch[0], cert.branch[2])
    verdict = verify_certificate(G, SubdivisionCertificate(cert.branch, paths))
    assert ENDPOINT_MISMATCH in verdict.kinds()


def test_missing_edge_detected():
    G = sample_uniform_lift(complete_base(3), 4, seed=3)
    u = VertexId(0, 0)
    w = VertexId(1, (int(G.matchings[0, 0]) + 1) % 4)  # row 0 is (0, 1); deliberately unmatched
    v = VertexId(2, 0)
    branch = (u, v)
    # force vertex w between u and v regardless of adjacency
    paths = {(0, 1): (u, w, v)}
    verdict = verify_certificate(G, SubdivisionCertificate(branch, paths))
    assert MISSING_EDGE in verdict.kinds()


def test_internal_hits_branch_detected():
    G = sample_uniform_lift(complete_base(4), 1, seed=0)
    branch = tuple(VertexId(f, 0) for f in range(3))
    paths = {(i, j): (branch[i], branch[j]) for i in range(3) for j in range(i + 1, 3)}
    paths[(0, 1)] = (branch[0], branch[2], branch[1])
    verdict = verify_certificate(G, SubdivisionCertificate(branch, paths))
    assert INTERNAL_HITS_BRANCH in verdict.kinds()


def test_malformed_and_out_of_range():
    G, cert = k4_certificate()
    paths = dict(cert.paths)
    paths[(0, 1)] = (cert.branch[0],)
    verdict = verify_certificate(G, SubdivisionCertificate(cert.branch, paths))
    assert MALFORMED_PATH in verdict.kinds()
    paths = dict(cert.paths)
    paths[(0, 1)] = (cert.branch[0], VertexId(9, 9), cert.branch[1])
    verdict = verify_certificate(G, SubdivisionCertificate(cert.branch, paths))
    assert OUT_OF_RANGE in verdict.kinds()


def test_verifier_is_pure():
    G, cert = k4_certificate()
    assert verify_certificate(G, cert) == verify_certificate(G, cert)


def test_random_corruptions_hit_expected_class():
    G = sample_uniform_lift(complete_base(6), 12, seed=2)
    out = build_large_ell(G, BuildConfig(epsilon=0.5, seed=2))
    assert out.ok
    cert = out.certificate
    assert verify_certificate(G, cert).ok
    rng = derive_rng(77)
    for trial in range(40):
        kind = CLASSES[trial % len(CLASSES)]
        bad = corrupt(G, cert, kind, rng)
        assert bad is not None
        verdict = verify_certificate(G, bad)
        assert not verdict.ok
        assert EXPECTED_KIND[kind] in verdict.kinds(), (kind, verdict.violations)


def test_certificate_serialization_roundtrip():
    G = sample_uniform_lift(complete_base(6), 12, seed=4)
    out = build_large_ell(G, BuildConfig(epsilon=0.5, seed=4))
    assert out.ok
    cert = out.certificate
    data = serialize_certificate(cert)
    back = certificate_from_json(data)
    assert back == cert
    assert serialize_certificate(back) == data


def test_certificate_format_errors():
    with pytest.raises(CertificateFormatError):
        certificate_from_json("[]")
    with pytest.raises(CertificateFormatError, match="branch"):
        certificate_from_json('{"paths": {}}')
    with pytest.raises(CertificateFormatError, match="i-j"):
        certificate_from_json('{"branch": [], "paths": {"x": []}}')
    with pytest.raises(CertificateFormatError, match="i < j"):
        certificate_from_json('{"branch": [[0,0]], "paths": {"1-0": []}}')


def test_vertex_count_tracks_path_internals():
    G = sample_uniform_lift(complete_base(3), 5, seed=5)
    u, m, v = VertexId(0, 0), None, None
    for w in map(G.vertex_at, G.flat_adjacency[G.flat_id(u)]):
        for x in map(G.vertex_at, G.flat_adjacency[G.flat_id(w)]):
            if x.fiber != u.fiber and x != u:
                m, v = w, x
                break
        if m:
            break
    cert = SubdivisionCertificate((u, v), {(0, 1): (u, m, v)})
    assert certificate_vertex_count(cert) == 3


@pytest.mark.parametrize("text", [
    '{"branch": [[0,0],[1,0]], "paths": {"00-1": [[0,0],[1,0]]}}',
    '{"branch": [[0,0],[1,0]], "paths": {"0-01": [[0,0],[1,0]]}}',
    '{"branch": [[0,0],[1,0]], "paths": {"٠-١": [[0,0],[1,0]]}}',
    '{"branch": [[0,0],[1,0]], "paths": {"0-1": [[0,0],[1,0]], "00-1": [[0,0],[1,0]]}}',
])
def test_certificate_rejects_non_canonical_keys(text):
    with pytest.raises(CertificateFormatError, match="canonical"):
        certificate_from_json(text)


def test_certificate_rejects_repeated_json_keys():
    with pytest.raises(CertificateFormatError, match="twice"):
        certificate_from_json('{"branch": [[0,0],[1,0]], "paths": {"0-1": [[0,0],[1,0]], '
                              '"0-1": [[0,0],[2,0],[1,0]]}}')


@pytest.mark.parametrize("text", [
    '{"branch": [[false,0],[1,0]], "paths": {"0-1": [[0,0],[1,0]]}}',
    '{"branch": [[0,0],[1,0]], "paths": {"0-1": [[0,0],[1,true]]}}',
])
def test_certificate_rejects_booleans_as_integers(text):
    with pytest.raises(CertificateFormatError, match="integer pair"):
        certificate_from_json(text)


# --- the array-pass accept against the vertex-by-vertex walk ------------------


def built_certificates():
    """Certificates of both builders, stars and routing included."""
    cases = [(build_large_ell, 6, 12, 2, BuildConfig(epsilon=0.5, seed=2)),
             (build_large_ell, 10, 18, 3, BuildConfig(epsilon=0.5, seed=3)),
             (build_small_ell, 120, 3, 9, BuildConfig(epsilon=0.1, seed=9)),
             (build_small_ell, 64, 5, 3, BuildConfig(epsilon=0.1, seed=3, prune_divisor=2.0,
                                                     star_divisor=2.0))]
    for build, n, ell, seed, cfg in cases:
        G = sample_uniform_lift(complete_base(n), ell, seed)
        out = build(G, cfg)
        assert out.ok
        yield G, out.certificate


def test_fast_accept_never_accepts_a_corruption():
    for G, cert in built_certificates():
        assert verify._accepts(G, cert)
        assert verify_certificate(G, cert) == verify._walk(G, cert) == Verdict(True, ())
        rng = derive_rng(len(cert.branch), 5)
        for trial in range(24):
            kind = CLASSES[trial % len(CLASSES)]
            bad = corrupt(G, cert, kind, rng)
            assert bad is not None
            assert not verify._accepts(G, bad), kind
            verdict = verify_certificate(G, bad)
            assert verdict == verify._walk(G, bad)
            assert EXPECTED_KIND[kind] in verdict.kinds()


def test_fast_accept_defers_every_hand_made_fault_to_the_walk():
    G, cert = k4_certificate()
    b0, b1, b2 = cert.branch[:3]
    swaps = [
        {(0, 1): (b0,)},                              # malformed
        {(0, 1): (b0, VertexId(9, 9), b1)},           # out of range
        {(0, 1): (b0, VertexId(2 ** 70, 0), b1)},     # beyond int64
        {(0, 1): (b0, b2)},                           # endpoint mismatch
        {(0, 1): (b0, b2, b1)},                       # internal hits branch
        {(0, 1): (b0, b0, b1)},                       # a step inside one fiber
        {(0, 9): (b0, b1)},                           # unknown pair
    ]
    for swap in swaps:
        bad = SubdivisionCertificate(cert.branch, {**cert.paths, **swap})
        assert not verify._accepts(G, bad), swap
        verdict = verify_certificate(G, bad)
        assert not verdict.ok and verdict == verify._walk(G, bad)
    last_empty = {k: p for k, p in cert.paths.items() if k != (2, 3)} | {(2, 3): ()}
    far = SubdivisionCertificate((VertexId(-1, 0),), {})
    # in this lift of K_3 every matching swaps the layers: were the step
    # (0,1)-(0,0) inside fiber 0 read as an edge, it would pass as one
    G3 = sample_uniform_lift(complete_base(3), 2, seed=0)
    u, v = VertexId(0, 1), VertexId(1, 1)
    in_fiber = SubdivisionCertificate((u, v), {(0, 1): (u, VertexId(0, 0), v)})
    for H, bad, kinds in ((G, SubdivisionCertificate(cert.branch, last_empty), {MALFORMED_PATH}),
                          (G, far, {OUT_OF_RANGE}), (G3, in_fiber, {MISSING_EDGE})):
        assert not verify._accepts(H, bad)
        assert verify_certificate(H, bad) == verify._walk(H, bad)
        assert verify_certificate(H, bad).kinds() == kinds


def test_sparse_base_falls_back_to_the_walk():
    # a lift of the path 0-1-2: the accept handles complete bases only
    G = sample_uniform_lift(BaseGraph(3, ((0, 1), (1, 2))), 3, seed=1)
    u = VertexId(0, 0)
    w = G.vertex_at(G.flat_adjacency[G.flat_id(u)][0])
    x = G.vertex_at(G.flat_adjacency[G.flat_id(w)][1])
    good = SubdivisionCertificate((u, x), {(0, 1): (u, w, x)})
    bad = SubdivisionCertificate((u, x), {(0, 1): (u, x)})  # 0-2 is not a base edge
    for cert, ok in ((good, True), (bad, False)):
        assert not verify._accepts(G, cert)
        verdict = verify_certificate(G, cert)
        assert verdict.ok is ok and verdict == verify._walk(G, cert)
    assert verify_certificate(G, bad).kinds() == {MISSING_EDGE}
