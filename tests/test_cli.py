"""Command-line surface: exit codes, file formats, sweep reproducibility."""

import csv
import json

import pytest

from liftsub.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def lift_file(tmp_path):
    path = tmp_path / "lift.json"
    assert run(["sample", "--n", 8, "--ell", 16, "--seed", 5, "-o", path]) == 0
    return path


def test_sample_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["sample", "--n", 6, "--ell", 9, "--seed", 3, "-o", a]) == 0
    assert run(["sample", "--n", 6, "--ell", 9, "--seed", 3, "-o", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_verify_roundtrip(tmp_path, lift_file):
    cert = tmp_path / "cert.json"
    assert run(["build", "-i", lift_file, "--builder", "large",
                "--epsilon", 0.5, "--seed", 1, "-o", cert]) == 0
    assert run(["verify", "-g", lift_file, "-c", cert]) == 0


def test_verify_corrupted_exits_one(tmp_path, lift_file, capsys):
    cert = tmp_path / "cert.json"
    run(["build", "-i", lift_file, "--builder", "large",
         "--epsilon", 0.5, "--seed", 1, "-o", cert])
    obj = json.loads(cert.read_text())
    obj["branch"][1] = obj["branch"][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(["verify", "-g", lift_file, "-c", bad]) == 1
    out = capsys.readouterr().out
    assert "branch-collision" in out


def test_usage_error_exits_two(tmp_path, lift_file, capsys):
    assert run(["sample", "--n", 4]) == 2  # missing --ell
    assert run(["no-such-command"]) == 2
    # usage errors found after parsing exit 2 as well, not through SystemExit
    out = tmp_path / "sweep.csv"
    sweep = ["sweep", "--n-list", 5, "-o", out]
    assert run(sweep + ["--ell-list", 6, "--trials", 0]) == 2
    assert "--trials" in capsys.readouterr().err
    assert run(sweep) == 2  # neither --ell-list nor --ratio-list
    assert "--ell-list" in capsys.readouterr().err
    assert not out.exists()
    assert run(["build", "-i", lift_file, "--D", 5]) == 2  # --D without --m
    assert "--m" in capsys.readouterr().err
    for eps in ("inf", "nan"):  # refused by BuildConfig, not a crash
        assert run(["build", "-i", lift_file, "--builder", "small", "--epsilon", eps]) == 2
        assert "epsilon must be a finite number > 0" in capsys.readouterr().err


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["build", "-i", bad]) == 2
    missing = tmp_path / "nope.json"
    assert run(["verify", "-g", missing, "-c", missing]) == 2


def test_props_joined_cli(lift_file, capsys):
    assert run(["props", "joined", "-i", lift_file, "--m", 40,
                "--mode", "sampled", "--trials", 100, "--seed", 0]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is True


@pytest.mark.parametrize("trials", [0, -3])
def test_props_joined_cli_refuses_non_positive_trials(lift_file, trials):
    assert run(["props", "joined", "-i", lift_file, "--m", 2,
                "--trials", trials]) == 2


def test_props_avoidance_cli(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[i, i] for i in range(3)]))
    assert run(["props", "avoidance", "--ell", 3, "--pairs", pairs,
                "--trials", 5000, "--seed", 0]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ci99"][0] <= 1 / 3 <= out["ci99"][1]
    assert run(["props", "avoidance", "--ell", 3, "-i", tmp_path / "lift.json"]) == 2


def test_oracle_cli(tmp_path, capsys):
    edges = tmp_path / "k5.txt"
    edges.write_text("\n".join(f"{i} {j}" for i in range(5) for j in range(i + 1, 5)))
    assert run(["oracle", "hajos", "-i", edges]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hajos"] == 5 and out["exact"] is True
    assert run(["oracle", "hajos", "-i", edges, "--format", "text"]) == 0
    assert "hajos: 5" in capsys.readouterr().out
    # a NaN deadline would never expire
    assert run(["oracle", "hajos", "-i", edges, "--time-limit", "nan"]) == 2
    assert "budget components must be positive" in capsys.readouterr().err


def test_oracle_nonexistence_on_a_long_lift(tmp_path, capsys):
    # 1,500 vertices: deeper than Python's recursion limit if the b-subset
    # search recursed once per vertex
    lift = tmp_path / "k2.json"
    assert run(["sample", "--n", 2, "--ell", 750, "--seed", 0, "-o", lift]) == 0
    assert run(["oracle", "nonexistence", "-i", lift, "--b", 1200, "--max-states", 5000]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exact"] is False and out["no_subdivision"] is False


def test_verify_json_format(tmp_path, lift_file, capsys):
    cert = tmp_path / "cert.json"
    run(["build", "-i", lift_file, "--builder", "large",
         "--epsilon", 0.5, "--seed", 1, "-o", cert])
    capsys.readouterr()
    assert run(["verify", "-g", lift_file, "-c", cert, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["violations"] == []


def test_oracle_avoidance_exact_cli(tmp_path, capsys):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[i, i] for i in range(3)]))
    assert run(["oracle", "avoidance-exact", "--ell", 3, "--pairs", pairs]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["probability"] == "1/3"


def test_sweep_rows_and_reproducibility(tmp_path, capsys):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    certs = tmp_path / "certs"
    args = ["sweep", "--n-list", "8", "--ell-list", "13,16", "--trials", 2,
            "--epsilon", 0.5, "--builder", "large", "--seed", 0]
    assert run(args + ["-o", out1, "--cert-dir", certs]) == 0
    assert run(args + ["-o", out2]) == 0
    strip = lambda p: [
        {k: v for k, v in row.items() if k != "runtime_ms"}
        for row in csv.DictReader(p.open())]
    rows1, rows2 = strip(out1), strip(out2)
    assert rows1 == rows2
    assert len(rows1) == 4
    for row in rows1:
        assert row["success"] in ("0", "1")
        if row["success"] == "1":
            assert int(row["achieved_order"]) <= 8
            cert = certs / f"cert_n{row['n']}_ell{row['ell']}_trial{row['trial']}.json"
            assert cert.exists()
    summary = capsys.readouterr().out
    assert "cell n=8" in summary


def test_sweep_success_certificates_reverify(tmp_path):
    out = tmp_path / "s.csv"
    certs = tmp_path / "certs"
    assert run(["sweep", "--n-list", "8", "--ell-list", "16", "--trials", 2,
                "--epsilon", 0.5, "--builder", "large", "--seed", 1,
                "-o", out, "--cert-dir", certs]) == 0
    rows = list(csv.DictReader(out.open()))
    from liftsub import certificate_from_json, complete_base, sample_uniform_lift, verify_certificate
    for row in rows:
        if row["success"] != "1":
            continue
        G = sample_uniform_lift(complete_base(int(row["n"])), int(row["ell"]),
                                seed=int(row["seed"]))
        cert = certificate_from_json(
            (certs / f"cert_n{row['n']}_ell{row['ell']}_trial{row['trial']}.json").read_bytes())
        assert verify_certificate(G, cert).ok


def test_sweep_ratio_list(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sweep", "--n-list", "8", "--ratio-list", "2.0", "--trials", 1,
                "--epsilon", 0.5, "--builder", "large", "--seed", 0, "-o", out]) == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["ell"] == "16"


def test_sweep_spec_grid(tmp_path, capsys):
    # the documented smoke grid: one n, two ell/n ratios, twenty trials
    out = tmp_path / "grid.csv"
    assert run(["sweep", "--n-list", "30", "--ratio-list", "1.5,2.0",
                "--trials", 20, "--epsilon", 0.5, "--builder", "large",
                "--seed", 0, "-o", out]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 40
    for row in rows:
        assert row["success"] in ("0", "1")
        assert int(row["achieved_order"]) <= 30
    summary = capsys.readouterr().out
    assert summary.count("cell n=30") == 2


def test_auto_builder_middle_band(tmp_path, capsys):
    # between the regimes the auto builder tries both pipelines
    lift = tmp_path / "lift.json"
    run(["sample", "--n", 12, "--ell", 8, "--seed", 2, "-o", lift])
    capsys.readouterr()
    code = run(["build", "-i", lift, "--builder", "auto", "--epsilon", 0.2,
                "--seed", 2])
    out = json.loads(capsys.readouterr().out)
    assert out["builder"] in ("large", "small")
    assert code in (0, 1)


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    serial, parallel = tmp_path / "serial.csv", tmp_path / "par.csv"
    args = ["sweep", "--n-list", "7", "--ell-list", "12,14", "--trials", 2,
            "--epsilon", 0.5, "--builder", "large", "--seed", 4]
    assert run(args + ["-o", serial, "--workers", 1]) == 0
    monkeypatch.setenv("LIFTSUB_WORKERS", "2")
    assert run(args + ["-o", parallel]) == 0  # workers from the environment
    strip = lambda p: [
        {k: v for k, v in row.items() if k != "runtime_ms"}
        for row in csv.DictReader(p.open())]
    assert strip(serial) == strip(parallel)


def test_props_expansion_cli(tmp_path, capsys):
    lift = tmp_path / "lift.json"
    run(["sample", "--n", 9, "--ell", 9, "--seed", 2, "-o", lift])
    assert run(["props", "expansion", "-i", lift, "--epsilon", str(1 / 9),
                "--sizes", "1,2", "--trials", 50, "--seed", 0]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tested_sets"] == 81 + 50


def test_props_expansion_cli_refuses_zero_trials(tmp_path, capsys):
    lift = tmp_path / "lift.json"
    run(["sample", "--n", 9, "--ell", 9, "--seed", 2, "-o", lift])
    assert run(["props", "expansion", "-i", lift, "--epsilon", 0.05,
                "--sizes", 2, "--trials", 0]) == 2
    assert capsys.readouterr().out == ""


def test_props_cross_matching_cli(tmp_path, capsys):
    lift = tmp_path / "lift.json"
    run(["sample", "--n", 6, "--ell", 8, "--seed", 3, "-o", lift])
    tfile = tmp_path / "transversals.json"
    tfile.write_text(json.dumps([[[f, t] for f in range(6)] for t in range(3)]))
    assert run(["props", "cross-matching", "-i", lift, "--transversals", tfile]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["covered"] + out["uncovered"] == 3


def test_sweep_refuses_time_budget_in_parallel(tmp_path, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("liftsub.cli.ProcessPoolExecutor", no_pool)
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--n-list", "7", "--ell-list", "12", "--trials", 1,
            "--builder", "large", "--time-budget", 60, "-o", out]
    assert run(args + ["--workers", 2]) == 2
    assert "--time-budget" in capsys.readouterr().err
    monkeypatch.setenv("LIFTSUB_WORKERS", "2")
    assert run(args) == 2  # workers from the environment
    assert not out.exists()


@pytest.mark.parametrize("flag", ["v-file", "x-file", "transversals", "props-pairs",
                                  "oracle-pairs"])
def test_side_files_accept_only_int_pairs(tmp_path, capsys, flag):
    lift = tmp_path / "lift.json"
    assert run(["sample", "--n", 4, "--ell", 3, "--seed", 0, "-o", lift]) == 0
    side = tmp_path / "side.json"
    argv = {
        "v-file": ["props", "expansion", "-i", lift, "--epsilon", 0.1, "--v-file", side],
        "x-file": ["oracle", "property-p", "-i", lift, "--x-file", side],
        "transversals": ["props", "cross-matching", "-i", lift, "--transversals", side],
        "props-pairs": ["props", "avoidance", "--ell", 3, "--pairs", side],
        "oracle-pairs": ["oracle", "avoidance-exact", "--ell", 3, "--pairs", side],
    }[flag]
    good = {
        "v-file": [[f, a] for f in range(4) for a in range(3)],
        "x-file": [[f, 0] for f in range(4)],
        "transversals": [[[f, t] for f in range(4)] for t in range(3)],
    }.get(flag, [[0, 1], [1, 2], [2, 0]])
    side.write_text(json.dumps(good))
    assert run(argv) in (0, 1)  # a well-formed file gets an answer
    capsys.readouterr()
    bad_inputs = [[0, 1], [[1.7, 2]], [[True, 1]], [[0, True]], [[0, 1, 2]], [["0", "1"]],
                  [[0, None]], {"0": 1}, 5, None]
    if flag == "transversals":
        bad_inputs += [[bad] for bad in bad_inputs] + [good + [[0, 1]]]
    for bad in bad_inputs:
        side.write_text(json.dumps(bad))
        assert run(argv) == 2, bad
        assert "error:" in capsys.readouterr().err


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


@pytest.mark.parametrize("flag, value", [("--attempts", 0), ("--workers", -3),
                                         ("--time-budget", -1), ("--epsilon", 0),
                                         ("--epsilon", "inf")])
def test_sweep_rejects_bad_values_before_writing(tmp_path, monkeypatch, capsys, flag, value):
    monkeypatch.setattr("liftsub.cli.ProcessPoolExecutor", _no_pool)
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--n-list", "7", "--ell-list", "12", "--trials", 1,
                "--builder", "large", flag, value, "-o", out]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, flag", [
    (["--n-list", 5, "--ell-list", 0], "--ell-list"),
    (["--n-list", 0, "--ell-list", 3], "--n-list"),
    (["--n-list", 5, "--ell-list", 1, "--builder", "small"], "--builder"),
    (["--n-list", 5, "--ratio-list", "inf"], "--ratio-list"),
    (["--n-list", 5, "--ratio-list", "1.5,nan"], "--ratio-list"),
    (["--n-list", 5, "--ratio-list", 0], "--ratio-list"),
    (["--n-list", 5, "--ratio-list", -1], "--ratio-list"),
], ids=["ell-zero", "n-zero", "small-builder-ell-one", "ratio-inf", "ratio-nan",
        "ratio-zero", "ratio-negative"])
def test_sweep_rejects_bad_grid_before_writing(tmp_path, capsys, grid, flag):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", *grid, "--trials", 1, "-o", out]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()
