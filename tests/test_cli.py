import ast
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from heatkato import cli
from heatkato import geometry as G
from heatkato import heat_kernel as HK
from heatkato import mvi as M
from heatkato import potentials as P
from heatkato import semigroup as SG
from heatkato import stochastics as S
from heatkato.errors import DomainError, ManifestError
from heatkato.reporting import canonical_json


def run_text(text, **kw):
    manifest = cli.parse_manifest_text(text)
    for k, v in kw.items():
        setattr(manifest, k, v)
    return cli.run_manifest(manifest)


def test_parse_error_reports_line():
    with pytest.raises(ManifestError) as err:
        cli.parse_manifest_text("manifold = circle\nbogus = 1\nchecks = kernel-check")
    assert "line 2" in str(err.value)
    with pytest.raises(ManifestError) as err:
        cli.parse_manifest_text("manifold = circle\nchecks = kernel-check\nseed = abc")
    assert "line 3" in str(err.value)


def test_unknown_check_and_param_rejected():
    with pytest.raises(ManifestError):
        cli.parse_manifest_text("manifold = circle\nchecks = a\nparam.nonexistent.x = 1")
    with pytest.raises(ManifestError):
        cli.parse_manifest_text("manifold = circle\nchecks = a\nparam.is-kato.bogus = 1")
    m = cli.parse_manifest_text("manifold = circle\nchecks = made-up-check")
    with pytest.raises(ManifestError):
        cli.validate_manifest(m)


def test_duplicate_key_rejected():
    with pytest.raises(ManifestError) as err:
        cli.parse_manifest_text("manifold = circle\nmanifold = sphere2\nchecks =")
    assert "duplicate" in str(err.value)


def test_empty_check_list_is_valid():
    rep = run_text("manifold = circle\nchecks = ")
    assert rep.all_pass and rep.checks == []


def test_kernel_check_pass_exit_zero(tmp_path):
    out = tmp_path / "rep.json"
    rc = cli.main(["run", _write(tmp_path, f"""
manifold = circle
checks = kernel-check
seed = 5
out = {out}
""")])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["all_pass"] is True
    assert data["checks"][0]["verdict"] == "PASS"
    assert "timestamp" in data


def test_is_kato_fail_exit_one(tmp_path):
    # 1/|y|^2 in Euclidean(3) is not Kato: recorded FAIL, exit code 1
    out = tmp_path / "rep.json"
    rc = cli.main(["run", _write(tmp_path, f"""
manifold = euclidean:3
potential = radialpower:beta=2
checks = is-kato
param.is-kato.n_t = 4
out = {out}
""")])
    assert rc == 1
    data = json.loads(out.read_text())
    assert data["checks"][0]["verdict"] == "FAIL"
    assert data["all_pass"] is False


@pytest.mark.parametrize(
    "argv, reason",
    [(["kernel-check", "--manifold", "hyperbolic3", "--param", "t_values=1000"], "mass_defect is NaN"),
     (["kato-norm", "--manifold", "hyperbolic3", "--param", "t=1000"], "N(t) = nan is not finite")],
    ids=["kernel-check", "kato-norm"],
)
def test_a_nan_statistic_fails_with_its_reason(argv, reason, tmp_path):
    # past t = 1e3 the hyperbolic sphere area overflows and the kernel mass
    # reads NaN; the builtin max once skipped it and both commands PASSed
    out = tmp_path / "rep.json"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(argv + ["--out", str(out)]) == 1
    values = json.loads(out.read_text())["checks"][0]["values"]
    assert values["reasons"] == [reason]


def _nan_on_diagonal_at(i):
    def poison(monkeypatch):
        sweep = HK.on_diag_sweep
        nan_at_i = lambda engine, ts: [(t, math.nan if j == i else d) for j, (t, d) in enumerate(sweep(engine, ts))]
        monkeypatch.setattr(HK, "on_diag_sweep", nan_at_i)
    return poison


def _nan_cylinder_integral(monkeypatch):
    cylinder = M._cylinder_integral
    monkeypatch.setattr(M, "_cylinder_integral", lambda *args: cylinder(*args) * math.nan)


def _nan_eigenvalue(monkeypatch):
    monkeypatch.setattr(M, "_lanczos_ground_energy", lambda *op: (math.nan, 0))


@pytest.mark.parametrize(
    "argv, poison, reasons",
    [(["control-pair", "--manifold", "euclidean:3", "--param", "t_min=0.01", "--param", "n_t=3"],
      _nan_on_diagonal_at(0), ["margin at t=0.01 is NaN"]),
     (["heat-bound", "--manifold", "euclidean:3"], _nan_on_diagonal_at(1), ["C_hat is NaN"]),
     (["fk-verify", "--manifold", "euclidean:3"], _nan_eigenvalue,
      ["margin of set 0, ball(r=1) is NaN", "fd_gap is NaN"]),
     (["mvi-sweep", "--manifold", "euclidean:2"], _nan_cylinder_integral, ["C_emp is NaN"])],
    ids=["control-pair", "heat-bound", "fk-verify", "mvi-sweep"],
)
def test_a_nan_kernel_value_or_eigenvalue_fails_with_its_reason(argv, poison, reasons, monkeypatch, tmp_path):
    # one on-diagonal kernel value or one eigenvalue made NaN: the builtin
    # min and max skipped a NaN that did not come first, and control-pair and
    # heat-bound PASSed
    poison(monkeypatch)
    out = tmp_path / "rep.json"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert json.loads(out.read_text())["checks"][0]["values"]["reasons"] == reasons


def test_is_kato_margin_reads_both_criteria():
    # the decay ratio passes here and the fitted exponent does not: the
    # margin once read the ratio alone and reported a FAIL at +0.3
    rep = run_text("manifold = circle\nchecks = is-kato\nparam.is-kato.gamma_min = 10\n")
    res = rep.checks[0]
    assert not res.passed and res.values["decay_ratio"] < 0.3
    assert res.margin_min == pytest.approx(res.values["gamma"] - 10.0)


def test_pullback_on_a_triple_product_keeps_its_margin():
    # a pullback through one leaf is smoothed on that leaf, so the product
    # reads the circle's margin (its 63^3-node grid once read 0.2899605870051697)
    rep = run_text(
        "manifold = product(product(circle,circle),circle)\n"
        "potential = pullback:1:radialpower:beta=0.5\nchecks = is-kato\n"
    )
    leaf = run_text("manifold = circle\npotential = radialpower:beta=0.5\nchecks = is-kato\n")
    assert rep.checks[0].passed and rep.checks[0].margin_min == leaf.checks[0].margin_min == 0.2905428804017881


def test_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("manifold = circle\nwhat even is this line\n")
    assert cli.main(["run", str(bad)]) == 2
    missing_key = tmp_path / "bad2.txt"
    missing_key.write_text("checks = kernel-check\n")
    assert cli.main(["run", str(missing_key)]) == 2


SIMULATE = ["simulate", "--manifold", "circle", "--t", "0.02", "--h", "0.01", "--n", "3"]


@pytest.mark.parametrize(
    "argv",
    [["run", "no-such-manifest.txt"], ["run", "."], ["run", "not-utf8.txt"],
     SIMULATE + ["--out", "a-file/summary.json"], SIMULATE + ["--dump-paths", "a-file/paths.csv"]],
    ids=["missing-manifest", "manifest-is-a-directory", "manifest-not-utf8", "out-under-a-file",
         "dump-under-a-file"],
)
def test_paths_that_cannot_be_opened_exit_two_with_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-file").write_text("")
    (tmp_path / "not-utf8.txt").write_bytes(b"\xff\xfem\x00a\x00n\x00")  # UTF-16 with its byte-order mark
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["run-battery", "stochastic", "--out", "new/battery.json"], SIMULATE + ["--out", "new/summary.json"],
     SIMULATE + ["--dump-paths", "new/paths.csv"]],
    ids=["run-battery-out", "simulate-out", "simulate-dump-paths"],
)
def test_outputs_in_a_missing_directory_are_written(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert (tmp_path / argv[-1]).stat().st_size > 0


def test_an_output_checked_before_a_refused_manifest_is_not_left_behind(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["kernel-check", "--manifold", "torus:2:nan", "--out", "new/report.json"]) == 2
    assert not (tmp_path / "new" / "report.json").exists()


@pytest.mark.parametrize("rows", ["0", "-1", "many"])
def test_simulate_max_dump_rows_below_one_exits_two(rows, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(SIMULATE + ["--max-dump-rows", rows])
    assert exc.value.code == 2
    assert "--max-dump-rows: must be an integer >= 1" in capsys.readouterr().err


def test_determinism_same_manifest_and_seed():
    text = """
manifold = circle
checks = kernel-check, control-pair
seed = 123
param.control-pair.n_t = 10
"""
    a = run_text(text)
    b = run_text(text)
    assert canonical_json(a) == canonical_json(b)
    c = run_text(text.replace("123", "124"))
    assert json.loads(canonical_json(c))["seed"] == 124


def test_list_batteries_stable_and_idempotent():
    a = cli.list_batteries()
    b = cli.list_batteries()
    assert a == b
    names = a.strip().splitlines()
    assert names == sorted(names)
    assert set(names) == {"paper-core", "stochastic", "semigroup"}


def test_csv_series_emission(tmp_path):
    out = tmp_path / "rep.json"
    rc = cli.main(["run", _write(tmp_path, f"""
manifold = euclidean:3
checks = coulomb
emit_csv = true
out = {out}
""")])
    assert rc == 0
    csvs = list(tmp_path.glob("rep.coulomb.*.csv"))
    assert len(csvs) == 1
    header = csvs[0].read_text().splitlines()[0]
    assert header.startswith("d,")


def test_single_check_subcommand(tmp_path):
    out = tmp_path / "one.json"
    rc = cli.main([
        "kernel-check", "--manifold", "torus:2:6.2832", "--seed", "9", "--out", str(out),
        "--param", "n_points=3",
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["manifest"]["manifold"] == "torus:2:6.2832"


def test_simulate_subcommand(tmp_path):
    out = tmp_path / "sim.json"
    dump = tmp_path / "paths.csv"
    rc = cli.main([
        "simulate", "--manifold", "circle", "--t", "0.2", "--h", "0.01", "--n", "50",
        "--seed", "4", "--out", str(out), "--dump-paths", str(dump),
    ])
    assert rc == 0
    summary = json.loads(out.read_text())
    assert summary["n_paths"] == 50
    assert "survival_fraction" not in summary and "scheme" not in summary
    lines = dump.read_text().splitlines()
    assert lines[0] == "path,t,x0"
    assert len(lines) == 1 + 50 * 21  # header + 50 paths x 21 recorded steps


@pytest.mark.parametrize("flags", [["--h", "0"], ["--h", "nan"], ["--t", "inf"]])
def test_simulate_bad_horizon_or_step_exit_two(flags, capsys):
    argv = ["simulate", "--manifold", "circle", "--t", "1", "--n", "10"] + flags
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "step h must be positive" in err and "Traceback" not in err


def test_simulate_walk_too_long_to_hold_exits_two(capsys):
    # one path's normals would take 21.8 TiB
    assert cli.main(["simulate", "--manifold", "sphere2", "--t", "1", "--h", "1e-12", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "take a larger step h" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        # 3e10 normals on a curved walk, 1e11 on a full flat one; each fits the store
        ["simulate", "--manifold", "sphere2", "--t", "1", "--h", "1e-5", "--n", "100000"],
        ["kato-exponential", "--manifold", "euclidean:1", "--param", "h=1e-6", "--param", "n_paths=100000"],
    ],
)
def test_walk_over_the_normals_budget_exits_two(argv, capsys):
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "normals, over the budget of 1e+09" in err and "Traceback" not in err


def test_simulate_coarsens_by_stored_floats(monkeypatch):
    # 2000 paths x 10001 rows is 160 MB at one float per row (euclidean:1)
    # and 480 MB at sphere2's three: only the latter is coarsened
    seen = {}

    def fake_simulate(model, start, t, h, N, seed, record_times=None):
        seen[model.describe()] = record_times
        raise DomainError("stop before sampling")

    monkeypatch.setattr(S, "simulate", fake_simulate)
    for spec in ("euclidean:1", "sphere2"):
        assert cli.main(["simulate", "--manifold", spec, "--t", "1", "--h", "1e-4", "--n", "2000"]) == 2
    assert seen[G.euclidean(1).describe()] is None
    assert len(seen["sphere2"]) == 33


@pytest.mark.parametrize("line", ["tolerance_scale = 10", "kernel.method = series:0"])
def test_removed_kernel_and_tolerance_knobs_exit_two(line, tmp_path, capsys):
    # a verdict depends only on the manifold, the potential and the check's
    # parameters: there is no kernel method or tolerance scale to set
    path = _write(tmp_path, f"manifold = circle\nchecks = kernel-check\n{line}\n")
    assert cli.main(["run", path]) == 2
    assert f"unknown key {line.split(' =')[0]!r}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", path, "--tolerance-scale", "10"])
    assert exc.value.code == 2


def test_readme_manifest_block_lists_every_top_level_key():
    # the README's manifest example documents exactly the keys the parser takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Manifest format", 1)[1].split("```", 2)[1]
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
    assert {k for k in keys if not k.startswith("param.")} == cli._TOP_KEYS


def test_run_battery_exit_codes():
    assert cli.main(["run-battery", "semigroup"]) == 0
    assert cli.main(["run-battery", "definitely-not-a-battery"]) == 2


def _write(tmp_path, text):
    path = tmp_path / "manifest.txt"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "check, manifold",
    [
        ("fk-verify", "hyperbolic3"),
        ("fk-verify", "sphere2"),
        ("mvi-sweep", "sphere2"),
        ("feynman-kac", "sphere2"),
        ("semigroup-bound", "sphere2"),
        ("riesz-thorin", "euclidean:1"),
        ("project-check", "circle"),
        ("coulomb", "sphere2"),
        ("coulomb", "euclidean:2"),
        ("coulomb", "circle"),
        ("kato-norm", "product(euclidean:1,circle)"),
        ("is-kato", "product(euclidean:1,euclidean:1)"),
        ("holder-check", "product(euclidean:1,circle)"),
        # the two-point rule and the ball grids stop at m = 3
        ("kernel-check", "euclidean:4"),
        ("kernel-check", "product(euclidean:4,circle)"),
        ("kato-norm", "euclidean:4"),
        ("is-kato", "euclidean:4"),
        ("holder-check", "euclidean:5"),
    ],
)
def test_unsupported_model_exit_two(check, manifold, capsys):
    assert cli.main([check, "--manifold", manifold]) == 2
    err = capsys.readouterr().err
    assert f"{check} runs on {cli.CHECKS[check].models[0]}, not on {manifold}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "param",
    ["h=0", "h=nan", "h=-0.1", "h=inf", "radius=0.1", "radius=nan", "a_scale=0", "a_scale=nan", "a_scale=-1"],
)
def test_fk_verify_parameter_domains_exit_two(param, capsys):
    assert cli.main(["fk-verify", "--manifold", "euclidean:2", "--param", param]) == 2
    err = capsys.readouterr().err
    assert f"param.fk-verify.{param.split('=')[0]}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "param",
    ["n_paths=1", "h=0", "t_values=nan", "t_values=-1", "t_values=0.25,abc", "n_grid=4"],
)
def test_feynman_kac_parameter_domains_exit_two(param, capsys):
    assert cli.main(["feynman-kac", "--manifold", "circle", "--param", "t_values=0.25",
                     "--param", param]) == 2
    err = capsys.readouterr().err
    assert f"param.feynman-kac.{param.split('=')[0]}" in err and "Traceback" not in err


@pytest.mark.parametrize("manifold", ["torus:2:100", "torus:3:33"])
def test_holder_check_refuses_torus_its_grid_cannot_resolve(manifold, capsys):
    # the grid spacing L/96 puts the least resolved s at (3 L / 96)^2 > 1 once L > 32
    assert cli.main(["holder-check", "--manifold", manifold]) == 2
    err = capsys.readouterr().err
    assert f"param.holder-check: its grid on {manifold} resolves only s >=" in err and "Traceback" not in err


PRODUCT = "product(euclidean:1,circle)"


@pytest.mark.parametrize(
    "check, manifold, param",
    [
        ("is-kato", "euclidean:3", "t_min=-1"),
        ("is-kato", "euclidean:3", "n_t=1"),
        ("kernel-check", "circle", "t_values=0"),
        ("kernel-check", "circle", "t_values=nan"),
        ("kernel-check", "circle", "n_points=0"),
        ("kato-norm", "euclidean:3", "s_min=0"),
        ("heat-bound", "euclidean:2", "n_t=0"),
        ("holder-check", "euclidean:3", "qs=1.2,2"),
        ("holder-check", "euclidean:3", "s_min=2"),
        ("control-pair", "euclidean:3", "source=bogus"),
        ("control-pair", "euclidean:3", "t_min=0"),
        ("project-check", PRODUCT, "leaf=5"),
        ("project-check", PRODUCT, "leaf=-1"),
        ("project-check", PRODUCT, "n_paths=1"),
        ("project-check", PRODUCT, "t=1e12"),
        ("project-check", PRODUCT, "t=1e-13"),
        ("semigroup-bound", "circle", "n_grid=4"),
        ("semigroup-bound", "circle", "n_grid=4096"),
        ("semigroup-bound", "circle", "t_values=-1,1"),
        ("semigroup-bound", "circle", "deltas=1"),
        ("riesz-thorin", "circle", "t=-1"),
        ("riesz-thorin", "circle", "r_values=0.5,1"),
        ("feynman-kac", "circle", "n_grid=7"),
        ("mvi-sweep", "euclidean:2", "radius=0"),
        ("coulomb", "euclidean:3", "rel_tol=-1"),
        ("coulomb", "euclidean:3", "r_values=0"),
        ("kato-exponential", "euclidean:1", "n_paths=1"),
        ("kato-exponential", "euclidean:1", "deltas=0.5"),
        # each of these once ended in a traceback inside the numerics
        ("kernel-check", "circle", "t_values=1e300"),
        ("kernel-check", "euclidean:3", "t_values=1e-300"),
        ("kato-norm", "euclidean:3", "t=1e300"),
        ("coulomb", "euclidean:3", "r_values=1e300"),
        ("is-kato", "circle", "t_min=1e-300"),
        ("control-pair", "euclidean:3", "t_min=1e-300"),
        ("holder-check", "euclidean:3", "s_min=1e-300"),
        # past r = 350 the hyperbolic closed form leaves the normal doubles
        ("coulomb", "hyperbolic3", "r_values=400"),
        ("coulomb", "hyperbolic3", "r_values=1e6"),
    ],
)
def test_check_parameter_domains_exit_two(check, manifold, param, capsys):
    assert cli.main([check, "--manifold", manifold, "--param", param]) == 2
    err = capsys.readouterr().err
    assert f"manifest error: param.{check}.{param.split('=')[0]}" in err and "Traceback" not in err



@pytest.mark.parametrize(
    "manifold, problem",
    [
        ("torus:2:inf", "torus side length"),
        ("torus:2:nan", "torus side length"),
        ("torus:2:1e-300", "torus side length"),
        ("torus:2:1e300", "torus side length"),
        ("euclidean:400", "dimension must be in 1..55"),
        ("euclidean:100000000", "dimension must be in 1..55"),
        ("torus:56:1", "dimension must be in 1..55"),
        ("product(euclidean:30,euclidean:30)", "dimension must be in 1..55"),
    ],
)
def test_manifold_spec_domains_exit_two(manifold, problem, capsys):
    # each once ended in an OverflowError or ZeroDivisionError traceback
    assert cli.main(["control-pair", "--manifold", manifold]) == 2
    err = capsys.readouterr().err
    assert problem in err and "Traceback" not in err


@pytest.mark.parametrize(
    "check, manifold, potential",
    [
        ("is-kato", "euclidean:3", "indicator:ball:r=-1"),
        ("is-kato", "euclidean:3", "windowed:r=-1:radialpower:beta=1"),
        ("is-kato", "euclidean:3", "indicator:ball:r=nan"),
        ("is-kato", "euclidean:3", "indicator:ball:r=0"),
        ("is-kato", "euclidean:3", "windowed:r=0:radialpower:beta=1"),
        ("is-kato", "euclidean:3", "indicator:box:w=-1"),
        ("holder-check", "torus:2:6.2832", "indicator:box:w=-1"),
        ("kato-norm", "euclidean:3", "indicator:box:w=nan"),
        ("kato-norm", "euclidean:3", "indicator:box:w=1,0,1"),
    ],
)
def test_window_extent_domains_exit_two(check, manifold, potential, capsys):
    # an empty or undefined window once read as w = 0 (PASS), a FAIL, or a numpy traceback
    assert cli.main([check, "--manifold", manifold, "--potential", potential]) == 2
    err = capsys.readouterr().err
    assert "manifest error: potential: window" in err and "must be finite and > 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "check, manifold, params",
    [
        ("is-kato", "euclidean:3", ["t_min=0.5", "t_max=0.5"]),
        ("fk-verify", "euclidean:2", ["h=1"]),
        ("feynman-kac", "circle", ["t_values=0.25", "h=0.5"]),
        ("feynman-kac", "circle", ["t_values=0.25,0.3", "h=0.1"]),
        ("project-check", PRODUCT, ["n_paths=100", "h=0.5"]),
        ("kernel-check", "sphere2", ["t_values=1e-9"]),
        ("kernel-check", "product(sphere2,circle)", ["t_values=1e-9"]),
        ("is-kato", "circle", ["t_min=1e-9"]),  # N(t) reads 0 for t <= s_min
        # walks whose one path would hold 8.7 TiB of normals, and 21.8 TiB of
        # record and normals (85 PiB for a 4096-path block)
        ("project-check", "product(sphere2,euclidean:1)", ["n_paths=2", "h=1e-12"]),
        ("kato-exponential", "sphere2", ["h=1e-12"]),
        # one 8 GB path, then a 16 GB ensemble of 20000 paths
        ("feynman-kac", "circle", ["h=1e-9"]),
        ("feynman-kac", "circle", ["h=1e-5"]),
    ],
)
def test_cross_parameter_errors_exit_two(check, manifold, params, capsys):
    argv = [check, "--manifold", manifold]
    for p in params:
        argv += ["--param", p]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"manifest error: param.{check}: " in err and "Traceback" not in err


@pytest.mark.parametrize("h", ["1e-300", "1e-5"])
def test_fk_verify_fine_h_exits_two_before_building_a_lattice(h, capsys):
    # 1e-5 asks for a 4e5 x 4e5 lattice; 1e-300 for one numpy cannot even size
    start = time.perf_counter()
    assert cli.main(["fk-verify", "--manifold", "euclidean:2", "--param", f"h={h}"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "manifest error: param.fk-verify: h leaves more than 10,000,000 lattice nodes" in err
    assert "Traceback" not in err


def test_fk_verify_validator_and_run_share_h(monkeypatch):
    # with no h given, the node checks and the eigensolves see the same 3-d h
    seen = []
    too_fine = M.fd_grid_too_fine

    def validate(model, region, h):
        seen.append(("validate", h))
        return too_fine(model, region, h)

    def run(model, radius_fn, a, sets, h):
        seen.append(("run", h))
        return M.FaberKrahnReport(0.0, 0.0, [], [])

    monkeypatch.setattr(M, "fd_grid_too_fine", validate)
    monkeypatch.setattr(M, "faber_krahn_verify", run)
    report = cli.run_manifest(cli.ExperimentManifest(manifold="euclidean:3", checks=["fk-verify"]))
    assert {k for k, _ in seen} == {"validate", "run"}
    assert {h for _, h in seen} == {1.0 / 12.0}
    assert report.checks[0].sweep["h"] == 1.0 / 12.0


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel-check", "--manifold", "torus:2:6.2832", "--param", "t_values=0.001,0.01"],
        ["control-pair", "--manifold", "circle", "--param", "source=fk"],
        ["control-pair", "--manifold", PRODUCT, "--param", "source=fk"],
        ["is-kato", "--manifold", "torus:2:6.2832"],
        ["is-kato", "--manifold", "product(circle,circle)"],
        ["is-kato", "--manifold", "product(circle,circle)", "--potential", "pullback:0:radialpower:beta=0.5"],
        ["coulomb", "--manifold", "hyperbolic3", "--param", "r_values=40"],
        ["coulomb", "--manifold", "hyperbolic3", "--param", "r_values=100"],
        *([check, "--manifold", "torus:2:6.2832", "--potential", "windowed:r=1:center=3,3:radialpower:beta=1"]
          for check in ("holder-check", "kato-norm", "is-kato")),
        ["kato-norm", "--manifold", "euclidean:3", "--potential", "windowed:r=1:center=3,0,0:radialpower:beta=1"],
    ],
    ids=[
        "kernel-check-torus-small-t", "control-pair-fk-circle", "control-pair-fk-product",
        "is-kato-torus2", "is-kato-circle-circle", "is-kato-circle-circle-pullback",
        "coulomb-hyperbolic3-r40", "coulomb-hyperbolic3-r100",
        "holder-check-torus2-window-off-singularity", "kato-norm-torus2-window-off-singularity",
        "is-kato-torus2-window-off-singularity", "kato-norm-euclidean3-window-off-singularity",
    ],
)
def test_checks_pass_exit_zero(argv, capsys):
    # the torus kernel's mass at small t (a 64-node rule once lost half of
    # it); the Faber-Krahn pair reaches the circle's and the product's
    # comparability radii; L^q potentials with q > m/2 on flat products are
    # Kato (the grid path once bounded their excised ball by p(s,x,x) times
    # its L^1 mass); the Coulomb quadrature once stopped at an absolute
    # floor above e^{-2r}; a window that leaves out its power's center reads
    # 0 there (inf times the window's 0 once read NaN on the torus grid node
    # at the center) and is bounded by the power at the ball's nearest point
    # (the whole-space sup once made N(t) inf)
    assert cli.main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_kato_norm_samples_the_window_that_leaves_out_its_power_center():
    # center_of once gave the power's center, outside the window, where the
    # functional reads N(0.1) = 5e-10; at the window's center it reads 0.0333
    spec = "windowed:r=1:center=3,0,0:radialpower:beta=1"
    e3 = G.euclidean(3)
    assert list(P.center_of(P.parse_potential(spec, e3), e3).coords) == [3.0, 0.0, 0.0]
    report = cli.run_manifest(cli.ExperimentManifest(manifold="euclidean:3", checks=["kato-norm"], potential=spec))
    assert report.all_pass and report.checks[0].values["N"] >= 0.0332


TWO_CENTERS = "sum[radialpower:beta=1:center=0,0,0;radialpower:beta={}:center=0,2,0]"


@pytest.mark.parametrize(
    "manifold, potential, floor",
    [
        ("euclidean:3", TWO_CENTERS.format(1.5), 1.9676),
        ("torus:2:6.283185307179586", "radialpower:beta=1:center=1,2", 0.78),
        ("product(torus:2:6.283185307179586,circle)", "pullback:0:radialpower:beta=1:center=1,2", 0.78),
    ],
    ids=["two-centers", "torus-off-center", "pullback-off-center"],
)
def test_kato_norm_samples_every_singular_center(manifold, potential, floor):
    # N(t) is a sup over x.  The x-samples once missed every center but the
    # first (and on a grid model, any center off the base point): the sum
    # read N(0.1) = 0.687 though its b = 1.5 atom alone reads 1.9676 at its
    # center, and the off-center torus atom 0.187 against 0.8253 centered
    report = cli.run_manifest(cli.ExperimentManifest(manifold=manifold, checks=["kato-norm"], potential=potential))
    assert report.all_pass and report.checks[0].values["N"] >= floor


@pytest.mark.parametrize("b", ["2.0", "2.2", "2.9"])
def test_is_kato_fails_when_no_q_bounds_the_short_time_remainder(b):
    # |w| of the b >= 1.5 atom is in no L^q with q > 3/2, so nothing bounds N
    # near s = 0; the remainder was once set to 0, and the decay at the
    # beta = 1 center PASSed the sum at about 0.26
    report = cli.run_manifest(
        cli.ExperimentManifest(manifold="euclidean:3", checks=["is-kato"], potential=TWO_CENTERS.format(b))
    )
    check = report.checks[0]
    assert not check.passed and check.values["reasons"] == ["N(t) = inf: no finite L^q bound"]


def test_long_time_kernel_check_on_a_short_period_is_fast():
    # t = 1e4 is 6e8 times t* = L^2 / (2 pi): the image sum took 94,870 image
    # pairs per value here (7.4 s), the Fourier series takes one mode
    manifest = cli.ExperimentManifest(
        manifold="torus:1:0.01", checks=["kernel-check"], params={"kernel-check": {"t_values": "1e4"}}
    )
    report = cli.run_manifest(manifest)
    assert report.all_pass and report.checks[0].runtime_s < 0.1


PROJECT_MC = ["project-check", "--manifold", PRODUCT, "--param", "n_paths=4000"]


def test_project_check_monte_carlo_side_passes_when_it_agrees():
    assert cli.main(PROJECT_MC) == 0


@pytest.mark.parametrize("potential", [[], ["--potential", "constant:1"]])
def test_project_check_fails_when_the_monte_carlo_side_disagrees(potential, monkeypatch):
    # |w| x 3 on the sampled paths only (mc_z = 156 on the default indicator);
    # the quadrature sides still agree. A constant has no sample variance, so
    # no z-score: its Monte Carlo mean 3 must still fail against 1
    tripled = types.SimpleNamespace(**vars(P))
    tripled.evaluate_many = lambda w, pts: 3.0 * P.evaluate_many(w, pts)
    monkeypatch.setattr(S, "pot", tripled)
    assert cli.main(PROJECT_MC + potential) == 1


def test_project_check_constant_potential_passes_with_no_sample_variance():
    assert cli.main(PROJECT_MC + ["--potential", "constant:1"]) == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_project_check_two_paths_pass(seed):
    # at seeds 0-2 both sampled |w| are 1, so there is no standard error and
    # Hoeffding's bound for values in [0, sup|w|] stands in for 4 sigma
    argv = ["project-check", "--manifold", PRODUCT, "--param", "n_paths=2", "--seed", str(seed)]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("method", ["series:abc", "imagesum:-3"])
def test_malformed_kernel_method_exit_two(method, capsys):
    # the kernel method follows from the model, so any --kernel-method is a
    # usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel-check", "--manifold", "circle", "--kernel-method", method])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --kernel-method" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "check, manifold",
    [("heat-bound", "circle"), ("heat-bound", "euclidean:1"),
     ("control-pair", "product(euclidean:3,euclidean:3)")],
)
def test_dimensions_without_special_cases_run(check, manifold, capsys):
    # half-integer Bessel orders (m = 1) and t^(-m/2) past the float range (m = 6)
    assert cli.main([check, "--manifold", manifold]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


def test_project_check_potential_validated_on_selected_leaf(capsys):
    # a center on the circle leaf (one angle) is valid for leaf=1 and rejected
    # for the plane leaf 0
    plane_circle = "product(euclidean:2,circle)"
    pot = "radialpower:beta=0.5:center=0.5"
    assert cli.main(["project-check", "--manifold", plane_circle, "--param", "leaf=1", "--potential", pot]) == 0
    assert cli.main(["project-check", "--manifold", plane_circle, "--potential", pot]) == 2
    # a center on the plane leaf is an input error once leaf=1 selects the circle
    assert cli.main(["project-check", "--manifold", plane_circle, "--param", "leaf=1",
                     "--potential", "radialpower:beta=0.5:center=0.5,0"]) == 2
    err = capsys.readouterr().err
    assert err.count("manifest error: potential:") == 2 and "Traceback" not in err


def test_numeric_error_in_potential_spec_exit_two(capsys):
    assert cli.main(["kato-norm", "--manifold", "euclidean:3", "--potential", "radialpower:beta=abc"]) == 2
    err = capsys.readouterr().err
    assert "manifest error: potential:" in err and "'abc'" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["1e400", "nan"])
def test_non_finite_constant_exit_two(capsys, value):
    # a non-finite constant would be capped to 0 and pass as w = 0
    assert cli.main(["riesz-thorin", "--manifold", "circle", "--potential", f"constant:{value}"]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_feynman_kac_single_path_is_fail_with_reason():
    # the runner itself, past the n_paths >= 2 domain: one path has a NaN stderr
    manifest = cli.parse_manifest_text(
        "manifold = circle\nchecks = feynman-kac\n"
        "param.feynman-kac.n_paths = 1\nparam.feynman-kac.t_values = 0.25\n"
        "param.feynman-kac.n_grid = 256\n"
    )
    model = G.parse_manifold("circle")
    ctx = cli.CheckContext(model, HK.make_engine(model), manifest, 0)
    result = cli.run_check(ctx, "feynman-kac")
    assert result.verdict == "FAIL" and result.margin_min == -math.inf
    assert "no finite z-score" in result.values["reasons"][0]


def _bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_bench_tracer_targets_exist():
    # the benchmark wraps these module attributes; a rename here would
    # otherwise break only a traced benchmark run
    tracer = _bench_tracer()
    missing = [
        (module, attr)
        for _, module, attr, _ in tracer.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracer.TARGETS and not missing, missing


def test_bench_tracer_sees_one_kernel_call_per_batch_of_times():
    # a batch of kernel times goes through the wrapped eval_radial once, and
    # distance rows through the wrapped distance_many
    e3 = G.euclidean(3)
    with _bench_tracer().Tracer() as tr:
        d = G.distance_many(e3, np.zeros(3), np.ones((40, 3)))
        HK.eval_radial_rows(HK.make_engine(e3), [0.1, 0.2, 0.4], d)
        HK.eval_radial_rows(HK.make_engine(G.parse_manifold("product(euclidean:1,circle)")), [0.1, 0.2], d)
    layers = tr.layers()
    assert layers["geometry.distance_many"]["rows"] == 40
    # one call for the radial batch; on the product one per factor and one
    # per factor's diagonal
    assert layers["heat_kernel.eval_radial"]["calls"] == 1 + 4
    assert layers["heat_kernel.eval_radial"]["points"] == 40 + 2 * 40 + 2


# numpy (about 0.08 s) and heatkato layers that each cost a compile on a
# launch with no bytecode cache
_LAYERS = ("numpy", "heatkato.geometry", "heatkato.heat_kernel", "heatkato.potentials", "heatkato.mvi",
           "heatkato.stochastics")

# runs cli.main in a fresh interpreter, then prints the exit code, the scipy
# modules and the _LAYERS that the command loaded
_IMPORT_PROBE = f"""
import sys
from heatkato import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # --help, a usage error
    code = exc.code
print(code)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
print(" ".join(m for m in {_LAYERS!r} if m in sys.modules))
"""


def _fresh_python(code, argv, cwd):
    """The stdout lines of ``python -c code argv`` with this heatkato on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")[:-1]


def _loaded_by(argv, cwd):
    """The exit code, scipy modules and _LAYERS of one command in a fresh interpreter."""
    *_, code, modules, layers = _fresh_python(_IMPORT_PROBE, argv, cwd)
    return int(code), set(modules.split()), set(layers.split())


@pytest.mark.parametrize(
    "argv, code, layers",
    [
        (["list-batteries"], 0, set()),
        (["--help"], 0, set()),
        (["is-kato", "--help"], 0, set()),
        (["kernel-check"], 2, set()),
        (["run-battery", "no-such-battery"], 2, set()),
        (["is-kato", "--manifold", "circle", "--param", "bogus=1"], 2, set()),
        (["run", "syntax-error.txt"], 2, set()),
        (["run", "no-such-manifest.txt"], 2, set()),
        (["run", "not-utf8.txt"], 2, set()),
        # an output path that cannot be opened stops the launch before the numerics
        (["run", "kernel-check.txt", "--out", "a-file/x.json"], 2, set()),
        (["run-battery", "stochastic", "--out", "a-file/x.json"], 2, set()),
        (["kernel-check", "--manifold", "circle", "--out", "a-file/x.json"], 2, set()),
        (SIMULATE + ["--out", "a-file/x.json"], 2, set()),
        (SIMULATE + ["--dump-paths", "a-file/x.csv"], 2, set()),
        # a seed outside [0, 2^64), which numpy's generators or the path sampler would not take as it is
        (["kernel-check", "--manifold", "circle", "--seed", "-1"], 2, set()),
        (["run-battery", "semigroup", "--seed", "-1"], 2, set()),
        (["run", "kernel-check.txt", "--seed", "-1"], 2, set()),
        (SIMULATE + ["--seed", str(2**64)], 2, set()),
        (["run", "negative-seed.txt"], 2, set()),
        # a launch decided by a model loads what parsing it takes
        (["kernel-check", "--manifold", "torus:2:nan"], 2, {"numpy", "heatkato.geometry"}),
    ],
    ids=["list-batteries", "help", "is-kato-help", "missing-manifold", "unknown-battery", "unknown-param",
         "manifest-syntax-error", "missing-manifest", "manifest-not-utf8", "run-out-under-a-file",
         "run-battery-out-under-a-file", "check-out-under-a-file", "simulate-out-under-a-file",
         "simulate-dump-under-a-file", "check-negative-seed", "battery-negative-seed", "run-negative-seed",
         "simulate-seed-past-2^64", "manifest-negative-seed", "bad-manifold-spec"],
)
def test_commands_without_numerics_load_no_scipy(argv, code, layers, tmp_path):
    (tmp_path / "syntax-error.txt").write_text("manifold = circle\nchecks = kernel-check\nno equals sign\n")
    (tmp_path / "not-utf8.txt").write_bytes(b"\xff\xfem\x00a\x00n\x00")
    (tmp_path / "kernel-check.txt").write_text("manifold = circle\nchecks = kernel-check\n")
    (tmp_path / "negative-seed.txt").write_text("manifold = circle\nchecks = kernel-check\nseed = -1\n")
    (tmp_path / "a-file").write_text("")
    assert _loaded_by(argv, tmp_path) == (code, set(), layers)


@pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5"])
def test_manifest_seed_outside_the_samplers_range_is_refused_at_its_line(seed):
    with pytest.raises(ManifestError, match=r"line 3, column 7: seed must be an integer in \[0, 2\^64\)"):
        cli.parse_manifest_text(f"manifold = circle\nchecks = kernel-check\nseed = {seed}\n")
    assert cli.parse_manifest_text(f"manifold = circle\nchecks =\nseed = {2**64 - 1}\n").seed == 2**64 - 1


def test_cli_functions_import_nothing_but_numpy():
    # the numerical layers are reached as heatkato.<layer>, which the package
    # loads at first access; numpy, not a package submodule, is the one
    # import left inside a function
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    lazy = {
        (node.lineno, ast.unparse(node))
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert [(line, text) for line, text in sorted(lazy) if text != "import numpy as np"] == []


@pytest.mark.parametrize("argv", [["list-batteries"], ["--help"]], ids=["list-batteries", "help"])
def test_commands_without_checks_load_neither_mvi_nor_stochastics(argv, tmp_path):
    # each module costs a compile on a launch with no bytecode cache
    code, _, layers = _loaded_by(argv, tmp_path)
    assert code == 0 and not layers & {"heatkato.mvi", "heatkato.stochastics"}


@pytest.mark.parametrize(
    "argv",
    [["heat-bound", "--manifold", "circle"], ["mvi-sweep", "--manifold", "euclidean:3"],
     ["heat-bound", "--manifold", "euclidean:2"], ["mvi-sweep", "--manifold", "euclidean:2"]],
    ids=["heat-bound-circle", "mvi-sweep-euclidean3", "heat-bound-euclidean2", "mvi-sweep-euclidean2"],
)
def test_faber_krahn_commands_in_closed_form_load_no_scipy(argv, tmp_path):
    # the Faber-Krahn constant lives in mvi; its Bessel zero has a closed form
    # at m = 1 and m = 3 and a tabulated value at m = 2, so neither kato nor
    # scipy is loaded
    assert _loaded_by(argv, tmp_path)[:2] == (0, set())


_SCIPY_FAMILIES = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse")


@pytest.mark.parametrize(
    "argv, families",
    [
        (["run-battery", "stochastic"], set()),
        (["project-check", "--manifold", PRODUCT, "--param", "n_paths=400"], set()),
        (["fk-verify", "--manifold", "euclidean:3"], set()),
        (["run", "fk-mvi.txt"], set()),
        (["run-battery", "paper-core"], set()),
    ],
    ids=["stochastic-battery", "project-check", "fk-verify", "fk-verify-mvi-sweep-manifest", "paper-core-battery"],
)
def test_commands_load_only_the_scipy_families_they_call(argv, families, tmp_path):
    # which of quad, the root finders, special functions and sparse matrices
    # a cold start pays for; no built-in battery loads any of them
    (tmp_path / "fk-mvi.txt").write_text("manifold = euclidean:3\nchecks = fk-verify, mvi-sweep\n")
    code, modules, _ = _loaded_by(argv, tmp_path)
    loaded = {f for f in _SCIPY_FAMILIES if any(m == f or m.startswith(f + ".") for m in modules)}
    assert (code, loaded) == (0, families)
    assert families or not modules  # no family: no scipy module at all


_KATO_LAYERS = {"numpy", "heatkato.geometry", "heatkato.heat_kernel", "heatkato.potentials", "heatkato.mvi"}
_CIRCLE_SG = ["--manifold", "circle", "--param", "n_grid=16"]


@pytest.mark.parametrize(
    "argv, families, layers",
    [
        (["kernel-check", "--manifold", "circle", "--param", "t_values=0.1", "--param", "n_points=1"], set(),
         {"numpy", "heatkato.geometry", "heatkato.heat_kernel"}),
        (["kernel-check", "--manifold", "euclidean:3", "--param", "t_values=0.1", "--param", "n_points=1"], set(),
         {"numpy", "heatkato.geometry", "heatkato.heat_kernel"}),
        (["kernel-check", "--manifold", "hyperbolic3", "--param", "t_values=1", "--param", "n_points=1"], set(),
         {"numpy", "heatkato.geometry", "heatkato.heat_kernel"}),
        (["kato-norm", "--manifold", "euclidean:3", "--param", "n_x=1", "--param", "t=0.01"], set(), _KATO_LAYERS),
        (["is-kato", "--manifold", "euclidean:3", "--param", "n_t=2"], set(), _KATO_LAYERS),
        (["holder-check", "--manifold", "euclidean:3", "--param", "n_s=2", "--param", "qs=2"], set(), _KATO_LAYERS),
        (["control-pair", "--manifold", "euclidean:3", "--param", "n_t=2"], set(), _KATO_LAYERS),
        (["control-pair", "--manifold", "euclidean:3", "--param", "n_t=2", "--param", "source=fk"], set(),
         _KATO_LAYERS),
        # the Faber-Krahn constant's Bessel zero at m = 4 is tabulated
        (["control-pair", "--manifold", "euclidean:4", "--param", "n_t=2", "--param", "source=fk"], set(),
         _KATO_LAYERS),
        (["coulomb", "--manifold", "euclidean:3", "--param", "r_values=1"], set(),
         {"numpy", "heatkato.geometry", "heatkato.heat_kernel", "heatkato.potentials"}),
        (["feynman-kac", "--manifold", "circle", "--param", "n_paths=100", "--param", "t_values=0.02",
          "--param", "h=0.01", "--param", "n_grid=64"], set(),
         {"numpy", "heatkato.geometry", "heatkato.heat_kernel", "heatkato.potentials", "heatkato.mvi",
          "heatkato.stochastics"}),
        (["kato-exponential", "--manifold", "euclidean:1", "--param", "n_paths=100", "--param", "t_values=0.02",
          "--param", "deltas=2", "--param", "h=0.01"], set(),
         {"numpy", "heatkato.geometry", "heatkato.heat_kernel", "heatkato.potentials", "heatkato.stochastics"}),
        (["semigroup-bound", *_CIRCLE_SG, "--param", "t_values=0.5", "--param", "deltas=2"], set(), _KATO_LAYERS),
        (["riesz-thorin", *_CIRCLE_SG, "--param", "r_values=0.5"], set(), _KATO_LAYERS),
    ],
    ids=["kernel-check", "kernel-check-euclidean3", "kernel-check-hyperbolic3", "kato-norm", "is-kato",
         "holder-check", "control-pair", "control-pair-fk", "control-pair-fk-euclidean4", "coulomb", "feynman-kac",
         "kato-exponential", "semigroup-bound", "riesz-thorin"],
)
def test_each_check_loads_its_scipy_families_and_layers(argv, families, layers, tmp_path):
    # a check run alone on tiny parameters: the scipy families and layers its
    # cold start pays for
    code, modules, loaded = _loaded_by(argv, tmp_path)
    found = {f for f in _SCIPY_FAMILIES if any(m == f or m.startswith(f + ".") for m in modules)}
    assert (code, found, loaded) == (0, families, layers)


def test_smoothing_fd_and_path_layers_import_no_scipy(tmp_path):
    probe = (
        "import sys, heatkato.potentials, heatkato.mvi, heatkato.stochastics, heatkato.kato, heatkato.semigroup\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_python(probe, [], tmp_path) == ["[]"]


def test_semigroup_battery_loads_no_quadrature_special_or_optimize(tmp_path):
    # the semigroup checks solve in numpy alone: no scipy module at all
    assert _loaded_by(["run-battery", "semigroup"], tmp_path)[:2] == (0, set())


def test_feynman_kac_grid_past_the_store_budget_is_refused_before_any_allocation(monkeypatch, capsys):
    # n_grid nodes of contour work arrays against the path sampler's store budget
    def refuse(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(SG, "discretize", refuse)
    monkeypatch.setattr(S, "simulate", refuse)
    limit = S._MAX_STORE_BYTES // SG._CONTOUR_NODE_BYTES
    for n_grid in (limit + 1, 10**12):
        assert cli.main(["feynman-kac", "--manifold", "circle", "--param", f"n_grid={n_grid}"]) == 2
        assert f"param.feynman-kac.n_grid = {n_grid}: must be in 8..{limit}" in capsys.readouterr().err


def test_package_submodules_load_on_first_access(tmp_path):
    probe = (
        "import sys, heatkato\n"
        "print(sorted(m for m in sys.modules if m.startswith('heatkato.')))\n"
        "print(heatkato.kato.is_kato.__qualname__)\n"
        "try:\n    heatkato.no_such_module\nexcept AttributeError:\n    print('AttributeError')\n"
    )
    assert _fresh_python(probe, [], tmp_path) == ["[]", "is_kato", "AttributeError"]
    assert G.quad is P.quad  # one lazy scipy quad, called by bare name in both modules


@pytest.mark.parametrize(
    "argv, code",
    [(["list-batteries"], 0), (["is-kato", "--manifold", "circle", "--param", "gamma_min=10"], 1)],
    ids=["list-batteries", "is-kato-fail"],
)
def test_a_closed_stdout_ends_quietly_with_the_verdicts_code(argv, code, tmp_path):
    # `list-batteries | head -0` once ended in a BrokenPipeError traceback and
    # exit 1, the code the contract keeps for a failed check
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "heatkato.cli", *argv], cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader exits before the run writes a byte
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=300) == code and err == ""
