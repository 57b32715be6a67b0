import json

import pytest

from heatkato import cli
from heatkato.errors import ManifestError
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


def test_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("manifold = circle\nwhat even is this line\n")
    assert cli.main(["run", str(bad)]) == 2
    missing_key = tmp_path / "bad2.txt"
    missing_key.write_text("checks = kernel-check\n")
    assert cli.main(["run", str(missing_key)]) == 2


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


def test_parallel_matches_serial():
    text = """
manifold = circle
checks = kernel-check, riesz-thorin
seed = 3
param.riesz-thorin.n_grid = 96
"""
    manifest = cli.parse_manifest_text(text)
    serial = cli.run_manifest(manifest, parallel=False)
    par = cli.run_manifest(manifest, parallel=True)
    assert canonical_json(serial) == canonical_json(par)


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
    assert summary["n_paths"] == 50 and summary["survival_fraction"] == 1.0
    lines = dump.read_text().splitlines()
    assert lines[0] == "path,t,x0"
    assert len(lines) == 1 + 50 * 21  # header + 50 paths x 21 recorded steps


def test_tolerance_scale_flows_through():
    text = "manifold = circle\nchecks = kernel-check\ntolerance_scale = 10\n"
    rep = run_text(text)
    assert rep.checks[0].tolerance == pytest.approx(1e-3)  # 1e-4 series tol x 10


def test_run_battery_exit_codes():
    assert cli.main(["run-battery", "semigroup"]) == 0
    assert cli.main(["run-battery", "definitely-not-a-battery"]) == 2


def _write(tmp_path, text):
    path = tmp_path / "manifest.txt"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "check, manifold",
    [("fk-verify", "hyperbolic3"), ("fk-verify", "sphere2"), ("mvi-sweep", "sphere2")],
)
def test_unsupported_model_exit_two(check, manifold, capsys):
    assert cli.main([check, "--manifold", manifold]) == 2
    err = capsys.readouterr().err
    assert "runs on euclidean:2 or euclidean:3" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "param",
    ["h=0", "h=nan", "h=-0.1", "h=inf", "radius=0.1", "radius=nan", "a_scale=0", "a_scale=nan", "a_scale=-1"],
)
def test_fk_verify_parameter_domains_exit_two(param, capsys):
    assert cli.main(["fk-verify", "--manifold", "euclidean:2", "--param", param]) == 2
    err = capsys.readouterr().err
    assert f"param.fk-verify.{param.split('=')[0]}" in err and "Traceback" not in err
