import dataclasses
import json
import math
import types
from dataclasses import asdict, dataclass
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
from heatkato.reporting import CheckResult, _jsonable, judge, worst_of

GOLDEN = Path(__file__).parent / "golden"


@dataclass
class _Leaf:
    x: float
    pair: tuple


@dataclass
class _Record:
    n: object
    leaf: _Leaf
    rows: list
    table: dict


def test_a_record_serializes_field_by_field():
    rec = _Record(
        np.int64(3),
        _Leaf(math.nan, (math.inf, -math.inf)),
        [_Leaf(np.float64(0.5), ())],
        {"norms": np.array([1.0, 2.0])},
    )
    got = _jsonable(rec)
    assert got == _jsonable(asdict(rec))
    assert got == {
        "n": 3,
        "leaf": {"x": "nan", "pair": ["inf", "-inf"]},
        "rows": [{"x": 0.5, "pair": []}],
        "table": {"norms": [1.0, 2.0]},
    }
    json.dumps(got, allow_nan=False)


def test_check_result_dict_carries_the_record_and_a_verdict():
    rec = _Leaf(np.float64(0.25), (1, 2))
    d = CheckResult({"a": (0.5, 0.0)}, rec, series={"s": {"columns": [], "rows": []}}, name="x").to_dict()
    assert d["values"] == {"x": 0.25, "pair": [1, 2]} and d["verdict"] == "PASS"
    assert d["margin_min"] == 0.5 and d["tolerance"] == 0.0
    assert "series" not in d and "passed" not in d and "criteria" not in d
    assert CheckResult({"error": (-math.inf, 0.0)}).verdict == "FAIL"


def test_worst_of_reduces_in_order_and_names_a_nan():
    assert worst_of(max, 0.0, {"a": [1.0, 3.0], "b": iter([2.0])}) == (3.0, None)
    assert worst_of(min, math.inf, {}) == (math.inf, None)
    assert max([0.0, math.nan, 1.0]) == 1.0  # what the builtin alone gives
    value, reason = worst_of(max, 0.0, {"a": [1.0], "b": [2.0, np.float64("nan")]})
    assert math.isnan(value) and reason == "b is NaN"


def test_the_least_slack_binds():
    # b's margin is the larger, but its slack -0.1 + 0.05 is the least
    assert judge({"a": (-0.01, 0.1), "b": (-0.1, 0.05)}) == (False, -0.1, 0.05, None)
    # a's margin is negative, but its slack 0.09 is below b's 0.2
    assert judge({"a": (-0.01, 0.1), "b": (0.2, 0.0)}) == (True, -0.01, 0.1, None)
    assert judge({"a": (-1e-3, 1e-3)}) == (True, -1e-3, 1e-3, None)
    assert judge({}) == (True, math.inf, 0.0, None)


def test_a_nan_criterion_fails_with_its_name():
    passed, margin, tol, reason = judge({"a": (1.0, 0.0), "b": (math.nan, 0.5), "c": (-math.inf, 0.0)})
    assert not passed and math.isnan(margin) and tol == 0.5 and reason == "b is NaN"


def test_a_derived_nan_reason_joins_values_only_when_the_record_has_none():
    assert CheckResult({"x": (math.nan, 0.0)}, {"v": 1}).values == {"v": 1, "reasons": ["x is NaN"]}
    assert CheckResult({"x": (math.nan, 0.0)}, _Leaf(1.0, ())).values == {"x": 1.0, "pair": (), "reasons": ["x is NaN"]}
    assert CheckResult({"x": (math.nan, 0.0)}, {"reasons": ["mine"]}).values == {"reasons": ["mine"]}
    assert CheckResult({"x": (1.0, 0.0)}, {"v": 1}).values == {"v": 1}


def _holds(margin, tolerance) -> bool:
    # a NaN margin or tolerance compares False: a FAIL
    return float(margin) >= -float(tolerance)


def test_every_golden_verdict_is_its_margin_against_its_tolerance():
    checks = [c for path in sorted(GOLDEN.iterdir()) for c in json.loads(path.read_text())["checks"]]
    assert len(checks) >= 14
    for c in checks:
        assert c["verdict"] == ("PASS" if _holds(c["margin_min"], c["tolerance"]) else "FAIL"), c["name"]


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


def _lanczos_capped(monkeypatch):
    monkeypatch.setattr(M, "_LANCZOS_MAX_STEPS", 20)  # a ConvergenceError: the error path


def _nan_q4_norm(monkeypatch):
    q_norm = SG.q_norm
    monkeypatch.setattr(SG, "q_norm", lambda op, t, qs: [math.nan if q == 4 else v
                                                          for q, v in zip(qs, q_norm(op, t, qs))])


def _nan_propagated(monkeypatch):
    propagate = SG._propagate

    def poisoned(op, t, fs):
        images = propagate(op, t, fs)
        images[0][3] = math.nan
        return images

    monkeypatch.setattr(SG, "_propagate", poisoned)


def _nan_interpolated(monkeypatch):
    monkeypatch.setattr(SG, "_boyd_q_norm", lambda M, q: math.nan)


def _tripled_paths(monkeypatch):
    tripled = types.SimpleNamespace(**vars(P))
    tripled.evaluate_many = lambda w, pts: 3.0 * P.evaluate_many(w, pts)
    monkeypatch.setattr(S, "pot", tripled)


def _nan_coulomb_at_r1(monkeypatch):
    # the builtin min once skipped this NaN relative error, and coulomb PASSed
    coulomb = P.coulomb

    def poisoned(engine, o, y, tol):
        value = coulomb(engine, o, y, tol=tol)
        return dataclasses.replace(value, value=math.nan) if abs(y.coords[0] - 1.0) < 1e-9 else value

    monkeypatch.setattr(P, "coulomb", poisoned)


def _no_poison(monkeypatch):
    pass


# the FAIL and NaN rows of the CLI and semigroup tests: (manifold, check,
# potential, params, poison); run past validation, as run_check takes them
FAILS = {
    "kernel-check-nan-mass": ("hyperbolic3", "kernel-check", None, {"t_values": "1000"}, _no_poison),
    "kato-norm-nan": ("hyperbolic3", "kato-norm", None, {"t": "1000"}, _no_poison),
    "control-pair-nan": ("euclidean:3", "control-pair", None, {"t_min": "0.01", "n_t": "3"}, _nan_on_diagonal_at(0)),
    "heat-bound-nan": ("euclidean:3", "heat-bound", None, {}, _nan_on_diagonal_at(1)),
    "fk-verify-nan": ("euclidean:3", "fk-verify", None, {}, _nan_eigenvalue),
    "fk-verify-error": ("euclidean:3", "fk-verify", None, {}, _lanczos_capped),
    "mvi-sweep-nan": ("euclidean:2", "mvi-sweep", None, {}, _nan_cylinder_integral),
    "is-kato-not-kato": ("euclidean:3", "is-kato", "radialpower:beta=2", {"n_t": "4"}, _no_poison),
    "is-kato-gamma-min": ("circle", "is-kato", None, {"gamma_min": "10"}, _no_poison),
    "feynman-kac-one-path": ("circle", "feynman-kac", None,
                             {"n_paths": "1", "t_values": "0.25", "n_grid": "256"}, _no_poison),
    "project-check-mc": ("product(euclidean:1,circle)", "project-check", None, {"n_paths": "4000"}, _tripled_paths),
    "semigroup-bound-nan-norm": ("circle", "semigroup-bound", None, {}, _nan_q4_norm),
    "semigroup-bound-nan-vector": ("circle", "semigroup-bound", None, {}, _nan_propagated),
    "riesz-thorin-nan": ("circle", "riesz-thorin", None, {}, _nan_interpolated),
    "coulomb-nan": ("euclidean:3", "coulomb", None, {}, _nan_coulomb_at_r1),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("row", sorted(FAILS))
def test_every_fail_row_reads_its_margin_against_its_tolerance(row, monkeypatch):
    manifold, check, potential, params, poison = FAILS[row]
    poison(monkeypatch)
    manifest = cli.ExperimentManifest(manifold=manifold, checks=[check], potential=potential, params={check: params})
    model = G.parse_manifold(manifold)
    with np.errstate(over="ignore", invalid="ignore"):
        result = cli.run_check(cli.CheckContext(model, HK.make_engine(model), manifest, 0), check)
    assert result.verdict == "FAIL" and not _holds(result.margin_min, result.tolerance)
    if row == "coulomb-nan":
        assert result.values["reasons"] == ["rel_err at r=1 is NaN"]
    d = result.to_dict()
    assert d["verdict"] == ("PASS" if _holds(d["margin_min"], d["tolerance"]) else "FAIL")
