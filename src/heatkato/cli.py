"""Experiment manifests, check orchestration and machine-readable reports.

Manifest format: a structured key-value text file, one ``key = value`` pair
per line, ``#`` comments.  Keys:

    manifold        = euclidean:3 | torus:2:6.2832 | sphere2 | hyperbolic3
                      | circle | product(a,b)
    potential       = e.g. radialpower:beta=1:center=0,0,0   (optional)
    checks          = comma-separated subset of the check registry
    seed            = integer in [0, 2^64)
    out             = report path (JSON)
    emit_csv        = true | false       (plot series next to the report)
    param.<check>.<key> = value          (check-specific numerics)

Unknown keys are rejected with their line number.  Exit codes: 0 all checks
PASS, 1 any FAIL, 2 manifest/validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import heatkato

from . import __version__
from .errors import HeatKatoError, ManifestError
from .reporting import CheckResult, Report

if TYPE_CHECKING:
    from .geometry import ManifoldModel
    from .heat_kernel import HeatKernelEngine
    from .potentials import Potential

# every numerical layer is reached as heatkato.<layer>.<name>, which the
# package loads at its first access, and numpy is imported by the functions
# that use it: no layer imports scipy at load, and numpy, geometry, heat_kernel
# and potentials are half of a launch with no bytecode cache, which
# list-batteries, --help and a usage error decided before a model is parsed
# do not need

# ---------------------------------------------------------------------------
# manifest


@dataclass
class ExperimentManifest:
    manifold: str
    checks: list
    potential: str | None = None
    seed: int = 0
    out: str | None = None
    emit_csv: bool = False
    params: dict = field(default_factory=dict)  # check -> {key: raw string}

    def to_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "potential": self.potential,
            "checks": list(self.checks),
            "seed": self.seed,
            "out": self.out,
            "emit_csv": self.emit_csv,
            "params": {k: dict(v) for k, v in self.params.items()},
        }


_TOP_KEYS = {"manifold", "potential", "checks", "seed", "out", "emit_csv"}


def parse_manifest_text(text: str) -> ExperimentManifest:
    fields: dict = {"params": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ManifestError("expected 'key = value'", lineno, 1)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ManifestError("empty key", lineno, 1)
        col = raw.index("=") + 2
        if key.startswith("param."):
            parts = key.split(".")
            if len(parts) != 3 or not parts[1] or not parts[2]:
                raise ManifestError(f"parameter keys look like param.<check>.<name>: {key!r}", lineno, 1)
            _, check, name = parts
            if check not in CHECKS:
                raise ManifestError(f"unknown check {check!r} in parameter key", lineno, 1)
            if name not in CHECKS[check].params:
                raise ManifestError(f"check {check!r} has no parameter {name!r}", lineno, 1)
            fields["params"].setdefault(check, {})[name] = value
            continue
        if key not in _TOP_KEYS:
            raise ManifestError(f"unknown key {key!r}", lineno, 1)
        if key in fields and key != "params":
            raise ManifestError(f"duplicate key {key!r}", lineno, 1)
        if key == "checks":
            fields["checks"] = [c.strip() for c in value.split(",") if c.strip()]
        elif key == "seed":
            try:
                fields["seed"] = _seed(value)
            except argparse.ArgumentTypeError as exc:
                raise ManifestError(f"seed {exc}", lineno, col)
        elif key == "emit_csv":
            if value.lower() not in ("true", "false"):
                raise ManifestError(f"emit_csv must be true or false, got {value!r}", lineno, col)
            fields["emit_csv"] = value.lower() == "true"
        else:
            fields[key] = value
    if "manifold" not in fields:
        raise ManifestError("manifest needs a 'manifold' key")
    if "checks" not in fields:
        raise ManifestError("manifest needs a 'checks' key (may be empty)")
    return ExperimentManifest(**fields)


def load_manifest(path: str) -> ExperimentManifest:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:  # missing, a directory, unreadable
        raise ManifestError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ManifestError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None
    return parse_manifest_text(text)


def validate_manifest(manifest: ExperimentManifest) -> None:
    model = heatkato.geometry.parse_manifold(manifest.manifold)
    for name in manifest.checks:
        if name not in CHECKS:
            raise ManifestError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
        models = CHECKS[name].models
        if models is not None and not models[1](model):
            raise ManifestError(f"{name} runs on {models[0]}, not on {manifest.manifold}")
    for check, kv in manifest.params.items():
        spec = CHECKS[check]
        for k, v in kv.items():
            caster, _, domain = spec.params[k]
            try:
                value = caster(v)
            except ValueError:
                raise ManifestError(f"param.{check}.{k}: cannot parse {v!r}")
            problem = domain(value, model)
            if problem:
                raise ManifestError(f"param.{check}.{k} = {v}: {problem}")
    for name in manifest.checks:
        check = CHECKS[name].check
        problem = check(_params(manifest, name), model) if check else None
        if problem:
            raise ManifestError(f"param.{name}: {problem}")
    if manifest.potential is not None:
        target = model
        if manifest.checks == ["project-check"]:
            target = heatkato.potentials.leaves(model)[_params(manifest, "project-check")["leaf"]][0]
        try:
            heatkato.potentials.parse_potential(manifest.potential, target)
        except HeatKatoError as exc:
            raise ManifestError(f"potential: {exc}")


# ---------------------------------------------------------------------------
# check registry


@dataclass
class CheckContext:
    model: ManifoldModel
    engine: HeatKernelEngine
    manifest: ExperimentManifest
    seed: int

    def potential(self, default_spec: str, target: ManifoldModel | None = None) -> Potential:
        return heatkato.potentials.parse_potential(self.manifest.potential or default_spec, target or self.model)


@dataclass
class CheckSpec:
    runner: object  # (ctx, params) -> CheckResult without name and inequality
    inequality: str  # the inequality being tested, verbatim
    params: dict  # name -> (caster, default, domain); domain(value, model) gives a problem or None
    description: str
    models: tuple | None = None  # (what, predicate on the model); None runs on every model
    check: object = None  # (params, model) -> a problem of the whole parameter set, or None


_EUCLIDEAN_2_3 = (
    "euclidean:2 or euclidean:3", lambda m: isinstance(m, heatkato.geometry.Euclidean) and m.dim in (2, 3)
)
_CIRCLE = ("circle or torus:1:L", lambda m: isinstance(m, heatkato.geometry.Torus) and m.dim == 1)


def _low_radial(model: ManifoldModel) -> bool:
    """Every radial kernel (the model's or a factor's) has m <= 3, where the
    two-point rule and the ball grids stop."""
    return all(map(_low_radial, model.kernel_factors)) if model.kernel_factors else model.dim <= 3


_KERNEL_MODELS = ("a model whose radial kernels have dimension <= 3", _low_radial)
# the Kato functional integrates against a radial kernel or over a full grid
_KATO_MODELS = (
    "a model with a radial kernel of dimension <= 3 or a compact model",
    lambda m: m.radial_kernel and m.dim <= 3 or m.compact,
)


def _floats(text: str) -> list:
    return [float(v) for v in str(text).split(",") if str(v).strip()]


def _auto_or_floats(text: str):
    return "auto" if text == "auto" else _floats(text)


def _domain(ok, what):
    """A parameter domain: ``ok(value)`` or the problem "must be <what>"."""
    return lambda value, model: None if ok(value) else f"must be {what}"


_POSITIVE = _domain(lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_AUTO_OR_POSITIVE = _domain(lambda v: v == "auto" or math.isfinite(v) and v > 0, "auto or finite and > 0")
_NONNEGATIVE = _domain(lambda v: 0 <= v < math.inf, "finite and >= 0")
_UNIT_TIME = _domain(lambda v: 1e-12 <= v <= 1, "in [1e-12, 1]")  # a kernel time up to 1
# a kernel time: far below 1e-12 the Euclidean prefactor (2 pi t)^(-m/2)
# overflows, far above 1e6 the hyperbolic kernel's reach, which grows like t,
# takes ever more quadrature cells (kernel-check: 3.5 s at t = 1e12)
_TIME = _domain(lambda v: 1e-12 <= v <= 1e6, "in [1e-12, 1e6]")


def _n_grid(value, model):
    limit = heatkato.semigroup._DENSE_LIMIT
    return None if 8 <= value <= limit else f"must be in 8..{limit}"


def _spectral_grid(value, model):
    # the contour's work arrays against the store budget the path sampler keeps to
    budget = heatkato.stochastics._MAX_STORE_BYTES
    limit = budget // heatkato.semigroup._CONTOUR_NODE_BYTES
    return None if 8 <= value <= limit else f"must be in 8..{limit} (within {budget / 1e6:.0f} MB of work arrays)"


def _at_least(k):
    return _domain(lambda v: v >= k, f">= {k}")


def _list_of(ok, what):
    return _domain(
        lambda vs: bool(vs) and all(math.isfinite(v) and ok(v) for v in vs),
        f"a comma-separated list of finite numbers {what}",
    )


_POSITIVE_LIST = _list_of(lambda v: v > 0, "> 0")
_TIMES = _list_of(lambda v: 1e-12 <= v <= 1e6, "in [1e-12, 1e6]")
_DELTAS = _list_of(lambda v: v > 1, "> 1")


def _params(manifest: ExperimentManifest, name: str) -> dict:
    raw = manifest.params.get(name, {})
    return {key: caster(raw.get(key, default)) for key, (caster, default, _) in CHECKS[name].params.items()}


def _sample_points(model, n, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    return [heatkato.geometry.random_point(model, rng, 1.2) for _ in range(n)]


def _check_kernel(ctx: CheckContext, p: dict) -> CheckResult:
    ts = p["t_values"]
    pts = _sample_points(ctx.model, p["n_points"], ctx.seed + 1)
    rep = heatkato.heat_kernel.check_consistency(ctx.engine, ts, pts)
    ck_tol = 1e-6 if ctx.engine.method == heatkato.heat_kernel.Method.CLOSED_FORM else 1e-4
    sym_tol = max(2.0 * rep.truncation_bound, 1e-12)
    margins = {"mass_defect": 1e-6 - rep.mass_defect, "ck_residual": ck_tol - rep.ck_residual,
               "symmetry_residual": sym_tol - rep.symmetry_residual}
    # each margin nets out its allowance, so each tolerance is 0
    criteria = {name: (margin, 0.0) for name, margin in margins.items()}
    return CheckResult(criteria, rep, sweep={"t_values": ts, "n_points": p["n_points"]})


def _default_radial_spec(model: ManifoldModel) -> str:
    # 1/d is not locally integrable in one dimension; use a milder default there
    return "radialpower:beta=1" if model.dim >= 2 else "radialpower:beta=0.5"


def _check_kato_norm(ctx: CheckContext, p: dict) -> CheckResult:
    w = ctx.potential(_default_radial_spec(ctx.model))
    xs = [heatkato.potentials.center_of(w, ctx.model)] + _sample_points(ctx.model, p["n_x"] - 1, ctx.seed + 2)
    val = heatkato.kato.kato_functional(ctx.engine, w, p["t"], xs, s_min=p["s_min"])
    finite = math.isfinite(val)
    values = {"t": p["t"], "N": val, **({} if finite else {"reasons": [f"N(t) = {val} is not finite"]})}
    criteria = {"N(t) finite": (0.0 if finite else -math.inf, 0.0)}
    return CheckResult(criteria, values, sweep={"n_x": p["n_x"], "s_min": p["s_min"]})


def _check_is_kato(ctx: CheckContext, p: dict) -> CheckResult:
    import numpy as np

    w = ctx.potential(_default_radial_spec(ctx.model))
    ts = np.logspace(math.log10(p["t_min"]), math.log10(p["t_max"]), p["n_t"])
    curve, verdict = heatkato.kato.is_kato(
        ctx.engine, w, ts, threshold_ratio=p["threshold_ratio"], gamma_min=p["gamma_min"],
        s_min=p["s_min"],
    )
    rows = [[float(t), float(v), float(b)] for t, v, b in zip(curve.t_values, curve.values, curve.tail_bounds)]
    values = {k: getattr(verdict, k) for k in ("gamma", "decay_ratio", "reasons", "label")}
    return CheckResult(
        verdict.criteria, values, sweep={"t_min": p["t_min"], "t_max": p["t_max"], "n_t": p["n_t"]},
        series={"kato_curve": {"columns": ["t", "N", "tail_bound"], "rows": rows}},
    )


def _qs(value, model):
    admissible = heatkato.kato.admissible_q
    if value == "auto" or (value and all(math.isfinite(q) and admissible(model.dim, q) for q in value)):
        return None
    return "must be auto or a comma-separated list of admissible exponents (q >= 1 if m = 1, else q > m/2)"


def _holder_s_floor(model):
    """The least s holder-check probes: 0 on a radial kernel; on a grid of
    spacing compact_resolution / 2 only the times it resolves, s >= (3 h)^2."""
    return 0.0 if model.radial_kernel else (1.5 * model.compact_resolution) ** 2


def _holder_times(p, model):
    floor = _holder_s_floor(model)
    if floor > 1.0:
        return f"its grid on {model.describe()} resolves only s >= {floor:.4g}, past the bound's s <= 1"
    geom = heatkato.geometry
    size = 0 if model.radial_kernel else geom.full_grid_size(model, model.compact_resolution / 2.0)
    if size > geom.MAX_GRID_NODES:
        return f"its grid on {model.describe()} would have {size} nodes, above {geom.MAX_GRID_NODES:,}"
    return None


def _check_holder(ctx: CheckContext, p: dict) -> CheckResult:
    import numpy as np

    geom, model = heatkato.geometry, ctx.model
    w = ctx.potential("windowed:r=1.5:radialpower:beta=0.35")
    control = heatkato.kato.control_pair_from_on_diag(ctx.engine)
    qs = p["qs"] if p["qs"] != "auto" else list(heatkato.kato.default_qs(model.dim))
    s_min = max(p["s_min"], _holder_s_floor(model))
    # the grid _holder_times counts; a radial kernel needs none
    grid = None if model.radial_kernel else geom.build_grid(model, model.compact_resolution / 2.0, geom.FullWindow())
    ss = np.logspace(math.log10(s_min), 0.0, p["n_s"])
    xs = [heatkato.potentials.center_of(w, model)] + _sample_points(model, 2, ctx.seed + 3)
    reps = heatkato.kato.holder_bound_check(ctx.engine, control, w, qs, ss, xs, grid=grid)
    return CheckResult(
        {name: c for rep in reps for name, c in rep.criteria.items()},
        {f"q={q:g}": rep for q, rep in zip(qs, reps)},
        sweep={"qs": qs, "n_s": p["n_s"], "s_min": s_min},
        empirical_constants=dict(control.constants),
    )


def _check_control_pair(ctx: CheckContext, p: dict) -> CheckResult:
    import numpy as np

    ts = np.logspace(math.log10(p["t_min"]), 0.0, p["n_t"])
    xs = [heatkato.geometry.base_point(ctx.model)]
    if p["source"] == "liyau":
        pair = heatkato.kato.control_pair_li_yau(ctx.engine, t_values=ts)
    elif p["source"] == "fk":
        fk = heatkato.kato.FaberKrahnControlPair(
            heatkato.kato.constant_radius_fn(ctx.model), heatkato.mvi.faber_krahn_constant(ctx.model.dim)
        )
        pair, _ = heatkato.kato.control_pair_from_faber_krahn(fk, ctx.engine)
    else:
        pair = heatkato.kato.control_pair_from_on_diag(ctx.engine, ts)
    ver = heatkato.kato.verify_control_pair(ctx.engine, pair, ts, xs)
    certs_ok = all(math.isfinite(v) for v in pair.certificates.values())
    return CheckResult(
        {"margin": (ver.min_margin if certs_ok else -math.inf, 1e-12)},
        {"certificates": {f"q={q:g}": v for q, v in pair.certificates.items()},
         **({"reasons": [ver.reason]} if ver.reason else {})},
        sweep={"t_min": float(ts.min()), "n_t": int(ts.size), "pair": pair.description},
        empirical_constants=dict(pair.constants),
    )


def _default_fk_sets(model: ManifoldModel):
    ball, box = heatkato.geometry.BallWindow, heatkato.geometry.BoxWindow
    o = heatkato.geometry.base_point(model)
    if model.dim == 2:
        s = math.sqrt(math.pi) / 2.0
        return [(o, ball(o, 1.0)), (o, ball(o, 0.5)), (o, box(o, (s, s))), (o, box(o, (0.8, 0.4)))]
    return [(o, ball(o, 1.0)), (o, box(o, (0.7, 0.7, 0.7)))]


def _fk_radius(value, model):
    circum = max(heatkato.mvi._region_circumradius(model, x, region) for x, region in _default_fk_sets(model))
    if not (math.isfinite(value) and value >= circum - 1e-9):
        return f"must be finite and >= {circum:.6g}, the circumradius of the default test sets"
    return None


def _fk_h(p: dict, model: ManifoldModel) -> float:
    """fk-verify's lattice spacing: the given h, else 1/48 in 2-d and 1/12 in
    3-d, where eigensolves grow fast (the default stays desk-scale)."""
    if p["h"] != "auto":
        return p["h"]
    return 1.0 / 48.0 if model.dim == 2 else 1.0 / 12.0


def _check_fk_verify(ctx: CheckContext, p: dict) -> CheckResult:
    a = heatkato.mvi.faber_krahn_constant(ctx.model.dim) * p["a_scale"]
    h = _fk_h(p, ctx.model)
    rep = heatkato.mvi.faber_krahn_verify(ctx.model, lambda x: p["radius"], a, _default_fk_sets(ctx.model), h=h)
    sweep = {"h": h, "a_scale": p["a_scale"]}
    return CheckResult(rep.criteria, rep.to_dict(), sweep=sweep, empirical_constants={"a": a})


def _check_mvi(ctx: CheckContext, p: dict) -> CheckResult:
    a = heatkato.mvi.faber_krahn_constant(ctx.model.dim)
    rep = heatkato.mvi.mvi_sweep(heatkato.mvi.default_config(ctx.model, a, radius=p["radius"]))
    # C_emp drifts at most 10 % under doubling; a NaN C_emp makes the drift NaN
    criteria = {"C_emp": (0.10 - rep.drift, 0.0)}
    return CheckResult(criteria, rep, sweep=rep.sweep, empirical_constants={"C_emp": rep.c_emp})


def _check_heat_bound(ctx: CheckContext, p: dict) -> CheckResult:
    import numpy as np

    a = heatkato.mvi.faber_krahn_constant(min(ctx.model.dim, 3))
    ts = np.logspace(math.log10(p["t_min"]), math.log10(p["t_max"]), p["n_t"])
    xs = [heatkato.geometry.base_point(ctx.model)]
    rep = heatkato.mvi.heat_bound_sweep(ctx.engine, lambda x: p["radius"], a, ts, xs)
    constants = {"C_hat": rep.c_hat, "a": a}
    return CheckResult({"C_hat": (0.10 - rep.drift, 0.0)}, rep, sweep=rep.sweep, empirical_constants=constants)


def _check_feynman_kac(ctx: CheckContext, p: dict) -> CheckResult:
    import numpy as np

    w = ctx.potential("cosine")
    ts = p["t_values"]
    start = heatkato.geometry.base_point(ctx.model)
    ens = heatkato.stochastics.simulate(ctx.model, start, max(ts), p["h"], p["n_paths"], ctx.seed)
    op = heatkato.semigroup.discretize(ctx.model, p["n_grid"], w)
    node = 0  # start sits at grid node 0
    criteria, rows, reasons = {}, [], []
    for t in ts:
        sub = ens.truncated(t)
        est = heatkato.stochastics.feynman_kac(sub, w)
        spectral = float(heatkato.semigroup.semigroup_apply(op, t, np.ones(op.size))[node])
        se = est.std_error
        z = (est.value - spectral) / se if math.isfinite(se) and se > 0 else math.nan
        if not math.isfinite(z):
            reasons.append(f"t={t:g}: no finite z-score (mc {est.value}, standard error {se})")
        rows.append([t, est.value, se, spectral, z])
        criteria[f"z at t={t:g}"] = (4.0 - abs(z) if math.isfinite(z) else -math.inf, 0.0)
    return CheckResult(
        criteria, {"rows": rows, **({"reasons": reasons} if reasons else {})},
        sweep={"n_paths": p["n_paths"], "h": p["h"], "n_grid": p["n_grid"]},
        series={"feynman_kac": {"columns": ["t", "mc", "stderr", "spectral", "z"], "rows": rows}},
    )


def _leaf_index(value, model):
    n = len(heatkato.potentials.leaves(model))
    return None if 0 <= value < n else f"must be a leaf index in 0..{n - 1}"


def _check_project(ctx: CheckContext, p: dict) -> CheckResult:
    leaf = heatkato.potentials.leaves(ctx.model)[p["leaf"]][0]
    w = ctx.potential("indicator:ball:r=1", target=leaf)
    x = heatkato.geometry.base_point(ctx.model)
    rep = heatkato.stochastics.elworthy_projection_check(
        ctx.model, p["leaf"], w, p["t"], x, N=p["n_paths"], h=p["h"], seed=ctx.seed
    )
    return CheckResult(rep.criteria, rep, sweep={"t": p["t"], "leaf": p["leaf"], "n_paths": p["n_paths"]})


def _check_kato_exponential(ctx: CheckContext, p: dict) -> CheckResult:
    w = ctx.potential("windowed:r=1:radialpower:beta=0.5")
    rep = heatkato.stochastics.kato_exponential_estimate(
        ctx.model, w, p["t_values"], p["deltas"], p["n_paths"], h=p["h"], seed=ctx.seed,
    )
    finite = all(math.isfinite(e["C"]) for e in rep.table) and not rep.overflowed
    return CheckResult(
        {"C(delta) finite": (0.0 if finite else -math.inf, 0.0)}, rep,
        sweep={"n_paths": p["n_paths"], "h": p["h"]},
        empirical_constants={f"C(delta={e['delta']:g})": e["C"] for e in rep.table},
    )


def _check_semigroup(ctx: CheckContext, p: dict) -> CheckResult:
    sg, pot = heatkato.semigroup, heatkato.potentials
    w_minus = ctx.potential("radialpower:beta=0.5")
    op_minus = sg.discretize(ctx.model, p["n_grid"], pot.Scale(-1.0, pot.absolute(w_minus)))
    bound = sg.bop_bound_check(op_minus, p["t_values"], p["deltas"], qs=(1, 2, 4, math.inf), seed=ctx.seed)
    return CheckResult(
        {"margin": (bound.min_margin, 1e-10), "domination margin": (bound.domination_margin, 1e-10)}, bound,
        sweep={"n_grid": p["n_grid"]},
        empirical_constants={f"C(delta={e['delta']:g})": e["C"] for e in bound.table},
    )


def _check_riesz(ctx: CheckContext, p: dict) -> CheckResult:
    op = heatkato.semigroup.discretize(ctx.model, p["n_grid"], ctx.potential("cosine"))
    rep = heatkato.semigroup.riesz_thorin_check(op, p["t"], p["r_values"])
    return CheckResult({"margin": (rep.min_margin, 1e-10)}, rep, sweep={"t": p["t"], "n_grid": p["n_grid"]})


def _check_coulomb(ctx: CheckContext, p: dict) -> CheckResult:
    import numpy as np

    geom = heatkato.geometry
    o = geom.base_point(ctx.model)
    profile = heatkato.potentials.coulomb_profile(ctx.model)
    tol = p["rel_tol"]
    criteria, rows = {}, []
    for r in p["r_values"]:
        v = np.zeros(ctx.model.tangent_dim)
        v[0] = r  # the metric is the identity at the base point
        y = geom.exp_map(ctx.model, o, v)
        d = geom.distance(ctx.model, o, y)
        cv = heatkato.potentials.coulomb(ctx.engine, o, y, tol=min(tol / 10.0, 1e-8))
        closed = float(profile(np.array([d]))[0])
        rel = abs(cv.value - closed) / closed
        rows.append([d, cv.value, closed, rel, cv.tail_bound])
        # the margin nets out rel_tol, so the tolerance is 0
        criteria[f"rel_err at r={r:g}"] = (tol - rel, 0.0)
    return CheckResult(
        criteria, {"rows": rows}, sweep={"r_values": p["r_values"]},
        series={"coulomb": {"columns": ["d", "quadrature", "closed_form", "rel_err", "tail"], "rows": rows}},
    )


def _coulomb_distances(values, model):
    # on hyperbolic3 the closed form e^{-r} / (4 pi sinh r) is a normal double up to r = 350
    top = 350.0 if isinstance(model, heatkato.geometry.Hyperbolic3) else 1e6
    return _list_of(lambda v: 0 < v <= top, f"in (0, {top:g}]")(values, model)


def _kernel_times(p, model):
    hk = heatkato.heat_kernel
    engine = hk.make_engine(model)
    capped = [t for t in p["t_values"] if hk.series_cap_exceeded(engine, t)]
    return f"t_values {capped} need more than {hk.LMAX_CAP} series terms" if capped else None


def _is_kato_times(p, model):
    if p["t_min"] == p["t_max"]:
        return "t_min and t_max must differ"
    # N(t) integrates s over [s_min, t] only: is_kato refuses t <= s_min
    low = min(p["t_min"], p["t_max"]) <= p["s_min"]
    return f"t_min and t_max must exceed s_min = {p['s_min']:g}" if low else None


def _fk_grid(p, model):
    mvi = heatkato.mvi
    regions = [region for _, region in _default_fk_sets(model)]
    h = _fk_h(p, model)
    if any(mvi.fd_grid_too_fine(model, region, h) for region in regions):
        return f"h leaves more than {mvi._FD_MAX_NODES:,} lattice nodes in the finest grid of a test set"
    h = max(h, 1.0 / 12.0)  # all finer h pass on the default sets; keeps 3-d masks small
    coarse = any(mvi.fd_grid_too_coarse(model, region, h) for region in regions)
    return "h leaves too few grid nodes in the smallest test set" if coarse else None


def _fk_times(p, model):
    horizon = max(p["t_values"])
    if p["h"] > horizon:
        return f"h exceeds the largest t ({horizon:g})"
    step = horizon / max(1, round(horizon / p["h"]))  # the paths' step, as simulate takes it
    off = [t for t in p["t_values"] if abs(round(t / step) * step - t) > 1e-9 + 1e-9 * t]
    if off:
        return f"t_values {off} are not multiples of the step {step:g}"
    st = heatkato.stochastics
    return st.walk_problem(model, st.step_count(horizon, p["h"]), True, p["n_paths"])  # as simulate refuses it


def _project_walk(p, model):
    if not p["n_paths"]:
        return None
    if p["h"] > p["t"]:
        return f"h exceeds t = {p['t']:g}"
    st = heatkato.stochastics
    return st.walk_problem(model, st.step_count(p["t"], p["h"]), False, p["n_paths"], 1)  # t recorded alone


def _exponential_walk(p, model):
    st = heatkato.stochastics
    return st.walk_problem(model, st.step_count(max(p["t_values"]), p["h"]), True, p["n_paths"], held=False)


CHECKS: dict[str, CheckSpec] = {
    "kernel-check": CheckSpec(
        _check_kernel,
        "int p(t,x,y) dmu(y) <= 1; int p(t,x,z) p(s,z,y) dmu(z) = p(t+s,x,y); p(t,x,y) = p(t,y,x)",
        {"t_values": (_floats, "0.05,0.2,0.7", _TIMES), "n_points": (int, 4, _at_least(1))},
        "heat kernel mass / Chapman-Kolmogorov / symmetry",
        models=_KERNEL_MODELS,
        check=_kernel_times,
    ),
    "kato-norm": CheckSpec(
        _check_kato_norm,
        "N(t) = sup_x int_0^t int p(s,x,y) |w(y)| dmu(y) ds < inf",
        {"t": (float, 0.1, _TIME), "n_x": (int, 3, _at_least(1)), "s_min": (float, 1e-9, _TIME)},
        "Kato functional N(t) at one t",
        models=_KATO_MODELS,
    ),
    "is-kato": CheckSpec(
        _check_is_kato,
        "lim_{t->0+} sup_x int_0^t int p(s,x,y)|w(y)| dmu ds = 0   [numerical evidence]",
        {
            "t_min": (float, 1e-3, _TIME),
            "t_max": (float, 0.5, _TIME),
            "n_t": (int, 6, _at_least(2)),
            "threshold_ratio": (float, 0.3, _POSITIVE),
            "gamma_min": (float, 0.05, _NONNEGATIVE),
            "s_min": (float, 1e-9, _TIME),
        },
        "Kato-class membership verdict (numerical evidence)",
        models=_KATO_MODELS,
        check=_is_kato_times,
    ),
    "holder-check": CheckSpec(
        _check_holder,
        "int p(s,x,y)|w(y)| dmu <= time(s)^{1/q} (int |w|^q space dmu)^{1/q}",
        {"qs": (_auto_or_floats, "auto", _qs), "n_s": (int, 10, _at_least(1)), "s_min": (float, 1e-3, _UNIT_TIME)},
        "weighted-L^q smoothing bound margins",
        models=_KATO_MODELS,
        check=_holder_times,
    ),
    "control-pair": CheckSpec(
        _check_control_pair,
        "sup_y p(t,x,y) <= space(x) * time(t) on (0,1]; int_0^1 time(s)^{1/q} ds < inf",
        {
            "source": (str, "ondiag", _domain(lambda v: v in ("ondiag", "liyau", "fk"), "ondiag, liyau or fk")),
            "t_min": (float, 1e-4, _UNIT_TIME),
            "n_t": (int, 50, _at_least(1)),
        },
        "control pair construction and verification",
    ),
    "fk-verify": CheckSpec(
        _check_fk_verify,
        "min spec(H_{g|U}) >= a vol(U)^{-2/m} for open U inside B(x, R(x))",
        {
            "h": (lambda v: "auto" if v == "auto" else float(v), "auto", _AUTO_OR_POSITIVE),
            "a_scale": (float, 1.0, _POSITIVE),
            "radius": (float, 2.5, _fk_radius),
        },
        "Faber-Krahn inequality on test sets",
        models=_EUCLIDEAN_2_3,
        check=_fk_grid,
    ),
    "mvi-sweep": CheckSpec(
        _check_mvi,
        "u(t,x)^q <= C / (a^{m/2} tau^{1+m/2}) * int_{t-tau}^t int_{B(x,r)} u^q dmu ds",
        {"radius": (float, 1.0, _POSITIVE)},
        "parabolic mean value inequality sweep",
        models=_EUCLIDEAN_2_3,
    ),
    "heat-bound": CheckSpec(
        _check_heat_bound,
        "sup_y p(t,x,y) <= C a^{-m/2} min(t, R(x)^2)^{-m/2}",
        {
            "t_min": (float, 1e-3, _TIME),
            "t_max": (float, 10.0, _TIME),
            "n_t": (int, 25, _at_least(1)),
            "radius": (float, 1.0, _POSITIVE),
        },
        "min(t, R^2)^{-m/2} heat bound constant",
    ),
    "feynman-kac": CheckSpec(
        _check_feynman_kac,
        "E[exp(-int_0^t w(X_s) ds) f(X_t)] = (e^{-tH} f)(x)",
        {
            "t_values": (_floats, "0.25,0.5,1.0", _POSITIVE_LIST),
            "n_paths": (int, 20000, _at_least(2)),
            "h": (float, 2e-3, _POSITIVE),
            "n_grid": (int, 8192, _spectral_grid),
        },
        "Monte-Carlo Feynman-Kac against the spectral semigroup",
        models=_CIRCLE,
        check=_fk_times,
    ),
    "project-check": CheckSpec(
        _check_project,
        "int p(t,x,y)|w(pi(y))| dmu(y) <= int p'(t,pi(x),z)|w(z)| dmu'(z)",
        {
            "t": (float, 0.3, _TIME),
            "leaf": (int, 0, _leaf_index),
            "n_paths": (int, 0, _domain(lambda v: v == 0 or v >= 2, "0 (no Monte Carlo) or >= 2")),
            "h": (float, 2e-3, _POSITIVE),
        },
        "projection bound for product projections",
        models=("a product manifold", lambda m: isinstance(m, heatkato.geometry.Product)),
        check=_project_walk,
    ),
    "kato-exponential": CheckSpec(
        _check_kato_exponential,
        "sup_x E[exp(int_0^t w_-(X_s) ds)] <= delta exp(t C(delta))",
        {
            "t_values": (_floats, "0.25,0.5,1.0", _POSITIVE_LIST),
            "deltas": (_floats, "1.5,2,4", _DELTAS),
            "n_paths": (int, 4000, _at_least(2)),
            "h": (float, 2e-3, _POSITIVE),
        },
        "exponential moment table (delta, C(delta))",
        check=_exponential_walk,
    ),
    "semigroup-bound": CheckSpec(
        _check_semigroup,
        "||e^{-t H^{-w_-}}||_{q->q} <= delta e^{t C(delta)}; |e^{-tH^w} f| <= e^{-tH^{-w_-}} |f|",
        {
            "n_grid": (int, 192, _n_grid),
            "t_values": (_floats, "0,0.5,1,2", _list_of(lambda v: v >= 0, ">= 0")),
            "deltas": (_floats, "1.5,2,4", _DELTAS),
        },
        "L^q -> L^q semigroup bound",
        models=_CIRCLE,
    ),
    "riesz-thorin": CheckSpec(
        _check_riesz,
        "||e^{-tH}||_{q_r->q_r} <= ||.||_{1->1}^{1-r} ||.||_{inf->inf}^{r}",
        {
            "n_grid": (int, 192, _n_grid),
            "t": (float, 0.5, _NONNEGATIVE),
            "r_values": (_floats, "0.25,0.5,0.75", _list_of(lambda v: 0 < v < 1, "in (0, 1)")),
        },
        "Riesz-Thorin interpolation margins",
        models=_CIRCLE,
    ),
    "coulomb": CheckSpec(
        _check_coulomb,
        "V(x,y) = (1/2) int_0^inf p(s,x,y) ds, finite for x != y",
        {"r_values": (_floats, "0.1,1,10", _coulomb_distances),
         "rel_tol": (float, 1e-6, _POSITIVE)},
        "Coulomb potential quadrature against the closed form",
        models=("euclidean:3 or hyperbolic3", lambda m: heatkato.potentials._coulomb_supported(m)),
    ),
}


# ---------------------------------------------------------------------------
# batteries


BATTERIES: dict[str, list[dict]] = {
    "paper-core": [
        {"manifold": "circle", "checks": ["kernel-check"]},
        {"manifold": "euclidean:3", "checks": ["kernel-check", "control-pair", "coulomb", "is-kato"],
         "params": {"is-kato": {"n_t": "4"}}},
        {"manifold": "hyperbolic3", "checks": ["control-pair"],
         "params": {"control-pair": {"source": "liyau"}}},
        {"manifold": "euclidean:2", "checks": ["fk-verify", "mvi-sweep", "heat-bound"]},
    ],
    "stochastic": [
        {"manifold": "product(euclidean:1,circle)", "checks": ["project-check"]},
        {"manifold": "euclidean:1", "checks": ["kato-exponential"],
         "params": {"kato-exponential": {"n_paths": "2000"}}},
    ],
    "semigroup": [
        {"manifold": "circle", "checks": ["semigroup-bound", "riesz-thorin", "feynman-kac"],
         "params": {"feynman-kac": {"n_paths": "4000", "t_values": "0.25"}}},
    ],
}


def list_batteries() -> str:
    return "\n".join(sorted(BATTERIES)) + "\n"


# ---------------------------------------------------------------------------
# runner


def run_check(ctx: CheckContext, name: str) -> CheckResult:
    """Run one registered check; a package error inside it is a FAIL that
    carries the message."""
    spec = CHECKS[name]
    t0 = time.perf_counter()
    try:
        result = spec.runner(ctx, _params(ctx.manifest, name))
        result.inequality = spec.inequality
    except HeatKatoError as exc:
        result = CheckResult({"error": (-math.inf, 0.0)}, {"error": str(exc)})
    result.name = name
    result.runtime_s = time.perf_counter() - t0
    return result


def run_manifest(manifest: ExperimentManifest) -> Report:
    validate_manifest(manifest)  # first: a manifest it refuses loads no kernel layer
    model = heatkato.geometry.parse_manifold(manifest.manifold)
    ctx = CheckContext(model, heatkato.heat_kernel.make_engine(model), manifest, manifest.seed)
    results = [run_check(ctx, name) for name in manifest.checks]
    return Report(
        manifest=manifest.to_dict(),
        tool_version=__version__,
        seed=manifest.seed,
        timestamp=datetime.now(timezone.utc).isoformat(),
        checks=results,
    )


def _open_output(path: str, mode: str = "w"):
    """``path`` opened for writing, its directory made first; a path that
    cannot be opened is a usage error (exit 2), not a traceback."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        return open(path, mode, newline="")
    except OSError as exc:  # a file in the way, a directory, no permission
        raise HeatKatoError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_outputs(*paths) -> None:
    """Exit 2 before any numerics when an output path cannot be opened: each
    is opened for appending and closed again, and a file that this made is
    removed, so the run writes its outputs as before."""
    for path in filter(None, paths):
        made = not Path(path).exists()
        _open_output(path, "a").close()
        if made:
            Path(path).unlink()


def write_outputs(report: Report, manifest: ExperimentManifest):
    out = manifest.out
    if out:
        with _open_output(out) as fh:
            fh.write(report.to_json())
    if manifest.emit_csv and out:
        stem = Path(out).with_suffix("")
        for check in report.checks:
            for sname, data in check.series.items():
                with _open_output(f"{stem}.{check.name}.{sname}.csv") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(data["columns"])
                    writer.writerows(data["rows"])


def _print_summary(report: Report):
    for c in report.checks:
        print(f"[{c.verdict}] {c.name}: margin_min={c.margin_min:.6g} tol={c.tolerance:.3g} ({c.runtime_s:.2f}s)")
    print("all checks PASS" if report.all_pass else "some checks FAILED")


# ---------------------------------------------------------------------------
# entry point


def _integer_in(low: int, high: float, what: str):
    """An argument type: an integer in [low, high), else a usage error that
    says it must be <what>."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_at_least_one = _integer_in(1, math.inf, "an integer >= 1")  # counts rows
# the seeds numpy's generators and the path sampler both take as they are
_seed = _integer_in(0, 2**64, "an integer in [0, 2^64)")


def _apply_overrides(manifest: ExperimentManifest, args) -> ExperimentManifest:
    if args.seed is not None:
        manifest.seed = args.seed
    if getattr(args, "out", None):
        manifest.out = args.out
    return manifest


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(prog="heatkato", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for command, target, helptext in (("run", "manifest", "run an experiment manifest"),
                                      ("run-battery", "name", "run a built-in battery")):
        run_p = sub.add_parser(command, help=helptext)
        run_p.add_argument(target)
        run_p.add_argument("--seed", type=_seed, default=None)
        run_p.add_argument("--out", default=None)

    sub.add_parser("list-batteries", help="print battery names")

    sim_p = sub.add_parser("simulate", help="sample a Brownian ensemble")
    sim_p.add_argument("--manifold", required=True)
    sim_p.add_argument("--t", type=float, required=True)
    sim_p.add_argument("--h", type=float, default=1e-3)
    sim_p.add_argument("--n", type=int, default=1000)
    sim_p.add_argument("--seed", type=_seed, default=0)
    sim_p.add_argument("--out", default=None)
    sim_p.add_argument("--dump-paths", default=None, help="CSV path for (path, t, coords...) rows")
    sim_p.add_argument("--max-dump-rows", type=_at_least_one, default=1_000_000)

    for name, spec in CHECKS.items():
        cp = sub.add_parser(name, help=spec.description)
        cp.add_argument("--manifold", required=True)
        cp.add_argument("--potential", default=None)
        cp.add_argument("--seed", type=_seed, default=0)
        cp.add_argument("--out", default=None)
        cp.add_argument("--param", action="append", default=[], help="key=value override")

    args = parser.parse_args(argv)
    code = 0
    try:
        if args.command == "list-batteries":
            sys.stdout.write(list_batteries())
        elif args.command == "run-battery":
            if args.name not in BATTERIES:
                raise ManifestError(f"unknown battery {args.name!r}; see list-batteries")
            _check_outputs(args.out)
            reports = []
            for entry in BATTERIES[args.name]:
                manifest = ExperimentManifest(
                    manifold=entry["manifold"],
                    checks=list(entry["checks"]),
                    params={k: dict(v) for k, v in entry.get("params", {}).items()},
                )
                manifest = _apply_overrides(manifest, args)
                manifest.out = None
                report = run_manifest(manifest)
                code = max(code, 0 if report.all_pass else 1)
                print(f"== {entry['manifold']} ==")
                _print_summary(report)
                reports.append(report)
            if args.out:
                combined = {
                    "battery": args.name,
                    "reports": [r.to_dict() for r in reports],
                    "all_pass": code == 0,
                }
                with _open_output(args.out) as fh:
                    fh.write(json.dumps(combined, sort_keys=True, indent=2) + "\n")
        elif args.command == "simulate":
            _check_outputs(args.out, args.dump_paths)
            code = _cmd_simulate(args)
        else:  # a manifest, or a single-check subcommand
            if args.command == "run":
                manifest = _apply_overrides(load_manifest(args.manifest), args)
            else:
                manifest = ExperimentManifest(
                    manifold=args.manifold,
                    checks=[args.command],
                    potential=args.potential,
                    seed=args.seed,
                    out=args.out,
                )
                for kv in args.param:
                    k, _, v = kv.partition("=")
                    if k not in CHECKS[args.command].params:
                        raise ManifestError(f"check {args.command!r} has no parameter {k!r}")
                    manifest.params.setdefault(args.command, {})[k] = v
            _check_outputs(manifest.out)
            report = run_manifest(manifest)
            write_outputs(report, manifest)
            code = 0 if report.all_pass else 1
            _print_summary(report)
        sys.stdout.flush()  # a reader that has exited shows here, not at the exit's flush
    except BrokenPipeError:
        # stdout's reader has exited (``list-batteries | head -0``): end quietly
        # with the verdict's code, with stdout on devnull for the exit's flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    except HeatKatoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _cmd_simulate(args) -> int:
    import numpy as np

    geom, st = heatkato.geometry, heatkato.stochastics
    model = geom.parse_manifold(args.manifold)
    start = geom.base_point(model)
    steps_total = st.step_count(args.t, args.h)
    record = None
    if args.dump_paths is None and args.n * (steps_total + 1) * model.chart_dim * 8 > 2e8:
        record = list(np.linspace(0.0, args.t, 33))
    ens = st.simulate(model, start, args.t, args.h, args.n, args.seed, record_times=record)
    final = ens.chart_at(len(ens.record_times) - 1)
    summary = {
        "manifold": args.manifold,
        "n_paths": ens.n_paths,
        "horizon": ens.horizon,
        "step": ens.step,
        "seed": ens.seed,
        "step_warning": ens.step_warning,
        "final_mean": [float(v) for v in final.mean(axis=0)],
        "final_second_moment": [float(v) for v in (final**2).mean(axis=0)],
    }
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    if args.out:
        with _open_output(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.dump_paths:
        rows_per_path = len(ens.record_times)
        max_paths = max(1, args.max_dump_rows // rows_per_path)
        with _open_output(args.dump_paths) as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "t"] + [f"x{i}" for i in range(ens.positions.shape[2])])
            for i in range(min(ens.n_paths, max_paths)):
                for j, t in enumerate(ens.record_times):
                    writer.writerow([i, f"{t:.10g}"] + [f"{v:.10g}" for v in ens.positions[i, j]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
