"""Experiment manifests, check orchestration and machine-readable reports.

Manifest format: a structured key-value text file, one ``key = value`` pair
per line, ``#`` comments.  Keys:

    manifold        = euclidean:3 | torus:2:6.2832 | sphere2 | hyperbolic3
                      | circle | product(a,b)
    kernel.method   = auto | series[:lmax] | imagesum[:K]
    potential       = e.g. radialpower:beta=1:center=0,0,0   (optional)
    checks          = comma-separated subset of the check registry
    seed            = integer
    out             = report path (JSON)
    emit_csv        = true | false       (plot series next to the report)
    tolerance_scale = float              (scales every verdict tolerance)
    param.<check>.<key> = value          (check-specific numerics)

Unknown keys are rejected with their line number.  Exit codes: 0 all checks
PASS, 1 any FAIL, 2 manifest/validation error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import geometry as geom
from . import heat_kernel as hk
from . import kato as kato_mod
from . import mvi as mvi_mod
from . import potentials as pot
from . import semigroup as sg
from . import stochastics as st
from .errors import HeatKatoError, ManifestError
from .geometry import BallWindow, BoxWindow, Kind, ManifoldModel
from .reporting import CheckResult, Report

# ---------------------------------------------------------------------------
# manifest


@dataclass
class ExperimentManifest:
    manifold: str
    checks: list
    kernel_method: str = "auto"
    potential: str | None = None
    seed: int = 0
    out: str | None = None
    emit_csv: bool = False
    tolerance_scale: float = 1.0
    params: dict = field(default_factory=dict)  # check -> {key: raw string}

    def to_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "kernel.method": self.kernel_method,
            "potential": self.potential,
            "checks": list(self.checks),
            "seed": self.seed,
            "out": self.out,
            "emit_csv": self.emit_csv,
            "tolerance_scale": self.tolerance_scale,
            "params": {k: dict(v) for k, v in self.params.items()},
        }


_TOP_KEYS = {"manifold", "kernel.method", "potential", "checks", "seed", "out", "emit_csv", "tolerance_scale"}


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
                fields["seed"] = int(value)
            except ValueError:
                raise ManifestError(f"seed must be an integer, got {value!r}", lineno, col)
        elif key == "tolerance_scale":
            try:
                fields["tolerance_scale"] = float(value)
            except ValueError:
                raise ManifestError(f"tolerance_scale must be a number, got {value!r}", lineno, col)
        elif key == "emit_csv":
            if value.lower() not in ("true", "false"):
                raise ManifestError(f"emit_csv must be true or false, got {value!r}", lineno, col)
            fields["emit_csv"] = value.lower() == "true"
        elif key == "kernel.method":
            fields["kernel_method"] = value
        else:
            fields[key] = value
    if "manifold" not in fields:
        raise ManifestError("manifest needs a 'manifold' key")
    if "checks" not in fields:
        raise ManifestError("manifest needs a 'checks' key (may be empty)")
    return ExperimentManifest(**fields)


def load_manifest(path: str) -> ExperimentManifest:
    return parse_manifest_text(Path(path).read_text())


def validate_manifest(manifest: ExperimentManifest) -> None:
    model = geom.parse_manifold(manifold_spec(manifest))
    try:
        hk.make_engine(model, manifest.kernel_method)
    except HeatKatoError as exc:
        raise ManifestError(f"kernel.method: {exc}")
    for name in manifest.checks:
        if name not in CHECKS:
            raise ManifestError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
        models = CHECKS[name].models
        if models is not None and not models[1](model):
            raise ManifestError(f"{name} runs on {models[0]}, not on {manifest.manifold}")
    if manifest.potential is not None:
        target = model
        if manifest.checks == ["project-check"] and model.kind is Kind.PRODUCT:
            target = pot.leaves(model)[0][0]
        try:
            pot.parse_potential(manifest.potential, target)
        except HeatKatoError as exc:
            raise ManifestError(f"potential: {exc}")
    for check, kv in manifest.params.items():
        spec = CHECKS[check]
        for k, v in kv.items():
            try:
                value = spec.params[k][0](v)
            except ValueError:
                raise ManifestError(f"param.{check}.{k}: cannot parse {v!r}")
            problem = spec.domains[k](value, model) if k in spec.domains else None
            if problem:
                raise ManifestError(f"param.{check}.{k} = {v}: {problem}")


def manifold_spec(manifest: ExperimentManifest) -> str:
    return manifest.manifold


# ---------------------------------------------------------------------------
# check registry


@dataclass
class CheckContext:
    model: ManifoldModel
    engine: hk.HeatKernelEngine
    manifest: ExperimentManifest
    seed: int
    scale: float

    def potential(self, default_spec: str, target: ManifoldModel | None = None) -> pot.Potential:
        spec = self.manifest.potential or default_spec
        return pot.parse_potential(spec, target or self.model)


@dataclass
class CheckSpec:
    runner: object
    params: dict  # name -> (caster, default)
    description: str
    models: tuple | None = None  # (what, predicate on the model); None runs on every model
    domains: dict = field(default_factory=dict)  # name -> f(value, model): problem or None


_EUCLIDEAN_2_3 = (
    "euclidean:2 or euclidean:3",
    lambda model: model.kind is Kind.EUCLIDEAN and model.dim in (2, 3),
)


def _positive(value, model):
    return None if math.isfinite(value) and value > 0 else "must be finite and > 0"


def _params(ctx: CheckContext, name: str) -> dict:
    spec = CHECKS[name].params
    raw = ctx.manifest.params.get(name, {})
    out = {}
    for key, (caster, default) in spec.items():
        out[key] = caster(raw[key]) if key in raw else default
    return out


def _floats(text: str) -> list:
    return [float(v) for v in str(text).split(",") if str(v).strip()]


def _sample_points(model, n, seed, spread=1.2):
    rng = np.random.default_rng(seed)
    return [geom.random_point(model, rng, spread) for _ in range(n)]


def _check_kernel(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    ts = _floats(p["t_values"])
    pts = _sample_points(ctx.model, p["n_points"], ctx.seed + 1)
    rep = hk.check_consistency(ctx.engine, ts, pts)
    series_free = ctx.engine.method in (hk.Method.CLOSED_FORM,)
    ck_tol = (1e-6 if series_free else 1e-4) * ctx.scale
    mass_tol = 1e-6 * ctx.scale
    sym_tol = max(2.0 * rep.truncation_bound, 1e-12) * ctx.scale
    margin = min(
        mass_tol - rep.mass_defect, ck_tol - rep.ck_residual, sym_tol - rep.symmetry_residual
    )
    return CheckResult(
        name=name,
        verdict="PASS" if margin >= 0 else "FAIL",
        inequality="int p(t,x,y) dmu(y) <= 1; int p(t,x,z) p(s,z,y) dmu(z) = p(t+s,x,y); p(t,x,y) = p(t,y,x)",
        margin_min=margin,
        tolerance=max(mass_tol, ck_tol),
        values=rep.to_dict(),
        sweep={"t_values": ts, "n_points": p["n_points"]},
    )


def _default_radial_spec(model: ManifoldModel) -> str:
    # 1/d is not locally integrable in one dimension; use a milder default there
    return "radialpower:beta=1" if model.dim >= 2 else "radialpower:beta=0.5"


def _check_kato_norm(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    w = ctx.potential(_default_radial_spec(ctx.model))
    xs = [kato_mod._potential_center(w, ctx.model)] + _sample_points(ctx.model, p["n_x"] - 1, ctx.seed + 2)
    val = kato_mod.kato_functional(ctx.engine, w, p["t"], xs, s_min=p["s_min"])
    return CheckResult(
        name=name,
        verdict="PASS" if math.isfinite(val) else "FAIL",
        inequality="N(t) = sup_x int_0^t int p(s,x,y) |w(y)| dmu(y) ds < inf",
        margin_min=0.0 if math.isfinite(val) else -math.inf,
        tolerance=0.0,
        values={"t": p["t"], "N": val},
        sweep={"n_x": p["n_x"], "s_min": p["s_min"]},
    )


def _check_is_kato(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    w = ctx.potential(_default_radial_spec(ctx.model))
    ts = np.logspace(math.log10(p["t_min"]), math.log10(p["t_max"]), int(p["n_t"]))
    curve, verdict = kato_mod.is_kato(
        ctx.engine, w, ts, threshold_ratio=p["threshold_ratio"], gamma_min=p["gamma_min"],
        s_min=p["s_min"],
    )
    rows = [
        [float(t), float(v), float(b)]
        for t, v, b in zip(curve.t_values, curve.values, curve.tail_bounds)
    ]
    return CheckResult(
        name=name,
        verdict="PASS" if verdict.passed else "FAIL",
        inequality="lim_{t->0+} sup_x int_0^t int p(s,x,y)|w(y)| dmu ds = 0   [numerical evidence]",
        margin_min=p["threshold_ratio"] - verdict.decay_ratio,
        tolerance=0.0,
        values={
            "gamma": verdict.gamma,
            "decay_ratio": verdict.decay_ratio,
            "reasons": verdict.reasons,
            "label": verdict.label,
        },
        sweep={"t_min": p["t_min"], "t_max": p["t_max"], "n_t": int(p["n_t"])},
        series={"kato_curve": {"columns": ["t", "N", "tail_bound"], "rows": rows}},
    )


def _check_holder(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    m = ctx.model.dim
    w = ctx.potential("windowed:r=1.5:radialpower:beta=0.35")
    control = kato_mod.control_pair_from_on_diag(ctx.engine)
    qs = _floats(p["qs"]) if p["qs"] != "auto" else list(kato_mod.default_qs(m))
    s_min = p["s_min"]
    grid = None
    if ctx.model.kind not in kato_mod.RADIAL_KERNEL_KINDS:
        # grid-quadrature models: only probe times the grid can resolve
        res = hk._compact_resolution(ctx.model) / 2.0
        grid = geom.build_grid(ctx.model, res, geom.FullWindow())
        s_min = max(s_min, (3.0 * res) ** 2)
    ss = np.logspace(math.log10(s_min), 0.0, int(p["n_s"]))
    xs = [kato_mod._potential_center(w, ctx.model)] + _sample_points(ctx.model, 2, ctx.seed + 3)
    worst = math.inf
    tol = 0.0
    per_q = {}
    for q in qs:
        rep = kato_mod.holder_bound_check(ctx.engine, control, w, q, ss, xs, grid=grid)
        per_q[f"q={q:g}"] = rep.to_dict()
        if not rep.rhs_divergent:
            worst = min(worst, rep.min_margin)
            tol = max(tol, rep.tolerance)
    return CheckResult(
        name=name,
        verdict="PASS" if worst >= -tol else "FAIL",
        inequality="int p(s,x,y)|w(y)| dmu <= time(s)^{1/q} (int |w|^q space dmu)^{1/q}",
        margin_min=worst,
        tolerance=tol,
        values=per_q,
        sweep={"qs": qs, "n_s": int(p["n_s"]), "s_min": s_min},
        empirical_constants=dict(control.constants),
    )


def _check_control_pair(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    ts = np.logspace(math.log10(p["t_min"]), 0.0, int(p["n_t"]))
    xs = [geom.base_point(ctx.model)]
    if p["source"] == "liyau":
        pair = kato_mod.control_pair_li_yau(ctx.engine, t_values=ts)
    elif p["source"] == "fk":
        fk = kato_mod.FaberKrahnControlPair(
            kato_mod.constant_radius_fn(ctx.model), kato_mod.faber_krahn_constant(ctx.model.dim)
        )
        pair, _ = kato_mod.control_pair_from_faber_krahn(fk, ctx.engine)
    else:
        pair = kato_mod.control_pair_from_on_diag(ctx.engine, ts)
    ver = kato_mod.verify_control_pair(ctx.engine, pair, ts, xs)
    certs_ok = all(math.isfinite(v) for v in pair.certificates.values())
    margin = ver.min_margin if certs_ok else -math.inf
    return CheckResult(
        name=name,
        verdict="PASS" if margin >= -1e-12 * ctx.scale else "FAIL",
        inequality="sup_y p(t,x,y) <= space(x) * time(t) on (0,1]; int_0^1 time(s)^{1/q} ds < inf",
        margin_min=margin,
        tolerance=1e-12 * ctx.scale,
        values={"certificates": {f"q={q:g}": v for q, v in pair.certificates.items()}},
        sweep={"t_min": float(ts.min()), "n_t": int(ts.size), "pair": pair.description},
        empirical_constants=dict(pair.constants),
    )


def _default_fk_sets(model: ManifoldModel):
    o = geom.base_point(model)
    if model.dim == 2:
        s = math.sqrt(math.pi) / 2.0
        return [
            (o, BallWindow(o, 1.0)),
            (o, BallWindow(o, 0.5)),
            (o, BoxWindow(o, (s, s))),
            (o, BoxWindow(o, (0.8, 0.4))),
        ]
    return [(o, BallWindow(o, 1.0)), (o, BoxWindow(o, (0.7, 0.7, 0.7)))]


def _fk_radius(value, model):
    circum = max(kato_mod._region_circumradius(model, x, region) for x, region in _default_fk_sets(model))
    if not (math.isfinite(value) and value >= circum - 1e-9):
        return f"must be finite and >= {circum:.6g}, the circumradius of the default test sets"
    return None


def _check_fk_verify(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    m = ctx.model.dim
    a = kato_mod.faber_krahn_constant(m) * p["a_scale"]
    radius_fn = lambda x: p["radius"]
    h = p["h"]
    if "h" not in ctx.manifest.params.get(name, {}) and m == 3:
        h = 1.0 / 12.0  # 3-d eigensolves grow fast; the default stays desk-scale
    rep = kato_mod.faber_krahn_verify(ctx.model, radius_fn, a, _default_fk_sets(ctx.model), h=h)
    return CheckResult(
        name=name,
        verdict="PASS" if rep.passed else "FAIL",
        inequality="min spec(H_{g|U}) >= a vol(U)^{-2/m} for open U inside B(x, R(x))",
        margin_min=rep.min_margin,
        tolerance=rep.tolerance,
        values=rep.to_dict(),
        sweep={"h": h, "a_scale": p["a_scale"]},
        empirical_constants={"a": a},
    )


def _check_mvi(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    a = kato_mod.faber_krahn_constant(ctx.model.dim)
    cfg = mvi_mod.default_config(ctx.model, a, radius=p["radius"])
    rep = mvi_mod.mvi_sweep(cfg)
    ok = rep.stable and math.isfinite(rep.c_emp)
    return CheckResult(
        name=name,
        verdict="PASS" if ok else "FAIL",
        inequality="u(t,x)^q <= C / (a^{m/2} tau^{1+m/2}) * int_{t-tau}^t int_{B(x,r)} u^q dmu ds",
        margin_min=0.10 - rep.drift,
        tolerance=0.0,
        values=rep.to_dict(),
        sweep=rep.sweep,
        empirical_constants={"C_emp": rep.c_emp},
    )


def _check_heat_bound(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    a = kato_mod.faber_krahn_constant(min(ctx.model.dim, 3))
    ts = np.logspace(math.log10(p["t_min"]), math.log10(p["t_max"]), int(p["n_t"]))
    rep = mvi_mod.heat_bound_sweep(
        ctx.engine, lambda x: p["radius"], a, ts, [geom.base_point(ctx.model)]
    )
    return CheckResult(
        name=name,
        verdict="PASS" if rep.stable and math.isfinite(rep.c_hat) else "FAIL",
        inequality="sup_y p(t,x,y) <= C a^{-m/2} min(t, R(x)^2)^{-m/2}",
        margin_min=0.10 - rep.drift,
        tolerance=0.0,
        values=rep.to_dict(),
        sweep=rep.sweep,
        empirical_constants={"C_hat": rep.c_hat, "a": a},
    )


def _check_feynman_kac(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    if ctx.model.kind is not Kind.CIRCLE:
        raise ManifestError("feynman-kac cross-check runs on the circle")
    w = ctx.potential("cosine")
    ts = _floats(p["t_values"])
    start = geom.circle_point(0.0)
    ens = st.simulate(ctx.model, start, max(ts), p["h"], int(p["n_paths"]), ctx.seed)
    op = sg.discretize(ctx.model, int(p["n_grid"]), w)
    node = 0  # start sits at grid node 0
    worst = math.inf
    rows = []
    for t in ts:
        sub = ens.truncated(t)
        est = st.feynman_kac(sub, w)
        spectral = float(sg.semigroup_apply(op, t, np.ones(op.size))[node])
        z = (est.value - spectral) / est.std_error if est.std_error > 0 else 0.0
        rows.append([t, est.value, est.std_error, spectral, z])
        worst = min(worst, 4.0 - abs(z))
    return CheckResult(
        name=name,
        verdict="PASS" if worst >= 0 else "FAIL",
        inequality="E[exp(-int_0^t w(X_s) ds) f(X_t)] = (e^{-tH} f)(x)",
        margin_min=worst,
        tolerance=0.0,
        values={"rows": rows},
        sweep={"n_paths": int(p["n_paths"]), "h": p["h"], "n_grid": int(p["n_grid"])},
        series={"feynman_kac": {"columns": ["t", "mc", "stderr", "spectral", "z"], "rows": rows}},
    )


def _check_project(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    if ctx.model.kind is not Kind.PRODUCT:
        raise ManifestError("project-check needs a product manifold")
    leaf = pot.leaves(ctx.model)[int(p["leaf"])][0]
    w = ctx.potential("indicator:ball:r=1", target=leaf)
    x = geom.base_point(ctx.model)
    rep = st.elworthy_projection_check(
        ctx.model, int(p["leaf"]), w, p["t"], x, N=int(p["n_paths"]), h=p["h"], seed=ctx.seed
    )
    return CheckResult(
        name=name,
        verdict="PASS" if rep.passed else "FAIL",
        inequality="int p(t,x,y)|w(pi(y))| dmu(y) <= int p'(t,pi(x),z)|w(z)| dmu'(z)",
        margin_min=rep.rhs_quad - rep.lhs_quad,
        tolerance=rep.quad_tolerance,
        values=rep.to_dict(),
        sweep={"t": p["t"], "leaf": int(p["leaf"]), "n_paths": int(p["n_paths"])},
    )


def _check_kato_exponential(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    w = ctx.potential("windowed:r=1:radialpower:beta=0.5")
    rep = st.kato_exponential_estimate(
        ctx.model, w, _floats(p["t_values"]), _floats(p["deltas"]), int(p["n_paths"]),
        h=p["h"], seed=ctx.seed,
    )
    finite = all(math.isfinite(e["C"]) for e in rep.table) and not rep.overflowed
    return CheckResult(
        name=name,
        verdict="PASS" if finite else "FAIL",
        inequality="sup_x E[exp(int_0^t w_-(X_s) ds)] <= delta exp(t C(delta))",
        margin_min=0.0 if finite else -math.inf,
        tolerance=0.0,
        values=rep.to_dict(),
        sweep={"n_paths": int(p["n_paths"]), "h": p["h"]},
        empirical_constants={f"C(delta={e['delta']:g})": e["C"] for e in rep.table},
    )


def _check_semigroup(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    if ctx.model.kind is not Kind.CIRCLE:
        raise ManifestError("semigroup-bound runs on the circle")
    w_minus = ctx.potential("radialpower:beta=0.5")
    op_minus = sg.discretize(ctx.model, int(p["n_grid"]), pot.Scale(-1.0, pot.absolute(w_minus)))
    bound = sg.bop_bound_check(
        op_minus, _floats(p["t_values"]), _floats(p["deltas"]), qs=(1, 2, 4, np.inf), seed=ctx.seed
    )
    tol = 1e-10 * ctx.scale
    ok = bound.min_margin >= -tol and bound.domination_margin >= -tol
    return CheckResult(
        name=name,
        verdict="PASS" if ok else "FAIL",
        inequality="||e^{-t H^{-w_-}}||_{q->q} <= delta e^{t C(delta)}; |e^{-tH^w} f| <= e^{-tH^{-w_-}} |f|",
        margin_min=min(bound.min_margin, bound.domination_margin),
        tolerance=tol,
        values=bound.to_dict(),
        sweep={"n_grid": int(p["n_grid"])},
        empirical_constants={f"C(delta={e['delta']:g})": e["C"] for e in bound.table},
    )


def _check_riesz(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    if ctx.model.kind is not Kind.CIRCLE:
        raise ManifestError("riesz-thorin runs on the circle")
    w = ctx.potential("cosine")
    op = sg.discretize(ctx.model, int(p["n_grid"]), w)
    rep = sg.riesz_thorin_check(op, p["t"], _floats(p["r_values"]))
    tol = 1e-10 * ctx.scale
    return CheckResult(
        name=name,
        verdict="PASS" if rep.min_margin >= -tol else "FAIL",
        inequality="||e^{-tH}||_{q_r->q_r} <= ||.||_{1->1}^{1-r} ||.||_{inf->inf}^{r}",
        margin_min=rep.min_margin,
        tolerance=tol,
        values=rep.to_dict(),
        sweep={"t": p["t"], "n_grid": int(p["n_grid"])},
    )


def _check_coulomb(ctx: CheckContext, name: str) -> CheckResult:
    p = _params(ctx, name)
    o = geom.base_point(ctx.model)
    profile = pot.coulomb_profile(ctx.model)
    tol = p["rel_tol"] * ctx.scale
    worst = math.inf
    rows = []
    for r in _floats(p["r_values"]):
        v = np.zeros(ctx.model.tangent_dim)
        v[0] = r if ctx.model.kind is Kind.EUCLIDEAN else r * o.coords[2]
        y = geom.exp_map(ctx.model, o, v)
        d = geom.distance(ctx.model, o, y)
        cv = pot.coulomb(ctx.engine, o, y, tol=min(tol / 10.0, 1e-8))
        closed = float(profile(np.array([d]))[0])
        rel = abs(cv.value - closed) / closed
        rows.append([d, cv.value, closed, rel, cv.tail_bound])
        worst = min(worst, tol - rel)
    return CheckResult(
        name=name,
        verdict="PASS" if worst >= 0 else "FAIL",
        inequality="V(x,y) = (1/2) int_0^inf p(s,x,y) ds, finite for x != y",
        margin_min=worst,
        tolerance=tol,
        values={"rows": rows},
        sweep={"r_values": _floats(p["r_values"])},
        series={"coulomb": {"columns": ["d", "quadrature", "closed_form", "rel_err", "tail"], "rows": rows}},
    )


CHECKS: dict[str, CheckSpec] = {
    "kernel-check": CheckSpec(
        _check_kernel,
        {"t_values": (str, "0.05,0.2,0.7"), "n_points": (int, 4)},
        "heat kernel mass / Chapman-Kolmogorov / symmetry",
    ),
    "kato-norm": CheckSpec(
        _check_kato_norm,
        {"t": (float, 0.1), "n_x": (int, 3), "s_min": (float, 1e-9)},
        "Kato functional N(t) at one t",
    ),
    "is-kato": CheckSpec(
        _check_is_kato,
        {
            "t_min": (float, 1e-3),
            "t_max": (float, 0.5),
            "n_t": (int, 6),
            "threshold_ratio": (float, 0.3),
            "gamma_min": (float, 0.05),
            "s_min": (float, 1e-9),
        },
        "Kato-class membership verdict (numerical evidence)",
    ),
    "holder-check": CheckSpec(
        _check_holder,
        {"qs": (str, "auto"), "n_s": (int, 10), "s_min": (float, 1e-3)},
        "weighted-L^q smoothing bound margins",
    ),
    "control-pair": CheckSpec(
        _check_control_pair,
        {"source": (str, "ondiag"), "t_min": (float, 1e-4), "n_t": (int, 50)},
        "control pair construction and verification",
    ),
    "fk-verify": CheckSpec(
        _check_fk_verify,
        {"h": (float, 1.0 / 48.0), "a_scale": (float, 1.0), "radius": (float, 2.5)},
        "Faber-Krahn inequality on test sets",
        models=_EUCLIDEAN_2_3,
        domains={"h": _positive, "a_scale": _positive, "radius": _fk_radius},
    ),
    "mvi-sweep": CheckSpec(
        _check_mvi, {"radius": (float, 1.0)}, "parabolic mean value inequality sweep",
        models=_EUCLIDEAN_2_3,
    ),
    "heat-bound": CheckSpec(
        _check_heat_bound,
        {"t_min": (float, 1e-3), "t_max": (float, 10.0), "n_t": (int, 25), "radius": (float, 1.0)},
        "min(t, R^2)^{-m/2} heat bound constant",
    ),
    "feynman-kac": CheckSpec(
        _check_feynman_kac,
        {
            "t_values": (str, "0.25,0.5,1.0"),
            "n_paths": (int, 20000),
            "h": (float, 2e-3),
            "n_grid": (int, 8192),
        },
        "Monte-Carlo Feynman-Kac against the spectral semigroup",
    ),
    "project-check": CheckSpec(
        _check_project,
        {"t": (float, 0.3), "leaf": (int, 0), "n_paths": (int, 0), "h": (float, 2e-3)},
        "projection bound for product projections",
    ),
    "kato-exponential": CheckSpec(
        _check_kato_exponential,
        {
            "t_values": (str, "0.25,0.5,1.0"),
            "deltas": (str, "1.5,2,4"),
            "n_paths": (int, 4000),
            "h": (float, 2e-3),
        },
        "exponential moment table (delta, C(delta))",
    ),
    "semigroup-bound": CheckSpec(
        _check_semigroup,
        {"n_grid": (int, 192), "t_values": (str, "0,0.5,1,2"), "deltas": (str, "1.5,2,4")},
        "L^q -> L^q semigroup bound",
    ),
    "riesz-thorin": CheckSpec(
        _check_riesz,
        {"n_grid": (int, 192), "t": (float, 0.5), "r_values": (str, "0.25,0.5,0.75")},
        "Riesz-Thorin interpolation margins",
    ),
    "coulomb": CheckSpec(
        _check_coulomb,
        {"r_values": (str, "0.1,1,10"), "rel_tol": (float, 1e-6)},
        "Coulomb potential quadrature against the closed form",
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


def run_manifest(manifest: ExperimentManifest, parallel: bool = False) -> Report:
    validate_manifest(manifest)
    model = geom.parse_manifold(manifest.manifold)
    engine = hk.make_engine(model, manifest.kernel_method)
    ctx = CheckContext(model, engine, manifest, manifest.seed, manifest.tolerance_scale)

    def run_one(name: str) -> CheckResult:
        t0 = time.perf_counter()
        try:
            result = CHECKS[name].runner(ctx, name)
        except HeatKatoError as exc:
            result = CheckResult(
                name=name, verdict="FAIL", inequality="", margin_min=-math.inf,
                tolerance=0.0, values={"error": str(exc)},
            )
        result.runtime_s = time.perf_counter() - t0
        return result

    if parallel and len(manifest.checks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(4, len(manifest.checks))) as ex:
            results = list(ex.map(run_one, manifest.checks))
    else:
        results = [run_one(name) for name in manifest.checks]
    return Report(
        manifest=manifest.to_dict(),
        tool_version=__version__,
        seed=manifest.seed,
        timestamp=datetime.now(timezone.utc).isoformat(),
        checks=results,
    )


def write_outputs(report: Report, manifest: ExperimentManifest, out_override: str | None = None):
    out = out_override or manifest.out
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(report.to_json())
    if manifest.emit_csv and out:
        stem = Path(out).with_suffix("")
        for check in report.checks:
            for sname, data in check.series.items():
                path = Path(f"{stem}.{check.name}.{sname}.csv")
                with path.open("w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(data["columns"])
                    writer.writerows(data["rows"])
    return out


def _print_summary(report: Report, stream=sys.stdout):
    for c in report.checks:
        print(
            f"[{c.verdict}] {c.name}: margin_min={c.margin_min:.6g} tol={c.tolerance:.3g} ({c.runtime_s:.2f}s)",
            file=stream,
        )
    print(("all checks PASS" if report.all_pass else "some checks FAILED"), file=stream)


# ---------------------------------------------------------------------------
# entry point


def _apply_overrides(manifest: ExperimentManifest, args) -> ExperimentManifest:
    if args.seed is not None:
        manifest.seed = args.seed
    if getattr(args, "tolerance_scale", None) is not None:
        manifest.tolerance_scale = args.tolerance_scale
    if getattr(args, "out", None):
        manifest.out = args.out
    return manifest


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(prog="heatkato", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment manifest")
    run_p.add_argument("manifest")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--parallel", action="store_true")
    run_p.add_argument("--tolerance-scale", dest="tolerance_scale", type=float, default=None)

    bat_p = sub.add_parser("run-battery", help="run a built-in battery")
    bat_p.add_argument("name")
    bat_p.add_argument("--seed", type=int, default=None)
    bat_p.add_argument("--out", default=None)
    bat_p.add_argument("--parallel", action="store_true")
    bat_p.add_argument("--tolerance-scale", dest="tolerance_scale", type=float, default=None)

    sub.add_parser("list-batteries", help="print battery names")

    sim_p = sub.add_parser("simulate", help="sample a Brownian ensemble")
    sim_p.add_argument("--manifold", required=True)
    sim_p.add_argument("--t", type=float, required=True)
    sim_p.add_argument("--h", type=float, default=1e-3)
    sim_p.add_argument("--n", type=int, default=1000)
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument("--scheme", default="geodesic_walk")
    sim_p.add_argument("--out", default=None)
    sim_p.add_argument("--dump-paths", default=None, help="CSV path for (path, t, coords...) rows")
    sim_p.add_argument("--max-dump-rows", type=int, default=1_000_000)

    for name, spec in CHECKS.items():
        cp = sub.add_parser(name, help=spec.description)
        cp.add_argument("--manifold", required=True)
        cp.add_argument("--potential", default=None)
        cp.add_argument("--kernel-method", default="auto")
        cp.add_argument("--seed", type=int, default=0)
        cp.add_argument("--out", default=None)
        cp.add_argument("--tolerance-scale", dest="tolerance_scale", type=float, default=None)
        cp.add_argument("--param", action="append", default=[], help="key=value override")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-batteries":
            sys.stdout.write(list_batteries())
            return 0
        if args.command == "run":
            manifest = _apply_overrides(load_manifest(args.manifest), args)
            report = run_manifest(manifest, parallel=args.parallel)
            write_outputs(report, manifest)
            _print_summary(report)
            return 0 if report.all_pass else 1
        if args.command == "run-battery":
            if args.name not in BATTERIES:
                raise ManifestError(f"unknown battery {args.name!r}; see list-batteries")
            all_ok = True
            reports = []
            for entry in BATTERIES[args.name]:
                manifest = ExperimentManifest(
                    manifold=entry["manifold"],
                    checks=list(entry["checks"]),
                    params={k: dict(v) for k, v in entry.get("params", {}).items()},
                )
                manifest = _apply_overrides(manifest, args)
                manifest.out = None
                report = run_manifest(manifest, parallel=args.parallel)
                print(f"== {entry['manifold']} ==")
                _print_summary(report)
                all_ok &= report.all_pass
                reports.append(report)
            if args.out:
                combined = {
                    "battery": args.name,
                    "reports": [r.to_dict() for r in reports],
                    "all_pass": all_ok,
                }
                import json

                Path(args.out).write_text(json.dumps(combined, sort_keys=True, indent=2) + "\n")
            return 0 if all_ok else 1
        if args.command == "simulate":
            return _cmd_simulate(args)
        # single-check subcommands
        manifest = ExperimentManifest(
            manifold=args.manifold,
            checks=[args.command],
            potential=args.potential,
            kernel_method=args.kernel_method,
            seed=args.seed,
            tolerance_scale=args.tolerance_scale or 1.0,
            out=args.out,
        )
        for kv in args.param:
            k, _, v = kv.partition("=")
            if k not in CHECKS[args.command].params:
                raise ManifestError(f"check {args.command!r} has no parameter {k!r}")
            manifest.params.setdefault(args.command, {})[k] = v
        report = run_manifest(manifest)
        write_outputs(report, manifest)
        _print_summary(report)
        return 0 if report.all_pass else 1
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    except HeatKatoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_simulate(args) -> int:
    model = geom.parse_manifold(args.manifold)
    start = geom.base_point(model)
    steps_total = int(round(args.t / args.h))
    record = None
    if args.dump_paths is None and args.n * (steps_total + 1) * 8 > 2e8:
        record = list(np.linspace(0.0, args.t, 33))
    ens = st.simulate(model, start, args.t, args.h, args.n, args.seed, scheme=args.scheme,
                      record_times=record)
    final = ens.chart_at(len(ens.record_times) - 1)
    summary = {
        "manifold": args.manifold,
        "n_paths": ens.n_paths,
        "horizon": ens.horizon,
        "step": ens.step,
        "seed": ens.seed,
        "scheme": ens.scheme,
        "step_warning": ens.step_warning,
        "final_mean": [float(v) for v in final.mean(axis=0)],
        "final_second_moment": [float(v) for v in (final**2).mean(axis=0)],
        "survival_fraction": float(np.mean(~np.isfinite(ens.lifetimes))),
    }
    import json

    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.dump_paths:
        rows_per_path = len(ens.record_times)
        max_paths = max(1, args.max_dump_rows // rows_per_path)
        with Path(args.dump_paths).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "t"] + [f"x{i}" for i in range(ens.positions.shape[2])])
            for i in range(min(ens.n_paths, max_paths)):
                for j, t in enumerate(ens.record_times):
                    writer.writerow([i, f"{t:.10g}"] + [f"{v:.10g}" for v in ens.positions[i, j]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
