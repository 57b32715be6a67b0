"""Minimal heat kernels p(t, x, y) for the model manifolds.

The generator is fixed to (1/2) * Laplace-Beltrami throughout; there is
deliberately no option to switch to the unhalved convention.

Methods:
* Euclidean, Hyperbolic3: closed forms
* Circle, Torus: image sums over the period lattice (or Fourier series)
* Sphere2: zonal spectral series with Legendre three-term recurrence
* Product: pointwise product of the factor kernels
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import erfc, gammaincc

from . import geometry as geom
from . import quadrature
from .errors import DomainError, TruncationError, UnsupportedModelError
from .geometry import Kind, ManifoldModel, Point, QuadratureGrid


class Method(Enum):
    CLOSED_FORM = "closed"
    IMAGE_SUM = "imagesum"
    SPECTRAL_SERIES = "series"
    PRODUCT_RULE = "product"


@dataclass(frozen=True)
class HeatKernelEngine:
    model: ManifoldModel
    method: Method
    image_radius: int | None = None  # explicit lattice radius K (None = adaptive)
    series_lmax: int | None = None  # explicit series cutoff (None = adaptive)
    series_tol: float = 1e-12
    lmax_cap: int = 20000
    strict_truncation: bool = False
    factors: tuple["HeatKernelEngine", ...] = ()

    @property
    def dim(self) -> int:
        return self.model.dim


def make_engine(model: ManifoldModel, method: str = "auto", **kw) -> HeatKernelEngine:
    """Build an evaluator; ``method`` is "auto" | "series[:lmax]" | "imagesum[:K]"."""
    name, _, arg = method.partition(":")
    name = name.strip().lower()
    k = model.kind
    if k is Kind.PRODUCT:
        if name not in ("auto", "product"):
            raise DomainError("product models take the product rule; use method='auto'")
        facs = tuple(make_engine(f, "auto", **kw) for f in model.factors)
        return HeatKernelEngine(model, Method.PRODUCT_RULE, factors=facs, **kw)
    if name == "auto":
        if k in (Kind.EUCLIDEAN, Kind.HYPERBOLIC3):
            return HeatKernelEngine(model, Method.CLOSED_FORM, **kw)
        if k in (Kind.CIRCLE, Kind.TORUS):
            return HeatKernelEngine(model, Method.IMAGE_SUM, **kw)
        return HeatKernelEngine(model, Method.SPECTRAL_SERIES, **kw)
    if name == "imagesum":
        if k not in (Kind.CIRCLE, Kind.TORUS):
            raise UnsupportedModelError("image sums need a flat periodic model")
        K = int(arg) if arg else None
        return HeatKernelEngine(model, Method.IMAGE_SUM, image_radius=K, **kw)
    if name == "series":
        if k not in (Kind.CIRCLE, Kind.TORUS, Kind.SPHERE2):
            raise UnsupportedModelError("spectral series need a compact model")
        lmax = int(arg) if arg else None
        return HeatKernelEngine(model, Method.SPECTRAL_SERIES, series_lmax=lmax, **kw)
    if name == "closed":
        if k not in (Kind.EUCLIDEAN, Kind.HYPERBOLIC3):
            raise UnsupportedModelError("no closed form for this model")
        return HeatKernelEngine(model, Method.CLOSED_FORM, **kw)
    raise DomainError(f"unknown kernel method {method!r}")


# ---------------------------------------------------------------------------
# building blocks


def _image_radius(t: float, L: float, K: int | None) -> int:
    if K is not None:
        return K
    # remaining terms fall below e^-45 of the Gaussian prefactor
    return max(3, int(math.ceil(math.sqrt(2.0 * t * 45.0) / L)) + 1)


def image_sum_tail(t: float, L: float, K: int) -> float:
    # |d + kL| >= (|k| - 1/2) L for |d| <= L/2; geometric comparison from k=K+1
    lead = 2.0 * math.exp(-(((K + 0.5) * L) ** 2) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    ratio = math.exp(-(K + 1) * L * L / t)
    return lead / max(1.0 - ratio, 0.5)


def wrapped_gaussian(dist, t: float, L: float, K: int | None = None):
    """Heat kernel on a circle of circumference L at geodesic distance(s) d.

    Terms are accumulated pairwise in k so the result is exactly symmetric
    under d -> -d regardless of float summation order.
    """
    d = np.abs(np.asarray(dist, dtype=float))
    Keff = _image_radius(t, L, K)
    pref = 1.0 / math.sqrt(2.0 * math.pi * t)
    acc = np.exp(-d * d / (2.0 * t))
    for k in range(1, Keff + 1):
        acc = acc + np.exp(-((d + k * L) ** 2) / (2.0 * t)) + np.exp(-((d - k * L) ** 2) / (2.0 * t))
    return pref * acc


def circle_fourier(dist, t: float, L: float, kmax: int | None = None):
    d = np.asarray(dist, dtype=float)
    if kmax is None:
        kmax = max(1, int(math.ceil((L / (2.0 * math.pi)) * math.sqrt(2.0 * 40.0 / t))))
    acc = np.ones_like(d)
    for k in range(1, kmax + 1):
        lam = 0.5 * (2.0 * math.pi * k / L) ** 2
        acc = acc + 2.0 * math.exp(-lam * t) * np.cos(2.0 * math.pi * k * d / L)
    return acc / L


def sphere_tail_bound(lmax: int, t: float) -> float:
    expo = -(lmax + 1) * (lmax + 2) * t / 2.0
    if expo < -700.0:
        return 0.0
    return ((2.0 * lmax + 3.0) + 2.0 / t) * math.exp(expo) / (4.0 * math.pi)


def sphere_lmax(t: float, tol: float, cap: int) -> int:
    lo, hi = 1, cap
    if sphere_tail_bound(hi, t) > tol:
        return cap
    while lo < hi:
        mid = (lo + hi) // 2
        if sphere_tail_bound(mid, t) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


def sphere_series(t: float, cos_d, lmax: int):
    """sum_l (2l+1)/(4 pi) e^{-l(l+1)t/2} P_l(cos d) via the stable recurrence."""
    x = np.clip(np.asarray(cos_d, dtype=float), -1.0, 1.0)
    p_prev = np.ones_like(x)  # P_0
    acc = p_prev / (4.0 * math.pi)
    if lmax >= 1:
        p_cur = x.copy()  # P_1
        acc = acc + 3.0 * math.exp(-t) * p_cur / (4.0 * math.pi)
        for l in range(2, lmax + 1):
            p_next = ((2.0 * l - 1.0) * x * p_cur - (l - 1.0) * p_prev) / l
            lam = 0.5 * l * (l + 1.0)
            if lam * t < 745.0:
                acc = acc + (2.0 * l + 1.0) * math.exp(-lam * t) * p_next / (4.0 * math.pi)
            p_prev, p_cur = p_cur, p_next
            if lam * t > 745.0:
                break
    return acc


def _h3_profile(d: np.ndarray, t: float) -> np.ndarray:
    # (2 pi t)^{-3/2} (d / sinh d) exp(-d^2/(2t) - t/2); d/sinh d written as
    # 2 d e^{-d} / (1 - e^{-2d}) to stay stable for large d
    pref = (2.0 * math.pi * t) ** -1.5 * math.exp(-t / 2.0)
    small = d < 1e-6
    ratio = np.empty_like(d)
    ds = d[~small]
    ratio[~small] = 2.0 * ds * np.exp(-ds) / (1.0 - np.exp(-2.0 * ds))
    ratio[small] = 1.0 - d[small] ** 2 / 6.0
    return pref * ratio * np.exp(-d * d / (2.0 * t))


# ---------------------------------------------------------------------------
# evaluation


def eval_radial(engine: HeatKernelEngine, t: float, d) -> np.ndarray:
    """Kernel as a function of geodesic distance (radial models only)."""
    if t <= 0:
        raise DomainError("time must be positive")
    k = engine.model.kind
    d = np.asarray(d, dtype=float)
    if k is Kind.EUCLIDEAN:
        m = engine.dim
        return (2.0 * math.pi * t) ** (-m / 2.0) * np.exp(-d * d / (2.0 * t))
    if k is Kind.HYPERBOLIC3:
        return _h3_profile(d, t)
    if k is Kind.CIRCLE:
        if engine.method is Method.SPECTRAL_SERIES:
            return circle_fourier(d, t, 2.0 * math.pi, engine.series_lmax)
        return wrapped_gaussian(d, t, 2.0 * math.pi, engine.image_radius)
    if k is Kind.SPHERE2:
        lmax = engine.series_lmax or sphere_lmax(t, engine.series_tol, engine.lmax_cap)
        _check_truncation(engine, t, lmax)
        return sphere_series(t, np.cos(d), lmax)
    raise UnsupportedModelError(f"{k} kernel is not a function of distance alone")


def _check_truncation(engine: HeatKernelEngine, t: float, lmax: int) -> None:
    if engine.strict_truncation and engine.series_lmax is None:
        bound = sphere_tail_bound(lmax, t)
        if bound > engine.series_tol:
            raise TruncationError(
                f"series cap {engine.lmax_cap} leaves tail {bound:.3e} > tol at t={t:g}", bound
            )


def eval_many(engine: HeatKernelEngine, t: float, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """p(t, x, y_i) for chart coords x (d,) against rows of ys (n, d)."""
    if t <= 0:
        raise DomainError("time must be positive")
    k = engine.model.kind
    ys = np.atleast_2d(ys)
    if k is Kind.TORUS:
        L = engine.model.side_length
        delta = geom._wrap(ys - x, L)
        if engine.method is Method.SPECTRAL_SERIES:
            acc = circle_fourier(delta[:, 0], t, L, engine.series_lmax)
            for j in range(1, engine.dim):
                acc = acc * circle_fourier(delta[:, j], t, L, engine.series_lmax)
        else:
            acc = wrapped_gaussian(delta[:, 0], t, L, engine.image_radius)
            for j in range(1, engine.dim):
                acc = acc * wrapped_gaussian(delta[:, j], t, L, engine.image_radius)
        return acc
    if k is Kind.PRODUCT:
        acc = None
        i = 0
        for fe in engine.factors:
            w = fe.model.chart_dim
            part = eval_many(fe, t, x[i : i + w], ys[:, i : i + w])
            acc = part if acc is None else acc * part
            i += w
        return acc
    d = geom.distance_many(engine.model, x, ys)
    return eval_radial(engine, t, d)


def eval_kernel(engine: HeatKernelEngine, t: float, x: Point, y: Point) -> float:
    """The heat kernel p(t, x, y); strictly positive and symmetric."""
    return float(eval_many(engine, t, x.coords, y.coords[None, :])[0])


def on_diag(engine: HeatKernelEngine, t: float) -> float:
    """p(t, x, x); x-independent on these homogeneous models."""
    k = engine.model.kind
    if k is Kind.PRODUCT:
        val = 1.0
        for fe in engine.factors:
            val *= on_diag(fe, t)
        return val
    if k is Kind.TORUS:
        x = geom.base_point(engine.model).coords
        return float(eval_many(engine, t, x, x[None, :])[0])
    return float(eval_radial(engine, t, np.array([0.0]))[0])


def truncation_bound(engine: HeatKernelEngine, t: float) -> float:
    """Analytic bound on the series/image-sum truncation error of eval at time t."""
    k = engine.model.kind
    if k is Kind.SPHERE2:
        lmax = engine.series_lmax or sphere_lmax(t, engine.series_tol, engine.lmax_cap)
        return sphere_tail_bound(lmax, t)
    if k in (Kind.CIRCLE, Kind.TORUS):
        L = 2.0 * math.pi if k is Kind.CIRCLE else engine.model.side_length
        if engine.method is Method.SPECTRAL_SERIES:
            kmax = engine.series_lmax or max(
                1, int(math.ceil((L / (2.0 * math.pi)) * math.sqrt(2.0 * 40.0 / t)))
            )
            lam = 0.5 * (2.0 * math.pi * (kmax + 1) / L) ** 2
            tail1 = 2.0 * math.exp(-lam * t) / (L * max(1.0 - math.exp(-lam * t), 0.5))
        else:
            K = _image_radius(t, L, engine.image_radius)
            tail1 = image_sum_tail(t, L, K)
        if k is Kind.CIRCLE:
            return tail1
        # product of m 1-d factors, each bounded by its own on-diagonal value
        peak = wrapped_gaussian(0.0, t, L, engine.image_radius) + tail1
        return engine.dim * tail1 * float(peak) ** (engine.dim - 1)
    if k is Kind.PRODUCT:
        total, peak = 0.0, []
        for fe in engine.factors:
            peak.append(on_diag(fe, t) + truncation_bound(fe, t))
        for i, fe in enumerate(engine.factors):
            others = 1.0
            for j, pv in enumerate(peak):
                if j != i:
                    others *= pv
            total += truncation_bound(fe, t) * others
        return total
    return 0.0


# ---------------------------------------------------------------------------
# tail mass bounds for windowed integration on non-compact models


def mass_tail_bound(engine: HeatKernelEngine, t: float, radius: float) -> float:
    """Upper bound for the kernel mass outside a geodesic ball of ``radius``
    around the evaluation point."""
    k = engine.model.kind
    if radius <= 0:
        return 1.0
    if k is Kind.EUCLIDEAN:
        return float(gammaincc(engine.dim / 2.0, radius * radius / (2.0 * t)))
    if k is Kind.HYPERBOLIC3:
        # integrand is below (2 pi t)^{-3/2} 2 pi rho e^{-(rho-t)^2/(2t)}
        pref = (2.0 * math.pi * t) ** -1.5 * 2.0 * math.pi
        u = radius - t
        g = t * math.exp(-u * u / (2.0 * t))
        e = t * math.sqrt(math.pi * t / 2.0) * float(erfc(u / math.sqrt(2.0 * t)))
        return min(1.0, pref * (g + e))
    if k in (Kind.CIRCLE, Kind.SPHERE2, Kind.TORUS):
        # compact: a ball of radius >= diameter covers everything
        diam = {Kind.CIRCLE: math.pi, Kind.SPHERE2: math.pi}.get(k)
        if diam is None:
            diam = engine.model.side_length * math.sqrt(engine.dim) / 2.0
        return 0.0 if radius >= diam else 1.0
    if k is Kind.PRODUCT:
        # d^2 = sum d_i^2 > r^2 forces some d_i > r/sqrt(2) (two factors)
        r = radius / math.sqrt(2.0)
        return min(1.0, sum(mass_tail_bound(fe, t, r) for fe in engine.factors))
    raise UnsupportedModelError(str(k))


# ---------------------------------------------------------------------------
# sup bound and consistency checks


def sup_bound(engine: HeatKernelEngine, t: float, x: Point, y_grid: QuadratureGrid) -> float:
    """max over grid nodes of p(t, x, .); checked against the on-diagonal value,
    where the sup is attained for every built-in model."""
    vals = eval_many(engine, t, x.coords, y_grid.node_coords)
    grid_max = float(np.max(vals))
    diag = float(eval_many(engine, t, x.coords, x.coords[None, :])[0])
    tol = 1e-12 + 2.0 * truncation_bound(engine, t)
    if grid_max > diag + tol:
        raise DomainError(
            f"grid max {grid_max} exceeds on-diagonal value {diag}; kernel should be radially decreasing"
        )
    return grid_max


# ---------------------------------------------------------------------------
# adapted quadrature per sample: exact radial / axisymmetric reductions


def _kernel_reach(engine: HeatKernelEngine, t: float) -> float:
    # radius outside which the kernel mass is below ~1e-12
    r = math.sqrt(2.0 * t * 70.0)
    if engine.model.kind is Kind.HYPERBOLIC3:
        r += t + 2.0
    return r


def kernel_mass(engine: HeatKernelEngine, t: float, x: Point) -> tuple[float, float]:
    """(integral of p(t, x, .) dmu, analytic error allowance)."""
    k = engine.model.kind
    sigma = math.sqrt(t)
    if k is Kind.CIRCLE:
        val = quadrature.radial_integral(
            engine.model, lambda r: eval_radial(engine, t, r), math.pi,
            scales_at_zero=(sigma,), max_cell=min(sigma / 4.0, math.pi / 16.0),
        )
        return val, truncation_bound(engine, t) * 2.0 * math.pi
    if k is Kind.SPHERE2:
        val = quadrature.radial_integral(
            engine.model, lambda r: eval_radial(engine, t, r), math.pi,
            scales_at_zero=(sigma,), max_cell=min(sigma / 4.0, math.pi / 16.0),
        )
        return val, truncation_bound(engine, t) * 4.0 * math.pi
    if k in (Kind.EUCLIDEAN, Kind.HYPERBOLIC3):
        reach = _kernel_reach(engine, t)
        val = quadrature.radial_integral(
            engine.model, lambda r: eval_radial(engine, t, r), reach,
            scales_at_zero=(sigma,), max_cell=min(sigma / 4.0, reach / 16.0),
        )
        return val, mass_tail_bound(engine, t, reach)
    if k is Kind.TORUS:
        L = engine.model.side_length
        n = 64
        delta = (np.arange(n) + 0.5) * (L / n)
        per_axis = float(np.sum(wrapped_gaussian(delta - L / 2.0, t, L)) * (L / n))
        val = per_axis**engine.dim
        return val, engine.dim * truncation_bound(engine, t) * total_vol_bound(engine)
    if k is Kind.PRODUCT:
        val, err = 1.0, 0.0
        for fe in engine.factors:
            v, e = kernel_mass(fe, t, Point(_factor_slice(engine, fe, x)))
            val *= v
            err += e
        return val, err
    raise UnsupportedModelError(str(k))


def total_vol_bound(engine: HeatKernelEngine) -> float:
    v = geom.total_volume(engine.model)
    return v if math.isfinite(v) else 1.0


def _factor_slice(engine: HeatKernelEngine, fe: HeatKernelEngine, x: Point) -> np.ndarray:
    i = 0
    for f in engine.factors:
        if f is fe:
            return x.coords[i : i + f.model.chart_dim]
        i += f.model.chart_dim
    raise ValueError("factor not part of engine")


def chapman_kolmogorov(
    engine: HeatKernelEngine, t: float, s: float, x: Point, y: Point
) -> tuple[float, float, float]:
    """(convolution integral, direct kernel at t+s, error allowance)."""
    k = engine.model.kind
    if k is Kind.PRODUCT:
        conv, direct, err = 1.0, 1.0, 0.0
        for fe in engine.factors:
            xi = Point(_factor_slice(engine, fe, x))
            yi = Point(_factor_slice(engine, fe, y))
            c, dv, e = chapman_kolmogorov(fe, t, s, xi, yi)
            conv *= c
            direct *= dv
            err += e
        return conv, direct, err
    if k is Kind.TORUS:
        L = engine.model.side_length
        grid = geom.build_grid(engine.model, L / 48.0, geom.FullWindow())
        px = eval_many(engine, t, x.coords, grid.node_coords)
        py = eval_many(engine, s, y.coords, grid.node_coords)
        conv = grid.integrate(px * py)
        direct = eval_kernel(engine, t + s, x, y)
        return conv, direct, 2.0 * truncation_bound(engine, min(t, s))
    d = geom.distance(engine.model, x, y)
    if k in (Kind.CIRCLE, Kind.SPHERE2):
        r_max = math.pi
        tail = truncation_bound(engine, t) + truncation_bound(engine, s)
    else:
        r_max = d + max(_kernel_reach(engine, t), _kernel_reach(engine, s))
        tail = mass_tail_bound(engine, t, r_max - d) * on_diag(engine, s) + mass_tail_bound(
            engine, s, r_max - d
        ) * on_diag(engine, t)
    conv = quadrature.two_point_integral(
        engine.model,
        lambda r: eval_radial(engine, t, r),
        lambda r: eval_radial(engine, s, r),
        d,
        r_max,
        f_scale=math.sqrt(t),
        g_scale=math.sqrt(s),
    )
    direct = eval_kernel(engine, t + s, x, y)
    return conv, direct, tail


@dataclass
class KernelCheckReport:
    mass_defect: float
    ck_residual: float
    symmetry_residual: float
    truncation_bound: float
    mass_tail_bound: float
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "mass_defect": self.mass_defect,
            "ck_residual": self.ck_residual,
            "symmetry_residual": self.symmetry_residual,
            "truncation_bound": self.truncation_bound,
            "mass_tail_bound": self.mass_tail_bound,
            "n_samples": self.n_samples,
        }


def _compact_resolution(model: ManifoldModel) -> float:
    if model.kind is Kind.CIRCLE:
        return 2.0 * math.pi / 256.0
    if model.kind is Kind.SPHERE2:
        return math.pi / 48.0
    if model.kind is Kind.TORUS:
        return model.side_length / 48.0
    return 0.1


def check_consistency(
    engine: HeatKernelEngine,
    t_samples,
    point_samples: list[Point],
) -> KernelCheckReport:
    """Mass <= 1 (=1 for the complete built-ins), Chapman-Kolmogorov and symmetry.

    Mass uses the exact radial reduction and the Chapman-Kolmogorov
    convolution the axisymmetric two-point reduction, so the residuals
    reflect the kernel itself rather than grid resolution.
    """
    t_samples = list(t_samples)
    if not t_samples or not point_samples:
        raise DomainError("need nonempty samples")
    mass_defect = 0.0
    tail_max = 0.0
    trunc = 0.0
    for t in t_samples:
        trunc = max(trunc, truncation_bound(engine, t))
        for x in point_samples:
            mass, tail = kernel_mass(engine, t, x)
            tail_max = max(tail_max, tail)
            # expected mass 1 (all built-ins are stochastically complete);
            # the defect is charged after the analytic tail allowance
            mass_defect = max(mass_defect, max(abs(mass - 1.0) - tail, 0.0))
    ck = 0.0
    n = len(point_samples)
    for i, t in enumerate(t_samples):
        s = t_samples[(i + 1) % len(t_samples)]
        x = point_samples[i % n]
        y = point_samples[(i + 1) % n]
        conv, direct, allowance = chapman_kolmogorov(engine, t, s, x, y)
        ck = max(ck, max(abs(conv - direct) - allowance, 0.0))
    sym = 0.0
    for i, x in enumerate(point_samples):
        y = point_samples[(i + 1) % n]
        for t in t_samples:
            sym = max(sym, abs(eval_kernel(engine, t, x, y) - eval_kernel(engine, t, y, x)))
    return KernelCheckReport(
        mass_defect=mass_defect,
        ck_residual=ck,
        symmetry_residual=sym,
        truncation_bound=trunc,
        mass_tail_bound=tail_max,
        n_samples=len(t_samples) * n,
    )


def on_diag_upper(engine: HeatKernelEngine, t_values) -> float:
    """Empirical sup of t^{m/2} p(t, x, x) over the sweep (x-independent here)."""
    m = engine.dim
    return max(float(t) ** (m / 2.0) * on_diag(engine, float(t)) for t in t_values)


def heat_bound_constant(engine: HeatKernelEngine, radius_fn, a: float, t_values, x_samples) -> float:
    """Empirical C in sup_y p(t,x,y) <= C a^{-m/2} min(t, R(x)^2)^{-m/2}: the
    sweep sup of p(t,x,x) a^{m/2} min(t, R(x)^2)^{m/2}."""
    m = engine.dim
    best = 0.0
    for t in t_values:
        diag = on_diag(engine, float(t))
        for x in x_samples:
            Rx = radius_fn(x)
            best = max(best, diag * a ** (m / 2.0) * min(float(t), Rx * Rx) ** (m / 2.0))
    return best
