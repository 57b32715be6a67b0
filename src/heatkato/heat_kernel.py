"""Minimal heat kernels p(t, x, y) for the model manifolds.

The generator is fixed to (1/2) * Laplace-Beltrami throughout; there is
deliberately no option to switch to the unhalved convention.

The model fixes the method (``make_engine``):
* Euclidean, Hyperbolic3: closed forms (the model's ``heat_profile``)
* one-axis Torus (the circle is ``torus:1:2pi``): the image sum over the
  period lattice while t < L^2 / (2 pi), the Fourier series from there on
  (``periodic_terms``)
* Sphere2: zonal spectral series with Legendre three-term recurrence

Every other model is a product of kernel factors (``model.kernel_factors``),
and its kernel is the pointwise product of theirs: a Product of its factors,
a flat Torus of dimension m >= 2 of m one-axis tori.  Values, bounds, mass
and Chapman-Kolmogorov recurse on ``engine.factors``, so the kernel layer has
two families, radial and product.  On a tensor-product grid (``eval_grid``)
a product kernel is one row per factor, on that factor's nodes, multiplied
out.  A batch of times (``eval_radial_rows``) is one call on a column of
times, each row equal to its time's own value to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import geometry as geom
from . import quadrature
from .errors import DomainError, UnsupportedModelError
from .geometry import ManifoldModel, Point, QuadratureGrid, time_factor
from .reporting import worst_of

SERIES_TOL = 1e-12  # tail the adaptive sphere series stops below
LMAX_CAP = 20000  # most terms the adaptive sphere series takes


class Method(Enum):
    CLOSED_FORM = "closed"
    PERIODIC = "periodic"
    SPECTRAL_SERIES = "series"
    PRODUCT_RULE = "product"


@dataclass(frozen=True)
class HeatKernelEngine:
    model: ManifoldModel
    method: Method
    factors: tuple["HeatKernelEngine", ...] = ()

    @property
    def dim(self) -> int:
        return self.model.dim


def make_engine(model: ManifoldModel) -> HeatKernelEngine:
    """The model's kernel evaluator: a product of its kernel factors' engines,
    else its closed form, periodic sum or sphere series."""
    if model.kernel_factors:
        method = Method.PRODUCT_RULE
    elif hasattr(model, "heat_profile"):
        method = Method.CLOSED_FORM
    else:
        method = Method.PERIODIC if model.period else Method.SPECTRAL_SERIES
    return HeatKernelEngine(model, method, tuple(make_engine(f) for f in model.kernel_factors))


# ---------------------------------------------------------------------------
# building blocks


def periodic_terms(t: float, L: float) -> tuple[bool, int]:
    """How a periodic axis of period L sums its kernel at time t: (fourier, n).
    Below t* = L^2 / (2 pi) the image sum over |k| <= n, its remaining terms
    below e^-45 of the Gaussian prefactor; from t* on the Fourier series
    through mode n, its first dropped mode with lambda t >= 40.  The two are
    Poisson duals, so n <= 5 image pairs or 4 modes at every t."""
    if t < L * L / (2.0 * math.pi):
        return False, max(3, int(math.ceil(math.sqrt(2.0 * t * 45.0) / L)) + 1)
    return True, max(1, int(math.ceil((L / (2.0 * math.pi)) * math.sqrt(2.0 * 40.0 / t))))


def image_sum_tail(t: float, L: float, K: int) -> float:
    # |d + kL| >= (|k| - 1/2) L for |d| <= L/2; geometric comparison from k=K+1
    lead = 2.0 * math.exp(-(((K + 0.5) * L) ** 2) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    ratio = math.exp(-(K + 1) * L * L / t)
    return lead / (1.0 - ratio)


def fourier_tail(t: float, L: float, K: int) -> float:
    # sum_{k > K} 2 e^{-c k^2 t} / L, c = (2 pi / L)^2 / 2: from k = K + 1 on
    # consecutive terms shrink by e^{-c (2k + 1) t} <= e^{-c (2K + 3) t}
    c = 0.5 * (2.0 * math.pi / L) ** 2
    return 2.0 * math.exp(-c * (K + 1) ** 2 * t) / (L * -math.expm1(-c * (2 * K + 3) * t))


def wrapped_gaussian(dist, t, L: float, K: int):
    """Heat kernel on a circle of circumference L at geodesic distance(s) d,
    summed over the images |k| <= K, at a time t or a column of times (k, 1)
    that share each image's (d + kL)^2.

    Terms are accumulated pairwise in k so the result is exactly symmetric
    under d -> -d regardless of float summation order.
    """
    d = np.abs(np.asarray(dist, dtype=float))
    pref = time_factor(lambda s: 1.0 / math.sqrt(2.0 * math.pi * s), t)
    acc = np.exp(-d * d / (2.0 * t))
    for k in range(1, K + 1):
        acc = acc + np.exp(-((d + k * L) ** 2) / (2.0 * t)) + np.exp(-((d - k * L) ** 2) / (2.0 * t))
    return pref * acc


def circle_fourier(dist, t, L: float, kmax: int):
    """The Fourier series of the same kernel through mode kmax, at a time t
    or a column of times (k, 1) that share each mode's cosine."""
    d = np.asarray(dist, dtype=float)
    acc = np.ones_like(d)
    for k in range(1, kmax + 1):
        lam = 0.5 * (2.0 * math.pi * k / L) ** 2
        acc = acc + time_factor(lambda s: 2.0 * math.exp(-lam * s), t) * np.cos(2.0 * math.pi * k * d / L)
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


# ---------------------------------------------------------------------------
# evaluation


def eval_radial(engine: HeatKernelEngine, t, d) -> np.ndarray:
    """Kernel as a function of geodesic distance (radial models only), at a
    time t or at a column of times t (k, 1), one row per time, broadcast
    against ``d``.  A column gives each row the values its time alone gives,
    to the bit."""
    if np.any(t <= 0):
        raise DomainError("time must be positive")
    model = engine.model
    d = np.asarray(d, dtype=float)
    if engine.factors:
        raise UnsupportedModelError(f"the {model.describe()} kernel is not a function of distance alone")
    if engine.method is Method.CLOSED_FORM:
        return model.heat_profile(t, d)
    if np.ndim(t):
        return _radial_rows(engine, t, d)
    if not model.period:
        return sphere_series(t, np.cos(d), sphere_lmax(t, SERIES_TOL, LMAX_CAP))
    fourier, n = periodic_terms(t, model.period)
    return (circle_fourier if fourier else wrapped_gaussian)(d, t, model.period, n)


def _radial_rows(engine: HeatKernelEngine, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """eval_radial of a series or periodic model at a column of times: a
    periodic sum once per group of times with the same ``periodic_terms``,
    the sphere series once per time."""
    out = np.empty(np.broadcast_shapes(t.shape, d.shape))
    times = t.ravel().tolist()
    L = engine.model.period
    if not L:
        cos_d = np.broadcast_to(np.cos(d), out.shape)
        for i, s in enumerate(times):
            out[i] = sphere_series(s, cos_d[i], sphere_lmax(s, SERIES_TOL, LMAX_CAP))
        return out
    groups: dict[tuple[bool, int], list[int]] = {}
    for i, s in enumerate(times):
        groups.setdefault(periodic_terms(s, L), []).append(i)
    for (fourier, n), rows in groups.items():
        d_rows = d[rows] if d.ndim == 2 else d
        out[rows] = (circle_fourier if fourier else wrapped_gaussian)(d_rows, t[rows], L, n)
    return out


def eval_radial_rows(engine: HeatKernelEngine, ts, d) -> np.ndarray:
    """eval_geodesic(t_i, d) with one row per time t_i: a 1-d ``d`` is shared
    by every row, a 2-d ``d`` gives row i its own distances.  One
    eval_geodesic call on the column of times."""
    return eval_geodesic(engine, np.asarray(ts, dtype=float).reshape(-1, 1), np.asarray(d, dtype=float))


def eval_geodesic(engine: HeatKernelEngine, t, d) -> np.ndarray:
    """p(t, x, y) for y at distance d from x along one kernel factor's
    geodesic, the other factors at their diagonal: the radial kernel itself
    on a radial model, on a product the largest such value over its factors.
    At a column of times (as eval_radial) each factor's rows and on-diagonal
    column are evaluated once for the batch."""
    if not engine.factors:
        return eval_radial(engine, t, d)
    diag = [on_diag(fe, t) for fe in engine.factors]
    along = [eval_geodesic(fe, t, d) * math.prod(diag[:i] + diag[i + 1 :]) for i, fe in enumerate(engine.factors)]
    return np.max(along, axis=0)


def series_cap_exceeded(engine: HeatKernelEngine, t: float) -> bool:
    """True when the sphere series (of the model or a factor) would stop at
    its cap with a tail above SERIES_TOL at time t."""
    if engine.factors:
        return any(series_cap_exceeded(fe, t) for fe in engine.factors)
    return engine.method is Method.SPECTRAL_SERIES and sphere_tail_bound(LMAX_CAP, t) > SERIES_TOL


def eval_many(engine: HeatKernelEngine, t: float, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """p(t, x, y_i) for chart coords x (d,) against rows of ys (n, d)."""
    if t <= 0:
        raise DomainError("time must be positive")
    model = engine.model
    ys = np.atleast_2d(ys)
    if engine.factors:
        parts = zip(engine.factors, model.split(x), model.split(ys))
        return math.prod(eval_many(fe, t, xf, yf) for fe, xf, yf in parts)
    d = geom.distance_many(model, x, ys)
    return eval_radial(engine, t, d)


def eval_grid(engine: HeatKernelEngine, t: float, x: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """p(t, x, y) at every node y of the grid, equal to eval_many on its node
    rows to the last bit.  On a tensor-product grid over the engine's kernel
    factors each factor kernel is evaluated on its own nodes only, and the
    rows are multiplied out in eval_many's order; any other grid takes
    eval_many on its nodes."""
    if not engine.factors or tuple(g.model for g in grid.factors) != engine.model.kernel_factors:
        return eval_many(engine, t, x, grid.node_coords)
    out = 1
    for fe, xf, g in zip(engine.factors, engine.model.split(x), grid.factors):
        out = np.multiply.outer(out, eval_grid(fe, t, xf, g)).ravel()
    return out


def eval_kernel(engine: HeatKernelEngine, t: float, x: Point, y: Point) -> float:
    """The heat kernel p(t, x, y); strictly positive and symmetric."""
    return float(eval_many(engine, t, x.coords, y.coords[None, :])[0])


def on_diag(engine: HeatKernelEngine, t: float) -> float:
    """p(t, x, x); x-independent on these homogeneous models.  At a column of
    times (k, 1), a column."""
    if engine.factors:
        return math.prod(on_diag(fe, t) for fe in engine.factors)
    p = eval_radial(engine, t, np.array([0.0]))
    return float(p[0]) if np.ndim(t) == 0 else p


def truncation_bound(engine: HeatKernelEngine, t: float) -> float:
    """Analytic bound on the series/image-sum truncation error of eval at time t."""
    model = engine.model
    if engine.method is Method.CLOSED_FORM:
        return 0.0
    if engine.factors:
        bounds = [truncation_bound(fe, t) for fe in engine.factors]
        peak = [on_diag(fe, t) + b for fe, b in zip(engine.factors, bounds)]
        total = 0.0
        for i, b in enumerate(bounds):
            total += b * math.prod(pv for j, pv in enumerate(peak) if j != i)
        return total
    L = model.period
    if not L:
        return sphere_tail_bound(sphere_lmax(t, SERIES_TOL, LMAX_CAP), t)
    fourier, n = periodic_terms(t, L)
    return (fourier_tail if fourier else image_sum_tail)(t, L, n)


# ---------------------------------------------------------------------------
# tail mass bounds for windowed integration on non-compact models


def mass_tail_bound(engine: HeatKernelEngine, t: float, radius: float) -> float:
    """Upper bound for the kernel mass outside a geodesic ball of ``radius``
    around the evaluation point."""
    if radius <= 0:
        return 1.0
    return engine.model.mass_tail(t, radius)


# ---------------------------------------------------------------------------
# sup bound and consistency checks


def sup_bound(engine: HeatKernelEngine, t: float, x: Point, y_grid: QuadratureGrid) -> float:
    """max over grid nodes of p(t, x, .); checked against the on-diagonal value,
    where the sup is attained for every built-in model."""
    vals = eval_grid(engine, t, x.coords, y_grid)
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


def kernel_mass(engine: HeatKernelEngine, t: float, x: Point) -> tuple[float, float]:
    """(integral of p(t, x, .) dmu, analytic error allowance)."""
    if engine.factors:
        xs = engine.model.split(x.coords)
        parts = [kernel_mass(fe, t, Point(xf)) for fe, xf in zip(engine.factors, xs)]
        return math.prod(v for v, _ in parts), sum(e for _, e in parts)
    return _radial_mass(engine, t)


@lru_cache(maxsize=256)
def _radial_mass(engine: HeatKernelEngine, t: float) -> tuple[float, float]:
    """kernel_mass on a radial model, where it does not depend on x: the exact
    radial reduction over the whole of a compact model, else out to the
    kernel's reach with the analytic mass tail beyond it.  Cells are capped at
    sigma / 4 out to the reach, and at 1/16 of the radius beyond it."""
    model = engine.model
    sigma = math.sqrt(t)
    reach = model.kernel_reach(t)
    r_max = model.diameter if model.compact else reach
    cap = min(sigma / 4.0, r_max / 16.0)
    val = quadrature.radial_integral(
        model, lambda r: eval_radial(engine, t, r), r_max,
        scales_at_zero=(sigma,), max_cell=lambda left: cap if left < reach else r_max / 16.0,
    )
    if model.compact:
        return val, truncation_bound(engine, t) * model.total_volume
    return val, mass_tail_bound(engine, t, reach)


def chapman_kolmogorov(
    engine: HeatKernelEngine, t: float, s: float, x: Point, y: Point
) -> tuple[float, float, float]:
    """(convolution integral, direct kernel at t+s, error allowance)."""
    model = engine.model
    if engine.factors:
        factors = zip(engine.factors, model.split(x.coords), model.split(y.coords))
        parts = [chapman_kolmogorov(fe, t, s, Point(xf), Point(yf)) for fe, xf, yf in factors]
        return math.prod(p[0] for p in parts), math.prod(p[1] for p in parts), sum(p[2] for p in parts)
    d = geom.distance(model, x, y)
    if model.compact:
        r_max = model.diameter
        tail = truncation_bound(engine, t) + truncation_bound(engine, s)
    else:
        r_max = d + max(model.kernel_reach(t), model.kernel_reach(s))
        tail = mass_tail_bound(engine, t, r_max - d) * on_diag(engine, s) + mass_tail_bound(
            engine, s, r_max - d
        ) * on_diag(engine, t)
    conv = quadrature.two_point_integral(
        model,
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
    defects = []
    tail_max = 0.0
    trunc = 0.0
    for t in t_samples:
        trunc = max(trunc, truncation_bound(engine, t))
        for x in point_samples:
            mass, tail = kernel_mass(engine, t, x)
            tail_max = max(tail_max, tail)
            # expected mass 1 (all built-ins are stochastically complete);
            # the defect is charged after the analytic tail allowance
            defects.append(max(abs(mass - 1.0) - tail, 0.0))
    mass_defect, _ = worst_of(max, 0.0, {"mass_defect": defects})
    n = len(point_samples)
    ck_residuals = []
    for i, t in enumerate(t_samples):
        s = t_samples[(i + 1) % len(t_samples)]
        x = point_samples[i % n]
        y = point_samples[(i + 1) % n]
        conv, direct, allowance = chapman_kolmogorov(engine, t, s, x, y)
        ck_residuals.append(max(abs(conv - direct) - allowance, 0.0))
    ck, _ = worst_of(max, 0.0, {"ck_residual": ck_residuals})
    pairs = [(x, point_samples[(i + 1) % n]) for i, x in enumerate(point_samples)]
    sym, _ = worst_of(max, 0.0, {"symmetry_residual": [
        abs(eval_kernel(engine, t, x, y) - eval_kernel(engine, t, y, x)) for x, y in pairs for t in t_samples
    ]})
    return KernelCheckReport(
        mass_defect=mass_defect,
        ck_residual=ck,
        symmetry_residual=sym,
        truncation_bound=trunc,
        mass_tail_bound=tail_max,
        n_samples=len(t_samples) * n,
    )


def on_diag_sweep(engine: HeatKernelEngine, t_values) -> list[tuple[float, float]]:
    """(t, p(t, x, x)) as Python floats for each time of a sweep, from one
    ``on_diag`` call on the column of times; each value is its time's own
    ``on_diag`` to the bit."""
    ts = np.asarray(t_values, dtype=float)
    return list(zip(ts.tolist(), on_diag(engine, ts[:, None]).ravel().tolist()))


def on_diag_upper(engine: HeatKernelEngine, t_values) -> float:
    """Empirical sup of t^{m/2} p(t, x, x) over the sweep (x-independent here)."""
    m = engine.dim
    return worst_of(max, 0.0, {"C": (t ** (m / 2.0) * diag for t, diag in on_diag_sweep(engine, t_values))})[0]


def heat_bound_constant(engine: HeatKernelEngine, radius_fn, a: float, t_values, x_samples) -> float:
    """Empirical C in sup_y p(t,x,y) <= C a^{-m/2} min(t, R(x)^2)^{-m/2}: the
    sweep sup of p(t,x,x) a^{m/2} min(t, R(x)^2)^{m/2}."""
    m = engine.dim
    radii = [radius_fn(x) for x in x_samples]
    terms = (diag * a ** (m / 2.0) * min(t, Rx * Rx) ** (m / 2.0)
             for t, diag in on_diag_sweep(engine, t_values) for Rx in radii)
    return worst_of(max, 0.0, {"C_hat": terms})[0]
