"""Internal quadrature helpers.

Three workhorses live here:

* ``radial_integral``   -- 1-d integrals of rho -> f(rho) against the geodesic
  sphere area s_m(rho), with a geometric cell ladder at rho = 0.
* ``two_point_integral``-- integrals of y -> f(d(y,x)) g(d(y,c)) over a whole
  model manifold.  On E^m, H^3, S^2 and the circle such integrands are
  axially symmetric about the geodesic through x and c, which reduces the
  integral to two dimensions regardless of the ambient dimension.
* ``near_field_integral`` -- the ball of radius eps around a power
  singularity u^(-beta) that ``two_point_integral`` excises, by one fixed
  Gauss-Jacobi rule with weight u^(m-1-beta).

``radial_integral`` and ``two_point_integral`` are composite Gauss-Legendre
(``geometry.gl_nodes``, shared with the polar grids) over explicit cell
partitions, so excising a region maps exactly to dropping cells/nodes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import UnsupportedModelError
from .geometry import ManifoldModel, ball_surface_many, gl_nodes


def feature_breaks(
    r_max: float,
    scales_at_zero=(),
    features=(),
    max_cell: float | None = None,
) -> np.ndarray:
    """Cell boundaries on [0, r_max]: geometric ladders out of 0 and around
    interior feature locations, then a global cap on the cell width."""
    pts = {0.0, r_max}
    for s in scales_at_zero:
        u = max(s, 1e-12) / 4.0
        while u < r_max:
            pts.add(u)
            u *= 2.0
    for loc, s in features:
        if not 0.0 < loc < r_max:
            continue
        pts.add(loc)
        u = max(s, 1e-12) / 4.0
        while u < r_max:
            for v in (loc - u, loc + u):
                if 0.0 < v < r_max:
                    pts.add(v)
            u *= 2.0
    return _cap_cells(pts, r_max / 16.0 if max_cell is None else max_cell)


def _cap_cells(pts, max_cell: float) -> np.ndarray:
    """The sorted break points, each gap split evenly into cells <= max_cell."""
    out = sorted(pts)
    refined = [out[0]]
    for right in out[1:]:
        left = refined[-1]
        k = int(math.ceil((right - left) / max_cell))
        for j in range(1, k + 1):
            refined.append(left + (right - left) * j / k)
    return np.array(refined)


def radial_integral(model: ManifoldModel, f, r_max: float, scales_at_zero=(), max_cell=None) -> float:
    """integral over B(x, r_max) of f(d(x, y)) dmu(y), reduced to 1-d."""
    rho, w = gl_nodes(feature_breaks(r_max, scales_at_zero, (), max_cell))
    area = ball_surface_many(model, rho)
    return float(np.sum(w * area * f(rho)))


# ---------------------------------------------------------------------------
# two-point (axisymmetric) integrals


def _angular_jacobian(model: ManifoldModel, theta: np.ndarray) -> np.ndarray:
    """Weight of the direction sphere at polar angle theta (full rotation)."""
    if model.dim == 2:
        return np.full_like(theta, 2.0)  # both sides of the axis
    if model.dim == 3:
        return 2.0 * math.pi * np.sin(theta)
    raise UnsupportedModelError("two-point reduction implemented for m in {2, 3}")


def two_point_integral(
    model: ManifoldModel,
    f,
    g,
    d: float,
    r_max: float,
    f_scale: float,
    g_scale: float,
    g_singular_radius: float = 0.0,
    max_cell: float | None = None,
) -> float:
    """integral of f(d(y,x)) * g(d(y,c)) dmu(y) with d = d(x, c).

    ``f_scale``/``g_scale`` control cell refinement near the two centers.
    Nodes with d(y,c) < g_singular_radius are dropped (the caller accounts for
    the excised ball analytically).
    """
    if model.dim == 1 and model.period:
        return _two_point_periodic(f, g, d, g_singular_radius, model.period)
    r_max = min(r_max, model.diameter)
    if d <= 1e-14:
        # concentric: purely radial (any dimension, including m = 1)
        def combined(rho):
            vals = f(rho) * g(rho)
            if g_singular_radius > 0.0:
                vals = np.where(rho < g_singular_radius, 0.0, vals)
            return vals

        return radial_integral(
            model,
            combined,
            r_max,
            scales_at_zero=(f_scale, g_scale, g_singular_radius or f_scale),
            max_cell=max_cell,
        )
    if model.dim == 1:  # the line: both sides of x
        breaks = feature_breaks(
            r_max,
            scales_at_zero=(f_scale,),
            features=((d, min(g_scale, g_singular_radius or g_scale)),),
            max_cell=max_cell,
        )
        rho, w = gl_nodes(breaks)
        gplus = g(rho + d)
        gminus = g(np.abs(rho - d))
        if g_singular_radius > 0.0:
            gplus = np.where(rho + d < g_singular_radius, 0.0, gplus)
            gminus = np.where(np.abs(rho - d) < g_singular_radius, 0.0, gminus)
        return float(np.sum(w * f(rho) * (gplus + gminus)))
    rad_breaks = feature_breaks(
        r_max,
        scales_at_zero=(f_scale,),
        features=((d, min(g_scale, g_singular_radius or g_scale)),),
        max_cell=max_cell,
    )
    rho, w_rho = gl_nodes(rad_breaks)
    # angular feature width: the g-structure around the axis seen from x;
    # the angular cap shrinks together with the radial one
    w_ang = max(g_scale, g_singular_radius, 1e-6) / max(d, 1e-6)
    ang_cap = math.pi / 8.0
    if max_cell is not None:
        ang_cap *= max_cell / (r_max / 16.0)
    ang_breaks = feature_breaks(math.pi, scales_at_zero=(min(w_ang, math.pi),), max_cell=ang_cap)
    theta, w_theta = gl_nodes(ang_breaks)

    R, T = np.meshgrid(rho, theta, indexing="ij")
    dc = model.cross_distance(R, T, d)  # d(y, c) in difference form, exact for nearby points
    vals = g(dc.ravel()).reshape(dc.shape)
    if g_singular_radius > 0.0:
        vals = np.where(dc < g_singular_radius, 0.0, vals)
    radial_part = w_rho * ball_surface_many(model, rho) * f(rho)
    ang_part = w_theta * _angular_jacobian(model, theta) / _full_rotation(model)
    return float(radial_part @ vals @ ang_part)


def _full_rotation(model: ManifoldModel) -> float:
    # ball_surface already contains the full direction-sphere volume; the
    # angular jacobian integrates to that same constant, so normalize it out.
    return 2.0 * math.pi if model.dim == 2 else 4.0 * math.pi


def _two_point_periodic(f, g, d: float, g_singular_radius: float, L: float) -> float:
    # chart variable: signed arc length from x on a circle of circumference L;
    # c sits at +d
    half = L / 2.0

    def wrap(a):
        return np.abs(np.mod(a + half, L) - half)

    pts = {-half, 0.0, half}
    for loc in (0.0, d, d - L):
        for s in (1e-4, 1e-3, 1e-2, 0.1, 0.5):
            for v in (loc - s, loc + s):
                if -half < v < half:
                    pts.add(v)
        if -half < loc < half:
            pts.add(loc)
    theta, w = gl_nodes(_cap_cells(pts, L / 32.0))
    dist_x = np.abs(theta)
    dist_c = wrap(theta - d)
    vals = f(dist_x) * g(dist_c)
    if g_singular_radius > 0.0:
        vals = np.where(dist_c < g_singular_radius, 0.0, vals)
    return float(np.sum(w * vals))


# ---------------------------------------------------------------------------
# excised near field


NEAR_FIELD_NODES = 24


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight t^exponent on [0, 1], each weight
    divided by t^exponent at its node: sum(w * h(t)) integrates h itself when
    h / t^exponent is smooth.  Built on first use; the arrays are read-only
    because every caller shares them."""
    x, w = roots_jacobi(n, 0.0, exponent)
    t = 0.5 * (1.0 + x)
    w = w / 2.0 ** (exponent + 1.0) / t**exponent
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def near_field_integral(model: ManifoldModel, kernel, profile, d: float, radius: float, beta: float) -> float:
    """integral over [0, radius] of profile(u) * s_m(u) * kernel(|d - u|) du.

    This is the ball of the given radius around a singular center c, at
    distance d from x, with the kernel bounded on each distance sphere by its
    value at the point nearest x (exact when d = 0).  ``beta`` is the power
    singularity of profile(u) * kernel(|d - u|) at u = 0, so that the
    integrand divided by u^(m-1-beta) is smooth on [0, radius]; beta < m.
    Pass radius = min(excision radius, support radius) so that a window edge
    never falls inside the rule.
    """
    t, w = _jacobi_rule(NEAR_FIELD_NODES, model.dim - 1.0 - beta)
    u = radius * t
    vals = profile(u) * ball_surface_many(model, u) * kernel(np.abs(d - u))
    return float(radius * np.sum(w * vals))


# ---------------------------------------------------------------------------
# certificate integrals


def certificate_integral(time_factor, q: float) -> float:
    """integral over (0, 1] of time_factor(s)^(1/q) ds.

    Under s = e^{-x} a power-like singularity s^{-a} (a < 1) becomes the
    smooth exponential e^{-(1-a)x} on [0, inf); composite Gauss-Legendre in x
    then resolves the integral to machine precision however close a is to 1.
    The extent grows adaptively until the last segment is negligible."""

    def g(x: float) -> float:
        s = math.exp(-x)
        return time_factor(s) ** (1.0 / q) * s

    # direct integration on [0, X]; e^{-X} stays comfortably above the float
    # floor, and X is halved until the time factor itself stays finite there
    # (s^(-m/2) overflows at s = e^{-350} for m >= 5)
    X = 350.0
    while X > 1.0 and not _finite_at(time_factor, math.exp(-X)):
        X /= 2.0
    breaks = np.arange(0.0, X + 0.25, 0.5)
    nodes, weights = gl_nodes(breaks)
    vals = np.array([g(float(x)) for x in nodes])
    total = float(np.sum(weights * vals))
    # geometric tail: by x = X any admissible factor is in its asymptotic
    # power regime, where g is exactly exponential
    gX = g(X)
    if gX > 1e-18 * max(total, 1e-300):
        # wide baseline keeps the fitted rate exact to ~1e-15 even when the
        # tail carries a sizable share of the total
        base = min(50.0, X / 2.0)
        lam = math.log(g(X - base) / gX) / base
        if lam <= 0.0:
            return math.inf  # not integrable at 0
        total += gX / lam
    return total


def _finite_at(time_factor, s: float) -> bool:
    try:
        return math.isfinite(time_factor(s))
    except OverflowError:
        return False
