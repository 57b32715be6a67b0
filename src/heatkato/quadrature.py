"""Internal quadrature helpers.

Three workhorses live here:

* ``radial_integral``   -- 1-d integrals of rho -> f(rho) against the geodesic
  sphere area s_m(rho), with a geometric cell ladder at rho = 0.
* ``two_point_integral``-- integrals of y -> f(d(y,x)) g(d(y,c)) over a whole
  model manifold.  Such integrands are axially symmetric about the geodesic
  through x and c: on E^m, H^3 and S^2 the integral reduces to two dimensions,
  in dimension 1 to the two sides of x (a periodic axis folds the far side).
  One cell set serves a whole batch of kernel times.
* ``near_field_integral`` -- every ball cut around a power singularity
  u^(-beta), on every path: one fixed Gauss-Jacobi rule with weight
  u^(m-1-beta) out to the excision radius, Gauss-Legendre cells beyond it.

``radial_integral`` and ``two_point_integral`` are composite Gauss-Legendre
(``geometry.gl_nodes``, shared with the polar grids) over explicit cell
partitions, so excising a region maps exactly to dropping cells/nodes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import UnsupportedModelError
from .geometry import ManifoldModel, ball_surface_many, gl_nodes


def feature_breaks(
    r_max: float,
    scales_at_zero=(),
    features=(),
    max_cell=None,
) -> np.ndarray:
    """Cell boundaries on [0, r_max]: geometric ladders out of 0 and around
    interior feature locations, then a cap on the cell width (see
    ``_cap_cells``; r_max / 16 by default)."""
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


def _cap_cells(pts, max_cell) -> np.ndarray:
    """The sorted break points, each gap split evenly into cells no wider than
    max_cell: a width, or a function of the gap's left end."""
    out = sorted(pts)
    refined = [out[0]]
    for right in out[1:]:
        left = refined[-1]
        k = int(math.ceil((right - left) / (max_cell(left) if callable(max_cell) else max_cell)))
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


def _ladder_starts(scales) -> tuple[float, ...]:
    """Ladder scales that make one ladder at least as fine as each row's own.

    A ratio-2 ladder from the smallest scale holds every row's ladder when the
    rows' scales are that scale times powers of two.  Otherwise the ladder
    steps by sqrt(2); each of its cells is then narrower than the cell that
    any row's own ratio-2 ladder puts at the same place."""
    s = np.asarray(scales, dtype=float)
    lo = float(s.min())
    k = np.log2(s / lo)
    return (lo,) if np.array_equal(k, np.round(k)) else (lo, lo * math.sqrt(2.0))


def _reach_cap(r_rows: np.ndarray, cap: np.ndarray):
    """The radial cell cap of a batch: one width when the rows share it, else
    a function of the radius that gives the smallest cap among the rows whose
    r_max passes that radius, so each row keeps its own cap out to its r_max."""
    r, c = np.broadcast_arrays(r_rows, cap)
    if c.min() == c.max():
        return float(c.min())
    order = np.argsort(r.ravel())
    r_sorted = r.ravel()[order]
    cap_beyond = np.minimum.accumulate(c.ravel()[order][::-1])[::-1]  # min cap of rows i.. in r order
    last = r_sorted.size - 1
    return lambda left: float(cap_beyond[min(int(np.searchsorted(r_sorted, left, side="right")), last)])


_MESH_BUDGET = 1 << 17  # most values (1 MB) one block of a batch's (rho, theta) mesh may hold


def two_point_integral(
    model: ManifoldModel,
    f,
    g,
    d: float,
    r_max,
    f_scale,
    g_scale,
    g_singular_radius=0.0,
    max_cell=None,
):
    """integral of f(d(y,x)) * g(d(y,c)) dmu(y) with d = d(x, c), for a batch.

    ``f_scale``/``g_scale`` control cell refinement near the two centers.
    Nodes with d(y,c) < g_singular_radius are dropped (the caller accounts for
    the excised ball analytically).  In dimension 1, y at distance rho from x
    lies at |rho - d| or rho + d from c; a periodic axis of period L folds the
    latter to min(rho + d, L - rho - d).

    ``r_max``, the two scales, ``g_singular_radius`` and ``max_cell`` take one
    value or one per batch row.  One side, f or g, may give one row per batch
    row: shape (k, n) for n distances.  One cell set serves the batch.  It
    reaches the largest r_max, its ladders start at the smallest scales, and
    out to each row's r_max that row's cap bounds its cells, so it is at
    least as fine as each row's own set.  Returns one value per row, or a
    float when nothing is batched.
    """
    eps = np.asarray(g_singular_radius, dtype=float)
    r_rows = np.minimum(np.asarray(r_max, dtype=float), model.diameter)
    reach = float(r_rows.max())
    cap = np.asarray(r_rows / 16.0 if max_cell is None else max_cell, dtype=float)
    radial_cap = _reach_cap(r_rows, cap)
    excised = eps.max() > 0.0
    if d <= 1e-14:
        # concentric: purely radial (any dimension, including m = 1)
        scales = _ladder_starts(f_scale) + _ladder_starts(g_scale)
        scales += _ladder_starts(np.where(eps > 0.0, eps, f_scale))
        rho, w = gl_nodes(feature_breaks(reach, scales, (), radial_cap))
        vals = f(rho) * g(rho)
        if excised:
            vals = np.where(rho < eps[..., None], 0.0, vals)
        return _total(np.sum(w * ball_surface_many(model, rho) * vals, axis=-1))
    g_width = np.minimum(g_scale, np.where(eps > 0.0, eps, g_scale))
    breaks = feature_breaks(
        reach,
        scales_at_zero=_ladder_starts(f_scale),
        features=[(d, u) for u in _ladder_starts(g_width)],
        max_cell=radial_cap,
    )
    rho, w_rho = gl_nodes(breaks)
    if model.dim == 1:  # both sides of x; a periodic axis folds the far side
        sides = (np.abs(rho - d), rho + d if not model.period else np.minimum(rho + d, model.period - rho - d))
        vals = sum(np.where(u < eps[..., None], 0.0, g(u)) if excised else g(u) for u in sides)
        return _total(np.sum(w_rho * f(rho) * vals, axis=-1))
    # angular feature width: the g-structure around the axis seen from x;
    # the angular cap shrinks together with the radial one
    w_ang = np.minimum(np.maximum(np.maximum(g_scale, eps), 1e-6) / max(d, 1e-6), math.pi)
    ang_cap = math.pi / 8.0
    if max_cell is not None:
        ang_cap *= float(np.min(cap / (r_rows / 16.0)))
    theta, w_theta = gl_nodes(feature_breaks(math.pi, scales_at_zero=_ladder_starts(w_ang), max_cell=ang_cap))

    radial_part = w_rho * ball_surface_many(model, rho) * f(rho)
    ang_part = w_theta * _angular_jacobian(model, theta) / _full_rotation(model)
    rows = max(np.size(v) for v in (r_max, f_scale, g_scale, g_singular_radius, max_cell))
    return _total(_mesh_sum(model, g, d, rho, theta, radial_part, eps, rows) @ ang_part)


def _mesh_sum(model, g, d, rho, theta, radial_part, eps, rows) -> np.ndarray:
    """radial_part @ g(d(y,c)) over the (rho, theta) mesh without the nodes at
    d(y,c) < eps: shape (n_theta,), or one row per batch row.  A batch builds
    the mesh in blocks of rho rows of at most _MESH_BUDGET values, counting
    each node's g values and the few arrays cross_distance makes per node; a
    single row takes the whole mesh in one block.  Excision radii that
    differ by row need a g shared by the rows."""
    n_rho, n_theta = rho.size, theta.size
    per_node = (1 if radial_part.ndim == 2 else rows) + 5
    step = n_rho if rows == 1 else max(1, _MESH_BUDGET // (per_node * n_theta))
    radii = np.unique(eps)
    acc = 0.0
    for lo in range(0, n_rho, step):
        R, T = np.meshgrid(rho[lo : lo + step], theta, indexing="ij")
        block = model.cross_distance(R, T, d)  # d(y, c) in difference form, exact for nearby points
        vals = g(block.ravel())
        vals = vals.reshape(vals.shape[:-1] + block.shape)
        part = radial_part[..., lo : lo + step]
        if radii.size == 1:
            if radii[0] > 0.0:
                vals = np.where(block < radii[0], 0.0, vals)
            acc = acc + part @ vals
        else:
            # radii per row come with a g shared by the rows: mask g once per
            # distinct radius, never once per row
            out = np.empty((rows, n_theta))
            for e in radii:
                sel = eps == e
                out[sel] = (part[sel] if part.ndim == 2 else part) @ np.where(block < e, 0.0, vals)
            acc = acc + out
    return acc


def _total(values):
    return float(values) if np.ndim(values) == 0 else values


def _full_rotation(model: ManifoldModel) -> float:
    # ball_surface already contains the full direction-sphere volume; the
    # angular jacobian integrates to that same constant, so normalize it out.
    return 2.0 * math.pi if model.dim == 2 else 4.0 * math.pi


# ---------------------------------------------------------------------------
# excised near field


NEAR_FIELD_NODES = 24


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight t^exponent on [0, 1], each weight
    divided by t^exponent at its node: sum(w * h(t)) integrates h itself when
    h / t^exponent is smooth.  Built on first use; the arrays are read-only
    because every caller shares them.

    The nodes are the zeros of P_n^(0,b)(2t - 1), b = exponent: the
    eigenvalues of the Jacobi matrix (Golub and Welsch, Math. Comp. 23, 1969),
    then two Newton steps on the polynomial written in t, which keep the nodes
    near 0 accurate relative to their size.  With alpha = 0 the Gauss weight
    is 2^(b+1) / ((1 - x^2) P_n'(x)^2) at x = 2t - 1."""
    b = exponent
    k = np.arange(1, n)
    c = 2.0 * k + b
    diag = np.append(b / (b + 2.0), b * b / (c * (c + 2.0)))
    off = 2.0 * k * (k + b) / (c * np.sqrt((c + 1.0) * (c - 1.0)))
    t = 0.5 * (1.0 + np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)))
    for _ in range(2):
        p, dp = _jacobi_and_slope(n, b, t)
        t = t - p / (2.0 * dp)
    _, dp = _jacobi_and_slope(n, b, t)
    w = 1.0 / (4.0 * t * (1.0 - t) * dp * dp) / t**b
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _jacobi_and_slope(n: int, b: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n^(0,b)(x) and dP_n/dx at x = 2t - 1, by the three-term recurrence
    in t and (2n + b)(1 - x^2) P_n' = n(-b - (2n + b)x) P_n + 2n(n + b) P_{n-1}.
    (k - 1 + b) is summed in that order: (k + b) - 1 loses digits as b nears -1."""
    prev, p = np.ones_like(t), (b + 2.0) * t - (b + 1.0)
    for k in range(2, n + 1):
        c = 2.0 * k + b
        a = c * (c - 2.0)
        prev, p = p, ((c - 1.0) * (2.0 * a * t - (a + b * b)) * p - 2.0 * (k - 1) * (k - 1 + b) * c * prev) / (
            2.0 * k * (k + b) * (c - 2.0)
        )
    dp = (2.0 * n * (n - (2 * n + b) * t) * p + 2.0 * n * (n + b) * prev) / ((2 * n + b) * 4.0 * t * (1.0 - t))
    return p, dp


def excision_radius(scale):
    """Radius of the ball cut around a singular center for a kernel of length
    scale sqrt(s): 5% of the scale within [1e-5, 1e-3], snapped down to a
    power of two so that a batch of s holds only a few distinct radii."""
    return np.exp2(np.floor(np.log2(np.clip(0.05 * scale, 1e-5, 1e-3))))


def near_field_integral(model: ManifoldModel, kernel, profile, d: float, radius, beta: float, scale=None):
    """integral over [0, radius] of profile(u) * s_m(u) * kernel(|d - u|) du.

    This is the ball of the given radius around a singular center c, at
    distance d from x, with the kernel bounded on each distance sphere by its
    value at the point nearest x (exact when d = 0).  u^beta * profile(u) *
    kernel(|d - u|) is smooth near 0; beta < m.  Pass radius = min(ball
    radius, support radius), so no window edge falls inside a cell.

    ``scale`` is the kernel scale sqrt(s): out to excision_radius(scale) one
    Gauss-Jacobi rule with weight u^(m-1-beta) integrates the ball, beyond it
    composite Gauss-Legendre cells.  Without it (a kernel smooth on the ball,
    or none) the Gauss-Jacobi rule covers the whole ball.  For a batch,
    ``radius`` and ``scale`` hold one value per row or one for all, and
    ``kernel`` takes a (k, n) array of distances, row i for batch row i, or
    n distances shared by the rows; one value per row returns.
    """
    t, w = _jacobi_rule(NEAR_FIELD_NODES, model.dim - 1.0 - beta)
    radius = np.asarray(radius, dtype=float)
    core = radius if scale is None else np.minimum(radius, excision_radius(scale))
    # profile and sphere area once per distinct core radius
    cores, row = np.unique(core, return_inverse=True)
    u, row = cores[:, None] * t, row.reshape(core.shape)
    near = profile(u) * ball_surface_many(model, u)
    total = core * np.sum(w * (near[row] * kernel(np.abs(d - u[row]))), axis=-1)
    if scale is None or np.all(core == radius):
        return _total(total)
    # beyond the cores: cells out of the smallest core (so every core, a power
    # of two, is a break), a quarter as wide as their distance from 0 at most,
    # with ladders at the kernel scales around 0 and d; one set for the batch
    lo = float(core[core < radius].min())
    starts = _ladder_starts(scale)
    cap = lambda left: max(left, lo) / 4.0
    breaks = feature_breaks(float(radius.max()), (4.0 * lo,) + starts, [(d, v) for v in starts], cap)
    rho, w_rho = gl_nodes(np.union1d(breaks[breaks >= lo], radius))
    shell = (rho > core[..., None]) & (rho < radius[..., None])
    vals = profile(rho) * ball_surface_many(model, rho) * kernel(np.abs(d - rho))
    return _total(total + np.sum(np.where(shell, w_rho * vals, 0.0), axis=-1))


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
