"""Model manifolds: points, distances, volumes, exponential maps and quadrature grids.

Each built-in geometry is a homogeneous model space with closed-form distance
and ball volume, one frozen class under ``ManifoldModel``:

* ``Euclidean(m)``         -- flat R^m in Cartesian coordinates
* ``Torus(m, L)``          -- cube [0, L)^m with opposite faces identified;
                              the circle is ``Torus(1, 2 pi)``, a point its angle
* ``Sphere2()``            -- unit 2-sphere, points stored as embedded unit vectors
* ``Hyperbolic3()``        -- upper half-space {z > 0} with metric (dx^2+dy^2+dz^2)/z^2
* ``Product((a, b))``      -- Riemannian product, chart coords concatenated

Each class owns its formulas: chart, distance, volumes, exponential map and
Gaussian step, quadrature grids, and the kernel facts the heat-kernel engine
looks up (closed-form profile, period, mass tail, reach, diameter, and the
kernel factors: a product's factors, a flat torus's periodic axes).  Sample
paths are stored in the chart, so the samplers' rows are chart rows.
``split`` cuts arrays by kernel factor.  The module-level functions check
arguments and hand the rest to the model; everything here is a pure
function of its inputs.  scipy is imported inside the few functions that
call it, since every command imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidPointError, ManifestError, UnsupportedModelError

_UNIT_TOL = 1e-9  # max drift from the unit sphere before a point is rejected


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported at the first call.

    Only two ball volumes call it: a flat torus's once the ball reaches past
    its cube's edges (m >= 3), and a product's.  scipy.integrate costs about
    0.17 s on top of numpy and scipy.sparse.  ``kato`` and ``potentials``
    import this same function and do not call it.
    """
    from scipy.integrate import quad

    return quad(*args, **kwargs)


def time_factor(f, t):
    """f(t) for a time t, or f at each time of an array of times, shape kept,
    computed with Python floats: numpy's array pow and exp differ from
    Python's in the last bit on a few inputs, and a kernel row must not
    depend on the batch of times it is computed in."""
    if np.ndim(t) == 0:
        return f(t)
    return np.array([f(s) for s in t.ravel().tolist()]).reshape(t.shape)


class ManifoldModel:
    """Base of the model classes; the defaults are those of a non-compact model
    with a radial kernel and no period."""

    factors: tuple = ()
    kernel_factors: tuple = ()  # models whose kernels multiply to this one's
    ricci_lower_bound = 0.0
    compact = False
    flat = False  # geodesic random walk increments are exact (chart is flat)
    # p(t, x, y) is a function of d(x, y) alone unless it is a product
    radial_kernel = property(lambda self: not self.kernel_factors)
    period = None  # lattice period of each chart axis (flat periodic models)
    diameter = math.inf
    compact_resolution = 0.1  # default full-grid spacing
    total_volume = math.inf

    # lengths of a chart point (a sample-path row too) and a chart tangent
    # vector (ambient on the sphere)
    chart_dim = property(lambda self: self.dim)
    tangent_dim = property(lambda self: self.dim)

    def describe(self) -> str:
        return self.name

    def base_coords(self) -> np.ndarray:
        return np.array(self.origin)

    def validate(self, c: np.ndarray) -> np.ndarray:
        return c

    def split(self, a: np.ndarray, width: str = "chart_dim") -> list:
        """The last axis of ``a`` cut into kernel-factor blocks of their ``width`` (a dimension attribute)."""
        out, i = [], 0
        for f in self.kernel_factors:
            w = getattr(f, width)
            out.append(a[..., i : i + w])
            i += w
        return out

    def axis_gap(self, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """A new array of the chart displacements ys - x along one axis (its
        absolute value folded into [0, L/2] on a torus); a flat model's
        distance is the root of their squares, a box window bounds their
        absolute values."""
        return ys - x

    def sphere_area_many(self, r: np.ndarray) -> np.ndarray:
        """Geodesic sphere areas at the radii of a 1-d array.  A flat model's
        chart is an isometry out to its comparability radius (the smallest
        half-period), so there the area is Euclidean; beyond it, and on
        curved products, a central difference of the ball volume."""
        m = self.dim
        out = m * _omega(m) * r ** (m - 1) if self.flat else np.zeros(r.shape)
        for i in np.flatnonzero(r > (self.comparability_radius(4.0) if self.flat else 0.0)):
            v = float(r[i])
            h = max(1e-6, 1e-6 * v)
            out[i] = (ball_volume_radial(self, v + h) - ball_volume_radial(self, max(v - h, 0.0))) / (
                v + h - max(v - h, 0.0)
            )
        return out

    def full_nodes(self, resolution: float):
        raise DomainError(f"{self.describe()} is non-compact; a window is required")

    def full_grid(self, resolution: float) -> "QuadratureGrid":
        nodes, weights = self.full_nodes(resolution)
        return QuadratureGrid(self, nodes, weights, FullWindow(), resolution)

    def polar_nodes(self, center: Point, rho: np.ndarray, w_rho: np.ndarray, n_dir: int | None):
        """Nodes and weights of a polar grid around ``center``: the radial
        nodes ``rho`` (weights ``w_rho``) outer, the directions inner."""
        raise UnsupportedModelError(f"ball window not supported on {self.describe()}")

    def box_grid(self, center: Point, halfwidth, h: float):
        raise UnsupportedModelError("box windows only on flat chart models")

    def product_grid(self, window: "ProductWindow", resolution: float, n_dir: int | None) -> "QuadratureGrid":
        raise UnsupportedModelError("product window needs a product model")

    def cross_distance(self, rho: np.ndarray, theta: np.ndarray, d: float) -> np.ndarray:
        raise UnsupportedModelError(f"no two-point reduction on {self.describe()}")

    def gaussian_step(self, xs, z, h):
        # identity metric in the chart; on sphere2 an ambient step, which
        # exp_many projects onto the tangent plane
        return math.sqrt(h) * z

    def random_walk(self, start, z, h, record_idx, out):
        """Geodesic random walk from chart point ``start``: step k of row j is
        driven by the normals z[j, k] (z is (B, n_steps, tangent_dim)), and the
        path rows after the steps in ``record_idx`` are written to ``out``
        (B, len(record_idx), chart_dim)."""
        slot = {int(k): j for j, k in enumerate(record_idx)}
        X = np.broadcast_to(start, (len(z), start.size)).copy()
        if 0 in slot:
            out[:, slot[0], :] = X
        for k in range(z.shape[1]):
            X = exp_many(self, X, tangent_from_normals(self, X, z[:, k, :], h))
            if k + 1 in slot:
                out[:, slot[k + 1], :] = X

    def wrap_path(self, paths: np.ndarray) -> None:
        """Fold chart rows back into the chart in place after a flat walk
        (a torus axis; nothing to do elsewhere)."""

    # heat-kernel facts
    def mass_tail(self, t: float, radius: float) -> float:
        """Kernel mass outside a ball of ``radius`` > 0 (compact: a ball as
        wide as the diameter covers everything)."""
        return 0.0 if radius >= self.diameter else 1.0

    def kernel_reach(self, t: float) -> float:
        """Radius outside which the kernel mass is below ~1e-12."""
        return math.sqrt(2.0 * t * 70.0)


def _largest_radius(ok, hi: float) -> float:
    """Bisection for the largest r in [0, hi] with ok(r) (ok holds near 0)."""
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _radial_breaks(radius: float, h: float) -> np.ndarray:
    return np.linspace(0.0, radius, max(6, int(math.ceil(radius / h))) + 1)


def _exp_polar(model, c, vs, radial_weights, w_dir):
    """Polar grid nodes exp_c(vs), vs (n_rho, n_dir, 3), with weights radial x direction."""
    flat_x = np.broadcast_to(c, vs.reshape(-1, 3).shape)
    nodes = exp_many(model, flat_x, vs.reshape(-1, 3))
    return nodes, (radial_weights[:, None] * w_dir[None, :]).ravel()


class _FlatChart(ManifoldModel):
    """Cartesian chart with the identity metric: Euclidean and Torus."""

    flat = True

    def wrap(self, chart: np.ndarray) -> np.ndarray:
        return chart

    def base_coords(self) -> np.ndarray:
        return np.zeros(self.dim)

    def distance_many(self, x, ys):
        """The root of the squared axis gaps, built one axis at a time into
        one n-vector and summed in np.add.reduce's order along a row, so it
        equals np.linalg.norm of the gap rows on C-ordered rows to the bit:
        below 8 axes one after another; from 8 on, axis k into partial sum
        k mod 8, the eight joined as a tree, then the last m mod 8 axes one
        after another.  The order of the rows in memory does not enter."""
        m = self.dim

        def square(k):
            dk = self.axis_gap(x[..., k], ys[:, k])
            return np.multiply(dk, dk, out=dk)

        tree = m - m % 8
        if tree:
            p = [square(k) for k in range(8)]
            for k in range(8, tree):
                p[k % 8] += square(k)
            total = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
        else:
            total = square(0)
        for k in range(max(tree, 1), m):
            total += square(k)
        return np.sqrt(total, out=total)

    def exp_many(self, xs, vs):
        return self.wrap(xs + vs)

    def box_grid(self, center, halfwidth, h):
        m = self.dim
        hw = np.asarray(halfwidth, dtype=float)
        if hw.shape == ():
            hw = np.full(m, float(hw))
        if hw.shape != (m,) or np.any(hw <= 0):
            raise DomainError("box halfwidths must be positive, one per axis")
        axes, steps = [], []
        for kdim in range(m):
            n = max(1, int(round(2.0 * hw[kdim] / h)))
            delta = 2.0 * hw[kdim] / n
            axes.append(center.coords[kdim] - hw[kdim] + (np.arange(n) + 0.5) * delta)
            steps.append(delta)
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes = self.wrap(np.stack([g.ravel() for g in mesh], axis=1))
        return nodes, np.full(nodes.shape[0], float(np.prod(steps)))


@dataclass(frozen=True)
class Euclidean(_FlatChart):
    dim: int

    def describe(self) -> str:
        return f"euclidean:{self.dim}"

    def random_coords(self, rng, spread):
        return rng.uniform(-spread, spread, self.dim)

    def ball_volume(self, r: float) -> float:
        return _omega(self.dim) * r**self.dim

    def polar_nodes(self, center, rho, w_rho, n_dir):
        m = self.dim
        if m == 1:
            dirs = np.array([[1.0], [-1.0]])
            w_dir = np.array([1.0, 1.0])
        elif m == 2:
            n_ang = n_dir or 64
            ang = (np.arange(n_ang) + 0.5) * (2.0 * math.pi / n_ang)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            w_dir = np.full(n_ang, 2.0 * math.pi / n_ang)
        elif m == 3:
            dirs, w_dir = _sphere_directions(n_dir or 20)
        else:
            raise UnsupportedModelError("ball grids implemented for m <= 3")
        nodes = center.coords[None, None, :] + rho[:, None, None] * dirs[None, :, :]
        weights = (w_rho * rho ** (m - 1))[:, None] * w_dir[None, :]
        return nodes.reshape(-1, m), weights.ravel()

    def cross_distance(self, rho, theta, d):
        sin_half_sq = np.sin(theta / 2.0) ** 2
        return np.sqrt((rho - d) ** 2 + 4.0 * rho * d * sin_half_sq)

    def heat_profile(self, t, d: np.ndarray) -> np.ndarray:
        """(2 pi t)^(-m/2) e^(-d^2/(2t)) at a time t, or at a column of times
        (k, 1) broadcast against d; the prefactor per time by ``time_factor``."""
        pref = time_factor(lambda s: (2.0 * math.pi * s) ** (-self.dim / 2.0), t)
        return pref * np.exp(-d * d / (2.0 * t))

    def mass_tail(self, t, radius):
        """Q(m/2, x) = P(chi^2_m > 2x), x = radius^2 / (2t): upward from
        Q(1/2, x) = erfc(sqrt x) or Q(1, x) = e^(-x) by
        Q(a + 1, x) = Q(a, x) + x^a e^(-x) / Gamma(a + 1), every term positive."""
        x = radius * radius / (2.0 * t)
        if x == 0.0:
            return 1.0
        a, q = (0.5, math.erfc(math.sqrt(x))) if self.dim % 2 else (1.0, math.exp(-x))
        while a < self.dim / 2.0:
            q += math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))
            a += 1.0
        return q

    def comparability_radius(self, b: float) -> float:
        return math.inf  # chart metric = identity everywhere


@dataclass(frozen=True)
class Torus(_FlatChart):
    dim: int
    side_length: float
    compact = True

    def describe(self) -> str:
        side = f"{self.side_length:g}"
        if float(side) != self.side_length:  # e.g. the circle's 2 pi
            side = repr(self.side_length)
        return f"torus:{self.dim}:{side}"

    period = property(lambda self: self.side_length)
    # the product of one periodic axis per chart axis
    kernel_factors = property(lambda self: (Torus(1, self.side_length),) * self.dim if self.dim > 1 else ())
    diameter = property(lambda self: self.side_length * math.sqrt(self.dim) / 2.0)
    # a circle keeps 256 nodes a period
    compact_resolution = property(lambda self: self.side_length / (256.0 if self.dim == 1 else 48.0))
    total_volume = property(lambda self: self.side_length**self.dim)

    def wrap(self, chart):
        return np.mod(chart, self.side_length)

    validate = wrap

    def wrap_path(self, paths):
        # fold only off-chart entries, bit for bit np.mod's result (which turns -0.0 into +0.0)
        L = self.side_length
        outside = (paths < 0.0) | (paths >= L) | np.signbit(paths)
        np.mod(paths, L, out=paths, where=outside)

    def axis_gap(self, x, ys):
        # min(|ys - x|, L - |ys - x|), folded in place: chart coords lie in
        # [0, L], so |ys - x| <= L
        d = np.abs(ys - x)
        return np.minimum(d, self.side_length - d, out=d)

    def random_coords(self, rng, spread):
        return rng.uniform(0.0, self.side_length, self.dim)

    def sphere_area_many(self, r):
        if self.dim == 1:  # two points out to the half period, none beyond: exact at the kink
            return np.where(r < self.side_length / 2.0, 2.0, 0.0)
        return super().sphere_area_many(r)

    def ball_volume(self, r):
        return _torus_section_area(r, self.side_length, self.dim)

    def full_grid(self, resolution):
        # the row-major tensor product of one axis grid per kernel factor
        nodes, weights = self.full_nodes(resolution)
        axes = tuple(f.full_grid(resolution) for f in self.kernel_factors)
        return QuadratureGrid(self, nodes, weights, FullWindow(), resolution, axes)

    def full_nodes(self, resolution):
        L = self.side_length
        n = max(4, int(round(L / resolution)))
        axis = np.arange(n) * (L / n)
        mesh = np.meshgrid(*([axis] * self.dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in mesh], axis=1)
        return nodes, np.full(nodes.shape[0], (L / n) ** self.dim)

    def comparability_radius(self, b):
        return self.side_length / 2.0


@dataclass(frozen=True)
class Sphere2(ManifoldModel):
    # Ric = g on the unit 2-sphere; 0 is still a valid lower bound and matches
    # the flat-comparison conventions used elsewhere.  Points are stored as
    # embedded unit vectors in R^3.
    name = "sphere2"
    dim = 2
    compact = True
    diameter = math.pi
    chart_dim = 3
    tangent_dim = 3
    compact_resolution = math.pi / 48.0
    total_volume = 4.0 * math.pi
    origin = (0.0, 0.0, 1.0)

    def validate(self, c):
        n = np.linalg.norm(c)
        if abs(n - 1.0) > _UNIT_TOL:
            raise InvalidPointError(f"embedded point has norm {n}, expected 1")
        return c / n

    def random_coords(self, rng, spread):
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)

    def distance_many(self, x, ys):
        # |x cross y| from np.cross's three columns, their squares summed
        # (c0^2 + c1^2) + c2^2 as np.linalg.norm sums a row
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        y0, y1, y2 = ys[:, 0], ys[:, 1], ys[:, 2]
        total = np.square(x1 * y2 - x2 * y1)
        total += np.square(x2 * y0 - x0 * y2)
        total += np.square(x0 * y1 - x1 * y0)
        # cos d summed (y0 x0 + y1 x1) + y2 x2, whatever the memory order of ys
        return np.arctan2(np.sqrt(total, out=total), (y0 * x0 + y1 * x1) + y2 * x2)

    def ball_volume(self, r):
        return 2.0 * math.pi * (1.0 - math.cos(min(r, math.pi)))

    def sphere_area_many(self, r):
        return np.where(r < math.pi, 2.0 * math.pi * np.sin(np.minimum(r, math.pi)), 0.0)

    def exp_many(self, xs, vs):
        # project v onto the tangent plane first so small constraint drift
        # cannot accumulate along a walk
        v = vs - np.sum(vs * xs, axis=1, keepdims=True) * xs
        norm = np.linalg.norm(v, axis=1)
        safe = np.maximum(norm, 1e-300)
        out = np.cos(norm)[:, None] * xs + (np.sin(norm) / safe)[:, None] * v
        return out / np.linalg.norm(out, axis=1, keepdims=True)

    def random_walk(self, start, z, h, record_idx, out):
        # gaussian_step (sqrt(h) z, ambient) then exp_many (which projects it
        # onto the tangent plane once), fused and in place on (3, B) component
        # rows with the same operations in the same order, so each row is
        # bit-identical to the two-call loop (a row sum over axis 1 of a
        # (B, 3) array is ((a0 + a1) + a2), and so is a norm's square)
        slot = {int(k): j for j, k in enumerate(record_idx)}
        B = len(z)
        x = np.empty((3, B))
        x[:] = start[:, None]
        prod, step = np.empty((3, B)), np.empty((3, B))
        dot, c, s = np.empty(B), np.empty(B), np.empty(B)
        root_h = math.sqrt(h)

        def row_sum(a):
            np.add(np.add(a[0], a[1], out=dot), a[2], out=dot)

        if 0 in slot:
            out[:, slot[0], :] = x.T
        for k in range(z.shape[1]):
            np.multiply(z[:, k, :].T, root_h, out=step)  # strided read, contiguous rows out
            row_sum(np.multiply(step, x, out=prod))  # exp_many's tangent projection
            step -= np.multiply(dot, x, out=prod)
            row_sum(np.multiply(step, step, out=prod))
            np.sqrt(dot, out=dot)
            np.cos(dot, out=c)
            np.sin(dot, out=s)
            s /= np.maximum(dot, 1e-300, out=dot)
            x *= c
            step *= s
            x += step
            row_sum(np.multiply(x, x, out=prod))  # renormalise onto the sphere
            x /= np.sqrt(dot, out=dot)
            if k + 1 in slot:
                out[:, slot[k + 1], :] = x.T

    def full_nodes(self, resolution):
        return _sphere_directions(max(8, int(math.ceil(math.pi / resolution))))

    def cross_distance(self, rho, theta, d):
        sin_half_sq = np.sin(theta / 2.0) ** 2
        one_m_cos = 2.0 * np.sin((rho - d) / 2.0) ** 2 + 2.0 * np.sin(rho) * math.sin(d) * sin_half_sq
        return 2.0 * np.arcsin(np.sqrt(np.clip(one_m_cos / 2.0, 0.0, 1.0)))

    def comparability_radius(self, b):
        # normal coordinates: metric eigenvalues between (sin r / r)^2 and 1
        return _largest_radius(lambda r: (math.sin(r) / r) ** 2 >= 1.0 / b, math.pi - 1e-9)


@dataclass(frozen=True)
class Hyperbolic3(ManifoldModel):
    name = "hyperbolic3"
    dim = 3
    ricci_lower_bound = -2.0
    origin = (0.0, 0.0, 1.0)

    def validate(self, c):
        if c[2] <= 0:
            raise InvalidPointError("upper half-space chart needs positive height")
        return c

    def random_coords(self, rng, spread):
        xy = rng.uniform(-spread, spread, 2)
        z = math.exp(rng.uniform(-1.0, 1.0))
        return np.array([xy[0], xy[1], z])

    def distance_many(self, x, ys):
        # cosh d = 1 + |x-y|^2 / (2 z_x z_y); 2*asinh(sqrt(u/2)) is exact and
        # stays accurate for tiny separations where arccosh(1+u) would not.
        # the squares are summed in a fixed order, so the last bit does not
        # depend on the memory order of the operands
        diff = ys - x
        u = (diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2) / (2.0 * x[..., 2] * ys[:, 2])
        return 2.0 * np.arcsinh(np.sqrt(u / 2.0))

    def ball_volume(self, r):
        return math.pi * (math.sinh(2.0 * r) - 2.0 * r)

    def sphere_area_many(self, r):
        return 4.0 * math.pi * np.sinh(r) ** 2

    def exp_many(self, xs, vs):
        X = _h3_to_hyperboloid(xs)
        V = _h3_push_tangent(xs, vs)
        norm = np.sqrt(np.maximum(_minkowski(V, V), 0.0))
        safe = np.maximum(norm, 1e-300)
        Y = np.cosh(norm)[:, None] * X + (np.sinh(norm) / safe)[:, None] * V
        return _h3_from_hyperboloid(Y)

    def gaussian_step(self, xs, z, h):
        # chart metric is z^-2 * id, so g-covariance h*id means chart scale z*sqrt(h)
        return math.sqrt(h) * xs[:, 2:3] * z

    def polar_nodes(self, center, rho, w_rho, n_dir):
        c = center.coords
        dirs, w_dir = _sphere_directions(n_dir or 20)
        # chart tangent of g-norm rho in direction omega has chart length z*rho
        vs = (rho[:, None, None] * dirs[None, :, :]) * c[2]
        return _exp_polar(self, c, vs, w_rho * np.sinh(rho) ** 2, w_dir)

    def cross_distance(self, rho, theta, d):
        sin_half_sq = np.sin(theta / 2.0) ** 2
        cosh_m1 = 2.0 * np.sinh((rho - d) / 2.0) ** 2 + 2.0 * np.sinh(rho) * math.sinh(d) * sin_half_sq
        return 2.0 * np.arcsinh(np.sqrt(cosh_m1 / 2.0))

    def heat_profile(self, t, d):
        """(2 pi t)^(-3/2) e^(-t/2) (d / sinh d) e^(-d^2/(2t)), multiplied in
        that order, at a time t or a column of times (k, 1) broadcast against
        d: the time factor per time by ``time_factor``, d / sinh d once for
        the batch, written 2 d e^(-d) / (1 - e^(-2d)) to stay stable for
        large d."""
        pref = time_factor(lambda s: (2.0 * math.pi * s) ** -1.5 * math.exp(-s / 2.0), t)
        small = d < 1e-6
        ratio = np.empty_like(d)
        ds = d[~small]
        ratio[~small] = 2.0 * ds * np.exp(-ds) / (1.0 - np.exp(-2.0 * ds))
        ratio[small] = 1.0 - d[small] ** 2 / 6.0
        return pref * ratio * np.exp(-d * d / (2.0 * t))

    def mass_tail(self, t, radius):
        # integrand is below (2 pi t)^{-3/2} 2 pi rho e^{-(rho-t)^2/(2t)}
        pref = (2.0 * math.pi * t) ** -1.5 * 2.0 * math.pi
        u = radius - t
        g = t * math.exp(-u * u / (2.0 * t))
        e = t * math.sqrt(math.pi * t / 2.0) * math.erfc(u / math.sqrt(2.0 * t))
        return min(1.0, pref * (g + e))

    def kernel_reach(self, t):
        return super().kernel_reach(t) + (t + 2.0)

    def comparability_radius(self, b):
        # normal coordinates: eigenvalues between 1 and (sinh r / r)^2
        return _largest_radius(lambda r: (math.sinh(r) / r) ** 2 <= b, 50.0)


@dataclass(frozen=True)
class Product(ManifoldModel):
    factors: tuple
    kernel_factors = property(lambda self: self.factors)

    dim = property(lambda self: sum(f.dim for f in self.factors))
    ricci_lower_bound = property(lambda self: min(f.ricci_lower_bound for f in self.factors))
    compact = property(lambda self: all(f.compact for f in self.factors))
    flat = property(lambda self: all(f.flat for f in self.factors))
    chart_dim = property(lambda self: sum(f.chart_dim for f in self.factors))
    tangent_dim = property(lambda self: sum(f.tangent_dim for f in self.factors))
    total_volume = property(lambda self: self.factors[0].total_volume * self.factors[1].total_volume)

    def describe(self) -> str:
        return "product(" + ",".join(f.describe() for f in self.factors) + ")"

    def validate(self, c):
        return np.concatenate([make_point(f, part).coords for f, part in zip(self.factors, self.split(c))])

    def base_coords(self):
        return np.concatenate([base_point(f).coords for f in self.factors])

    def random_coords(self, rng, spread):
        return np.concatenate([random_point(f, rng, spread).coords for f in self.factors])

    def distance_many(self, x, ys):
        total = np.zeros(ys.shape[0])
        for f, xf, yf in zip(self.factors, self.split(x), self.split(ys)):
            d = distance_many(f, xf, yf)
            total += d * d
        return np.sqrt(total)

    def ball_volume(self, r):
        # mu(B) = int_0^r V_left'(s) V_right(sqrt(r^2-s^2)) ds
        left, right = self.factors
        integrand = lambda s: ball_surface(left, s) * ball_volume_radial(right, math.sqrt(max(r * r - s * s, 0.0)))
        return quad(integrand, 0.0, r, epsabs=1e-11, epsrel=1e-11, limit=200)[0]

    def exp_many(self, xs, vs):
        parts = zip(self.factors, self.split(xs), self.split(vs, "tangent_dim"))
        return np.concatenate([exp_many(f, xf, vf) for f, xf, vf in parts], axis=1)

    def gaussian_step(self, xs, z, h):
        parts = zip(self.factors, self.split(xs), self.split(z, "tangent_dim"))
        return np.concatenate([tangent_from_normals(f, xf, zf, h) for f, xf, zf in parts], axis=1)

    def full_grid(self, resolution):
        return build_grid(self, resolution, ProductWindow(FullWindow(), FullWindow()))

    def product_grid(self, window, resolution, n_dir):
        gl = build_grid(self.factors[0], resolution, window.left, n_dir)
        gr = build_grid(self.factors[1], resolution, window.right, n_dir)
        nl, nr = gl.size, gr.size
        if nl * nr > MAX_GRID_NODES:
            raise DomainError(
                f"product grid would have {nl * nr} nodes; coarsen the factor windows"
            )
        nodes = np.concatenate(
            [np.repeat(gl.node_coords, nr, axis=0), np.tile(gr.node_coords, (nl, 1))], axis=1
        )
        weights = (gl.weights[:, None] * gr.weights[None, :]).ravel()
        return QuadratureGrid(self, nodes, weights, window, resolution, (gl, gr))

    def wrap_path(self, paths):
        for f, part in zip(self.factors, self.split(paths)):
            f.wrap_path(part)

    def comparability_radius(self, b):
        return min(f.comparability_radius(b) for f in self.factors)


# at m = 56 the Euclidean prefactor (2 pi t)^(-m/2) overflows at t = 1e-12
MAX_DIM = 55
MAX_GRID_NODES = 2_000_000  # the most nodes a product grid may hold


def full_grid_size(model: ManifoldModel, resolution: float) -> int:
    """The node count of ``model.full_grid(resolution)``, without building it."""
    if model.kernel_factors:
        return math.prod(full_grid_size(f, resolution) for f in model.kernel_factors)
    return model.full_nodes(resolution)[0].shape[0]


def _dimension(m: int) -> int:
    if not 1 <= m <= MAX_DIM:
        raise DomainError(f"dimension must be in 1..{MAX_DIM}, got {m}")
    return m


def euclidean(m: int) -> ManifoldModel:
    return Euclidean(_dimension(m))


def torus(m: int, side_length: float) -> ManifoldModel:
    # the volume L^m stays a normal double up to MAX_DIM (the kernel's tail
    # bounds overflowed at L = 1e-300 and 1e300)
    if not 1e-3 <= side_length <= 1e3:
        raise DomainError(f"torus side length must be in [1e-3, 1e3], got {side_length:g}")
    return Torus(_dimension(m), side_length)


def circle() -> ManifoldModel:
    """The unit circle R / 2 pi Z: the one-axis torus of side 2 pi."""
    return torus(1, 2.0 * math.pi)


def sphere2() -> ManifoldModel:
    return Sphere2()


def hyperbolic3() -> ManifoldModel:
    return Hyperbolic3()


def product(left: ManifoldModel, right: ManifoldModel) -> ManifoldModel:
    _dimension(left.dim + right.dim)
    return Product((left, right))


@dataclass(frozen=True)
class Point:
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))

    def __repr__(self):
        return f"Point({np.array2string(self.coords, precision=6)})"


def make_point(model: ManifoldModel, coords: Sequence[float]) -> Point:
    """Validate chart coordinates and return a Point (wrapping/renormalizing)."""
    c = np.asarray(coords, dtype=float)
    if c.shape != (model.chart_dim,):
        raise InvalidPointError(
            f"expected {model.chart_dim} coordinates for {model.describe()}, got {c.shape}"
        )
    if not np.all(np.isfinite(c)):
        raise InvalidPointError("coordinates must be finite")
    return Point(model.validate(c))


def split_point(model: ManifoldModel, p: Point) -> tuple[Point, ...]:
    if not isinstance(model, Product):
        raise UnsupportedModelError("split_point needs a product model")
    return tuple(Point(c) for c in model.split(p.coords))


def base_point(model: ManifoldModel) -> Point:
    return Point(model.base_coords())


def circle_point(theta: float) -> Point:
    """The point of angle theta on ``circle()``, wrapped into [0, 2 pi)."""
    return make_point(circle(), [theta])


def random_point(model: ManifoldModel, rng: np.random.Generator, spread: float = 2.0) -> Point:
    """A random valid point, used by sweeps and property tests."""
    return Point(model.random_coords(rng, spread))


# ---------------------------------------------------------------------------
# distances


def distance_many(model: ManifoldModel, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Geodesic distances from chart coords ``x`` (d,) to rows of ``ys`` (n, d).
    On Euclidean, Torus and Hyperbolic3 ``x`` may be (n, d) too, paired row
    by row, and the squares are summed in a fixed order, so the last bit
    does not depend on the memory order of the operands."""
    return model.distance_many(x, np.atleast_2d(ys))


def distance(model: ManifoldModel, x: Point, y: Point) -> float:
    return float(distance_many(model, x.coords, y.coords[None, :])[0])


# ---------------------------------------------------------------------------
# ball volumes

_EUCLID_BALL = {  # unit-ball volumes omega_m
    1: 2.0,
    2: math.pi,
    3: 4.0 * math.pi / 3.0,
}


def _omega(m: int) -> float:
    if m in _EUCLID_BALL:
        return _EUCLID_BALL[m]
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def _torus_section_area(r: float, L: float, m: int) -> float:
    """Volume of {u in [-L/2, L/2]^m : |u| <= r}; equals the torus ball volume."""
    if r <= 0:
        return 0.0
    half = L / 2.0
    if r <= half:
        return _omega(m) * r**m
    if r >= half * math.sqrt(m):
        return L**m
    if m == 1:
        return L
    if m == 2:
        # disk minus the four segments sticking out past the edges; the
        # segments are disjoint until the disk reaches the corners.
        seg = r * r * math.acos(half / r) - half * math.sqrt(r * r - half * half)
        return math.pi * r * r - 4.0 * seg
    if m == 3 and r <= half * math.sqrt(2.0):
        h = r - half
        cap = math.pi * h * h * (3.0 * r - h) / 3.0
        return (4.0 / 3.0) * math.pi * r**3 - 6.0 * cap
    # corner band: one exact 1-d reduction per extra dimension
    val, _ = quad(
        lambda u: _torus_section_area(math.sqrt(max(r * r - u * u, 0.0)), L, m - 1),
        -half,
        half,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    return val


def ball_volume_radial(model: ManifoldModel, r: float) -> float:
    """mu_g(B(x, r)); x-independent on these homogeneous models."""
    if r < 0:
        raise DomainError("radius must be nonnegative")
    return model.ball_volume(r)


def ball_surface(model: ManifoldModel, r: float) -> float:
    """d/dr of ball_volume_radial (the geodesic sphere area)."""
    return float(ball_surface_many(model, np.array([r]))[0]) if r > 0 else 0.0


def ball_surface_many(model: ManifoldModel, r: np.ndarray) -> np.ndarray:
    """The geodesic sphere areas at an array of radii."""
    r = np.asarray(r, dtype=float)
    return model.sphere_area_many(r.ravel()).reshape(r.shape)


def ball_volume(model: ManifoldModel, x: Point, r: float) -> float:
    if r <= 0:
        raise DomainError("radius must be positive")
    make_point(model, x.coords)  # chart validation
    return ball_volume_radial(model, r)


# ---------------------------------------------------------------------------
# exponential map

# Upper half-space <-> hyperboloid model {<X,X> = -1, X0 > 0} with
# <X,Y> = X1 Y1 + X2 Y2 + X3 Y3 - X0 Y0.


def _h3_to_hyperboloid(c: np.ndarray) -> np.ndarray:
    x, y, z = c[..., 0], c[..., 1], c[..., 2]
    s = x * x + y * y + z * z
    return np.stack([(s + 1.0) / (2.0 * z), x / z, y / z, (s - 1.0) / (2.0 * z)], axis=-1)


def _h3_from_hyperboloid(X: np.ndarray) -> np.ndarray:
    z = 1.0 / (X[..., 0] - X[..., 3])
    return np.stack([X[..., 1] * z, X[..., 2] * z, z], axis=-1)


def _h3_push_tangent(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    x, y, z = c[..., 0], c[..., 1], c[..., 2]
    s = x * x + y * y + z * z
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    V0 = (x * vx + y * vy) / z + (2.0 * z * z - s - 1.0) / (2.0 * z * z) * vz
    V1 = vx / z - x / (z * z) * vz
    V2 = vy / z - y / (z * z) * vz
    V3 = (x * vx + y * vy) / z + (2.0 * z * z - s + 1.0) / (2.0 * z * z) * vz
    return np.stack([V0, V1, V2, V3], axis=-1)


def _minkowski(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A[..., 1] * B[..., 1] + A[..., 2] * B[..., 2] + A[..., 3] * B[..., 3] - A[..., 0] * B[..., 0]


def exp_many(model: ManifoldModel, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Exponential map applied rowwise: xs (n, chart_dim), vs (n, tangent_dim)."""
    return model.exp_many(np.atleast_2d(xs), np.atleast_2d(vs))


def exp_map(model: ManifoldModel, x: Point, v: Sequence[float]) -> Point:
    v = np.asarray(v, dtype=float)
    if v.shape != (model.tangent_dim,):
        raise DomainError(f"tangent vector must have {model.tangent_dim} components")
    if not np.all(np.isfinite(v)):
        raise DomainError("tangent vector must be finite")
    return make_point(model, exp_many(model, x.coords[None, :], v[None, :])[0])


def tangent_from_normals(model: ManifoldModel, xs: np.ndarray, z: np.ndarray, h: float) -> np.ndarray:
    """Turn standard normals ``z`` (n, tangent_dim) into metric-Gaussian steps.

    The result, or on sphere2 its tangent projection (which ``exp_many``
    takes), has covariance h * (metric identity) on each tangent space, so
    one exp_map step advances the geodesic random walk by time h.
    """
    return model.gaussian_step(xs, z, h)


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass(frozen=True)
class FullWindow:
    pass


@dataclass(frozen=True)
class BallWindow:
    center: Point
    radius: float

    def describe(self) -> str:
        return f"ball(r={self.radius:g})"


@dataclass(frozen=True)
class BoxWindow:
    center: Point
    halfwidth: tuple[float, ...]

    def describe(self) -> str:
        return f"box(hw={self.halfwidth})"


@dataclass(frozen=True)
class ProductWindow:
    left: object
    right: object


def _axis_models(model: ManifoldModel) -> list:
    """The leaf model whose ``axis_gap`` serves each chart axis, in chart order."""
    if model.factors:
        return [leaf for f in model.factors for leaf in _axis_models(f)]
    return [model] * model.chart_dim


def axis_gaps(model: ManifoldModel, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """|ys - x| along each chart axis, (n, chart_dim), each axis by its own
    leaf (folded on a torus axis)."""
    ys = np.atleast_2d(ys)
    return np.abs(np.stack([leaf.axis_gap(x[k], ys[:, k]) for k, leaf in enumerate(_axis_models(model))], axis=1))


def in_window(model: ManifoldModel, window, ys: np.ndarray) -> np.ndarray:
    """Which chart rows lie in a ball (distance to the center at most the
    radius) or a box (every axis gap at most its half-width)."""
    if isinstance(window, BallWindow):
        return distance_many(model, window.center.coords, ys) <= window.radius
    if isinstance(window, BoxWindow):
        return np.all(axis_gaps(model, window.center.coords, ys) <= np.asarray(window.halfwidth), axis=1)
    raise DomainError(f"window {window!r} not supported")


def window_within(model: ManifoldModel, inner, outer) -> bool:
    """True when ``inner`` lies inside ``outer`` by the triangle inequality:
    a ball in a ball, a box in a box; False for any other pair."""
    if isinstance(inner, BallWindow) and isinstance(outer, BallWindow):
        return distance(model, inner.center, outer.center) + inner.radius <= outer.radius
    if isinstance(inner, BoxWindow) and isinstance(outer, BoxWindow):
        gap = axis_gaps(model, outer.center.coords, inner.center.coords)[0]
        return bool(np.all(gap + np.asarray(inner.halfwidth) <= np.asarray(outer.halfwidth)))
    return False


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights over a window.  A full torus grid and a product grid
    also keep the grids they are the tensor product of (``factors``, one per
    kernel factor): node i * n_rest + j is factor node i beside rest node j,
    the last factor running fastest, so a product kernel can be evaluated on
    each factor's own nodes (``heat_kernel.eval_grid``)."""

    model: ManifoldModel
    node_coords: np.ndarray  # (n, chart_dim)
    weights: np.ndarray  # (n,)
    window: object
    resolution: float
    factors: tuple = ()  # the factor grids, empty when the grid is no tensor product
    _inside: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.node_coords.shape[0] == 0:
            raise DomainError("empty quadrature window")
        if np.any(self.weights <= 0):
            raise DomainError("quadrature weights must be strictly positive")

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values))

    @property
    def size(self) -> int:
        return self.node_coords.shape[0]

    def nodes_in(self, window) -> np.ndarray | slice:
        """The nodes ``in_window``: a slice when they run in one block (a
        ball concentric with a polar grid is a prefix), else their indices.
        Found once per window and kept with the grid, which many calls share."""
        extent = window.radius if isinstance(window, BallWindow) else tuple(window.halfwidth)
        key = (type(window), tuple(window.center.coords), extent)
        take = self._inside.get(key)
        if take is None:
            take = np.flatnonzero(in_window(self.model, window, self.node_coords))
            if take.size and take[-1] - take[0] + 1 == take.size:
                take = slice(take[0], take[-1] + 1)
            self._inside[key] = take
        return take


_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)


def gl_nodes(breaks: np.ndarray):
    """Composite 4-point Gauss-Legendre nodes/weights over a cell partition."""
    breaks = np.asarray(breaks, dtype=float)
    mid = 0.5 * (breaks[:-1] + breaks[1:])
    half = 0.5 * (breaks[1:] - breaks[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    weights = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


@lru_cache(maxsize=64)
def _sphere_directions(n_z: int):
    """Directions on S^2 from Gauss-Legendre in z times uniform longitudes."""
    z, wz = np.polynomial.legendre.leggauss(n_z)
    n_phi = 2 * n_z
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    zz, pp = np.meshgrid(z, phi, indexing="ij")
    sz = np.sqrt(1.0 - zz**2)
    dirs = np.stack([sz * np.cos(pp), sz * np.sin(pp), zz], axis=-1).reshape(-1, 3)
    w = np.repeat(wz, n_phi) * (2.0 * math.pi / n_phi)
    return dirs, w


def build_grid(model: ManifoldModel, resolution: float, window, n_dir: int | None = None) -> QuadratureGrid:
    """Nodes/weights approximating the volume measure over the window.

    Ball windows are polar grids: composite-GL radial cells partition [0, radius]
    (so excising a centered ball drops whole cells) times a direction rule that
    is spectrally accurate for smooth integrands.  Product windows are the
    tensor product of the factor windows' grids, which the grid keeps."""
    if resolution <= 0:
        raise DomainError("resolution must be positive")
    if isinstance(window, FullWindow):
        return model.full_grid(resolution)
    if isinstance(window, BallWindow):
        return ball_grid_prefix(model, window, resolution, n_dir, window.radius)
    if isinstance(window, BoxWindow):
        nodes, weights = model.box_grid(window.center, window.halfwidth, resolution)
    elif isinstance(window, ProductWindow):
        return model.product_grid(window, resolution, n_dir)
    else:
        raise DomainError(f"unknown window spec {window!r}")
    return QuadratureGrid(model, nodes, weights, window, resolution)


def ball_grid_prefix(model: ManifoldModel, window: BallWindow, resolution: float, n_dir, reach: float):
    """The first nodes of ``build_grid``'s polar grid over a ball, through
    the first radial cell that reaches past ``reach``: the same cells of
    [0, radius], directions and node order, so every node and weight equals
    the full grid's to the bit (the radial cells are outer, and each node is
    computed from its own cell and direction alone).  Its window is the ball
    out to that cell's outer break, which holds every node of the full grid
    within ``reach`` of the center and no node past the break."""
    breaks = _radial_breaks(window.radius, resolution)
    k = min(int(np.searchsorted(breaks, reach, side="right")), breaks.size - 1)
    nodes, weights = model.polar_nodes(window.center, *gl_nodes(breaks[: k + 1]), n_dir)
    cut = window if k == breaks.size - 1 else BallWindow(window.center, float(breaks[k]))
    return QuadratureGrid(model, nodes, weights, cut, resolution)


# ---------------------------------------------------------------------------
# manifold spec strings


def split_top_level(text: str, sep: str, brackets: str) -> list[str]:
    """Split text at each ``sep`` outside the bracket pair ``brackets``
    (e.g. "()"), so a nested term stays whole."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == brackets[0]:
            depth += 1
        elif ch == brackets[1]:
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_manifold(spec: str) -> ManifoldModel:
    """Parse specs like ``euclidean:3``, ``torus:2:6.2832``, ``sphere2``,
    ``hyperbolic3``, ``circle``, ``product(euclidean:3,euclidean:3)``."""
    s = spec.strip().lower()
    if s.startswith("product(") and s.endswith(")"):
        parts = split_top_level(s[len("product(") : -1], ",", "()")
        if len(parts) < 2 or any(not p.strip() for p in parts):
            raise ManifestError(f"product needs at least two factors: {spec!r}")
        models = [parse_manifold(p) for p in parts]
        out = models[0]
        for f in models[1:]:
            out = product(out, f)
        return out
    fields = s.split(":")
    try:
        if fields[0] == "euclidean" and len(fields) == 2:
            return euclidean(int(fields[1]))
        if fields[0] == "torus" and len(fields) == 3:
            return torus(int(fields[1]), float(fields[2]))
        if fields[0] == "circle" and len(fields) == 1:
            return circle()
        if fields[0] == "sphere2" and len(fields) == 1:
            return sphere2()
        if fields[0] == "hyperbolic3" and len(fields) == 1:
            return hyperbolic3()
    except ValueError as exc:
        raise ManifestError(f"bad manifold parameters in {spec!r}: {exc}") from exc
    raise ManifestError(f"unknown manifold spec {spec!r}")
