"""Model manifolds: points, distances, volumes, exponential maps and quadrature grids.

All built-in geometries are homogeneous model spaces with closed-form
distance and ball-volume functions:

* ``Euclidean(m)``        -- flat R^m in Cartesian coordinates
* ``Torus(m, L)``         -- cube [0, L)^m with opposite faces identified
* ``Circle``              -- unit circle, points stored as embedded unit vectors
* ``Sphere2``             -- unit 2-sphere, points stored as embedded unit vectors
* ``Hyperbolic3``         -- upper half-space {z > 0} with metric (dx^2+dy^2+dz^2)/z^2
* ``Product(left, right)``-- Riemannian product, chart coords concatenated

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, InvalidPointError, ManifestError, UnsupportedModelError

_UNIT_TOL = 1e-9  # max drift from the unit sphere before a point is rejected


class Kind(Enum):
    EUCLIDEAN = "euclidean"
    TORUS = "torus"
    CIRCLE = "circle"
    SPHERE2 = "sphere2"
    HYPERBOLIC3 = "hyperbolic3"
    PRODUCT = "product"


@dataclass(frozen=True)
class ManifoldModel:
    kind: Kind
    dim: int
    ricci_lower_bound: float
    side_length: float = 0.0  # torus only
    factors: tuple["ManifoldModel", ...] = ()

    @property
    def chart_dim(self) -> int:
        """Length of the coordinate vector of a Point in this model's chart."""
        if self.kind is Kind.CIRCLE:
            return 2
        if self.kind is Kind.SPHERE2:
            return 3
        if self.kind is Kind.PRODUCT:
            return sum(f.chart_dim for f in self.factors)
        return self.dim

    @property
    def tangent_dim(self) -> int:
        """Length of a tangent vector in the chart (ambient for embedded models)."""
        if self.kind is Kind.CIRCLE:
            return 1
        if self.kind is Kind.SPHERE2:
            return 3
        if self.kind is Kind.PRODUCT:
            return sum(f.tangent_dim for f in self.factors)
        return self.dim

    @property
    def compact(self) -> bool:
        if self.kind in (Kind.TORUS, Kind.CIRCLE, Kind.SPHERE2):
            return True
        if self.kind is Kind.PRODUCT:
            return all(f.compact for f in self.factors)
        return False

    def describe(self) -> str:
        if self.kind is Kind.EUCLIDEAN:
            return f"euclidean:{self.dim}"
        if self.kind is Kind.TORUS:
            return f"torus:{self.dim}:{self.side_length:g}"
        if self.kind is Kind.PRODUCT:
            return "product(" + ",".join(f.describe() for f in self.factors) + ")"
        return self.kind.value


def euclidean(m: int) -> ManifoldModel:
    if m < 1:
        raise DomainError("euclidean dimension must be >= 1")
    return ManifoldModel(Kind.EUCLIDEAN, m, 0.0)


def torus(m: int, side_length: float) -> ManifoldModel:
    if m < 1 or side_length <= 0:
        raise DomainError("torus needs dimension >= 1 and side length > 0")
    return ManifoldModel(Kind.TORUS, m, 0.0, side_length=side_length)


def circle() -> ManifoldModel:
    return ManifoldModel(Kind.CIRCLE, 1, 0.0)


def sphere2() -> ManifoldModel:
    # Ric = g on the unit 2-sphere; 0 is still a valid lower bound and matches
    # the flat-comparison conventions used elsewhere.
    return ManifoldModel(Kind.SPHERE2, 2, 0.0)


def hyperbolic3() -> ManifoldModel:
    return ManifoldModel(Kind.HYPERBOLIC3, 3, -2.0)


def product(left: ManifoldModel, right: ManifoldModel) -> ManifoldModel:
    return ManifoldModel(
        Kind.PRODUCT,
        left.dim + right.dim,
        min(left.ricci_lower_bound, right.ricci_lower_bound),
        factors=(left, right),
    )


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
    k = model.kind
    if k is Kind.TORUS:
        c = np.mod(c, model.side_length)
    elif k in (Kind.CIRCLE, Kind.SPHERE2):
        n = np.linalg.norm(c)
        if abs(n - 1.0) > _UNIT_TOL:
            raise InvalidPointError(f"embedded point has norm {n}, expected 1")
        c = c / n
    elif k is Kind.HYPERBOLIC3:
        if c[2] <= 0:
            raise InvalidPointError("upper half-space chart needs positive height")
    elif k is Kind.PRODUCT:
        i = 0
        parts = []
        for f in model.factors:
            parts.append(make_point(f, c[i : i + f.chart_dim]).coords)
            i += f.chart_dim
        c = np.concatenate(parts)
    return Point(c)


def split_point(model: ManifoldModel, p: Point) -> tuple[Point, ...]:
    if model.kind is not Kind.PRODUCT:
        raise UnsupportedModelError("split_point needs a product model")
    out, i = [], 0
    for f in model.factors:
        out.append(Point(p.coords[i : i + f.chart_dim]))
        i += f.chart_dim
    return tuple(out)


def base_point(model: ManifoldModel) -> Point:
    k = model.kind
    if k is Kind.EUCLIDEAN or k is Kind.TORUS:
        return Point(np.zeros(model.dim))
    if k is Kind.CIRCLE:
        return Point(np.array([1.0, 0.0]))
    if k is Kind.SPHERE2:
        return Point(np.array([0.0, 0.0, 1.0]))
    if k is Kind.HYPERBOLIC3:
        return Point(np.array([0.0, 0.0, 1.0]))
    return Point(np.concatenate([base_point(f).coords for f in model.factors]))


def circle_point(theta: float) -> Point:
    return Point(np.array([math.cos(theta), math.sin(theta)]))


def random_point(model: ManifoldModel, rng: np.random.Generator, spread: float = 2.0) -> Point:
    """A random valid point, used by sweeps and property tests."""
    k = model.kind
    if k is Kind.EUCLIDEAN:
        return Point(rng.uniform(-spread, spread, model.dim))
    if k is Kind.TORUS:
        return Point(rng.uniform(0.0, model.side_length, model.dim))
    if k is Kind.CIRCLE:
        return circle_point(rng.uniform(0.0, 2 * math.pi))
    if k is Kind.SPHERE2:
        v = rng.standard_normal(3)
        return Point(v / np.linalg.norm(v))
    if k is Kind.HYPERBOLIC3:
        xy = rng.uniform(-spread, spread, 2)
        z = math.exp(rng.uniform(-1.0, 1.0))
        return Point(np.array([xy[0], xy[1], z]))
    return Point(np.concatenate([random_point(f, rng, spread).coords for f in model.factors]))


# ---------------------------------------------------------------------------
# distances


def _wrap(delta: np.ndarray, L: float) -> np.ndarray:
    # signed displacement folded into [-L/2, L/2)
    return np.mod(delta + L / 2.0, L) - L / 2.0


def distance_many(model: ManifoldModel, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Geodesic distances from chart coords ``x`` (d,) to rows of ``ys`` (n, d)."""
    k = model.kind
    ys = np.atleast_2d(ys)
    if k is Kind.EUCLIDEAN:
        return np.linalg.norm(ys - x, axis=1)
    if k is Kind.TORUS:
        return np.linalg.norm(_wrap(ys - x, model.side_length), axis=1)
    if k in (Kind.CIRCLE, Kind.SPHERE2):
        dot = ys @ x
        if k is Kind.CIRCLE:
            cross = np.abs(x[0] * ys[:, 1] - x[1] * ys[:, 0])
        else:
            cross = np.linalg.norm(np.cross(np.broadcast_to(x, ys.shape), ys), axis=1)
        return np.arctan2(cross, dot)
    if k is Kind.HYPERBOLIC3:
        # cosh d = 1 + |x-y|^2 / (2 z_x z_y); 2*asinh(sqrt(u/2)) is exact and
        # stays accurate for tiny separations where arccosh(1+u) would not.
        diff = ys - x
        u = np.einsum("ij,ij->i", diff, diff) / (2.0 * x[2] * ys[:, 2])
        return 2.0 * np.arcsinh(np.sqrt(u / 2.0))
    if k is Kind.PRODUCT:
        total = np.zeros(ys.shape[0])
        i = 0
        for f in model.factors:
            d = distance_many(f, x[i : i + f.chart_dim], ys[:, i : i + f.chart_dim])
            total += d * d
            i += f.chart_dim
        return np.sqrt(total)
    raise UnsupportedModelError(str(k))


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
    k = model.kind
    if k is Kind.EUCLIDEAN:
        return _omega(model.dim) * r**model.dim
    if k is Kind.TORUS:
        return _torus_section_area(r, model.side_length, model.dim)
    if k is Kind.CIRCLE:
        return min(2.0 * r, 2.0 * math.pi)
    if k is Kind.SPHERE2:
        return 2.0 * math.pi * (1.0 - math.cos(min(r, math.pi)))
    if k is Kind.HYPERBOLIC3:
        return math.pi * (math.sinh(2.0 * r) - 2.0 * r)
    if k is Kind.PRODUCT:
        left, right = model.factors
        # mu(B) = int_0^r V_left'(s) V_right(sqrt(r^2-s^2)) ds
        def integrand(s: float) -> float:
            return ball_surface(left, s) * ball_volume_radial(right, math.sqrt(max(r * r - s * s, 0.0)))

        val, _ = quad(integrand, 0.0, r, epsabs=1e-11, epsrel=1e-11, limit=200)
        return val
    raise UnsupportedModelError(str(k))


def ball_surface(model: ManifoldModel, r: float) -> float:
    """d/dr of ball_volume_radial (the geodesic sphere area)."""
    if r <= 0:
        return 0.0
    k = model.kind
    if k is Kind.EUCLIDEAN:
        m = model.dim
        return m * _omega(m) * r ** (m - 1)
    if k is Kind.CIRCLE:
        return 2.0 if r < math.pi else 0.0
    if k is Kind.SPHERE2:
        return 2.0 * math.pi * math.sin(r) if r < math.pi else 0.0
    if k is Kind.HYPERBOLIC3:
        return 4.0 * math.pi * math.sinh(r) ** 2
    # torus / nested products: central difference is accurate enough for the
    # product-volume integrand
    h = max(1e-6, 1e-6 * r)
    return (ball_volume_radial(model, r + h) - ball_volume_radial(model, max(r - h, 0.0))) / (
        r + h - max(r - h, 0.0)
    )


def ball_surface_many(model: ManifoldModel, r: np.ndarray) -> np.ndarray:
    """Vectorized ball_surface for the closed-form models."""
    r = np.asarray(r, dtype=float)
    k = model.kind
    if k is Kind.EUCLIDEAN:
        m = model.dim
        return m * _omega(m) * r ** (m - 1)
    if k is Kind.CIRCLE:
        return np.where(r < math.pi, 2.0, 0.0)
    if k is Kind.SPHERE2:
        return np.where(r < math.pi, 2.0 * math.pi * np.sin(np.minimum(r, math.pi)), 0.0)
    if k is Kind.HYPERBOLIC3:
        return 4.0 * math.pi * np.sinh(r) ** 2
    return np.array([ball_surface(model, float(v)) for v in r])


def ball_volume(model: ManifoldModel, x: Point, r: float) -> float:
    if r <= 0:
        raise DomainError("radius must be positive")
    make_point(model, x.coords)  # chart validation
    return ball_volume_radial(model, r)


def total_volume(model: ManifoldModel) -> float:
    k = model.kind
    if k is Kind.TORUS:
        return model.side_length**model.dim
    if k is Kind.CIRCLE:
        return 2.0 * math.pi
    if k is Kind.SPHERE2:
        return 4.0 * math.pi
    if k is Kind.PRODUCT:
        return total_volume(model.factors[0]) * total_volume(model.factors[1])
    return math.inf


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
    k = model.kind
    xs = np.atleast_2d(xs)
    vs = np.atleast_2d(vs)
    if k is Kind.EUCLIDEAN:
        return xs + vs
    if k is Kind.TORUS:
        return np.mod(xs + vs, model.side_length)
    if k is Kind.CIRCLE:
        a = vs[:, 0]
        ca, sa = np.cos(a), np.sin(a)
        return np.stack([ca * xs[:, 0] - sa * xs[:, 1], sa * xs[:, 0] + ca * xs[:, 1]], axis=1)
    if k is Kind.SPHERE2:
        # project v onto the tangent plane first so small constraint drift
        # cannot accumulate along a walk
        v = vs - np.sum(vs * xs, axis=1, keepdims=True) * xs
        norm = np.linalg.norm(v, axis=1)
        safe = np.maximum(norm, 1e-300)
        out = np.cos(norm)[:, None] * xs + (np.sin(norm) / safe)[:, None] * v
        return out / np.linalg.norm(out, axis=1, keepdims=True)
    if k is Kind.HYPERBOLIC3:
        X = _h3_to_hyperboloid(xs)
        V = _h3_push_tangent(xs, vs)
        norm = np.sqrt(np.maximum(_minkowski(V, V), 0.0))
        safe = np.maximum(norm, 1e-300)
        Y = np.cosh(norm)[:, None] * X + (np.sinh(norm) / safe)[:, None] * V
        return _h3_from_hyperboloid(Y)
    if k is Kind.PRODUCT:
        out, ci, ti = [], 0, 0
        for f in model.factors:
            out.append(exp_many(f, xs[:, ci : ci + f.chart_dim], vs[:, ti : ti + f.tangent_dim]))
            ci += f.chart_dim
            ti += f.tangent_dim
        return np.concatenate(out, axis=1)
    raise UnsupportedModelError(str(k))


def exp_map(model: ManifoldModel, x: Point, v: Sequence[float]) -> Point:
    v = np.asarray(v, dtype=float)
    if v.shape != (model.tangent_dim,):
        raise DomainError(f"tangent vector must have {model.tangent_dim} components")
    if not np.all(np.isfinite(v)):
        raise DomainError("tangent vector must be finite")
    return make_point(model, exp_many(model, x.coords[None, :], v[None, :])[0])


def tangent_from_normals(model: ManifoldModel, xs: np.ndarray, z: np.ndarray, h: float) -> np.ndarray:
    """Turn standard normals ``z`` (n, tangent_dim) into metric-Gaussian steps.

    The result has covariance h * (metric identity) on each tangent space, so
    one exp_map step advances the geodesic random walk by time h.
    """
    k = model.kind
    root = math.sqrt(h)
    if k in (Kind.EUCLIDEAN, Kind.TORUS, Kind.CIRCLE):
        return root * z
    if k is Kind.SPHERE2:
        v = z - np.sum(z * xs, axis=1, keepdims=True) * xs
        return root * v
    if k is Kind.HYPERBOLIC3:
        # chart metric is z^-2 * id, so g-covariance h*id means chart scale z*sqrt(h)
        return root * xs[:, 2:3] * z
    if k is Kind.PRODUCT:
        out, ci, ti = [], 0, 0
        for f in model.factors:
            out.append(tangent_from_normals(f, xs[:, ci : ci + f.chart_dim], z[:, ti : ti + f.tangent_dim], h))
            ci += f.chart_dim
            ti += f.tangent_dim
        return np.concatenate(out, axis=1)
    raise UnsupportedModelError(str(k))


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass(frozen=True)
class FullWindow:
    def describe(self) -> str:
        return "full"


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

    def describe(self) -> str:
        return f"product({self.left.describe()},{self.right.describe()})"


@dataclass(frozen=True)
class QuadratureGrid:
    model: ManifoldModel
    node_coords: np.ndarray  # (n, chart_dim)
    weights: np.ndarray  # (n,)
    window: object
    resolution: float

    def __post_init__(self):
        if self.node_coords.shape[0] == 0:
            raise DomainError("empty quadrature window")
        if np.any(self.weights <= 0):
            raise DomainError("quadrature weights must be strictly positive")

    @property
    def nodes(self) -> list[Point]:
        return [Point(c) for c in self.node_coords]

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values))

    @property
    def size(self) -> int:
        return self.node_coords.shape[0]


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


def _tangent_frame_sphere(c: np.ndarray):
    u = np.array([1.0, 0.0, 0.0]) if abs(c[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = u - (u @ c) * c
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(c, e1)
    return e1, e2


def _polar_grid(model: ManifoldModel, center: Point, radius: float, h: float, n_dir: int | None = None):
    """Ball window grid: composite-GL radial cells x direction grid.

    Radial cells partition [0, radius], so excising a centered ball maps to
    dropping whole cells.  Direction rules (uniform angles / Gauss-Legendre in
    z) are spectrally accurate for smooth integrands, so the default angular
    counts are modest and independent of the radial resolution.
    """
    k = model.kind
    n_rad = max(6, int(math.ceil(radius / h)))
    rho, w_rho = gl_nodes(np.linspace(0.0, radius, n_rad + 1))
    c = center.coords
    if k is Kind.EUCLIDEAN:
        m = model.dim
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
        nodes = c[None, None, :] + rho[:, None, None] * dirs[None, :, :]
        jac = rho ** (m - 1)
    elif k is Kind.CIRCLE:
        r = min(radius, math.pi)
        off, w_off = gl_nodes(np.linspace(-r, r, max(6, int(math.ceil(2 * r / h))) + 1))
        theta0 = math.atan2(c[1], c[0])
        ang = theta0 + off
        coords = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return coords, w_off
    elif k is Kind.SPHERE2:
        r = min(radius, math.pi)
        rho, w_rho = gl_nodes(np.linspace(0.0, r, max(6, int(math.ceil(r / h))) + 1))
        n_ang = n_dir or 48
        ang = (np.arange(n_ang) + 0.5) * (2.0 * math.pi / n_ang)
        e1, e2 = _tangent_frame_sphere(c)
        dirs = np.cos(ang)[:, None] * e1[None, :] + np.sin(ang)[:, None] * e2[None, :]
        w_dir = np.full(n_ang, 2.0 * math.pi / n_ang)
        vs = rho[:, None, None] * dirs[None, :, :]
        flat_x = np.broadcast_to(c, vs.reshape(-1, 3).shape)
        nodes = exp_many(model, flat_x, vs.reshape(-1, 3)).reshape(len(rho), n_ang, 3)
        jac = np.sin(rho)
        weights = (w_rho * jac)[:, None] * w_dir[None, :]
        return nodes.reshape(-1, 3), weights.ravel()
    elif k is Kind.HYPERBOLIC3:
        dirs, w_dir = _sphere_directions(n_dir or 20)
        # chart tangent of g-norm rho in direction omega has chart length z*rho
        vs = (rho[:, None, None] * dirs[None, :, :]) * c[2]
        flat_x = np.broadcast_to(c, vs.reshape(-1, 3).shape)
        nodes = exp_many(model, flat_x, vs.reshape(-1, 3)).reshape(len(rho), dirs.shape[0], 3)
        jac = np.sinh(rho) ** 2
        weights = (w_rho * jac)[:, None] * w_dir[None, :]
        return nodes.reshape(-1, 3), weights.ravel()
    else:
        raise UnsupportedModelError(f"ball window not supported on {k}")
    weights = (w_rho * jac)[:, None] * w_dir[None, :]
    return nodes.reshape(-1, model.chart_dim), weights.ravel()


def _box_grid(model: ManifoldModel, center: Point, halfwidth: tuple[float, ...], h: float):
    k = model.kind
    if k not in (Kind.EUCLIDEAN, Kind.TORUS):
        raise UnsupportedModelError("box windows only on flat chart models")
    m = model.dim
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
    nodes = np.stack([g.ravel() for g in mesh], axis=1)
    if k is Kind.TORUS:
        nodes = np.mod(nodes, model.side_length)
    weights = np.full(nodes.shape[0], float(np.prod(steps)))
    return nodes, weights


def build_grid(model: ManifoldModel, resolution: float, window, n_dir: int | None = None) -> QuadratureGrid:
    """Nodes/weights approximating the volume measure over the window."""
    if resolution <= 0:
        raise DomainError("resolution must be positive")
    k = model.kind
    if isinstance(window, FullWindow):
        if k is Kind.CIRCLE:
            n = max(4, int(round(2.0 * math.pi / resolution)))
            theta = np.arange(n) * (2.0 * math.pi / n)
            nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            weights = np.full(n, 2.0 * math.pi / n)
        elif k is Kind.TORUS:
            L = model.side_length
            n = max(4, int(round(L / resolution)))
            axis = np.arange(n) * (L / n)
            mesh = np.meshgrid(*([axis] * model.dim), indexing="ij")
            nodes = np.stack([g.ravel() for g in mesh], axis=1)
            weights = np.full(nodes.shape[0], (L / n) ** model.dim)
        elif k is Kind.SPHERE2:
            n_z = max(8, int(math.ceil(math.pi / resolution)))
            dirs, w = _sphere_directions(n_z)
            nodes, weights = dirs, w
        elif k is Kind.PRODUCT:
            return build_grid(model, resolution, ProductWindow(FullWindow(), FullWindow()))
        else:
            raise DomainError(f"{model.describe()} is non-compact; a window is required")
        return QuadratureGrid(model, nodes, weights, window, resolution)
    if isinstance(window, BallWindow):
        nodes, weights = _polar_grid(model, window.center, window.radius, resolution, n_dir)
        return QuadratureGrid(model, nodes, weights, window, resolution)
    if isinstance(window, BoxWindow):
        nodes, weights = _box_grid(model, window.center, window.halfwidth, resolution)
        return QuadratureGrid(model, nodes, weights, window, resolution)
    if isinstance(window, ProductWindow):
        if k is not Kind.PRODUCT:
            raise UnsupportedModelError("product window needs a product model")
        gl = build_grid(model.factors[0], resolution, window.left, n_dir)
        gr = build_grid(model.factors[1], resolution, window.right, n_dir)
        nl, nr = gl.size, gr.size
        if nl * nr > 2_000_000:
            raise DomainError(
                f"product grid would have {nl * nr} nodes; coarsen the factor windows"
            )
        nodes = np.concatenate(
            [np.repeat(gl.node_coords, nr, axis=0), np.tile(gr.node_coords, (nl, 1))], axis=1
        )
        weights = (gl.weights[:, None] * gr.weights[None, :]).ravel()
        return QuadratureGrid(model, nodes, weights, window, resolution)
    raise DomainError(f"unknown window spec {window!r}")


# ---------------------------------------------------------------------------
# manifold spec strings


def parse_manifold(spec: str) -> ManifoldModel:
    """Parse specs like ``euclidean:3``, ``torus:2:6.2832``, ``sphere2``,
    ``hyperbolic3``, ``circle``, ``product(euclidean:3,euclidean:3)``."""
    s = spec.strip().lower()
    if s.startswith("product(") and s.endswith(")"):
        inner = s[len("product(") : -1]
        parts, depth, start = [], 0, 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(inner[start:i])
                start = i + 1
        parts.append(inner[start:])
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
