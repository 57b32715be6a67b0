"""Potential descriptors: radial powers, indicators, Coulomb terms, pullbacks
along product projections, sums and sign decompositions; weighted L^q norms,
kernel smoothing int p(s, x, y) |w(y)| dmu(y) and the Coulomb potential.

Potentials are immutable descriptor trees of eight classes.  Every
one-center potential (a radial power, a Coulomb term, cos of the distance)
is one ``RadialAtom``, a profile of the distance to its center; an
indicator is a windowed constant; one ``SignPart`` takes the positive part,
the negative part or the absolute value.  Evaluation returns +inf exactly at
singular centers (never a silent overflow); this module imports no scipy at load.
Every model stores a sample path's rows in its chart, so grid nodes and path
rows take the same evaluation, singular sets and capping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import geometry as geom
from . import heat_kernel as hk
from . import quadrature as qd
from .errors import DomainError, ManifestError, SingularityError, UnsupportedModelError
from .geometry import (BallWindow, BoxWindow, Euclidean, Hyperbolic3, ManifoldModel, Point, Product,
                       QuadratureGrid)
from .geometry import quad  # unused here: the benchmark's tracer wraps it at this address


@dataclass(frozen=True)
class Radial:
    """The radial facts of a one-center atom: |w(y)| = profile(d(y, center)),
    zero beyond ``support``, singular like d^(-beta) at the center (beta = 0:
    bounded)."""

    center: Point
    profile: Callable[[np.ndarray], np.ndarray]
    support: float = math.inf
    beta: float = 0.0


class Potential:
    """Base class; concrete variants below."""

    def radial(self) -> Radial | None:
        """The atom's radial facts, or None when it has no one-center form."""
        return None


@dataclass(frozen=True)
class Constant(Potential):
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError("constant potential value must be finite")  # inf or nan would read as 0 once capped


@dataclass(frozen=True)
class RadialAtom(Potential):
    """w(y) = profile(d(y, center)).  With beta > 0 the atom is singular like
    d^(-beta) and reads +-inf (the profile's sign) at the center; otherwise
    ``sup`` bounds |w|."""

    model: ManifoldModel
    center: Point
    profile: Callable[[np.ndarray], np.ndarray]
    beta: float = 0.0
    sup: float = math.inf

    def radial(self):
        return Radial(self.center, lambda r: np.abs(self.profile(np.asarray(r, float))), math.inf, self.beta)


def RadialPower(model: ManifoldModel, center: Point, beta: float, coefficient: float = 1.0) -> RadialAtom:
    """w(y) = coefficient * d(y, center)^(-beta), beta > 0."""
    if not beta > 0:
        raise DomainError("radial power exponent must be positive")
    if not math.isfinite(coefficient):
        raise DomainError("radial power coefficient must be finite")
    return RadialAtom(model, center, lambda r: coefficient * np.asarray(r, float) ** (-beta), beta)


@dataclass(frozen=True)
class TwoBody(Potential):
    """On a two-copy product: w(y1, y2) = profile(d_base(y1, y2))."""

    model: ManifoldModel  # product(base, base); base is Euclidean or Hyperbolic3
    profile: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Pullback(Potential):
    """inner o projection; index selects a leaf factor (int) or a pair (i, j)."""

    model: ManifoldModel  # the product model being projected
    index: object
    inner: Potential


def cosine_potential(model: ManifoldModel, center: Point | None = None) -> RadialAtom:
    """w(y) = cos(d(y, center)); on the circle with the default center this is
    cos(theta)."""
    c = center if center is not None else geom.base_point(model)
    return RadialAtom(model, c, np.cos, sup=1.0)


@dataclass(frozen=True)
class Windowed(Potential):
    """inner on the window, 0 outside it; keeps singular potentials inside L^q."""

    model: ManifoldModel
    inner: Potential
    window: object  # BallWindow (or BoxWindow)

    def radial(self):
        if not isinstance(self.window, BallWindow):
            return None
        R = self.window.radius
        if isinstance(self.inner, Constant):
            v = abs(self.inner.value)
            return Radial(self.window.center, lambda r: v * (np.asarray(r, float) <= R), R)
        inner = self.inner.radial()
        if inner is None or geom.distance(self.model, inner.center, self.window.center) > 1e-12:
            return None  # off-center truncation: no one-center reduction
        return Radial(
            inner.center, lambda r: inner.profile(r) * (np.asarray(r, float) <= R), min(inner.support, R), inner.beta
        )


def Indicator(model: ManifoldModel, window) -> Windowed:
    """1 on a BallWindow or BoxWindow, 0 outside it."""
    return Windowed(model, Constant(1.0), window)


@dataclass(frozen=True)
class Sum(Potential):
    terms: tuple


@dataclass(frozen=True)
class Scale(Potential):
    factor: float
    inner: Potential

    def __post_init__(self):
        if not math.isfinite(self.factor):
            raise DomainError("scale factor must be finite")  # inf or nan times a zero value is nan


@dataclass(frozen=True)
class SignPart(Potential):
    """max(w, 0), max(-w, 0) or |w| of the inner w, as ``part`` names."""

    part: str  # "positive", "negative" or "absolute"
    inner: Potential


def positive_part(w: Potential) -> Potential:
    return SignPart("positive", w)


def negative_part(w: Potential) -> Potential:
    return SignPart("negative", w)


def absolute(w: Potential) -> Potential:
    return SignPart("absolute", w)


# ---------------------------------------------------------------------------
# product leaf bookkeeping


def leaves(model: ManifoldModel, off: int = 0) -> list[tuple[ManifoldModel, int]]:
    """Flatten a product tree into (leaf model, chart column offset) pairs."""
    if not model.factors:
        return [(model, off)]
    left, right = model.factors
    return leaves(left, off) + leaves(right, off + left.chart_dim)


def factor_of(model: ManifoldModel, index) -> tuple[ManifoldModel, np.ndarray]:
    """The factor a pullback index names, a leaf (an int) or the product of a
    leaf pair (i, j), and its columns of the product chart.  An index out of
    range raises IndexError, which ``parse_potential`` reports as a
    ManifestError."""
    ls = leaves(model)
    idx = index if isinstance(index, tuple) else (index,)
    if len(idx) > 2 or not all(0 <= i < len(ls) for i in idx):
        raise IndexError(f"factor index {index} out of range for {model.describe()}")
    parts = [ls[i] for i in idx]
    cols = np.concatenate([np.arange(off, off + f.chart_dim) for f, off in parts])
    return parts[0][0] if len(parts) == 1 else geom.product(parts[0][0], parts[1][0]), cols


def pulled_back(w: Potential, model: ManifoldModel) -> tuple[ManifoldModel, np.ndarray, Potential] | None:
    """(factor, columns, u) when w = u o pi, pi the projection of ``model``
    onto the factor one pullback index names (``factor_of``): every term of
    w pulls back through that index.  None otherwise."""
    atoms = terms(w)
    if not atoms or any(not isinstance(a, Pullback) for _, a in atoms) or len({a.index for _, a in atoms}) > 1:
        return None
    return (*factor_of(model, atoms[0][1].index), Sum(tuple(Scale(c, a.inner) for c, a in atoms)))


# ---------------------------------------------------------------------------
# evaluation


def evaluate_many(w: Potential, ys: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on chart coordinate rows (sample-path rows
    included)."""
    ys = np.atleast_2d(ys)
    if isinstance(w, Constant):
        return np.full(ys.shape[0], float(w.value))
    if isinstance(w, RadialAtom):
        d = geom.distance_many(w.model, w.center.coords, ys)
        with np.errstate(divide="ignore"):
            vals = np.asarray(w.profile(d), dtype=float)
        return np.where(d > 0.0, vals, np.inf * np.sign(vals)) if w.beta > 0 else vals
    if isinstance(w, TwoBody):
        left = w.model.factors[0]
        d = geom.distance_many(left, ys[:, : left.chart_dim], ys[:, left.chart_dim :])
        return np.where(d > 0.0, w.profile(np.maximum(d, 1e-300)), np.inf)
    if isinstance(w, Pullback):
        return evaluate_many(w.inner, ys[:, _run(factor_of(w.model, w.index)[1])])
    if isinstance(w, Windowed):
        return np.where(geom.in_window(w.model, w.window, ys), evaluate_many(w.inner, ys), 0.0)
    if isinstance(w, Sum):
        if not w.terms:
            return np.zeros(ys.shape[0])
        acc = evaluate_many(w.terms[0], ys)
        for term in w.terms[1:]:
            acc = acc + evaluate_many(term, ys)
        return acc
    if isinstance(w, Scale):
        return w.factor * evaluate_many(w.inner, ys)
    if isinstance(w, SignPart):
        v = evaluate_many(w.inner, ys)
        return np.abs(v) if w.part == "absolute" else np.maximum(v if w.part == "positive" else -v, 0.0)
    raise DomainError(f"unknown potential {w!r}")


def evaluate(w: Potential, y: Point) -> float:
    return float(evaluate_many(w, y.coords[None, :])[0])


# ---------------------------------------------------------------------------
# singularity metadata (for excision and path capping)


@dataclass(frozen=True)
class SingularityInfo:
    model: ManifoldModel  # leaf model the center lives on
    center: Point
    beta: float
    profile: Callable[[np.ndarray], np.ndarray]  # local |w| as a function of distance
    cols: np.ndarray  # the full-row columns of the leaf coordinates
    pair_cols: tuple | None = None  # for diagonal (two-body) singular sets

    def distances(self, ys: np.ndarray) -> np.ndarray:
        ys = np.atleast_2d(ys)
        if self.pair_cols is not None:
            ci, cj = self.pair_cols
            d = geom.distance_many(self.model, ys[:, _run(ci)], ys[:, _run(cj)])
            return d / math.sqrt(2.0)  # distance to the diagonal in the product metric
        return geom.distance_many(self.model, self.center.coords, ys[:, _run(self.cols)])


def _run(cols: np.ndarray):
    """One run of columns as a slice (a view, not a copy), else the columns."""
    return slice(cols[0], cols[-1] + 1) if np.all(np.diff(cols) == 1) else cols


def singularities(w: Potential, scale: float = 1.0, cols: np.ndarray | None = None) -> list[SingularityInfo]:
    """The point and diagonal singular sets of w; ``cols`` maps the chart
    columns of w's model into the full chart (identity when None)."""
    if isinstance(w, (Pullback, RadialAtom, TwoBody, Windowed)) and cols is None:
        cols = np.arange(w.model.chart_dim)
    if isinstance(w, RadialAtom) and w.beta > 0:
        ra, sc = w.radial(), abs(scale)
        return [SingularityInfo(w.model, ra.center, ra.beta, lambda r, p=ra.profile: sc * p(r), cols)]
    if isinstance(w, TwoBody):
        left, _ = w.model.factors
        cl = left.chart_dim
        sc = abs(scale)
        return [
            SingularityInfo(
                left,
                geom.base_point(left),
                1.0,
                lambda r, s=sc, p=w.profile: s * np.abs(p(r)),
                cols,
                pair_cols=(cols[:cl], cols[cl : 2 * cl]),
            )
        ]
    if isinstance(w, Pullback):
        return singularities(w.inner, scale, cols[factor_of(w.model, w.index)[1]])
    if isinstance(w, Windowed):
        # a set that is not a point of the window's chart (a diagonal, or a
        # pullback's subspace) is kept unchecked
        return [
            s
            for s in singularities(w.inner, scale, cols)
            if s.pair_cols is not None
            or not np.array_equal(s.cols, cols)
            or geom.in_window(w.model, w.window, s.center.coords[None, :])[0]
        ]
    if isinstance(w, Sum):
        return [s for term in w.terms for s in singularities(term, scale, cols)]
    if isinstance(w, Scale):
        return singularities(w.inner, scale * w.factor, cols)
    if isinstance(w, SignPart):
        return singularities(w.inner, scale, cols)
    return []


def singular_distance_many(w: Potential, ys: np.ndarray) -> np.ndarray:
    """Distance from each chart row to the nearest singular set (inf if none)."""
    ys = np.atleast_2d(ys)
    d = np.full(ys.shape[0], np.inf)
    for s in singularities(w):
        d = np.minimum(d, s.distances(ys))
    return d


def capped_values(w: Potential, ys: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(values, near, cap): w on chart rows, finite
    everywhere.  Within eps of a singular set a value keeps its sign and
    |value| is capped at the sum of the singular profiles at eps (``cap``; 0
    when no row is near); any other non-finite value becomes 0."""
    vals = evaluate_many(w, ys)
    sings = singularities(w)
    near = singular_distance_many(w, ys) < eps if sings else np.zeros(len(vals), dtype=bool)
    cap = 0.0
    if np.any(near):
        cap = sum(float(s.profile(np.array([eps]))[0]) for s in sings)
        vals = np.where(near, np.sign(vals) * np.minimum(np.abs(vals), cap), vals)
    return np.where(np.isfinite(vals), vals, 0.0), near, cap


# ---------------------------------------------------------------------------
# the atoms of a potential and what they bound


def terms(w: Potential, scale: float = 1.0) -> list[tuple[float, Potential]]:
    """(coefficient, atom) pairs with w = sum of coefficient * atom; sums and
    scalings are flattened, everything else is an atom."""
    if isinstance(w, Scale):
        return terms(w.inner, scale * w.factor)
    if isinstance(w, Sum):
        return [pair for term in w.terms for pair in terms(term, scale)]
    return [(scale, w)]


def center_of(w: Potential, model: ManifoldModel) -> Point:
    """The center of the first radial atom (on a radial-kernel model), or the
    window's center of the first windowed constant or windowed radial atom
    centered outside its window, else the model's base point."""
    for _, atom in terms(w):
        ra = atom.radial() if model.radial_kernel else None
        if ra is not None:
            return ra.center
        if isinstance(atom, Windowed):
            inner = atom.inner.radial()
            outside = inner is not None and not geom.in_window(model, atom.window, inner.center.coords[None, :])[0]
            if outside or isinstance(atom.inner, Constant):
                return atom.window.center
    return geom.base_point(model)


def _atom_sup(atom: Potential) -> float:
    if isinstance(atom, Constant):
        return abs(atom.value)
    if isinstance(atom, RadialAtom):
        return atom.sup
    if isinstance(atom, Windowed):
        # a singular (decreasing) profile centered outside a ball window is
        # largest at the ball's nearest point
        ra = atom.inner.radial()
        if isinstance(atom.window, BallWindow) and ra is not None and ra.beta > 0:
            gap = geom.distance(atom.model, ra.center, atom.window.center) - atom.window.radius
            if gap > 0.0:
                return float(ra.profile(np.array([gap]))[0])
        return sup_abs(atom.inner)
    return math.inf


def sup_abs(w: Potential, outside: tuple[Point, float] | None = None) -> float:
    """A bound on |w|, everywhere or, with outside=(center, R), beyond
    B(center, R); inf when none is known.  Bounded atoms give their own sup,
    singular radial atoms their (decreasing) profile at the ball's edge, and
    radial atoms supported inside the ball nothing."""
    total = 0.0
    for c, atom in terms(w):
        sup, ra = _atom_sup(atom), atom.radial()
        if outside is not None and ra is not None:
            center, R = outside
            dist = R - geom.distance(atom.model, center, ra.center)
            if dist >= ra.support:
                continue
            if not math.isfinite(sup):
                sup = float(ra.profile(np.array([max(dist, 1e-6)]))[0])
        if not math.isfinite(sup):
            return math.inf
        total += abs(c) * sup
    return total


def support(w: Potential, model: ManifoldModel):
    """A window outside which w vanishes, read off the tree like ``sup_abs``
    and ``singularities``; None when none is known.  Windowed atoms give
    their window, scalings and sign parts pass their inner
    support through, and a sum gives the one window among its terms' that
    covers them all."""
    if isinstance(w, Windowed):
        return w.window
    if isinstance(w, (Scale, SignPart)):
        return support(w.inner, model)
    if isinstance(w, Sum):
        wins = [support(term, model) for term in w.terms]
        if all(win is not None for win in wins):
            return next((c for c in wins if all(geom.window_within(model, win, c) for win in wins)), None)
    return None


# ---------------------------------------------------------------------------
# weighted L^q norms with singularity excision


@dataclass
class WeightedLqNorm:
    q: float
    value: float
    diverges: bool
    excised_nodes: int


def _weight_values(weight, nodes: np.ndarray, take) -> np.ndarray:
    """The weight at ``nodes``, the grid nodes ``take`` selects; with take
    None, at points off the grid (an excised center), where an array of node
    values has no value."""
    n = nodes.shape[0]
    if weight is None:
        return np.ones(n)
    if callable(weight):
        return np.broadcast_to(np.asarray(weight(nodes), dtype=float), (n,))
    arr = np.asarray(weight, dtype=float)
    if arr.shape == ():
        return np.full(n, float(arr))
    if take is None:
        raise DomainError("array weights cannot be extrapolated to excised centers")
    return arr[take]


def lq_norm(
    w: Potential,
    q: float | Sequence[float],
    weight,
    grid: QuadratureGrid,
) -> WeightedLqNorm | list[WeightedLqNorm]:
    """(integral |w|^q * weight dmu)^(1/q) over the grid window.

    The sums visit only the grid nodes of supp(w) (``support``, read off the
    potential tree like ``sup_abs`` and ``singularities``), widened to hold
    the nodes excised around its singular points; every other node adds
    exactly 0, so leaving it out moves a value only through the order of
    summation.  The nodes of a support are found once per grid
    (``QuadratureGrid.nodes_in``), and not at all when the grid's window lies
    inside the support.  A polar grid cut one radial cell past that widened
    support (``_norm_grid``) holds the same nodes at the same indices in the
    same order, so its sums equal the whole grid's to the bit.

    ``q`` is one exponent (one ``WeightedLqNorm`` back) or a sequence of them
    (a list back); |w|, the weight and the excision are evaluated once for
    all of them.

    ``weight`` is None (1), a scalar, an array of node values, or a callable
    that takes an (n, chart_dim) array of chart coordinates and returns values
    that broadcast to (n,); it is called once for all grid nodes and once per
    excised center, with that center's coordinates as a (1, chart_dim) array.
    ``KatoControlPair.space_factor`` has this form.

    Integrable point singularities are excised out to twice the grid
    resolution and their ball contribution added from the local radial
    profile; beta*q >= m flags divergence.
    """
    qs = [q] if np.ndim(q) == 0 else list(q)
    if any(qk < 1 for qk in qs):
        raise DomainError("q must be >= 1")
    model = grid.model
    sings = [s for s in singularities(w) if s.pair_cols is None]
    norms = [WeightedLqNorm(qk, math.inf, True, 0) for qk in qs]
    finite = [j for j, qk in enumerate(qs) if all(s.beta * qk < s.model.dim for s in sings)]
    if finite:
        eps = 2.0 * grid.resolution
        take = _support_nodes(w, grid, eps)
        nodes = grid.node_coords[take]
        vals = np.abs(evaluate_many(w, nodes))
        wvals = _weight_values(weight, nodes, take)
        keep = singular_distance_many(w, nodes) >= eps
        node_w, node_v, node_wv = grid.weights[take][keep], vals[keep], wvals[keep]
        # a pullback's singular set is a subspace: excised nodewise, no ball
        balls = [
            (s, float(_weight_values(weight, s.center.coords[None, :], None)[0]), _smooth_rest_at(sings, s.center))
            for s in sings
            if np.array_equal(s.cols, np.arange(model.chart_dim))
        ]
        for j in finite:
            qk = qs[j]
            base = float(np.sum(node_w * node_v**qk * node_wv))
            correction = 0.0
            for s, wc, rest in balls:
                val = qd.near_field_integral(s.model, np.ones_like, lambda r: s.profile(r) ** qk, 0.0, eps, s.beta * qk)
                correction += wc * (val + rest**qk * geom.ball_volume_radial(s.model, eps))
            norms[j] = WeightedLqNorm(qk, (base + correction) ** (1.0 / qk), False, int(np.sum(~keep)))
    return norms[0] if np.ndim(q) == 0 else norms


def _support_nodes(w, grid, eps):
    """The grid nodes ``lq_norm`` visits (``grid.nodes_in``): those of the
    window ``_norm_window`` gives, or all of them (``slice(None)``) when it
    gives none or the grid's window lies inside it."""
    win = _norm_window(w, grid.model, eps)
    if win is None or geom.window_within(grid.model, grid.window, win):
        return slice(None)
    return grid.nodes_in(win)


def _norm_window(w, model, eps):
    """The support of w, widened to hold every node within eps of a singular
    point; None when no support is known or when a singular set is no point
    of the chart (a diagonal or a pullback's subspace is excised wherever it
    runs)."""
    win = support(w, model)
    sings = singularities(w)
    if win is None or any(s.pair_cols is not None or len(s.cols) < model.chart_dim for s in sings):
        return None
    if sings:
        # an excised node lies within eps of a center inside win; the 1e-9
        # covers the rounding of the triangle inequality
        centers = np.array([s.center.coords for s in sings])
        if isinstance(win, BallWindow):
            reach = float(np.max(geom.distance_many(model, win.center.coords, centers))) + eps
            return BallWindow(win.center, max(win.radius, reach * (1.0 + 1e-9)))
        if model.flat:  # a box: each axis gap is at most the distance
            reach = np.max(geom.axis_gaps(model, win.center.coords, centers), axis=0) + eps
            return BoxWindow(win.center, tuple(np.maximum(win.halfwidth, reach * (1.0 + 1e-9))))
        return None
    return win


def _smooth_rest_at(sings: list[SingularityInfo], center: Point) -> float:
    """The other point singularities' profiles at a center, used to correct
    its excised ball."""
    other = 0.0
    for s in sings:
        d = float(s.distances(center.coords[None, :])[0])
        if d > 1e-12:
            other += float(s.profile(np.array([d]))[0])
    return other


# ---------------------------------------------------------------------------
# kernel-smoothed |w|: the left side of the Hoelder bound


@dataclass
class SmoothedValue:
    value: float | np.ndarray  # one value per s when s is an array
    tail_bound: float | np.ndarray


def smoothed_abs(
    engine: hk.HeatKernelEngine,
    w: Potential,
    s,
    x: Point,
    grid: QuadratureGrid | None = None,
    refinement: int = 0,
) -> SmoothedValue:
    """integral of p(s, x, y) |w(y)| dmu(y), for one s or an array of s.

    On the radial-kernel models, radial potential atoms use the exact
    axisymmetric two-point reduction, one cell set per atom for all s.  A
    potential u o pi pulled back through one factor (``pulled_back``) is u
    smoothed on that factor by its own rule and grid (``grid`` is not read),
    times the fiber's mass.  Everything else falls back to grid quadrature.
    On both paths the ball excised around a singular center is integrated
    for all s at once by the near-field rule
    (``quadrature.near_field_integral``); away from the center the grid stays
    approximate at small s.  ``refinement`` halves the two-point cell caps
    (for error estimation).
    """
    ss = np.atleast_1d(np.asarray(s, dtype=float))
    value, tail = _smoothed(engine, w, ss, x, grid, refinement) if ss.size else (ss, ss)
    if np.ndim(s) == 0:
        return SmoothedValue(float(value[0]), float(tail[0]))
    return SmoothedValue(value, tail)


def _smoothed(engine, w, ss, x, grid, refinement):
    """(values, tail bounds), one per s."""
    atoms = terms(w)
    total, tail = np.zeros(ss.size), np.zeros(ss.size)
    if not atoms:
        return total, tail
    if (pulled := pulled_back(w, engine.model)) is not None:
        # the fibers of a product projection are totally geodesic, so the
        # kernel factors: P_s(u o pi)(x) = P_s u(x on the factor) times the
        # kernel's mass over the other leaves
        factor, cols, u = pulled
        value, vtail = _smoothed(hk.make_engine(factor), u, ss, Point(x.coords[cols]), None, refinement)
        mass, merr = fiber_mass(engine.model, cols, ss, x)
        return value * mass, vtail * mass + (value + vtail) * merr
    if not engine.model.radial_kernel or any(
        not isinstance(atom, Constant) and atom.radial() is None for _, atom in atoms
    ):
        return _smoothed_grid(engine, w, ss, x, grid)
    for c, atom in atoms:
        if isinstance(atom, Constant):
            coef = abs(c * atom.value)
            mass, merr = np.array([hk.kernel_mass(engine, float(s), x) for s in ss]).T
        else:
            coef = abs(c)
            mass, merr = _two_point_atom(engine, ss, x, atom.radial(), refinement)
        total += coef * mass
        tail += coef * merr
    return total, tail


def _two_point_atom(engine, ss, x, ra, refinement=0):
    model = engine.model
    profile, support, beta = ra.profile, ra.support, ra.beta
    d = geom.distance(model, x, ra.center)
    if math.isfinite(support):
        r_max = np.full(ss.size, d + support)  # integrand vanishes beyond the support
        tail = np.zeros(ss.size)
    else:
        r_max = np.array([model.kernel_reach(s) for s in ss]) + d + 1.0
        reach_profile = profile(np.maximum(r_max - d, 1e-9))
        tail = reach_profile * np.array([hk.mass_tail_bound(engine, s, r) for s, r in zip(ss, r_max)])
    if model.compact:
        r_max = np.minimum(r_max, model.diameter)
        tail = np.zeros(ss.size)
    sigma = np.sqrt(ss)
    eps = qd.excision_radius(sigma) if beta > 0.0 else np.zeros(ss.size)
    kernel = lambda r: hk.eval_radial_rows(engine, ss, r)
    val = qd.two_point_integral(
        model,
        kernel,
        profile,
        d,
        r_max,
        f_scale=sigma,
        g_scale=np.maximum(np.maximum(sigma / 4.0, eps), 1e-4),
        g_singular_radius=eps,
        max_cell=r_max / (16.0 * 2.0**refinement),
    )
    if beta > 0.0:
        # the kernel is smooth and even in d - u, so only the profile's power
        # enters the rule's weight
        val = val + qd.near_field_integral(model, kernel, profile, d, np.minimum(eps, support), beta, sigma)
    return val, tail


def _smoothed_grid(engine, w, ss, x, grid):
    """Grid quadrature for each s.  The ball excised around each singular set
    is integrated for all s at once by the near-field rule; the potential
    values and the excision mask do not depend on s and are computed once.
    The kernel is built for one s at a time (``hk.eval_grid``: on a product or
    torus grid one row per factor, multiplied out), so no s x node table is
    held."""
    if grid is None:
        grid = _default_y_grid(engine, w, 1.0, [x])
    vals = np.abs(evaluate_many(w, grid.node_coords))
    sings = singularities(w)
    eps = 2.0 * grid.resolution
    keep = singular_distance_many(w, grid.node_coords) >= eps
    weights_kept, vals_kept = grid.weights[keep], vals[keep]
    balls = sum((_excised_ball(engine, sg, ss, x, eps) for sg in sings if sg.pair_cols is None), np.zeros(ss.size))
    values, tails = np.empty(ss.size), np.zeros(ss.size)
    for i, s in enumerate(ss):
        p = hk.eval_grid(engine, float(s), x.coords, grid)
        raw_mass = float(np.sum(grid.weights * p))
        base = float(np.sum(weights_kept * p[keep] * vals_kept))
        mass, merr = hk.kernel_mass(engine, float(s), x)
        if not sings and raw_mass > 0.0:
            # self-normalize so an under-resolved kernel still reports the
            # kernel-weighted average times the true mass
            values[i], tails[i] = base / raw_mass * mass, merr * float(np.max(vals))
        else:
            # singular case: the node sum normalized by the same mass ratio
            # within a guard band, plus the balls
            factor = min(max(mass / raw_mass, 0.25), 4.0) if raw_mass > 0.0 else 1.0
            values[i] = base * factor + balls[i]
    return values, tails


def _excised_ball(engine, sg, ss, x, eps):
    """int p(s, x, y) |w(y)| within eps of a singular set, for each s: the
    near-field rule on the ball of the model the set is a point of, against
    that model's kernel along a geodesic, times the mass of the fiber
    (``fiber_mass``; 1 unless the set is a pullback's tube on the grid)."""
    leaf = hk.make_engine(sg.model)
    d = float(sg.distances(x.coords[None, :])[0])
    kernel = lambda r: hk.eval_radial_rows(leaf, ss, r)
    ball = qd.near_field_integral(sg.model, kernel, sg.profile, d, eps, sg.beta, np.sqrt(ss))
    return ball * fiber_mass(engine.model, sg.cols, ss, x)[0]


def fiber_mass(model: ManifoldModel, cols: np.ndarray, ss: np.ndarray, x: Point) -> tuple[np.ndarray, np.ndarray]:
    """(mass, error allowance) for each s of the kernel p(s, x, .) over the
    leaves of ``model`` outside the chart columns ``cols``: the fiber through
    x of the projection onto the factor at those columns.  The masses
    multiply and their allowances add."""
    mass, err = np.ones(ss.size), np.zeros(ss.size)
    for f, off in leaves(model):
        if off not in cols:
            xf = Point(x.coords[off : off + f.chart_dim])
            m, e = np.array([hk.kernel_mass(hk.make_engine(f), float(s), xf) for s in ss]).T
            mass, err = mass * m, err + e
    return mass, err


def _default_y_grid(engine, w, t_max, x_samples) -> QuadratureGrid:
    """The grid over the whole compact model, or else the polar grid around
    w's center out to the kernel's reach at t_max past the farthest x-sample
    (120 radial cells), which smoothing by p(t, x, .) needs in full."""
    model = engine.model
    if model.compact:
        return _shared_grid(model, model.compact_resolution, None, 0.0)
    return _shared_grid(model, *_y_ball(model, w, t_max, x_samples))


def _norm_grid(engine, w, t_max, x_samples) -> QuadratureGrid:
    """The grid an L^q norm of w takes in place of ``_default_y_grid``: on a
    non-compact model with a known ``_norm_window``, that grid's nodes
    through the first radial cell past the window's farthest point
    (``geom.ball_grid_prefix``), else the whole grid.  They are every node
    ``lq_norm`` reads on the whole grid, at the same indices and to the bit,
    so each norm sums the same nodes in the same order; the nodes where
    |w| = 0 are never built."""
    model = engine.model
    if model.compact:
        return _default_y_grid(engine, w, t_max, x_samples)
    resolution, center, radius = _y_ball(model, w, t_max, x_samples)
    win = _norm_window(w, model, 2.0 * resolution)
    if isinstance(win, BallWindow):
        extent = win.radius
    elif isinstance(win, BoxWindow) and model.flat:  # the box's farthest corner
        extent = math.hypot(*win.halfwidth)
    else:
        return _shared_grid(model, resolution, center, radius)
    # the farthest point of the window from the grid's center; the 1e-9
    # covers the rounding of the triangle inequality
    reach = geom.distance(model, Point(np.array(center)), win.center) + extent
    return _shared_grid(model, resolution, center, radius, reach=reach * (1.0 + 1e-9))


def _y_ball(model, w, t_max, x_samples) -> tuple[float, tuple, float]:
    """(resolution, center, radius) of ``_default_y_grid`` on a non-compact model."""
    center = center_of(w, model)
    spread = max((geom.distance(model, center, x) for x in x_samples), default=0.0)
    radius = spread + model.kernel_reach(t_max) + 2.0
    return radius / 120.0, tuple(center.coords), radius


@lru_cache(maxsize=8)
def _shared_grid(
    model: ManifoldModel, resolution: float, center: tuple | None, radius: float, n_dir=None, reach=math.inf
) -> QuadratureGrid:
    """The grid over the whole compact model (center None) or over a ball,
    cut past ``reach`` (``geom.ball_grid_prefix``), built once; its arrays
    are read-only because every caller shares them."""
    if center is None:
        grid = geom.build_grid(model, resolution, geom.FullWindow())
    else:
        grid = geom.ball_grid_prefix(model, BallWindow(Point(np.array(center)), radius), resolution, n_dir, reach)
    grid.node_coords.flags.writeable = False
    grid.weights.flags.writeable = False
    return grid


# ---------------------------------------------------------------------------
# Coulomb potential (half the time-integrated heat kernel)


@dataclass
class CoulombValue:
    value: float
    tail_bound: float


def _coulomb_supported(model: ManifoldModel) -> bool:
    # needs p(t,x,x) <= C t^{-3/2} for all t > 0
    return isinstance(model, Hyperbolic3) or (isinstance(model, Euclidean) and model.dim == 3)


def coulomb(
    engine: hk.HeatKernelEngine,
    x: Point,
    y: Point,
    tol: float = 1e-10,
) -> CoulombValue:
    """(1/2) * integral over (0, inf) of p(s, x, y) ds, plus a bound on the
    part left out.

    Under s = e^(-2v) the integrand is p(e^(-2v), d) e^(-2v) dv, smooth with
    one peak.  One composite Gauss-Legendre rule covers the window of v where
    the exponent lies within L = max(40, log(1/tol)) of its least value, L at
    most 300; ``tail_bound`` bounds the rest analytically, by at most e^(-L)
    of the value.  The kernel is evaluated once, on the column of node times.

    Convergence needs the on-diagonal decay t^{-3/2}; only Euclidean(3) and
    Hyperbolic3 qualify among the built-ins.
    """
    model = engine.model
    if not _coulomb_supported(model):
        raise UnsupportedModelError(
            f"coulomb needs p(t,x,x) <= C t^(-3/2); {model.describe()} does not qualify"
        )
    d = geom.distance(model, x, y)
    if d == 0.0:
        raise SingularityError("coulomb potential diverges on the diagonal")
    depth = min(max(40.0, -math.log(tol)), 300.0)
    if model.flat:
        # in w = d / sqrt(s) the integral is (2 pi)^(-3/2) / d times that of
        # e^(-w^2/2) over (0, inf); the window is w in [e^-L, sqrt(2L)]
        s_lo, s_hi = d * d / (2.0 * depth), (d * math.exp(depth)) ** 2
        width = 0.125
    else:
        # s/2 + d^2/(2s) lies within L of its least value d; s_lo s_hi = d^2
        s_hi = d + depth + math.sqrt(depth * (2.0 * d + depth))
        s_lo = d * d / s_hi
        width = min(0.125, 0.25 / math.sqrt(d))
    cells = math.ceil(0.5 * math.log(s_hi / s_lo) / width)
    v, w = geom.gl_nodes(np.linspace(-0.5 * math.log(s_hi), -0.5 * math.log(s_lo), cells + 1))
    s = np.exp(-2.0 * v)
    p = hk.eval_radial(engine, np.append(s, [s_lo, s_hi])[:, None], np.array([d]))[:, 0]
    value = float(np.sum(w * p[:-2] * s))
    # below s_lo the exponent is convex in 1/s, above s_hi (hyperbolic) in s;
    # on R^3 the far side is below int (2 pi s)^(-3/2) ds / 2
    kappa = 0.0 if model.flat else 1.0
    below = p[-2] * s_lo * s_lo / (d * d - kappa * s_lo * s_lo)
    above = (2.0 * math.pi) ** -1.5 / math.sqrt(s_hi) if model.flat else p[-1] / (1.0 - (d / s_hi) ** 2)
    return CoulombValue(value=value, tail_bound=float(below + above))


def coulomb_profile(model: ManifoldModel) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form radial profile of the Coulomb potential."""
    if not _coulomb_supported(model):
        raise UnsupportedModelError(f"no Coulomb profile on {model.describe()}")
    if model.flat:
        return lambda d: 1.0 / (4.0 * math.pi * d)
    return lambda d: np.exp(-d) / (4.0 * math.pi * np.sinh(d))


def make_coulomb_potential(model: ManifoldModel, center: Point) -> RadialAtom:
    """The Coulomb potential about ``center``: its closed-form profile of the
    distance, ~ 1/(4 pi d) near zero."""
    return RadialAtom(model, center, coulomb_profile(model), 1.0)


# ---------------------------------------------------------------------------
# many-body assembly


def many_body_assemble(
    l1: int, nuclei: list[Point], engine: hk.HeatKernelEngine
) -> Potential:
    """Attractive electron-nucleus terms plus repulsive electron-electron pairs
    on the l1-fold product configuration space."""
    if l1 < 1:
        raise DomainError("need at least one electron")
    model = engine.model
    if l1 == 1:
        base = model
        if isinstance(base, Product):
            raise DomainError("one-electron assembly expects the base model itself")
    else:
        ls = leaves(model)
        if len(ls) != l1:
            raise DomainError(
                f"model {model.describe()} has {len(ls)} factors, expected {l1}"
            )
        base = ls[0][0]
        if any(f.describe() != base.describe() for f, _ in ls):
            raise DomainError("configuration space must be a power of one base model")
    if base.dim != 3 or not _coulomb_supported(base):
        raise DomainError("many-body assembly needs a 3-dimensional base with t^(-3/2) decay")
    profile = coulomb_profile(base)
    terms: list[Potential] = []
    for i in range(l1):
        for y in nuclei:
            attract = RadialAtom(base, y, profile, 1.0)
            if l1 == 1:
                terms.append(Scale(-1.0, attract))
            else:
                terms.append(Scale(-1.0, Pullback(model, i, attract)))
    if l1 >= 2:
        pair_base = geom.product(base, base)
        for i in range(l1):
            for j in range(i + 1, l1):
                terms.append(Pullback(model, (i, j), TwoBody(pair_base, profile)))
    return Sum(tuple(terms))


# ---------------------------------------------------------------------------
# manifest syntax


def parse_potential(spec: str, model: ManifoldModel) -> Potential:
    """Parse specs like ``constant:5``, ``radialpower:beta=1:center=0,0,0``,
    ``coulomb:center=0,0,0``, ``indicator:ball:r=1:center=...``,
    ``pullback:1:<inner>``, ``scale:-2:<inner>``, ``sum[a;b;...]``.
    A malformed number or index raises ManifestError."""
    try:
        return _parse(spec, model)
    except (ValueError, IndexError) as exc:
        raise ManifestError(f"bad number or index in potential {spec!r}: {exc}") from exc


def _parse(spec: str, model: ManifoldModel) -> Potential:
    s = spec.strip()
    low = s.lower()
    if low.startswith("sum[") and s.endswith("]"):
        inner = s[4:-1]
        if not inner.strip():
            return Sum(())
        return Sum(tuple(_parse(part, model) for part in geom.split_top_level(inner, ";", "[]")))
    head, _, rest = s.partition(":")
    head = head.strip().lower()
    if head == "constant":
        return Constant(float(rest))
    if head == "zero":
        return Sum(())
    if head == "scale":
        factor, _, inner = rest.partition(":")
        return Scale(float(factor), _parse(inner, model))
    if head == "pullback":
        idx, _, inner = rest.partition(":")
        index = tuple(int(v) for v in idx.split(",")) if "," in idx else int(idx)
        return Pullback(model, index, _parse(inner, factor_of(model, index)[0]))
    if head == "windowed":
        # leading key=value fields configure the ball; the remainder is the inner spec
        parts = rest.split(":")
        fields, consumed = {}, 0
        for part in parts:
            if "=" in part and part.split("=", 1)[0].strip().lower() in ("r", "center"):
                k, v = _kv(part)
                fields[k] = v
                consumed += 1
            else:
                break
        inner = ":".join(parts[consumed:])
        win = BallWindow(_center_point(fields, model), _extent(fields.get("r", "1"), "r"))
        return Windowed(model, _parse(inner, model), win)
    if head == "indicator":
        kindname = rest.split(":", 1)[0].strip().lower()
        fields = dict(_kv(part) for part in rest.split(":")[1:] if part)
        center = _center_point(fields, model)
        if kindname == "ball":
            return Indicator(model, BallWindow(center, _extent(fields.get("r", "1"), "r")))
        if kindname == "box":
            hw = tuple(_extent(v, "w") for v in fields.get("w", "1").split(","))
            if len(hw) == 1:
                hw = hw * model.chart_dim
            if len(hw) != model.chart_dim:
                raise ManifestError(f"a box on {model.describe()} needs 1 or {model.chart_dim} half-widths")
            return Indicator(model, BoxWindow(center, hw))
        raise ManifestError(f"unknown indicator region {kindname!r}")
    fields = dict(_kv(part) for part in rest.split(":") if part) if rest else {}
    if head == "radialpower":
        beta = float(fields.get("beta", 1.0))
        center = _center_point(fields, model)
        coeff = float(fields.get("coeff", 1.0))
        return RadialPower(model, center, beta, coeff)
    if head == "coulomb":
        return make_coulomb_potential(model, _center_point(fields, model))
    if head == "cosine":
        return cosine_potential(model, _center_point(fields, model))
    raise ManifestError(f"unknown potential spec {spec!r}")


def _kv(part: str) -> tuple[str, str]:
    k, sep, v = part.partition("=")
    if not sep:
        raise ManifestError(f"expected key=value, got {part!r}")
    return k.strip().lower(), v.strip()


def _extent(text: str, key: str) -> float:
    """A window radius or half-width: finite and > 0 (an empty window would
    read as w = 0)."""
    value = float(text)
    if not (0.0 < value < math.inf):
        raise DomainError(f"window {key} must be finite and > 0, got {text!r}")
    return value


def _center_point(fields: dict, model: ManifoldModel) -> Point:
    if "center" not in fields:
        return geom.base_point(model)
    vals = [float(v) for v in fields["center"].split(",")]
    return geom.make_point(model, vals)
