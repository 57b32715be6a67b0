"""Kato functional, Kato-class verdicts, control pairs and Faber-Krahn checks.

All verdicts produced here are numerical evidence from finite sweeps, never
proofs; every report records the sweep and its tolerances.

scipy is imported at the top, unlike in the layers every command loads: this
module's own core runs on quad and sparse eigsh, so deferring them would only
move their import into the first check.  The Faber-Krahn constant, whose
Bessel zeros need scipy's special functions and root finder, lives in ``mvi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.integrate import quad
from scipy.sparse.linalg import eigsh

from . import geometry as geom
from . import heat_kernel as hk
from . import potentials as pot
from . import quadrature as qd
from .errors import DomainError, UnsupportedModelError
from .geometry import BallWindow, BoxWindow, Euclidean, ManifoldModel, Point, QuadratureGrid, Torus


def admissible_q(m: int, q: float) -> bool:
    """q >= 1 when m = 1; q > m/2 when m >= 2."""
    if q < 1:
        return False
    return True if m == 1 else q > m / 2.0


def require_admissible(m: int, q: float) -> None:
    if not admissible_q(m, q):
        raise DomainError(f"q={q} is not admissible for dimension {m}")


# ---------------------------------------------------------------------------
# control pairs


@dataclass(frozen=True)
class KatoControlPair:
    """(space_factor, time_factor) with sup_y p(t,x,y) <= space(x) * time(t) on (0,1].

    ``space_factor`` takes an (n, chart_dim) array of chart coordinates and
    returns the factor at every row, as anything that broadcasts to (n,) (a
    scalar for a factor constant in x).  A caller holding one Point passes
    ``x.coords[None, :]``.  The same callable serves as the weight of
    ``potentials.lq_norm``.
    """

    model: ManifoldModel
    space_factor: Callable[[np.ndarray], np.ndarray | float]
    time_factor: Callable[[float], float]
    description: str
    constants: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)  # q -> int_0^1 time_factor^(1/q)


def certificate(pair: KatoControlPair, q: float) -> float:
    require_admissible(pair.model.dim, q)
    return qd.certificate_integral(pair.time_factor, q)


def with_certificates(pair: KatoControlPair, qs: Sequence[float]) -> KatoControlPair:
    certs = dict(pair.certificates)
    for q in qs:
        certs[float(q)] = certificate(pair, float(q))
    return KatoControlPair(
        pair.model, pair.space_factor, pair.time_factor, pair.description, pair.constants, certs
    )


def default_qs(m: int) -> tuple[float, ...]:
    if m == 1:
        return (1.0, 2.0, 5.0)
    return (m / 2.0 + 0.1, 2.0, 5.0) if m / 2.0 + 0.1 < 2.0 else (m / 2.0 + 0.1, m / 2.0 + 1.0, 5.0)


@dataclass
class PairVerification:
    min_margin: float
    n_samples: int
    details: list


def verify_control_pair(
    engine: hk.HeatKernelEngine,
    pair: KatoControlPair,
    t_values: Sequence[float],
    x_samples: Sequence[Point],
) -> PairVerification:
    """Margins space(x)*time(t) - sup_y p(t,x,y) over the sweep.

    The sup over y is the on-diagonal value for every built-in model (the
    kernels are radially decreasing; checked independently by sup_bound)."""
    details = []
    worst = math.inf
    spaces = [_space_at(pair, x) for x in x_samples]
    for t in t_values:
        if not 0.0 < t <= 1.0:
            raise DomainError("control pairs are calibrated on (0, 1]")
        supval = hk.on_diag(engine, float(t))
        for space in spaces:
            bound = space * pair.time_factor(float(t))
            margin = bound - supval
            details.append({"t": float(t), "margin": margin})
            worst = min(worst, margin)
    return PairVerification(worst, len(details), details)


def _space_at(pair: KatoControlPair, x: Point) -> float:
    return float(np.broadcast_to(pair.space_factor(x.coords[None, :]), (1,))[0])


def control_pair_from_on_diag(
    engine: hk.HeatKernelEngine, t_values: Sequence[float] | None = None
) -> KatoControlPair:
    """(C, t^{-m/2}) with C the sweep sup of t^{m/2} p(t,x,x); constant in x.

    The default sweep's pair is built once per engine and shared, so its
    ``constants`` and ``certificates`` are read-only mappings."""
    if t_values is None:
        return _default_on_diag_pair(engine)
    m = engine.dim
    C = hk.on_diag_upper(engine, t_values)
    pair = KatoControlPair(
        engine.model,
        space_factor=lambda x, C=C: C,
        time_factor=lambda t, m=m: float(t) ** (-m / 2.0),
        description=f"on-diagonal pair (C, t^-{m}/2) with C={C:.12g}",
        constants={"C": C},
    )
    return with_certificates(pair, default_qs(m))


@lru_cache(maxsize=16)
def _default_on_diag_pair(engine: hk.HeatKernelEngine) -> KatoControlPair:
    pair = control_pair_from_on_diag(engine, np.logspace(-4, 0, 60))
    return replace(
        pair, constants=MappingProxyType(pair.constants), certificates=MappingProxyType(pair.certificates)
    )


def control_pair_li_yau(engine: hk.HeatKernelEngine, t_values: Sequence[float] | None = None) -> KatoControlPair:
    """Ricci-lower-bound pair: space(x) = C5 / mu(B(x,1)), time(t) = t^{-m/2}.

    C5 is the smallest constant making the bound hold on the calibration
    sweep; it is reported with the sweep range, never claimed universal.
    """
    model = engine.model
    m = model.dim
    ts = np.asarray(t_values if t_values is not None else np.logspace(-4, 0, 60), dtype=float)
    vol1 = geom.ball_volume_radial(model, 1.0)
    C5 = 0.0
    for t in ts:
        diag = hk.on_diag(engine, float(t))
        C5 = max(C5, diag * vol1 * float(t) ** (m / 2.0))
    pair = KatoControlPair(
        model,
        space_factor=lambda x, C5=C5, v=vol1: C5 / v,
        time_factor=lambda t, m=m: float(t) ** (-m / 2.0),
        description=f"volume pair (C5/mu(B(x,1)), t^-{m}/2) with C5={C5:.12g}",
        constants={"C5": C5, "kappa": -model.ricci_lower_bound, "vol_unit_ball": vol1},
    )
    return with_certificates(pair, default_qs(m))


def doubling_check(model: ManifoldModel) -> float:
    """min over 40 sampled 0 < s' <= s of
    mu(B(x,s')) (s/s')^m exp(sqrt((m-1) kappa) s) - mu(B(x,s)); >= 0 expected."""
    rng = np.random.default_rng(20240901)
    kappa = max(-model.ricci_lower_bound, 0.0)
    m = model.dim
    worst = math.inf
    for _ in range(40):
        s = rng.uniform(0.05, 3.0)
        sp = rng.uniform(0.01, 1.0) * s
        lhs = geom.ball_volume_radial(model, s)
        rhs = geom.ball_volume_radial(model, sp) * (s / sp) ** m * math.exp(
            math.sqrt(max((m - 1) * kappa, 0.0)) * s
        )
        worst = min(worst, rhs - lhs)
    return worst


# ---------------------------------------------------------------------------
# kernel-smoothed |w|: the left side of the Hoelder bound


@dataclass
class SmoothedValue:
    value: float | np.ndarray  # one value per s when s is an array
    tail_bound: float | np.ndarray


def smoothed_abs(
    engine: hk.HeatKernelEngine,
    w: pot.Potential,
    s,
    x: Point,
    grid: QuadratureGrid | None = None,
    refinement: int = 0,
) -> SmoothedValue:
    """integral of p(s, x, y) |w(y)| dmu(y), for one s or an array of s.

    On the radial-kernel models, radial potential atoms use the exact
    axisymmetric two-point reduction, one cell set per atom for all s.
    Everything else falls back to grid quadrature.  On both paths the ball
    excised around a singular center is integrated for all s at once by the
    near-field rule (``quadrature.near_field_integral``); away from the
    center the grid stays approximate at small s.  ``refinement`` halves
    the two-point cell caps (for error estimation).
    """
    ss = np.atleast_1d(np.asarray(s, dtype=float))
    value, tail = _smoothed(engine, w, ss, x, grid, refinement) if ss.size else (ss, ss)
    if np.ndim(s) == 0:
        return SmoothedValue(float(value[0]), float(tail[0]))
    return SmoothedValue(value, tail)


def _smoothed(engine, w, ss, x, grid, refinement):
    """(values, tail bounds), one per s."""
    terms = pot.terms(w)
    total, tail = np.zeros(ss.size), np.zeros(ss.size)
    if not terms:
        return total, tail
    if not engine.model.radial_kernel or any(
        not isinstance(atom, pot.Constant) and atom.radial() is None for _, atom in terms
    ):
        return _smoothed_grid(engine, w, ss, x, grid)
    for c, atom in terms:
        if isinstance(atom, pot.Constant):
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
    values and the excision mask do not depend on s and are computed once."""
    if grid is None:
        grid = _default_y_grid(engine, w, 1.0, [x])
    vals = np.abs(pot.evaluate_many(w, grid.node_coords))
    sings = pot.singularities(w)
    eps = 2.0 * grid.resolution
    keep = np.ones(grid.size, dtype=bool)
    for sg in sings:
        keep &= sg.distances(grid.node_coords) >= eps
    weights_kept, vals_kept = grid.weights[keep], vals[keep]
    balls = sum((_excised_ball(engine, sg, ss, x, eps) for sg in sings if sg.pair_cols is None), np.zeros(ss.size))
    values, tails = np.empty(ss.size), np.zeros(ss.size)
    for i, s in enumerate(ss):
        p = hk.eval_many(engine, float(s), x.coords, grid.node_coords)
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
    near-field rule on the ball of the leaf the set is a point of, against
    that leaf's kernel along a factor geodesic.  A pullback's set is a tube;
    its ball takes the other leaves' kernel mass (they run "auto" kernels)."""
    tube = len(sg.cols) < engine.model.chart_dim
    leaf = hk.make_engine(sg.model) if tube else engine
    d = float(sg.distances(x.coords[None, :])[0])
    kernel = lambda r: hk.eval_radial_rows(leaf, ss, r)
    ball = qd.near_field_integral(sg.model, kernel, sg.profile, d, eps, sg.beta, np.sqrt(ss))
    for f, off in pot.leaves(engine.model) if tube else ():
        if off != sg.cols[0]:
            xf = Point(x.coords[off : off + f.chart_dim])
            ball = ball * np.array([hk.kernel_mass(hk.make_engine(f), float(s), xf)[0] for s in ss])
    return ball


def _center_and_offsets(w: pot.Potential, model: ManifoldModel, offsets) -> list[Point]:
    """The potential's center, then one point per offset along the first axis."""
    c = pot.center_of(w, model)
    xs = [c]
    for off in offsets:
        v = np.zeros(model.tangent_dim)
        v[0] = off
        xs.append(geom.exp_map(model, c, v))
    return xs


def _default_y_grid(engine, w, t_max, x_samples) -> QuadratureGrid:
    model = engine.model
    if model.compact:
        return _shared_grid(model, model.compact_resolution, None, 0.0)
    center = pot.center_of(w, model)
    spread = max((geom.distance(model, center, x) for x in x_samples), default=0.0)
    radius = spread + model.kernel_reach(t_max) + 2.0
    return _shared_grid(model, radius / 120.0, tuple(center.coords), radius)


@lru_cache(maxsize=8)
def _shared_grid(
    model: ManifoldModel, resolution: float, center: tuple | None, radius: float, n_dir: int | None = None
) -> QuadratureGrid:
    """The grid over the whole compact model (center None) or over a ball,
    built once; its arrays are read-only because every caller shares them."""
    window = geom.FullWindow() if center is None else BallWindow(Point(np.array(center)), radius)
    grid = geom.build_grid(model, resolution, window, n_dir)
    grid.node_coords.flags.writeable = False
    grid.weights.flags.writeable = False
    return grid


# ---------------------------------------------------------------------------
# the Kato functional N(t) and is_kato verdicts


@dataclass
class KatoFunctionalCurve:
    t_values: np.ndarray  # decreasing
    values: np.ndarray
    tail_bounds: np.ndarray  # short-time remainder + quadrature tails
    diverges: bool


@dataclass
class KatoVerdict:
    passed: bool
    label: str  # always "numerical evidence"
    gamma: float  # power-law fit N(t) ~ c t^gamma
    decay_ratio: float
    reasons: list


def _s_breaks(t: float, s_min: float) -> np.ndarray:
    if t <= s_min:
        return np.array([s_min, t]) if t > s_min else np.array([])
    k = max(1, int(math.ceil(math.log2(t / s_min))))
    pts = [t * 2.0 ** (-j) for j in range(k + 1)]
    pts = [max(p, s_min) for p in pts]
    pts.append(s_min)
    return np.array(sorted(set(pts)))


def _inner_divergent(w: pot.Potential) -> bool:
    return any(s.beta >= s.model.dim for s in pot.singularities(w) if s.pair_cols is None)


def kato_functional(
    engine: hk.HeatKernelEngine,
    w: pot.Potential,
    t: float,
    x_grid: Sequence[Point],
    s_min: float = 1e-6,
) -> float:
    """max over the x-grid of int_0^t int p(s,x,y) |w(y)| dmu(y) ds.

    The s-integral uses geometric (dyadic) subdivision down to s_min; the
    remainder over (0, s_min) is bounded through a control pair and included
    in the returned value.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    rem = _short_time_remainder(engine, w, s_min)
    core, _ = _kato_core(engine, w, t, x_grid, s_min)
    return core + rem


def _kato_core(engine, w, t, x_grid, s_min):
    """(max over x of the dyadic part over [s_min, t], quadrature tail allowance)."""
    if _inner_divergent(w):
        return math.inf, math.inf
    s_nodes, s_weights = qd.gl_nodes(_s_breaks(t, s_min))
    best, best_tail = 0.0, 0.0
    for x in x_grid:
        sv = smoothed_abs(engine, w, s_nodes, x)
        total = float(s_weights @ sv.value)
        if total > best:
            best, best_tail = total, float(s_weights @ sv.tail_bound)
    return best, best_tail


def _short_time_remainder(engine, w, s_min):
    """Bound for int_0^{s_min} of the smoothed potential: s_min * sup|w| when w
    is bounded, otherwise the windowed L^q norm against the control pair (with
    q chosen to minimize the bound) plus the outside sup times s_min."""
    if s_min <= 0:
        return 0.0
    model = engine.model
    m = model.dim
    sup_w = pot.sup_abs(w)
    if math.isfinite(sup_w):
        return s_min * sup_w
    control = control_pair_from_on_diag(engine)
    sings = [s for s in pot.singularities(w) if s.pair_cols is None]
    beta_max = max((s.beta for s in sings), default=0.0)
    if m == 1:
        q_candidates = [1.0, 0.5 * (1.0 + 1.0 / beta_max)] if beta_max < 1.0 else []
    else:
        hi = m / beta_max if beta_max > 0 else m / 2.0 + 4.0
        if hi <= m / 2.0:
            q_candidates = []
        else:
            # bounds improve toward the upper endpoint until the norm blows up
            q_candidates = [m / 2.0 + f * (hi - m / 2.0) for f in (0.3, 0.5, 0.7, 0.85, 0.95)]
    q_candidates = [q for q in q_candidates if admissible_q(m, q) and beta_max * q < m]
    if not q_candidates:
        return math.inf  # no admissible q gives a finite weighted norm
    center = pot.center_of(w, model)
    R = 3.0
    if model.compact:
        grid = _shared_grid(model, model.compact_resolution, None, 0.0)
        windowed = w
        sup_out = 0.0
    else:
        grid = _shared_grid(model, R / 60.0, tuple(center.coords), R, 8)
        windowed = pot.Windowed(model, w, BallWindow(center, R))
        sup_out = pot.sup_abs(w, outside=(center, R))
    best = math.inf
    for wq in pot.lq_norm(windowed, q_candidates, control.space_factor, grid):
        if wq.diverges:
            continue
        integ, _ = quad(
            lambda u, q=wq.q: control.time_factor(max(s_min * u, 1e-300)) ** (1.0 / q),
            0.0,
            1.0,
            epsabs=1e-12,
            epsrel=1e-9,
            limit=200,
        )
        best = min(best, wq.value * s_min * integ + s_min * sup_out)
    return best


def is_kato(
    engine: hk.HeatKernelEngine,
    w: pot.Potential,
    t_sequence: Sequence[float],
    threshold_ratio: float = 0.3,
    gamma_min: float = 0.05,
    s_min: float = 1e-9,
) -> tuple[KatoFunctionalCurve, KatoVerdict]:
    """Kato-functional curve N(t) on a decreasing t-sequence plus a verdict.

    ``values`` are the dyadic-quadrature estimates of N(t); ``tail_bounds``
    carry the additive allowance (short-time remainder bound plus quadrature
    tails).  PASS requires clear decay of the estimates: N(t_min) below
    threshold_ratio * N(t_max) and a positive fitted exponent.  The verdict is
    numerical evidence only, never a proof.
    """
    ts = np.asarray(sorted(set(float(t) for t in t_sequence), reverse=True), dtype=float)
    if ts.size < 2:
        raise DomainError("need at least two t values")
    model = engine.model
    if _inner_divergent(w):
        curve = KatoFunctionalCurve(ts, np.full(ts.size, math.inf), np.full(ts.size, math.inf), True)
        return curve, KatoVerdict(False, "numerical evidence", 0.0, math.inf, ["divergent smoothing integral"])
    x_samples = _center_and_offsets(w, model, (0.5, 1.5))
    rem = _short_time_remainder(engine, w, s_min)
    if not math.isfinite(rem):
        # the values then cover s >= s_min only; the divergence is reflected
        # in the verdict via decay failure
        rem = 0.0
    # the functional is largest at the potential center for the radial battery;
    # rank the x-samples once at the largest t, then sweep the winner
    t0 = float(ts[0])
    scored = [(_kato_core(engine, w, t0, [x], s_min), x) for x in x_samples]
    scored.sort(key=lambda it: -it[0][0])
    (v0, tb0), x_best = scored[0]
    values, tails = [v0], [tb0 + rem]
    for t in ts[1:]:
        v, tb = _kato_core(engine, w, float(t), [x_best], s_min)
        values.append(v)
        tails.append(tb + rem)
    values = np.array(values)
    tails = np.array(tails)
    finite = np.isfinite(values) & (values > 0)
    gamma = 0.0
    if finite.sum() >= 2:
        gamma = float(np.polyfit(np.log(ts[finite]), np.log(values[finite]), 1)[0])
    diverges = bool(np.any(~np.isfinite(values)))
    curve = KatoFunctionalCurve(ts, values, tails, diverges)
    if diverges or values[0] <= 0:
        ratio = math.inf if diverges else 0.0
    else:
        ratio = float(values[-1] / values[0])  # N(t_min) / N(t_max)
    reasons = []
    passed = True
    if diverges:
        passed = False
        reasons.append("functional not finite on the sweep")
    else:
        if ratio > threshold_ratio:
            passed = False
            reasons.append(f"N(t_min)/N(t_max)={ratio:.3g} above threshold {threshold_ratio}")
        if gamma < gamma_min:
            passed = False
            reasons.append(f"fitted exponent {gamma:.3g} below {gamma_min}")
    if passed:
        reasons.append(f"decay ratio {ratio:.3g}, fitted exponent {gamma:.3g}")
    return curve, KatoVerdict(passed, "numerical evidence", gamma, ratio, reasons)


# ---------------------------------------------------------------------------
# Hoelder / weighted-L^q bound check


@dataclass
class HolderReport:
    q: float
    min_margin: float
    tolerance: float
    rhs_divergent: bool
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.rhs_divergent or self.min_margin >= -self.tolerance


def holder_bound_check(
    engine: hk.HeatKernelEngine,
    control: KatoControlPair,
    w: pot.Potential,
    q: float,
    s_samples: Sequence[float],
    x_samples: Sequence[Point],
    grid: QuadratureGrid | None = None,
) -> HolderReport:
    """min over samples of RHS - LHS for
    int p(s,x,y)|w(y)| dmu <= time(s)^{1/q} (int |w|^q space dmu)^{1/q}."""
    model = engine.model
    require_admissible(model.dim, q)
    norm_grid = grid or _default_y_grid(engine, w, max(s_samples), list(x_samples))
    wq = pot.lq_norm(w, q, control.space_factor, norm_grid)
    if wq.diverges:
        return HolderReport(q, math.inf, 0.0, True, 0)
    ss = np.asarray(s_samples, dtype=float)
    if not np.all((ss > 0.0) & (ss <= 1.0)):
        raise DomainError("the bound is calibrated for s in (0, 1]")
    rhs = np.array([control.time_factor(float(s)) ** (1.0 / q) for s in ss]) * wq.value
    worst = math.inf
    tail_worst = 0.0
    for x in x_samples:
        sv = smoothed_abs(engine, w, ss, x, grid=grid)
        # builtin min and max skip a NaN margin, as a scalar comparison would
        worst = min([worst, *(rhs - sv.value).tolist()])
        tail_worst = max([tail_worst, *sv.tail_bound.tolist()])
    n_samples = ss.size * len(x_samples)
    tol = max(1e-8, 10.0 * tail_worst)
    return HolderReport(q, worst, tol, False, n_samples)


# ---------------------------------------------------------------------------
# classical Euclidean characterization weights


def h_weight(m: int, r) -> np.ndarray:
    """h_2 = log+(1/r); h_m = r^{2-m} for m > 2."""
    r = np.asarray(r, dtype=float)
    if m == 2:
        with np.errstate(divide="ignore"):
            return np.maximum(np.log(1.0 / np.maximum(r, 1e-300)), 0.0)
    return np.maximum(r, 1e-300) ** (2.0 - m)


def _classical_divergent(w: pot.Potential, m: int) -> bool:
    """The h_m-weighted integral at a power singularity diverges when
    beta + (m - 2) >= m for m >= 2 (i.e. beta >= 2), and when beta >= 1 = m
    for the windowed-L^1 case m = 1."""
    thresh = 2.0 if m >= 2 else 1.0
    return any(s.beta >= thresh for s in pot.singularities(w) if s.pair_cols is None)


def classical_kato_functional(
    model: ManifoldModel,
    w: pot.Potential,
    r: float,
    x_samples: Sequence[Point],
) -> float:
    """sup over the x-grid of int_{d<=r} |w(y)| h_m(d(x,y)) dy (Euclidean only).

    For m = 1 this is the windowed L^1 criterion sup_x int_{|x-y|<=r} |w|.
    Returns inf when the weighted integral diverges at a singular center.
    """
    if not isinstance(model, Euclidean):
        raise UnsupportedModelError("classical characterization is Euclidean")
    m = model.dim
    if r <= 0:
        raise DomainError("radius must be positive")
    if _classical_divergent(w, m):
        return math.inf

    if m == 1:
        fker = lambda rho: (np.asarray(rho, float) <= r).astype(float)
    else:
        fker = lambda rho: h_weight(m, rho) * (np.asarray(rho, float) <= r)
    best = 0.0
    for x in x_samples:
        total = 0.0
        for c, atom in pot.terms(w):
            if isinstance(atom, pot.Constant):
                rho = min(r, 1.0) if m == 2 else r  # h_2 = log+(1/u) ends at u = 1
                total += abs(c * atom.value) * _classical_near_field(model, fker, np.ones_like, 0.0, rho, 0.0)
                continue
            ra = atom.radial()
            if ra is None:
                raise UnsupportedModelError("classical functional implemented for radial batteries")
            profile, support, beta = ra.profile, ra.support, ra.beta
            d = geom.distance(model, x, ra.center)
            eps = max(1e-6, 1e-4 * r) if beta > 0 else 0.0
            if m >= 2 and 1e-14 < d < eps:  # h_m(|d - u|) is singular on the excised ball
                raise DomainError(
                    f"x-sample at distance {d:.3g} lies inside the excised ball of radius {eps:.3g}"
                )
            val = qd.two_point_integral(
                model, fker, profile, d, r, f_scale=r / 8.0, g_scale=max(eps, r / 16.0),
                g_singular_radius=eps,
            )
            if eps > 0.0:
                val += _classical_near_field(model, fker, profile, d, min(eps, support), beta)
            total += abs(c) * val
        best = max(best, total)
    return best


def _classical_near_field(model, fker, profile, d, radius, beta) -> float:
    """The excised ball of the classical functional.  Away from the center
    h_m(|d - u|) is smooth on it; at the center h_m(u) is the power u^(2-m)
    (m >= 3), which joins the profile's power, or log(1/u) (m = 2), which is
    integrated by parts: G(R) log(1/R) + int_0^R G(v)/v dv, G(v) = int_0^v g."""
    m = model.dim
    if d > 1e-14 or m == 1:
        return qd.near_field_integral(model, fker, profile, d, radius, beta)
    if m >= 3:
        return qd.near_field_integral(model, fker, profile, d, radius, beta + m - 2.0)
    one = np.ones_like
    G = lambda v: qd.near_field_integral(model, one, profile, 0.0, v, beta)  # one row per radius in v

    def g_over_v(v):  # G(v) / v, written as a profile against the sphere area
        return G(v) / (v * geom.ball_surface_many(model, v))

    rest = qd.near_field_integral(model, one, g_over_v, 0.0, radius, beta)
    return float(G([radius])[0]) * math.log(1.0 / radius) + rest


def classical_is_kato(
    model: ManifoldModel, w: pot.Potential, r_sequence: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, bool]:
    """(radii, values, verdict) for the h_m characterization; verdict mirrors
    is_kato: the value at the smallest radius at most 1/4 of that at the largest."""
    rs = np.asarray(sorted(set(map(float, r_sequence)), reverse=True))
    if _classical_divergent(w, model.dim):
        return rs, np.full(rs.size, math.inf), False
    xs = _center_and_offsets(w, model, (0.5,))
    vals = np.array([classical_kato_functional(model, w, float(r), xs) for r in rs])
    if not np.all(np.isfinite(vals)) or vals[0] <= 0:
        return rs, vals, bool(np.allclose(vals, 0.0))
    return rs, vals, bool(vals[-1] / vals[0] <= 0.25)


# ---------------------------------------------------------------------------
# Faber-Krahn control pairs and Dirichlet eigenvalues


@dataclass(frozen=True)
class FaberKrahnControlPair:
    radius_fn: Callable[[Point], float]  # continuous bounded R
    a: float
    description: str = ""


def constant_radius_fn(model: ManifoldModel):
    """R = min(r_4, 1) / 2, with r_4 the largest radius (constant per model) on
    which a chart keeps the metric between id / 4 and 4 id."""
    R = min(model.comparability_radius(4.0), 1.0) / 2.0
    return lambda x, R=R: R


@dataclass
class FDEigenResult:
    value: float  # extrapolated smallest eigenvalue of -(1/2) Laplace, Dirichlet
    raw: list  # per-resolution values
    converged: bool


_FD_MIN_NODES = 20  # fewest interior nodes a finite-difference solve accepts
# most lattice nodes a finest grid may hold. The mask takes a byte a node plus
# about 7 MB of coordinates (1.6 bytes a node in all on the 3-d unit ball at
# h = 1/48, whose finest grid has 193^3 = 7.2e6 nodes); assembling the
# operator on the fundamental domain then peaks at about 21 bytes a node
# before the eigensolve (153 MB there; tracemalloc, numpy 2.4)
_FD_MAX_NODES = 10_000_000
_FD_MASK_ROWS = 65_536  # lattice nodes whose coordinates _fd_mask holds at once (about 7 MB)


def _fd_axes(m: int, lo: np.ndarray, hi: np.ndarray, h):
    """(per-axis spacings, per-axis node counts) of the lattice from lo to hi."""
    hs = [float(h)] * m if np.isscalar(h) else [float(v) for v in h]
    return hs, [int(math.floor((hi[k] - lo[k]) / hs[k] + 1e-9)) + 1 for k in range(m)]


def _fd_mask(m: int, inside_fn, lo: np.ndarray, hi: np.ndarray, h):
    """(interior-node mask of the lattice from lo to hi, per-axis spacings).

    ``inside_fn`` tests its coordinate rows one by one, so it runs on a few
    first-axis slabs of the lattice at a time (about _FD_MASK_ROWS nodes, one
    slab at least): besides the mask, only their float coordinates are held."""
    hs, ns = _fd_axes(m, lo, hi, h)
    axes = [lo[k] + np.arange(ns[k]) * hs[k] for k in range(m)]
    step = max(1, _FD_MASK_ROWS // math.prod(ns[1:]))
    mask = np.empty(ns, dtype=bool)
    for i in range(0, ns[0], step):
        mesh = np.meshgrid(axes[0][i : i + step], *axes[1:], indexing="ij")
        coords = np.stack([g.ravel() for g in mesh], axis=1)
        mask[i : i + step] = inside_fn(coords).reshape(mesh[0].shape)
    return mask, hs


def _fd_operator(mask: np.ndarray, hs) -> sparse.csc_matrix:
    """B = P^T A P, A the finite-difference -(1/2) Laplace with Dirichlet
    conditions on the mask's nodes, built on its fundamental domain alone.

    Axis k folds when the mask equals its own reflection along k, and P is the
    (nodes x orbits) matrix whose columns are orbit indicators divided by
    sqrt(orbit size); P is the identity when no axis folds. A = D - N with D a
    constant diagonal and N >= 0, so by Perron-Frobenius A has a nonnegative
    ground state. A commutes with each reflection of its mask, so the average
    of that ground state over the reflections is again a ground state: still
    nonnegative, so nonzero, and constant on orbits, so in the range of P.
    Hence lambda_min(P^T A P) = lambda_min(A) in exact arithmetic, on about
    2^k times fewer unknowns for k folding axes.

    The unknowns are the mask's nodes with index >= n_k // 2 on every folding
    axis, in C order; an orbit has 2 nodes per folding axis, 1 on an odd
    axis's mirror plane. B_ab = -n(a -> b) / (2 h_k^2) sqrt(|a| / |b|) for the
    n(a -> b) lattice neighbours of a's node in orbit b. Orbit sizes are
    powers of 2, so B is exactly symmetric."""
    m = mask.ndim
    folds = [np.array_equal(mask, np.flip(mask, k)) for k in range(m)]
    dom = mask[tuple(slice(n // 2 if f else 0, None) for n, f in zip(mask.shape, folds))]
    count = int(dom.sum())
    index = np.full(dom.shape, -1, dtype=np.int32)  # _FD_MAX_NODES fits
    index[dom] = np.arange(count)
    size = np.ones(dom.shape)
    diag = np.arange(count, dtype=np.int32)
    rows, cols, coefs = [diag], [diag], [np.full(count, sum(1.0 / (hk * hk) for hk in hs))]
    for k, n in enumerate(mask.shape):
        cut = lambda lo, hi: (slice(None),) * k + (slice(lo, hi),)
        below = index
        if folds[k]:  # below the first slab lies its mirror: the second slab (odd n_k) or itself
            below = np.concatenate([index[cut(n % 2, n % 2 + 1)], index], axis=k)
            size *= 2.0
            size[cut(0, 1)] /= 1 + n % 2  # an odd axis's mirror plane is its own image
        for a, b in ((index[cut(0, -1)], index[cut(1, None)]), (below[cut(1, None)], below[cut(0, -1)])):
            both = (a >= 0) & (b >= 0)  # each domain node a and its neighbour b above, then below
            rows.append(a[both])
            cols.append(b[both])
            coefs.append(np.full(rows[-1].size, -1.0 / (2.0 * hs[k] * hs[k])))
    size = size[dom]
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(coefs) * np.sqrt(size[rows] / size[cols])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(count, count)).tocsc()


def _fd_ground_energy(m: int, inside_fn, lo: np.ndarray, hi: np.ndarray, h) -> float:
    """Smallest eigenvalue of the finite-difference Dirichlet operator on the
    lattice's interior nodes, solved as ``_fd_operator``'s B; the 2-d
    shift-invert branch's 150 000 limit reads the folded count."""
    mask, hs = _fd_mask(m, inside_fn, lo, hi, h)
    if int(mask.sum()) < _FD_MIN_NODES:
        raise DomainError("grid too coarse for the region")
    B = _fd_operator(mask, hs)
    n = B.shape[0]
    if m == 2 and n <= 150_000:
        # 2-d fill-in is mild; shift-invert is exact and fast
        # a fixed start vector keeps the result a function of the matrix alone
        lam = eigsh(B, k=1, sigma=0.0, which="LM", v0=np.ones(n), return_eigenvectors=False)
        return float(lam[0])
    # 3-d factors fill in badly; implicitly restarted Lanczos needs only B @ v
    lam = eigsh(B, k=1, which="SA", v0=np.ones(n), return_eigenvectors=False)
    return float(lam[0])


def _fd_levels(model: ManifoldModel, region, h: float, refinements: int):
    """(m, one (inside, lo, hi, spacings) per refinement, Richardson order)
    of the finite-difference grids for the region."""
    if isinstance(model, Torus):
        # small boxes lift isometrically to Euclidean space
        if isinstance(region, BoxWindow) and max(region.halfwidth) < model.side_length / 2.0:
            model = geom.euclidean(model.dim)
        else:
            raise UnsupportedModelError("torus regions must be small boxes")
    if not isinstance(model, Euclidean):
        raise UnsupportedModelError("finite differences implemented on flat charts")
    m = model.dim
    if m not in (2, 3):
        raise UnsupportedModelError("finite differences implemented for m in {2, 3}")
    if isinstance(region, BallWindow):
        c = region.center.coords[:m]
        R = region.radius
        lo, hi = c - R, c + R
        inside = lambda pts: np.linalg.norm(pts - c, axis=1) < R - 1e-12
        return m, [(inside, lo, hi, h / (2.0**j)) for j in range(refinements + 1)], 1
    if isinstance(region, BoxWindow):
        c = np.asarray(region.center.coords[:m], dtype=float)
        hw = np.asarray(region.halfwidth, dtype=float)
        inside = lambda pts: np.all(np.abs(pts - c) < hw - 1e-12, axis=1)
        levels = []
        n0 = [max(4, int(round(2.0 * hwk / h))) for hwk in hw]
        for j in range(refinements + 1):
            # per-axis spacings align every face with the lattice; doubling the
            # counts halves each spacing exactly, keeping Richardson clean
            ns = [nk * 2**j for nk in n0]
            hs = [2.0 * hwk / nk for hwk, nk in zip(hw, ns)]
            levels.append((inside, c - hw + np.asarray(hs), c + hw - np.asarray(hs) / 2.0, hs))
        return m, levels, 2
    raise DomainError(f"unsupported region {region!r}")


def fd_grid_too_fine(model: ManifoldModel, region, h: float) -> bool:
    """True when dirichlet_ground_energy's finest lattice for the region at
    spacing h, with its default one refinement, would hold more than
    _FD_MAX_NODES nodes. The size comes from the per-axis node counts; no
    array is built."""
    try:
        with np.errstate(over="raise", divide="raise"):
            m, levels, _ = _fd_levels(model, region, h, 1)
            _, ns = _fd_axes(m, *levels[-1][1:])
    except (OverflowError, FloatingPointError):  # a per-axis count past the float range
        return True
    return math.prod(ns) > _FD_MAX_NODES


def fd_grid_too_coarse(model: ManifoldModel, region, h: float) -> bool:
    """True when dirichlet_ground_energy's coarsest grid for the region at
    spacing h would have too few interior nodes to solve on."""
    m, levels, _ = _fd_levels(model, region, h, 0)
    return int(_fd_mask(m, *levels[0])[0].sum()) < _FD_MIN_NODES


def dirichlet_ground_energy(
    model: ManifoldModel, region, h: float, refinements: int = 1
) -> FDEigenResult:
    """Smallest Dirichlet eigenvalue of -(1/2) Laplace on the region by finite
    differences, with Richardson extrapolation across refinements.

    Ball regions have a staircase boundary (first-order error); box regions
    align with the lattice (second-order)."""
    m, levels, order = _fd_levels(model, region, h, refinements)
    raw = [_fd_ground_energy(m, *level) for level in levels]
    if len(raw) >= 2:
        r = 2.0**order
        value = (r * raw[-1] - raw[-2]) / (r - 1.0)
        converged = abs(raw[-1] - raw[-2]) <= 0.05 * abs(raw[-1])
    else:
        value, converged = raw[-1], False
    return FDEigenResult(value, raw, converged)


def region_volume(model: ManifoldModel, region) -> float:
    if isinstance(region, BallWindow):
        return geom.ball_volume_radial(model, region.radius)
    if isinstance(region, BoxWindow):
        return float(np.prod(2.0 * np.asarray(region.halfwidth)))
    raise DomainError(f"unsupported region {region!r}")


@dataclass
class FaberKrahnReport:
    min_margin: float
    tolerance: float
    inconclusive: list
    details: list

    @property
    def passed(self) -> bool:
        return not self.inconclusive and self.min_margin >= -self.tolerance

    def to_dict(self) -> dict:
        return {
            "min_margin": self.min_margin,
            "tolerance": self.tolerance,
            "inconclusive": self.inconclusive,
            "n_sets": len(self.details),
        }


def faber_krahn_verify(
    model: ManifoldModel,
    radius_fn,
    a: float,
    test_sets: Sequence[tuple[Point, object]],
    h: float = 1.0 / 48.0,
) -> FaberKrahnReport:
    """Checks min spec(H_U) >= a vol(U)^{-2/m} on each test set (ball/box inside
    B(x, R(x))) by finite-difference Dirichlet eigenvalues."""
    details, inconclusive = [], []
    worst = math.inf
    tol = 0.0
    for x, region in test_sets:
        Rx = radius_fn(x)
        circum = _region_circumradius(model, x, region)
        if circum > Rx + 1e-9:
            raise DomainError(f"test set of circumradius {circum:.3g} exceeds R(x)={Rx:.3g}")
        res = dirichlet_ground_energy(model, region, h)
        vol = region_volume(model, region)
        rhs = a * vol ** (-2.0 / model.dim)
        margin = res.value - rhs
        fd_tol = abs(res.raw[-1] - res.raw[-2]) if len(res.raw) >= 2 else 0.1 * res.value
        tol = max(tol, fd_tol + 1e-9)
        entry = {
            "region": region.describe(),
            "eigenvalue": res.value,
            "rhs": rhs,
            "margin": margin,
            "fd_gap": fd_tol,
            "converged": res.converged,
        }
        details.append(entry)
        finite = all(math.isfinite(v) for v in (res.value, rhs, margin))
        if not (finite and res.converged):
            reason = "finite differences not converged" if finite else "eigenvalue, rhs or margin is not finite"
            inconclusive.append({**entry, "reason": reason})
        worst = min(worst, margin if finite else -math.inf)  # min(inf, nan) would be inf
    return FaberKrahnReport(worst, tol, inconclusive, details)


def _region_circumradius(model: ManifoldModel, x: Point, region) -> float:
    if isinstance(region, BallWindow):
        return geom.distance(model, x, region.center) + region.radius
    if isinstance(region, BoxWindow):
        corner = float(np.linalg.norm(np.asarray(region.halfwidth)))
        return geom.distance(model, x, region.center) + corner
    raise DomainError(f"unsupported region {region!r}")


@dataclass
class HeatBoundReport:
    c_hat: float
    chain_margin: float
    sweep: dict


def control_pair_from_faber_krahn(
    fk: FaberKrahnControlPair,
    engine: hk.HeatKernelEngine,
    t_values: Sequence[float] | None = None,
) -> tuple[KatoControlPair, HeatBoundReport]:
    """Empirical constant for sup_y p <= C a^{-m/2} min(t, R(x)^2)^{-m/2}, then
    the induced pair (C a^{-m/2} R^{-m}, t^{-m/2} sup R^m + 1)."""
    model = engine.model
    m = model.dim
    ts = np.asarray(t_values if t_values is not None else np.logspace(-3, 0.5, 40), dtype=float)
    xs = [geom.base_point(model)]
    a = fk.a
    c_hat = hk.heat_bound_constant(engine, fk.radius_fn, a, ts, xs)
    sup_R = max(fk.radius_fn(x) for x in xs)
    chain = math.inf
    for t in ts:
        for x in xs:
            Rx = fk.radius_fn(x)
            lhs = min(float(t), Rx * Rx) ** (-m / 2.0)
            mid = float(t) ** (-m / 2.0) + Rx ** (-m)
            rhs = Rx ** (-m) * (float(t) ** (-m / 2.0) * sup_R**m + 1.0)
            chain = min(chain, mid - lhs, rhs - mid)

    def space_factor(ys):
        return np.array([c_hat * a ** (-m / 2.0) * fk.radius_fn(Point(y)) ** (-m) for y in ys])

    pair = KatoControlPair(
        model,
        space_factor=space_factor,
        time_factor=lambda t, m=m, s=sup_R: float(t) ** (-m / 2.0) * s**m + 1.0,
        description=f"Faber-Krahn induced pair, empirical C={c_hat:.12g} (a={a:.6g})",
        constants={"C_hat": c_hat, "a": a, "sup_R": sup_R},
    )
    pair = with_certificates(pair, default_qs(m))
    report = HeatBoundReport(
        c_hat,
        chain,
        {"t_min": float(ts.min()), "t_max": float(ts.max()), "n_t": int(ts.size), "n_x": len(xs)},
    )
    return pair, report
