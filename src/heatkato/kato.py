"""Kato functional, Kato-class verdicts, Hoelder bounds and control pairs.

All verdicts produced here are numerical evidence from finite sweeps, never
proofs; every report records the sweep and its tolerances.

This module imports no scipy: ``is_kato`` bounds its short-time remainder by a
closed-form integral of the on-diagonal pair's time factor, and every other
integral is one of ``quadrature``'s fixed rules.  Lighter commands never load
this module: kernel smoothing (``smoothed_abs``) lives in ``potentials``, the
Faber-Krahn constant and its finite-difference check in ``mvi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from . import geometry as geom
from . import heat_kernel as hk
from . import potentials as pot
from . import quadrature as qd
from .errors import DomainError, UnsupportedModelError
from .geometry import BallWindow, Euclidean, ManifoldModel, Point, QuadratureGrid
from .geometry import quad  # unused here: the benchmark's tracer wraps it at this address
from .mvi import dirichlet_ground_energy  # unused here: the benchmark's tracer wraps it at this address
from .potentials import smoothed_abs
from .reporting import Judged, worst_of


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
    reason: str | None = None  # "<quantity> is NaN" for a NaN margin


def verify_control_pair(
    engine: hk.HeatKernelEngine,
    pair: KatoControlPair,
    t_values: Sequence[float],
    x_samples: Sequence[Point],
) -> PairVerification:
    """Margins space(x)*time(t) - sup_y p(t,x,y) over the sweep.

    The sup over y is the on-diagonal value for every built-in model (the
    kernels are radially decreasing; checked independently by sup_bound)."""
    details, margins = [], {}
    spaces = [_space_at(pair, x) for x in x_samples]
    if not all(0.0 < t <= 1.0 for t in t_values):
        raise DomainError("control pairs are calibrated on (0, 1]")
    for t, supval in hk.on_diag_sweep(engine, t_values):
        for space in spaces:
            bound = space * pair.time_factor(t)
            margin = bound - supval
            details.append({"t": t, "margin": margin})
            margins.setdefault(f"margin at t={t:g}", []).append(margin)
    worst, reason = worst_of(min, math.inf, margins)
    return PairVerification(worst, len(details), details, reason)


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
    C5, _ = worst_of(max, 0.0, {"C5": (diag * vol1 * t ** (m / 2.0) for t, diag in hk.on_diag_sweep(engine, ts))})
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


def _center_and_offsets(w: pot.Potential, model: ManifoldModel, offsets, xs=None) -> list[Point]:
    """The potential's center (or the points xs), then one point per offset
    from the first along the first axis, then every point singular center
    of w, less any point within 1e-12 of an earlier one (on a torus of
    period 1 the offsets 0.5 and 1.5 reach one point).  N(t) is a sup over
    x, and an atom is largest at its own center; a pullback's center is the
    base point with its factor's columns replaced."""
    xs = [pot.center_of(w, model)] if xs is None else list(xs)
    xs += [geom.exp_map(model, xs[0], off * np.eye(model.tangent_dim)[0]) for off in offsets]
    for s in pot.singularities(w):
        if s.pair_cols is None:
            c = geom.base_point(model).coords.copy()
            c[s.cols] = s.center.coords
            xs.append(Point(c))
    out = []
    for x in xs:
        if all(geom.distance(model, x, y) > 1e-12 for y in out):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# the Kato functional N(t) and is_kato verdicts


@dataclass
class KatoFunctionalCurve:
    t_values: np.ndarray  # decreasing
    values: np.ndarray
    tail_bounds: np.ndarray  # short-time remainder + quadrature tails
    diverges: bool


@dataclass
class KatoVerdict(Judged):
    label: str  # always "numerical evidence"
    gamma: float  # power-law fit N(t) ~ c t^gamma
    decay_ratio: float
    reasons: list
    threshold_ratio: float
    gamma_min: float

    criteria = property(lambda self: {"decay ratio": (self.threshold_ratio - self.decay_ratio, 0.0),
                                      "fitted exponent": (self.gamma - self.gamma_min, 0.0)})


def _s_breaks(t: float, s_min: float) -> np.ndarray:
    if t <= s_min:
        return np.array([])
    k = max(1, int(math.ceil(math.log2(t / s_min))))
    pts = [t * 2.0 ** (-j) for j in range(k + 1)]
    pts = [max(p, s_min) for p in pts]
    pts.append(s_min)
    return np.array(sorted(set(pts)))


def _inner_divergent(w: pot.Potential, cap: float = math.inf) -> bool:
    """A point singularity of w with beta >= min(m, cap), m its model's
    dimension: with cap inf, p(s, x, .)|w| is not integrable at it; with
    cap 2, the classical h_m-weighted integral (beta + m - 2 >= m for
    m >= 2, and beta >= 1 = m for the windowed-L^1 case m = 1)."""
    return any(s.beta >= min(s.model.dim, cap) for s in pot.singularities(w) if s.pair_cols is None)


def kato_functional(
    engine: hk.HeatKernelEngine,
    w: pot.Potential,
    t: float,
    x_grid: Sequence[Point],
    s_min: float = 1e-6,
) -> float:
    """max over the x-grid and w's singular centers of
    int_0^t int p(s,x,y) |w(y)| dmu(y) ds.

    The s-integral uses geometric (dyadic) subdivision down to s_min (the
    ladder ``is_kato`` sweeps, for one t); the remainder over (0, s_min) is
    bounded through a control pair and included in the returned value.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    rem = _short_time_remainder(engine, w, s_min)
    if _inner_divergent(w) or not math.isfinite(rem):
        return math.inf + rem
    xs = _center_and_offsets(w, engine.model, (), x_grid)
    core, _ = worst_of(max, 0.0, {"N(t)": (float(_kato_ladder(engine, w, [t], x, s_min)[0][0]) for x in xs)})
    return core + rem


def _sweep_breaks(ts, s_min: float) -> np.ndarray:
    """One dyadic ladder for a sweep of t > s_min: _s_breaks(max(ts), s_min)
    with every t inserted as a break.  Under each t it has at least the cells
    of _s_breaks(t, s_min)."""
    return np.union1d(_s_breaks(float(np.max(ts)), s_min), ts)


def _kato_ladder(engine, w, ts, x, s_min):
    """(N(t) over [s_min, t], quadrature tail allowance) at x for every t in
    ts, read off _sweep_breaks: |w| is smoothed once on the ladder's nodes,
    and N(t) is the quadrature over the nodes below t.  For one t the ladder
    is _s_breaks(t, s_min), which is how kato_functional uses it (no cell,
    so 0, when t <= s_min)."""
    breaks = _sweep_breaks(ts, s_min)
    s_nodes, s_weights = qd.gl_nodes(breaks)
    sv = smoothed_abs(engine, w, s_nodes, x)
    ends = np.searchsorted(s_nodes, ts)  # t is a break: the nodes below it
    values = np.array([s_weights[:m] @ sv.value[:m] for m in ends])
    tails = np.array([s_weights[:m] @ sv.tail_bound[:m] for m in ends])
    return values, tails


def _short_time_remainder(engine, w, s_min):
    """Bound for int_0^{s_min} of the smoothed potential: s_min * sup|w| when w
    is bounded, otherwise the windowed L^q norm against the control pair (with
    q chosen to minimize the bound) plus the outside sup times s_min.  For
    w = u o pi pulled back through one factor it is u's bound on the factor,
    since the fibers carry kernel mass at most 1."""
    if s_min <= 0:
        return 0.0
    if (pulled := pot.pulled_back(w, engine.model)) is not None:
        return _short_time_remainder(hk.make_engine(pulled[0]), pulled[2], s_min)
    model = engine.model
    m = model.dim
    sup_w = pot.sup_abs(w)
    if math.isfinite(sup_w):
        return s_min * sup_w
    control = control_pair_from_on_diag(engine)
    sings = [s for s in pot.singularities(w) if s.pair_cols is None]
    beta_max = max((s.beta for s in sings), default=0.0)
    if m == 1:
        # q = 1 and midway to 1 / beta_max, past which |w|^q is not integrable
        q_candidates = [1.0] + ([0.5 * (1.0 + 1.0 / beta_max)] if beta_max > 0 else [])
    else:
        # bounds improve toward the upper endpoint until the norm blows up;
        # with hi <= m/2 no candidate is admissible
        hi = m / beta_max if beta_max > 0 else m / 2.0 + 4.0
        q_candidates = [m / 2.0 + f * (hi - m / 2.0) for f in (0.3, 0.5, 0.7, 0.85, 0.95)]
    q_candidates = [q for q in q_candidates if admissible_q(m, q) and beta_max * q < m]
    if not q_candidates:
        return math.inf  # no admissible q gives a finite weighted norm
    center = pot.center_of(w, model)
    R = 3.0
    if model.compact:
        grid = pot._shared_grid(model, model.compact_resolution, None, 0.0)
        windowed = w
        sup_out = 0.0
    else:
        grid = pot._shared_grid(model, R / 60.0, tuple(center.coords), R, 8)
        windowed = pot.Windowed(model, w, BallWindow(center, R))
        sup_out = pot.sup_abs(w, outside=(center, R))
    best = math.inf
    for wq in pot.lq_norm(windowed, q_candidates, control.space_factor, grid):
        if wq.diverges:
            continue
        # the on-diagonal pair's time factor is s^(-m/2), so with a = m/(2q) < 1
        # int_0^1 time(s_min u)^(1/q) du = s_min^(-a) / (1 - a)
        a = m / (2.0 * wq.q)
        best = min(best, wq.value * s_min * (s_min ** -a / (1.0 - a)) + s_min * sup_out)
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
    tails).  One ladder serves the sweep (``_sweep_breaks``): |w| is smoothed
    once per x-sample on its nodes and every N(t) is the quadrature over its
    nodes below t; the x-sample with the largest N(t_max) gives the curve.
    The x-samples are w's center, two offsets from it and every singular
    center of w.  Every t must exceed s_min.  An infinite short-time
    remainder FAILs.  PASS requires clear decay of the estimates:
    N(t_min) below threshold_ratio * N(t_max) and a positive fitted exponent.
    The verdict is numerical evidence only, never a proof.
    """
    ts = np.asarray(sorted(set(float(t) for t in t_sequence), reverse=True), dtype=float)
    if ts.size < 2:
        raise DomainError("need at least two t values")
    if ts[-1] <= s_min:
        raise DomainError(f"every t must exceed s_min = {s_min:g}: N(t) integrates s over [s_min, t]")
    model = engine.model
    rem = _short_time_remainder(engine, w, s_min)
    if _inner_divergent(w) or not math.isfinite(rem):
        # no admissible q puts |w| in L^q, so nothing bounds N(t) near s = 0
        curve = KatoFunctionalCurve(ts, np.full(ts.size, math.inf), np.full(ts.size, math.inf), True)
        reasons = ["N(t) = inf: no finite L^q bound"]
        return curve, KatoVerdict("numerical evidence", 0.0, math.inf, reasons, threshold_ratio, gamma_min)
    x_samples = _center_and_offsets(w, model, (0.5, 1.5))
    # rank the x-samples by N(t_max) and keep the winner's curve
    curves = [_kato_ladder(engine, w, ts, x, s_min) for x in x_samples]
    values, tails = max(curves, key=lambda c: c[0][0])
    tails = tails + rem
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
    reasons = []  # the failed criteria
    if diverges:
        reasons.append("functional not finite on the sweep")
    else:
        if ratio > threshold_ratio:
            reasons.append(f"N(t_min)/N(t_max)={ratio:.3g} above threshold {threshold_ratio}")
        if gamma < gamma_min:
            reasons.append(f"fitted exponent {gamma:.3g} below {gamma_min}")
    result = KatoVerdict("numerical evidence", gamma, ratio, reasons, threshold_ratio, gamma_min)
    if result.passed:
        reasons.append(f"decay ratio {ratio:.3g}, fitted exponent {gamma:.3g}")
    return curve, result


# ---------------------------------------------------------------------------
# Hoelder / weighted-L^q bound check


@dataclass
class HolderReport(Judged):
    q: float
    min_margin: float
    tolerance: float
    rhs_divergent: bool
    n_samples: int

    @property
    def criteria(self) -> dict:  # none where the right side diverges: the bound holds trivially
        return {} if self.rhs_divergent else {f"margin at q={self.q:g}": (self.min_margin, self.tolerance)}


def holder_bound_check(
    engine: hk.HeatKernelEngine,
    control: KatoControlPair,
    w: pot.Potential,
    q: float | Sequence[float],
    s_samples: Sequence[float],
    x_samples: Sequence[Point],
    grid: QuadratureGrid | None = None,
) -> HolderReport | list[HolderReport]:
    """min over samples of RHS - LHS for
    int p(s,x,y)|w(y)| dmu <= time(s)^{1/q} (int |w|^q space dmu)^{1/q}.

    ``q`` is one exponent (one report back) or a sequence of them (a list
    back, one report per q).  The left side does not depend on q: the norms
    of every q come from one ``lq_norm`` call and |w| is smoothed once per
    x-sample for all of them, so each report equals that of its own call.

    Without a ``grid`` the norm takes ``potentials._norm_grid``: the
    kernel-reach y-grid cut one radial cell past w's support and excision
    band.  The cut keeps every node the norm reads, at the same indices, so
    each norm equals the whole grid's to the bit."""
    model = engine.model
    qs = [q] if np.ndim(q) == 0 else list(q)
    for qk in qs:
        require_admissible(model.dim, qk)
    norm_grid = grid or pot._norm_grid(engine, w, max(s_samples), list(x_samples))
    norms = pot.lq_norm(w, qs, control.space_factor, norm_grid)
    reports = [HolderReport(qk, math.inf, 0.0, True, 0) for qk in qs]
    finite = [j for j, wq in enumerate(norms) if not wq.diverges]
    if finite:
        ss = np.asarray(s_samples, dtype=float)
        if not np.all((ss > 0.0) & (ss <= 1.0)):
            raise DomainError("the bound is calibrated for s in (0, 1]")
        times = [control.time_factor(float(s)) for s in ss]
        rhs = {j: np.array([tf ** (1.0 / qs[j]) for tf in times]) * norms[j].value for j in finite}
        worst = dict.fromkeys(finite, math.inf)
        tail_worst = 0.0
        for x in x_samples:
            sv = smoothed_abs(engine, w, ss, x, grid=grid)
            for j in finite:
                # a NaN margin stays NaN: min over [nan, ...] keeps its first element
                worst[j], _ = worst_of(min, worst[j], {"margin": (rhs[j] - sv.value).tolist()})
            tail_worst, _ = worst_of(max, tail_worst, {"tail bound": sv.tail_bound.tolist()})
        tol, _ = worst_of(max, 1e-8, {"tolerance": [10.0 * tail_worst]})
        for j in finite:
            reports[j] = HolderReport(qs[j], worst[j], tol, False, ss.size * len(x_samples))
    return reports[0] if np.ndim(q) == 0 else reports


# ---------------------------------------------------------------------------
# classical Euclidean characterization weights


def h_weight(m: int, r) -> np.ndarray:
    """h_2 = log+(1/r); h_m = r^{2-m} for m > 2."""
    r = np.asarray(r, dtype=float)
    if m == 2:
        with np.errstate(divide="ignore"):
            return np.maximum(np.log(1.0 / np.maximum(r, 1e-300)), 0.0)
    return np.maximum(r, 1e-300) ** (2.0 - m)


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
    if _inner_divergent(w, 2.0):
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
    if _inner_divergent(w, 2.0):
        return rs, np.full(rs.size, math.inf), False
    xs = _center_and_offsets(w, model, (0.5,))
    vals = np.array([classical_kato_functional(model, w, float(r), xs) for r in rs])
    if not np.all(np.isfinite(vals)) or vals[0] <= 0:
        return rs, vals, bool(np.allclose(vals, 0.0))
    return rs, vals, bool(vals[-1] / vals[0] <= 0.25)


# ---------------------------------------------------------------------------
# Faber-Krahn control pairs


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
