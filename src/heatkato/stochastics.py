"""Brownian motion on the model manifolds and path-functional estimators.

Sampling scheme: the geodesic random walk (Gaussian tangent step of metric
covariance h, pushed through the exponential map), the only one offered.  On
the flat models the increments are exact in distribution; on
Sphere2/Hyperbolic3 the walk has weak order one, which the 4-sigma testing
budgets absorb.

Every built-in model is stochastically complete: no path explodes before the
horizon, so ensembles record no explosion times and the estimators need no
survival indicator.  The kernel's mass (``heat_kernel.kernel_mass``) is where a mass
defect would show.

Reproducibility contract: path i draws from Philox keyed by (seed, i)
(``path_generator``), so results are bit-identical for any block partitioning
or worker count, with a fixed (pairwise/blockwise) reduction order for all
estimators.  The sampler does not build a generator per path: one Philox per
block is re-keyed to (seed, i) with counter 0 and an empty buffer, which
yields the same draws.  A flat walk recorded at only some steps draws the
first len(record_idx) x tangent_dim normals of path i's stream, one per
recorded interval and axis: n steps of N(0, h) sum to one N(0, n h) draw
(the random-walk construction), so the law is the same and the cost follows
the records, not the steps.  Every curved walk, and every flat walk recorded
at every step, draws one normal per step and axis.  A flat walk draws
into its output rows; a curved walk's normals go to one buffer of at most
_BLOCK_BYTES (at least one path), filled a few paths at a time; per-path
streams make that split invisible in the output.

Paths are stored in the model's chart, wrapped into it after a flat walk
(on the circle, ``torus:1:2pi``, each row is one angle in [0, 2 pi)).

Path functionals: Feynman-Kac and the exponential Kato estimate integrate w
along paths by one routine (``_path_integrals``), a block of paths at a
time, at most _INTEGRAL_ROWS path rows (about 1 MiB of temporaries, so a
block stays in cache).  Each block is evaluated on the stored rows
(``potentials.capped_values``), and a path's trapezoid does not depend on
its neighbours, so the split is invisible too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import geometry as geom
from . import heat_kernel as hk
from . import potentials as pot
from .errors import DomainError, UnsupportedModelError
from .geometry import ManifoldModel, Point, Product

_MAX_STORE_BYTES = 600_000_000
# normals a walk may draw: about 25 s of Philox draws alone on a 2-core
# host, 33 times the largest benchmark walk (3e7 normals on sphere2)
_MAX_NORMALS = 1_000_000_000
# the normals buffer that drives a block of curved paths
_BLOCK_BYTES = 1 << 24
# path rows _path_integrals evaluates at once: about 1 MiB at two floats a row,
# so a block's temporaries stay in cache (512 KiB and 1 MiB blocks ran fastest)
_INTEGRAL_ROWS = 1 << 16
_CAPPED_WARNING = 0.01  # capped-path fraction above which a path estimate is flagged unreliable
_FOUR_SIGMA_TAIL = 6.33e-5  # P(|Z| > 4) for a standard normal Z
_U64 = 0xFFFFFFFFFFFFFFFF


def _is_flat(model: ManifoldModel) -> bool:  # read by bench/tracer.py; the package reads model.flat
    return model.flat


def path_generator(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based stream for one path, independent of any partitioning."""
    key = np.array([seed & _U64, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class PathEnsemble:
    model: ManifoldModel
    start: Point
    step: float
    horizon: float
    n_paths: int
    seed: int
    record_times: np.ndarray  # actual recorded times (multiples of step)
    positions: np.ndarray  # (n_paths, n_records, chart_dim)
    step_warning: bool
    full: bool

    def chart_at(self, time_index: int) -> np.ndarray:
        return self.positions[:, time_index, :]

    def time_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.record_times - t)))
        if abs(self.record_times[idx] - t) > 1e-9 + 1e-9 * abs(t):
            raise DomainError(f"time {t} was not recorded (nearest {self.record_times[idx]})")
        return idx

    def truncated(self, t: float) -> "PathEnsemble":
        """Prefix of the ensemble up to recorded time t (paths are shared)."""
        idx = self.time_index(t)
        return PathEnsemble(
            self.model, self.start, self.step, float(self.record_times[idx]), self.n_paths,
            self.seed, self.record_times[: idx + 1], self.positions[:, : idx + 1, :],
            self.step_warning, self.full,
        )

    def project(self, leaf_index: int) -> "PathEnsemble":
        """Ensemble of the projected paths on one product factor."""
        model = self.model
        if not isinstance(model, Product):
            raise UnsupportedModelError("projection needs a product ensemble")
        leaf, off = pot.leaves(model)[leaf_index]
        cols = slice(off, off + leaf.chart_dim)  # a view of the stored paths, not a copy
        return PathEnsemble(
            leaf, Point(self.start.coords[cols]), self.step, self.horizon, self.n_paths, self.seed,
            self.record_times, self.positions[:, :, cols], self.step_warning, self.full,
        )


def _fill_normals(seed: int, i0: int, z: np.ndarray) -> None:
    """Fill row j of z with ``path_generator(seed, i0 + j).standard_normal(z[j].shape)``.

    One Philox is re-keyed per path (key (seed, i), counter 0, empty buffer)
    instead of one being built per path, which also reads os.urandom for a
    seed sequence it never uses."""
    key = np.array([seed & _U64, i0], dtype=np.uint64)
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    for j in range(len(z)):
        key[1] = i0 + j
        bitgen.state = state
        gen.standard_normal(out=z[j])


def _block_paths(model, start_path, n_steps, h, seed, i0, i1, record_idx, out):
    """Paths i0..i1-1 at the recorded step indices, written to ``out``: a flat
    walk's normals are drawn into ``out`` itself, a curved walk's into a
    buffer (the module docstring's reproducibility contract)."""
    if model.flat:
        if len(record_idx) == n_steps + 1:
            out[:, 0, :] = 0.0
            z, scale = out[:, 1:, :], math.sqrt(h)
        else:  # the interval before a t = 0 record has length 0
            z, scale = out, np.sqrt(np.diff(record_idx, prepend=0) * h)[:, None]
        _fill_normals(seed, i0, z)
        z *= scale
        np.cumsum(z, axis=1, out=z)
        out += start_path
        model.wrap_path(out)
        return
    rows = min(i1 - i0, max(1, _BLOCK_BYTES // (8 * n_steps * model.tangent_dim)))
    buf = np.empty((rows, n_steps, model.tangent_dim))
    for a in range(i0, i1, rows):
        b = min(a + rows, i1)
        _fill_normals(seed, a, buf[: b - a])
        model.random_walk(start_path, buf[: b - a], h, record_idx, out[a - i0 : b - i0])


def step_count(t: float, h: float) -> int:
    """Number of steps of a walk to horizon t at nominal step h; the step
    taken is t / step_count(t, h)."""
    if not (math.isfinite(t) and t > 0.0 and math.isfinite(h) and h > 0.0 and math.isfinite(t / h)):
        raise DomainError(f"horizon t and step h must be positive with a finite t / h, got t={t}, h={h}")
    return max(1, int(round(t / h)))


def walk_problem(
    model: ManifoldModel, n_steps: int, full: bool, n_paths: int = 0, n_records: int = 0, held: bool = True
) -> str | None:
    """Why a walk of n_paths paths of n_steps steps cannot be sampled, or
    None, decided before anything is allocated or drawn. A curved walk holds
    a path's normals at once, and a walk recorded at every step (``full``)
    its n_steps + 1 rows; either over _MAX_STORE_BYTES is refused.  So is an
    ensemble ``held`` whole, as ``simulate`` holds it, whose record (n_records
    rows a path; n_steps + 1 when ``full``) would be, and any walk drawing
    more than _MAX_NORMALS normals: n_records a path and axis on a flat walk
    not ``full``, n_steps otherwise."""
    need = 8 * max((n_steps + 1) * model.chart_dim if full else 0, 0 if model.flat else n_steps * model.tangent_dim)
    if need > _MAX_STORE_BYTES:
        return f"one path of {n_steps:,} steps would need {need / 1e9:.3g} GB; take a larger step h"
    need = 8 * n_paths * (n_steps + 1 if full else n_records) * model.chart_dim
    if held and need > _MAX_STORE_BYTES:
        return f"ensemble would need {need / 1e9:.1f} GB; take fewer paths, a larger step h or coarser record_times"
    draws = n_paths * (n_records if model.flat and not full else n_steps) * model.tangent_dim
    if draws > _MAX_NORMALS:
        return (f"walk would draw {draws:.3g} normals, over the budget of {_MAX_NORMALS:.0e}; "
                "take fewer paths or a larger step h")
    return None


def simulate(
    model: ManifoldModel,
    start: Point,
    t: float,
    h: float,
    N: int,
    seed: int,
    record_times: Sequence[float] | None = None,
    block_size: int = 4096,
) -> PathEnsemble:
    """Sample N Brownian paths up to horizon t with step h.

    ``record_times=None`` records every step (needed by feynman_kac); pass a
    coarse list for large-N distribution checks.
    """
    n_steps = step_count(t, h)
    if h > t:
        raise DomainError("step must not exceed the horizon")
    if N < 1:
        raise DomainError("need at least one path")
    h_eff = t / n_steps
    full = record_times is None
    if not full:
        record_idx = sorted({int(round(tt / h_eff)) for tt in record_times} | {n_steps})
        if any(i < 0 or i > n_steps for i in record_idx):
            raise DomainError("record times must lie within the horizon")
    if problem := walk_problem(model, n_steps, full, N, 0 if full else len(record_idx)):
        raise DomainError(problem)
    geom.make_point(model, start.coords)
    warning = bool(not model.flat and h_eff > 0.01)
    record_idx = np.arange(n_steps + 1) if full else np.array(record_idx, dtype=int)
    start_path = start.coords.copy()
    positions = np.empty((N, len(record_idx), model.chart_dim))
    for i0 in range(0, N, block_size):
        i1 = min(i0 + block_size, N)
        _block_paths(model, start_path, n_steps, h_eff, seed, i0, i1, record_idx, positions[i0:i1])
    return PathEnsemble(
        model, start, h_eff, t, N, seed,
        record_times=record_idx * h_eff,
        positions=positions,
        step_warning=warning,
        full=full,
    )


# ---------------------------------------------------------------------------
# finite-dimensional distributions


@dataclass
class FddReport:
    times: list
    mc_values: list
    quad_values: list
    std_errors: list
    z_scores: list

    @property
    def max_abs_z(self) -> float:
        return max(abs(z) if math.isfinite(z) else math.inf for z in self.z_scores)


def _fdd_grid(model: ManifoldModel, start: Point, t_max: float):
    eng = hk.make_engine(model)
    if model.compact:
        return eng, geom.build_grid(model, model.compact_resolution, geom.FullWindow())
    radius = model.kernel_reach(t_max) + 1.0
    h = radius / 60.0
    return eng, geom.build_grid(model, h, geom.BallWindow(start, radius))


def fdd_check(
    ensemble: PathEnsemble,
    times: Sequence[float],
    test_functions: Sequence[Sequence[Callable[[np.ndarray], np.ndarray]]],
) -> FddReport:
    """Monte-Carlo averages of f_1(X_{t_1}) ... f_l(X_{t_l}) against nested
    heat-kernel quadrature; each entry of test_functions is one (f_1 .. f_l)
    tuple of chart-coordinate callables."""
    times = [float(t) for t in times]
    if sorted(times) != times or len(times) < 1:
        raise DomainError("times must be increasing")
    idxs = [ensemble.time_index(t) for t in times]
    model = ensemble.model
    eng, grid = _fdd_grid(model, ensemble.start, max(times))
    charts = [ensemble.chart_at(i) for i in idxs]
    mc_vals, quads, errs, zs = [], [], [], []
    for fs in test_functions:
        if len(fs) != len(times):
            raise DomainError("one test function per time")
        prod = np.ones(ensemble.n_paths)
        for f, ch in zip(fs, charts):
            prod = prod * np.asarray(f(ch), dtype=float)
        mc = float(np.mean(prod))
        quad_val = _nested_kernel_expectation(eng, grid, ensemble.start, times, fs)
        n = ensemble.n_paths
        if n > 1:
            se = float(np.std(prod, ddof=1) / math.sqrt(n))
            z = (mc - quad_val) / se if se > 0 else 0.0  # se = 0: a constant, averaged exactly
        else:
            se = z = math.nan  # one sample: no standard error, and max_abs_z fails every bound
        mc_vals.append(mc)
        quads.append(quad_val)
        errs.append(se)
        zs.append(z)
    return FddReport(times, mc_vals, quads, errs, zs)


def _nested_kernel_expectation(eng, grid, start: Point, times, fs) -> float:
    # successive kernel transports: vector over grid nodes, chained backwards
    nodes = grid.node_coords
    weights = grid.weights
    vec = np.asarray(fs[-1](nodes), dtype=float)
    for j in range(len(times) - 1, 0, -1):
        dt = times[j] - times[j - 1]
        carried = np.empty(grid.size)
        chunk = max(1, 2_000_000 // grid.size)
        for a in range(0, grid.size, chunk):
            b = min(a + chunk, grid.size)
            K = np.stack([hk.eval_grid(eng, dt, nodes[i], grid) for i in range(a, b)])
            carried[a:b] = K @ (weights * vec)
        vec = np.asarray(fs[j - 1](nodes), dtype=float) * carried
    p0 = hk.eval_grid(eng, times[0], start.coords, grid)
    return float(np.sum(weights * p0 * vec))


# ---------------------------------------------------------------------------
# Feynman-Kac


@dataclass
class FeynmanKacEstimate:
    value: float
    std_error: float
    n_paths: int
    capped_fraction: float
    cap_value: float
    reliability_warning: bool


def _path_integrals(
    w: pot.Potential, positions: np.ndarray, h: float, steps: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Trapezoid integrals of w along paths recorded at every step h.

    ``positions`` is (N, R, chart_dim).  With ``steps`` None the integral runs
    over the whole path (one column, numpy's pairwise row sum); otherwise up
    to each of the step indices in ``steps`` (one column each, read off one
    running sum).  Returns (integrals (N, columns), capped-path mask (N,),
    cap).  w is evaluated on the path rows themselves
    (``potentials.capped_values`` with eps = sqrt(h)); a path is capped when
    one of its rows lies within eps of a singular set, and ``cap`` is 0 when
    none does.  The paths go a block of at most _INTEGRAL_ROWS rows at a time
    (at least one path); a path's integral does not depend on the paths
    beside it, so that split is invisible in the output."""
    N, R, _ = positions.shape
    eps = math.sqrt(h)
    integrals = np.empty((N, 1 if steps is None else len(steps)))
    capped = np.empty(N, dtype=bool)
    cap = 0.0
    rows = max(1, _INTEGRAL_ROWS // R)
    for a in range(0, N, rows):
        b = min(a + rows, N)
        vals, near, block_cap = pot.capped_values(w, positions[a:b].reshape((b - a) * R, -1), eps)
        vals = vals.reshape(b - a, R)
        capped[a:b] = near.reshape(b - a, R).any(axis=1)
        cap = max(cap, block_cap)
        if steps is None:
            integrals[a:b, 0] = h * (np.sum(vals, axis=1) - 0.5 * vals[:, 0] - 0.5 * vals[:, -1])
        else:
            cum = np.cumsum(vals, axis=1)
            for j, k in enumerate(steps):
                integrals[a:b, j] = h * (cum[:, k] - 0.5 * vals[:, 0] - 0.5 * vals[:, k])
    return integrals, capped, cap


def feynman_kac(
    ensemble: PathEnsemble,
    w: pot.Potential,
    f: Callable[[np.ndarray], np.ndarray] | None = None,
) -> FeynmanKacEstimate:
    """E[ exp(-int_0^t w(X_s) ds) f(X_t) ] by trapezoidal time integration.

    Needs a fully recorded ensemble.  Paths passing within sqrt(h) of a
    singular center contribute through a capped integrand; the capped
    fraction is reported and > 1% raises the reliability warning.
    """
    if not ensemble.full:
        raise DomainError("feynman_kac needs an ensemble recorded at every step")
    integrals, capped_paths, cap_val = _path_integrals(w, ensemble.positions, ensemble.step)
    terminal = np.ones(ensemble.n_paths)
    if f is not None:
        terminal = np.asarray(f(ensemble.chart_at(len(ensemble.record_times) - 1)), dtype=float)
    weights = np.exp(-integrals[:, 0]) * terminal
    value = float(np.mean(weights))
    stderr = float(np.std(weights, ddof=1) / math.sqrt(ensemble.n_paths))
    frac = float(np.mean(capped_paths))
    return FeynmanKacEstimate(value, stderr, ensemble.n_paths, frac, cap_val, frac > _CAPPED_WARNING)


# ---------------------------------------------------------------------------
# exponential Kato estimate


@dataclass
class KatoExponentialReport:
    t: list
    sup_estimate: list  # E[exp(int w_minus)] from the base point, per t
    stderr: list
    table: list  # per delta: {"delta": d, "C": smallest valid constant}
    overflowed: bool
    n_paths: int
    capped_fraction: float  # paths that came within sqrt(h) of a singular set, as in feynman_kac
    cap_value: float
    reliability_warning: bool


def kato_exponential_estimate(
    model: ManifoldModel,
    w_minus: pot.Potential,
    t_grid: Sequence[float],
    delta_grid: Sequence[float],
    N: int,
    h: float = 2e-3,
    seed: int = 0,
    block_size: int = 4096,
) -> KatoExponentialReport:
    """E[exp(int_0^t w_minus(X_s) ds)] from the model's base point on the
    t-grid, then for each delta > 1 the smallest C with the estimate
    <= delta * exp(t C) across the grid.  Capped paths are reported as
    ``feynman_kac`` reports them; they do not change the table."""
    ts = sorted(float(t) for t in t_grid)
    if any(t <= 0 for t in ts):
        raise DomainError("t grid must be positive")
    if any(d <= 1.0 for d in delta_grid):
        raise DomainError("delta must exceed 1")
    if N < 1:
        raise DomainError("need at least one path")
    horizon = ts[-1]
    n_steps = step_count(horizon, h)
    if problem := walk_problem(model, n_steps, True, N, held=False):
        raise DomainError(problem)
    block_size = min(block_size, _MAX_STORE_BYTES // (8 * (n_steps + 1) * model.chart_dim))
    h_eff = horizon / n_steps
    t_idx = [max(1, int(round(t / h_eff))) for t in ts]
    acc_mean = np.zeros(len(ts))
    acc_m2 = np.zeros(len(ts))
    n_capped, cap = 0, 0.0
    start_path = geom.base_point(model).coords.copy()
    for i0 in range(0, N, block_size):
        i1 = min(i0 + block_size, N)
        block = np.empty((i1 - i0, n_steps + 1, model.chart_dim))
        _block_paths(model, start_path, n_steps, h_eff, seed, i0, i1, np.arange(n_steps + 1), block)
        integrals, capped_paths, block_cap = _path_integrals(w_minus, block, h_eff, t_idx)
        n_capped += int(np.count_nonzero(capped_paths))
        cap = max(cap, block_cap)
        for j in range(len(ts)):
            ev = np.exp(integrals[:, j])
            acc_mean[j] += np.sum(ev)
            acc_m2[j] += np.sum(ev * ev)
    mean = acc_mean / N
    var = np.maximum(acc_m2 / N - mean**2, 0.0)
    err = np.sqrt(var / N)
    overflow = not np.all(np.isfinite(mean))
    table = []
    for delta in delta_grid:
        cs = [
            (math.log(mean[j]) - math.log(delta)) / ts[j]
            for j in range(len(ts))
            if np.isfinite(mean[j]) and mean[j] > 0
        ]
        table.append({"delta": float(delta), "C": max(0.0, max(cs)) if cs else math.inf})
    frac = n_capped / N
    return KatoExponentialReport(
        list(ts), [float(v) for v in mean], [float(e) for e in err], table, overflow, N,
        frac, cap, frac > _CAPPED_WARNING,
    )


# ---------------------------------------------------------------------------
# projection of Kato potentials along product projections


@dataclass
class ProjectionReport:
    lhs_quad: float
    rhs_quad: float
    defect: float
    quad_tolerance: float
    mc_value: float | None
    mc_std_error: float | None
    mc_z: float | None

    @property
    def passed(self) -> bool:
        # the Monte Carlo side must also agree with the factor smoothing within
        # 4 sigma, the fdd checks' rule; a NaN z fails
        tol = self.quad_tolerance + 3.0 * (self.mc_std_error or 0.0)
        mc_ok = self.mc_z is None or abs(self.mc_z) <= 4.0
        return mc_ok and self.lhs_quad <= self.rhs_quad + max(tol, 1e-12)


def elworthy_projection_check(
    model: ManifoldModel,
    leaf_index: int,
    w: pot.Potential,
    t: float,
    x: Point,
    N: int = 0,
    h: float = 2e-3,
    seed: int = 0,
) -> ProjectionReport:
    """Both sides of the projection bound for the canonical factor projection:
    smoothing of w o pi on the product against smoothing of w on the factor.

    The left side is ``potentials.smoothed_abs`` of the pullback on the
    product, the rule every check runs (the factor's smoothing times the
    fiber's kernel mass); the optional Monte-Carlo route estimates it from
    projected product paths.
    """
    if not isinstance(model, Product):
        raise UnsupportedModelError("projection check needs a product model")
    leaf, cols = pot.factor_of(model, leaf_index)
    leaf_eng = hk.make_engine(leaf)
    xi = Point(x.coords[cols])
    inner = pot.smoothed_abs(leaf_eng, w, t, xi)
    refined = pot.smoothed_abs(leaf_eng, w, t, xi, refinement=1)
    pulled = pot.smoothed_abs(hk.make_engine(model), pot.Pullback(model, leaf_index, w), t, x, refinement=1)
    quad_err = abs(refined.value - inner.value)
    rhs, lhs = refined.value, pulled.value
    tol = inner.tail_bound + pulled.tail_bound + 3.0 * quad_err
    mc_val = mc_err = mc_z = None
    if N > 0:
        ens = simulate(model, x, t, h, N, seed, record_times=[t])
        proj = ens.project(leaf_index)
        chart = proj.chart_at(len(proj.record_times) - 1)
        vals = np.abs(pot.evaluate_many(w, chart))
        ok = np.isfinite(vals)
        n_ok = int(ok.sum())
        mc_val = float(np.mean(vals[ok]))
        mc_err = float(np.std(vals[ok], ddof=1) / math.sqrt(n_ok))
        # NaN when fewer than two sampled values are finite
        mc_z = (mc_val - rhs) / mc_err if mc_err > 0 else math.nan
        sup_w = pot.sup_abs(w)
        if mc_err == 0 and 0.0 < sup_w < math.inf:
            # all sampled values equal, so no z-score: Hoeffding's bound for values
            # in [0, sup|w|] at the two-sided 4-sigma level is scaled to |mc_z| = 4
            mc_z = 4.0 * (mc_val - rhs) / (sup_w * math.sqrt(math.log(2.0 / _FOUR_SIGMA_TAIL) / (2.0 * n_ok)))
        elif mc_err == 0:  # no bound on the values: match within the quadrature tolerance
            mc_z = 0.0 if abs(mc_val - rhs) <= max(tol, 1e-12) else math.inf
    return ProjectionReport(lhs, rhs, lhs - rhs, tol, mc_val, mc_err, mc_z)
