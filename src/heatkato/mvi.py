"""Parabolic L^q mean value inequality sweeps, the induced heat bound, and the
Faber-Krahn constant a that both take.

Test solutions are heat-kernel columns u(s, y) = p(s, y, y0): they are exact
nonnegative solutions of the heat equation, so no PDE solver enters and every
cell ratio is pure quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geom
from . import heat_kernel as hk
from . import quadrature as qd
from .errors import DomainError, UnsupportedModelError
from .geometry import Euclidean, ManifoldModel, Point


def faber_krahn_constant(m: int) -> float:
    """Sharp constant for -(1/2) Laplace with Dirichlet conditions: equality on
    balls, min spec(H_U) >= a vol(U)^{-2/m}."""
    j = _first_bessel_zero(m / 2.0 - 1.0)
    return 0.5 * j * j * geom._omega(m) ** (2.0 / m)


def _first_bessel_zero(nu: float) -> float:
    """First positive zero j of J_nu, nu = m/2 - 1.  scipy is imported only
    for the orders without a closed form."""
    if nu == -0.5:
        return math.pi / 2.0  # J_{-1/2}(x) is a multiple of cos(x) / sqrt(x)
    if nu == 0.5:
        return math.pi  # J_{1/2}(x) is a multiple of sin(x) / sqrt(x)
    from scipy.special import jn_zeros, jv

    if nu == int(nu):
        return float(jn_zeros(int(nu), 1)[0])
    from scipy.optimize import brentq

    # half-integer order: J_nu > 0 on (0, j) and j > nu; bracket the first sign change
    lo = nu
    while jv(nu, lo + 0.5) > 0.0:
        lo += 0.5
    return brentq(lambda x: jv(nu, x), lo, lo + 0.5, xtol=1e-15, rtol=4 * np.finfo(float).eps)


@dataclass(frozen=True)
class MviSweepConfig:
    model: ManifoldModel
    center: Point
    radius: float
    a: float  # Faber-Krahn constant for balls inside B(center, radius)
    tau_values: tuple  # in (0, r^2]
    t_values: tuple  # each >= the tau it is paired with
    q_values: tuple  # in [1, 2]
    source_offsets: tuple = (0.0, 0.5, 2.0)  # d(x, y0) in units of the radius

    def __post_init__(self):
        if not isinstance(self.model, Euclidean) or self.model.dim not in (2, 3):
            raise UnsupportedModelError("the sweep runs on Euclidean(2) or Euclidean(3)")
        r2 = self.radius * self.radius
        if any(not 0.0 < tau <= r2 for tau in self.tau_values):
            raise DomainError("tau values must lie in (0, r^2]")
        if any(not 1.0 <= q <= 2.0 for q in self.q_values):
            raise DomainError("q values must lie in [1, 2]")
        if any(t < min(self.tau_values) for t in self.t_values):
            raise DomainError("t values must be >= tau")


@dataclass
class MviReport:
    c_emp: float
    n_cells: int
    drift: float  # relative change of c_emp under quadrature refinement
    stable: bool
    worst_cell: dict
    sweep: dict


def _cylinder_integral(engine, x, y0, t, tau, qs, radius, n_s, max_cell_scale):
    """integral over [t-tau, t] x B(x, r) of p(s, y, y0)^q dmu(y) ds, one per q.

    One two-point rule serves every (q, s-node) pair; p^q is its batched side."""
    model = engine.model
    d = geom.distance(model, x, y0)
    s_nodes, s_weights = qd.gl_nodes(np.linspace(t - tau, t, n_s + 1))
    s_nodes = np.maximum(s_nodes, 1e-12)
    q = np.asarray(qs, dtype=float)

    def kernel_powers(r):  # row i * len(s_nodes) + j is p(s_j, .)^(q_i)
        return (hk.eval_radial_rows(engine, s_nodes, r)[None] ** q[:, None, None]).reshape(q.size * s_nodes.size, -1)

    inner = qd.two_point_integral(
        model,
        lambda r: (np.asarray(r, float) <= radius).astype(float),
        kernel_powers,
        d,
        radius,
        f_scale=radius / 8.0,
        g_scale=np.maximum(np.sqrt(s_nodes[None, :] / q[:, None]), 1e-4).ravel() * max_cell_scale,
    )
    return inner.reshape(q.size, s_nodes.size) @ s_weights


def mvi_sweep(config: MviSweepConfig) -> MviReport:
    """Empirical constant sup over cells of
    u(t,x)^q a^{m/2} tau^{1+m/2} / integral of u^q over the backward cylinder.

    The sweep is repeated at doubled quadrature resolution; a drift above 10%
    flags the report as unstable (the bound guarantees a uniform constant, so
    drift indicates a quadrature artifact)."""
    model = config.model
    m = model.dim
    engine = hk.make_engine(model)
    x = config.center

    def run(ns: int, cell_scale: float):
        best = 0.0
        worst = {}
        count = 0
        for off in config.source_offsets:
            v = np.zeros(model.tangent_dim)
            v[0] = off * config.radius
            y0 = geom.exp_map(model, x, v)
            dxy = geom.distance(model, x, y0)
            for tau in config.tau_values:
                for t in config.t_values:
                    if t < tau:
                        continue
                    u_tx = float(hk.eval_radial(engine, t, np.array([dxy]))[0])
                    if u_tx == 0.0:
                        continue  # trivial cell: both sides vanish
                    denoms = _cylinder_integral(
                        engine, x, y0, t, tau, config.q_values, config.radius, ns, cell_scale
                    )
                    for q, denom in zip(config.q_values, denoms.tolist()):
                        if denom <= 0.0:
                            continue
                        ratio = (
                            u_tx**q
                            * config.a ** (m / 2.0)
                            * tau ** (1.0 + m / 2.0)
                            / denom
                        )
                        count += 1
                        if ratio > best:
                            best = ratio
                            worst = {"tau": tau, "t": t, "q": q, "source_offset": off, "ratio": ratio}
        return best, worst, count

    c1, worst, n_cells = run(6, 1.0)
    c2, _, _ = run(12, 0.5)
    drift = abs(c2 - c1) / max(c1, 1e-300)
    return MviReport(
        c_emp=max(c1, c2),
        n_cells=n_cells,
        drift=drift,
        stable=drift <= 0.10,
        worst_cell=worst,
        sweep={
            "tau": list(config.tau_values),
            "t": list(config.t_values),
            "q": list(config.q_values),
            "radius": config.radius,
            "a": config.a,
        },
    )


def default_config(model: ManifoldModel, a: float, radius: float = 1.0) -> MviSweepConfig:
    r2 = radius * radius
    return MviSweepConfig(
        model=model,
        center=geom.base_point(model),
        radius=radius,
        a=a,
        tau_values=(r2, r2 / 2.0, r2 / 4.0, r2 / 8.0),
        t_values=(1.25 * r2, 2.0 * r2, 4.0 * r2),
        q_values=(1.0, 1.5, 2.0),
    )


# ---------------------------------------------------------------------------
# heat bound sweep: sup_y p(t,x,y) <= C a^{-m/2} min(t, R(x)^2)^{-m/2}


@dataclass
class HeatBoundSweep:
    c_hat: float
    drift: float  # relative change under sweep doubling
    stable: bool
    sweep: dict


def heat_bound_sweep(
    engine: hk.HeatKernelEngine,
    radius_fn,
    a: float,
    t_values,
    x_samples,
) -> HeatBoundSweep:
    """Empirical C = sup p(t,x,x) a^{m/2} min(t, R(x)^2)^{m/2}, with a sweep
    doubling (denser t grid) as the stability check."""
    ts = np.asarray(sorted(float(t) for t in t_values))
    c1 = hk.heat_bound_constant(engine, radius_fn, a, ts, x_samples)
    dense = np.sort(np.concatenate([ts, np.sqrt(ts[:-1] * ts[1:])]))
    c2 = hk.heat_bound_constant(engine, radius_fn, a, dense, x_samples)
    drift = abs(c2 - c1) / max(c1, 1e-300)
    return HeatBoundSweep(
        c_hat=max(c1, c2),
        drift=drift,
        stable=drift <= 0.10,
        sweep={"t_min": float(ts.min()), "t_max": float(ts.max()), "n_t": int(ts.size), "n_x": len(x_samples)},
    )
