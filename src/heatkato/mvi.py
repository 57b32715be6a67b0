"""Parabolic L^q mean value inequality sweeps, the induced heat bound, the
Faber-Krahn constant a that both take, and its finite-difference check.

Test solutions are heat-kernel columns u(s, y) = p(s, y, y0): they are exact
nonnegative solutions of the heat equation, so no PDE solver enters and every
cell ratio is pure quadrature.  The Faber-Krahn check's Dirichlet eigenvalues
take a closed form on lattice-aligned boxes and a Lanczos recurrence in
numpy on balls; scipy, imported inside the function that calls it, solves
only 2-d balls above _FD_LANCZOS_2D folded unknowns.  The Faber-Krahn
constant's Bessel zeros are tabulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import geometry as geom
from . import heat_kernel as hk
from . import quadrature as qd
from .errors import ConvergenceError, DomainError, UnsupportedModelError
from .geometry import BallWindow, BoxWindow, Euclidean, ManifoldModel, Point, Torus
from .reporting import Judged, worst_of


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
        cells = []
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
                        cells.append({"tau": tau, "t": t, "q": q, "source_offset": off, "ratio": ratio})
        best, _ = worst_of(max, 0.0, {"C_emp": [c["ratio"] for c in cells]})
        return best, max(cells, key=lambda c: c["ratio"], default={}), len(cells)

    c1, worst, n_cells = run(6, 1.0)
    c2, _, _ = run(12, 0.5)
    drift = abs(c2 - c1) / max(c1, 1e-300)
    return MviReport(
        c_emp=worst_of(max, 0.0, {"C_emp": [c1, c2]})[0],
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
        c_hat=worst_of(max, 0.0, {"C_hat": [c1, c2]})[0],
        drift=drift,
        stable=drift <= 0.10,
        sweep={"t_min": float(ts.min()), "t_max": float(ts.max()), "n_t": int(ts.size), "n_x": len(x_samples)},
    )


# ---------------------------------------------------------------------------
# Faber-Krahn: the sharp constant and the finite-difference eigenvalue check


def faber_krahn_constant(m: int) -> float:
    """Sharp constant for -(1/2) Laplace with Dirichlet conditions: equality on
    balls, min spec(H_U) >= a vol(U)^{-2/m}."""
    if not 1 <= m <= len(_BESSEL_ZEROS):
        raise DomainError(f"dimension must be in 1..{len(_BESSEL_ZEROS)}, got {m}")
    j = _BESSEL_ZEROS[m - 1]
    return 0.5 * j * j * geom._omega(m) ** (2.0 / m)


# the first positive zero of J_{m/2 - 1} for m = 1..MAX_DIM: pi/2 and pi at
# m = 1 and 3 (J_{-1/2} and J_{1/2} are multiples of cos(x) / sqrt(x) and
# sin(x) / sqrt(x)), the others as scipy 1.17 returns them, bit for bit:
# jn_zeros at integer orders, brentq on jv at half-integer ones (m = 2 one ulp
# below the correctly rounded 2.404825557695773)
_BESSEL_ZEROS = (
    math.pi / 2.0, 2.4048255576957724, math.pi, 3.8317059702075125, 4.493409457909064,
    5.135622301840683, 5.76345919689455, 6.380161895923984, 6.98793200050052, 7.588342434503804,
    8.182561452571242, 8.771483815959954, 9.355812111042747, 9.936109524217686, 10.512835408093999,
    11.086370019245084, 11.657032192516372, 12.225092264004656, 12.790781711972121, 13.35430047743533,
    13.915822610504895, 14.47550068655454, 15.033469303743438, 15.589847884455486, 16.14474294230134,
    16.698249933848246, 17.250454784125967, 17.80143515328244, 18.35126149594727, 18.899997953174022,
    19.447703108094732, 19.994430629816385, 20.54022982504821, 21.085146113064717, 21.62922143659036,
    22.172494618826327, 22.715001674972243, 23.256776085110037, 23.7978490341283, 24.338249623407176,
    24.87800505820719, 25.41714081407252, 25.955680785040137, 26.493647416019034, 27.03106182135002,
    27.567943891262235, 28.104312387697078, 28.640185030763963, 29.175578576919047, 29.710508889811234,
    30.244991004615454, 30.779039186567267, 31.312666984322405, 31.845887278687318, 32.37871232720014,
)


@dataclass
class FDEigenResult:
    value: float  # extrapolated smallest eigenvalue of -(1/2) Laplace, Dirichlet
    raw: list  # per-resolution values
    converged: bool


_FD_MIN_NODES = 20  # fewest interior nodes a finite-difference solve accepts
# most lattice nodes a finest grid may hold. The mask takes a byte a node plus
# about 7 MB of coordinates (1.6 bytes a node in all on the 3-d unit ball at
# h = 1/48, whose finest grid has 193^3 = 7.2e6 nodes); assembling the
# operator on the fundamental domain then peaks at about 12 bytes a node
# before the eigensolve (87 MB there; tracemalloc, numpy 2.4)
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


def _fd_operator(mask: np.ndarray, hs):
    """B = P^T A P in ELL form, A the finite-difference -(1/2) Laplace with
    Dirichlet conditions on the mask's nodes, built on its fundamental domain
    alone: (diagonal, neighbours, coefficients), where neighbours and
    coefficients hold one row per lattice direction (up and down each axis)
    and (B x)_a = diagonal x_a + sum_d coefficients[d, a] x[neighbours[d, a]].
    A missing neighbour reads index len(x), where a product pads x with 0.

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
    n(a -> b) lattice neighbours of a's node in orbit b: a down neighbour
    across the first slab of a folding axis is its mirror, the second slab
    (odd n_k) or the node itself. Orbit sizes are powers of 2, so B is
    exactly symmetric."""
    m = mask.ndim
    folds = [np.array_equal(mask, np.flip(mask, k)) for k in range(m)]
    dom = mask[tuple(slice(n // 2 if f else 0, None) for n, f in zip(mask.shape, folds))]
    count = int(dom.sum())
    index = np.full(dom.shape, count)
    index[dom] = np.arange(count)
    size = np.ones(dom.shape)
    neighbours, scales = [], []
    for k, n in enumerate(mask.shape):
        cut = lambda lo, hi: (slice(None),) * k + (slice(lo, hi),)
        edge = np.full_like(index[cut(0, 1)], count)
        mirror = edge
        if folds[k]:
            mirror = index[cut(n % 2, n % 2 + 1)]
            size *= 2.0
            size[cut(0, 1)] /= 1 + n % 2  # an odd axis's mirror plane is its own image
        neighbours += [np.concatenate([index[cut(1, None)], edge], axis=k)[dom],
                       np.concatenate([mirror, index[cut(0, -1)]], axis=k)[dom]]
        scales += [-1.0 / (2.0 * hs[k] * hs[k])] * 2
    neighbours = np.stack(neighbours)
    size = np.append(size[dom], 1.0)  # the missing neighbour's entry is any positive number
    coefs = np.array(scales)[:, None] * np.sqrt(size[:count] / size[neighbours])
    return sum(1.0 / (hk * hk) for hk in hs), neighbours, coefs


def _fd_matrix(diagonal: float, neighbours: np.ndarray, coefs: np.ndarray):
    """``_fd_operator``'s B as a scipy CSC matrix: its diagonal, then each
    direction's entries, summed where they meet."""
    from scipy import sparse

    count = neighbours.shape[1]
    d, a = np.nonzero(neighbours < count)
    rows = np.concatenate([np.arange(count), a])
    cols = np.concatenate([np.arange(count), neighbours[d, a]])
    vals = np.concatenate([np.full(count, diagonal), coefs[d, a]])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(count, count)).tocsc()


_LANCZOS_TOL = 1e-10  # stop once |beta_k s_k1| <= tol |theta_1|
_LANCZOS_MAX_STEPS = 4096
# most folded unknowns a 2-d operator takes Lanczos for. Below it Lanczos
# costs less than eigsh plus the 0.2 s import of scipy.sparse.linalg (the unit
# disk at h = 1/128: 12 985 unknowns, 528 steps in 0.23 s against 0.11 s);
# above it the steps grow to thousands (45 466 unknowns: 4.4 s against 0.41 s)
_FD_LANCZOS_2D = 12_000


def _fd_product(diagonal: float, neighbours: np.ndarray, coefs: np.ndarray):
    """(x -> B x, unknowns) for ``_fd_operator``'s B in ELL form."""
    count = neighbours.shape[1]
    padded = np.zeros(count + 1)  # padded[count] stays 0: the value at a missing neighbour

    def product(v):
        padded[:count] = v
        w = diagonal * v
        for nb, c in zip(neighbours, coefs):
            w += c * padded[nb]
        return w

    return product, count


def _lanczos_ground_energy(product, count: int) -> tuple[float, int]:
    """(smallest eigenvalue of the symmetric operator ``product``, a function
    returning a new array B x, on ``count`` unknowns; Lanczos steps taken),
    from a plain three-term Lanczos recurrence started at the ones vector.

    Without reorthogonalization the basis loses orthogonality, but the
    extreme Ritz value stays reliable (Paige 1980): once the residual bound
    |beta_k s_k1| of the smallest Ritz pair of the k x k tridiagonal T_k is
    small, theta_1 has converged. T_k's eigenpairs are computed only at steps
    8, 10, 13, 17, ... (each about 1.25 times the last), at a breakdown
    (beta_k = 0), at step k = count and at step _LANCZOS_MAX_STEPS, where the
    bound is tested; a ConvergenceError if it still fails at the last."""
    v_prev, v = np.zeros(count), np.full(count, 1.0 / math.sqrt(count))
    alphas, betas = [], []
    beta, check = 0.0, 8
    for k in range(1, _LANCZOS_MAX_STEPS + 1):
        w = product(v)
        w -= beta * v_prev
        alpha = float(w @ v)
        w -= alpha * v
        beta = math.sqrt(float(w @ w))
        alphas.append(alpha)
        betas.append(beta)
        if beta == 0.0 or k in (check, count, _LANCZOS_MAX_STEPS):
            off = betas[:-1]
            theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(off, -1) + np.diag(off, 1))
            if beta * abs(s[-1, 0]) <= _LANCZOS_TOL * abs(theta[0]):
                return float(theta[0]), k
            check = math.ceil(1.25 * check)
        v_prev, v = v, w / beta
    raise ConvergenceError(f"Lanczos did not converge in {_LANCZOS_MAX_STEPS} steps on {count} unknowns")


def _fd_ground_energy(m: int, inside_fn, lo: np.ndarray, hi: np.ndarray, h) -> float:
    """Smallest eigenvalue of the finite-difference Dirichlet operator on the
    lattice's interior nodes. A full lattice block (every box) separates into
    1-d second differences and takes their closed form; any other mask is
    solved as ``_fd_operator``'s B by Lanczos, except in 2-d above
    _FD_LANCZOS_2D folded unknowns, where the recurrence needs thousands of
    steps and scipy's eigsh solves it (its 150 000 limit reads the folded
    count too)."""
    mask, hs = _fd_mask(m, inside_fn, lo, hi, h)
    if int(mask.sum()) < _FD_MIN_NODES:
        raise DomainError("grid too coarse for the region")
    if mask.all():  # n_k interior nodes on axis k: sum_k (2 / h_k^2) sin^2(pi / (2 (n_k + 1)))
        return sum(2.0 / (hk * hk) * math.sin(math.pi / (2 * (n + 1))) ** 2 for hk, n in zip(hs, mask.shape))
    op = _fd_operator(mask, hs)
    if m == 3 or op[1].shape[1] <= _FD_LANCZOS_2D:
        return _lanczos_ground_energy(*_fd_product(*op))[0]
    B = _fd_matrix(*op)
    from scipy.sparse.linalg import eigsh

    n = B.shape[0]
    # a fixed start vector keeps the result a function of the matrix alone
    kw = {"sigma": 0.0, "which": "LM"} if n <= 150_000 else {"which": "SA"}
    return float(eigsh(B, k=1, v0=np.ones(n), return_eigenvectors=False, **kw)[0])


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
        inside = lambda pts: geom.distance_many(model, c, pts) < R - 1e-12
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
class FaberKrahnReport(Judged):
    min_margin: float
    tolerance: float
    inconclusive: list
    details: list
    reasons: list = field(default_factory=list)  # "<quantity> is NaN" for a NaN margin or gap

    @property
    def criteria(self) -> dict:  # an inconclusive set (not converged, or not finite) fails
        return {"eigenvalue margin": (self.min_margin, self.tolerance),
                **({"every set conclusive": (-math.inf, 0.0)} if self.inconclusive else {})}

    def to_dict(self) -> dict:
        return {
            "min_margin": self.min_margin,
            "tolerance": self.tolerance,
            "inconclusive": self.inconclusive,
            "n_sets": len(self.details),
            **({"reasons": self.reasons} if self.reasons else {}),
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
    worst, reason = worst_of(min, math.inf, {f"margin of set {i}, {e['region']}": [e["margin"]]
                                             for i, e in enumerate(details)})
    tol, tol_reason = worst_of(max, 0.0, {"fd_gap": [e["fd_gap"] + 1e-9 for e in details]})
    return FaberKrahnReport(worst, tol, inconclusive, details, [r for r in (reason, tol_reason) if r])


def _region_circumradius(model: ManifoldModel, x: Point, region) -> float:
    if isinstance(region, BallWindow):
        return geom.distance(model, x, region.center) + region.radius
    if isinstance(region, BoxWindow):
        corner = float(np.linalg.norm(np.asarray(region.halfwidth)))
        return geom.distance(model, x, region.center) + corner
    raise DomainError(f"unsupported region {region!r}")
