"""Schrodinger semigroups e^{-tH} on compact flat models by spectral
discretization of H = -(1/2) Laplace + w with the periodic second-difference
stencil, plus the L^q -> L^q operator-norm battery.

H is held as numpy arrays: its diagonal, and the one coupling the stencil
puts between neighbouring nodes. e^{-tH} f comes from the dense
eigendecomposition (np.linalg.eigh) up to _DENSE_LIMIT nodes and, above it,
from a fixed 24-node rational rule on a Talbot contour (12 complex shifted
solves) on t(H - E_0) (_contour_expm), E_0 the ground energy from a Lanczos
recurrence on (H - sigma)^{-1} (mvi's, through the same shifted solves).
Above _DENSE_LIMIT only the circle is discretized: its shifted systems are
cyclic tridiagonal, all of them solved together by odd-even cyclic
reduction, with the two corners by Sherman-Morrison.  A 2-d torus is refused
above _DENSE_LIMIT nodes.  Nothing here imports scipy.

Grid L^q norms use cell-volume weights, so q = 1 and q = infinity are exact
duals on the uniform grids used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import potentials as pot
from .errors import DomainError, UnsupportedModelError
from .geometry import ManifoldModel
from .mvi import _lanczos_ground_energy
from .reporting import worst_of

_DENSE_LIMIT = 2048
# bytes a circle node takes at the peak of a contour solve above
# _DENSE_LIMIT: the 12 shifts' complex reduction levels, right-hand sides and
# solutions (1584 at n = 8192 to 262144; tracemalloc, numpy 2.4)
_CONTOUR_NODE_BYTES = 1_600

# The cotangent contour z(theta) = N (0.5017 theta cot(0.6407 theta) - 0.6122
# + 0.2645 i theta) at the midpoints theta_k = (k + 1/2) 2 pi / N with
# theta > 0, and the weights (2 / N) e^{z_k} z'(theta_k).
_CONTOUR_N = 24
_THETA = (np.arange(_CONTOUR_N // 2) + 0.5) * 2.0 * np.pi / _CONTOUR_N
_CONTOUR_Z = _CONTOUR_N * (0.5017 * _THETA / np.tan(0.6407 * _THETA) - 0.6122 + 0.2645j * _THETA)
_CONTOUR_W = 2.0 * np.exp(_CONTOUR_Z) * (
    0.5017 / np.tan(0.6407 * _THETA) - 0.5017 * 0.6407 * _THETA / np.sin(0.6407 * _THETA) ** 2 + 0.2645j
)


@dataclass
class DiscretizedOperator:
    model: ManifoldModel
    n: int  # nodes per axis
    spacing: float
    diagonal: np.ndarray  # H's diagonal: dim / spacing^2 plus the sampled potential
    node_coords: np.ndarray  # chart coordinates of the grid nodes
    cell_volume: float
    potential: str
    capped_nodes: int
    cap_value: float
    potential_floor: float = 0.0  # min of the sampled potential values
    _eig: tuple | None = field(default=None, repr=False)
    _ground: float | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.diagonal.size

    @property
    def coupling(self) -> float:
        """H's entry between two neighbouring nodes, -1 / (2 spacing^2)."""
        return -0.5 / (self.spacing * self.spacing)

    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, columns) of H's off-diagonal entries, each ``coupling``:
        every node's two neighbours along each axis, wrapping around."""
        index = np.arange(self.size).reshape((self.n,) * self.model.dim)
        rows = np.tile(index.ravel(), 2 * self.model.dim)
        cols = np.concatenate([np.roll(index, s, axis=k).ravel() for k in range(self.model.dim) for s in (1, -1)])
        return rows, cols

    def dense(self) -> np.ndarray:
        H = np.diag(self.diagonal)
        H[self.neighbours()] = self.coupling
        return H

    def eig(self):
        if self._eig is None:
            if self.size > _DENSE_LIMIT:
                raise DomainError(f"dense spectral path disabled for size {self.size}")
            self._eig = np.linalg.eigh(self.dense())
        return self._eig

    def expm(self, t: float) -> np.ndarray:
        lam, U = self.eig()
        return (U * np.exp(-t * lam)) @ U.T


def discretize(model: ManifoldModel, n: int, w: pot.Potential) -> DiscretizedOperator:
    """Periodic finite-difference H = -(1/2) Laplace + w on the circle or a
    flat torus of dimension <= 2, n nodes per axis (the model's full grid);
    a 2-d torus up to _DENSE_LIMIT nodes.

    The potential is sampled at the nodes by ``potentials.capped_values``
    with eps half a cell (capped node count and cap reported)."""
    if n < 8:
        raise DomainError("need at least 8 nodes per axis")
    if not model.period or model.dim > 2:
        raise UnsupportedModelError("discretize supports the circle and flat tori of dimension <= 2")
    if model.dim == 2 and n * n > _DENSE_LIMIT:
        raise DomainError(f"a 2-d torus takes at most {_DENSE_LIMIT} nodes, not {n * n}")
    spacing = model.period / n
    coords, _ = model.full_nodes(spacing)
    vals, near, cap = pot.capped_values(w, coords, spacing / 2.0)
    return DiscretizedOperator(
        model, n, spacing, model.dim / (spacing * spacing) + vals, coords, spacing**model.dim,
        type(w).__name__, int(np.sum(near)), cap, potential_floor=float(np.min(vals)),
    )


def _contour_rule(solve, f: np.ndarray) -> np.ndarray:
    """Im sum_k w_k (z_k + A)^{-1} f over the 12 upper contour nodes, with
    ``solve(b)`` the rows (z_k + A)^{-1} b: r(A) f for the scalar rule
    r ~ e^{-x}."""
    return (_CONTOUR_W @ solve(f.astype(complex))).imag


def _reduce(b: np.ndarray, e: np.ndarray):
    """Odd-even cyclic reduction of the symmetric tridiagonal systems with
    diagonals b and couplings e (e[..., i] joins nodes i and i + 1, and
    e[..., -1] = 0), stacked on the leading axes: (the levels, 1 / the last
    pivot), which _reduced_solve applies to right-hand sides.

    Each level eliminates the odd nodes, after padding an odd count with a
    decoupled unit row; the even nodes keep a symmetric tridiagonal system
    of half the size."""
    levels = []
    while b.shape[-1] > 1:
        n = b.shape[-1]
        if n % 2:
            b = np.concatenate([b, np.ones(b.shape[:-1] + (1,), b.dtype)], axis=-1)
            e = np.concatenate([e, np.zeros(e.shape[:-1] + (1,), e.dtype)], axis=-1)
        r = 1.0 / b[..., 1::2]
        even, odd = e[..., 0::2], e[..., 1::2]  # the couplings right of the even and of the odd nodes
        up, down = even * r, odd * r  # the factors that fold odd node 2j + 1 into 2j and into 2j + 2
        b = b[..., 0::2] - even * up
        b[..., 1:] -= odd[..., :-1] * down[..., :-1]
        levels.append((n, r, up, down, even, odd))
        e = -up * odd
    return levels, 1.0 / b


def _reduced_solve(levels, last: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The solution of _reduce's systems for the right-hand side d."""
    odds = []
    for n, r, up, down, _, _ in levels:
        if n % 2:
            d = np.concatenate([d, np.zeros(d.shape[:-1] + (1,), d.dtype)], axis=-1)
        odds.append(d[..., 1::2])
        d = d[..., 0::2] - up * odds[-1]
        d[..., 1:] -= down[..., :-1] * odds[-1][..., :-1]
    x = d * last
    for (n, r, _, _, even, odd), d_odd in zip(reversed(levels), reversed(odds)):
        x_odd = d_odd - even * x
        x_odd[..., :-1] -= odd[..., :-1] * x[..., 1:]
        x_odd *= r
        full = np.empty(x_odd.shape[:-1] + (2 * x_odd.shape[-1],), x_odd.dtype)
        full[..., 0::2], full[..., 1::2] = x, x_odd
        x = full[..., :n]
    return x


def _cyclic_solver(diagonal: np.ndarray, off: float, shifts: np.ndarray):
    """solve(b) = the rows (z + A)^{-1} b, z in shifts, for A periodic
    tridiagonal with the given diagonal and every coupling ``off`` (the
    circle's stencil): one reduction of the tridiagonal parts T_z for all
    shifts, solved for b and, once, for the corner vector u = e_0 + e_{n-1};
    then Sherman-Morrison for z + A = T_z + off u u^T."""
    b = shifts[:, None] + diagonal
    b[:, [0, -1]] -= off
    e = np.full(diagonal.size, off)
    e[-1] = 0.0
    levels, last = _reduce(b, e)
    u = np.zeros(diagonal.size)
    u[[0, -1]] = 1.0
    q = _reduced_solve(levels, last, u)
    scale = off / (1.0 + off * (q[:, 0] + q[:, -1]))

    def solve(f):
        y = _reduced_solve(levels, last, f)
        return y - (scale * (y[:, 0] + y[:, -1]))[:, None] * q

    return solve


def _contour_expm(op: DiscretizedOperator, t: float, fs) -> list:
    """[e^{-tH} f for f in fs] by the midpoint rule on the cotangent (Talbot)
    contour of Trefethen, Weideman & Schmelzer (BIT 46, 2006).

    With s = ground_energy(op), A = t(H - s) >= 0 and
    e^{-tH} f = e^{-ts} (1/2 pi i) int e^z (z + A)^{-1} f dz, halved to 12
    complex solves by conjugate symmetry (_contour_rule), reduced once for
    every f. The scalar rule's absolute error is 2e-14 on
    {0} u [1e-8, 1e9] and 5e-14 down to x = -0.01 (rounding in s); a cruder
    lower bound s' of H would scale it by e^{t(s - s')}."""
    s = ground_energy(op)
    solve = _cyclic_solver(t * (op.diagonal - s), t * op.coupling, _CONTOUR_Z)
    return [math.exp(-t * s) * _contour_rule(solve, f) for f in fs]


def semigroup_apply(op: DiscretizedOperator, t: float, f: np.ndarray) -> np.ndarray:
    """e^{-tH} f: the cached dense eigendecomposition up to _DENSE_LIMIT
    nodes (q_norm and ground_energy share it), the contour rule above."""
    if t < 0:
        raise DomainError("time must be nonnegative")
    f = np.asarray(f, dtype=float)
    if t == 0.0:
        return f.copy()
    return _propagate(op, t, [f])[0]


def _propagate(op: DiscretizedOperator, t: float, fs) -> list:
    """[e^{-tH} f for f in fs] at one t > 0: one dense matrix, built here and
    freed on return, up to _DENSE_LIMIT nodes; the contour rule above it."""
    if op.size > _DENSE_LIMIT:
        return _contour_expm(op, t, fs)
    M = op.expm(t)
    return [M @ f for f in fs]


def ground_energy(op: DiscretizedOperator) -> float:
    if op.size <= _DENSE_LIMIT:
        return float(op.eig()[0][0])
    if op._ground is None:  # one Lanczos run per operator, like the dense eig
        # shift strictly below the spectrum: H >= -||w_-||_inf on the grid
        sigma = float(min(op.potential_floor, 0.0)) - 1.0
        solve = _cyclic_solver(op.diagonal, op.coupling, np.array([-sigma]))
        # the smallest eigenvalue of -(H - sigma)^{-1} is -1 / (E_0 - sigma)
        theta, _ = _lanczos_ground_energy(lambda x: -solve(x)[0], op.size)
        op._ground = sigma - 1.0 / theta
    return op._ground


# ---------------------------------------------------------------------------
# operator q-norms (uniform cell weights)


def _boyd_q_norm(M: np.ndarray, q: float, iters: int = 80, tol: float = 1e-13) -> float:
    """Power-type iteration for the q->q norm of an entrywise-positive matrix;
    any iterate is a certified lower bound and the iteration is monotone."""
    A = np.abs(M)
    x = np.ones(A.shape[1])
    x /= np.linalg.norm(x, q)
    best = 0.0
    qq = q / (q - 1.0)
    for _ in range(iters):
        y = A @ x
        ratio = np.linalg.norm(y, q)
        if ratio <= best * (1.0 + tol):
            best = max(best, ratio)
            break
        best = ratio
        xi = y ** (q - 1.0)
        z = A.T @ xi
        x = z ** (1.0 / (q - 1.0))
        nx = np.linalg.norm(x, q)
        if nx == 0:
            break
        x /= nx
    return float(best)


def q_norm(op: DiscretizedOperator, t: float, q):
    """Operator norm of e^{-tH} on L^q of the grid measure.

    ``q`` is one exponent (one norm back) or a sequence of them (a list
    back); e^{-tH} is built once for all of them, and not at all when every
    q is 2.  q in {1, 2, inf} is exact (column sums / spectral / row sums;
    uniform cell weights cancel); other q use the positive-matrix power
    iteration."""
    if t < 0:
        raise DomainError("time must be nonnegative")
    qs = [q] if np.ndim(q) == 0 else list(q)
    M = op.expm(t) if t > 0.0 and any(qk != 2 for qk in qs) else None
    norms = [_q_norm(op, t, M, qk) for qk in qs]
    return norms[0] if np.ndim(q) == 0 else norms


def _q_norm(op: DiscretizedOperator, t: float, M: np.ndarray | None, q) -> float:
    """One q of q_norm, with M = e^{-tH} (None when t = 0 or q = 2)."""
    if t == 0.0:
        return 1.0
    if q == 1:
        return float(np.max(np.sum(np.abs(M), axis=0)))
    if q == 2:
        lam, _ = op.eig()
        return float(np.exp(-t * lam[0]))
    if q in (np.inf, math.inf, "inf"):
        return float(np.max(np.sum(np.abs(M), axis=1)))
    q = float(q)
    if q <= 1:
        raise DomainError("q must be in [1, inf]")
    return _boyd_q_norm(M, q)


# ---------------------------------------------------------------------------
# the delta * exp(t C) bound and Riesz-Thorin interpolation


@dataclass
class QNormBound:
    qs: list  # str(q), the keys of norms
    t: list
    norms: dict  # str(q) -> list of norms over t
    table: list  # per delta: {"delta", "C"}
    min_margin: float
    domination_margin: float
    capped_nodes: int
    reasons: list = field(default_factory=list)  # "<quantity> is NaN" for a NaN margin


def fit_growth_constant(t_values, norms_max, delta: float, rate_bound: float) -> float:
    """Smallest C >= 0 with norms <= delta exp(t C) on the grid, but never less
    than the fitted exponential growth rate (so constant potentials report
    their exact rate and the margin is log delta uniformly). The fitted rate
    is capped at ``rate_bound``, a known bound on the true one: the excess is
    rounding in the norms."""
    ts = np.asarray(t_values, dtype=float)
    vals = np.asarray(norms_max, dtype=float)
    pos = ts > 0
    binding = np.max((np.log(vals[pos]) - math.log(delta)) / ts[pos]) if np.any(pos) else 0.0
    slope = 0.0
    if np.count_nonzero(pos) >= 2:
        coef = np.polyfit(ts, np.log(np.maximum(vals, 1e-300)), 1)
        slope = min(float(coef[0]), rate_bound)
    return max(0.0, binding, slope)


def bop_bound_check(
    op_minus: DiscretizedOperator,
    t_grid: Sequence[float],
    delta_grid: Sequence[float],
    qs: Sequence = (1, 2, 4, np.inf),
    op_full: DiscretizedOperator | None = None,
    seed: int = 0,
) -> QNormBound:
    """Norm table for e^{-tH^{-w_minus}} with fitted (delta, C(delta))
    certificates, plus the pointwise domination of the full-potential
    semigroup by the negative-part semigroup on random inputs. A NaN norm
    or propagated value makes its margin NaN, with a reason."""
    ts = sorted(float(t) for t in t_grid)
    if any(t < 0 for t in ts):
        raise DomainError("t grid must be nonnegative")
    rows = [q_norm(op_minus, t, qs) for t in ts]
    norms = {str(q): [row[i] for row in rows] for i, q in enumerate(qs)}
    norms_max = [max(norms[str(q)][j] for q in qs) for j in range(len(ts))]
    # e^{-tH} <= e^{t sup w_-} e^{t Laplace / 2} entrywise, and the free grid
    # semigroup contracts every L^q: no norm grows faster than sup w_-
    rate_bound = max(0.0, -op_minus.potential_floor)
    table = [
        {"delta": float(d), "C": fit_growth_constant(ts, norms_max, float(d), rate_bound)}
        for d in delta_grid
    ]
    margin, reason = worst_of(min, math.inf, {
        f"margin at q={q}": [math.log(e["delta"]) + t * e["C"] - math.log(v)
                             for e in table for t, v in zip(ts, norms[str(q)])]
        for q in qs
    })
    dom, dom_reason = _domination_margin(op_minus, op_full or op_minus, ts, seed)
    reasons = [r for r in (reason, dom_reason) if r]
    return QNormBound([str(q) for q in qs], ts, norms, table, margin, dom, op_minus.capped_nodes, reasons)


def _domination_margin(op_minus, op_full, ts, seed) -> tuple[float, str | None]:
    """(min of e^{-tH_-}|f| - |e^{-tH}f| over four random f and every t > 0,
    None), or (nan, a reason) when a propagated value is NaN. Each distinct
    operator's e^{-tH} is built once per t, one at a time."""
    rng = np.random.default_rng(seed or 1234)
    fs = [rng.standard_normal(op_full.size) for _ in range(4)]
    abs_fs = [np.abs(f) for f in fs]
    gaps = []
    for t in ts:
        if t == 0:
            continue
        if op_minus is op_full:
            images = _propagate(op_full, t, fs + abs_fs)
        else:
            images = _propagate(op_full, t, fs) + _propagate(op_minus, t, abs_fs)
        gaps += [np.min(minus_abs_f - np.abs(full_f)) for full_f, minus_abs_f in zip(images[: len(fs)], images[len(fs) :])]
    worst, reason = worst_of(min, math.inf, {"domination margin": gaps})
    return float(worst), reason


@dataclass
class InterpolationReport:
    t: float
    entries: list  # {"r", "q", "norm", "bound", "margin"}
    min_margin: float
    reasons: list = field(default_factory=list)  # "<quantity> is NaN" for a NaN margin


def riesz_thorin_check(
    op: DiscretizedOperator, t: float, r_samples: Sequence[float]
) -> InterpolationReport:
    """Interpolation of the measured q->q norms between the endpoint norms:
    ||e^{-tH}||_{q_r} <= ||.||_1^{1-r} ||.||_inf^r with 1/q_r = 1 - r."""
    if not all(0.0 < r < 1.0 for r in r_samples):
        raise DomainError("interpolation parameter must lie in (0, 1)")
    qrs = [1.0 / (1.0 - r) for r in r_samples]
    c0, c1, *norms = q_norm(op, t, [1, np.inf, *qrs])
    entries = []
    for r, qr, measured in zip(r_samples, qrs, norms):
        bound = c0 ** (1.0 - r) * c1**r
        entries.append({"r": r, "q": qr, "norm": measured, "bound": bound, "margin": bound - measured})
    worst, reason = worst_of(min, math.inf, {f"margin at r={e['r']}": [e["margin"]] for e in entries})
    return InterpolationReport(t, entries, worst, [reason] if reason else [])
