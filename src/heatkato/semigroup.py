"""Schrodinger semigroups e^{-tH} on compact flat models by spectral
discretization of H = -(1/2) Laplace + w with the periodic second-difference
stencil, plus the L^q -> L^q operator-norm battery.

e^{-tH} f comes from the dense eigendecomposition up to _DENSE_LIMIT nodes
and, above it, from a fixed 24-node rational rule on a Talbot contour (12
complex shifted solves) on t(H - E_0), E_0 the ground energy from eigsh
(_contour_expm). On the circle the shifted systems are cyclic tridiagonal and
are solved banded, with the two corners by Sherman-Morrison; 2-d tori keep one
sparse LU (splu) per solve.

Grid L^q norms use cell-volume weights, so q = 1 and q = infinity are exact
duals on the uniform grids used here.

scipy's sparse matrices, splu, eigsh, eigh and solve_banded are imported at the
top: every function here runs on them, and only the commands that need a
semigroup import this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, solve_banded
from scipy.sparse.linalg import eigsh, splu

from . import potentials as pot
from .errors import DomainError, UnsupportedModelError
from .geometry import ManifoldModel

_DENSE_LIMIT = 2048

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
    matrix: sparse.csr_matrix  # H = -(1/2) discrete Laplacian + diag(w)
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
        return self.matrix.shape[0]

    def eig(self):
        if self._eig is None:
            if self.size > _DENSE_LIMIT:
                raise DomainError(f"dense spectral path disabled for size {self.size}")
            lam, U = eigh(self.matrix.toarray())
            self._eig = (lam, U)
        return self._eig

    def expm(self, t: float) -> np.ndarray:
        lam, U = self.eig()
        return (U * np.exp(-t * lam)) @ U.T


def _periodic_second_difference(n: int, spacing: float) -> sparse.csr_matrix:
    """The stencil (2, -1, -1) / spacing^2 with the wrap-around couplings as
    the corner diagonals at offsets +-(n - 1); n >= 3."""
    L = sparse.diags([2.0, -1.0, -1.0, -1.0, -1.0], [0, -1, 1, 1 - n, n - 1], shape=(n, n), format="csr")
    return L / (spacing * spacing)


def discretize(model: ManifoldModel, n: int, w: pot.Potential) -> DiscretizedOperator:
    """Periodic finite-difference H = -(1/2) Laplace + w on the circle or a
    flat torus of dimension <= 2, n nodes per axis (the model's full grid).

    The potential is sampled at the nodes by ``potentials.capped_values``
    with eps half a cell (capped node count and cap reported)."""
    if n < 8:
        raise DomainError("need at least 8 nodes per axis")
    if not model.period or model.dim > 2:
        raise UnsupportedModelError("discretize supports the circle and flat tori of dimension <= 2")
    spacing = model.period / n
    coords, _ = model.full_nodes(spacing)
    lap = _periodic_second_difference(n, spacing)
    cell = spacing
    if model.dim == 2:
        eye = sparse.identity(n, format="csr")
        lap = sparse.kron(lap, eye) + sparse.kron(eye, lap)
        cell = spacing * spacing
    vals, near, cap = pot.capped_values(w, coords, spacing / 2.0)
    H = 0.5 * lap + sparse.diags(vals)
    return DiscretizedOperator(
        model, n, spacing, H.tocsr(), coords, cell, type(w).__name__, int(np.sum(near)), cap,
        potential_floor=float(np.min(vals)),
    )


def _contour_rule(solve, f: np.ndarray) -> np.ndarray:
    """Im sum_k w_k (z_k + A)^{-1} f over the 12 upper contour nodes, with
    ``solve(z, b)`` = (z + A)^{-1} b: r(A) f for the scalar rule r ~ e^{-x}."""
    fc = f.astype(complex)
    return sum(w * solve(z, fc) for z, w in zip(_CONTOUR_Z, _CONTOUR_W)).imag


def _cyclic_solver(A: sparse.csc_matrix):
    """solve(z, b) = (z + A)^{-1} b for A periodic tridiagonal (the circle's
    stencil): one banded LU of the tridiagonal part T, for b and the corner
    vector u = e_0 + e_{n-1} at once, then Sherman-Morrison for
    z + A = T + c u u^T, c the corner coefficient."""
    n = A.shape[0]
    c = A[0, n - 1]
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = A.diagonal(1)
    ab[2, :-1] = A.diagonal(-1)
    u = np.zeros(n)
    u[[0, -1]] = 1.0
    diag = A.diagonal()
    diag[[0, -1]] -= c

    def solve(z, b):
        ab[1] = z + diag
        y, q = solve_banded((1, 1), ab, np.column_stack((b, u)), check_finite=False).T
        return y - (c * (y[0] + y[-1]) / (1.0 + c * (q[0] + q[-1]))) * q

    return solve


def _splu_solver(A: sparse.csc_matrix):
    """solve(z, b) = (z + A)^{-1} b by one sparse LU per node (2-d tori)."""
    eye = sparse.identity(A.shape[0], format="csc")
    return lambda z, b: splu(z * eye + A).solve(b)


def _contour_expm(op: DiscretizedOperator, t: float, f: np.ndarray) -> np.ndarray:
    """e^{-tH} f by the midpoint rule on the cotangent (Talbot) contour of
    Trefethen, Weideman & Schmelzer (BIT 46, 2006).

    With s = ground_energy(op), A = t(H - s) >= 0 and
    e^{-tH} f = e^{-ts} (1/2 pi i) int e^z (z + A)^{-1} f dz, halved to 12
    complex solves by conjugate symmetry (_contour_rule): cyclic tridiagonal
    ones on the circle, sparse LU ones on 2-d tori. The scalar rule's absolute
    error is 2e-14 on {0} u [1e-8, 1e9] and 5e-14 down to x = -0.01 (rounding
    in s); a cruder lower bound s' of H would scale it by e^{t(s - s')}."""
    s = ground_energy(op)
    A = t * (op.matrix.tocsc() - s * sparse.identity(len(f), format="csc"))
    solver = _cyclic_solver if op.model.dim == 1 else _splu_solver
    return math.exp(-t * s) * _contour_rule(solver(A), f)


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
        return [_contour_expm(op, t, f) for f in fs]
    M = op.expm(t)
    return [M @ f for f in fs]


def ground_energy(op: DiscretizedOperator) -> float:
    if op.size <= _DENSE_LIMIT:
        return float(op.eig()[0][0])
    if op._ground is None:  # one shift-invert solve per operator, like the dense eig
        # shift strictly below the spectrum: H >= -||w_-||_inf on the grid
        sigma = float(min(op.potential_floor, 0.0)) - 1.0
        # a fixed start vector keeps the result a function of the operator alone
        lam = eigsh(op.matrix.tocsc(), k=1, sigma=sigma, which="LM", v0=np.ones(op.size),
                    return_eigenvectors=False)
        op._ground = float(lam[0])
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


def fit_growth_constant(t_values, norms_max, delta: float) -> float:
    """Smallest C >= 0 with norms <= delta exp(t C) on the grid, but never less
    than the fitted exponential growth rate (so constant potentials report
    their exact rate and the margin is log delta uniformly)."""
    ts = np.asarray(t_values, dtype=float)
    vals = np.asarray(norms_max, dtype=float)
    pos = ts > 0
    binding = np.max((np.log(vals[pos]) - math.log(delta)) / ts[pos]) if np.any(pos) else 0.0
    slope = 0.0
    if np.count_nonzero(pos) >= 2:
        coef = np.polyfit(ts, np.log(np.maximum(vals, 1e-300)), 1)
        slope = float(coef[0])
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
    semigroup by the negative-part semigroup on random inputs."""
    ts = sorted(float(t) for t in t_grid)
    if any(t < 0 for t in ts):
        raise DomainError("t grid must be nonnegative")
    rows = [q_norm(op_minus, t, qs) for t in ts]
    norms = {str(q): [row[i] for row in rows] for i, q in enumerate(qs)}
    norms_max = [max(norms[str(q)][j] for q in qs) for j in range(len(ts))]
    table = [
        {"delta": float(d), "C": fit_growth_constant(ts, norms_max, float(d))}
        for d in delta_grid
    ]
    margin = math.inf
    for entry in table:
        d, C = entry["delta"], entry["C"]
        for q in qs:
            for j, t in enumerate(ts):
                margin = min(margin, math.log(d) + t * C - math.log(norms[str(q)][j]))
    dom = _domination_margin(op_minus, op_full or op_minus, ts, seed)
    return QNormBound([str(q) for q in qs], ts, norms, table, margin, dom, op_minus.capped_nodes)


def _domination_margin(op_minus, op_full, ts, seed) -> float:
    """min of e^{-tH_-}|f| - |e^{-tH}f| over four random f and every t > 0.
    Each distinct operator's e^{-tH} is built once per t, one at a time."""
    rng = np.random.default_rng(seed or 1234)
    fs = [rng.standard_normal(op_full.size) for _ in range(4)]
    abs_fs = [np.abs(f) for f in fs]
    worst = math.inf
    for t in ts:
        if t == 0:
            continue
        if op_minus is op_full:
            images = _propagate(op_full, t, fs + abs_fs)
        else:
            images = _propagate(op_full, t, fs) + _propagate(op_minus, t, abs_fs)
        for full_f, minus_abs_f in zip(images[: len(fs)], images[len(fs) :]):
            worst = min(worst, float(np.min(minus_abs_f - np.abs(full_f))))
    return worst


@dataclass
class InterpolationReport:
    t: float
    entries: list  # {"r", "q", "norm", "bound", "margin"}
    min_margin: float


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
    worst = math.inf
    for r, qr, measured in zip(r_samples, qrs, norms):
        bound = c0 ** (1.0 - r) * c1**r
        margin = bound - measured
        entries.append({"r": r, "q": qr, "norm": measured, "bound": bound, "margin": margin})
        worst = min(worst, margin)
    return InterpolationReport(t, entries, worst)
