"""Schrodinger semigroups e^{-tH} on compact flat models by spectral
discretization of H = -(1/2) Laplace + w with the periodic second-difference
stencil, plus the L^q -> L^q operator-norm battery.

Grid L^q norms use cell-volume weights, so q = 1 and q = infinity are exact
duals on the uniform grids used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.sparse.linalg import eigsh

from . import potentials as pot
from .errors import DomainError, UnsupportedModelError
from .geometry import Kind, ManifoldModel

_DENSE_LIMIT = 2048


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


def _circle_nodes(n: int) -> tuple[np.ndarray, float]:
    theta = np.arange(n) * (2.0 * math.pi / n)
    return theta, 2.0 * math.pi / n


def _periodic_second_difference(n: int, spacing: float) -> sparse.csr_matrix:
    main = np.full(n, 2.0)
    off = np.full(n, -1.0)
    L = sparse.diags([main, off, off], [0, -1, 1], shape=(n, n), format="lil")
    L[0, n - 1] = -1.0
    L[n - 1, 0] = -1.0
    return (L.tocsr()) / (spacing * spacing)


def discretize(model: ManifoldModel, n: int, w: pot.Potential) -> DiscretizedOperator:
    """Periodic finite-difference H = -(1/2) Laplace + w on Circle or Torus(2).

    The potential is sampled at the nodes; values within half a cell of a
    singular center are capped at the half-cell value (count reported)."""
    if n < 8:
        raise DomainError("need at least 8 nodes per axis")
    k = model.kind
    if k is Kind.CIRCLE:
        theta, spacing = _circle_nodes(n)
        coords = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        lap = _periodic_second_difference(n, spacing)
        cell = spacing
    elif k is Kind.TORUS and model.dim == 2:
        L = model.side_length
        spacing = L / n
        axis = np.arange(n) * spacing
        mesh = np.meshgrid(axis, axis, indexing="ij")
        coords = np.stack([g.ravel() for g in mesh], axis=1)
        one = _periodic_second_difference(n, spacing)
        eye = sparse.identity(n, format="csr")
        lap = sparse.kron(one, eye) + sparse.kron(eye, one)
        cell = spacing * spacing
    else:
        raise UnsupportedModelError("discretize supports Circle and Torus(2)")
    vals = pot.evaluate_many(w, coords)
    sings = pot.singularities(w)
    capped = 0
    cap_val = 0.0
    if sings:
        dist = pot.singular_distance_many(w, coords)
        near = (dist < spacing / 2.0) | ~np.isfinite(vals)
        if np.any(near):
            cap = 0.0
            for s in sings:
                cap += float(s.profile(np.array([spacing / 2.0]))[0])
            cap_val = cap
            capped = int(np.sum(near))
            vals = np.where(near, np.sign(np.where(np.isfinite(vals), vals, 1.0)) * cap, vals)
    H = 0.5 * lap + sparse.diags(vals)
    return DiscretizedOperator(
        model, n, spacing, H.tocsr(), coords, cell, type(w).__name__, capped, cap_val,
        potential_floor=float(np.min(vals)),
    )


def _lanczos_recurrence(H, f, k_max, callback):
    """Run the Lanczos three-term recurrence from f / ||f|| for at most k_max
    steps. Before step j, callback(j, v_j, alphas, betas) sees the basis vector
    and the j alphas and j betas so far, and stops the run by returning True.
    Returns (alphas, betas)."""
    v_prev = np.zeros_like(f)
    v = f / np.linalg.norm(f)
    alphas, betas = [], []
    for j in range(k_max):
        if callback(j, v, alphas, betas):
            break
        w = H @ v
        a = float(v @ w)
        alphas.append(a)
        w = w - a * v - (betas[-1] if betas else 0.0) * v_prev
        b = float(np.linalg.norm(w))
        if b < 1e-14:
            break
        betas.append(b)
        v_prev, v = v, w / b
    return alphas, betas


def _ritz_expm_e1(alphas, betas, t: float) -> np.ndarray:
    """e^{-tT} e_1 = sum_i e^{-t lam_i} u_i u_i[0] for the Lanczos tridiagonal
    T, over the Ritz pairs with lam_i <= lam_0 + 40/t only, lam_0 = lam_min(T).
    As sum_i u_i[0]^2 = 1, the dropped modes change it by at most
    e^{-40} e^{-t lam_0} ~ 4e-18 e^{-t lam_0} in the 2-norm."""
    d, e = np.asarray(alphas), np.asarray(betas)
    lam0 = float(eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))[0])
    lam, U = eigh_tridiagonal(d, e, select="v", select_range=(lam0 - 1.0 - abs(lam0), lam0 + 40.0 / t))
    return U @ (np.exp(-t * lam) * U[0])


def _lanczos_expm(H: sparse.csr_matrix, t: float, f: np.ndarray, k_max: int = 6000,
                  tol: float = 1e-13) -> np.ndarray:
    """e^{-tH} f for symmetric H by the two-pass Lanczos approximation.

    The stiff FD operators here have ||tH|| ~ 1e5 and up, where Taylor-based
    expm_multiply needs as many matvecs as the norm; Lanczos needs
    O(sqrt(||tH||)) iterations, and the second pass regenerates the basis so
    memory stays at a few vectors. The first pass checks e^{-tT} e_1 against
    tol every 250 steps; both solves keep only the low Ritz modes."""
    beta0 = float(np.linalg.norm(f))
    if beta0 == 0.0:
        return np.zeros_like(f)

    def converged(j, v, alphas, betas):
        if j == 0 or j % 250:
            return False
        coeff = _ritz_expm_e1(alphas, betas[: j - 1], t)
        return abs(coeff[-1]) < tol * max(1.0, abs(coeff[0]))

    alphas, betas = _lanczos_recurrence(H, f, k_max, converged)
    chosen = len(alphas)
    coeff = _ritz_expm_e1(alphas, betas[: chosen - 1], t)
    out = np.zeros_like(f)

    def accumulate(j, v, *_):
        out[:] += coeff[j] * v

    _lanczos_recurrence(H, f, chosen, accumulate)
    return beta0 * out


def semigroup_apply(op: DiscretizedOperator, t: float, f: np.ndarray) -> np.ndarray:
    """e^{-tH} f via the cached eigendecomposition (Lanczos for large n)."""
    if t < 0:
        raise DomainError("time must be nonnegative")
    f = np.asarray(f, dtype=float)
    if t == 0.0:
        return f.copy()
    if op.size > _DENSE_LIMIT:
        return _lanczos_expm(op.matrix, t, f)
    return op.expm(t) @ f


def ground_energy(op: DiscretizedOperator) -> float:
    if op.size <= _DENSE_LIMIT:
        return float(op.eig()[0][0])
    # shift strictly below the spectrum: H >= -||w_-||_inf on the grid
    sigma = float(min(op.potential_floor, 0.0)) - 1.0
    # a fixed start vector keeps the result a function of the operator alone
    lam = eigsh(op.matrix.tocsc(), k=1, sigma=sigma, which="LM", v0=np.ones(op.size),
                return_eigenvectors=False)
    return float(lam[0])


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


def q_norm(op: DiscretizedOperator, t: float, q) -> float:
    """Operator norm of e^{-tH} on L^q of the grid measure.

    q in {1, 2, inf} is exact (column sums / spectral / row sums; uniform cell
    weights cancel); other q use the positive-matrix power iteration."""
    if t < 0:
        raise DomainError("time must be nonnegative")
    if t == 0.0:
        return 1.0
    M = op.expm(t)
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
    qs: list
    t_values: list
    norms: dict  # str(q) -> list of norms over t
    table: list  # per delta: {"delta", "C"}
    min_margin: float
    domination_margin: float
    capped_nodes: int

    def to_dict(self) -> dict:
        return {
            "qs": [str(q) for q in self.qs],
            "t": self.t_values,
            "norms": self.norms,
            "table": self.table,
            "min_margin": self.min_margin,
            "domination_margin": self.domination_margin,
            "capped_nodes": self.capped_nodes,
        }


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
    norms = {str(q): [q_norm(op_minus, t, q) for t in ts] for q in qs}
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
    return QNormBound(list(qs), ts, norms, table, margin, dom, op_minus.capped_nodes)


def _domination_margin(op_minus, op_full, ts, seed) -> float:
    rng = np.random.default_rng(seed or 1234)
    worst = math.inf
    for _ in range(4):
        f = rng.standard_normal(op_full.size)
        for t in ts:
            if t == 0:
                continue
            lhs = np.abs(semigroup_apply(op_full, t, f))
            rhs = semigroup_apply(op_minus, t, np.abs(f))
            worst = min(worst, float(np.min(rhs - lhs)))
    return worst


@dataclass
class InterpolationReport:
    t: float
    entries: list  # {"r", "q", "norm", "bound", "margin"}
    min_margin: float

    def to_dict(self) -> dict:
        return {"t": self.t, "entries": self.entries, "min_margin": self.min_margin}


def riesz_thorin_check(
    op: DiscretizedOperator, t: float, r_samples: Sequence[float]
) -> InterpolationReport:
    """Interpolation of the measured q->q norms between the endpoint norms:
    ||e^{-tH}||_{q_r} <= ||.||_1^{1-r} ||.||_inf^r with 1/q_r = 1 - r."""
    c0 = q_norm(op, t, 1)
    c1 = q_norm(op, t, np.inf)
    entries = []
    worst = math.inf
    for r in r_samples:
        if not 0.0 < r < 1.0:
            raise DomainError("interpolation parameter must lie in (0, 1)")
        qr = 1.0 / (1.0 - r)
        measured = q_norm(op, t, qr)
        bound = c0 ** (1.0 - r) * c1**r
        margin = bound - measured
        entries.append({"r": r, "q": qr, "norm": measured, "bound": bound, "margin": margin})
        worst = min(worst, margin)
    return InterpolationReport(t, entries, worst)
