import math

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh, solve_banded
from scipy.sparse.linalg import eigsh, splu

from heatkato import cli
from heatkato import geometry as G
from heatkato import heat_kernel as HK
from heatkato import potentials as P
from heatkato import semigroup as SG
from heatkato.errors import DomainError, UnsupportedModelError

CIRCLE = G.circle()
ZERO = P.Sum(())


def _lil_second_difference(n, spacing):
    # the stencil built entry by entry, corners set on a LIL matrix
    off = np.full(n, -1.0)
    L = sparse.diags([np.full(n, 2.0), off, off], [0, -1, 1], shape=(n, n), format="lil")
    L[0, n - 1] = -1.0
    L[n - 1, 0] = -1.0
    return L.tocsr() / (spacing * spacing)


def _lil_operator(op):
    # -(1/2) Laplace from the LIL-built stencil, a Kronecker sum on the 2-d torus
    lap = _lil_second_difference(op.n, op.spacing)
    if op.model.dim == 2:
        eye = sparse.identity(op.n, format="csr")
        lap = sparse.kron(lap, eye) + sparse.kron(eye, lap)
    return 0.5 * lap


def _reference_matrix(op):
    # scipy's H = -(1/2) Laplace + w: the LIL-built stencil with the operator's diagonal
    H = _lil_operator(op).tolil()
    H.setdiag(op.diagonal)
    return H.tocsc()


def test_free_laplacian_spectrum_and_row_sums():
    op = SG.discretize(CIRCLE, 128, ZERO)
    lam, _ = op.eig()
    assert lam[0] == pytest.approx(0.0, abs=1e-11)  # constants in the kernel
    # discrete dispersion: lambda_k = (1 - cos(k dx)) / dx^2
    dx = op.spacing
    expected = sorted((1 - math.cos(k * dx)) / dx**2 for k in range(-64, 64))
    assert np.allclose(sorted(lam), expected[:128], atol=1e-8)
    # pure-Laplacian rows sum to zero
    assert np.max(np.abs(op.dense().sum(axis=1))) < 1e-9


def test_constant_shift_exact():
    op0 = SG.discretize(CIRCLE, 96, ZERO)
    opc = SG.discretize(CIRCLE, 96, P.Constant(2.5))
    l0, _ = op0.eig()
    lc, _ = opc.eig()
    assert np.allclose(lc, l0 + 2.5, atol=1e-10)


def test_ground_energy_bounded_below_by_negative_part():
    w = P.Scale(-1.0, P.cosine_potential(CIRCLE))
    op = SG.discretize(CIRCLE, 256, w)
    assert SG.ground_energy(op) >= -1.0 - 1e-12


def test_mathieu_ground_energy_converges():
    w = P.cosine_potential(CIRCLE)
    g1 = SG.ground_energy(SG.discretize(CIRCLE, 4096, w))
    g2 = SG.ground_energy(SG.discretize(CIRCLE, 8192, w))
    assert abs(g1 - g2) < 1e-6


def test_sparse_ground_energy_repeats_exactly():
    op = SG.discretize(CIRCLE, 4096, P.cosine_potential(CIRCLE))
    assert SG.ground_energy(op) == SG.ground_energy(op)


def test_sparse_ground_energy_solved_once_per_operator(monkeypatch):
    calls = []
    lanczos = SG._lanczos_ground_energy

    def counted(*args, **kwargs):
        calls.append(1)
        return lanczos(*args, **kwargs)

    monkeypatch.setattr(SG, "_lanczos_ground_energy", counted)
    op = SG.discretize(CIRCLE, 4096, P.cosine_potential(CIRCLE))
    first = SG.ground_energy(op)
    SG.semigroup_apply(op, 0.25, np.ones(op.size))
    assert SG.ground_energy(op) == first
    assert len(calls) == 1
    assert SG.ground_energy(SG.discretize(CIRCLE, 4096, P.cosine_potential(CIRCLE))) == first
    assert len(calls) == 2  # a new operator solves its own


def test_apply_identity_at_zero_and_positivity():
    op = SG.discretize(CIRCLE, 128, P.cosine_potential(CIRCLE))
    f = np.sin(np.arange(128))
    assert np.array_equal(SG.semigroup_apply(op, 0.0, f), f)
    g = SG.semigroup_apply(op, 0.5, np.abs(f))
    assert np.min(g) >= -1e-12


def test_free_semigroup_matches_heat_kernel_column():
    op = SG.discretize(CIRCLE, 512, ZERO)
    f = np.zeros(512)
    f[0] = 1.0 / op.cell_volume  # discrete delta at angle 0
    got = SG.semigroup_apply(op, 0.3, f)
    eng = HK.make_engine(CIRCLE)
    exact = HK.eval_many(eng, 0.3, G.circle_point(0.0).coords, op.node_coords)
    assert np.max(np.abs(got - exact)) < 5e-4  # discretization error only


def test_constant_potential_commutes():
    op0 = SG.discretize(CIRCLE, 128, ZERO)
    opc = SG.discretize(CIRCLE, 128, P.Constant(1.7))
    f = np.cos(3 * np.arange(128) * 2 * math.pi / 128)
    a = SG.semigroup_apply(opc, 0.4, f)
    b = math.exp(-1.7 * 0.4) * SG.semigroup_apply(op0, 0.4, f)
    assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_contour_free_cosine_mode_closed_form(t):
    n, k = 4096, 3  # above the dense limit, so e^{-tH} f runs through the contour rule
    op = SG.discretize(CIRCLE, n, ZERO)
    theta = 2 * math.pi * np.arange(n) / n
    got = SG.semigroup_apply(op, t, 1 + np.cos(k * theta))
    lam_k = (1 - math.cos(2 * math.pi * k / n)) / op.spacing**2
    exact = 1 + math.exp(-t * lam_k) * np.cos(k * theta)
    assert np.max(np.abs(got - exact) / np.abs(exact)) < 1e-9


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_contour_matches_spectral_sum_on_cosine_operator(t):
    op = SG.discretize(CIRCLE, 8192, P.cosine_potential(CIRCLE))
    ones = np.ones(op.size)
    got = SG.semigroup_apply(op, t, ones)
    sigma = op.potential_floor - 1.0
    lam, V = eigsh(_reference_matrix(op), k=60, sigma=sigma, which="LM", v0=ones)
    ref = V @ (np.exp(-t * lam) * (V.T @ ones))  # modes past the 60th weigh < e^{-110}
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-8


def test_contour_rule_matches_exponential_on_the_half_line():
    # a diagonal A solves as b / (z + x): the rule returns the scalar r(x) itself
    x = np.concatenate([[0.0], np.logspace(-8, 9, 400)])
    r = SG._contour_rule(lambda b: b / (SG._CONTOUR_Z[:, None] + x), np.ones(x.size))
    assert np.max(np.abs(r - np.exp(-x))) <= 1e-13


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_contour_matches_spectral_sum_in_deep_narrow_well(t):
    # the potential's floor (-60) lies far below the ground energy (about
    # -0.76); a shift by the floor would scale the rule's error by e^{59 t}
    w = P.parse_potential("scale:-60:indicator:ball:r=0.01", CIRCLE)
    op = SG.discretize(CIRCLE, 8192, w)
    ones = np.ones(op.size)
    got = SG.semigroup_apply(op, t, ones)
    lam, V = eigsh(_reference_matrix(op), k=60, sigma=op.potential_floor - 1.0, which="LM", v0=ones)
    assert lam.min() > -1.0 and lam.max() > 400.0  # modes past the 60th weigh < e^{-200}
    ref = V @ (np.exp(-t * lam) * (V.T @ ones))
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-8


_CIRCLE_POTENTIALS = ["cosine", "scale:-60:indicator:ball:r=0.01"]


def _shifted(op, t):
    # A = t (H - E_0), the operator the contour rule solves with
    return t * (_reference_matrix(op) - SG.ground_energy(op) * sparse.identity(op.size, format="csc"))


@pytest.mark.parametrize("spec", _CIRCLE_POTENTIALS)
@pytest.mark.parametrize("n", [2049, 2050, 8192])
def test_cyclic_solve_residual_on_the_circle(n, spec):
    # normwise backward error of every contour solve: the residual, taken by
    # the sparse matrix, against ||z + A|| ||x|| + ||f|| (||A|| is 3.4e6 t at
    # n = 8192, so rounding alone leaves ||r|| near 1e-10 ||f|| for any solver)
    op = SG.discretize(CIRCLE, n, P.parse_potential(spec, CIRCLE))
    f = 1.0 + np.cos(2 * math.pi * np.arange(n) / n) + np.random.default_rng(n).random(n)
    for t in (0.25, 1.0):
        A = _shifted(op, t)
        s = SG.ground_energy(op)
        solve = SG._cyclic_solver(t * (op.diagonal - s), t * op.coupling, SG._CONTOUR_Z)
        norm_a = abs(A).sum(axis=1).max()
        for z, x in zip(SG._CONTOUR_Z, solve(f.astype(complex))):
            r = z * x + A @ x - f
            scale = (abs(z) + norm_a) * np.max(np.abs(x)) + np.max(np.abs(f))
            assert np.max(np.abs(r)) <= 1e-14 * scale


@pytest.mark.parametrize("spec", _CIRCLE_POTENTIALS)
@pytest.mark.parametrize("n", [2049, 2050, 8192])
def test_circle_contour_needs_no_sparse_lu(monkeypatch, n, spec):
    def refuse(*args, **kwargs):
        raise AssertionError("splu called on the circle")

    monkeypatch.setattr(SG, "_splu_solver", refuse)
    op = SG.discretize(CIRCLE, n, P.parse_potential(spec, CIRCLE))
    g = SG.semigroup_apply(op, 0.5, np.ones(op.size))
    assert np.all(np.isfinite(g)) and np.min(g) > 0.0


def _eigsh_ground_energy(op):
    # scipy's shift-invert from the ones vector, below the spectrum
    sigma = min(op.potential_floor, 0.0) - 1.0
    lam = eigsh(_reference_matrix(op), k=1, sigma=sigma, which="LM", v0=np.ones(op.size), return_eigenvectors=False)
    return float(lam[0])


def _banded_contour(op, t, f):
    # the contour rule with scipy: one banded LU per node for f and the corner
    # vector, Sherman-Morrison for the corners, E_0 from eigsh
    s = _eigsh_ground_energy(op)
    A = t * (_reference_matrix(op) - s * sparse.identity(op.size, format="csc"))
    n, c = op.size, A[0, op.size - 1]
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:], ab[2, :-1] = A.diagonal(1), A.diagonal(-1)
    diag = A.diagonal()
    diag[[0, -1]] -= c
    u = np.zeros(n)
    u[[0, -1]] = 1.0
    acc = 0
    for z, w in zip(SG._CONTOUR_Z, SG._CONTOUR_W):
        ab[1] = z + diag
        y, q = solve_banded((1, 1), ab, np.column_stack((f.astype(complex), u))).T
        acc = acc + w * (y - (c * (y[0] + y[-1]) / (1.0 + c * (q[0] + q[-1]))) * q)
    return math.exp(-t * s) * acc.imag


@pytest.mark.parametrize("spec", _CIRCLE_POTENTIALS)
def test_circle_contour_matches_the_banded_scipy_rule(spec):
    # the cyclic reduction against banded LU solves: they share the
    # conditioning floor of ||A|| = 3.4e6 t at n = 8192
    op = SG.discretize(CIRCLE, 8192, P.parse_potential(spec, CIRCLE))
    f = 1.0 + np.cos(2 * math.pi * np.arange(op.size) / op.size)
    for t in (0.25, 0.5, 1.0):
        ref = _banded_contour(op, t, f)
        assert np.max(np.abs(SG.semigroup_apply(op, t, f) - ref) / np.abs(ref)) < 1e-9


@pytest.mark.parametrize("spec", _CIRCLE_POTENTIALS)
@pytest.mark.parametrize("n", [2049, 8192])
def test_lanczos_ground_energy_matches_eigsh(n, spec):
    op = SG.discretize(CIRCLE, n, P.parse_potential(spec, CIRCLE))
    assert SG.ground_energy(op) == pytest.approx(_eigsh_ground_energy(op), rel=1e-9)


def test_torus_contour_keeps_the_sparse_lu_rule():
    # the 2-d torus result, bit for bit, of one splu per node summed over the rule
    tor = G.torus(2, 2 * math.pi)
    op = SG.discretize(tor, 48, P.cosine_potential(tor))
    f = np.random.default_rng(1).standard_normal(op.size)
    eye = sparse.identity(op.size, format="csc")
    for t in (0.1, 0.5):
        A = _shifted(op, t)
        rows = np.array([splu((z * eye + A).tocsc()).solve(f.astype(complex)) for z in SG._CONTOUR_Z])
        ref = math.exp(-t * SG.ground_energy(op)) * (SG._CONTOUR_W @ rows).imag
        assert np.array_equal(SG.semigroup_apply(op, t, f), ref)


def test_contour_matches_dense_on_2d_torus():
    tor = G.torus(2, 2 * math.pi)
    op = SG.discretize(tor, 48, P.cosine_potential(tor))
    assert op.size > SG._DENSE_LIMIT
    f = np.random.default_rng(0).standard_normal(op.size)
    lam, U = eigh(_reference_matrix(op).toarray())
    for t in (0.1, 0.5):
        ref = U @ (np.exp(-t * lam) * (U.T @ f))
        assert np.max(np.abs(SG.semigroup_apply(op, t, f) - ref)) < 1e-12


def test_semigroup_property_on_grid():
    op = SG.discretize(CIRCLE, 160, P.cosine_potential(CIRCLE))
    M = op.expm(0.2) @ op.expm(0.3) - op.expm(0.5)
    assert np.max(np.abs(M)) < 1e-10


def test_self_adjointness_weighted_pairing():
    op = SG.discretize(CIRCLE, 128, P.cosine_potential(CIRCLE))
    rng = np.random.default_rng(0)
    f, g = rng.standard_normal(128), rng.standard_normal(128)
    lhs = op.cell_volume * float(g @ SG.semigroup_apply(op, 0.3, f))
    rhs = op.cell_volume * float(f @ SG.semigroup_apply(op, 0.3, g))
    assert abs(lhs - rhs) < 1e-12


def test_q_norms_trivial_cases():
    op0 = SG.discretize(CIRCLE, 128, ZERO)
    assert SG.q_norm(op0, 0.8, np.inf) == pytest.approx(1.0, abs=1e-12)
    assert SG.q_norm(op0, 0.8, 1) == pytest.approx(1.0, abs=1e-12)
    assert SG.q_norm(op0, 0.8, 2) == pytest.approx(1.0, abs=1e-12)
    opc = SG.discretize(CIRCLE, 128, P.Constant(-1.0))
    assert SG.q_norm(opc, 0.7, np.inf) == pytest.approx(math.exp(0.7), rel=1e-12)
    assert SG.q_norm(opc, 0.7, 4) == pytest.approx(math.exp(0.7), rel=1e-11)


def test_q_between_norms_bounded_by_endpoints():
    w = P.Scale(-1.0, P.absolute(P.RadialPower(CIRCLE, G.circle_point(0.0), 0.5)))
    op = SG.discretize(CIRCLE, 192, w)
    for t in (0.3, 1.0):
        n1 = SG.q_norm(op, t, 1)
        ninf = SG.q_norm(op, t, np.inf)
        for q in (1.5, 2, 3, 4):
            assert SG.q_norm(op, t, q) <= max(n1, ninf) * (1 + 1e-10)


def test_bop_bound_constant_case_margin_log_delta():
    opc = SG.discretize(CIRCLE, 128, P.Constant(-1.0))
    bound = SG.bop_bound_check(opc, [0.0, 0.5, 1.0, 2.0], [1.5, 2.0, 4.0])
    assert bound.min_margin == pytest.approx(math.log(1.5), abs=1e-10)
    for entry in bound.table:
        assert entry["C"] == pytest.approx(1.0, abs=1e-10)
    assert bound.domination_margin >= 0.0  # equality case: w = -w_-


def test_bop_bound_spike_table_and_domination():
    spike = P.absolute(P.RadialPower(CIRCLE, G.circle_point(0.0), 0.5))
    op_minus = SG.discretize(CIRCLE, 192, P.Scale(-1.0, spike))
    mixed = P.Sum((P.cosine_potential(CIRCLE), P.Scale(-1.0, spike)))
    op_full = SG.discretize(CIRCLE, 192, mixed)
    bound = SG.bop_bound_check(op_minus, [0.0, 0.5, 1.0, 2.0], [1.5, 2.0, 4.0], op_full=op_full)
    assert op_minus.capped_nodes >= 1  # the node at the singular center got capped
    assert all(math.isfinite(e["C"]) and e["C"] >= 0 for e in bound.table)
    assert bound.min_margin >= -1e-10
    assert bound.domination_margin >= -1e-12


def test_capped_attractive_node_keeps_its_sign():
    # -|d|^(-1/2) is -inf at its center: the capped node is the bottom of the
    # well, -cap, not +cap above its neighbours
    spike = P.absolute(P.RadialPower(CIRCLE, G.circle_point(0.0), 0.5))
    op = SG.discretize(CIRCLE, 192, P.Scale(-1.0, spike))
    assert op.capped_nodes == 1 and op.cap_value > 0.0
    node0 = op.diagonal[0] - 1.0 / op.spacing**2  # minus the Laplacian's diagonal
    assert node0 == pytest.approx(-op.cap_value, rel=1e-12)
    assert op.potential_floor == -op.cap_value


def test_domination_is_equality_for_negative_part_and_positive_data():
    # w = -w_-: |e^{-tH} f| = e^{-tH} |f| whenever f >= 0
    spike = P.absolute(P.RadialPower(CIRCLE, G.circle_point(0.0), 0.5))
    op = SG.discretize(CIRCLE, 96, P.Scale(-1.0, spike))
    f = np.abs(np.sin(np.arange(96)))
    lhs = np.abs(SG.semigroup_apply(op, 0.6, f))
    rhs = SG.semigroup_apply(op, 0.6, np.abs(f))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_riesz_thorin_margins():
    opc = SG.discretize(CIRCLE, 128, P.Constant(-1.0))
    rep = SG.riesz_thorin_check(opc, 0.5, [0.25, 0.5, 0.75])
    # constant case: equality throughout
    assert rep.min_margin == pytest.approx(0.0, abs=1e-10)
    w = P.Scale(-1.0, P.absolute(P.cosine_potential(CIRCLE)))
    op = SG.discretize(CIRCLE, 160, w)
    rep2 = SG.riesz_thorin_check(op, 0.5, [0.25, 0.5, 0.75])
    assert rep2.min_margin >= -1e-10


def _expm_calls(monkeypatch) -> list:
    calls = []
    expm = SG.DiscretizedOperator.expm
    monkeypatch.setattr(SG.DiscretizedOperator, "expm", lambda op, t: calls.append(t) or expm(op, t))
    return calls


def test_q_norm_of_a_q_sequence_repeats_each_single_q(monkeypatch):
    op = SG.discretize(CIRCLE, 64, P.cosine_potential(CIRCLE))
    qs = [1, 2, 3.0, np.inf, "inf"]
    single = [SG.q_norm(op, 0.4, q) for q in qs]
    calls = _expm_calls(monkeypatch)
    assert SG.q_norm(op, 0.4, qs) == single and len(calls) == 1
    # q = 2 is spectral and t = 0 the identity: no matrix
    assert SG.q_norm(op, 0.4, [2, 2.0]) == [single[1]] * 2
    assert SG.q_norm(op, 0.0, qs) == [1.0] * len(qs)
    assert len(calls) == 1


@pytest.mark.parametrize("check, n_expm", [("semigroup-bound", 6), ("riesz-thorin", 1)])
def test_default_checks_build_each_matrix_once_per_t(check, n_expm, monkeypatch):
    # semigroup-bound: three t > 0, each one e^{-tH} for the norm table and
    # one for the domination margin, whose two sides share one operator;
    # riesz-thorin: one t
    calls = _expm_calls(monkeypatch)
    (result,) = cli.run_manifest(cli.ExperimentManifest(manifold="circle", checks=[check])).checks
    assert result.passed and len(calls) == n_expm


def test_domination_margin_of_two_operators_repeats_semigroup_apply(monkeypatch):
    # with op_full given, each t builds one matrix per operator
    spike = P.absolute(P.RadialPower(CIRCLE, G.circle_point(0.0), 0.5))
    op_minus = SG.discretize(CIRCLE, 96, P.Scale(-1.0, spike))
    op_full = SG.discretize(CIRCLE, 96, P.Sum((P.cosine_potential(CIRCLE), P.Scale(-1.0, spike))))
    ts = [0.0, 0.5, 1.0]
    rng = np.random.default_rng(7)
    fs = [rng.standard_normal(96) for _ in range(4)]
    want = min(
        float(np.min(SG.semigroup_apply(op_minus, t, np.abs(f)) - np.abs(SG.semigroup_apply(op_full, t, f))))
        for t in ts[1:]
        for f in fs
    )
    calls = _expm_calls(monkeypatch)
    assert SG._domination_margin(op_minus, op_full, ts, 7) == (want, None) and len(calls) == 4


def test_torus_discretization():
    tor = G.torus(2, 2 * math.pi)
    op = SG.discretize(tor, 24, ZERO)
    assert op.size == 576
    lam, _ = op.eig()
    assert lam[0] == pytest.approx(0.0, abs=1e-10)
    assert SG.q_norm(op, 0.5, np.inf) == pytest.approx(1.0, abs=1e-12)


def test_discretize_validation():
    with pytest.raises(DomainError):
        SG.discretize(CIRCLE, 4, ZERO)
    with pytest.raises(UnsupportedModelError):
        SG.discretize(G.sphere2(), 32, ZERO)
    with pytest.raises(UnsupportedModelError):
        SG.discretize(G.euclidean(2), 32, ZERO)


def _stencil_csr(op):
    # the operator's diagonal and neighbour couplings as one CSR matrix
    rows, cols = op.neighbours()
    idx = np.arange(op.size)
    data = np.concatenate([op.diagonal, np.full(rows.size, op.coupling)])
    return sparse.csr_matrix((data, (np.concatenate([idx, rows]), np.concatenate([idx, cols]))), shape=(op.size,) * 2)


@pytest.mark.parametrize("n", [8, 9, 192, 8192])
def test_periodic_second_difference_equals_the_lil_build(n):
    # with no potential H is half the LIL-built second difference, entry by
    # entry; on the torus its Kronecker sum
    models = [CIRCLE] + ([G.torus(2, 2 * math.pi)] if n <= 192 else [])
    for model in models:
        op = SG.discretize(model, n, ZERO)
        ref = _lil_operator(op).tocsr()
        got = _stencil_csr(op)
        assert got.shape == ref.shape and got.nnz == ref.nnz == op.size * (1 + 2 * model.dim)
        assert (got != ref).nnz == 0
        if op.size <= SG._DENSE_LIMIT:  # the matrix the dense path diagonalizes
            assert np.array_equal(op.dense(), ref.toarray())


def _manifest_check(check, params=None):
    manifest = cli.ExperimentManifest(manifold="circle", checks=[check], params={check: params or {}})
    (result,) = cli.run_manifest(manifest).checks
    return result


def test_a_nan_norm_fails_semigroup_bound_with_its_reason(monkeypatch):
    # the builtin min skipped a NaN q = 4 norm, and the check PASSed with margin 0.1502
    q_norm = SG.q_norm
    monkeypatch.setattr(SG, "q_norm", lambda op, t, qs: [math.nan if q == 4 else v
                                                          for q, v in zip(qs, q_norm(op, t, qs))])
    result = _manifest_check("semigroup-bound")
    assert not result.passed and math.isnan(result.margin_min)
    assert result.to_dict()["values"]["reasons"] == ["margin at q=4 is NaN"]


def test_a_nan_propagated_vector_fails_semigroup_bound_with_its_reason(monkeypatch):
    propagate = SG._propagate

    def poisoned(op, t, fs):
        images = propagate(op, t, fs)
        images[0][3] = math.nan
        return images

    monkeypatch.setattr(SG, "_propagate", poisoned)
    result = _manifest_check("semigroup-bound")
    assert not result.passed and math.isnan(result.values.domination_margin)
    assert result.values.reasons == ["domination margin is NaN"]


def test_nan_interpolated_norms_fail_riesz_thorin_with_their_reason(monkeypatch):
    # every interpolated norm NaN once gave PASS with margin_min = inf
    monkeypatch.setattr(SG, "_boyd_q_norm", lambda M, q: math.nan)
    result = _manifest_check("riesz-thorin")
    assert not result.passed and math.isnan(result.margin_min)
    assert result.to_dict()["values"]["reasons"] == ["margin at r=0.25 is NaN"]


def test_reports_without_a_nan_carry_no_reasons():
    for check in ("semigroup-bound", "riesz-thorin"):
        result = _manifest_check(check)
        assert result.passed and "reasons" not in result.to_dict()["values"]
