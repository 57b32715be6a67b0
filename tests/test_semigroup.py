import math

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from heatkato import geometry as G
from heatkato import heat_kernel as HK
from heatkato import potentials as P
from heatkato import semigroup as SG
from heatkato.errors import DomainError, UnsupportedModelError

CIRCLE = G.circle()
ZERO = P.Sum(())


def test_free_laplacian_spectrum_and_row_sums():
    op = SG.discretize(CIRCLE, 128, ZERO)
    lam, _ = op.eig()
    assert lam[0] == pytest.approx(0.0, abs=1e-11)  # constants in the kernel
    # discrete dispersion: lambda_k = (1 - cos(k dx)) / dx^2
    dx = op.spacing
    expected = sorted((1 - math.cos(k * dx)) / dx**2 for k in range(-64, 64))
    assert np.allclose(sorted(lam), expected[:128], atol=1e-8)
    # pure-Laplacian rows sum to zero
    lap = op.matrix - 0 * op.matrix
    assert np.max(np.abs(lap.sum(axis=1))) < 1e-9


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
def test_lanczos_free_cosine_mode_closed_form(t):
    n, k = 4096, 3  # above the dense limit, so e^{-tH} f runs through Lanczos
    op = SG.discretize(CIRCLE, n, ZERO)
    theta = 2 * math.pi * np.arange(n) / n
    got = SG.semigroup_apply(op, t, 1 + np.cos(k * theta))
    lam_k = (1 - math.cos(2 * math.pi * k / n)) / op.spacing**2
    exact = 1 + math.exp(-t * lam_k) * np.cos(k * theta)
    assert np.max(np.abs(got - exact) / np.abs(exact)) < 1e-9


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_lanczos_matches_spectral_sum_on_cosine_operator(t):
    op = SG.discretize(CIRCLE, 8192, P.cosine_potential(CIRCLE))
    ones = np.ones(op.size)
    got = SG.semigroup_apply(op, t, ones)
    sigma = op.potential_floor - 1.0
    lam, V = eigsh(op.matrix.tocsc(), k=60, sigma=sigma, which="LM", v0=ones)
    ref = V @ (np.exp(-t * lam) * (V.T @ ones))  # modes past the 60th weigh < e^{-110}
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-8


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
