import math

import numpy as np
import pytest

from heatkato import geometry as G
from heatkato import heat_kernel as HK
from heatkato import mvi as M
from heatkato.errors import DomainError, UnsupportedModelError

E2 = G.euclidean(2)
E3 = G.euclidean(3)


def test_config_validation():
    a = M.faber_krahn_constant(2)
    with pytest.raises(DomainError):
        M.MviSweepConfig(E2, G.base_point(E2), 1.0, a, (2.0,), (2.5,), (1.0,))  # tau > r^2
    with pytest.raises(DomainError):
        M.MviSweepConfig(E2, G.base_point(E2), 1.0, a, (0.5,), (1.0,), (3.0,))  # q > 2
    with pytest.raises(UnsupportedModelError):
        M.MviSweepConfig(G.sphere2(), G.base_point(G.sphere2()), 1.0, a, (0.5,), (1.0,), (1.5,))


@pytest.mark.parametrize("m", [2, 3])
def test_sweep_stable_and_finite(m):
    model = G.euclidean(m)
    a = M.faber_krahn_constant(m)
    rep = M.mvi_sweep(M.default_config(model, a))
    assert math.isfinite(rep.c_emp) and rep.c_emp > 0
    assert rep.stable and rep.drift <= 0.10
    assert rep.n_cells > 0


def test_tau_refinement_does_not_drift():
    # adding smaller-tau cells never inflates the sup (ratios shrink with tau)
    a = M.faber_krahn_constant(3)
    base = M.default_config(E3, a)
    refined = M.MviSweepConfig(
        base.model, base.center, base.radius, base.a,
        base.tau_values + tuple(t / 2 for t in base.tau_values),
        base.t_values, base.q_values,
    )
    r1 = M.mvi_sweep(base)
    r2 = M.mvi_sweep(refined)
    assert abs(r2.c_emp - r1.c_emp) / r1.c_emp <= 0.10


def test_sweep_enlargement_monotone():
    a = M.faber_krahn_constant(2)
    small = M.MviSweepConfig(E2, G.base_point(E2), 1.0, a, (1.0, 0.5), (1.25, 2.0), (1.0, 2.0))
    large = M.MviSweepConfig(
        E2, G.base_point(E2), 1.0, a, (1.0, 0.5, 0.25), (1.25, 2.0, 4.0), (1.0, 1.5, 2.0)
    )
    r_small = M.mvi_sweep(small)
    r_large = M.mvi_sweep(large)
    assert r_large.c_emp >= r_small.c_emp - 1e-12


def test_vanishing_solution_cells_are_skipped():
    # a source far beyond the kernel reach makes u(t, x) underflow to zero;
    # those cells contribute nothing rather than a 0/0 ratio
    a = M.faber_krahn_constant(2)
    near = M.MviSweepConfig(E2, G.base_point(E2), 1.0, a, (1.0,), (1.25,), (1.0,),
                            source_offsets=(0.0,))
    far = M.MviSweepConfig(E2, G.base_point(E2), 1.0, a, (1.0,), (1.25,), (1.0,),
                           source_offsets=(0.0, 60.0))
    r_near = M.mvi_sweep(near)
    r_far = M.mvi_sweep(far)
    assert r_far.n_cells == r_near.n_cells  # the distant source was skipped
    assert r_far.c_emp == pytest.approx(r_near.c_emp, rel=1e-12)


def test_per_cell_ratios_below_c_emp():
    a = M.faber_krahn_constant(2)
    cfg = M.default_config(E2, a)
    rep = M.mvi_sweep(cfg)
    assert rep.worst_cell["ratio"] == pytest.approx(rep.c_emp, rel=1e-9)
    assert rep.worst_cell["q"] in cfg.q_values


def test_a_nan_cell_makes_c_emp_nan(monkeypatch):
    # the second cylinder integral's first q made NaN: the sweep's "ratio >
    # best" once skipped that cell and reported c_emp 3.699348891233105 over
    # 24 cells, stable, so mvi-sweep PASSed
    cylinder, calls = M._cylinder_integral, []

    def nan_in_second_call(*args):
        out = cylinder(*args)
        calls.append(None)
        if len(calls) == 2:
            out[0] = math.nan
        return out

    monkeypatch.setattr(M, "_cylinder_integral", nan_in_second_call)
    cfg = M.MviSweepConfig(E2, G.base_point(E2), 1.0, M.faber_krahn_constant(2), (1.0, 0.5), (1.25, 2.0), (1.0, 2.0))
    rep = M.mvi_sweep(cfg)
    assert math.isnan(rep.c_emp) and rep.n_cells == 24 and not rep.stable


def test_heat_bound_flat_closed_form():
    eng = HK.make_engine(E3)
    a = M.faber_krahn_constant(3)
    rep = M.heat_bound_sweep(eng, lambda x: 1.0, a, np.logspace(-3, 0, 20), [G.base_point(E3)])
    # for t <= R^2 the ratio is exactly (2 pi)^{-3/2} a^{3/2}, t-independent
    assert rep.c_hat == pytest.approx((2 * math.pi) ** -1.5 * a**1.5, rel=1e-12)
    assert rep.stable


def test_heat_bound_long_time_regime():
    eng = HK.make_engine(E3)
    a = M.faber_krahn_constant(3)
    R = 0.5
    ts = np.logspace(-1, 1, 15)  # includes t >> R^2
    rep = M.heat_bound_sweep(eng, lambda x: R, a, ts, [G.base_point(E3)])
    # beyond t = R^2 the ratio decreases on flat space (kernel sup falls, min saturates)
    assert rep.c_hat == pytest.approx(
        HK.on_diag(eng, R * R) * a**1.5 * R**3, rel=0.15
    )
    assert rep.stable


def test_heat_bound_torus_long_time():
    tor = G.torus(2, 2 * math.pi)
    eng = HK.make_engine(tor)
    a = M.faber_krahn_constant(2)
    rep = M.heat_bound_sweep(eng, lambda x: math.pi / 2, a, np.logspace(-2, 2, 25),
                             [G.base_point(tor)])
    assert math.isfinite(rep.c_hat) and rep.stable
    # long-time limit: p -> 1/vol, min(t,R^2) -> R^2
    limit = (1.0 / (2 * math.pi) ** 2) * a * (math.pi / 2) ** 2
    assert rep.c_hat >= limit - 1e-12


def test_chain_inequality_exact_arithmetic():
    # min(t,R^2)^{-m/2} <= t^{-m/2} + R^{-m} <= R^{-m}(t^{-m/2} sup R^m + 1)
    rng = np.random.default_rng(8)
    m = 3
    sup_R = 2.0
    for _ in range(200):
        t = float(rng.uniform(1e-4, 10.0))
        R = float(rng.uniform(0.1, sup_R))
        lhs = min(t, R * R) ** (-m / 2)
        mid = t ** (-m / 2) + R ** (-m)
        rhs = R ** (-m) * (t ** (-m / 2) * sup_R**m + 1.0)
        assert lhs <= mid <= rhs
