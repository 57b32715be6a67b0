"""Acceptance battery: one test per criterion, each printing a pass/fail line
with its runtime against the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import jn_zeros

from heatkato import geometry as G
from heatkato import heat_kernel as HK
from heatkato import kato as K
from heatkato import mvi as M
from heatkato import potentials as P
from heatkato import semigroup as SG
from heatkato import stochastics as S

SIX_MODELS = [
    "euclidean:2",
    "torus:2:6.283185307179586",
    "circle",
    "sphere2",
    "hyperbolic3",
    "product(euclidean:1,circle)",
]

_results = []


class criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        line = f"[criterion {self.number:2d}] {status}  {self.label}  ({dt:.1f}s / budget {self.budget:.0f}s)"
        print(line)
        _results.append(line)
        if exc_type is None:
            assert dt < self.budget, f"criterion {self.number} exceeded its runtime budget: {dt:.1f}s"
        return False


def test_criterion_1_kernel_consistency():
    with criterion(1, "kernel symmetry / Chapman-Kolmogorov / mass on all six models", 30):
        rng = np.random.default_rng(101)
        for spec in SIX_MODELS:
            model = G.parse_manifold(spec)
            eng = HK.make_engine(model)
            pts = [G.random_point(model, rng, 1.0) for _ in range(4)]
            rep = HK.check_consistency(eng, [0.05, 0.2, 0.7], pts)
            closed = eng.method is HK.Method.CLOSED_FORM or (
                eng.method is HK.Method.PRODUCT_RULE
                and all(f.method is HK.Method.CLOSED_FORM for f in eng.factors)
            )
            ck_tol = 1e-6 if closed else 1e-4
            assert rep.ck_residual < ck_tol, spec
            assert rep.mass_defect < 1e-6, spec
            if closed:
                assert rep.symmetry_residual == 0.0, spec
            else:
                assert rep.symmetry_residual <= max(rep.truncation_bound, 1e-13), spec


def test_criterion_2_control_pairs():
    with criterion(2, "on-diagonal and volume control pairs + exact certificates", 60):
        e3 = HK.make_engine(G.euclidean(3))
        pair = K.control_pair_from_on_diag(e3)
        assert abs(pair.constants["C"] - (2 * math.pi) ** -1.5) < 1e-15
        for q in (1.6, 2.0, 2.5, 5.0):
            cert = K.certificate(pair, q)
            assert abs(cert - 1.0 / (1.0 - 3.0 / (2.0 * q))) < 1e-12
        # near the admissible edge the certificate is large; float evaluation
        # of the integrand caps the achievable ABSOLUTE accuracy, so check
        # relative accuracy there
        edge = K.certificate(pair, 1.51)
        exact = 1.0 / (1.0 - 3.0 / (2.0 * 1.51))
        assert abs(edge - exact) / exact < 1e-12
        h3 = G.hyperbolic3()
        engh = HK.make_engine(h3)
        ts = np.logspace(-4, 0, 50)
        liyau = K.control_pair_li_yau(engh, t_values=ts)
        ver = K.verify_control_pair(engh, liyau, ts, [G.base_point(h3)])
        assert ver.min_margin >= 0.0
        assert K.doubling_check(h3) >= 0.0


def test_criterion_3_holder_battery():
    with criterion(3, "weighted-L^q smoothing bound battery (>=5 pots x 3 models x 3 q x 10 s)", 300):
        count = 0
        for spec in ("euclidean:2", "euclidean:3", "hyperbolic3"):
            model = G.parse_manifold(spec)
            eng = HK.make_engine(model)
            m = model.dim
            o = G.base_point(model)
            control = K.control_pair_from_on_diag(eng)
            ball = G.BallWindow(o, 1.5)
            battery = [
                P.Sum(()),
                P.Windowed(model, P.Constant(2.0), ball),
                P.Indicator(model, G.BallWindow(o, 1.0)),
                P.Indicator(model, G.BallWindow(o, 0.3)),
                P.Windowed(model, P.RadialPower(model, o, 0.35), ball),
            ]
            if P._coulomb_supported(model):
                battery.append(P.Windowed(model, P.make_coulomb_potential(model, o), ball))
            ss = np.logspace(-3, 0, 10)
            off = np.zeros(model.tangent_dim)
            off[0] = 0.8
            xs = [o, G.exp_map(model, o, off)]
            for w in battery:
                for q in (m / 2 + 0.1, 2.0, 5.0):
                    rep = K.holder_bound_check(eng, control, w, q, ss, xs)
                    assert rep.passed, (spec, type(w).__name__, q, rep.min_margin)
                    count += 1
        assert count >= 5 * 3 * 3


def test_criterion_4_faber_krahn():
    with criterion(4, "disk eigenvalue 0.5%, FK margins on 10 sets, heat-bound stability", 300):
        e2, e3 = G.euclidean(2), G.euclidean(3)
        o2, o3 = G.base_point(e2), G.base_point(e3)
        exact = float(jn_zeros(0, 1)[0]) ** 2 / 2.0
        res = M.dirichlet_ground_energy(e2, G.BallWindow(o2, 1.0), 1 / 48, refinements=1)
        assert res.converged
        assert abs(res.value - exact) / exact < 0.005
        # equality case: sharp constant gives |margin| within the FD gap on the disk
        a2, a3 = M.faber_krahn_constant(2), M.faber_krahn_constant(3)
        eq = M.faber_krahn_verify(e2, lambda x: 2.5, a2, [(o2, G.BallWindow(o2, 1.0))], h=1 / 48)
        assert abs(eq.details[0]["margin"]) <= eq.details[0]["fd_gap"] + 1e-9
        # strict margins on 10 sets with one percent of slack on the constant
        s = math.sqrt(math.pi) / 2
        sets2 = [
            (o2, G.BallWindow(o2, 1.0)),
            (o2, G.BallWindow(o2, 0.5)),
            (o2, G.BallWindow(o2, 0.75)),
            (o2, G.BoxWindow(o2, (s, s))),
            (o2, G.BoxWindow(o2, (0.8, 0.4))),
            (o2, G.BoxWindow(o2, (1.2, 0.3))),
            (o2, G.BoxWindow(o2, (0.6, 0.6))),
            (o2, G.BallWindow(o2, 1.4)),
        ]
        rep2 = M.faber_krahn_verify(e2, lambda x: 2.5, 0.99 * a2, sets2, h=1 / 48)
        assert not rep2.inconclusive and rep2.min_margin >= 0.0
        sets3 = [(o3, G.BallWindow(o3, 1.0)), (o3, G.BoxWindow(o3, (0.7, 0.7, 0.7)))]
        rep3 = M.faber_krahn_verify(e3, lambda x: 2.0, 0.99 * a3, sets3, h=1 / 12)
        assert not rep3.inconclusive and rep3.min_margin >= 0.0
        assert len(sets2) + len(sets3) == 10
        # heat-bound constant stable under sweep doubling
        for model, a in ((e2, a2), (e3, a3)):
            eng = HK.make_engine(model)
            hb = M.heat_bound_sweep(eng, lambda x: 1.0, a, np.logspace(-3, 0.5, 20),
                                    [G.base_point(model)])
            assert hb.stable and hb.drift <= 0.10


def test_criterion_5_kato_verdicts():
    with criterion(5, "is-kato verdicts + classical h_m agreement (100%)", 300):
        e3 = G.euclidean(3)
        eng3 = HK.make_engine(e3)
        o3 = G.base_point(e3)
        ts = np.logspace(-3, math.log10(0.5), 6)
        _, v = K.is_kato(eng3, P.Constant(2.0), ts)
        assert v.passed
        _, v = K.is_kato(eng3, P.make_coulomb_potential(e3, o3), ts)
        assert v.passed and abs(v.gamma - 0.5) <= 0.1
        for beta in (0.5, 1.5):
            _, v = K.is_kato(eng3, P.RadialPower(e3, o3, beta), ts)
            assert v.passed, beta
        _, v = K.is_kato(eng3, P.RadialPower(e3, o3, 2.0), ts)
        assert not v.passed
        # classical characterization agrees on the whole Euclidean battery
        e2 = G.euclidean(2)
        o2 = G.base_point(e2)
        battery = [
            (e3, P.Constant(1.0)),
            (e3, P.RadialPower(e3, o3, 0.5)),
            (e3, P.RadialPower(e3, o3, 1.0)),
            (e3, P.RadialPower(e3, o3, 1.5)),
            (e3, P.RadialPower(e3, o3, 2.0)),
            (e3, P.Indicator(e3, G.BallWindow(o3, 1.0))),
            (e2, P.RadialPower(e2, o2, 1.0)),
            (e2, P.RadialPower(e2, o2, 2.0)),
        ]
        rs = np.logspace(-2.5, -0.5, 5)
        for model, w in battery:
            eng = HK.make_engine(model)
            _, verdict = K.is_kato(eng, w, ts)
            _, _, classical = K.classical_is_kato(model, w, rs)
            assert verdict.passed == classical, (model.describe(), type(w).__name__)


def test_criterion_6_stochastics():
    with criterion(6, "fdd z<4 at N=1e5 h=1e-3; sphere eigen-decay; projection defect", 600):
        N, h = 100_000, 1e-3
        # circle
        c = G.circle()
        ens = S.simulate(c, G.circle_point(0.3), 0.5, h, N, seed=11, record_times=[0.2, 0.5])
        rep = S.fdd_check(ens, [0.2, 0.5], [
            [lambda ch: np.cos(ch[:, 0]), lambda ch: np.sin(ch[:, 0])],
            [lambda ch: np.ones(ch.shape[0]), lambda ch: np.cos(ch[:, 0])],
        ])
        assert rep.max_abs_z < 4.0
        # euclidean plane
        e2 = G.euclidean(2)
        ens = S.simulate(e2, G.base_point(e2), 0.5, h, N, seed=12, record_times=[0.5])
        rep = S.fdd_check(ens, [0.5], [
            [lambda ch: ch[:, 0]],
            [lambda ch: np.exp(-np.sum(ch**2, axis=1))],
        ])
        assert rep.max_abs_z < 4.0
        # sphere: fdd plus the first-eigenfunction decay E[cos d] = e^{-t}
        s2 = G.sphere2()
        t = 0.5
        ens = S.simulate(s2, G.base_point(s2), t, h, N, seed=13, record_times=[t])
        z = ens.chart_at(len(ens.record_times) - 1)[:, 2]
        se = z.std(ddof=1) / math.sqrt(N)
        assert abs(z.mean() - math.exp(-t)) < 4.0 * se
        rep = S.fdd_check(ens, [t], [[lambda ch: (ch[:, 2] >= 0).astype(float)]])
        assert rep.max_abs_z < 4.0
        # projection equality defect on E3 x E3
        prod = G.parse_manifold("product(euclidean:3,euclidean:3)")
        leaf = P.leaves(prod)[0][0]
        w = P.Indicator(leaf, G.BallWindow(G.base_point(leaf), 1.0))
        prep = S.elworthy_projection_check(prod, 0, w, 0.3, G.base_point(prod),
                                           N=20000, h=2e-3, seed=14)
        assert abs(prep.defect) <= prep.quad_tolerance + 3.0 * (prep.mc_std_error or 0.0)
        assert prep.passed and abs(prep.mc_z) < 4.0


def test_criterion_7_feynman_kac_vs_spectral():
    with criterion(7, "Feynman-Kac MC within 4 sigma of matrix exponential; n-doubling < 1e-6", 300):
        c = G.circle()
        w = P.cosine_potential(c)
        ens = S.simulate(c, G.circle_point(0.0), 1.0, 2e-3, 20000, seed=21)
        op_a = SG.discretize(c, 4096, w)
        op_b = SG.discretize(c, 8192, w)
        ones_a = np.ones(op_a.size)
        ones_b = np.ones(op_b.size)
        for t in (0.25, 0.5, 1.0):
            est = S.feynman_kac(ens.truncated(t), w)
            va = float(SG.semigroup_apply(op_a, t, ones_a)[0])
            vb = float(SG.semigroup_apply(op_b, t, ones_b)[0])
            assert abs(va - vb) < 1e-6
            assert abs(est.value - vb) < 4.0 * est.std_error


def test_criterion_8_appendix_bound():
    with criterion(8, "delta e^{tC} norm bounds, exact constant case, Riesz-Thorin", 120):
        circle = G.circle()
        ts = [0.0, 0.5, 1.0, 2.0]
        deltas = [1.5, 2.0, 4.0]
        qs = (1, 2, 4, np.inf)
        spike = P.absolute(P.RadialPower(circle, G.circle_point(0.0), 0.5))
        for name, w_minus in (("zero", P.Sum(())), ("one", P.Constant(1.0)), ("spike", spike)):
            op = SG.discretize(circle, 192, P.Scale(-1.0, w_minus))
            bound = SG.bop_bound_check(op, ts, deltas, qs=qs)
            assert bound.min_margin >= -1e-10, name
            assert bound.domination_margin >= -1e-12, name
            if name == "one":
                assert bound.min_margin == pytest.approx(math.log(1.5), abs=1e-10)
                for e in bound.table:
                    assert e["C"] == pytest.approx(1.0, abs=1e-10)
            if name == "zero":
                assert all(e["C"] == 0.0 for e in bound.table)
            rt = SG.riesz_thorin_check(op, 0.5, [0.25, 0.5, 0.75])
            assert rt.min_margin >= -1e-10, name


def test_criterion_9_mvi():
    with criterion(9, "parabolic MVI constant stable under refinement, q in {1,1.5,2}, m in {2,3}", 300):
        for m in (2, 3):
            model = G.euclidean(m)
            a = M.faber_krahn_constant(m)
            cfg = M.default_config(model, a)
            assert set(cfg.q_values) == {1.0, 1.5, 2.0}
            rep = M.mvi_sweep(cfg)
            assert math.isfinite(rep.c_emp) and rep.c_emp > 0
            assert rep.drift <= 0.10  # quadrature refinement
            finer = M.MviSweepConfig(
                cfg.model, cfg.center, cfg.radius, cfg.a,
                cfg.tau_values + tuple(tau / 2 for tau in cfg.tau_values),
                cfg.t_values, cfg.q_values,
            )
            rep2 = M.mvi_sweep(finer)
            assert abs(rep2.c_emp - rep.c_emp) / rep.c_emp <= 0.10  # tau-halving


def test_criterion_10_coulomb():
    with criterion(10, "Coulomb quadrature 1e-6 relative; V(.,y) in the Kato class", 60):
        e3 = G.euclidean(3)
        eng = HK.make_engine(e3)
        o = G.base_point(e3)
        for r in (0.1, 1.0, 10.0):
            got = P.coulomb(eng, o, G.make_point(e3, [r, 0, 0]), tol=1e-8)
            exact = 1.0 / (4.0 * math.pi * r)
            assert abs(got.value - exact) / exact < 1e-6
        ts = np.logspace(-3, math.log10(0.5), 6)
        _, verdict = K.is_kato(eng, P.make_coulomb_potential(e3, o), ts)
        assert verdict.passed
        assert abs(verdict.gamma - 0.5) <= 0.1


def test_zzz_print_summary():
    print()
    for line in _results:
        print(line)
    assert len(_results) == 10
