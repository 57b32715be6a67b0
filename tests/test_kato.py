import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad
from scipy.sparse.linalg import eigsh
from scipy.optimize import brentq
from scipy.special import erf, gamma, jn_zeros, jv, roots_jacobi
from scipy.stats import chi2, ncx2

from heatkato import cli
from heatkato import geometry as G
from heatkato import heat_kernel as HK
from heatkato import kato as K
from heatkato import mvi as M
from heatkato import potentials as P
from heatkato import quadrature as Q
from heatkato.errors import ConvergenceError, DomainError, UnsupportedModelError

E3 = G.euclidean(3)
ORIGIN = G.base_point(E3)
ENG3 = HK.make_engine(E3)


def coulomb_kato_oracle(t):
    # N(t) = int_0^t E|B_s|^{-1} ds with E|B_s|^{-1} = sqrt(2/(pi s))
    val, _ = quad(lambda s: math.sqrt(2 / (math.pi * s)), 0, t)
    return val


def test_smoothed_abs_matches_first_moment_oracle():
    w = P.RadialPower(E3, ORIGIN, 1.0)
    for s in (1e-6, 1e-3, 0.3):
        sv = P.smoothed_abs(ENG3, w, s, ORIGIN)
        assert sv.value == pytest.approx(math.sqrt(2 / (math.pi * s)), rel=2e-5)


# closed forms of the smoothing integral on R^3 at s in [1e-9, 1]; each bound
# is the largest error the rule built once per s showed on these rows
ORACLE_S = np.logspace(-9, 0, 10)


def _smoothed_at(w, d):
    return P.smoothed_abs(ENG3, w, ORACLE_S, G.make_point(E3, [d, 0.0, 0.0])).value


@pytest.mark.parametrize("d", [2e-3, 0.05, 0.5, 2.0])
def test_batched_rule_matches_coulomb_oracle(d):
    # E 1/(4 pi |x + B_s|) = erf(d / sqrt(2s)) / (4 pi d); at d = 2e-3 the
    # kernel still weighs the nodes between the rows' excision radii
    got = _smoothed_at(P.RadialPower(E3, ORIGIN, 1.0, 1.0 / (4.0 * math.pi)), d)
    ref = erf(d / np.sqrt(2.0 * ORACLE_S)) / (4.0 * math.pi * d)
    assert np.max(np.abs(got / ref - 1.0)) <= 5.3e-5


@pytest.mark.parametrize("beta", [0.5, 1.5, 2.5])
def test_batched_rule_matches_power_moment_oracle(beta):
    # E |B_s|^-beta = (2s)^(-beta/2) Gamma((3 - beta)/2) / Gamma(3/2)
    got = _smoothed_at(P.RadialPower(E3, ORIGIN, beta), 0.0)
    ref = (2.0 * ORACLE_S) ** (-beta / 2.0) * gamma((3.0 - beta) / 2.0) / gamma(1.5)
    assert np.max(np.abs(got / ref - 1.0)) <= 1.2e-5


@pytest.mark.parametrize("d", [0.0, 0.05])
def test_batched_rule_matches_ball_probability_oracle(d):
    # P(|x + B_s| <= R): |x + B_s|^2 / s is chi-square with 3 degrees of
    # freedom, noncentral with d^2 / s
    R = 0.3
    got = _smoothed_at(P.Indicator(E3, G.BallWindow(ORIGIN, R)), d)
    ref = chi2.cdf(R * R / ORACLE_S, 3) if d == 0.0 else ncx2.cdf(R * R / ORACLE_S, 3, d * d / ORACLE_S)
    assert np.max(np.abs(got - ref)) <= 6.3e-4


CIRCLE = G.circle()
ENG_CIRCLE = HK.make_engine(CIRCLE)


def _circle_smoothing_by_quad(s, d, beta):
    """int p(s, x, y) d(y, c)^-beta dy by scalar quad in the angle of y, x at
    angle 0 and c at angle d, split at x, at c and at c's antipode; the pieces
    that end at c take the endpoint power as a quad weight."""
    kernel = lambda phi: float(HK.eval_radial(ENG_CIRCLE, s, np.array([abs(phi)]))[0])
    to_c = lambda phi: abs((phi - d + math.pi) % (2.0 * math.pi) - math.pi)
    pts = sorted({-math.pi, 0.0, d, d - math.pi, math.pi})
    opts = dict(epsabs=0.0, epsrel=1e-12, limit=500)
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if min(to_c(a), to_c(b)) < 1e-12:
            wvar = (-beta, 0.0) if to_c(a) < to_c(b) else (0.0, -beta)
            total += quad(kernel, a, b, weight="alg", wvar=wvar, **opts)[0]
        else:
            total += quad(lambda phi: kernel(phi) * to_c(phi) ** -beta, a, b, **opts)[0]
    return total


@pytest.mark.parametrize("d", [2.0, math.pi - 1e-3, math.pi])
@pytest.mark.parametrize("s", [1e-3, 0.1])
def test_circle_smoothing_matches_quad(d, s):
    # the folded far side of the 1-d rule resolves the kernel at its own
    # scale; a rule with break points at fixed offsets was 4.4e-5 off at
    # s = 1e-3
    w = P.RadialPower(CIRCLE, G.circle_point(d), 0.5)
    got = P.smoothed_abs(ENG_CIRCLE, w, s, G.circle_point(0.0)).value
    assert abs(got / _circle_smoothing_by_quad(s, d, 0.5) - 1.0) <= 1e-5


def test_is_kato_builds_few_two_point_rules(monkeypatch):
    # one rule per x-sample serves the s-nodes of the whole sweep
    calls = []
    rule = Q.two_point_integral
    monkeypatch.setattr(Q, "two_point_integral", lambda *a, **k: calls.append(1) or rule(*a, **k))
    K.is_kato(ENG3, P.RadialPower(E3, ORIGIN, 1.0), TS)
    n_x = len(K._center_and_offsets(P.RadialPower(E3, ORIGIN, 1.0), E3, (0.5, 1.5)))
    assert 0 < len(calls) <= n_x


def test_is_kato_smooths_each_distinct_x_once(monkeypatch):
    # the offsets 0.5 and 1.5 reach one point of a unit-period torus, so the
    # sweep smooths the center and one offset, and keeps the same curve
    torus = G.parse_manifold("torus:3:1")
    eng, w, ts = HK.make_engine(torus), P.RadialPower(torus, G.base_point(torus), 1.0), [0.1, 0.01, 1e-3]
    calls = []
    smoothed = K.smoothed_abs
    monkeypatch.setattr(K, "smoothed_abs", lambda *a, **k: calls.append(a[3]) or smoothed(*a, **k))
    curve, _ = K.is_kato(eng, w, ts)
    assert len(calls) == 2 and G.distance(torus, calls[0], calls[1]) == 0.5
    twice = max((K._kato_ladder(eng, w, curve.t_values, x, 1e-9) for x in calls + calls[1:]),
                key=lambda c: c[0][0])
    assert np.array_equal(curve.values, twice[0])


@pytest.mark.parametrize("spec", ["euclidean:3", "hyperbolic3"])
def test_windowed_constant_takes_the_two_point_rule(spec):
    # Windowed(Constant(2), ball) and Scale(2, Indicator(ball)) are one function
    model = G.parse_manifold(spec)
    eng = HK.make_engine(model)
    o = G.base_point(model)
    ss = np.array([1e-3, 1e-2])
    for R in (0.3, 1.5):
        ball = G.BallWindow(o, R)
        windowed = P.Windowed(model, P.Constant(2.0), ball)
        scaled = P.Scale(2.0, P.Indicator(model, ball))
        for d in (0.9 * R, R, 1.1 * R):
            off = np.zeros(model.tangent_dim)
            off[0] = d
            x = G.exp_map(model, o, off)
            got = P.smoothed_abs(eng, windowed, ss, x).value
            ref = P.smoothed_abs(eng, scaled, ss, x).value
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), (R, d, got, ref)


def test_default_grid_and_pair_are_built_once_and_read_only():
    w = P.RadialPower(E3, ORIGIN, 0.5)
    grid = P._default_y_grid(ENG3, w, 1.0, [ORIGIN])
    assert P._default_y_grid(ENG3, w, 1.0, [ORIGIN]) is grid
    with pytest.raises(ValueError):
        grid.weights[0] = 1.0
    pair = K.control_pair_from_on_diag(HK.make_engine(E3))
    assert K.control_pair_from_on_diag(HK.make_engine(E3)) is pair
    with pytest.raises(TypeError):
        pair.constants["C"] = 0.0
    with pytest.raises(TypeError):
        pair.certificates[2.0] = 0.0
    fresh = K.control_pair_from_on_diag(ENG3, np.logspace(-4, 0, 60))
    assert dict(pair.constants) == fresh.constants and dict(pair.certificates) == fresh.certificates


def test_smoothed_abs_takes_one_s_or_an_array():
    w = P.RadialPower(E3, ORIGIN, 1.0)
    one = P.smoothed_abs(ENG3, w, 1e-3, ORIGIN)
    assert isinstance(one.value, float) and isinstance(one.tail_bound, float)
    batch = P.smoothed_abs(ENG3, w, np.array([1e-3]), ORIGIN)
    assert batch.value.shape == (1,) and batch.value[0] == one.value
    assert P.smoothed_abs(ENG3, w, np.array([]), ORIGIN).value.shape == (0,)


def test_kato_functional_constant_and_zero():
    c = G.circle()
    engc = HK.make_engine(c)
    val = K.kato_functional(engc, P.Constant(3.0), 0.2, [G.circle_point(0.4)])
    assert val == pytest.approx(3.0 * 0.2, rel=1e-8)
    assert K.kato_functional(ENG3, P.Sum(()), 0.2, [ORIGIN]) == 0.0


def test_kato_functional_coulomb_scaling():
    w = P.RadialPower(E3, ORIGIN, 1.0)
    n1 = K.kato_functional(ENG3, w, 0.01, [ORIGIN], s_min=1e-9)
    n2 = K.kato_functional(ENG3, w, 0.1, [ORIGIN], s_min=1e-9)
    assert n2 / n1 == pytest.approx(math.sqrt(10.0), rel=5e-3)
    assert n2 == pytest.approx(coulomb_kato_oracle(0.1), rel=5e-3)


def test_kato_functional_monotone_in_t_and_domination():
    w = P.RadialPower(E3, ORIGIN, 1.0)
    ts = [0.02, 0.05, 0.1, 0.3]
    vals = [K.kato_functional(ENG3, w, t, [ORIGIN]) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    smaller = [K.kato_functional(ENG3, P.Scale(0.5, w), t, [ORIGIN]) for t in ts]
    assert all(s <= v for s, v in zip(smaller, vals))


TS = np.logspace(-3, math.log10(0.5), 6)


@pytest.mark.parametrize(
    "beta,expected_gamma,should_pass",
    [(0.5, 0.75, True), (1.0, 0.5, True), (1.5, 0.25, True), (2.0, None, False)],
)
def test_is_kato_power_battery(beta, expected_gamma, should_pass):
    w = P.RadialPower(E3, ORIGIN, beta)
    curve, verdict = K.is_kato(ENG3, w, TS)
    assert verdict.passed == should_pass
    assert verdict.label == "numerical evidence"
    if expected_gamma is not None:
        assert verdict.gamma == pytest.approx(expected_gamma, abs=0.05)


def test_is_kato_bounded_and_coulomb():
    curve, verdict = K.is_kato(ENG3, P.Constant(4.0), TS)
    assert verdict.passed and verdict.gamma == pytest.approx(1.0, abs=0.05)
    curve, verdict = K.is_kato(ENG3, P.make_coulomb_potential(E3, ORIGIN), TS)
    assert verdict.passed and verdict.gamma == pytest.approx(0.5, abs=0.1)


def test_is_kato_smooths_once_per_x_sample(monkeypatch):
    # one ladder serves the whole sweep: 3 x-samples, 3 smoothings
    calls = []
    smooth = K.smoothed_abs
    monkeypatch.setattr(K, "smoothed_abs", lambda *a, **k: calls.append(1) or smooth(*a, **k))
    w = P.RadialPower(E3, ORIGIN, 1.0)
    K.is_kato(ENG3, w, TS)
    assert len(calls) == len(K._center_and_offsets(w, E3, (0.5, 1.5))) == 3


def test_sweep_ladder_has_the_cells_of_each_t():
    rng = np.random.default_rng(25)
    for _ in range(2000):
        s_min = 10.0 ** rng.uniform(-10, -2)
        ts = s_min * 10.0 ** rng.uniform(1e-3, 10, size=rng.integers(2, 12))
        breaks = K._sweep_breaks(ts, s_min)
        for t in ts:
            assert np.count_nonzero(breaks <= t) - 1 >= K._s_breaks(t, s_min).size - 1


E2, H3 = G.euclidean(2), G.hyperbolic3()
KATO_CASES = {
    "coulomb": (ENG3, P.make_coulomb_potential(E3, ORIGIN)),
    "beta0.5": (ENG3, P.RadialPower(E3, ORIGIN, 0.5)),
    "beta1.5": (ENG3, P.RadialPower(E3, ORIGIN, 1.5)),
    "indicator": (ENG3, P.Indicator(E3, G.BallWindow(ORIGIN, 1.0))),
    "euclidean2": (HK.make_engine(E2), P.RadialPower(E2, G.base_point(E2), 1.0)),
    "hyperbolic3": (HK.make_engine(H3), P.RadialPower(H3, G.base_point(H3), 1.0)),
}


@pytest.mark.parametrize("case", sorted(KATO_CASES))
def test_sweep_ladder_matches_the_ladder_of_each_t(case):
    # the sweep's ladder is finer under each t than that t's own ladder, so
    # the curve agrees with one ladder per t at the x-sample that wins at
    # t_max, to the s-quadrature error
    eng, w = KATO_CASES[case]
    xs = K._center_and_offsets(w, eng.model, (0.5, 1.5))
    best = max(xs, key=lambda x: K._kato_ladder(eng, w, [max(TS)], x, 1e-9)[0][0])
    curve, _ = K.is_kato(eng, w, TS)
    own = [K._kato_ladder(eng, w, [t], best, 1e-9)[0][0] for t in curve.t_values]
    assert np.allclose(curve.values, own, rtol=1e-6, atol=0.0)


def test_is_kato_refuses_times_at_or_below_s_min():
    w = P.RadialPower(E3, ORIGIN, 1.0)
    for ts, s_min in (([1e-9, 0.1], 1e-9), ([0.05, 0.2], 0.1), ([-0.1, 0.2], 1e-9)):
        with pytest.raises(DomainError, match="s_min"):
            K.is_kato(ENG3, w, ts, s_min=s_min)


def test_is_kato_divergent_inner_integral():
    w = P.RadialPower(E3, ORIGIN, 3.2)  # beta >= m: not locally integrable
    curve, verdict = K.is_kato(ENG3, w, TS)
    assert not verdict.passed and curve.diverges
    assert K.kato_functional(ENG3, w, 0.1, [ORIGIN]) == math.inf


def test_classical_examples():
    # bounded w: value = ||w|| * 2 pi r^2 exactly (radial integral of h_3)
    w = P.Constant(2.0)
    val = K.classical_kato_functional(E3, w, 0.3, [ORIGIN])
    assert val == pytest.approx(2.0 * 2 * math.pi * 0.3**2, rel=1e-9)
    # coulomb-type: value proportional to r
    wc = P.RadialPower(E3, ORIGIN, 1.0)
    v1 = K.classical_kato_functional(E3, wc, 0.1, [ORIGIN])
    v2 = K.classical_kato_functional(E3, wc, 0.2, [ORIGIN])
    assert v2 / v1 == pytest.approx(2.0, rel=1e-6)
    assert v1 == pytest.approx(4 * math.pi * 0.1, rel=1e-6)
    # 1/|y|^2: divergent, flagged as inf
    assert K.classical_kato_functional(E3, P.RadialPower(E3, ORIGIN, 2.0), 0.1, [ORIGIN]) == math.inf
    # bounded w in the plane: h_2 = log+(1/u) ends at u = 1, so the value is
    # pi rho^2 (1/2 + ln(1/rho)) with rho = min(r, 1)
    e2 = G.euclidean(2)
    for r in (0.3, 2.0):
        rho = min(r, 1.0)
        val = K.classical_kato_functional(e2, P.Constant(1.0), r, [G.base_point(e2)])
        assert val == pytest.approx(math.pi * rho**2 * (0.5 + math.log(1.0 / rho)), rel=1e-12)


@pytest.mark.parametrize("spec, betas", [("euclidean:2", (0.5, 1.0, 1.2)), ("euclidean:3", (0.5, 1.0, 1.5))])
def test_grid_path_matches_two_point_path_at_the_center(spec, betas):
    # a zero-scaled box indicator has no radial form, so it sends the whole
    # potential down the grid path; at the center the excised ball carries the
    # value, and the grid once bounded it by p(s, x, x) times its L^1 mass
    model = G.parse_manifold(spec)
    eng, c = HK.make_engine(model), G.base_point(model)
    ss = np.array([1e-9, 1e-6, 1e-4, 1e-2, 0.1, 0.5])
    for beta in betas:
        w = P.RadialPower(model, c, beta)
        grid_only = P.Sum((w, P.Scale(0.0, P.Indicator(model, G.BoxWindow(c, (1.0,) * model.dim)))))
        two_point = P.smoothed_abs(eng, w, ss, c).value
        grid = P.smoothed_abs(eng, grid_only, ss, c).value
        np.testing.assert_allclose(grid, two_point, rtol=1e-6, err_msg=f"beta={beta}")


def test_excised_balls_call_no_scalar_quad(monkeypatch):
    # every excised ball goes through the near-field rule: the grid path of
    # holder_bound_check, the L^q norm and a constant atom's classical term
    calls = []
    counted = lambda *a, **k: calls.append(1) or quad(*a, **k)
    for module in (G, K, P):
        monkeypatch.setattr(module, "quad", counted)
    w = P.RadialPower(E3, ORIGIN, 1.0)
    for model in (E3, G.torus(2, 6.2832)):
        eng, c = HK.make_engine(model), G.base_point(model)
        hw = P.Windowed(model, P.RadialPower(model, c, 0.35), G.BallWindow(c, 1.5))
        pair = K.control_pair_from_on_diag(eng)
        grid = G.build_grid(model, model.compact_resolution / 2.0, G.FullWindow()) if model.compact else None
        K.holder_bound_check(eng, pair, hw, 2.0, [1e-3, 0.1, 1.0], [c, G.exp_map(model, c, [0.3] * model.dim)], grid)
    P.lq_norm(w, [1.6, 2.0, 2.9], None, G.build_grid(E3, 0.1, G.BallWindow(ORIGIN, 2.0)))
    for model in (G.euclidean(1), G.euclidean(2), E3):
        K.classical_kato_functional(model, P.Constant(1.0), 0.5, [G.base_point(model)])
    assert calls == []


def test_is_kato_agrees_with_classical_on_euclidean_battery():
    rs = np.logspace(-2.5, -0.5, 5)
    battery = [
        (E3, P.Constant(1.0)),
        (E3, P.RadialPower(E3, ORIGIN, 0.5)),
        (E3, P.RadialPower(E3, ORIGIN, 1.0)),
        (E3, P.RadialPower(E3, ORIGIN, 1.5)),
        (E3, P.RadialPower(E3, ORIGIN, 2.0)),
        (E3, P.Indicator(E3, G.BallWindow(ORIGIN, 1.0))),
    ]
    e2 = G.euclidean(2)
    o2 = G.base_point(e2)
    battery += [
        (e2, P.RadialPower(e2, o2, 1.0)),
        (e2, P.RadialPower(e2, o2, 2.0)),
    ]
    agree = 0
    for model, w in battery:
        eng = HK.make_engine(model)
        _, verdict = K.is_kato(eng, w, TS)
        _, _, classical = K.classical_is_kato(model, w, rs)
        assert verdict.passed == classical
        agree += 1
    assert agree == len(battery)


def test_control_pair_on_diag_exact_constants():
    pair = K.control_pair_from_on_diag(ENG3)
    assert pair.constants["C"] == pytest.approx((2 * math.pi) ** -1.5, abs=1e-14)
    for q, cert in pair.certificates.items():
        assert cert == pytest.approx(1.0 / (1.0 - 3.0 / (2.0 * q)), abs=1e-12)
    engc = HK.make_engine(G.circle())
    pc = K.control_pair_from_on_diag(engc)
    assert pc.certificates[1.0] == pytest.approx(2.0, abs=1e-12)


def test_control_pair_margins_from_coordinate_arrays():
    # space factors take (n, chart_dim) arrays; margins keep their exact floats
    ts = [0.01, 0.1, 1.0]
    xs = [ORIGIN, G.make_point(E3, [0.3, -1.0, 2.0])]
    ys = np.stack([x.coords for x in xs])
    pair = K.control_pair_from_on_diag(ENG3)
    C = pair.constants["C"]
    ver = K.verify_control_pair(ENG3, pair, ts, xs)
    assert [e["margin"] for e in ver.details] == [
        C * pair.time_factor(t) - HK.on_diag(ENG3, t) for t in ts for _ in xs
    ]
    fk = K.FaberKrahnControlPair(K.constant_radius_fn(E3), M.faber_krahn_constant(3))
    fk_pair, rep = K.control_pair_from_faber_krahn(fk, ENG3)
    space = rep.c_hat * fk.a ** (-1.5) * fk.radius_fn(ORIGIN) ** (-3)
    assert list(fk_pair.space_factor(ys)) == [space, space]
    ver = K.verify_control_pair(ENG3, fk_pair, ts, xs)
    assert [e["margin"] for e in ver.details] == [
        space * fk_pair.time_factor(t) - HK.on_diag(ENG3, t) for t in ts for _ in xs
    ]


def _quad_near_field(model, kernel, profile, d, radius):
    # the scalar adaptive quadrature the excised ball used before the fixed rule
    def near(u):
        k = float(kernel(np.array([abs(d - u)]))[0])
        return float(profile(np.array([u]))[0]) * G.ball_surface(model, u) * k

    return quad(near, 0.0, radius, epsabs=1e-13, epsrel=1e-9, limit=100)[0]


def _excision_radius(s):
    return float(Q.excision_radius(math.sqrt(s)))


@pytest.mark.parametrize("spec", ["euclidean:2", "euclidean:3", "hyperbolic3", "sphere2", "circle"])
def test_near_field_rule_matches_quad(spec):
    model = G.parse_manifold(spec)
    eng = HK.make_engine(model)
    c = G.base_point(model)
    betas = [b for b in (0.5, 1.0, 1.5) if b < (1.0 if model.dim == 1 else model.dim)]
    # sphere2 stops at s = 1e-3: below it the series runs to thousands of terms
    # per scalar quad node (seconds per case), and at s = 1e-9 the kernel,
    # summed in cos d, carries ~1e-8 relative noise near d = 0
    ss = (1e-3, 0.5) if isinstance(model, G.Sphere2) else (1e-9, 1e-6, 1e-3, 0.5)
    for beta in betas:
        profile = P.RadialPower(model, c, beta).radial().profile
        for s in ss:
            eps = _excision_radius(s)
            kernel = lambda r, s=s: HK.eval_radial(eng, s, r)
            for d in (0.0, eps / 2, 0.5):
                got = Q.near_field_integral(model, kernel, profile, d, eps, beta)
                ref = _quad_near_field(model, kernel, profile, d, eps)
                assert abs(got - ref) <= max(1e-9 * abs(ref), 1e-13), (beta, s, d, got, ref)


@pytest.mark.parametrize("n", [12, 24, 48])
def test_jacobi_rule_integrates_monomials_against_its_weight(n):
    # sum w t^b t^k = 1/(k + b + 1) for k <= 2n - 2, b over (-1, 53]
    for b in np.linspace(-0.9999, 53.0, 61):
        t, w = Q._jacobi_rule(n, float(b))
        for k in range(2 * n - 1):
            assert abs(np.sum(w * t**b * t**k) * (k + b + 1.0) - 1.0) <= 5e-12, (b, k)


@pytest.mark.parametrize("n", [12, 24])
def test_jacobi_rule_matches_scipy(n):
    # below b = -0.9 scipy's own rule drifts (its monomials are off by 5e-8 at
    # b = -0.9999), so the monomial table is the reference there
    for b in np.linspace(-0.9, 53.0, 50):
        t, w = Q._jacobi_rule(n, float(b))
        x, ws = roots_jacobi(n, 0.0, b)
        ts = 0.5 * (1.0 + x)
        ws = ws / 2.0 ** (b + 1.0) / ts**b
        assert np.max(np.abs(t - ts)) <= 5e-12 and np.max(np.abs(w - ws) / ws) <= 5e-12, b


def test_near_field_rule_stops_at_window_edge():
    s = 1e-6
    eps = _excision_radius(s)
    w = P.Windowed(E3, P.RadialPower(E3, ORIGIN, 1.0), G.BallWindow(ORIGIN, eps / 3))
    ra = w.radial()
    profile, support, beta = ra.profile, ra.support, ra.beta
    assert support < eps
    kernel = lambda r: HK.eval_radial(ENG3, s, r)
    for d in (0.0, eps / 2):
        got = Q.near_field_integral(E3, kernel, profile, d, min(eps, support), beta)
        ref = _quad_near_field(E3, kernel, profile, d, eps)
        assert abs(got - ref) <= max(1e-9 * abs(ref), 1e-13), (d, got, ref)


def test_classical_near_field_at_center_in_the_plane():
    # h_2 = log(1/u) at the center: int_0^R u^-beta 2 pi u log(1/u) du in closed form
    e2 = G.euclidean(2)
    for beta in (0.5, 1.0, 1.5):
        profile = P.RadialPower(e2, G.base_point(e2), beta).radial().profile
        for R in (1e-6, 3e-5):
            a = 2.0 - beta
            exact = 2 * math.pi * R**a * (math.log(1 / R) / a + 1 / a**2)
            got = K._classical_near_field(e2, lambda r: K.h_weight(2, r), profile, 0.0, R, beta)
            assert got == pytest.approx(exact, rel=1e-13)


def test_fd_eigen_solve_repeats_exactly():
    # the package's Lanczos recurrence from the ones vector, in 2-d and 3-d
    for model, h in ((G.euclidean(2), 1 / 24), (G.euclidean(3), 1 / 8)):
        region = G.BallWindow(G.base_point(model), 1.0)
        first = M.dirichlet_ground_energy(model, region, h, refinements=1)
        again = M.dirichlet_ground_energy(model, region, h, refinements=1)
        assert first.raw == again.raw


def test_fd_box_3d_matches_discrete_closed_form():
    # the seven-point Dirichlet operator on a lattice-aligned box separates:
    # lambda = sum_k (1 - cos(pi / (n_k + 1))) / h_k^2 with n_k interior nodes per axis
    e3 = G.euclidean(3)
    hw = (0.5, 0.4, 0.3)
    res = M.dirichlet_ground_energy(e3, G.BoxWindow(G.base_point(e3), hw), 1 / 10, refinements=1)
    for j, raw in enumerate(res.raw):
        cells = [round(2 * w * 10) * 2**j for w in hw]
        exact = sum((1 - math.cos(math.pi / n)) / (2 * w / n) ** 2 for w, n in zip(hw, cells))
        assert raw == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize(
    "h, refinements, reference",
    [(1 / 8, 0, {"sigma": 0.0, "which": "LM"}), (1 / 24, 1, {"which": "SA"})],
    ids=["shift-invert-h=1/8", "arpack-h=1/24"],
)
def test_fd_ball_3d_matches_scipy_eigsh(h, refinements, reference):
    # the Lanczos recurrence against scipy on the same folded operator; at
    # h = 1/24 the finer level has 60 583 unknowns and ARPACK was the solver
    _, levels, _ = M._fd_levels(E3, G.BallWindow(ORIGIN, 1.0), h, refinements)
    for level in levels:
        B = M._fd_matrix(*M._fd_operator(*M._fd_mask(3, *level)))
        ref = eigsh(B, k=1, v0=np.ones(B.shape[0]), return_eigenvectors=False, **reference)
        assert M._fd_ground_energy(3, *level) == pytest.approx(float(ref[0]), rel=1e-12)


def test_lanczos_steps_on_the_default_3d_ball():
    # a convergence regression shows as a step count, not a timing
    _, levels, _ = M._fd_levels(E3, G.BallWindow(ORIGIN, 1.0), cli._fk_h({"h": "auto"}, E3), 1)
    steps = [M._lanczos_ground_energy(*M._fd_product(*M._fd_operator(*M._fd_mask(3, *level))))[1] for level in levels]
    assert steps == [69, 137]


def _eigsh_fd_ground_energy(B, **kw):
    # scipy's eigsh on the folded operator from the ones vector, shift-invert by default
    kw = kw or {"sigma": 0.0, "which": "LM"}
    return float(eigsh(B, k=1, v0=np.ones(B.shape[0]), return_eigenvectors=False, **kw)[0])


def test_lanczos_matches_eigsh_on_every_default_2d_level():
    # fk-verify's default balls on euclidean:2 (471 to 7324 folded unknowns)
    # take the Lanczos recurrence; its steps stay within the first hundreds
    e2 = G.euclidean(2)
    h = cli._fk_h({"h": "auto"}, e2)
    solved = 0
    for _, region in cli._default_fk_sets(e2):
        for level in M._fd_levels(e2, region, h, 1)[1]:
            mask, hs = M._fd_mask(2, *level)
            if mask.all():
                continue  # a box: the closed form
            op = M._fd_operator(mask, hs)
            assert op[1].shape[1] <= M._FD_LANCZOS_2D
            value, steps = M._lanczos_ground_energy(*M._fd_product(*op))
            assert steps <= 422 and M._fd_ground_energy(2, *level) == value
            assert value == pytest.approx(_eigsh_fd_ground_energy(M._fd_matrix(*op)), rel=1e-12)
            solved += 1
    assert solved == 4


def test_2d_level_above_the_lanczos_crossover_keeps_scipy_eigsh(monkeypatch):
    # the unit disk at h = 1/128 folds to 12 985 unknowns: eigsh's shift-invert, bit for bit
    def refuse(*args):
        raise AssertionError("Lanczos above the crossover")

    e2 = G.euclidean(2)
    (level,) = M._fd_levels(e2, G.BallWindow(G.base_point(e2), 1.0), 1 / 128, 0)[1]
    B = M._fd_matrix(*M._fd_operator(*M._fd_mask(2, *level)))
    assert B.shape[0] == 12_985 > M._FD_LANCZOS_2D
    monkeypatch.setattr(M, "_lanczos_ground_energy", refuse)
    assert M._fd_ground_energy(2, *level) == _eigsh_fd_ground_energy(B)


def test_lanczos_past_its_step_cap_fails_the_check(monkeypatch):
    monkeypatch.setattr(M, "_LANCZOS_MAX_STEPS", 20)
    with pytest.raises(ConvergenceError, match="did not converge in 20 steps"):
        M.dirichlet_ground_energy(E3, G.BallWindow(ORIGIN, 1.0), 1 / 12, refinements=0)
    report = cli.run_manifest(cli.ExperimentManifest(manifold="euclidean:3", checks=["fk-verify"]))
    (check,) = report.checks
    assert not check.passed and "did not converge" in check.values["error"]


def test_full_lattice_blocks_take_the_closed_form(monkeypatch):
    # every box level is a full block: no operator is assembled
    monkeypatch.setattr(M, "_fd_operator", None)
    for model, hw in ((G.euclidean(2), (0.8, 0.4)), (E3, (0.7, 0.7, 0.7))):
        assert M.dirichlet_ground_energy(model, G.BoxWindow(G.base_point(model), hw), 1 / 12).converged


def _unfolded_ground_energy(m, level):
    # the same eigsh calls on the full lattice operator, with no fold: the
    # Kronecker sum of 1-d second differences, restricted to the mask's nodes
    mask, hs = M._fd_mask(m, *level)
    eye = [sparse.identity(n, format="csr") for n in mask.shape]
    A = 0
    for k, (n, hk) in enumerate(zip(mask.shape, hs)):
        factors = eye[:k] + [sparse.diags([-0.5, 1.0, -0.5], [-1, 0, 1], shape=(n, n)) / hk**2] + eye[k + 1 :]
        A = A + functools.reduce(sparse.kron, factors)
    inside = np.flatnonzero(mask)
    A = A.tocsr()[inside][:, inside].tocsc()
    n = A.shape[0]
    kw = {"sigma": 0.0, "which": "LM"} if m == 2 and n <= 150_000 else {"which": "SA"}
    return float(eigsh(A, k=1, v0=np.ones(n), return_eigenvectors=False, **kw)[0])


def _solved_sizes(monkeypatch):
    # the unknowns of each solve: the Lanczos recurrence, or scipy's eigsh on large 2-d operators
    sizes = []
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", lambda B, **kw: sizes.append(B.shape[0]) or eigsh(B, **kw))
    lanczos = M._lanczos_ground_energy
    monkeypatch.setattr(M, "_lanczos_ground_energy", lambda product, count: sizes.append(count) or lanczos(product, count))
    return sizes


@pytest.mark.parametrize(
    "hw, h",
    [((math.sqrt(math.pi) / 2,) * 2, 1 / 48), ((0.8, 0.4), 1 / 48), ((1.2, 0.3), 1 / 48), ((0.7, 0.7, 0.7), 1 / 12)],
)
def test_folded_box_solve_matches_the_kronecker_sum(hw, h):
    # N_k - 1 interior nodes on axis k: lambda = sum_k (2 / h_k^2) sin^2(pi / (2 N_k))
    model = G.euclidean(len(hw))
    res = M.dirichlet_ground_energy(model, G.BoxWindow(G.base_point(model), hw), h, refinements=1)
    assert len(res.raw) == 2
    for j, raw in enumerate(res.raw):
        cells = [max(4, round(2 * w / h)) * 2**j for w in hw]
        exact = sum(2 / (2 * w / n) ** 2 * math.sin(math.pi / (2 * n)) ** 2 for w, n in zip(hw, cells))
        assert raw == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("m, R, h", [(2, 1.0, 1 / 48), (2, 0.5, 1 / 48), (3, 1.0, 1 / 12)])
def test_fold_matches_the_unfolded_solve_on_the_default_balls(m, R, h, monkeypatch):
    model = G.euclidean(m)
    _, levels, _ = M._fd_levels(model, G.BallWindow(G.base_point(model), R), h, 1)
    for level in levels:
        mask, _ = M._fd_mask(m, *level)
        sizes = _solved_sizes(monkeypatch)
        folded = M._fd_ground_energy(m, *level)
        # every axis folds: one unknown per node of the closed positive orthant
        assert sizes == [int(mask[tuple(slice(n // 2, None) for n in mask.shape)].sum())]
        assert folded == pytest.approx(_unfolded_ground_energy(m, level), rel=1e-12)


def test_fold_is_the_identity_on_an_asymmetric_lattice(monkeypatch):
    # the lattice from c - R spaced 1/96 misses c + R, so no axis mirrors the mask
    e2 = G.euclidean(2)
    _, levels, _ = M._fd_levels(e2, G.BallWindow(G.base_point(e2), 0.77), 1 / 48, 1)
    for level in levels:
        mask, _ = M._fd_mask(2, *level)
        assert not any(np.array_equal(mask, np.flip(mask, k)) for k in range(2))
        sizes = _solved_sizes(monkeypatch)
        folded = M._fd_ground_energy(2, *level)
        assert sizes == [int(mask.sum())]
        assert folded == pytest.approx(_unfolded_ground_energy(2, level), rel=1e-12)


def test_fd_operator_peak_memory_before_the_eigensolve(monkeypatch):
    # the 3-d unit ball at h = 1/48: 97^3 lattice nodes, under 40 bytes each
    # from the mask to the assembled B
    def stop(*args, **kwargs):
        raise RuntimeError("stop before the eigensolve")

    monkeypatch.setattr(M, "_lanczos_ground_energy", stop)
    _, levels, _ = M._fd_levels(E3, G.BallWindow(ORIGIN, 1.0), 1 / 48, 0)
    nodes = math.prod(M._fd_axes(3, *levels[0][1:])[1])
    assert nodes == 97**3
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="stop before"):
            M._fd_ground_energy(3, *levels[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * nodes


@pytest.mark.parametrize("manifold", ["euclidean:2", "euclidean:3"])
def test_fd_operator_is_exactly_symmetric(manifold):
    # fk-verify's default sets at both levels, plus the off-lattice ball:
    # even folds (boxes), odd folds (balls) and no fold
    model = G.parse_manifold(manifold)
    sets = [region for _, region in cli._default_fk_sets(model)] + [G.BallWindow(G.base_point(model), 0.77)]
    for region in sets:
        _, levels, _ = M._fd_levels(model, region, cli._fk_h({"h": "auto"}, model), 1)
        for level in levels:
            B = M._fd_matrix(*M._fd_operator(*M._fd_mask(model.dim, *level)))
            assert (B != B.T).nnz == 0


def _stacked_mask(m, inside_fn, lo, hi, h):
    # the reference: every lattice node's coordinates stacked into one array
    hs, ns = M._fd_axes(m, lo, hi, h)
    mesh = np.meshgrid(*[lo[k] + np.arange(ns[k]) * hs[k] for k in range(m)], indexing="ij")
    return inside_fn(np.stack([g.ravel() for g in mesh], axis=1)).reshape(mesh[0].shape)


@pytest.mark.parametrize("manifold", ["euclidean:2", "euclidean:3"])
def test_chunked_mask_equals_the_stacked_lattice_mask(manifold):
    # fk-verify's default test sets at its default h, both refinement levels,
    # plus an off-lattice ball whose far edge misses the lattice; the 3-d
    # unit ball's finer level takes 49 slabs of 49^2 nodes in two chunks
    model = G.parse_manifold(manifold)
    o = G.base_point(model)
    sets = [region for _, region in cli._default_fk_sets(model)] + [G.BallWindow(o, 0.77)]
    for region in sets:
        _, levels, _ = M._fd_levels(model, region, cli._fk_h({"h": "auto"}, model), 1)
        for level in levels:
            mask, _ = M._fd_mask(model.dim, *level)
            assert mask.dtype == bool and np.array_equal(mask, _stacked_mask(model.dim, *level))


@pytest.mark.parametrize("m, h", [(2, 1 / 3), (3, 1 / 2)])
def test_coarse_grid_test_counts_the_full_lattice(m, h, monkeypatch):
    # 25 (2-d) and 27 (3-d) interior nodes pass the 20-node floor; their 9 and 8 orbits would not
    model = G.euclidean(m)
    ball = G.BallWindow(G.base_point(model), 1.0)
    assert not M.fd_grid_too_coarse(model, ball, h)
    sizes = _solved_sizes(monkeypatch)
    res = M.dirichlet_ground_energy(model, ball, h, refinements=0)
    assert sizes[0] < M._FD_MIN_NODES and math.isfinite(res.value)
    assert M.fd_grid_too_coarse(model, ball, 0.4 if m == 2 else 1.0)


def test_admissible_q_rules():
    assert K.admissible_q(1, 1.0) and not K.admissible_q(1, 0.9)
    assert K.admissible_q(3, 1.6) and not K.admissible_q(3, 1.5)
    with pytest.raises(DomainError):
        K.require_admissible(3, 1.2)
    pair = K.control_pair_from_on_diag(ENG3)
    with pytest.raises(DomainError):
        K.certificate(pair, 1.0)


def test_li_yau_pair_hyperbolic_margins():
    h3 = G.hyperbolic3()
    engh = HK.make_engine(h3)
    ts = np.logspace(-4, 0, 50)
    pair = K.control_pair_li_yau(engh, t_values=ts)
    ver = K.verify_control_pair(engh, pair, ts, [G.base_point(h3)])
    assert ver.min_margin >= 0.0
    assert pair.constants["kappa"] == 2.0
    # consistent with the on-diagonal pair up to the constant
    flat = K.control_pair_li_yau(ENG3, t_values=ts)
    expected = (2 * math.pi) ** -1.5
    assert flat.constants["C5"] / flat.constants["vol_unit_ball"] == pytest.approx(expected, rel=1e-12)


def test_doubling_inequality_sampled():
    # flat space is the equality case, so allow float roundoff there
    for model in (E3, G.hyperbolic3(), G.sphere2()):
        assert K.doubling_check(model) >= -1e-12


def test_faber_krahn_constants():
    j01 = float(jn_zeros(0, 1)[0])
    assert M._BESSEL_ZEROS[1] == j01  # the tabulated float is scipy's, to the bit
    for m in (0, G.MAX_DIM + 1):
        with pytest.raises(DomainError):
            M.faber_krahn_constant(m)
    assert M.faber_krahn_constant(2) == pytest.approx(0.5 * j01**2 * math.pi, rel=1e-12)
    assert M.faber_krahn_constant(3) == pytest.approx(
        0.5 * math.pi**2 * (4 * math.pi / 3) ** (2 / 3), rel=1e-12
    )



def _scipy_bessel_zero(nu):
    # jn_zeros at integer orders; brentq on jv past the first sign change at half-integer ones
    if nu == int(nu):
        return float(jn_zeros(int(nu), 1)[0])
    lo = nu
    while jv(nu, lo + 0.5) > 0.0:
        lo += 0.5
    return brentq(lambda x: jv(nu, x), lo, lo + 0.5, xtol=1e-15, rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("m", range(1, G.MAX_DIM + 1))
def test_tabulated_bessel_zeros_are_scipys(m):
    # every dimension to the bit, but the closed forms pi/2 and pi at m = 1 and 3
    want = {1: math.pi / 2, 3: math.pi}.get(m) or _scipy_bessel_zero(m / 2 - 1)
    assert M._BESSEL_ZEROS[m - 1] == want


def test_faber_krahn_constant_at_half_integer_orders():
    # m = 1: j = pi/2, omega_1 = 2, so a = pi^2/2; m = 5: j is the first zero
    # of the spherical Bessel j_1, tan x = x
    assert M.faber_krahn_constant(1) == pytest.approx(math.pi**2 / 2, rel=1e-15)
    j = M._BESSEL_ZEROS[4]
    assert math.tan(j) == pytest.approx(j, rel=1e-12) and 4.0 < j < 5.0


def test_certificate_integral_past_float_range_of_the_time_factor():
    # s^(-3) overflows a float at s = e^{-350}; the integral of s^(-3/4) is 4
    m, q = 6, 4.0
    cert = Q.certificate_integral(lambda s: float(s) ** (-m / 2.0), q)
    assert cert == pytest.approx(1.0 / (1.0 - m / (2.0 * q)), abs=1e-12)

def test_disk_eigenvalue_within_half_percent():
    e2 = G.euclidean(2)
    res = M.dirichlet_ground_energy(e2, G.BallWindow(G.base_point(e2), 1.0), 1 / 48, refinements=1)
    exact = float(jn_zeros(0, 1)[0]) ** 2 / 2
    assert res.converged
    assert abs(res.value - exact) / exact < 0.005


def test_square_eigenvalue_exact_order2():
    e2 = G.euclidean(2)
    s = math.sqrt(math.pi) / 2
    res = M.dirichlet_ground_energy(e2, G.BoxWindow(G.base_point(e2), (s, s)), 1 / 32, refinements=1)
    exact = math.pi**2 / 2 * (1 / s**2 / 4 + 1 / s**2 / 4) * 2  # (1/2)(pi/L)^2 * 2 with L = 2s
    exact = 0.5 * 2 * (math.pi / (2 * s)) ** 2
    assert res.value == pytest.approx(exact, rel=1e-6)


def test_faber_krahn_verify_margins():
    e2 = G.euclidean(2)
    o2 = G.base_point(e2)
    a = M.faber_krahn_constant(2)
    sets = [
        (o2, G.BallWindow(o2, 1.0)),
        (o2, G.BoxWindow(o2, (math.sqrt(math.pi) / 2,) * 2)),
        (o2, G.BoxWindow(o2, (0.8, 0.4))),
    ]
    rep = M.faber_krahn_verify(e2, lambda x: 2.0, a, sets, h=1 / 48)
    assert rep.passed  # margins >= -tolerance
    # the ball is the equality case: its margin is ~0 within FD tolerance
    ball = rep.details[0]
    assert abs(ball["margin"]) <= ball["fd_gap"] + 1e-6
    # the square of the same area has a strictly positive margin
    square = rep.details[1]
    assert square["margin"] > 0.2
    # test sets must stay inside B(x, R(x))
    with pytest.raises(DomainError):
        M.faber_krahn_verify(e2, lambda x: 0.5, a, sets, h=1 / 48)


def test_faber_krahn_inconclusive_when_coarse():
    e2 = G.euclidean(2)
    o2 = G.base_point(e2)
    rep = M.faber_krahn_verify(
        e2, lambda x: 2.0, M.faber_krahn_constant(2), [(o2, G.BallWindow(o2, 1.0))], h=1 / 6
    )
    assert rep.inconclusive


def test_faber_krahn_nan_constant_is_inconclusive():
    # min(inf, nan) is inf: a NaN margin must not slip through as a PASS
    e2 = G.euclidean(2)
    o2 = G.base_point(e2)
    rep = M.faber_krahn_verify(e2, lambda x: 2.0, math.nan, [(o2, G.BoxWindow(o2, (0.5, 0.5)))], h=1 / 16)
    assert not rep.passed
    assert math.isnan(rep.min_margin) and rep.reasons == ["margin of set 0, box(hw=(0.5, 0.5)) is NaN"]
    assert [e["reason"] for e in rep.inconclusive] == ["eigenvalue, rhs or margin is not finite"]


def test_fk_induced_pair_and_chain():
    fk = K.FaberKrahnControlPair(lambda x: 1.0, M.faber_krahn_constant(3))
    pair, report = K.control_pair_from_faber_krahn(fk, ENG3)
    # ratio is time-independent for t <= R^2 on flat space
    expected = (2 * math.pi) ** -1.5 * fk.a**1.5
    assert report.c_hat == pytest.approx(expected, rel=1e-12)
    assert report.chain_margin >= 0.0
    ver = K.verify_control_pair(ENG3, pair, np.logspace(-3, 0, 25), [ORIGIN])
    assert ver.min_margin >= -1e-13


def test_fk_pair_long_time_torus():
    tor = G.torus(2, 2 * math.pi)
    engt = HK.make_engine(tor)
    fk = K.FaberKrahnControlPair(lambda x: math.pi / 2, M.faber_krahn_constant(2))
    pair, report = K.control_pair_from_faber_krahn(
        fk, engt, t_values=np.logspace(-2, 0, 30)
    )
    assert math.isfinite(report.c_hat) and report.c_hat > 0
    # long time: p -> 1/vol and min(t, R^2)^{-m/2} -> R^{-m}; ratio finite
    long_ratio = HK.on_diag(engt, 50.0) * fk.a * (math.pi / 2) ** 2
    assert long_ratio <= report.c_hat * 1.05


def test_holder_bound_battery():
    control = K.control_pair_from_on_diag(ENG3)
    w = P.Windowed(E3, P.RadialPower(E3, ORIGIN, 0.35), G.BallWindow(ORIGIN, 1.5))
    ss = np.logspace(-3, 0, 8)
    xs = [ORIGIN, G.make_point(E3, [0.7, 0, 0]), G.make_point(E3, [2.0, 0.5, 0])]
    for q in (1.6, 2.0, 5.0):
        rep = K.holder_bound_check(ENG3, control, w, q, ss, xs)
        assert rep.passed
        assert rep.min_margin >= -rep.tolerance
    # zero potential: both sides vanish
    rep0 = K.holder_bound_check(ENG3, control, P.Sum(()), 2.0, [0.5], [ORIGIN])
    assert rep0.min_margin == 0.0


@pytest.mark.parametrize("spec", ["euclidean:3", "torus:2:6.2832", "sphere2"])
def test_holder_bound_check_of_a_q_sequence_repeats_each_single_q(spec, monkeypatch):
    # euclidean:3 takes the two-point rule, the torus the grid; q = 9 diverges
    # in 3-d (beta q >= m) and sits among finite exponents
    model = G.parse_manifold(spec)
    eng = HK.make_engine(model)
    c = G.base_point(model)
    w = P.Windowed(model, P.RadialPower(model, c, 0.35), G.BallWindow(c, 1.5))
    control = K.control_pair_from_on_diag(eng)
    grid = None if model.radial_kernel else G.build_grid(model, model.compact_resolution / 2.0, G.FullWindow())
    qs = [1.6, 2.0, 9.0] if model.dim == 3 else [1.1, 2.0, 5.0]
    ss, xs = [0.05, 0.3, 1.0], [c, G.exp_map(model, c, [0.4] * model.tangent_dim)]
    single = [K.holder_bound_check(eng, control, w, q, ss, xs, grid=grid) for q in qs]
    calls = []

    def counted(f):
        return lambda *a, **k: calls.append(f.__name__) or f(*a, **k)

    monkeypatch.setattr(P, "lq_norm", counted(P.lq_norm))
    monkeypatch.setattr(K, "smoothed_abs", counted(K.smoothed_abs))
    batch = K.holder_bound_check(eng, control, w, qs, ss, xs, grid=grid)
    assert batch == single
    assert sorted(calls) == ["lq_norm"] + ["smoothed_abs"] * len(xs)
    assert [rep.rhs_divergent for rep in batch] == [q == 9.0 for q in qs]


def test_holder_norm_evaluates_the_radial_power_on_its_window_nodes_only(monkeypatch):
    # the y-grid reaches the kernel's tail (384,000 nodes); |w| vanishes
    # outside B(c, 1.5), so the norm visits only the nodes inside it
    c = G.make_point(E3, [0.3, -0.2, 0.1])
    w = P.Windowed(E3, P.RadialPower(E3, c, 0.35), G.BallWindow(c, 1.5))
    control = K.control_pair_from_on_diag(ENG3)
    ss, xs = np.logspace(-3, 0, 4), [c, G.exp_map(E3, c, [0.8, 0.0, 0.0])]
    grid = P._default_y_grid(ENG3, w, 1.0, xs)
    window_nodes = int(np.sum(G.distance_many(E3, c.coords, grid.node_coords) <= 1.5))
    rows = []

    def counted(v, ys, evaluate=P.evaluate_many):
        if isinstance(v, P.RadialAtom):
            rows.append(np.atleast_2d(ys).shape[0])
        return evaluate(v, ys)

    monkeypatch.setattr(P, "evaluate_many", counted)
    assert K.holder_bound_check(ENG3, control, w, 2.0, ss, xs).passed
    assert grid.size == 384_000 and 0 < sum(rows) <= window_nodes < grid.size // 9


@pytest.mark.parametrize("spec, bound_mib", [("euclidean:3", 4.5), ("hyperbolic3", 17.0)])
def test_holder_check_memory_stays_near_the_support(spec, bound_mib):
    # the norm's grid stops one radial cell past supp(w): the whole
    # kernel-reach y-grid (384,000 nodes, 17.7 MiB on euclidean:3 and 68 MiB
    # with hyperbolic3's exp maps) is never built
    model = G.parse_manifold(spec)
    eng = HK.make_engine(model)
    w = P.parse_potential("windowed:r=1.5:radialpower:beta=0.35", model)
    control = K.control_pair_from_on_diag(eng)
    xs = [P.center_of(w, model), G.random_point(model, np.random.default_rng(4), 1.2)]
    P._shared_grid.cache_clear()  # the grid is built inside the measurement
    tracemalloc.start()
    try:
        reports = K.holder_bound_check(eng, control, w, [1.6, 2.0, 5.0], np.logspace(-3, 0, 10), xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep.passed for rep in reports)
    assert peak <= bound_mib * 2**20


@pytest.mark.parametrize(
    "spec",
    ["euclidean:2", "euclidean:3", "hyperbolic3", "sphere2", "circle", "torus:3:1", "product(euclidean:1,circle)"],
)
def test_on_diagonal_sweeps_equal_their_per_time_loops(spec):
    # one on_diag call on the column of times; each constant and margin is
    # the one the per-time loop gives, to the bit
    model = G.parse_manifold(spec)
    eng = HK.make_engine(model)
    m = model.dim
    ts = np.logspace(-4, 0, 60)
    diag = [HK.on_diag(eng, float(t)) for t in ts]
    assert HK.on_diag_upper(eng, ts) == max(float(t) ** (m / 2.0) * d for t, d in zip(ts, diag))
    pair = K.control_pair_li_yau(eng, ts)
    vol1 = G.ball_volume_radial(model, 1.0)
    C5 = 0.0
    for t, d in zip(ts, diag):
        C5 = max(C5, d * vol1 * float(t) ** (m / 2.0))
    assert pair.constants["C5"] == C5
    xs = [G.base_point(model), G.random_point(model, np.random.default_rng(3), 1.0)]
    want = [
        {"t": float(t), "margin": K._space_at(pair, x) * pair.time_factor(float(t)) - d}
        for t, d in zip(ts, diag)
        for x in xs
    ]
    ver = K.verify_control_pair(eng, pair, ts, xs)
    assert ver.details == want and ver.min_margin == min(row["margin"] for row in want)
    radius_fn = lambda x: 0.3 + 0.2 * abs(float(x.coords[0]))
    best = 0.0
    for t, d in zip(ts, diag):
        for x in xs:
            Rx = radius_fn(x)
            best = max(best, d * 0.7 ** (m / 2.0) * min(float(t), Rx * Rx) ** (m / 2.0))
    assert HK.heat_bound_constant(eng, radius_fn, 0.7, ts, xs) == best


@pytest.mark.parametrize("spec, beta", [("euclidean:1", 0.5), ("euclidean:2", 1.2), ("euclidean:3", 1.0),
                                        ("euclidean:3", 1.8), ("hyperbolic3", 1.0)])
def test_short_time_remainder_matches_quad(spec, beta, monkeypatch):
    # int_0^1 (s_min u)^(-m/(2q)) du in closed form against scipy's quad of
    # the on-diagonal pair's time factor, for every norm the bound weighs
    model = G.parse_manifold(spec)
    eng = HK.make_engine(model)
    c = G.base_point(model)
    w = P.RadialPower(model, c, beta)
    norms, lq_norm = [], P.lq_norm

    def recorded(*args, **kwargs):
        out = lq_norm(*args, **kwargs)
        norms.extend(out)
        return out

    monkeypatch.setattr(P, "lq_norm", recorded)
    s_min = 1e-6
    got = K._short_time_remainder(eng, w, s_min)
    pair = K.control_pair_from_on_diag(eng)
    sup_out = P.sup_abs(w, outside=(c, 3.0))

    def bound(wq):
        time = lambda u: pair.time_factor(max(s_min * u, 1e-300)) ** (1.0 / wq.q)
        return wq.value * s_min * quad(time, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)[0] + s_min * sup_out

    assert norms and math.isfinite(got)
    assert got == pytest.approx(min(bound(wq) for wq in norms if not wq.diverges), rel=1e-9)


def test_short_time_remainder_makes_no_selection_pass(monkeypatch):
    # its grid is the ball B(c, 3) that windows w: every node is in the support
    c = G.make_point(E3, [0.3, -0.2, 0.1])
    calls = []
    monkeypatch.setattr(G.QuadratureGrid, "nodes_in", lambda grid, window: calls.append("nodes_in"))
    monkeypatch.setattr(P, "lq_norm", lambda *a, f=P.lq_norm: calls.append("lq_norm") or f(*a))
    assert math.isfinite(K._short_time_remainder(ENG3, P.RadialPower(E3, c, 1.5), 1e-6))
    assert calls == ["lq_norm"]


def test_holder_bound_constant_on_compact():
    c = G.circle()
    engc = HK.make_engine(c)
    control = K.control_pair_from_on_diag(engc)
    rep = K.holder_bound_check(engc, control, P.Constant(2.0), 2.0, np.linspace(0.05, 1.0, 6),
                               [G.circle_point(0.0)])
    assert rep.passed and rep.min_margin >= 0.0


def test_got_q1_case_on_circle():
    # m=1, q=1: int p(s,x,y)|w(y)| dmu <= time(s) * int |w| space dmu
    c = G.circle()
    engc = HK.make_engine(c)
    pair = K.control_pair_from_on_diag(engc)
    grid = G.build_grid(c, 2 * math.pi / 256, G.FullWindow())
    w = P.cosine_potential(c)
    norm1 = P.lq_norm(w, 1.0, lambda p: pair.space_factor(p), grid).value
    for s in (0.05, 0.3, 1.0):
        lhs = P.smoothed_abs(engc, w, s, G.circle_point(0.2)).value
        assert lhs <= pair.time_factor(s) * norm1 + 1e-10


def test_weighted_inclusion_integrated_form():
    # N(t) <= (int_0^t time(s)^{1/q} ds) * ||w||_{L^q(space)}
    control = K.control_pair_from_on_diag(ENG3)
    w = P.Windowed(E3, P.RadialPower(E3, ORIGIN, 1.0), G.BallWindow(ORIGIN, 1.0))
    q = 2.0
    grid = G.build_grid(E3, 0.02, G.BallWindow(ORIGIN, 1.2))
    wq = P.lq_norm(w, q, lambda p: control.space_factor(p), grid).value
    for t in (0.01, 0.1):
        lhs = K.kato_functional(ENG3, w, t, [ORIGIN])
        integ, _ = quad(lambda s: control.time_factor(s) ** (1 / q), 0, t)
        assert lhs <= integ * wq * (1 + 1e-6)


def test_constant_radius_fn_constant_per_model():
    for model in (E3, G.sphere2(), G.hyperbolic3(), G.torus(2, 5.0)):
        R = K.constant_radius_fn(model)
        rng = np.random.default_rng(2)
        vals = {R(G.random_point(model, rng)) for _ in range(5)}
        assert len(vals) == 1
        assert 0 < vals.pop() <= 0.5


def test_classical_unsupported_model():
    with pytest.raises(UnsupportedModelError):
        K.classical_kato_functional(G.sphere2(), P.Constant(1.0), 0.1, [G.base_point(G.sphere2())])


def test_classical_one_dimensional_windowed_l1():
    # m = 1: the criterion degenerates to the windowed L^1 supremum
    e1 = G.euclidean(1)
    o1 = G.base_point(e1)
    val = K.classical_kato_functional(e1, P.Constant(3.0), 0.2, [o1])
    assert val == pytest.approx(3.0 * 2 * 0.2, rel=1e-10)
    w = P.RadialPower(e1, o1, 0.5)
    v1 = K.classical_kato_functional(e1, w, 0.1, [o1])
    # int_{-r}^{r} |u|^{-1/2} du = 4 sqrt(r)
    assert v1 == pytest.approx(4 * math.sqrt(0.1), rel=1e-4)
    # beta >= 1 is not locally integrable in one dimension
    assert K.classical_kato_functional(e1, P.RadialPower(e1, o1, 1.0), 0.1, [o1]) == math.inf


@pytest.mark.parametrize("m", [2, 3])
def test_classical_sample_inside_excised_ball_rejected(m):
    # h_m(|d - u|) is singular at u = d inside the excised ball of radius eps
    e = G.euclidean(m)
    o = G.base_point(e)
    r = 0.1
    eps = max(1e-6, 1e-4 * r)
    v = np.zeros(m)
    v[0] = eps / 2
    with pytest.raises(DomainError):
        K.classical_kato_functional(e, P.RadialPower(e, o, 1.0), r, [G.exp_map(e, o, v)])


def test_li_yau_c5_keeps_a_nan_on_diagonal_value(monkeypatch):
    monkeypatch.setattr(HK, "on_diag_sweep", lambda engine, ts: [(0.1, 1.0), (0.2, math.nan), (0.4, 2.0)])
    assert math.isnan(K.control_pair_li_yau(ENG3, t_values=[0.1, 0.2, 0.4]).constants["C5"])


def test_kato_functional_keeps_a_nan_over_x(monkeypatch):
    ladder = K._kato_ladder
    far = G.make_point(E3, [0.7, 0, 0])
    poisoned = lambda e, w, ts, x, s: ([math.nan], [0.0]) if x is far else ladder(e, w, ts, x, s)
    monkeypatch.setattr(K, "_kato_ladder", poisoned)
    assert math.isnan(K.kato_functional(ENG3, P.RadialPower(E3, ORIGIN, 1.0), 0.1, [ORIGIN, far]))


@pytest.mark.parametrize("field", ["value", "tail_bound"])
def test_holder_bound_check_keeps_a_nan_margin_and_tail(field, monkeypatch):
    smoothed = K.smoothed_abs

    def poisoned(*args, **kw):
        sv = smoothed(*args, **kw)
        bad = np.array(getattr(sv, field), dtype=float)
        bad[1] = math.nan
        return P.SmoothedValue(**{"value": sv.value, "tail_bound": sv.tail_bound, field: bad})

    monkeypatch.setattr(K, "smoothed_abs", poisoned)
    control = K.control_pair_from_on_diag(ENG3)
    w = P.Windowed(E3, P.RadialPower(E3, ORIGIN, 0.35), G.BallWindow(ORIGIN, 1.5))
    rep = K.holder_bound_check(ENG3, control, w, 2.0, [1e-3, 0.1, 1.0], [ORIGIN])
    assert math.isnan(rep.min_margin if field == "value" else rep.tolerance) and not rep.passed


@pytest.mark.parametrize("check", ["kato-norm", "is-kato"])
def test_a_pullback_never_builds_a_grid_of_its_product(check, monkeypatch):
    # u o pi is smoothed on u's factor, its remainder bounded there too: no
    # 63^3-node grid of the triple product, whatever the grid cache holds
    built = []
    build = G.build_grid
    monkeypatch.setattr(G, "build_grid", lambda model, *a, **k: built.append(model) or build(model, *a, **k))
    P._shared_grid.cache_clear()
    for manifold in ("product(torus:2:6.283185307179586,circle)", "product(product(circle,circle),circle)"):
        manifest = cli.ExperimentManifest(manifold, [check], potential="pullback:0:radialpower:beta=0.5")
        assert cli.run_manifest(manifest).checks[0].passed
    assert built and not any(isinstance(model, G.Product) for model in built)
