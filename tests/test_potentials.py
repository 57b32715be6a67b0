import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from heatkato import geometry as G
from heatkato import heat_kernel as HK
from heatkato import potentials as P
from heatkato import quadrature as Q
from heatkato.errors import DomainError, HeatKatoError, ManifestError, SingularityError, UnsupportedModelError

E3 = G.euclidean(3)
ORIGIN = G.base_point(E3)


def test_constant_and_radial_power_values():
    assert P.evaluate(P.Constant(5.0), G.make_point(E3, [1, 2, 3])) == 5.0
    w = P.RadialPower(E3, ORIGIN, 1.0)
    assert P.evaluate(w, G.make_point(E3, [2, 0, 0])) == 0.5
    assert P.evaluate(w, ORIGIN) == math.inf  # sentinel, never an overflow


def test_pullback_depends_only_on_projected_coordinate():
    prod = G.product(E3, E3)
    w = P.Pullback(prod, 0, P.RadialPower(E3, ORIGIN, 1.0))
    a = P.evaluate(w, G.make_point(prod, [0.5, 0, 0, 9, 9, 9]))
    b = P.evaluate(w, G.make_point(prod, [0.5, 0, 0, -3, 1, 4]))
    assert a == b == 2.0


def test_sign_parts():
    w = P.Sum((P.Constant(-2.0), P.Indicator(E3, G.BallWindow(ORIGIN, 1.0))))
    y_in = G.make_point(E3, [0.5, 0, 0])
    y_out = G.make_point(E3, [5, 0, 0])
    assert P.evaluate(P.positive_part(w), y_in) == 0.0
    assert P.evaluate(P.negative_part(w), y_in) == 1.0
    assert P.evaluate(P.negative_part(w), y_out) == 2.0
    assert P.evaluate(P.absolute(w), y_out) == 2.0


def test_coulomb_against_spec_oracle():
    # oracle: direct high-resolution quadrature of the Gaussian time integral
    eng = HK.make_engine(E3)
    for r in (0.1, 1.0, 10.0):
        integrand = lambda s: (2 * math.pi * s) ** -1.5 * math.exp(-r * r / (2 * s))
        near, _ = quad(integrand, 0, r * r, points=[r * r / 10])
        far, _ = quad(integrand, r * r, np.inf)
        oracle = near + far
        assert oracle == pytest.approx(1 / (2 * math.pi * r), rel=1e-9)
        got = P.coulomb(eng, ORIGIN, G.make_point(E3, [r, 0, 0]))
        assert got.value == pytest.approx(0.5 * oracle, rel=1e-8)
        assert got.tail_bound < 1e-9 * got.value


def test_coulomb_scaling_and_symmetry():
    eng = HK.make_engine(E3)
    v1 = P.coulomb(eng, ORIGIN, G.make_point(E3, [0.7, 0, 0])).value
    v2 = P.coulomb(eng, ORIGIN, G.make_point(E3, [1.4, 0, 0])).value
    assert v1 / v2 == pytest.approx(2.0, rel=1e-8)
    x = G.make_point(E3, [0.2, 0.4, -0.1])
    y = G.make_point(E3, [-0.5, 0.1, 0.9])
    assert P.coulomb(eng, x, y).value == pytest.approx(P.coulomb(eng, y, x).value, rel=1e-12)


def test_coulomb_hyperbolic_finite_with_tail():
    h3 = G.hyperbolic3()
    eng = HK.make_engine(h3)
    x = G.base_point(h3)
    y = G.exp_map(h3, x, [0, 0, 1.0])
    got = P.coulomb(eng, x, y)
    assert math.isfinite(got.value) and got.value > 0
    assert got.tail_bound < 1e-9 * got.value
    # dual route: closed-form profile
    closed = float(P.coulomb_profile(h3)(np.array([1.0]))[0])
    assert got.value == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("model", [E3, G.hyperbolic3()], ids=["euclidean3", "hyperbolic3"])
def test_coulomb_matches_its_closed_form_over_the_distance_range(model):
    # the fixed rule in v = -log(s)/2 against 1/(4 pi d) and e^-d/(4 pi sinh d).
    # The hyperbolic kernel's factor d / sinh d, computed as
    # 2d e^-d / (1 - e^-2d), carries up to about eps / (2d) of its own below d = 1
    eng = HK.make_engine(model)
    o = G.base_point(model)
    profile = P.coulomb_profile(model)
    for d in np.logspace(-4, math.log10(350.0), 80):
        y = G.exp_map(model, o, [d, 0.0, 0.0])
        r = G.distance(model, o, y)
        closed = float(profile(np.array([r]))[0])
        allowance = 1e-13 + (0.0 if model.flat else 1.2e-16 / r)
        for tol in (1e-8, 1e-10, 1e-20):
            got = P.coulomb(eng, o, y, tol=tol)
            assert abs(got.value - closed) <= allowance * closed, (r, tol, got.value, closed)
            assert 0.0 <= got.tail_bound <= tol * got.value, (r, tol, got.tail_bound)


def test_coulomb_errors():
    eng = HK.make_engine(E3)
    with pytest.raises(SingularityError):
        P.coulomb(eng, ORIGIN, ORIGIN)
    with pytest.raises(UnsupportedModelError):
        P.coulomb(HK.make_engine(G.circle()), G.circle_point(0), G.circle_point(1))
    with pytest.raises(UnsupportedModelError):
        P.coulomb(HK.make_engine(G.euclidean(2)), G.base_point(G.euclidean(2)),
                  G.make_point(G.euclidean(2), [1, 0]))


def test_lq_norm_zero_and_radial_oracle():
    grid = G.build_grid(E3, 0.02, G.BallWindow(ORIGIN, 1.0))
    zero = P.lq_norm(P.Sum(()), 2.0, None, grid)
    assert zero.value == 0.0
    # int_{|y|<1} |y|^{-2} dy = 4 pi -> L2 norm sqrt(4 pi)
    w = P.RadialPower(E3, ORIGIN, 1.0)
    n = P.lq_norm(w, 2.0, None, grid)
    assert not n.diverges
    assert n.value == pytest.approx(math.sqrt(4 * math.pi), rel=1e-6)
    assert n.excised_nodes > 0


def test_lq_norm_divergence_flag():
    grid = G.build_grid(E3, 0.05, G.BallWindow(ORIGIN, 1.0))
    n = P.lq_norm(P.RadialPower(E3, ORIGIN, 2.0), 2.0, None, grid)
    assert n.diverges and n.value == math.inf
    # borderline beta*q = m also diverges (log)
    n2 = P.lq_norm(P.RadialPower(E3, ORIGIN, 1.5), 2.0, None, grid)
    assert n2.diverges


def test_lq_norm_of_a_q_sequence_repeats_each_single_q():
    grid = G.build_grid(E3, 0.05, G.BallWindow(ORIGIN, 1.0))
    w = P.Sum((P.RadialPower(E3, ORIGIN, 1.2), P.Constant(0.5)))
    weight = lambda pts: 1.0 + np.sum(pts**2, axis=1)
    qs = [1.0, 1.7, 2.4, 2.5, 3.0]  # beta * q >= 3 from q = 2.5 on
    batch = P.lq_norm(w, qs, weight, grid)
    assert batch == [P.lq_norm(w, q, weight, grid) for q in qs]
    assert [n.diverges for n in batch] == [False, False, False, True, True]


def test_lq_norm_monotone_in_window_and_potential():
    w = P.RadialPower(E3, ORIGIN, 0.8)
    small = G.build_grid(E3, 0.03, G.BallWindow(ORIGIN, 0.8))
    large = G.build_grid(E3, 0.03, G.BallWindow(ORIGIN, 1.6))
    n_small = P.lq_norm(w, 2.0, None, small).value
    n_large = P.lq_norm(w, 2.0, None, large).value
    assert n_large >= n_small
    dominated = P.Scale(0.5, w)
    assert P.lq_norm(dominated, 2.0, None, small).value <= n_small


def test_lq_norm_array_weight_matches_per_node_sum():
    grid = G.build_grid(E3, 0.05, G.BallWindow(ORIGIN, 1.0))
    w = P.cosine_potential(E3)  # bounded: nothing is excised
    got = P.lq_norm(w, 2.0, lambda ys: 1.0 + np.sum(ys**2, axis=1), grid).value
    vals = np.abs(P.evaluate_many(w, grid.node_coords))
    ref = 0.0
    for weight, v, y in zip(grid.weights, vals, grid.node_coords):
        ref += weight * v**2 * (1.0 + float(y @ y))
    assert got == pytest.approx(ref**0.5, rel=1e-14)
    # at an excised center the callable sees that center as a (1, chart_dim) array
    center = G.make_point(E3, [0.2, 0.0, -0.1])
    sing = P.RadialPower(E3, center, 0.9)
    seen = []

    def three(ys):
        seen.append(ys.shape)
        return np.full(len(ys), 3.0)

    assert P.lq_norm(sing, 2.0, three, grid).value == P.lq_norm(sing, 2.0, 3.0, grid).value
    assert seen == [(grid.size, 3), (1, 3)]


@functools.cache
def _norm_grid(name):
    """(grid, center): a grid and a point near its middle (on the torus, at the seam)."""
    if name == "euclidean3-y-grid":
        c = G.make_point(E3, [0.3, -0.2, 0.1])
        w = P.Windowed(E3, P.RadialPower(E3, c, 0.35), G.BallWindow(c, 1.5))
        return P._default_y_grid(HK.make_engine(E3), w, 1.0, [c]), c
    if name == "hyperbolic3-ball":
        h3 = G.hyperbolic3()
        c = G.make_point(h3, [0.2, 0.1, 1.3])
        return G.build_grid(h3, 0.1, G.BallWindow(c, 2.0)), c
    if name == "torus2-full":
        t2 = G.torus(2, 6.2832)
        return G.build_grid(t2, t2.compact_resolution, G.FullWindow()), G.make_point(t2, [0.05, 6.25])
    pr = G.product(G.euclidean(1), G.circle())
    window = G.ProductWindow(G.BallWindow(G.make_point(G.euclidean(1), [0.0]), 2.0), G.FullWindow())
    return G.build_grid(pr, 0.1, window), G.make_point(pr, [0.1, 6.2])


def _ball_atom(m, c):
    return P.Windowed(m, P.RadialPower(m, c, 0.9), G.BallWindow(c, 1.0))


def _box(m, c, hw):
    return G.BoxWindow(c, (hw,) * m.chart_dim)


# (name, potential from the model, the center c and a point `at` a distance from c)
NORM_ROWS = [
    ("windowed-ball", lambda m, c, at: _ball_atom(m, c)),
    ("windowed-box", lambda m, c, at: P.Windowed(m, P.RadialPower(m, c, 0.9), _box(m, c, 0.7))),
    ("indicator-ball", lambda m, c, at: P.Indicator(m, G.BallWindow(at(0.3), 0.8))),
    ("indicator-box", lambda m, c, at: P.Indicator(m, _box(m, at(0.3), 0.5))),
    ("scale", lambda m, c, at: P.Scale(-2.0, _ball_atom(m, c))),
    ("absval", lambda m, c, at: P.absolute(P.Scale(-1.0, _ball_atom(m, c)))),
    ("pospart", lambda m, c, at: P.positive_part(_ball_atom(m, c))),
    ("sum-nested-windows",
     lambda m, c, at: P.Sum((_ball_atom(m, c), P.Windowed(m, P.Constant(0.5), G.BallWindow(at(0.3), 0.4))))),
    ("sum-apart-windows",
     lambda m, c, at: P.Sum((P.Windowed(m, P.RadialPower(m, c, 0.9), G.BallWindow(c, 0.5)),
                             P.Windowed(m, P.RadialPower(m, at(1.5), 0.9), G.BallWindow(at(1.5), 0.4))))),
    ("center-outside-window",
     lambda m, c, at: P.Windowed(m, P.RadialPower(m, at(1.2), 0.9), G.BallWindow(c, 0.6))),
    ("center-near-window-edge",
     lambda m, c, at: P.Windowed(m, P.RadialPower(m, at(0.95), 0.9), G.BallWindow(c, 1.0))),
]


def _reference_lq(w, qs, weight, grid):
    """lq_norm summed over every node of the grid: |w|^q * weight, the nodes
    within twice the resolution of a singular set excised and the point
    singularities' balls added back from their profiles."""
    eps = 2.0 * grid.resolution
    vals = np.abs(P.evaluate_many(w, grid.node_coords))
    keep = P.singular_distance_many(w, grid.node_coords) >= eps
    sings = [s for s in P.singularities(w) if s.pair_cols is None]
    out = []
    for q in qs:
        if any(s.beta * q >= s.model.dim for s in sings):
            out.append(P.WeightedLqNorm(q, math.inf, True, 0))
            continue
        base = float(np.sum((grid.weights * vals**q * weight(grid.node_coords))[keep]))
        for s in sings:
            gaps = [(o, float(o.distances(s.center.coords[None, :])[0])) for o in sings]
            rest = sum(float(o.profile(np.array([d]))[0]) for o, d in gaps if d > 1e-12)
            ball = Q.near_field_integral(s.model, np.ones_like, lambda r: s.profile(r) ** q, 0.0, eps, s.beta * q)
            base += float(weight(s.center.coords[None, :])[0]) * (ball + rest**q * G.ball_volume_radial(s.model, eps))
        out.append(P.WeightedLqNorm(q, base ** (1.0 / q), False, int(np.sum(~keep))))
    return out


@pytest.mark.parametrize("row", [r[0] for r in NORM_ROWS])
@pytest.mark.parametrize("grid_name", ["euclidean3-y-grid", "hyperbolic3-ball", "torus2-full", "product-e1-circle"])
def test_lq_norm_on_the_support_equals_the_sum_over_every_node(grid_name, row):
    grid, c = _norm_grid(grid_name)
    model = grid.model
    direction = np.eye(model.tangent_dim)[0]
    w = dict(NORM_ROWS)[row](model, c, lambda r: G.exp_map(model, c, r * direction))
    weight = lambda ys: 1.0 + 0.01 * np.sum(ys**2, axis=1)
    qs = [1.0, 2.0, 3.5]
    want = _reference_lq(w, qs, weight, grid)
    # node values as an array weight too, where no excised center needs the weight
    weights = [weight] + ([] if P.singularities(w) else [weight(grid.node_coords)])
    for got in (P.lq_norm(w, qs, wt, grid) for wt in weights):
        for g, r in zip(got, want):
            assert (g.diverges, g.excised_nodes) == (r.diverges, r.excised_nodes)
            assert g.value == r.value or abs(g.value - r.value) <= 1e-14 * abs(r.value)


def _support_cut_cases(model):
    """(label, w, x-samples) with a known support: concentric with the
    y-grid, off its center, and a singular center eps / 4 inside the
    support's edge, whose excised ball ``_norm_window`` widens it to hold."""
    o = G.base_point(model)
    xs = [o, G.random_point(model, np.random.default_rng(5), 1.2)]
    eps = 2.0 * P._y_ball(model, P.Constant(1.0), 1.0, xs)[0]  # the y-grid around o
    c = G.random_point(model, np.random.default_rng(6), 0.6)
    s = G.random_point(model, np.random.default_rng(7), 0.6)
    edge = G.distance(model, c, s) + 0.25 * eps
    power = lambda p: P.RadialPower(model, p, 0.35)
    cases = [
        ("concentric", P.Windowed(model, power(c), G.BallWindow(c, 1.5)), [c, xs[1]]),
        ("off-center", P.Windowed(model, power(s), G.BallWindow(c, 1.0)), xs),
        ("widened", P.Windowed(model, power(s), G.BallWindow(c, edge)), xs),
    ]
    if model.flat:
        cases.append(("box", P.Windowed(model, power(s), G.BoxWindow(c, (0.7,) * model.dim)), xs))
    return cases, eps


@pytest.mark.parametrize("spec", ["euclidean:2", "euclidean:3", "hyperbolic3"])
def test_norm_grid_is_a_prefix_of_the_y_grid_with_the_same_norms(spec):
    # the cut grid's nodes and weights are the y-grid's first ones, and
    # lq_norm reads the same nodes of both, so every norm is equal to the bit
    model = G.parse_manifold(spec)
    eng = HK.make_engine(model)
    weight = lambda ys: 1.0 + 0.25 * np.tanh(ys[:, 0])
    qs = [1.6, 2.0, 5.0] if model.dim == 3 else [1.1, 2.0, 5.0]
    cases, eps = _support_cut_cases(model)
    for label, w, xs in cases:
        full, cut = P._default_y_grid(eng, w, 1.0, xs), P._norm_grid(eng, w, 1.0, xs)
        n = cut.size
        assert n < full.size // 4 and cut.resolution == full.resolution, label
        assert np.array_equal(cut.node_coords, full.node_coords[:n]), label
        assert np.array_equal(cut.weights, full.weights[:n]), label
        got, want = P.lq_norm(w, qs, weight, cut), P.lq_norm(w, qs, weight, full)
        assert got == want and want[0].excised_nodes > 0, label
        if label == "widened":
            assert P._norm_window(w, model, eps).radius > w.window.radius


@pytest.mark.parametrize("spec", ["euclidean:3", "hyperbolic3"])
def test_norm_grid_without_a_known_support_is_the_whole_y_grid(spec):
    model = G.parse_manifold(spec)
    eng = HK.make_engine(model)
    c = G.random_point(model, np.random.default_rng(6), 0.6)
    xs = [c]
    windows = [G.BallWindow(c, 0.5), G.BallWindow(G.exp_map(model, c, [0.1] * 3), 0.5)]
    unwindowed = P.RadialPower(model, c, 0.35)
    crossing = P.Sum(tuple(P.Windowed(model, unwindowed, win) for win in windows))  # no window covers both
    for w in (unwindowed, crossing, P.Constant(1.0)):
        assert P.support(w, model) is None
        assert P._norm_grid(eng, w, 1.0, xs) is P._default_y_grid(eng, w, 1.0, xs)


def test_grid_smoothing_keeps_the_whole_y_grid(monkeypatch):
    # p(s, x, .) reaches past supp(w): the smoothing grid is not cut
    c = G.make_point(E3, [0.3, -0.2, 0.1])
    w = P.Windowed(E3, P.Constant(2.0), G.BoxWindow(c, (0.5, 0.5, 0.5)))  # no radial form: grid smoothing
    eng = HK.make_engine(E3)
    grids = []
    monkeypatch.setattr(P, "_norm_grid", None)
    monkeypatch.setattr(P, "_default_y_grid", lambda *a, f=P._default_y_grid: grids.append(f(*a)) or grids[-1])
    P.smoothed_abs(eng, w, [0.1], c)
    assert [g.size for g in grids] == [384_000] and grids[0].window.radius == P._y_ball(E3, w, 1.0, [c])[2]


def test_excised_lq_matches_brute_force_refined():
    # spec property: within 2% of a fine-grid brute force for beta*q < 0.9 m
    w = P.RadialPower(E3, ORIGIN, 0.9)  # q=2: beta q = 1.8 < 2.7
    coarse = G.build_grid(E3, 0.04, G.BallWindow(ORIGIN, 1.0))
    fine = G.build_grid(E3, 0.008, G.BallWindow(ORIGIN, 1.0))
    a = P.lq_norm(w, 2.0, None, coarse).value
    vals = np.abs(P.evaluate_many(w, fine.node_coords))
    brute = (fine.integrate(vals**2)) ** 0.5
    assert a == pytest.approx(brute, rel=0.02)


def test_many_body_examples():
    eng3 = HK.make_engine(E3)
    one = P.many_body_assemble(1, [ORIGIN], eng3)
    x = G.make_point(E3, [1.0, 0, 0])
    assert P.evaluate(one, x) == pytest.approx(-1 / (4 * math.pi), rel=1e-12)
    prod = G.product(E3, E3)
    eng6 = HK.make_engine(prod)
    two = P.many_body_assemble(2, [], eng6)
    pt = G.make_point(prod, [0, 0, 0, 1, 0, 0])
    assert P.evaluate(two, pt) == pytest.approx(+1 / (4 * math.pi), rel=1e-12)
    empty = P.many_body_assemble(1, [], eng3)
    assert P.evaluate(empty, x) == 0.0


def test_many_body_dimension_mismatch():
    with pytest.raises(DomainError):
        P.many_body_assemble(2, [], HK.make_engine(E3))
    with pytest.raises(DomainError):
        P.many_body_assemble(1, [], HK.make_engine(G.euclidean(2)))
    mixed = G.product(E3, G.euclidean(2))
    with pytest.raises(DomainError):
        P.many_body_assemble(2, [], HK.make_engine(mixed))


def test_singular_distance_to_diagonal():
    prod = G.product(E3, E3)
    eng6 = HK.make_engine(prod)
    two = P.many_body_assemble(2, [], eng6)
    pt = G.make_point(prod, [0, 0, 0, 1, 0, 0])
    d = P.singular_distance_many(two, pt.coords[None, :])[0]
    assert d == pytest.approx(1 / math.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("base", ["euclidean:3", "hyperbolic3"])
def test_two_body_pairs_rows_in_one_distance_call(base):
    # one vectorized call gives the same bits as the per-row loop it replaced
    b = G.parse_manifold(base)
    prod = G.product(b, b)
    two = P.many_body_assemble(2, [], HK.make_engine(prod))
    rng = np.random.default_rng(17)
    ys = np.array([G.random_point(prod, rng).coords for _ in range(5000)])
    loop = np.array([G.distance_many(b, row[:3], row[None, 3:])[0] for row in ys])
    assert np.array_equal(P.evaluate_many(two, ys), P.coulomb_profile(b)(loop))
    assert np.array_equal(P.singular_distance_many(two, ys), loop / math.sqrt(2.0))


def test_windowed_potential():
    w = P.Windowed(E3, P.RadialPower(E3, ORIGIN, 1.0), G.BallWindow(ORIGIN, 1.0))
    assert P.evaluate(w, G.make_point(E3, [0.5, 0, 0])) == 2.0
    assert P.evaluate(w, G.make_point(E3, [2.0, 0, 0])) == 0.0
    assert len(P.singularities(w)) == 1
    # a window that leaves out the power's center reads 0 there, not inf
    # times the window's 0 (NaN), and |w| is bounded by the power at the
    # ball's nearest point, not by its sup (inf)
    far = G.make_point(E3, [3.0, 0, 0])
    w = P.Windowed(E3, P.RadialPower(E3, far, 1.0, -2.0), G.BallWindow(ORIGIN, 1.0))
    assert P.evaluate(w, far) == 0.0 and P.singularities(w) == []
    assert P.sup_abs(w) == 1.0 and P.sup_abs(P.Scale(3.0, w)) == 3.0


def test_parse_potential_round_trips():
    specs = [
        "constant:5",
        "radialpower:beta=1:center=0,0,0",
        "coulomb:center=0,0,0",
        "indicator:ball:r=1:center=0,0,0",
        "sum[constant:1;scale:-2:radialpower:beta=0.5]",
        "windowed:r=2:radialpower:beta=1",
        "cosine",
        "zero",
    ]
    y = G.make_point(E3, [0.5, 0, 0])
    for spec in specs:
        w = P.parse_potential(spec, E3)
        assert math.isfinite(P.evaluate(w, y))
    prod = G.product(E3, E3)
    wp = P.parse_potential("pullback:1:radialpower:beta=1:center=0,0,0", prod)
    assert P.evaluate(wp, G.make_point(prod, [9, 9, 9, 0.5, 0, 0])) == 2.0


@pytest.mark.parametrize(
    "spec",
    ["radialpower:beta=abc", "constant:x", "scale:two:constant:1", "radialpower:center=0,a,0",
     "pullback:0,7:constant:1", "pullback:x:constant:1", "pullback:-1,0:constant:1", "indicator:box:w=1,2"],
)
def test_parse_potential_number_errors_are_manifest_errors(spec):
    with pytest.raises(ManifestError):
        P.parse_potential(spec, G.product(E3, E3))


def test_parse_nested_sums():
    # a sum splits only at its own top-level ';', so sums nest at any depth
    w = P.parse_potential("sum[constant:1;scale:2:sum[constant:1;constant:2]]", E3)
    ys = np.random.default_rng(3).normal(size=(20, 3))
    assert np.all(P.evaluate_many(w, ys) == 7.0)
    # the first term of the nested sum is parsed first, and 1e400 is inf
    with pytest.raises(DomainError, match="constant potential value must be finite"):
        P.parse_potential("windowed:r=0.5:sum[sum[constant:1e400;constant:]]", E3)


@pytest.mark.parametrize(
    "spec",
    [
        "scale:nan:zero",
        "scale:inf:indicator:ball:r=0",
        "windowed:r=0:radialpower:beta=1:coeff=nan",
        "constant:1e400",
        "constant:nan",
    ],
)
def test_non_finite_factor_is_rejected(spec):
    # nan * 0 would read as a value no bound covers
    with pytest.raises(DomainError, match="finite"):
        P.parse_potential(spec, E3)


def test_cosine_potential_on_circle():
    c = G.circle()
    w = P.cosine_potential(c)
    for theta in (0.0, 0.7, 2.5):
        assert P.evaluate(w, G.circle_point(theta)) == pytest.approx(math.cos(theta), abs=1e-15)


# ---------------------------------------------------------------------------
# property test over the documented spec grammar, malformed fields included

_MODELS = ["euclidean:3", "circle", "product(euclidean:1,circle)"]
_VALID_CENTERS = {
    "euclidean:3": ["0,0,0", "1,-0.5,2"],
    "euclidean:1": ["0", "0.7"],
    "circle": ["1,0", "0,-1"],
    "product(euclidean:1,circle)": ["0.5,1,0", "-1,0,1"],
    "product(circle,euclidean:1)": ["1,0,0.5"],
}
# pullback index -> the model its inner spec lives on
_FACTORS = {"product(euclidean:1,circle)": {"0": "euclidean:1", "1": "circle", "0,1": "product(euclidean:1,circle)",
                                            "1,0": "product(circle,euclidean:1)"}}
_GOOD = st.floats(0.1, 2.5).map(lambda v: f"{v:.3g}")
_BAD = st.sampled_from(["0", "-1.5", "nan", "inf", "1e400", "abc", ""])
_NUMBERS = st.integers(0, 7).flatmap(lambda k: _BAD if k == 0 else _GOOD)  # one field in eight malformed


def _spec_strategy(model_name, depth=2):
    center = st.integers(0, 7).flatmap(
        lambda k: st.lists(_NUMBERS, min_size=1, max_size=4).map(lambda v: ":center=" + ",".join(v))
        if k == 0
        else st.sampled_from([""] + [":center=" + c for c in _VALID_CENTERS[model_name]])
    )
    leaf = st.one_of(
        _NUMBERS.map(lambda v: "constant:" + v),
        st.just("zero"),
        st.tuples(_NUMBERS, st.one_of(st.just(""), _NUMBERS.map(lambda v: ":coeff=" + v)), center).map(
            lambda a: f"radialpower:beta={''.join(a)}"
        ),
        center.map(lambda c: "coulomb" + c),
        center.map(lambda c: "cosine" + c),
        st.tuples(_NUMBERS, center).map(lambda a: f"indicator:ball:r={a[0]}{a[1]}"),
        st.tuples(st.lists(_NUMBERS, min_size=1, max_size=3), center).map(
            lambda a: f"indicator:box:w={','.join(a[0])}{a[1]}"
        ),
    )
    if depth == 0:
        return leaf
    inner = _spec_strategy(model_name, depth - 1)
    factors = _FACTORS.get(model_name, {"0": model_name})
    return st.one_of(
        leaf,
        st.tuples(_NUMBERS, inner).map(lambda a: f"scale:{a[0]}:{a[1]}"),
        st.tuples(_NUMBERS, center, inner).map(lambda a: f"windowed:r={a[0]}{a[1]}:{a[2]}"),
        st.sampled_from(sorted(factors)).flatmap(
            lambda i: _spec_strategy(factors[i], depth - 1).map(lambda v: f"pullback:{i}:{v}")
        ),
        st.tuples(st.sampled_from(["-1", "0,-1", "2", "0,5", "x", "0.5"]), leaf).map(lambda a: f"pullback:{a[0]}:{a[1]}"),
        st.lists(inner, min_size=1, max_size=3).map(lambda v: "sum[" + ";".join(v) + "]"),
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_spec_grammar_parses_caps_and_bounds(data):
    name = data.draw(st.sampled_from(_MODELS))
    model = G.parse_manifold(name)
    spec = data.draw(_spec_strategy(name))
    try:
        w = P.parse_potential(spec, model)
    except HeatKatoError:
        return
    assert isinstance(w, P.Potential)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    center = P.center_of(w, model)
    ys = np.array([G.random_point(model, rng).coords for _ in range(40)] + [center.coords])
    eps = 1e-3
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf and the like are part of the grammar
        vals, near, cap = P.capped_values(w, ys, eps)
        size = np.abs(P.evaluate_many(w, ys))
    assert vals.shape == near.shape == (ys.shape[0],) and np.all(np.isfinite(vals)), spec
    # bounds hold away from singular sets; the margins cover rounding only
    away = P.singular_distance_many(w, ys) >= eps
    sup = P.sup_abs(w)
    if math.isfinite(sup):
        assert np.all(size[away] <= sup * (1 + 1e-12)), spec
    R = data.draw(st.floats(0.1, 3.0))
    sup_out = P.sup_abs(w, outside=(center, R))
    beyond = away & (G.distance_many(model, center.coords, ys) > R * (1 + 1e-9) + 1e-9)
    if math.isfinite(sup_out):
        assert np.all(size[beyond] <= sup_out * (1 + 1e-12)), (spec, R)


def test_pullback_singular_sets_read_their_own_columns():
    # swapped and nested pullbacks map their leaf coordinates through the
    # product chart; a window around a pullback keeps its subspace set
    prod = G.parse_manifold("product(euclidean:1,circle)")
    rng = np.random.default_rng(0)
    ys = np.array([G.random_point(prod, rng).coords for _ in range(5)])
    swapped = G.parse_manifold("product(circle,euclidean:1)")
    cases = [
        ("pullback:1,0:radialpower:beta=0.5:center=0,0.5",
         G.distance_many(swapped, np.array([0.0, 0.5]), np.concatenate([ys[:, 1:2], ys[:, :1]], axis=1))),
        ("pullback:1:pullback:0:radialpower:beta=0.5:center=1.5",
         G.distance_many(G.circle(), np.array([1.5]), ys[:, 1:2])),
        ("windowed:r=1:pullback:0:radialpower:beta=0.5", np.abs(ys[:, 0])),
    ]
    for spec, expected in cases:
        got = P.singular_distance_many(P.parse_potential(spec, prod), ys)
        assert np.array_equal(got, expected), spec


def test_box_indicator_on_a_product():
    prod = G.parse_manifold("product(euclidean:1,circle)")
    w = P.parse_potential("indicator:box:w=0.5", prod)
    inside, outside = G.base_point(prod).coords, G.make_point(prod, [2.0, 0.0]).coords
    assert list(P.evaluate_many(w, np.array([inside, outside]))) == [1.0, 0.0]


@pytest.mark.parametrize("spec", ["product(euclidean:1,circle)", "product(circle,euclidean:1)", "circle"])
def test_a_box_reaches_across_the_circle_seam(spec):
    # centered at angle 0, a box of half-width 0.5 holds the angles on both
    # sides of the 0 / 2 pi seam, and the Windowed form agrees
    model = G.parse_manifold(spec)
    col = 0 if spec.startswith(("circle", "product(circle")) else 1
    rows = np.zeros((5, model.chart_dim))
    rows[:, col] = [0.0, 0.4, 2 * math.pi - 0.1, 2 * math.pi - 0.6, 0.6]
    expected = [1.0, 1.0, 1.0, 0.0, 0.0]
    for potential in ("indicator:box:w=0.5", "windowed:r=100:indicator:box:w=0.5"):
        w = P.parse_potential(potential, model)
        assert list(P.evaluate_many(w, rows)) == expected, potential


# ---------------------------------------------------------------------------
# path rows (the samplers' stored angles) against chart points and against
# the circle embedded in the plane

CIRCLE = G.circle()
E1_CIRCLE = G.parse_manifold("product(euclidean:1,circle)")
CIRCLE_E1 = G.parse_manifold("product(circle,euclidean:1)")  # the circle's column comes first


def _circle_potentials(tc):
    c = G.circle_point(tc)
    rp = P.RadialPower(CIRCLE, c, 0.5, 2.0)
    cos = P.cosine_potential(CIRCLE, c)
    return {
        "constant": P.Constant(1.5),
        "radial-function": cos,
        "radial-power": rp,
        "ball": P.Indicator(CIRCLE, G.BallWindow(c, 0.7)),
        "box": P.Indicator(CIRCLE, G.BoxWindow(c, (0.5,))),
        "windowed-constant": P.Windowed(CIRCLE, P.Constant(2.0), G.BallWindow(c, 1.0)),
        "windowed-power": P.Windowed(CIRCLE, rp, G.BallWindow(c, 1.0)),
        "sum-scale": P.Sum((cos, P.Scale(-2.0, rp))),
        "pos": P.positive_part(P.Scale(-1.0, cos)),
        "neg": P.negative_part(cos),
        "abs": P.absolute(P.Scale(-3.0, rp)),
    }


def _product_potentials(tc):
    c = G.circle_point(tc)
    cc = repr(float(c.coords[0]))
    specs = [
        f"pullback:1,0:radialpower:beta=0.5:center={cc},0.3",
        f"pullback:1:pullback:0:radialpower:beta=0.5:center={cc}",
        "windowed:r=1:pullback:0:radialpower:beta=0.5",
        "indicator:box:w=0.5",
        f"sum[pullback:0:indicator:ball:r=0.4;scale:-2:pullback:1:cosine:center={cc}]",
    ]
    out = {spec: P.parse_potential(spec, E1_CIRCLE) for spec in specs}
    center = G.make_point(E1_CIRCLE, [0.3, *c.coords])
    out["radial-function"] = P.cosine_potential(E1_CIRCLE, center)
    out["radial-power"] = P.RadialPower(E1_CIRCLE, center, 1.0)
    return out


def _swapped_potentials(tc):
    cc = repr(float(G.circle_point(tc).coords[0]))
    specs = [
        f"pullback:0:cosine:center={cc}",
        "pullback:1:radialpower:beta=0.5:center=0.3",
        f"pullback:0,1:radialpower:beta=0.5:center={cc},0.3",
    ]
    return {spec: P.parse_potential(spec, CIRCLE_E1) for spec in specs}


def _angles(tc, n=400, seed=0):
    """Angles as a walk leaves them before it wraps (in [-pi, pi)), the
    0 / 2 pi seam, and angles within eps = 0.05 of the center."""
    rng = np.random.default_rng(seed)
    near = tc + np.array([0.0, 1e-3, -1e-3, 0.02, -0.03])
    seam = [0.0, -np.nextafter(0.0, 1.0), 2 * math.pi, np.nextafter(2 * math.pi, 0.0)]
    return np.concatenate([rng.uniform(-math.pi, math.pi, n), seam, near])


def _path_cases():
    for tc in (0.0, 2.0, math.pi):
        theta = _angles(tc)
        for name, w in _circle_potentials(tc).items():
            yield f"circle-{tc:g}-{name}", tc, w, theta[:, None], CIRCLE
        xs = np.random.default_rng(1).uniform(-1.0, 1.0, theta.size)
        xs[-5:] = 0.3  # the product centers' euclidean coordinate
        for name, w in _product_potentials(tc).items():
            yield f"product-{tc:g}-{name}", tc, w, np.stack([xs, theta], axis=1), E1_CIRCLE
        for name, w in _swapped_potentials(tc).items():
            yield f"swapped-{tc:g}-{name}", tc, w, np.stack([theta, xs], axis=1), CIRCLE_E1


_PATH_CASES = list(_path_cases())


def _walk_rows(model, rows):
    """The rows as the sampler stores them: wrapped in place after a flat walk."""
    out = rows.copy()
    model.wrap_path(out)
    return out


@pytest.mark.parametrize("case", _PATH_CASES, ids=[c[0] for c in _PATH_CASES])
def test_path_rows_evaluate_as_chart_rows(case):
    # the sampler's in-place wrap and point validation put a row at the same
    # chart coordinates, so a stored path row and the point it stands for
    # evaluate alike to the bit: every class, window, pullback and singular
    # set reads its own columns
    _, _, w, rows, model = case
    chart = np.array([G.make_point(model, row).coords for row in rows])
    with np.errstate(divide="ignore", invalid="ignore"):
        got = P.capped_values(w, _walk_rows(model, rows), 0.05)
        want = P.capped_values(w, chart, 0.05)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _embedded_distance(original):
    """One-axis tori of side 2 pi measured as the unit circle in the plane:
    atan2(|x cross y|, x . y) of the embedded points."""

    def distance_many(self, x, ys):
        if self.dim != 1 or self.side_length != 2 * math.pi:
            return original(self, x, ys)
        a, b = x[..., 0], ys[:, 0]
        x0, x1, y0, y1 = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
        return np.arctan2(np.abs(x0 * y1 - x1 * y0), x0 * y0 + x1 * y1)
    return distance_many


@pytest.mark.parametrize("case", _PATH_CASES, ids=[c[0] for c in _PATH_CASES])
def test_path_rows_agree_with_chart_rows(case, monkeypatch):
    # the folded angle distance against the circle embedded in the plane
    _, _, w, rows, model = case
    paths = _walk_rows(model, rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals, near, cap = P.capped_values(w, paths, 0.05)
        monkeypatch.setattr(G.Torus, "distance_many", _embedded_distance(G.Torus.distance_many))
        want, want_near, want_cap = P.capped_values(w, paths, 0.05)
    assert np.array_equal(near, want_near) and cap == want_cap
    # the two distances differ by up to two ulps of pi (both are rounded: the
    # folded difference, or the embedding's cos and sin), which a profile's
    # slope carries into the values
    assert np.max(np.abs(vals - want)) <= 32 * np.spacing(np.max(np.abs(want)))


def test_path_distance_within_two_ulps_of_pi():
    theta = _walk_rows(CIRCLE, _angles(2.0, n=20000)[:, None])
    embedded = _embedded_distance(None)
    for tc in (0.0, 1.0, 2.0, -2.5, math.pi):
        x = G.circle_point(tc).coords
        d = G.distance_many(CIRCLE, x, theta)
        assert np.all((d >= 0.0) & (d <= math.pi))
        assert np.max(np.abs(d - embedded(CIRCLE, x, theta))) <= 2 * np.spacing(math.pi)
