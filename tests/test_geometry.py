import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

from heatkato import geometry as G
from heatkato.errors import DomainError, InvalidPointError, ManifestError

ALL_SPECS = [
    "euclidean:2",
    "euclidean:3",
    "torus:2:6.283185307179586",
    "circle",
    "sphere2",
    "hyperbolic3",
    "product(euclidean:1,circle)",
]


def models():
    return [G.parse_manifold(s) for s in ALL_SPECS]


def test_euclidean_345():
    e2 = G.euclidean(2)
    assert G.distance(e2, G.make_point(e2, [0, 0]), G.make_point(e2, [3, 4])) == 5.0


def test_sphere_antipodal():
    s2 = G.sphere2()
    d = G.distance(s2, G.make_point(s2, [0, 0, 1]), G.make_point(s2, [0, 0, -1]))
    assert abs(d - math.pi) < 1e-15


def test_hyperbolic_vertical_distance_closed_form():
    h3 = G.hyperbolic3()
    d = G.distance(h3, G.make_point(h3, [0, 0, 1]), G.make_point(h3, [0, 0, math.e]))
    assert abs(d - 1.0) < 1e-12


def test_hyperbolic_distance_vs_geodesic_length_oracle():
    # oracle: chop the exp_map geodesic into chart segments and sum their
    # Riemannian lengths |dx|_e / z
    h3 = G.hyperbolic3()
    x = G.make_point(h3, [0.4, -0.3, 0.8])
    v = np.array([0.7, 0.2, -0.4])
    y = G.exp_map(h3, x, v)
    n = 4000
    pts = np.stack(
        [G.exp_map(h3, x, v * (k / n)).coords for k in range(n + 1)]
    )
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    zbar = 0.5 * (pts[:-1, 2] + pts[1:, 2])
    length = float(np.sum(seg / zbar))
    assert abs(length - G.distance(h3, x, y)) < 5e-7


def test_hyperbolic_distance_independent_of_memory_order():
    # fancy indexing gives F-ordered copies, slicing C-ordered views; the
    # distances must agree bit for bit
    prod = G.product(G.hyperbolic3(), G.hyperbolic3())
    rng = np.random.default_rng(5)
    ys = np.array([G.random_point(prod, rng).coords for _ in range(50)])
    h3 = prod.factors[0]
    fancy = G.distance_many(h3, ys[:, [0, 1, 2]], ys[:, [3, 4, 5]])
    sliced = G.distance_many(h3, ys[:, :3], ys[:, 3:])
    assert np.array_equal(fancy, sliced)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_distance_symmetry_and_triangle(seed):
    rng = np.random.default_rng(seed)
    for model in models():
        x, y, z = (G.random_point(model, rng) for _ in range(3))
        dxy = G.distance(model, x, y)
        dyx = G.distance(model, y, x)
        assert abs(dxy - dyx) < 1e-12
        assert dxy <= G.distance(model, x, z) + G.distance(model, z, y) + 1e-12
        assert G.distance(model, x, x) == 0.0


def test_product_pythagoras_exact():
    model = G.parse_manifold("product(euclidean:2,circle)")
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = G.random_point(model, rng), G.random_point(model, rng)
        d2 = G.distance(model, x, y) ** 2
        xl, xr = G.split_point(model, x)
        yl, yr = G.split_point(model, y)
        dl2 = G.distance(model.factors[0], xl, yl) ** 2
        dr2 = G.distance(model.factors[1], xr, yr) ** 2
        assert d2 == pytest.approx(dl2 + dr2, abs=1e-12)


def test_ball_volumes_closed_forms():
    assert G.ball_volume_radial(G.euclidean(2), 1.0) == pytest.approx(math.pi, abs=1e-14)
    assert G.ball_volume_radial(G.sphere2(), math.pi) == pytest.approx(4 * math.pi, abs=1e-12)
    # radial integration oracle for hyperbolic space
    h3 = G.hyperbolic3()
    oracle, _ = quad(lambda r: 4 * math.pi * math.sinh(r) ** 2, 0, 1.0)
    assert G.ball_volume_radial(h3, 1.0) == pytest.approx(oracle, rel=1e-10)
    assert G.ball_volume_radial(h3, 1.0) == pytest.approx(math.pi * (math.sinh(2) - 2), rel=1e-12)


def test_ball_volume_monotone_and_capped():
    t2 = G.torus(2, 2 * math.pi)
    rs = np.linspace(0.1, 6.0, 40)
    vols = [G.ball_volume_radial(t2, r) for r in rs]
    assert all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))
    assert vols[-1] == pytest.approx((2 * math.pi) ** 2, rel=1e-12)


def test_product_ball_volume_matches_torus():
    # circle x circle is the flat square torus: independent closed form
    pc = G.product(G.circle(), G.circle())
    t2 = G.torus(2, 2 * math.pi)
    for r in (0.5, 2.0, 3.5, 5.0):
        assert G.ball_volume_radial(pc, r) == pytest.approx(
            G.ball_volume_radial(t2, r), rel=1e-8
        )


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_ball_volume_vs_indicator_quadrature(spec):
    model = G.parse_manifold(spec)
    rng = np.random.default_rng(11)
    x = G.random_point(model, rng)
    r = 0.9
    if model.compact:
        grid = G.build_grid(model, _full_res(model), G.FullWindow())
    elif isinstance(model, G.Product):
        xl, _ = G.split_point(model, x)
        grid = G.build_grid(
            model, 0.02, G.ProductWindow(G.BallWindow(xl, 1.5 * r), G.FullWindow())
        )
    else:
        grid = G.build_grid(model, 0.02, G.BallWindow(x, 1.5 * r))
    d = G.distance_many(model, x.coords, grid.node_coords)
    approx = grid.integrate((d <= r).astype(float))
    exact = G.ball_volume(model, x, r)
    assert approx == pytest.approx(exact, rel=0.05)


def _full_res(model):
    if isinstance(model, G.Sphere2):
        return math.pi / 96
    if isinstance(model, G.Torus):
        return model.side_length / (512 if model.dim == 1 else 96)
    return 0.05


def test_exp_map_flat_cases():
    e2 = G.euclidean(2)
    p = G.exp_map(e2, G.make_point(e2, [1, 2]), [0.5, -1.0])
    assert np.allclose(p.coords, [1.5, 1.0])
    c = G.circle()
    q = G.exp_map(c, G.circle_point(0.3), [0.4])
    assert np.allclose(q.coords, [0.7], atol=1e-15)
    assert G.exp_map(c, G.circle_point(6.0), [0.5]).coords == pytest.approx([6.5 - 2 * math.pi], abs=1e-15)


def test_exp_map_sphere_half_great_circle():
    s2 = G.sphere2()
    north = G.make_point(s2, [0, 0, 1])
    south = G.exp_map(s2, north, [math.pi, 0, 0])
    assert np.allclose(south.coords, [0, 0, -1], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_exp_map_preserves_charts_and_distance(seed):
    rng = np.random.default_rng(seed)
    for model in models():
        x = G.random_point(model, rng)
        v = rng.standard_normal(model.tangent_dim) * 0.3
        y = G.exp_map(model, x, v)
        if isinstance(model, G.Sphere2):
            assert abs(np.linalg.norm(y.coords) - 1.0) < 1e-12
        if isinstance(model, G.Torus):
            assert np.all((y.coords >= 0.0) & (y.coords < model.side_length))
        if isinstance(model, G.Hyperbolic3):
            assert y.coords[2] > 0
            vg = np.linalg.norm(v) / x.coords[2]
            assert G.distance(model, x, y) == pytest.approx(vg, rel=1e-9, abs=1e-12)
        if isinstance(model, G.Euclidean):
            assert G.distance(model, x, y) == pytest.approx(np.linalg.norm(v), abs=1e-12)


def test_build_grid_circle_uniform():
    grid = G.build_grid(G.circle(), 2 * math.pi / 64, G.FullWindow())
    assert grid.size == 64
    assert np.allclose(grid.weights, 2 * math.pi / 64)


def test_build_grid_sphere_total_area():
    grid = G.build_grid(G.sphere2(), math.pi / 24, G.FullWindow())
    assert grid.integrate(np.ones(grid.size)) == pytest.approx(4 * math.pi, rel=1e-12)


def test_build_grid_unit_interval():
    e1 = G.euclidean(1)
    grid = G.build_grid(e1, 0.25, G.BoxWindow(G.make_point(e1, [0.5]), (0.5,)))
    assert grid.size == 4
    assert grid.integrate(np.ones(4)) == pytest.approx(1.0, abs=1e-15)


def test_grid_quadrature_accuracy_smooth():
    # the only visible defect should be the analytic window tail 2 pi e^{-R^2/2}
    e2 = G.euclidean(2)
    x = G.base_point(e2)
    grid = G.build_grid(e2, 0.05, G.BallWindow(x, 6.0))
    vals = np.exp(-np.linalg.norm(grid.node_coords, axis=1) ** 2 / 2)
    tail = 2 * math.pi * math.exp(-18.0)
    assert grid.integrate(vals) == pytest.approx(2 * math.pi - tail, rel=1e-10)


def test_point_validation():
    s2 = G.sphere2()
    with pytest.raises(InvalidPointError):
        G.make_point(s2, [0, 0, 1.5])
    h3 = G.hyperbolic3()
    with pytest.raises(InvalidPointError):
        G.make_point(h3, [0, 0, -1.0])
    with pytest.raises(InvalidPointError):
        G.make_point(G.euclidean(2), [1, 2, 3])


def test_manifold_invariants():
    prod = G.parse_manifold("product(euclidean:3,hyperbolic3)")
    assert prod.dim == 6
    assert prod.ricci_lower_bound == -2.0


def test_a_torus_describes_a_spec_of_itself():
    # the side prints short where that round-trips, in full where it does not
    assert G.circle().describe() == "torus:1:6.283185307179586"
    assert G.parse_manifold("torus:2:6.2832").describe() == "torus:2:6.2832"
    for model in (G.circle(), G.parse_manifold("product(euclidean:1,circle)"), G.torus(3, 0.1 + 0.2)):
        assert G.parse_manifold(model.describe()) == model


def test_parse_manifold_round_trip_and_errors():
    for spec in ALL_SPECS:
        model = G.parse_manifold(spec)
        assert G.parse_manifold(model.describe()).describe() == model.describe()
    with pytest.raises(ManifestError):
        G.parse_manifold("banach:3")
    with pytest.raises(ManifestError):
        G.parse_manifold("torus:2")
    with pytest.raises(ManifestError):
        G.parse_manifold("product(euclidean:2)")


def test_empty_window_rejected():
    with pytest.raises(DomainError):
        G.build_grid(G.euclidean(2), -0.1, G.FullWindow())
    with pytest.raises(DomainError):
        G.build_grid(G.euclidean(2), 0.1, G.FullWindow())  # non-compact needs a window
    with pytest.raises(DomainError):
        G.build_grid(G.euclidean(2), 0.1, G.BallWindow(G.base_point(G.euclidean(2)), 0.0))


def _norm_rows(model, x, ys):
    """The distance formulas the axis-by-axis sums must reproduce to the bit:
    on a torus the norm of the gaps min(|ys - x|, L - |ys - x|)."""
    if isinstance(model, G.Sphere2):  # cos d as a row sum ((a0 + a1) + a2), not a BLAS dot
        cross = np.linalg.norm(np.cross(np.broadcast_to(x, ys.shape), ys), axis=1)
        return np.arctan2(cross, np.sum(ys * x, axis=1))
    if isinstance(model, G.Torus):
        gap = np.abs(ys - x)
        return np.linalg.norm(np.minimum(gap, model.side_length - gap), axis=1)
    return np.linalg.norm(ys - x, axis=1)


@pytest.mark.parametrize(
    "spec",
    ["euclidean:1", "euclidean:2", "euclidean:3", "torus:2:1.3", "torus:3:2", "sphere2", "circle", "torus:1:0.7"],
)
def test_distance_rows_equal_the_norm_formulas_bit_for_bit(spec):
    model = G.parse_manifold(spec)
    rng = np.random.default_rng(11)
    ys = np.array([G.random_point(model, rng, 3.0).coords for _ in range(257)])
    x = G.random_point(model, rng, 3.0).coords
    wide = np.repeat(ys, 2, axis=1)  # every other column: rows with a stride
    for rows in (ys, np.asfortranarray(ys), wide[:, ::2], ys[::3]):
        d = G.distance_many(model, x, rows)
        assert np.array_equal(d, _norm_rows(model, x, rows))
        # and whatever the memory order of the rows
        assert np.array_equal(d, G.distance_many(model, x, np.ascontiguousarray(rows)))
    if model.flat:  # row-paired x
        paired = ys[::-1].copy()
        assert np.array_equal(G.distance_many(model, paired, ys), _norm_rows(model, paired, ys))


@pytest.mark.parametrize("spec", ["circle", "torus:1:0.7", "torus:3:2"])
def test_torus_fold_equals_np_mod_bit_for_bit(spec):
    # wrap_path folds only the off-chart entries; the result must be np.mod's,
    # signbits and NaN bits included, in every memory layout
    model = G.parse_manifold(spec)
    L = model.side_length
    rng = np.random.default_rng(3)
    edges = np.array([-0.0, 0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, L, -L, 2 * L + 1e-9,
                      np.nextafter(L, 0.0), -1e-300])
    walk = np.cumsum(rng.standard_normal((40, 30)) * 0.3 * L, axis=1)
    cases = [np.resize(edges, (4, 3 * model.dim)), walk[:, : 3 * model.dim]]
    for vals in cases:
        wide = np.repeat(vals, 2, axis=1)
        for paths in (vals.copy(), np.asfortranarray(vals), wide[:, ::2]):
            with np.errstate(invalid="ignore"):  # np.mod(+-inf, L) is NaN
                want = np.mod(paths, L)
                model.wrap_path(paths)
            assert np.array_equal(paths.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("m", [7, 8, 13, 16, 55])
def test_many_axes_sum_in_the_norm_order(m):
    # from 8 axes on, np.linalg.norm sums a C-ordered row pairwise
    model = G.euclidean(m)
    rng = np.random.default_rng(m)
    ys = rng.standard_normal((300, m)) * np.exp(rng.uniform(-8.0, 8.0, (300, m)))
    x = rng.standard_normal(m)
    assert np.array_equal(G.distance_many(model, x, ys), np.linalg.norm(ys - x, axis=1))


def test_nodes_in_a_window_are_found_once_and_a_concentric_ball_is_a_prefix():
    e3 = G.euclidean(3)
    c = G.make_point(e3, [0.3, -0.2, 0.1])
    grid = G.build_grid(e3, 0.1, G.BallWindow(c, 2.0))
    ball = G.BallWindow(c, 0.75)
    take = grid.nodes_in(ball)
    inside = G.distance_many(e3, c.coords, grid.node_coords) <= 0.75
    assert isinstance(take, slice) and take.start == 0 and take.stop == inside.sum() and inside[take].all()
    assert grid.nodes_in(G.BallWindow(G.make_point(e3, c.coords), 0.75)) is take  # kept per window
    box = G.BoxWindow(G.make_point(e3, [1.0, 0.0, 0.0]), (0.4, 0.3, 0.2))
    assert np.array_equal(grid.nodes_in(box), np.flatnonzero(G.in_window(e3, box, grid.node_coords)))


def test_window_within_by_the_triangle_inequality():
    t2 = G.torus(2, 6.0)
    c, near_seam = G.make_point(t2, [0.1, 3.0]), G.make_point(t2, [5.9, 3.0])
    assert G.window_within(t2, G.BallWindow(near_seam, 0.5), G.BallWindow(c, 0.8))  # 0.2 apart across the seam
    assert not G.window_within(t2, G.BallWindow(near_seam, 0.7), G.BallWindow(c, 0.8))
    assert G.window_within(t2, G.BoxWindow(near_seam, (0.3, 0.5)), G.BoxWindow(c, (0.5, 0.5)))
    assert not G.window_within(t2, G.BoxWindow(near_seam, (0.3, 0.6)), G.BoxWindow(c, (0.5, 0.5)))
    assert not G.window_within(t2, G.BallWindow(c, 0.1), G.BoxWindow(c, (0.5, 0.5)))  # no mixed pairs


@pytest.mark.parametrize("m", range(1, 56))
def test_euclidean_mass_tail_matches_the_regularized_gamma(m):
    # Q(m/2, x) by the upward recurrence from erfc or e^-x, x = r^2 / (2t)
    e = G.euclidean(m)
    t = 0.37
    for x in np.concatenate([[0.0], np.logspace(-10, math.log10(700.0), 120)]):
        r = math.sqrt(2.0 * t * x)
        ref = float(gammaincc(m / 2.0, r * r / (2.0 * t)))
        if ref > 1e-300:
            assert e.mass_tail(t, r) == pytest.approx(ref, rel=1e-12, abs=0.0), (x, ref)
