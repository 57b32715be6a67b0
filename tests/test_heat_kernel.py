import math
import time

import numpy as np
import pytest
from scipy.special import eval_legendre

from heatkato import geometry as G
from heatkato import heat_kernel as HK
from heatkato.errors import DomainError

ALL_SPECS = [
    "euclidean:2",
    "euclidean:3",
    "torus:2:6.283185307179586",
    "circle",
    "sphere2",
    "hyperbolic3",
    "product(euclidean:1,circle)",
]


def radial_heat_equation_oracle(t0: float, t1: float, r_max=14.0, n_r=2800, n_t=4000):
    """Crank-Nicolson for u_t = (1/2)(u'' + (2/r) u') in 3d radial coordinates,
    via the substitution v = r u (plain 1d heat equation with v(0) = 0)."""
    r = np.linspace(0.0, r_max, n_r + 1)
    dr = r[1] - r[0]
    u0 = (2 * math.pi * t0) ** -1.5 * np.exp(-(r**2) / (2 * t0))
    v = r * u0
    dt = (t1 - t0) / n_t
    lam = 0.5 * dt / (2 * dr * dr)
    main = np.full(n_r - 1, 1 + 2 * lam)
    off = np.full(n_r - 2, -lam)
    from scipy.linalg import solve_banded

    ab = np.zeros((3, n_r - 1))
    ab[0, 1:] = off
    ab[1] = main
    ab[2, :-1] = off
    for _ in range(n_t):
        rhs = v[1:-1] + lam * (v[2:] - 2 * v[1:-1] + v[:-2])
        v[1:-1] = solve_banded((1, 1), ab, rhs)
    u = np.empty_like(v)
    u[1:] = v[1:] / r[1:]
    u[0] = u[1] + (u[1] - u[2])  # linear extrapolation to r = 0
    return r, u


def test_euclidean3_on_diag_value_and_pde_oracle():
    e3 = HK.make_engine(G.euclidean(3))
    val = HK.on_diag(e3, 1.0)
    assert val == pytest.approx((2 * math.pi) ** -1.5, abs=1e-15)
    # independent check of the (1/2)-Laplacian normalization: evolve the t=0.2
    # radial profile to t=1 with a PDE solver and compare at the origin
    r, u = radial_heat_equation_oracle(0.2, 1.0)
    assert u[0] == pytest.approx(val, rel=2e-4)
    probe = HK.eval_radial(e3, 1.0, r[::200])
    assert np.max(np.abs(probe - u[::200])) < 3e-5


def test_product_of_lines_equals_plane():
    prod = HK.make_engine(G.parse_manifold("product(euclidean:1,euclidean:1)"))
    e2 = HK.make_engine(G.euclidean(2))
    x = np.array([0.3, -0.2])
    ys = np.array([[1.0, 0.5], [0.0, 0.0], [-2.0, 1.0]])
    a = HK.eval_many(prod, 0.7, x, ys)
    b = HK.eval_many(e2, 0.7, x, ys)
    np.testing.assert_allclose(a, b, rtol=5e-16)
    # the product engine is bitwise the pointwise product of its factor evals
    left = HK.eval_many(prod.factors[0], 0.7, x[:1], ys[:, :1])
    right = HK.eval_many(prod.factors[1], 0.7, x[1:], ys[:, 1:])
    assert np.array_equal(a, left * right)


def test_sphere_long_time_limit():
    s2 = HK.make_engine(G.sphere2())
    assert HK.on_diag(s2, 50.0) == pytest.approx(1 / (4 * math.pi), abs=1e-10)


def test_circle_image_sum_vs_fourier_series():
    # two structurally different representations of the same kernel, each
    # with cutoffs past the ones the engine takes, on both sides of the
    # switch t* = L^2 / (2 pi), far past it, and on a short period
    for L, ts in ((2 * math.pi, (0.02, 0.3, 4.0, 2 * math.pi, 40.0, 1e6)), (0.01, (1e-6, 1.6e-5, 1e-4))):
        d = np.linspace(0, L / 2, 9)
        for t in ts:
            images = HK.wrapped_gaussian(d, t, L, int(math.sqrt(90 * t) / L) + 4)
            modes = HK.circle_fourier(d, t, L, int(L / (2 * math.pi) * math.sqrt(80 / t)) + 4)
            assert np.max(np.abs(images - modes)) < 1e-13 * images[0], (L, t)  # relative to the peak


def test_circle_mass_wrapped_sum_oracle():
    c = HK.make_engine(G.circle())
    grid = G.build_grid(G.circle(), 2 * math.pi / 400, G.FullWindow())
    for t in (0.05, 1.0):
        mass = grid.integrate(HK.eval_many(c, t, G.circle_point(0.7).coords, grid.node_coords))
        assert mass == pytest.approx(1.0, abs=1e-10)
    # independent K=20 wrapped sum
    theta = 1.1
    oracle = sum(
        math.exp(-((theta + 2 * math.pi * k) ** 2) / (2 * 0.3)) for k in range(-20, 21)
    ) / math.sqrt(2 * math.pi * 0.3)
    val = HK.eval_kernel(c, 0.3, G.circle_point(0.0), G.circle_point(theta))
    assert val == pytest.approx(oracle, rel=1e-14)


@pytest.mark.parametrize(
    "spec, ts, tol",
    [("circle", [0.2, 1.0], 1e-9), ("euclidean:2", [0.3], 1e-8), ("product(euclidean:1,circle)", [0.3], 1e-8)],
    ids=["circle", "euclidean2", "product"],
)
def test_kernel_mass_is_one_on_complete_models(spec, ts, tol):
    model = G.parse_manifold(spec)
    eng = HK.make_engine(model)
    for t in ts:
        mass, _ = HK.kernel_mass(eng, t, G.base_point(model))
        assert mass == pytest.approx(1.0, abs=tol)


def test_legendre_series_against_scipy():
    xs = np.linspace(-1, 1, 7)
    t = 0.4
    direct = sum(
        (2 * l + 1) / (4 * math.pi) * math.exp(-l * (l + 1) * t / 2) * eval_legendre(l, xs)
        for l in range(80)
    )
    assert np.max(np.abs(HK.sphere_series(t, xs, 80) - direct)) < 1e-14


def test_sphere_truncation_bound_honored():
    s2 = HK.make_engine(G.sphere2())
    t = 0.05
    lmax = HK.sphere_lmax(t, 1e-12, 20000)
    short = HK.sphere_series(t, np.array([0.2]), lmax)
    longer = HK.sphere_series(t, np.array([0.2]), lmax + 400)
    assert abs(short[0] - longer[0]) <= HK.sphere_tail_bound(lmax, t) + 1e-15


_ZERO_CUTOFF_ROWS = [(spec, t, "series:0") for t in (0.05, 0.3, 1.0) for spec in ("circle", "sphere2", "torus:2:5.0")]
# imagesum:0 at large t: the image ratio e^(-L^2/t) is near 1 (a clamped
# denominator reported 0.110 against an error of 0.132)
_ZERO_CUTOFF_ROWS.append(("circle", 200.0, "imagesum:0"))


@pytest.mark.parametrize(
    "spec, t, method",
    _ZERO_CUTOFF_ROWS,
    ids=[f"{t}-{spec}" + ("" if method == "series:0" else f"-{method}") for spec, t, method in _ZERO_CUTOFF_ROWS],
)
def test_explicit_zero_cutoff_bound_covers_its_error(spec, t, method):
    # series:0 keeps only the constant mode (sphere or Fourier series, one
    # axis of the torus), imagesum:0 only the nearest image; each tail bound
    # must cover what the cutoff drops
    model = G.parse_manifold(spec)
    axis = model.kernel_factors[0] if model.kernel_factors else model
    L = axis.period
    d = np.linspace(0.0, L / 2 if L else math.pi, 51)
    if not L:
        short, bound = HK.sphere_series(t, np.cos(d), 0), HK.sphere_tail_bound(0, t)
    elif method == "imagesum:0":
        short, bound = HK.wrapped_gaussian(d, t, L, 0), HK.image_sum_tail(t, L, 0)
    else:
        short, bound = HK.circle_fourier(d, t, L, 0), HK.fourier_tail(t, L, 0)
    full = HK.make_engine(axis)
    err = np.max(np.abs(short - HK.eval_radial(full, t, d)))
    assert err <= bound + HK.truncation_bound(full, t)
    assert err > 1e-3  # the dropped modes are not negligible here


@pytest.mark.parametrize("L", [1e-3, 0.01, 2 * math.pi, 100.0, 1e3])
def test_periodic_cutoff_stays_small_at_every_time(L):
    # the image sum below t* = L^2 / (2 pi), the Fourier series from there on:
    # at most 5 image pairs or 4 modes over the whole kernel-time domain
    ts = np.logspace(-12, 6, 1801)
    terms = [HK.periodic_terms(float(t), L) for t in ts]
    assert max(n for fourier, n in terms if not fourier) <= 5
    assert max(n for fourier, n in terms if fourier) <= 4
    assert [fourier for fourier, _ in terms] == list(ts >= L * L / (2 * math.pi))


def test_euclidean2_ck_by_direct_convolution_grid():
    # explicit-grid route on a 6 sigma window
    e2 = HK.make_engine(G.euclidean(2))
    t, s = 0.15, 0.1
    x = G.make_point(G.euclidean(2), [0.2, 0.1])
    y = G.make_point(G.euclidean(2), [-0.4, 0.3])
    radius = 0.8 + 6 * math.sqrt(t + s)
    grid = G.build_grid(G.euclidean(2), radius / 140, G.BallWindow(x, radius))
    px = HK.eval_many(e2, t, x.coords, grid.node_coords)
    py = HK.eval_many(e2, s, y.coords, grid.node_coords)
    conv = grid.integrate(px * py)
    assert conv == pytest.approx(HK.eval_kernel(e2, t + s, x, y), abs=1e-8)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_consistency_all_models(spec):
    model = G.parse_manifold(spec)
    eng = HK.make_engine(model)
    rng = np.random.default_rng(5)
    pts = [G.random_point(model, rng, 1.0) for _ in range(3)]
    rep = HK.check_consistency(eng, [0.08, 0.4], pts)
    assert rep.mass_defect < 1e-6
    assert rep.ck_residual < 1e-6
    assert rep.symmetry_residual <= max(2 * rep.truncation_bound, 1e-13)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_positivity_and_sqrt_bound(spec):
    model = G.parse_manifold(spec)
    eng = HK.make_engine(model)
    rng = np.random.default_rng(17)
    for _ in range(20):
        t = float(rng.uniform(0.02, 2.0))
        x, y = G.random_point(model, rng), G.random_point(model, rng)
        val = HK.eval_kernel(eng, t, x, y)
        assert val > 0
        bound = math.sqrt(HK.on_diag(eng, t)) * math.sqrt(HK.on_diag(eng, t))
        assert val <= bound * (1 + 1e-12) + 2 * HK.truncation_bound(eng, t)


def test_semigroup_property_twenty_samples():
    rng = np.random.default_rng(23)
    for spec in ALL_SPECS:
        model = G.parse_manifold(spec)
        eng = HK.make_engine(model)
        for _ in range(3):
            t, s = rng.uniform(0.05, 0.5, 2)
            x, y = G.random_point(model, rng, 1.0), G.random_point(model, rng, 1.0)
            conv, direct, tol = HK.chapman_kolmogorov(eng, float(t), float(s), x, y)
            assert abs(conv - direct) <= 1e-6 + tol


def test_sup_bound_at_diagonal():
    e3 = HK.make_engine(G.euclidean(3))
    x = G.base_point(G.euclidean(3))
    grid = G.build_grid(G.euclidean(3), 0.2, G.BallWindow(x, 3.0))
    sup = HK.sup_bound(e3, 0.5, x, grid)
    assert sup <= HK.on_diag(e3, 0.5) + 1e-12
    assert sup == pytest.approx(HK.on_diag(e3, 0.5), rel=1e-2)


def test_hyperbolic_sup_small_distance_limit():
    h3 = HK.make_engine(G.hyperbolic3())
    t = 0.7
    lim = (2 * math.pi * t) ** -1.5 * math.exp(-t / 2)
    assert HK.on_diag(h3, t) == pytest.approx(lim, abs=1e-15)
    near = float(HK.eval_radial(h3, t, np.array([1e-8]))[0])
    assert near == pytest.approx(lim, rel=1e-12)


def test_on_diag_upper():
    e3 = HK.make_engine(G.euclidean(3))
    ts = np.logspace(-3, 0, 30)
    assert HK.on_diag_upper(e3, ts) == pytest.approx((2 * math.pi) ** -1.5, abs=1e-15)
    h3 = HK.make_engine(G.hyperbolic3())
    assert HK.on_diag_upper(h3, ts) <= (2 * math.pi) ** -1.5
    s2 = HK.make_engine(G.sphere2())
    assert math.isfinite(HK.on_diag_upper(s2, np.logspace(-2, 0, 10)))


def test_on_diag_upper_keeps_a_nan(monkeypatch):
    # the builtin max skipped a NaN that did not come first: C read
    # 0.06349363593424097 with the second time's value NaN
    sweep = HK.on_diag_sweep
    monkeypatch.setattr(HK, "on_diag_sweep", lambda engine, ts: [
        (t, math.nan if j == 1 else d) for j, (t, d) in enumerate(sweep(engine, ts))
    ])
    assert math.isnan(HK.on_diag_upper(HK.make_engine(G.euclidean(3)), np.logspace(-2, 0, 3)))


def test_time_domain_errors():
    eng = HK.make_engine(G.euclidean(2))
    with pytest.raises(DomainError):
        HK.eval_kernel(eng, 0.0, G.base_point(G.euclidean(2)), G.base_point(G.euclidean(2)))
    with pytest.raises(DomainError):
        HK.eval_kernel(eng, -1.0, G.base_point(G.euclidean(2)), G.base_point(G.euclidean(2)))


def test_engine_method_follows_the_model():
    methods = {spec: HK.make_engine(G.parse_manifold(spec)).method for spec in ALL_SPECS}
    assert methods == {
        "euclidean:2": HK.Method.CLOSED_FORM, "euclidean:3": HK.Method.CLOSED_FORM,
        "torus:2:6.283185307179586": HK.Method.PRODUCT_RULE, "circle": HK.Method.PERIODIC,
        "sphere2": HK.Method.SPECTRAL_SERIES, "hyperbolic3": HK.Method.CLOSED_FORM,
        "product(euclidean:1,circle)": HK.Method.PRODUCT_RULE,
    }
    torus = HK.make_engine(G.torus(2, 5.0))
    assert [axis.method for axis in torus.factors] == [HK.Method.PERIODIC] * 2


TORUS = G.torus(2, 2 * math.pi)


@pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2, 1.0])
def test_torus_mass_is_one_within_its_allowance(t):
    mass, allowance = HK.kernel_mass(HK.make_engine(TORUS), t, G.make_point(TORUS, [0.3, 5.0]))
    assert abs(mass - 1.0) <= allowance + 1e-12


def test_torus_chapman_kolmogorov_at_small_times():
    # each axis takes the 1-d two-point rule with its far side folded (a 48^2
    # grid once put this 78 % off)
    eng = HK.make_engine(TORUS)
    x, y = G.make_point(TORUS, [0.3, 5.0]), G.make_point(TORUS, [0.35, 5.02])
    conv, direct, allowance = HK.chapman_kolmogorov(eng, 1e-3, 2e-3, x, y)
    assert abs(conv - direct) <= 1e-4 * direct + allowance


@pytest.mark.parametrize("spec", ["circle", "torus:2:6.2832"])
@pytest.mark.parametrize("t", [1e-4, 1e-3])
def test_periodic_chapman_kolmogorov_on_the_diagonal(spec, t):
    # the convolution resolves the kernel at its own scale: a rule with break
    # points at fixed offsets was 3.1e-2 (circle) and 6.2e-2 (torus) off at
    # t = 1e-4
    model = G.parse_manifold(spec)
    x = G.base_point(model)
    conv, direct, _ = HK.chapman_kolmogorov(HK.make_engine(model), t, t, x, x)
    assert abs(conv / direct - 1.0) <= 1e-5


def test_torus_kernel_is_the_product_of_its_axes():
    eng = HK.make_engine(TORUS)
    rng = np.random.default_rng(8)
    x = G.random_point(TORUS, rng).coords
    ys = np.array([G.random_point(TORUS, rng).coords for _ in range(40)] + [x])
    L = TORUS.side_length
    gap = np.abs(ys - x)
    gap = np.minimum(gap, L - gap)  # each axis's distance
    for t in (1e-3, 0.05, 0.7):
        fourier, K = HK.periodic_terms(t, L)
        assert not fourier
        axes = HK.wrapped_gaussian(gap[:, 0], t, L, K) * HK.wrapped_gaussian(gap[:, 1], t, L, K)
        assert np.array_equal(HK.eval_many(eng, t, x, ys), axes)


LINE_BALL = G.BallWindow(G.make_point(G.euclidean(1), [0.3]), 2.0)
LINE_BOX = G.BoxWindow(G.make_point(G.euclidean(1), [0.3]), (1.5,))


@pytest.mark.parametrize(
    "spec, window, n_factors",
    [
        ("torus:2:6.2832", G.FullWindow(), 2),
        ("torus:3:1", G.FullWindow(), 3),
        ("product(circle,circle)", G.FullWindow(), 2),
        ("product(product(circle,circle),circle)", G.FullWindow(), 2),
        ("product(torus:2:6.2832,circle)", G.FullWindow(), 2),
        ("product(euclidean:1,circle)", G.ProductWindow(LINE_BALL, G.FullWindow()), 2),
        ("product(euclidean:1,circle)", G.ProductWindow(LINE_BOX, G.FullWindow()), 2),
        # no tensor product recorded: eval_many on the node rows
        ("sphere2", G.FullWindow(), 0),
        ("euclidean:2", G.BallWindow(G.base_point(G.euclidean(2)), 3.0), 0),
    ],
)
def test_grid_kernel_equals_eval_many_on_the_nodes(spec, window, n_factors):
    model = G.parse_manifold(spec)
    grid = G.build_grid(model, 0.1 if model.compact else 0.05, window)
    assert len(grid.factors) == n_factors
    if n_factors:
        assert grid.size == math.prod(g.size for g in grid.factors)
    eng = HK.make_engine(model)
    rng = np.random.default_rng(3)
    xs = [G.base_point(model).coords, G.random_point(model, rng, 1.0).coords, grid.node_coords[grid.size // 3]]
    for t in (1e-3, 0.3, 5.0):
        for x in xs:
            assert np.array_equal(HK.eval_grid(eng, t, x, grid), HK.eval_many(eng, t, x, grid.node_coords))


def test_circle_mass_at_tiny_time_is_fast():
    # cells at sigma / 4 reach only as far as the kernel does (about 0.5 ms;
    # 0.34 s when they spanned the whole circle)
    start = time.perf_counter()
    mass, allowance = HK.kernel_mass(HK.make_engine(G.circle()), 1e-9, G.circle_point(0.0))
    assert time.perf_counter() - start < 0.05
    assert abs(mass - 1.0) <= allowance + 1e-12


def test_sup_bound_grid_containing_x():
    c = G.circle()
    eng = HK.make_engine(c)
    grid = G.build_grid(c, 2 * math.pi / 64, G.FullWindow())
    x = G.circle_point(0.0)  # exactly grid node 0
    assert HK.sup_bound(eng, 0.4, x, grid) == HK.on_diag(eng, 0.4)


def test_image_sum_symmetry_is_exact():
    tor = HK.make_engine(G.torus(2, 5.0))
    x = G.make_point(G.torus(2, 5.0), [0.4, 3.0])
    y = G.make_point(G.torus(2, 5.0), [2.9, 0.7])
    assert HK.eval_kernel(tor, 0.3, x, y) == HK.eval_kernel(tor, 0.3, y, x)


def _per_time(eng, ts, d):
    rows = np.broadcast_to(d, (len(ts), d.shape[-1]))
    return np.array([HK.eval_geodesic(eng, float(t), rows[i]) for i, t in enumerate(ts)])


@pytest.mark.parametrize(
    "spec, ts",
    [
        ("euclidean:1", [1e-12, 1e-4, 0.37, 3.0]),
        ("euclidean:2", [1e-6, 0.01, 1.0, 40.0]),
        ("euclidean:3", np.logspace(-9, 2, 23)),
        ("hyperbolic3", np.logspace(-6, 1.5, 17)),
        # t* = L^2 / (2 pi) splits the image sum from the Fourier series
        ("circle", [1e-3, 0.5, 2 * math.pi - 1e-9, 2 * math.pi, 7.0, 60.0, 1e4]),
        ("torus:1:0.01", [1e-7, 1.5e-5, 0.01**2 / (2 * math.pi), 2e-5, 1e-3]),
        ("sphere2", [1e-3, 0.05, 0.7, 5.0]),
        ("product(euclidean:1,circle)", [1e-3, 0.2, 6.0, 30.0]),
        ("torus:2:1", [1e-3, 0.1, 0.2, 2.0]),
    ],
)
def test_kernel_rows_equal_per_time_kernels_bit_for_bit(spec, ts):
    eng = HK.make_engine(G.parse_manifold(spec))
    rng = np.random.default_rng(3)
    reach = min(eng.model.diameter, 4.0)
    d = np.concatenate([[0.0, 1e-12, 3e-7, 1e-6, 2e-6], rng.uniform(0.0, reach, 120), [reach]])
    ts = np.asarray(ts, dtype=float)
    assert np.array_equal(HK.eval_radial_rows(eng, ts, d), _per_time(eng, ts, d))
    own = rng.uniform(0.0, reach, (ts.size, 33))  # row i at its own distances
    assert np.array_equal(HK.eval_radial_rows(eng, ts, own), _per_time(eng, ts, own))
    # the batch is the same a row at a time, in any order
    for i in rng.permutation(ts.size)[:3]:
        assert np.array_equal(HK.eval_radial_rows(eng, ts[[i]], d)[0], _per_time(eng, ts, d)[i])


def test_closed_form_rows_keep_the_per_time_formulas():
    ts = np.logspace(-6, 1, 15)
    d = np.concatenate([[0.0, 5e-7], np.linspace(1e-6, 6.0, 99)])
    for m in (1, 2, 3):
        expected = [(2.0 * math.pi * t) ** (-m / 2.0) * np.exp(-d * d / (2.0 * t)) for t in ts.tolist()]
        assert np.array_equal(HK.eval_radial_rows(HK.make_engine(G.euclidean(m)), ts, d), expected)
    with np.errstate(invalid="ignore"):
        ratio = np.where(d < 1e-6, 1.0 - d**2 / 6.0, 2.0 * d * np.exp(-d) / (1.0 - np.exp(-2.0 * d)))
    expected = [
        (2.0 * math.pi * t) ** -1.5 * math.exp(-t / 2.0) * ratio * np.exp(-d * d / (2.0 * t)) for t in ts.tolist()
    ]
    assert np.array_equal(HK.eval_radial_rows(HK.make_engine(G.hyperbolic3()), ts, d), expected)


def _nan_at_time(fn, bad):
    """``fn(engine, t, ...)`` with its value, or the first of its values, NaN at t = bad."""

    def poisoned(engine, t, *rest):
        out = fn(engine, t, *rest)
        if t != bad:
            return out
        return (math.nan, *out[1:]) if isinstance(out, tuple) else math.nan

    return poisoned


@pytest.mark.parametrize(
    "target, field",
    [("kernel_mass", "mass_defect"), ("chapman_kolmogorov", "ck_residual"), ("eval_kernel", "symmetry_residual")],
)
def test_check_consistency_keeps_a_nan_residual(target, field, monkeypatch):
    # the NaN comes second, where a builtin max started at 0.0 skipped it
    engine = HK.make_engine(G.circle())
    monkeypatch.setattr(HK, target, _nan_at_time(getattr(HK, target), 0.3))
    rep = HK.check_consistency(engine, [0.1, 0.3], [G.circle_point(0.2), G.circle_point(1.4)])
    assert math.isnan(getattr(rep, field))
    others = {"mass_defect", "ck_residual", "symmetry_residual"} - {field}
    assert all(math.isfinite(getattr(rep, f)) for f in others)
