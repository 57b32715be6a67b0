import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from heatkato import geometry as G
from heatkato import heat_kernel as HK
from heatkato import potentials as P
from heatkato import semigroup as SG
from heatkato import stochastics as S
from heatkato.errors import DomainError

CIRCLE = G.circle()
E1 = G.euclidean(1)


def test_reproducibility_bit_identical():
    a = S.simulate(E1, G.base_point(E1), 0.5, 1e-2, 400, seed=7)
    b = S.simulate(E1, G.base_point(E1), 0.5, 1e-2, 400, seed=7)
    assert np.array_equal(a.positions, b.positions)
    c = S.simulate(E1, G.base_point(E1), 0.5, 1e-2, 400, seed=8)
    assert not np.array_equal(a.positions, c.positions)


def test_partition_invariance():
    # per-path streams: results do not depend on the block layout
    kw = dict(t=0.4, h=2e-3, N=500, seed=3)
    a = S.simulate(E1, G.base_point(E1), block_size=17, **kw)
    b = S.simulate(E1, G.base_point(E1), block_size=499, **kw)
    assert np.array_equal(a.positions, b.positions)
    s2 = G.sphere2()
    kw = dict(t=0.05, h=5e-3, N=300, seed=3)
    a = S.simulate(s2, G.base_point(s2), block_size=31, **kw)
    b = S.simulate(s2, G.base_point(s2), block_size=300, **kw)
    assert np.array_equal(a.positions, b.positions)
    prod = G.parse_manifold("product(euclidean:1,circle)")
    kw = dict(t=0.4, h=2e-3, N=500, seed=3, record_times=[0.1, 0.4])
    a = S.simulate(prod, G.base_point(prod), block_size=17, **kw)
    b = S.simulate(prod, G.base_point(prod), block_size=499, **kw)
    assert np.array_equal(a.positions, b.positions)


def test_euclidean_moments():
    N = 20000
    ens = S.simulate(E1, G.base_point(E1), 1.0, 1e-3, N, seed=42, record_times=[1.0])
    x = ens.chart_at(len(ens.record_times) - 1)[:, 0]
    assert abs(x.mean()) < 4.0 / math.sqrt(N)
    assert abs(x.var() - 1.0) < 4.0 * math.sqrt(2.0) / math.sqrt(N)


def test_circle_chi_square_against_wrapped_gaussian():
    N = 40000
    t = 0.7
    start = G.circle_point(0.4)
    ens = S.simulate(CIRCLE, start, t, 1e-3, N, seed=5, record_times=[t])
    # stored angles lie in [0, 2 pi); bin them in [-pi, pi)
    angles = np.mod(ens.chart_at(len(ens.record_times) - 1)[:, 0] + math.pi, 2 * math.pi) - math.pi
    K = 24
    edges = np.linspace(-math.pi, math.pi, K + 1)
    counts, _ = np.histogram(angles, bins=edges)
    eng = HK.make_engine(CIRCLE)
    expected = np.empty(K)
    for j in range(K):
        mids = np.linspace(edges[j], edges[j + 1], 9)
        dens = HK.eval_many(eng, t, start.coords, np.mod(mids, 2 * math.pi)[:, None])
        expected[j] = np.trapezoid(dens, mids) * N
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.99, K - 1)


def test_sphere_first_eigenfunction_decay():
    s2 = G.sphere2()
    N = 30000
    t = 0.5
    ens = S.simulate(s2, G.base_point(s2), t, 1e-3, N, seed=1, record_times=[t])
    z = ens.chart_at(len(ens.record_times) - 1)[:, 2]
    se = z.std(ddof=1) / math.sqrt(N)
    assert abs(z.mean() - math.exp(-t)) < 4.0 * se


def test_weak_convergence_h_halving_on_circle():
    # exact-in-distribution increments: halving h moves estimates within noise
    t = 0.6
    f = lambda ch: np.cos(ch[:, 0])
    est = []
    for h in (4e-3, 2e-3):
        ens = S.simulate(CIRCLE, G.circle_point(0.0), t, h, 20000, seed=9, record_times=[t])
        vals = f(ens.chart_at(len(ens.record_times) - 1))
        est.append((vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)))
    (m1, s1), (m2, s2) = est
    assert abs(m1 - m2) < 4.0 * math.hypot(s1, s2)


def test_fdd_mass_and_two_times():
    ens = S.simulate(CIRCLE, G.circle_point(0.3), 0.6, 1e-3, 20000, seed=9,
                     record_times=[0.2, 0.6])
    one = lambda ch: np.ones(ch.shape[0])
    rep = S.fdd_check(ens, [0.2, 0.6], [
        [one, one],
        [lambda ch: np.cos(ch[:, 0]), lambda ch: np.sin(ch[:, 0])],  # low-order Fourier modes
        [lambda ch: np.sin(ch[:, 0]), lambda ch: np.cos(ch[:, 0]) * np.sin(ch[:, 0])],
    ])
    assert rep.quad_values[0] == pytest.approx(1.0, abs=1e-9)
    assert rep.max_abs_z < 4.0


def test_fdd_two_time_quadrature_oracle():
    # independent double-integral oracle on an explicit angle lattice
    t1, t2 = 0.25, 0.5
    eng = HK.make_engine(CIRCLE)
    n = 512
    ang = np.arange(n) * (2 * math.pi / n)
    nodes = ang[:, None]
    wq = 2 * math.pi / n
    start = G.circle_point(0.0)
    p1 = HK.eval_many(eng, t1, start.coords, nodes)
    f1 = np.cos(ang)
    inner = np.array([
        np.sum(wq * HK.eval_many(eng, t2 - t1, nodes[i], nodes) * np.sin(ang)) for i in range(n)
    ])
    oracle = float(np.sum(wq * p1 * f1 * inner))
    ens = S.simulate(CIRCLE, start, t2, 2e-3, 4000, seed=2, record_times=[t1, t2])
    rep = S.fdd_check(ens, [t1, t2], [[lambda ch: np.cos(ch[:, 0]), lambda ch: np.sin(ch[:, 0])]])
    assert rep.quad_values[0] == pytest.approx(oracle, abs=1e-8)


def test_fdd_hemisphere_symmetry():
    s2 = G.sphere2()
    equator = G.make_point(s2, [1.0, 0, 0])
    ens = S.simulate(s2, equator, 0.3, 2e-3, 20000, seed=4, record_times=[0.3])
    vals = (ens.chart_at(len(ens.record_times) - 1)[:, 2] >= 0).astype(float)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 0.5) < 4.0 * se


def test_feynman_kac_trivial_cases():
    ens = S.simulate(CIRCLE, G.circle_point(0.0), 0.5, 2e-3, 3000, seed=3)
    assert S.feynman_kac(ens, P.Sum(())).value == 1.0
    est = S.feynman_kac(ens, P.Constant(2.0))
    assert est.value == pytest.approx(math.exp(-1.0), abs=1e-14)
    assert est.std_error == pytest.approx(0.0, abs=1e-14)
    # positivity with nonnegative terminal data
    est2 = S.feynman_kac(ens, P.cosine_potential(CIRCLE), f=lambda ch: np.abs(np.cos(ch[:, 0])))
    assert est2.value >= 0.0


def test_feynman_kac_requires_full_paths():
    ens = S.simulate(CIRCLE, G.circle_point(0.0), 0.5, 2e-3, 100, seed=3, record_times=[0.5])
    with pytest.raises(DomainError):
        S.feynman_kac(ens, P.Constant(1.0))


def test_feynman_kac_vs_spectral_on_circle():
    w = P.cosine_potential(CIRCLE)
    ens = S.simulate(CIRCLE, G.circle_point(0.0), 0.5, 2e-3, 20000, seed=12)
    est = S.feynman_kac(ens, w)
    op = SG.discretize(CIRCLE, 1024, w)
    spectral = float(SG.semigroup_apply(op, 0.5, np.ones(1024))[0])
    assert abs(est.value - spectral) < 4.0 * est.std_error


def test_feynman_kac_capping_reported():
    e3 = G.euclidean(3)
    w = P.RadialPower(e3, G.base_point(e3), 1.0)
    ens = S.simulate(e3, G.base_point(e3), 0.05, 1e-3, 500, seed=8)
    est = S.feynman_kac(ens, w)
    assert est.capped_fraction > 0.0  # paths start at the singular center
    assert est.reliability_warning
    assert math.isfinite(est.value)


def test_kato_exponential_constant_and_zero():
    rep0 = S.kato_exponential_estimate(CIRCLE, P.Sum(()), [0.25, 0.5], [1.5, 2.0], 200, seed=2)
    assert all(e["C"] == 0.0 for e in rep0.table)
    c = 0.8
    rep = S.kato_exponential_estimate(CIRCLE, P.Constant(c), [0.25, 0.5, 1.0], [1.5, 2.0, 4.0],
                                      400, seed=2)
    # deterministic integrand: sup estimate is exactly e^{ct}
    for t, v in zip(rep.t, rep.sup_estimate):
        assert v == pytest.approx(math.exp(c * t), rel=1e-12)
    # fitted constants: smallest valid on the grid, decreasing in delta, <= c
    cs = [e["C"] for e in rep.table]
    assert all(a >= b for a, b in zip(cs, cs[1:]))
    assert all(cv <= c + 1e-12 for cv in cs)
    for e in rep.table:
        for t, v in zip(rep.t, rep.sup_estimate):
            assert e["delta"] * math.exp(t * e["C"]) >= v * (1 - 1e-12)


def test_kato_exponential_truncated_coulomb_finite():
    e3 = G.euclidean(3)
    w = P.Windowed(e3, P.RadialPower(e3, G.base_point(e3), 1.0, 0.3), G.BallWindow(G.base_point(e3), 1.0))
    rep = S.kato_exponential_estimate(e3, w, [0.2, 0.4], [1.5, 2.0, 4.0], 2000, h=1e-3, seed=6)
    assert not rep.overflowed
    cs = [e["C"] for e in rep.table]
    assert all(math.isfinite(cv) for cv in cs)
    assert all(a >= b - 1e-12 for a, b in zip(cs, cs[1:]))


def test_kato_exponential_reports_capped_paths():
    # every path starts on the singular center, so every path is capped with
    # the cap 0.3 / sqrt(h), as feynman_kac reports it on the same paths
    e3 = G.euclidean(3)
    o = G.base_point(e3)
    w = P.Windowed(e3, P.RadialPower(e3, o, 1.0, 0.3), G.BallWindow(o, 1.0))
    rep = S.kato_exponential_estimate(e3, w, [0.4], [2.0], 500, h=1e-3, seed=0)
    assert rep.capped_fraction == 1.0 and rep.reliability_warning
    assert rep.cap_value == pytest.approx(0.3 / math.sqrt(1e-3), rel=1e-12)
    assert round(rep.cap_value, 2) == 9.49
    fk = S.feynman_kac(S.simulate(e3, o, 0.4, 1e-3, 500, seed=0), w)
    assert (fk.capped_fraction, fk.cap_value) == (rep.capped_fraction, rep.cap_value)
    smooth = S.kato_exponential_estimate(CIRCLE, P.Constant(0.8), [0.5], [2.0], 100, seed=0)
    assert (smooth.capped_fraction, smooth.cap_value, smooth.reliability_warning) == (0.0, 0.0, False)


def test_projection_trivial_mass():
    model = G.parse_manifold("product(euclidean:1,circle)")
    rep = S.elworthy_projection_check(model, 0, P.Constant(1.0), 0.4, G.base_point(model))
    assert rep.lhs_quad == pytest.approx(1.0, abs=1e-9)
    assert rep.rhs_quad == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_projection_indicator_equality_defect():
    model = G.parse_manifold("product(euclidean:3,euclidean:3)")
    leaf = P.leaves(model)[0][0]
    w = P.Indicator(leaf, G.BallWindow(G.base_point(leaf), 1.0))
    rep = S.elworthy_projection_check(model, 0, w, 0.3, G.base_point(model), N=20000, h=2e-3, seed=3)
    assert abs(rep.defect) <= rep.quad_tolerance + 1e-12
    assert rep.passed
    assert abs(rep.mc_z) < 4.0


def test_projected_ensemble_matches_direct_factor_fdd():
    model = G.parse_manifold("product(euclidean:1,circle)")
    ens = S.simulate(model, G.base_point(model), 0.5, 2e-3, 20000, seed=21, record_times=[0.5])
    proj = ens.project(1)
    rep = S.fdd_check(proj, [0.5], [[lambda ch: np.cos(ch[:, 0])], [lambda ch: np.sin(ch[:, 0])]])
    assert rep.max_abs_z < 4.0


def test_scheme_validation():
    with pytest.raises(DomainError):
        S.simulate(E1, G.base_point(E1), 0.1, 0.2, 10, seed=0)
    ens = S.simulate(G.sphere2(), G.base_point(G.sphere2()), 0.1, 0.05, 10, seed=0)
    assert ens.step_warning  # h above the curvature-scale guidance


def test_truncated_prefix_property():
    ens = S.simulate(E1, G.base_point(E1), 1.0, 1e-2, 50, seed=5)
    sub = ens.truncated(0.5)
    assert sub.horizon == pytest.approx(0.5)
    assert np.array_equal(sub.positions, ens.positions[:, : sub.positions.shape[1], :])


# ---------------------------------------------------------------------------
# the fast sampling paths against the per-path reference they replace


def _reference_paths(model, start, t, h, N, seed, record_idx):
    """One Philox per path and the tangent_from_normals + exp_many loop."""
    n_steps = max(1, round(t / h))
    h_eff = t / n_steps
    z = np.stack([S.path_generator(seed, i).standard_normal((n_steps, model.tangent_dim))
                  for i in range(N)])
    X = np.broadcast_to(start.coords, (N, start.coords.size)).copy()
    rows = [X]
    for k in range(n_steps):
        X = G.exp_many(model, X, G.tangent_from_normals(model, X, z[:, k, :], h_eff))
        rows.append(X)
    return np.stack([rows[k] for k in record_idx], axis=1)


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 3])
def test_rekeyed_normals_match_per_path_generators(seed):
    z = np.empty((5, 7, 3))
    S._fill_normals(seed, 11, z)
    for j in range(5):
        assert np.array_equal(z[j], S.path_generator(seed, 11 + j).standard_normal((7, 3)))


@pytest.mark.parametrize("N, block_size", [(1, 1), (10, 3)])
def test_sphere_walk_matches_two_call_loop(N, block_size):
    s2 = G.sphere2()
    start = G.make_point(s2, [0.6, 0.0, 0.8])
    ens = S.simulate(s2, start, 0.2, 1e-3, N, seed=5, record_times=[0.0, 0.05, 0.2],
                     block_size=block_size)
    ref = _reference_paths(s2, start, 0.2, 1e-3, N, 5, [0, 50, 200])
    assert np.array_equal(ens.positions, ref)


def test_normals_buffer_split_keeps_paths(monkeypatch):
    s2 = G.sphere2()
    whole = S.simulate(s2, G.base_point(s2), 0.1, 1e-3, 9, seed=2)
    monkeypatch.setattr(S, "_BLOCK_BYTES", 8 * 100 * 3 * 4)  # four paths per buffer
    split = S.simulate(s2, G.base_point(s2), 0.1, 1e-3, 9, seed=2)
    assert np.array_equal(whole.positions, split.positions)
    assert np.array_equal(whole.positions, _reference_paths(s2, G.base_point(s2), 0.1, 1e-3, 9, 2, range(101)))


def _reference_flat_paths(model, start, t, h, N, seed, record_idx):
    """A reference for the sampler's in-place flat walk, wrapped out of place
    per leaf.  Every step recorded: the cumulative sums of one N(0, h) normal
    per step, gathered at the recorded steps.  Some steps recorded: the
    cumulative sums of one normal per recorded interval, scaled by the square
    root of its length."""
    n_steps = max(1, round(t / h))
    h_eff = t / n_steps
    record_idx = np.asarray(record_idx)
    if len(record_idx) == n_steps + 1:
        z = np.stack([S.path_generator(seed, i).standard_normal((n_steps, model.tangent_dim))
                      for i in range(N)]) * math.sqrt(h_eff)
        z = np.cumsum(z, axis=1)
        out = z[:, np.maximum(record_idx - 1, 0), :]
        out[:, record_idx == 0, :] = 0.0
    else:
        z = np.stack([S.path_generator(seed, i).standard_normal((len(record_idx), model.tangent_dim))
                      for i in range(N)]) * np.sqrt(np.diff(record_idx, prepend=0) * h_eff)[:, None]
        out = np.cumsum(z, axis=1)
    out += start.coords
    for leaf, off in P.leaves(model):
        if isinstance(leaf, G.Torus):
            out[..., off : off + leaf.dim] = np.mod(out[..., off : off + leaf.dim], leaf.side_length)
    return out


@pytest.mark.parametrize("spec", ["circle", "euclidean:2", "product(euclidean:1,circle)"])
@pytest.mark.parametrize("record_times, record_idx", [(None, range(301)), ([0.0, 0.1, 0.3], [0, 100, 300]),
                                                      ([0.3, 0.05], [50, 300])])
def test_flat_walk_matches_gather_and_wrap(spec, record_times, record_idx):
    model = G.parse_manifold(spec)
    start = G.random_point(model, np.random.default_rng(4))
    ens = S.simulate(model, start, 0.3, 1e-3, 37, seed=6, record_times=record_times, block_size=16)
    ref = _reference_flat_paths(model, start, 0.3, 1e-3, 37, 6, list(record_idx))
    assert np.array_equal(ens.positions, ref)


def test_sparse_flat_increments_have_the_brownian_law():
    # one normal per recorded interval: each interval's increment is
    # N(0, dt I), and the two intervals are uncorrelated (4-sigma rule)
    e2 = G.euclidean(2)
    N = 20000
    ens = S.simulate(e2, G.base_point(e2), 0.3, 1e-3, N, seed=17, record_times=[0.1, 0.3])
    x = ens.positions
    incs = [x[:, 0, :], x[:, 1, :] - x[:, 0, :]]
    for inc, dt in zip(incs, (0.1, 0.2)):
        assert np.all(np.abs(inc.mean(axis=0)) < 4.0 * math.sqrt(dt / N))
        assert np.all(np.abs(inc.var(axis=0) - dt) < 4.0 * math.sqrt(2.0) * dt / math.sqrt(N))
    # E[a b] = 0 with sd sqrt(0.1 * 0.2 / N) for independent centred a, b
    cross = np.mean(incs[0] * incs[1], axis=0)
    assert np.all(np.abs(cross) < 4.0 * math.sqrt(0.1 * 0.2 / N))


def test_sparse_flat_walk_costs_the_records_not_the_steps():
    # 10^7 steps, two records: 512 normals, not 2.56e9
    tracemalloc.start()
    try:
        began = time.perf_counter()
        ens = S.simulate(E1, G.base_point(E1), 1.0, 1e-7, 256, seed=0, record_times=[0.5, 1.0])
        elapsed = time.perf_counter() - began
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.positions.shape == (256, 2, 1)
    assert elapsed < 1.0
    assert peak < S._BLOCK_BYTES // 16


def test_normals_buffer_bounded():
    tracemalloc.start()
    try:
        ens = S.simulate(E1, G.base_point(E1), 1.0, 1e-4, 1024, seed=0, record_times=[1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.positions.nbytes == 1024 * 8
    assert peak < S._BLOCK_BYTES + 2_000_000  # one buffer, not 1024 x 10^4 normals


def test_streamed_feynman_kac_matches_unstreamed(monkeypatch):
    e3 = G.euclidean(3)
    w = P.RadialPower(e3, G.base_point(e3), 1.0)
    ens = S.simulate(e3, G.base_point(e3), 0.05, 1e-3, 101, seed=8)
    vals, near, cap = P.capped_values(w, ens.positions.reshape(101 * 51, 3), math.sqrt(ens.step))
    vals, capped = vals.reshape(101, 51), near.reshape(101, 51).any(axis=1)
    integral = ens.step * (np.sum(vals, axis=1) - 0.5 * vals[:, 0] - 0.5 * vals[:, -1])
    weights = np.exp(-integral)
    monkeypatch.setattr(S, "_INTEGRAL_ROWS", 51 * 7)  # blocks of 7 paths
    est = S.feynman_kac(ens, w)
    assert est.capped_fraction > 0.0 and cap > 0.0
    assert est.value == float(np.mean(weights))
    assert est.std_error == float(np.std(weights, ddof=1) / math.sqrt(101))
    assert est.capped_fraction == float(np.mean(capped))
    assert est.cap_value == cap


def test_path_integral_blocks_leave_the_estimates_unchanged(monkeypatch):
    # a truncated ensemble's paths are strided rows, copied a block at a time:
    # blocks of 1 and 7 paths give what the default block gives, bit for bit
    w = P.cosine_potential(CIRCLE, G.circle_point(1.0))
    ens = S.simulate(CIRCLE, G.circle_point(0.3), 0.2, 2e-3, 60, seed=9).truncated(0.1)
    assert not ens.positions.flags.c_contiguous

    def run():
        kato = S.kato_exponential_estimate(CIRCLE, P.Scale(-1.0, w), [0.05, 0.1], [2.0], 60, seed=9)
        return S.feynman_kac(ens, w, f=lambda ch: np.cos(ch[:, 0])), kato

    default = run()
    for paths in (1, 7):
        monkeypatch.setattr(S, "_INTEGRAL_ROWS", 51 * paths)  # 51 rows a path, in both estimates
        assert run() == default


def test_feynman_kac_memory_stays_within_one_block():
    # the integral's temporaries are one cache-sized block, not the 8 MB
    # ensemble several times over
    ens = S.simulate(CIRCLE, G.circle_point(1.0), 1.0, 2e-3, 2000, seed=1)
    assert ens.positions.shape == (2000, 501, 1)
    w = P.cosine_potential(CIRCLE)
    tracemalloc.start()
    try:
        S.feynman_kac(ens.truncated(0.5), w)
        S.feynman_kac(ens, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_feynman_kac_on_the_circle_evaluates_stored_angles():
    # the stored angles lie in [0, 2 pi), and the distance to the center is
    # their difference folded at pi: the trapezoid of cos of that distance
    ens = S.simulate(CIRCLE, G.circle_point(1.0), 0.2, 2e-3, 50, seed=3)
    theta = ens.positions[:, :, 0]
    assert np.all((theta >= 0.0) & (theta < 2 * math.pi))
    gap = np.abs(theta - 1.0)
    vals = np.cos(np.minimum(gap, 2 * math.pi - gap))
    weights = np.exp(-ens.step * (np.sum(vals, axis=1) - 0.5 * vals[:, 0] - 0.5 * vals[:, -1]))
    est = S.feynman_kac(ens, P.cosine_potential(CIRCLE, G.circle_point(1.0)))
    assert est.value == float(np.mean(weights))


def test_feynman_kac_and_kato_exponential_share_one_integral():
    # E[exp(-int w)] and E[exp(int w_-)] with w_- = -w read the same path integral
    e3 = G.euclidean(3)
    w = P.Windowed(e3, P.RadialPower(e3, G.base_point(e3), 1.0, 0.3), G.BallWindow(G.base_point(e3), 1.0))
    rep = S.kato_exponential_estimate(e3, P.Scale(-1.0, w), [0.1], [2.0], 200, h=2e-3, seed=4)
    ens = S.simulate(e3, G.base_point(e3), 0.1, 2e-3, 200, seed=4)
    integrals, _, _ = S._path_integrals(w, ens.positions, ens.step, [50])
    assert rep.sup_estimate[0] == float(np.sum(np.exp(-integrals[:, 0]))) / 200
    fk = S.feynman_kac(ens, w)
    assert fk.value == pytest.approx(rep.sup_estimate[0], rel=1e-14)


def test_kato_exponential_on_hyperbolic3_unchanged():
    # pinned from the per-path-generator sampler; the curved default walk
    h3 = G.hyperbolic3()
    w = P.RadialPower(h3, G.base_point(h3), 1.0, 0.3)
    rep = S.kato_exponential_estimate(h3, w, [0.1, 0.2], [1.5, 2.0], 300, h=2e-3, seed=5,
                                      block_size=128)
    assert rep.sup_estimate == [1.1486770687567562, 1.2213678384658542]
    assert rep.stderr == [0.0027467929728239283, 0.004206458505170488]


def test_kato_exponential_blocks_fit_the_store(monkeypatch):
    # a block of full records is cut to the store: 7 paths of 101 rows of 3
    # floats; only the per-block sums split differently
    e3 = G.euclidean(3)
    args = (e3, P.RadialPower(e3, G.base_point(e3), 1.0, 0.3), [0.1, 0.2], [2.0], 40)
    want = S.kato_exponential_estimate(*args, h=2e-3, seed=3)
    blocks = []
    block_paths = S._block_paths
    monkeypatch.setattr(S, "_block_paths", lambda *a: blocks.append(a[6] - a[5]) or block_paths(*a))
    monkeypatch.setattr(S, "_MAX_STORE_BYTES", 7 * 101 * 3 * 8)
    got = S.kato_exponential_estimate(*args, h=2e-3, seed=3)
    assert blocks == [7] * 5 + [5]
    assert got.sup_estimate == pytest.approx(want.sup_estimate, rel=1e-14)
    with pytest.raises(DomainError, match="take a larger step h"):  # one path of 2001 rows
        S.kato_exponential_estimate(*args, h=1e-4, seed=3)


def test_walk_budget_counts_the_normals_drawn():
    # a sparse flat walk draws one normal per record and axis, every other
    # walk one per step and axis; a walk past 1e9 normals is refused
    assert S.walk_problem(E1, 10**6, False, 10**4, 33) is None
    assert S.walk_problem(E1, 10**6, True, 1000, held=False) is None
    assert "normals" in S.walk_problem(E1, 10**6, True, 1001, held=False)
    assert "ensemble would need" in S.walk_problem(E1, 10**6, True, 1001)
    s2 = G.sphere2()  # three tangent axes, one normal a step each on a curved walk
    assert s2.tangent_dim == 3
    assert S.walk_problem(s2, 10**5, False, 3333, 1) is None
    assert "draw 1e+09 normals" in S.walk_problem(s2, 10**5, False, 3334, 1)
    with pytest.raises(DomainError, match="normals"):  # refused before any path is drawn
        S.kato_exponential_estimate(CIRCLE, P.Constant(0.8), [0.5], [2.0], 3 * 10**6, h=1e-3, seed=0)


def test_fdd_single_sample_fails():
    ens = S.simulate(CIRCLE, G.circle_point(0.3), 0.2, 1e-2, 1, seed=1, record_times=[0.2])
    rep = S.fdd_check(ens, [0.2], [[lambda ch: ch[:, 0]]])
    assert math.isnan(rep.std_errors[0]) and math.isnan(rep.z_scores[0])
    assert rep.max_abs_z == math.inf and not rep.max_abs_z < 4.0


@pytest.mark.parametrize("t, h", [(1.0, 0.0), (1.0, math.nan), (math.inf, 1e-3), (0.0, 1e-3),
                                  (1e300, 1e-300)])
def test_simulate_rejects_bad_horizon_and_step(t, h):
    with pytest.raises(DomainError):
        S.simulate(E1, G.base_point(E1), t, h, 10, seed=0)


@pytest.mark.parametrize("h", [0.0, math.nan, -1e-3, math.inf])
def test_kato_exponential_rejects_bad_step(h):
    with pytest.raises(DomainError):
        S.kato_exponential_estimate(CIRCLE, P.Constant(1.0), [0.5], [2.0], 10, h=h)


@pytest.mark.parametrize("N", [0, -3])
def test_kato_exponential_rejects_no_paths(N):
    with pytest.raises(DomainError):
        S.kato_exponential_estimate(CIRCLE, P.Constant(1.0), [0.5], [2.0], N)
