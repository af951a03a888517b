import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mfbridge.greens import build_tables
from mfbridge.guidance import linear_guidance
from mfbridge.schedule import PwcSchedule, geometric_schedule
from mfbridge.score import (
    GaussianMixture,
    WORK_SLOTS,
    ScoreContext,
    _marginal_components,
    ar1_covariance,
    marginal_density,
)
from pointwise import posterior, probe, score_at, shifted_score


@pytest.fixture(scope="module")
def free_tables():
    sched = PwcSchedule([0.0, 0.5, 1.0], [0.0, 0.0])
    return build_tables(sched, np.zeros((2, 1)))


@pytest.fixture(scope="module")
def ctx_a(paper_schedule, dr_target, initial_a):
    nu = linear_guidance([float(initial_a.mean[0])], [float(dr_target.mean[0])], paper_schedule.midpoints())
    tab = build_tables(paper_schedule, nu)
    return ScoreContext(tab, dr_target)


@pytest.fixture(scope="module")
def ctx_b(paper_schedule, dr_target, initial_b):
    nu = linear_guidance([float(initial_b.mean[0])], [float(dr_target.mean[0])], paper_schedule.midpoints())
    tab = build_tables(paper_schedule, nu)
    return ScoreContext(tab, dr_target, initial=initial_b)


# ----------------------------------------------------------------------------
# mixture basics
# ----------------------------------------------------------------------------

def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture.isotropic([0.7, 0.4], [0.0, 1.0], [0.1, 0.1])  # weights sum 1.1
    with pytest.raises(ValueError):
        GaussianMixture.isotropic([0.5, 0.5], [0.0, 1.0], [0.1, 0.0])  # non-PD
    gm = GaussianMixture.isotropic([0.6, 0.4], [0.0, 1.5], [0.2, 0.3])
    assert gm.mean[0] == pytest.approx(0.6)


def test_mixture_shapes_are_strict():
    # (3, 2) means with 2 weights is neither (K, d) nor transposed silently
    with pytest.raises(ValueError, match="not \\(K, d\\)"):
        GaussianMixture.isotropic([0.5, 0.5], np.zeros((3, 2)), [0.1, 0.1])
    with pytest.raises(ValueError, match="not \\(K, d\\)"):
        GaussianMixture([0.5, 0.5], np.zeros((3, 2)), np.stack([np.eye(3)] * 2))
    # a 1-d means or 2-d covariances is not taken as d = 1 or K = 1
    with pytest.raises(ValueError, match="not \\(K, d\\)"):
        GaussianMixture([0.5, 0.5], [0.0, 1.0], np.ones((2, 1, 1)))
    with pytest.raises(ValueError, match="covariance shape"):
        GaussianMixture([1.0], np.zeros((1, 2)), np.eye(2))
    with pytest.raises(ValueError, match="at least one component"):
        GaussianMixture.isotropic([], [], [])
    with pytest.raises(ValueError, match="d >= 1"):
        GaussianMixture.isotropic([0.5, 0.5], np.zeros((2, 0)), [0.1, 0.1])
    with pytest.raises(ValueError, match="sigma <= 0"):
        GaussianMixture.isotropic([0.5, 0.5], [0.0, 1.0], [0.1, -0.1])
    for weights in ([1.0, 0.0], [1.5, -0.5], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="every weight must be positive"):
            GaussianMixture.isotropic(weights, [0.0, 1.0], [0.1, 0.1])
    gm = GaussianMixture.isotropic([0.6, 0.4], [0.0, 1.5], [0.2, 0.3])  # 1-d list: one scalar each
    assert gm.means.shape == (2, 1)
    gm = GaussianMixture.spatial_ar1([0.6, 0.4], [0.0, 1.5], [0.2, 0.3], rho=0.5, d=3)
    assert np.array_equal(gm.means, [[0.0] * 3, [1.5] * 3])


def test_ar1_covariance_structure():
    cov = ar1_covariance(0.5, 0.8, 4)
    assert cov[0, 0] == pytest.approx(0.25)
    assert cov[0, 1] == pytest.approx(0.25 * 0.8)
    assert cov[0, 3] == pytest.approx(0.25 * 0.8**3)
    np.linalg.cholesky(cov)
    gm = GaussianMixture.spatial_ar1([1.0], [0.7], [0.5], rho=0.8, d=4)
    assert gm.covariances.shape == (1, 4, 4)


def test_mixture_logpdf_matches_scipy():
    from scipy.stats import multivariate_normal

    gm = GaussianMixture.spatial_ar1([0.3, 0.7], [0.0, 1.0], [0.5, 0.8], rho=0.5, d=3)
    x = np.array([0.2, -0.1, 0.7])
    want = np.log(
        0.3 * multivariate_normal.pdf(x, mean=gm.means[0], cov=gm.covariances[0])
        + 0.7 * multivariate_normal.pdf(x, mean=gm.means[1], cov=gm.covariances[1])
    )
    assert gm.logpdf(x) == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------------------
# probe and posterior
# ----------------------------------------------------------------------------

def test_probe_free_limit(free_tables):
    ctx = ScoreContext(free_tables, GaussianMixture.isotropic([1.0], [0.0], [1.0]))
    for t in (0.2, 0.5, 0.8):
        K, mu = probe(ctx, t, [1.3])
        assert K == pytest.approx(t / (1 - t), rel=1e-12)
        assert mu[0] == pytest.approx(1.3 / t, rel=1e-12)


def test_posterior_single_component(ctx_a):
    pi, mb, yh = posterior(ctx_a, 0.5, [1.7])
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    ctx1 = ScoreContext(ctx_a.tables, GaussianMixture.isotropic([1.0], [0.7], [0.3]))
    pi1, mb1, yh1 = posterior(ctx1, 0.5, [1.7])
    assert pi1[0] == pytest.approx(1.0)
    assert np.allclose(yh1, mb1[0])


def test_posterior_dominance_far_in_one_basin(ctx_a):
    # standing 20 sigma inside the upper basin near the end of the bridge
    pi, _, _ = posterior(ctx_a, 0.99, [1.5])
    assert pi[1] > 1 - 1e-6


def test_posterior_matches_quadrature_oracle(ctx_b):
    # responsibilities and the mixture estimate equal per-component masses
    # and the mean of the normalized bridge integrand (well-separated case,
    # t = 0.5, x = 3.0)
    t, x = 0.5, 3.0
    tab, target = ctx_b.tables, ctx_b.target
    co = ctx_b.coeffs(t)
    mu = (co.b * x + float(co.theta_y[0]) - float(ctx_b.tables.theta_plus_end[0])) / co.K
    ys = np.linspace(-8.0, 10.0, 20001)
    h = ys[1] - ys[0]
    log_ratio = (-0.5 * co.a * x * x + co.b * x * ys - 0.5 * co.c * ys**2
                 + float(co.theta_x[0]) * x + float(co.theta_y[0]) * ys
                 - (-0.5 * ctx_b.tables.a_plus_end * ys**2 + float(ctx_b.tables.theta_plus_end[0]) * ys))
    masses = np.empty(target.n_components)
    mean_num = 0.0
    for k in range(target.n_components):
        comp = GaussianMixture.isotropic([1.0], [target.means[k][0]], [np.sqrt(target.covariances[k][0, 0])])
        w = np.exp(comp.logpdf(ys[:, None]) + log_ratio - np.max(log_ratio))
        masses[k] = target.weights[k] * np.sum(w) * h
        mean_num += target.weights[k] * np.sum(ys * w) * h
    pi_quad = masses / masses.sum()
    yhat_quad = mean_num / masses.sum()
    pi, _, yhat = posterior(ctx_b, t, [x])
    assert np.max(np.abs(pi - pi_quad)) < 1e-4
    assert abs(yhat[0] - yhat_quad) < 1e-4


def test_posterior_is_convex_combination(ctx_a):
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform(0.02, 0.98)
        x = rng.uniform(-2, 3)
        pi, mb, yh = posterior(ctx_a, t, [x])
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi >= 0)
        lo, hi = mb.min(), mb.max()
        assert lo - 1e-12 <= yh[0] <= hi + 1e-12


# ----------------------------------------------------------------------------
# score
# ----------------------------------------------------------------------------

def test_score_zero_for_matched_heat_kernel(free_tables):
    ctx = ScoreContext(free_tables, GaussianMixture.isotropic([1.0], [0.0], [1.0]))
    for t in (0.05, 0.3, 0.6, 0.95):
        for x in (-3.0, -0.4, 0.0, 1.1, 2.7):
            assert abs(score_at(ctx, t, [x])[0]) < 1e-6


def test_score_affine_when_single_component(paper_schedule):
    tab = build_tables(paper_schedule, linear_guidance([0.0], [1.2], paper_schedule.midpoints()))
    ctx = ScoreContext(tab, GaussianMixture.isotropic([1.0], [1.2], [0.4]))
    xs = np.linspace(-3, 3, 41)
    for t in (0.1, 0.5, 0.9):
        us = np.array([score_at(ctx, t, [x])[0] for x in xs])
        coef = np.polyfit(xs, us, 1)
        resid = us - np.polyval(coef, xs)
        ss_tot = np.sum((us - us.mean()) ** 2)
        assert 1.0 - np.sum(resid**2) / ss_tot > 1 - 1e-10


def test_score_matches_quadrature_gradient(ctx_a, ctx_b):
    rng = np.random.default_rng(1)
    for ctx, lo, hi in ((ctx_a, -2.0, 4.0), (ctx_b, -1.0, 6.0)):
        for _ in range(25):
            t = rng.uniform(0.02, 0.98)
            x = rng.uniform(lo, hi)
            u = score_at(ctx, t, [x])[0]
            u_fd = oracles.psi_score_fd(ctx.tables, ctx.target, t, x)
            assert abs(u - u_fd) / max(1e-6, abs(u_fd)) < 1e-4


def test_cross_validation_identity(ctx_a):
    # score == d/dx log p_t - d/dx log G_plus, all parts analytic or FD
    h = 1e-5
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = rng.uniform(0.05, 0.95)
        x = rng.uniform(-1.5, 3.0)
        u = score_at(ctx_a, t, [x])[0]
        xp = np.array([[x + h], [x - h]])
        dlogp = (marginal_density(ctx_a, t, xp, log=True)[0] - marginal_density(ctx_a, t, xp, log=True)[1]) / (2 * h)
        co = ctx_a.coeffs(t)
        th_plus = float(ctx_a.tables.sample([t]).theta_plus[0, 0])
        glog = lambda xx: -0.5 * co.a_plus * xx**2 + th_plus * xx
        dlogG = (glog(x + h) - glog(x - h)) / (2 * h)
        assert abs(u - (dlogp - dlogG)) < 1e-4


def test_translation_equivariance(paper_schedule, dr_target):
    tab = build_tables(paper_schedule, linear_guidance([3.0], [0.6], paper_schedule.midpoints()))
    ctx = ScoreContext(tab, dr_target)
    c = 1.3
    tab2 = build_tables(paper_schedule, linear_guidance([3.0 + c], [0.6 + c], paper_schedule.midpoints()))
    tgt2 = GaussianMixture.isotropic([0.6, 0.4], [0.0 + c, 1.5 + c], [0.2, 0.3])
    ctx2 = ScoreContext(tab2, tgt2)
    for t in (0.07, 0.3, 0.55, 0.92):
        for x in (-1.0, 0.4, 1.8):
            u1 = score_at(ctx, t, [x])[0]
            u2 = shifted_score(ctx2, t, [x + c], [c])[0]
            assert abs(u1 - u2) < 1e-10


def test_shifted_score_zero_shift_identity(ctx_b):
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = rng.uniform(0.05, 0.95)
        x = rng.uniform(-1, 5)
        assert shifted_score(ctx_b, t, [x], [0.0])[0] == score_at(ctx_b, t, [x])[0]


def test_score_t_outside_clip_is_clamped(ctx_a):
    lo, hi = ctx_a.tables.t_clip
    for t, t_clipped in ((0.0, lo), (1.0, hi)):
        assert ctx_a.coeffs(t).t == t_clipped
        u = ctx_a.score_batch(ctx_a.coeffs(t), [[1.0]])
        assert np.array_equal(u, ctx_a.score_batch(ctx_a.coeffs(t_clipped), [[1.0]]))


# ----------------------------------------------------------------------------
# marginal density
# ----------------------------------------------------------------------------

def test_marginal_integrates_to_one(ctx_a):
    xs = np.linspace(-12, 14, 4001)[:, None]
    for t in (0.1, 0.5, 0.9):
        p = marginal_density(ctx_a, t, xs)
        total = np.trapezoid(p, xs[:, 0])
        assert total == pytest.approx(1.0, abs=1e-6)


def test_marginal_terminal_limit(ctx_a, dr_target):
    xs = np.linspace(-2, 3, 2001)[:, None]
    p = marginal_density(ctx_a, 0.999, xs)
    p_tar = np.exp(dr_target.logpdf(xs))
    l1 = np.trapezoid(np.abs(p - p_tar), xs[:, 0])
    assert l1 < 1e-2


def test_marginal_free_single_component_is_gaussian_bridge(free_tables):
    from scipy.stats import norm

    m1, s1 = 1.2, 0.5
    ctx = ScoreContext(free_tables, GaussianMixture.isotropic([1.0], [m1], [s1]))
    xs = np.linspace(-4, 5, 1001)[:, None]
    for t in (0.25, 0.6, 0.85):
        want = norm.pdf(xs[:, 0], loc=t * m1, scale=np.sqrt(t**2 * s1**2 + t * (1 - t)))
        got = marginal_density(ctx, t, xs)
        assert np.max(np.abs(got - want)) < 1e-12


def test_marginal_mixture_start_endpoints(ctx_b, dr_target, initial_b):
    xs = np.linspace(-3, 9, 4001)[:, None]
    lo, hi = ctx_b.tables.t_clip
    p0 = marginal_density(ctx_b, lo, xs)
    p_in = np.exp(initial_b.logpdf(xs))
    assert np.trapezoid(np.abs(p0 - p_in), xs[:, 0]) < 1e-2
    p1 = marginal_density(ctx_b, hi, xs)
    p_tar = np.exp(dr_target.logpdf(xs))
    assert np.trapezoid(np.abs(p1 - p_tar), xs[:, 0]) < 1e-2
    # normalized at interior times as well
    for t in (0.2, 0.5, 0.8):
        assert np.trapezoid(marginal_density(ctx_b, t, xs), xs[:, 0]) == pytest.approx(1.0, abs=1e-6)


def test_marginal_mixture_start_reduces_to_delta(paper_schedule, dr_target):
    # one initial component with negligible spread at the origin
    tab = build_tables(paper_schedule, linear_guidance([0.0], [0.6], paper_schedule.midpoints()))
    ctx_delta = ScoreContext(tab, dr_target)
    tiny = GaussianMixture.isotropic([1.0], [0.0], [1e-8])
    ctx_mix = ScoreContext(tab, dr_target, initial=tiny)
    xs = np.linspace(-2, 3, 101)[:, None]
    for t in (0.15, 0.5, 0.85):
        a = marginal_density(ctx_delta, t, xs, log=True)
        b = marginal_density(ctx_mix, t, xs, log=True)
        assert np.max(np.abs(a - b)) < 1e-8


def test_marginal_matches_monte_carlo_histogram(ctx_b, paper_schedule, dr_target, initial_b):
    # coarse MC check of the mixture-start marginal at one interior time
    from mfbridge.simulate import SimConfig, run_bridge

    cfg = SimConfig(target=dr_target, schedule=paper_schedule, initial=initial_b,
                    n_particles=4000, n_steps=600, seed=123, snapshot_times=(0.5,))
    rep = run_bridge(cfg)[0]
    xs = rep.snapshots[0.5][:, 0]
    edges = np.linspace(-1, 6, 36)
    hist, _ = np.histogram(xs, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    p = marginal_density(ctx_b, 0.5, centers[:, None])
    widths = np.diff(edges)
    n_bin = hist * widths * len(xs)
    se = np.sqrt(np.maximum(n_bin, 1.0)) / (len(xs) * widths)
    assert np.all(np.abs(hist - p) < 4 * se + 0.01)


def test_marginal_density_snapshots_wide_scenario(paper_schedule, dr_target, initial_a):
    # density snapshots along the bridge for the heavily-overlapping scenario
    from mfbridge.simulate import SimConfig, run_bridge

    nu = linear_guidance([float(initial_a.mean[0])], [float(dr_target.mean[0])], paper_schedule.midpoints())
    tab = build_tables(paper_schedule, nu)
    ctx = ScoreContext(tab, dr_target, initial=initial_a)
    times = (0.1, 0.3, 0.5, 0.7)
    cfg = SimConfig(target=dr_target, schedule=paper_schedule, initial=initial_a,
                    n_particles=8000, n_steps=1000, seed=321, snapshot_times=times)
    rep = run_bridge(cfg)[0]
    for t in times:
        xs = rep.snapshots[t][:, 0]
        edges = np.linspace(xs.min() - 0.5, xs.max() + 0.5, 41)
        hist, _ = np.histogram(xs, bins=edges, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        p = marginal_density(ctx, t, centers[:, None])
        widths = np.diff(edges)
        n_bin = hist * widths * len(xs)
        se = np.sqrt(np.maximum(n_bin, 1.0)) / (len(xs) * widths)
        assert np.all(np.abs(hist - p) < 4 * se + 0.01), t


# ----------------------------------------------------------------------------
# shared-basis posterior against the per-component reference
# ----------------------------------------------------------------------------

N_GRID = 2500
_tables_by_dim = {}


def _zero_guidance_tables(d):
    if d not in _tables_by_dim:
        sched = geometric_schedule(12.0, 0.65, 8)
        _tables_by_dim[d] = build_tables(sched, np.zeros((sched.n_intervals, d)), N_GRID)
    return _tables_by_dim[d]


def _random_target(kind, n_comp, d, rng):
    weights = rng.dirichlet(np.ones(n_comp))
    means = rng.uniform(-3.0, 3.0, size=(n_comp, d))
    sigmas = rng.uniform(0.2, 1.5, size=n_comp)
    if kind == "isotropic":
        return GaussianMixture.isotropic(weights, means, sigmas)
    if kind == "ar1":
        return GaussianMixture.spatial_ar1(weights, means, sigmas, rng.uniform(0.0, 0.95), d)
    covs = []
    for s in sigmas:  # random orientations: the components share no eigenbasis
        A = rng.standard_normal((d, d))
        covs.append(s**2 * (A @ A.T / d + 0.1 * np.eye(d)))
    return GaussianMixture(weights, means, np.array(covs))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["isotropic", "ar1", "spd"]), n_comp=st.integers(1, 4), d=st.integers(1, 6),
       step=st.integers(0, N_GRID), seed=st.integers(0, 2**32 - 1))
def test_shared_basis_posterior_matches_reference(kind, n_comp, d, step, seed):
    # t runs over the step grid; steps 0 and N_GRID clip to the two ends
    rng = np.random.default_rng(seed)
    target = _random_target(kind, n_comp, d, rng)
    ctx = ScoreContext(_zero_guidance_tables(d), target)
    assert len(ctx.bases) == (n_comp if kind == "spd" and d > 1 else 1)
    co = ctx.coeffs(step / N_GRID)
    w = target.means[rng.integers(n_comp, size=64)] + rng.normal(0.0, 1.5, size=(64, d))
    pi_ref, m_ref = oracles.posterior_reference(target, co.K, w)
    p, y_hat = ctx._posterior(co, w)
    pi = np.empty_like(pi_ref)
    pi[:, ctx._order] = p.T
    # the relative rounding of a responsibility grows with the size of its
    # log-weight in both evaluators; below 1e-18 it cannot move y_hat
    np.testing.assert_allclose(pi, pi_ref, rtol=1e-12, atol=1e-30)
    # y_hat averages the per-component means; an entry that cancels towards 0
    # keeps the rounding of the terms it averages, hence the absolute floor
    np.testing.assert_allclose(y_hat, np.einsum("bk,bkd->bd", pi_ref, m_ref),
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(m_ref)))


@pytest.mark.parametrize("kind", ["isotropic", "ar1", "spd"])
def test_score_batch_reuses_a_work_array(kind):
    # a work array still holding an earlier call's values gives the drift a
    # fresh one gives, bit for bit, for one or several bases and two stacked
    # modes, and the drift is written into it
    rng = np.random.default_rng(11)
    d, B = 3, 40
    target = _random_target(kind, 3, d, rng)
    sched = geometric_schedule(12.0, 0.65, 8)
    ctx = ScoreContext(build_tables(sched, np.stack([np.zeros((8, d)), np.ones((8, d))], axis=1)), target)
    table = ctx.coeff_table(np.array([0.2, 0.6, 0.9]))
    X, Z = rng.normal(size=(2 * B, d)), rng.normal(size=(B, d))
    work = np.full((WORK_SLOTS, 2 * B, d), np.nan)
    for j, nu_hat in enumerate((None, np.full((2, d), 0.4), None)):
        fresh = ctx.score_batch(table.row(j), X, Z, nu_hat)
        reused = ctx.score_batch(table.row(j), X, Z, nu_hat, work)
        assert np.shares_memory(reused, work)
        assert np.array_equal(fresh, reused)


@pytest.mark.parametrize("start", ["delta", "mixture"])
def test_marginal_components_of_stacked_modes_are_each_modes_own(paper_schedule, dr_target, initial_b, start):
    # on a stacked table the means carry the mode axis (C, modes, d); each
    # mode's slice, the log weights and the covariances are bit-identical
    # to those of a table built on that mode alone
    from mfbridge.simulate import SimConfig, mode_guidance, tables_for_modes

    cfg = SimConfig(target=dr_target, schedule=paper_schedule, initial=initial_b if start == "mixture" else None)
    modes = ["mf", "ia0", "iam", "cl"]
    stacked = ScoreContext(tables_for_modes(cfg, modes), cfg.target, cfg.initial)
    singles = [ScoreContext(build_tables(paper_schedule, mode_guidance(cfg, m), cfg.n_steps), cfg.target, cfg.initial)
               for m in modes]
    for t in (0.0, 0.1, 0.5, 0.99, 1.0):
        log_ws, means, covs = _marginal_components(stacked, t)
        assert means.shape == (log_ws.size, len(modes), 1)
        for i, ctx in enumerate(singles):
            want = _marginal_components(ctx, t)
            assert np.array_equal(log_ws, want[0]) and np.array_equal(covs, want[2]), (t, i)
            assert np.array_equal(means[:, i], want[1]), (t, i)
