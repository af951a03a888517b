import numpy as np
import pytest

from fixed_point import fixed_point_guidance, marginal_fixed_point, midpoint_means
from mfbridge.guidance import linear_guidance, self_consistent_guidance
from mfbridge.lqg import sinh_ratio
from mfbridge.schedule import PwcSchedule
from mfbridge.score import GaussianMixture


def test_linear_scenario_values():
    assert linear_guidance([2.8], [0.6], [0.0, 0.5, 1.0])[:, 0] == pytest.approx([2.8, 1.7, 0.6])
    ts = np.linspace(0, 1, 11)
    assert np.allclose(linear_guidance([2.3], [0.6], ts)[:, 0], 2.3 - 1.7 * ts)


def test_linear_constant_when_endpoints_equal():
    assert np.allclose(linear_guidance([0.9, -0.2], [0.9, -0.2], 0.3), [[0.9, -0.2]])


def test_sinh_ratio_values():
    assert sinh_ratio(1.0, 0.5) == pytest.approx(np.sinh(0.5) / np.sinh(1.0), rel=1e-12)
    # kappa -> 0 limit is the line through the origin
    ts = np.linspace(0, 1, 9)
    assert np.max(np.abs(sinh_ratio(1e-12, ts) - ts)) < 1e-12


def test_sinh_ratio_large_kappa_stable():
    assert np.isfinite(sinh_ratio(800.0, 0.5))
    assert sinh_ratio(800.0, 1.0) == pytest.approx(1.0)


def test_pwc_values_midpoint_sampling(paper_schedule):
    mids = paper_schedule.midpoints()
    vals = linear_guidance([2.8], [0.6], mids)
    assert vals.shape == (8, 1)
    assert np.allclose(vals[:, 0], 2.8 - 2.2 * mids)


def test_fixed_point_converges_on_contraction(paper_schedule):
    # synthetic contraction toward a known profile
    target = np.linspace(1.0, 0.0, 8)[:, None]

    def mean_map(nu):
        return 0.5 * (nu + target)

    res = fixed_point_guidance(paper_schedule, mean_map, np.zeros((8, 1)), tol=1e-6, max_iter=40)
    assert res.converged
    assert np.max(np.abs(res.values - target)) < 1e-5
    assert all(b < a for a, b in zip(res.max_updates, res.max_updates[1:]))


def test_fixed_point_flags_non_convergence(paper_schedule):
    def mean_map(nu):
        return -nu  # period-2 oscillation never settles

    res = fixed_point_guidance(paper_schedule, mean_map, np.ones((8, 1)), tol=1e-8, max_iter=5)
    assert not res.converged
    assert res.n_iterations == 5


def test_degenerate_symmetric_fixed_point(paper_schedule):
    # zero-centred target with delta start: nu == 0 is reached in one step
    def mean_map(nu):
        return np.zeros_like(nu)

    res = fixed_point_guidance(paper_schedule, mean_map, np.zeros((8, 1)), tol=1e-10, max_iter=3)
    assert res.converged
    assert res.n_iterations == 1
    assert np.all(res.values == 0.0)


PROBLEMS = ["delta", "mixture", "ar1-delta", "ar1-mixture"]


def _problem(name, dr_target, initial_b):
    """(target, initial): delta and mixture starts at d = 1, and the same with a d = 3 AR(1) target."""
    if name.startswith("ar1"):
        target = GaussianMixture.spatial_ar1([0.6, 0.4], [0.0, 1.5], [0.2, 0.3], 0.5, 3)
        initial = GaussianMixture.spatial_ar1([0.6, 0.4], [1.5, 5.5], [0.5, 0.7], 0.5, 3)
    else:
        target, initial = dr_target, initial_b
    return target, (initial if name.endswith("mixture") else None)


@pytest.mark.parametrize("name", PROBLEMS)
def test_midpoint_map_is_affine(paper_schedule, dr_target, initial_b, name):
    target, initial = _problem(name, dr_target, initial_b)
    a, b = np.random.default_rng(3).normal(0.0, 2.0, (2, paper_schedule.n_intervals, target.dim))
    f = lambda nu: midpoint_means(paper_schedule, nu, target, initial)
    second_difference = f(a + b) - f(a) - f(b) + f(np.zeros_like(a))
    assert np.max(np.abs(second_difference)) <= 1e-12


@pytest.mark.parametrize("name", PROBLEMS)
def test_exact_solve_is_the_picard_limit(paper_schedule, dr_target, initial_b, name):
    target, initial = _problem(name, dr_target, initial_b)
    m_in = initial.mean if initial is not None else np.zeros(target.dim)
    nu, J = self_consistent_guidance(paper_schedule, m_in, target.mean)
    f = lambda v: midpoint_means(paper_schedule, v, target, initial)
    assert J.shape == (nu.size, nu.size)
    assert np.max(np.abs(f(nu) - nu)) <= 1e-12
    # the map contracts, so Picard on the exact map converges to the same point
    assert np.max(np.abs(np.linalg.eigvals(J))) < 1.0
    res = fixed_point_guidance(paper_schedule, f, np.zeros_like(nu), tol=1e-13, max_iter=200)
    assert res.converged
    assert np.max(np.abs(res.values - nu)) <= 1e-10


@pytest.mark.parametrize("start", ["delta", "mixture"])
def test_self_consistent_guidance_tends_to_the_interpolant(paper_schedule, dr_target, initial_b, start):
    # the paper's theorem: with beta(t) held, refining the intervals drives the
    # self-consistent guidance onto the linear interpolant at first order in
    # the width, so each halving cuts the midpoint residual about fourfold
    initial = initial_b if start == "mixture" else None
    m_in = initial.mean if initial is not None else np.zeros(1)
    bp, betas = paper_schedule.breakpoints, paper_schedule.betas
    residuals = []
    for pieces in (1, 2, 4, 8):
        fine = np.concatenate([np.linspace(lo, hi, pieces + 1)[:-1] for lo, hi in zip(bp[:-1], bp[1:])] + [[1.0]])
        sched = PwcSchedule(fine, np.repeat(betas, pieces))
        nu, _ = self_consistent_guidance(sched, m_in, dr_target.mean)
        lin = linear_guidance(m_in, dr_target.mean, sched.midpoints())
        residuals.append(float(np.max(np.abs(nu - lin))))
    assert all(fine <= coarse / 3.0 for coarse, fine in zip(residuals, residuals[1:])), residuals


def _mixtures_with_mean(mean, rho):
    """Three mixtures of the mean ``mean`` (d,) that differ in K, weights and covariances (AR(1) ones if d > 1)."""
    mean = np.asarray(mean, dtype=float)
    direction = np.linspace(1.0, -0.5, mean.size)
    specs = [([1.0], [0.0], [0.4]),
             ([0.25, 0.75], [-1.5, 0.5], [0.2, 0.6]),
             ([0.5, 0.3, 0.2], [0.6, -2.0, 1.5], [0.3, 0.15, 0.9])]   # weighted offsets sum to 0
    out = []
    for weights, offsets, sigmas in specs:
        means = mean + np.outer(offsets, direction)
        out.append(GaussianMixture.isotropic(weights, means, sigmas) if mean.size == 1
                   else GaussianMixture.spatial_ar1(weights, means, sigmas, rho, mean.size))
    return out


ENDPOINT_MEANS = {1: ([3.1], [0.6]), 3: ([3.1, 2.0, 4.5], [0.6, 0.2, 1.1])}


@pytest.mark.parametrize("start", ["delta", "mixture"])
@pytest.mark.parametrize("d", [1, 3])
def test_fixed_point_depends_on_the_mixtures_only_through_their_means(paper_schedule, d, start):
    # the paper's claim for arbitrary densities: mixtures that share their means
    # but differ in K, weights and covariances have one self-consistent guidance
    m_in, m_tar = ENDPOINT_MEANS[d]
    if start == "delta":
        m_in, initials = np.zeros(d), [None]
    else:
        initials = _mixtures_with_mean(m_in, 0.3)
    nu, _ = self_consistent_guidance(paper_schedule, m_in, m_tar)
    for initial in initials:
        for target in _mixtures_with_mean(m_tar, 0.5):
            assert np.max(np.abs(marginal_fixed_point(paper_schedule, target, initial) - nu)) <= 1e-12


@pytest.mark.parametrize("start", ["delta", "mixture"])
def test_zones_decouple(paper_schedule, start):
    m_in, m_tar = ENDPOINT_MEANS[3]
    m_in = np.zeros(3) if start == "delta" else np.asarray(m_in)
    nu, _ = self_consistent_guidance(paper_schedule, m_in, m_tar)
    for z in range(3):
        nu_z, _ = self_consistent_guidance(paper_schedule, m_in[z], m_tar[z])
        assert np.max(np.abs(nu[:, z] - nu_z[:, 0])) <= 1e-12
