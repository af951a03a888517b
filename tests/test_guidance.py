import numpy as np
import pytest

from mfbridge.guidance import fixed_point_guidance, linear_guidance
from mfbridge.lqg import sinh_ratio



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
