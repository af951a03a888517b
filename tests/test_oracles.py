import numpy as np
import pytest

import oracles
from mfbridge.lqg import LqgProblem, solve_lqg
from mfbridge.schedule import PwcSchedule


def test_bisection_linear():
    assert oracles.bisection_shoot(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_bisection_requires_sign_change():
    with pytest.raises(ValueError):
        oracles.bisection_shoot(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisection_recovers_closed_form_shooting():
    # variance-matching root as a function of the branch parameter equals the
    # closed-form value
    p = LqgProblem(0.8, 2.0, 1.5, 0.3)
    sol = solve_lqg(p)
    delta = sol.delta

    def sigma1_of_rho(rho):
        S1 = -p.kappa + delta * (1.0 + rho) / (1.0 - rho)
        S = oracles._sweep_S_backward(p.kappa, p.q, S1, 1600)
        return oracles._sweep_Sigma_forward(p.kappa, S)[-1] - p.sigma_tar**2

    root = oracles.bisection_shoot(sigma1_of_rho, -0.999, 0.999, tol=1e-13)
    assert abs(root - sol.rho) < 1e-9


def test_bisection_zero_rho_when_variance_matches_free_relaxation():
    # q = 0, target variance equal to the uncontrolled OU value -> root at 0
    kappa = 1.0
    sig2 = (1.0 - np.exp(-2.0)) / 2.0

    def sigma1_of_rho(rho):
        S1 = -kappa + kappa * (1.0 + rho) / (1.0 - rho)
        S = oracles._sweep_S_backward(kappa, 0.0, S1, 1600)
        return oracles._sweep_Sigma_forward(kappa, S)[-1] - sig2

    root = oracles.bisection_shoot(sigma1_of_rho, -0.9, 0.9, tol=1e-13)
    assert abs(root) < 1e-9


@pytest.mark.parametrize("m_bar", [None, 0.0, 0.7])
def test_linear_shoot_hits_terminal_mean(m_bar):
    # the superposition shot starts the returned path at s0 and lands on m_tar
    p = LqgProblem(0.8, 2.0, 1.5, 0.3)
    *_, S_half = oracles.lqg_shoot(p.kappa, p.q, p.sigma_tar, n_steps=200)
    _, s, m, s0 = oracles.lqg_linear_shoot(p.kappa, p.q, p.m_tar, S_half, m_bar=m_bar)
    assert s[0] == s0 and m[0] == 0.0
    assert abs(m[-1] - p.m_tar) < 1e-12


def test_rk4_forward_heat_kernel():
    sched = PwcSchedule([0.0, 1.0], [0.0])
    ts = np.linspace(0.05, 0.95, 19)
    a = oracles.rk4_riccati_forward(sched, ts)
    assert np.max(np.abs(a - 1.0 / ts) * ts) < 1e-8


def test_rk4_forward_constant_beta():
    sched = PwcSchedule([0.0, 1.0], [4.0])
    ts = np.linspace(0.1, 0.9, 9)
    a = oracles.rk4_riccati_forward(sched, ts)
    ref = 2.0 / np.tanh(2.0 * ts)
    assert np.max(np.abs(a - ref) / ref) < 1e-8


def test_rk4_backward_bridge_kernel():
    sched = PwcSchedule([0.0, 1.0], [0.0])
    ts = np.linspace(0.05, 0.95, 19)
    a, b, c = oracles.rk4_riccati_backward(sched, ts)
    for v in (a, b, c):
        assert np.max(np.abs(v - 1.0 / (1.0 - ts)) * (1.0 - ts)) < 1e-6


def test_log_simpson_gaussian_mass():
    x = np.linspace(-10.0, 10.0, 4001)
    log_f = -0.5 * x**2 - 0.5 * np.log(2 * np.pi)
    assert oracles.log_simpson(log_f, x[1] - x[0]) == pytest.approx(0.0, abs=1e-12)


def test_psi_constant_for_matched_heat_kernel(paper_schedule):
    # beta = 0 and a standard normal target: psi is x-independent
    from mfbridge.greens import build_tables
    from mfbridge.score import GaussianMixture

    sched = PwcSchedule([0.0, 1.0], [0.0])
    tab = build_tables(sched, np.zeros((1, 1)))
    tgt = GaussianMixture.isotropic([1.0], [0.0], [1.0])
    vals = [oracles.psi_quadrature(tab, tgt, 0.4, x) for x in (-2.0, -0.3, 0.9, 2.4)]
    assert max(vals) - min(vals) < 1e-6


def test_psi_log_quadratic_for_single_gaussian(paper_schedule):
    # K = 1 target: log psi is a quadratic in x (cubic fit coefficient ~ 0)
    from mfbridge.greens import build_tables
    from mfbridge.guidance import linear_guidance
    from mfbridge.score import GaussianMixture

    tab = build_tables(paper_schedule, linear_guidance([0.0], [1.0], paper_schedule.midpoints()))
    tgt = GaussianMixture.isotropic([1.0], [1.0], [0.4])
    xs = np.linspace(-2.0, 3.0, 9)
    vals = np.array([oracles.psi_quadrature(tab, tgt, 0.55, x) for x in xs])
    coeffs = np.polyfit(xs, vals, 3)
    assert abs(coeffs[0]) < 1e-6
