import numpy as np
import pytest

import oracles
from mfbridge.errors import InfeasibleTargetError
from mfbridge.lqg import DENSE_GRID_POINTS, LqgProblem, ia_baseline, lqg_metrics, solve_lqg

BENCH = LqgProblem(kappa=0.8, q=2.0, m_tar=1.5, sigma_tar=0.3)


def _random_feasible(rng):
    """Draw problems until the variance target sits on the admissible branch."""
    while True:
        kappa = rng.uniform(0.0, 3.0)
        q = rng.uniform(0.0, 5.0)
        sigma = rng.uniform(0.05, 1.5)
        m_tar = rng.uniform(-3.0, 3.0)
        delta = np.sqrt(kappa**2 + q)
        if delta < 1e-6:
            continue
        if sigma**2 >= np.tanh(delta) / delta:  # rho would leave (-1, 1)
            continue
        return LqgProblem(kappa, q, m_tar, sigma)


def test_zero_control_special_case():
    # target variance equals the uncontrolled OU variance: rho = 0, S == 0
    p = LqgProblem(1.0, 0.0, 0.0, np.sqrt((1 - np.exp(-2.0)) / 2.0))
    sol = solve_lqg(p)
    assert abs(sol.rho) < 1e-12
    ts = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(sol.S(ts))) < 1e-12


def test_mean_is_linear_for_small_kappa():
    p = LqgProblem(1e-12, 2.0, 1.0, 0.3)
    sol = solve_lqg(p)
    assert sol.m(0.5) == pytest.approx(0.5, abs=1e-12)


def test_benchmark_matches_shooting_oracle(relerr):
    sol = solve_lqg(BENCH)
    grid, S_o, Sigma_o, S1_o, S_half = oracles.lqg_shoot(BENCH.kappa, BENCH.q, BENCH.sigma_tar)
    assert abs(sol.S1 - S1_o) < 1e-6
    assert relerr(sol.S(grid), S_o, floor=1e-6) < 1e-6
    assert relerr(sol.Sigma(grid[5:]), Sigma_o[5:]) < 1e-6
    g2, s_o, m_o, _ = oracles.lqg_linear_shoot(BENCH.kappa, BENCH.q, BENCH.m_tar, S_half)
    assert relerr(sol.m(g2[1:]), m_o[1:]) < 1e-6
    assert relerr(sol.s(g2), s_o) < 1e-6


def test_bridge_constraints_random_problems():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = _random_feasible(rng)
        sol = solve_lqg(p)
        assert abs(sol.Sigma(1.0) - p.sigma_tar**2) < 1e-10
        assert abs(sol.m(1.0) - p.m_tar) < 1e-12
        assert abs(sol.Sigma(0.0)) < 1e-14
        assert abs(sol.m(0.0)) < 1e-14
        assert -1.0 < sol.rho < 1.0


def test_closed_form_ode_residuals():
    # central differences against the defining ODEs on interior points
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(5):
        p = _random_feasible(rng)
        sol = solve_lqg(p)
        ts = np.linspace(0.01, 0.99, 197)
        Sdot = (sol.S(ts + h) - sol.S(ts - h)) / (2 * h)
        assert np.max(np.abs(Sdot - (sol.S(ts) ** 2 + 2 * p.kappa * sol.S(ts) - p.q))) < 1e-5
        Sigdot = (sol.Sigma(ts + h) - sol.Sigma(ts - h)) / (2 * h)
        assert np.max(np.abs(Sigdot - (-2 * (p.kappa + sol.S(ts)) * sol.Sigma(ts) + 1.0))) < 1e-5
        mdot = (sol.m(ts + h) - sol.m(ts - h)) / (2 * h)
        assert np.max(np.abs(mdot - (-(p.kappa + sol.S(ts)) * sol.m(ts) - sol.s(ts)))) < 1e-5
        sdot = (sol.s(ts + h) - sol.s(ts - h)) / (2 * h)
        assert np.max(np.abs(sdot - (p.q * sol.m(ts) + (p.kappa + sol.S(ts)) * sol.s(ts)))) < 1e-5


def test_infeasible_variance_raises():
    with pytest.raises(InfeasibleTargetError):
        solve_lqg(LqgProblem(1.0, 0.0, 0.0, 1.2))


def test_brownian_bridge_limit():
    p = LqgProblem(0.0, 0.0, 1.0, 0.8)
    sol = solve_lqg(p)
    ts = np.linspace(0.0, 1.0, 21)
    assert np.allclose(sol.Sigma(ts), ts**2 * 0.64 + ts * (1 - ts), atol=1e-14)
    assert np.allclose(sol.m(ts), ts, atol=1e-14)
    h = 1e-6
    tm = np.linspace(0.05, 0.95, 37)
    Sdot = (sol.S(tm + h) - sol.S(tm - h)) / (2 * h)
    assert np.max(np.abs(Sdot - sol.S(tm) ** 2)) < 1e-4
    assert abs(sol.Sigma(1.0) - 0.64) < 1e-14


def test_ia_zero_target_symmetry():
    p = LqgProblem(0.8, 2.0, 0.0, 0.3)
    sol = solve_lqg(p)
    ia = ia_baseline(p, sol, 0.0)
    ts = np.linspace(0.0, 1.0, 41)
    assert np.max(np.abs(ia.s(ts))) < 1e-12
    assert np.max(np.abs(ia.m(ts))) < 1e-12


def test_ia_independent_of_centre_when_q_zero():
    p = LqgProblem(1.2, 0.0, 1.0, 0.4)
    sol = solve_lqg(p)
    ts = np.linspace(0.0, 1.0, 41)
    s_a = ia_baseline(p, sol, 0.0).s(ts)
    s_b = ia_baseline(p, sol, 2.0).s(ts)
    assert np.max(np.abs(s_a - s_b)) < 1e-12


def test_ia_matches_shooting_oracle(relerr):
    sol = solve_lqg(BENCH)
    ia = ia_baseline(BENCH, sol, 0.0)
    *_, S_half = oracles.lqg_shoot(BENCH.kappa, BENCH.q, BENCH.sigma_tar)
    g2, s_o, m_o, _ = oracles.lqg_linear_shoot(BENCH.kappa, BENCH.q, BENCH.m_tar, S_half, m_bar=0.0)
    assert relerr(ia.s(g2), s_o) < 1e-5
    assert relerr(ia.m(g2[1:]), m_o[1:], floor=1e-6) < 1e-5
    assert abs(ia.m(1.0) - BENCH.m_tar) < 1e-8
    # nonzero centre
    ia_m = ia_baseline(BENCH, sol, BENCH.m_tar)
    g3, s_om, m_om, _ = oracles.lqg_linear_shoot(BENCH.kappa, BENCH.q, BENCH.m_tar, S_half, m_bar=BENCH.m_tar)
    assert relerr(ia_m.s(g3), s_om, floor=1e-6) < 1e-5
    assert abs(ia_m.m(1.0) - BENCH.m_tar) < 1e-8


def test_metrics_zero_when_uncontrolled():
    p = LqgProblem(1.0, 0.0, 0.0, np.sqrt((1 - np.exp(-2.0)) / 2.0))
    sol = solve_lqg(p)
    met = lqg_metrics(sol)
    assert np.max(met.power) < 1e-20
    assert met.total < 1e-20


def test_energy_ordering_against_constant_centres():
    # mean-coupled energy never exceeds any constant-centre baseline on [0, m_tar]
    sol = solve_lqg(BENCH)
    e_mf = lqg_metrics(sol).total
    for m_bar in np.linspace(0.0, BENCH.m_tar, 7):
        ia = ia_baseline(BENCH, sol, float(m_bar))
        e_ia = lqg_metrics(sol, s_of_t=ia.s, m_of_t=ia.m).total
        assert e_mf <= e_ia + 1e-9


def test_energy_matches_monte_carlo():
    sol = solve_lqg(BENCH)
    met = lqg_metrics(sol)
    mc, se = oracles.simulate_affine_bridge(BENCH.kappa, sol.S, sol.s, n_particles=8000, seed=99)
    assert abs(mc - met.total) < 3 * se + 0.01 * met.total


@pytest.mark.parametrize("problem", [BENCH, LqgProblem(0.0, 0.5, -1.0, 0.7)], ids=["default", "kappa0"])
def test_cumulative_simpson_matches_scipy(problem):
    # the package's own rule against scipy on the three integrands it takes:
    # g^2 and g^2 J of a constant-centre baseline, and the power P
    from scipy.integrate import cumulative_simpson

    from mfbridge.lqg import _cumulative_simpson

    sol = solve_lqg(problem)
    ia = ia_baseline(problem, sol, 0.5 * problem.m_tar)
    grid = np.linspace(0.0, 1.0, DENSE_GRID_POINTS)
    g2 = ia.g(grid) ** 2
    for y in (g2, g2 * ia.J(grid), lqg_metrics(sol).power, lqg_metrics(sol, s_of_t=ia.s, m_of_t=ia.m).power):
        want = cumulative_simpson(y, x=grid, initial=0.0)
        got = _cumulative_simpson(y, grid[1] - grid[0])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_variance_block_shared_between_coupled_and_constant_centre():
    # S and Sigma come from the same solution object for both paths by
    # construction; assert the baselines do not mutate them
    sol = solve_lqg(BENCH)
    ts = np.linspace(0.0, 1.0, 17)
    S_before, Sig_before = sol.S(ts).copy(), sol.Sigma(ts).copy()
    ia_baseline(BENCH, sol, 0.7)
    assert np.array_equal(sol.S(ts), S_before)
    assert np.array_equal(sol.Sigma(ts), Sig_before)
