"""Closed-form scalar mean-reverting bridge and its constant-centre baselines.

Model: dx = (-kappa x + u) dt + dW on [0, 1], quadratic interaction of
stiffness q, delta start at 0, Gaussian target N(m_tar, sigma_tar^2).
The optimal control is affine, u = -S_t x - s_t, with

    S' = S^2 + 2 kappa S - q,           Sigma' = -2 (kappa + S) Sigma + 1,
    s' = q*centre + (kappa + S) s,      m'     = -(kappa + S) m - s,

where the centre is the running mean m_t itself (mean-coupled case) or a
fixed exogenous value m_bar (independent-agent baselines).  With
Delta = sqrt(kappa^2 + q), r0 = exp(-2 Delta) and E_t = exp(-2 Delta (1-t)),
the variance block has the one-parameter family

    S_t = -kappa + Delta (1 + rho E_t) / (1 - rho E_t),
    Sigma_t = (1 - rho E_t)(1 - r0/E_t) / (2 Delta (1 - rho r0)),

and matching Sigma_1 = sigma_tar^2 fixes rho = (A - 1)/(A r0 - 1) with
A = 2 Delta sigma_tar^2 / (1 - r0).  Delta == 0 degenerates to the Brownian
bridge; those limit branches are spelled out inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTargetError, NumericalError

__all__ = ["LqgProblem", "LqgSolution", "IaTrajectory", "LqgMetrics", "solve_lqg", "ia_baseline", "lqg_metrics",
           "sinh_ratio"]

DELTA_DEGENERATE = 1e-8
KAPPA_DEGENERATE = 1e-8  # below it the mean block takes its kappa -> 0 forms
DENSE_GRID_POINTS = 4001  # cumulative-Simpson grid for all energy quadratures
DENSE_GRID_STEP = 1.0 / (DENSE_GRID_POINTS - 1)


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral from 0 of samples y on a uniform grid of step h (at least 3 samples).

    Step i integrates the quadratic through samples i, i+1, i+2 on even i,
    and through i-1, i, i+1 on odd i and on the last step.
    """
    ahead = h / 12.0 * (5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:])    # step i, quadratic through i..i+2
    behind = h / 12.0 * (-y[:-2] + 8.0 * y[1:-1] + 5.0 * y[2:])  # step i+1, same quadratic
    steps = np.empty(y.size - 1)
    steps[:-1:2] = ahead[::2]
    steps[1::2] = behind[::2]
    steps[-1] = behind[-1]
    return np.concatenate([[0.0], np.cumsum(steps)])


def sinh_ratio(kappa: float, t):
    """sinh(kappa*t)/sinh(kappa), stably via exp-scaling; -> t as kappa -> 0."""
    t = np.asarray(t, dtype=float)
    if kappa < KAPPA_DEGENERATE:
        return t.copy()
    # e^{kappa(t-1)} (1 - e^{-2 kappa t}) / (1 - e^{-2 kappa}); no overflow for large kappa
    return np.exp(kappa * (t - 1.0)) * (-np.expm1(-2.0 * kappa * t)) / (-np.expm1(-2.0 * kappa))


@dataclass(frozen=True)
class LqgProblem:
    kappa: float
    q: float
    m_tar: float
    sigma_tar: float

    def __post_init__(self):
        if self.kappa < 0 or self.q < 0:
            raise ValueError("kappa and q must be nonnegative")
        if self.sigma_tar <= 0:
            raise ValueError("sigma_tar must be positive")


@dataclass
class LqgSolution:
    """Closed-form evaluators for the bridge; all accept scalar or array t."""

    problem: LqgProblem
    delta: float
    rho: float
    S1: float

    def _et(self, t):
        return np.exp(-2.0 * self.delta * (1.0 - np.asarray(t, dtype=float)))

    def S(self, t):
        p = self.problem
        t = np.asarray(t, dtype=float)
        if self.delta < DELTA_DEGENERATE:
            c = 1.0 - p.sigma_tar**2
            return c / (1.0 - t * c)
        et = self._et(t)
        return -p.kappa + self.delta * (1.0 + self.rho * et) / (1.0 - self.rho * et)

    def Sigma(self, t):
        p = self.problem
        t = np.asarray(t, dtype=float)
        if self.delta < DELTA_DEGENERATE:
            return t * t * p.sigma_tar**2 + t * (1.0 - t)
        et = self._et(t)
        r0 = math.exp(-2.0 * self.delta)
        return (1.0 - self.rho * et) * (1.0 - r0 / et) / (2.0 * self.delta * (1.0 - self.rho * r0))

    def m(self, t):
        return self.problem.m_tar * sinh_ratio(self.problem.kappa, t)

    def s(self, t):
        p = self.problem
        t = np.asarray(t, dtype=float)
        if p.kappa < KAPPA_DEGENERATE:
            return -p.m_tar * (1.0 + self.S(t) * t)
        sh = math.sinh(p.kappa)
        return -p.m_tar * (p.kappa * np.cosh(p.kappa * t) + (p.kappa + self.S(t)) * np.sinh(p.kappa * t)) / sh


def solve_lqg(problem: LqgProblem) -> LqgSolution:
    """Variance-block shooting in closed form plus the explicit mean block."""
    kappa, q, sig = problem.kappa, problem.q, problem.sigma_tar
    delta = math.sqrt(kappa * kappa + q)
    if delta < DELTA_DEGENERATE:
        # Brownian-bridge limit; rho is not defined (the limit is rho -> 1).
        S1 = (1.0 - sig**2) / (sig**2)
        return LqgSolution(problem, delta, math.nan, S1)
    r0 = math.exp(-2.0 * delta)
    A = 2.0 * delta * sig**2 / (1.0 - r0)
    rho = (A - 1.0) / (A * r0 - 1.0)
    if not (-1.0 < rho < 1.0):
        raise InfeasibleTargetError(
            f"target variance {sig**2:.6g} outside the admissible branch for "
            f"kappa={kappa}, q={q}: A={A:.6g}, r0={r0:.6g}, rho={rho:.6g} not in (-1, 1)"
        )
    S1 = -kappa + delta * (1.0 + rho) / (1.0 - rho)
    return LqgSolution(problem, delta, rho, S1)


@dataclass
class IaTrajectory:
    """Constant-centre linear coefficient s_t and the mean it induces.

    Shares S_t and Sigma_t with the mean-coupled solution; only the linear
    block differs.  The integrating factor is g(t) = exp(int_0^t (kappa+S)),
    and J(t) = int_0^t du/g(u), so s_t = g(t) (s0 + q m_bar J(t)).
    """

    solution: LqgSolution
    m_bar: float
    s0: float
    _grid: np.ndarray
    _m_grid: np.ndarray

    def g(self, t):
        sol, p = self.solution, self.solution.problem
        t = np.asarray(t, dtype=float)
        if sol.delta < DELTA_DEGENERATE:
            c = 1.0 - p.sigma_tar**2
            return 1.0 / (1.0 - t * c)
        r0 = math.exp(-2.0 * sol.delta)
        return np.exp(sol.delta * t) * (1.0 - sol.rho * r0) / (1.0 - sol.rho * sol._et(t))

    def J(self, t):
        sol = self.solution
        t = np.asarray(t, dtype=float)
        if sol.delta < DELTA_DEGENERATE:
            # q <= delta^2 is negligible here, the source q*m_bar*J never matters
            return np.zeros_like(t)
        d, rho = sol.delta, sol.rho
        r0 = math.exp(-2.0 * d)
        return (-np.expm1(-d * t) - rho * r0 * np.expm1(d * t)) / (d * (1.0 - rho * r0))

    def s(self, t):
        p = self.solution.problem
        return self.g(t) * (self.s0 + p.q * self.m_bar * self.J(t))

    def m(self, t):
        return np.interp(np.asarray(t, dtype=float), self._grid, self._m_grid)


def ia_baseline(problem: LqgProblem, solution: LqgSolution, m_bar: float) -> IaTrajectory:
    """Shoot the constant-centre linear coefficient so the mean hits m_tar.

    s0 = -(m_tar + q m_bar B) / A with A = int g^2 / g(1) and
    B = int g^2 J / g(1); both quadratures share one Simpson grid with the
    mean reconstruction m(t) = -(s0 int_0^t g^2 + q m_bar int_0^t g^2 J)/g(t),
    which makes m(1) = m_tar an identity of the discretization.
    """
    ia = IaTrajectory(solution, m_bar, 0.0, np.zeros(1), np.zeros(1))
    grid = np.linspace(0.0, 1.0, DENSE_GRID_POINTS)
    g = ia.g(grid)
    if not np.all(np.isfinite(g)):
        raise NumericalError("non-finite integrating factor in constant-centre quadrature")
    g2 = g * g
    G2 = _cumulative_simpson(g2, DENSE_GRID_STEP)
    qsrc = problem.q * m_bar
    if qsrc != 0.0:
        G2J = _cumulative_simpson(g2 * ia.J(grid), DENSE_GRID_STEP)
    else:
        G2J = np.zeros_like(grid)
    A_tilde = G2[-1] / g[-1]
    B_tilde = G2J[-1] / g[-1]
    s0 = -(problem.m_tar + qsrc * B_tilde) / A_tilde
    m_grid = -(s0 * G2 + qsrc * G2J) / g
    return IaTrajectory(solution, m_bar, s0, grid, m_grid)


@dataclass
class LqgMetrics:
    grid: np.ndarray
    power: np.ndarray      # P(t) = S^2 Sigma + (S m + s)^2
    energy: np.ndarray     # E(t) = int_0^t P

    @property
    def total(self) -> float:
        return float(self.energy[-1])


def lqg_metrics(solution: LqgSolution, s_of_t=None, m_of_t=None) -> LqgMetrics:
    """Instantaneous power and cumulative energy on the dense grid.

    Defaults to the mean-coupled trajectories; pass the constant-centre
    s/m evaluators to score a baseline against the shared variance block.
    """
    grid = np.linspace(0.0, 1.0, DENSE_GRID_POINTS)
    S = solution.S(grid)
    Sigma = solution.Sigma(grid)
    m = solution.m(grid) if m_of_t is None else m_of_t(grid)
    s = solution.s(grid) if s_of_t is None else s_of_t(grid)
    P = S * S * Sigma + (S * m + s) ** 2
    if not np.all(np.isfinite(P)):
        raise NumericalError("non-finite power trace")
    E = _cumulative_simpson(P, DENSE_GRID_STEP)
    return LqgMetrics(grid, P, E)
