"""Guidance: the centre of the quadratic steering potential, one d-vector per schedule interval.

A mode's guidance is an (M, d) array of per-interval values.  The linear
interpolant between endpoint means is the mean-field guidance, sampled at
the interval midpoints for the coefficient tables.

Self-consistency asks the guidance to equal the ensemble mean it steers.
Given the endpoints, each marginal component's weight is fixed and its mean
is affine in the guidance, so the map nu -> f(nu), the exact ensemble means
at the interval midpoints, is affine: f(nu) = f(0) + J nu.
``self_consistent_guidance`` builds f(0) and the M d columns of J from the
closed-form marginals, with no particle run, and solves (I - J) nu* = f(0).
The paper's theorem makes nu* the linear interpolant in the limit of fine
intervals; on a coarse schedule the two differ at the midpoints.
"""

from __future__ import annotations

import numpy as np

from .greens import build_tables
from .schedule import PwcSchedule
from .score import GaussianMixture, ScoreContext, _marginal_components

__all__ = ["linear_guidance", "midpoint_means", "self_consistent_guidance"]


def linear_guidance(m_in, m_tar, t) -> np.ndarray:
    """The exact interpolant (1-t) m_in + t m_tar between endpoint means, (n, d) at the times t."""
    m_in = np.atleast_1d(np.asarray(m_in, dtype=float))
    m_tar = np.atleast_1d(np.asarray(m_tar, dtype=float))
    if m_in.shape != m_tar.shape:
        raise ValueError(f"endpoint mean shapes differ: {m_in.shape} vs {m_tar.shape}")
    if not (np.all(np.isfinite(m_in)) and np.all(np.isfinite(m_tar))):
        raise ValueError("non-finite endpoint mean")
    t = np.asarray(t, dtype=float)
    return np.outer(1.0 - t, m_in) + np.outer(t, m_tar)


def midpoint_means(schedule: PwcSchedule, nu, target: GaussianMixture,
                   initial: GaussianMixture | None = None) -> np.ndarray:
    """f(nu): the exact ensemble mean (M, d) at each interval midpoint under the per-interval guidance nu (M, d)."""
    ctx = ScoreContext(build_tables(schedule, nu), target, initial)
    return np.array([np.exp(log_ws) @ means
                     for log_ws, means, _ in (_marginal_components(ctx, t) for t in schedule.midpoints())])


def self_consistent_guidance(schedule: PwcSchedule, target: GaussianMixture,
                             initial: GaussianMixture | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The guidance nu* (M, d) with f(nu*) = nu*, and the Jacobian J (M d, M d) of the affine map f.

    f(0) and one column of J per unit guidance vector take M d + 1 table
    builds.  J acts on the guidance flattened interval by interval; its
    spectral radius is the contraction factor of the Picard iteration
    nu <- f(nu).  Raises ``numpy.linalg.LinAlgError`` if I - J is singular.
    """
    M, d = schedule.n_intervals, target.dim
    f0 = midpoint_means(schedule, np.zeros((M, d)), target, initial).ravel()
    J = np.column_stack([midpoint_means(schedule, e.reshape(M, d), target, initial).ravel() - f0
                         for e in np.eye(M * d)])
    return np.linalg.solve(np.eye(M * d) - J, f0).reshape(M, d), J
