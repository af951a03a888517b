"""Guidance: the centre of the quadratic steering potential, one d-vector per schedule interval.

A mode's guidance is an (M, d) array of per-interval values.  The linear
interpolant between endpoint means is the mean-field guidance, sampled at
the interval midpoints for the coefficient tables.

Self-consistency asks the guidance to equal the ensemble mean it steers.
Given the endpoints, each marginal component's weight is fixed and its mean
is affine in the start draw, the terminal point and the guidance, with
scalar coefficients, so the ensemble mean at time t depends on the mixtures
only through their means:

    f(nu)(t) = (theta_plus(t; nu) + theta_x(t; nu) + (a_plus - lambda_plus) m_in + b m_tar) / (a_plus + a).

The map nu -> f(nu) at the interval midpoints is affine, f(nu) = f(0) + G nu,
with one M x M matrix G shared by the d zones.  ``self_consistent_guidance``
builds f(0) and G, with no particle run, and solves (I - G) nu* = f(0).  The
paper's theorem makes nu* the linear interpolant in the limit of fine
intervals; on a coarse schedule the two differ at the midpoints.
"""

from __future__ import annotations

import numpy as np

from .greens import build_tables
from .schedule import PwcSchedule

__all__ = ["linear_guidance", "midpoint_mean_map", "self_consistent_guidance"]


def _endpoint_means(m_in, m_tar) -> tuple[np.ndarray, np.ndarray]:
    """The endpoint means as finite (d,) arrays of one shape."""
    m_in = np.atleast_1d(np.asarray(m_in, dtype=float))
    m_tar = np.atleast_1d(np.asarray(m_tar, dtype=float))
    if m_in.shape != m_tar.shape:
        raise ValueError(f"endpoint mean shapes differ: {m_in.shape} vs {m_tar.shape}")
    if not (np.all(np.isfinite(m_in)) and np.all(np.isfinite(m_tar))):
        raise ValueError("non-finite endpoint mean")
    return m_in, m_tar


def linear_guidance(m_in, m_tar, t) -> np.ndarray:
    """The exact interpolant (1-t) m_in + t m_tar between endpoint means, (n, d) at the times t."""
    m_in, m_tar = _endpoint_means(m_in, m_tar)
    t = np.asarray(t, dtype=float)
    return np.outer(1.0 - t, m_in) + np.outer(t, m_tar)


def midpoint_mean_map(schedule: PwcSchedule, nu, m_in, m_tar) -> np.ndarray:
    """f(nu): the exact ensemble mean at each interval midpoint under the per-interval guidance nu.

    nu is (M, d), or (M, n_modes, d) for several guidances at once; the
    result has its shape.  m_in is the start's mean (zero for a delta start).
    """
    co = build_tables(schedule, nu).sample(schedule.midpoints())
    col = lambda v: v.reshape(v.shape + (1,) * (co.theta_plus.ndim - 1))
    return (co.theta_plus + co.theta_x + col(co.a_plus - co.lam_plus) * m_in + col(co.b) * m_tar) \
        / col(co.a_plus + co.a)


def self_consistent_guidance(schedule: PwcSchedule, m_in, m_tar) -> tuple[np.ndarray, np.ndarray]:
    """The guidance nu* (M, d) with f(nu*) = nu*, and the Jacobian J = G (x) I_d (M d, M d) of the affine map f.

    f(0) takes one table build and G another, with the M unit guidances of
    one zone stacked as modes; the d zones share G.  J acts on the guidance
    flattened interval by interval; its spectral radius, that of G, is the
    contraction factor of the Picard iteration nu <- f(nu).  Use m_in = 0
    for a delta start.  Raises ``numpy.linalg.LinAlgError`` if I - G is
    singular.
    """
    m_in, m_tar = _endpoint_means(m_in, m_tar)
    M, d = schedule.n_intervals, m_tar.size
    f0 = midpoint_mean_map(schedule, np.zeros((M, d)), m_in, m_tar)
    G = midpoint_mean_map(schedule, np.eye(M)[:, :, None], 0.0, 0.0)[:, :, 0]
    return np.linalg.solve(np.eye(M) - G, f0), np.kron(G, np.eye(d))
