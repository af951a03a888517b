"""Guidance: the centre of the quadratic steering potential, one d-vector per schedule interval.

A mode's guidance is an (M, d) array of per-interval values.  The linear
interpolant between endpoint means is the mean-field guidance, sampled at
the interval midpoints for the coefficient tables; a Picard fixed-point
iteration on per-interval values is retained for validation only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import PwcSchedule

__all__ = ["linear_guidance", "fixed_point_guidance", "FixedPointResult"]


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


@dataclass
class FixedPointResult:
    values: np.ndarray  # (M, d) per-interval guidance of the last iterate
    max_updates: list
    converged: bool
    n_iterations: int


def fixed_point_guidance(
    schedule: PwcSchedule,
    mean_map,
    nu0: np.ndarray,
    tol: float = 2e-4,
    max_iter: int = 15,
) -> FixedPointResult:
    """Plain Picard iteration of the self-consistency map on PWC values.

    ``mean_map`` takes per-interval guidance values (M, d) and returns the
    empirical ensemble means at the interval midpoints under that guidance.
    For a deterministic contraction the caller should evaluate the map with
    common random numbers across iterations.  Non-convergence returns the
    last iterate flagged converged=False.
    """
    nu = np.atleast_2d(np.asarray(nu0, dtype=float)).copy()
    if nu.shape[0] != schedule.n_intervals:
        raise ValueError(f"need one value per interval: {nu.shape[0]} vs {schedule.n_intervals}")
    updates = []
    for k in range(max_iter):
        nu_next = np.atleast_2d(mean_map(nu))
        if nu_next.shape != nu.shape:
            raise ValueError(f"mean_map changed shape: {nu_next.shape} vs {nu.shape}")
        delta = float(np.max(np.linalg.norm(nu_next - nu, axis=1)))
        updates.append(delta)
        nu = nu_next
        if delta < tol:
            return FixedPointResult(nu, updates, True, k + 1)
    return FixedPointResult(nu, updates, False, max_iter)
