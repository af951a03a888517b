"""Plain Picard iteration of a self-consistency map, for the tests.

The package solves the midpoint map exactly (``guidance.self_consistent_guidance``);
the tests iterate it, or a particle estimate of it, to check that solve and
the paper's fixed-point claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mfbridge.schedule import PwcSchedule


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
    ensemble means at the interval midpoints under that guidance.  For a
    deterministic contraction the caller should evaluate a particle map
    with common random numbers across iterations.  Non-convergence returns
    the last iterate flagged converged=False.
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
