"""Piecewise-constant stiffness schedules on the unit bridge interval.

The whole coefficient machinery downstream assumes a protocol that is
constant on each interval [t_i, t_{i+1}) of a grid 0 = t_0 < ... < t_M = 1.
Intervals are left-closed / right-open; t = 1 belongs to the last interval
because the terminal coefficients diverge there and are always handled by
terminal-interval closed forms, never by lookup at exactly t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PwcSchedule", "geometric_schedule", "interval_of"]


@dataclass(frozen=True)
class PwcSchedule:
    """Time grid plus one stiffness value per interval.

    ``betas[i]`` must be non-negative.  A zero (or any beta at or below
    ``greens.BETA_ZERO``) is the interaction-free bridge limit on that
    interval, where every kernel coefficient takes its beta -> 0 closed form.
    """

    breakpoints: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        be = np.asarray(self.betas, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "betas", be)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("breakpoints must be a 1-d vector with at least 2 entries")
        if abs(bp[0]) > 0.0 or abs(bp[-1] - 1.0) > 1e-14:
            raise ValueError(f"breakpoints must run from 0 to 1, got [{bp[0]}, {bp[-1]}]")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if be.shape != (bp.size - 1,):
            raise ValueError(f"need one beta per interval: {be.shape} vs {bp.size - 1} intervals")
        if np.any(be < 0):
            raise ValueError("negative beta")

    @property
    def n_intervals(self) -> int:
        return self.betas.size

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.breakpoints[:-1] + self.breakpoints[1:])


def geometric_schedule(beta0: float, gamma: float, n_intervals: int) -> PwcSchedule:
    """Uniform grid with betas[j] = beta0 * gamma**j, j = 0..M-1."""
    if beta0 <= 0:
        raise ValueError(f"beta0 must be positive, got {beta0}")
    if not (0 < gamma <= 1):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if n_intervals < 1:
        raise ValueError(f"need at least one interval, got {n_intervals}")
    breakpoints = np.linspace(0.0, 1.0, n_intervals + 1)
    betas = beta0 * gamma ** np.arange(n_intervals)
    return PwcSchedule(breakpoints, betas)


def interval_of(schedule: PwcSchedule, t):
    """Index i with t in [t_i, t_{i+1}); t = 1 maps to the last interval."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError("t outside [0, 1]")
    idx = np.searchsorted(schedule.breakpoints, t_arr, side="right") - 1
    idx = np.clip(idx, 0, schedule.n_intervals - 1)
    return int(idx) if np.isscalar(t) or t_arr.ndim == 0 else idx
