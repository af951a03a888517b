"""The expected energy of ``run_bridge``'s Euler chain with no sampling noise.

For a one-Gaussian target and a delta start the drift of every mode but
``cl`` is affine in x, u_j(x) = S_j x + s_j (d = 1), so the chain
x <- x + u_j(x) dt + sqrt(dt) xi stays Gaussian.  Its mean and variance
follow m <- m + (S_j m + s_j) dt and v <- (1 + S_j dt)^2 v + dt from
m = v = 0, and step j adds E|u_j|^2 dt = (S_j^2 v + (S_j m + s_j)^2) dt
to the energy.  S_j and s_j are read off the production ``score_batch``
at x = 0 and x = 1 on the run's own coefficient rows, so the result is
what ``run_bridge`` estimates on any step grid, time-step bias included.
"""

from __future__ import annotations

import numpy as np

from mfbridge.score import WORK_SLOTS, ScoreContext
from mfbridge.simulate import SimConfig, tables_for_modes


def euler_moment_energy(config: SimConfig, mode: str) -> float:
    """E[sum_j |u_j|^2 dt] of the Euler chain that ``run_bridge(config, [mode])`` samples."""
    if config.dim != 1 or config.target.n_components != 1 or config.initial is not None or mode == "cl":
        raise ValueError("needs a d = 1 one-Gaussian target, a delta start and an affine mode")
    ctx = ScoreContext(tables_for_modes(config, [mode]), config.target, None)
    n = config.n_steps
    dt = 1.0 / n
    table = ctx.coeff_table(np.arange(n) * dt)
    x = np.array([[0.0], [1.0]])
    work, post = np.empty((WORK_SLOTS, 2, 1)), np.empty((2, 1, 2))
    m = v = energy = 0.0
    for j in range(n):
        u0, u1 = ctx.score_batch(table.row(j), x, None, None, work, post)[:, 0]
        S, s = u1 - u0, u0
        energy += (S * S * v + (S * m + s) ** 2) * dt
        m, v = m + (S * m + s) * dt, (1.0 + S * dt) ** 2 * v + dt
    return energy
