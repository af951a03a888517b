"""One-position views of a ``ScoreContext``, for the tests.

The package evaluates the drift and the posterior on whole batches at rows
of a coefficient table; these helpers take one time and one position, which
is how the tests compare against the oracles and finite differences.
"""

from __future__ import annotations

import numpy as np

from mfbridge.score import ScoreContext, _rows, _to_basis


def _from_basis(U, A):
    return A if U is None else A @ U.T


def probe(ctx: ScoreContext, t: float, x) -> tuple[float, np.ndarray]:
    """(K_t, probe mean) at one position."""
    co = ctx.coeffs(t)
    X = _rows(x)
    w, _ = ctx._affine_inputs(co, X, None, None)
    return co.K, w[0]


def posterior(ctx: ScoreContext, t: float, x):
    """(responsibilities, per-component posterior means, mixture estimate)."""
    co = ctx.coeffs(t)
    X = _rows(x)
    w, _ = ctx._affine_inputs(co, X, None, None)
    p, y_hat = ctx._posterior(co, w)
    pi = np.empty(ctx.target.n_components)
    m_bar = np.empty((ctx.target.n_components, ctx.target.dim))
    for U, sl in ctx.bases:
        pi[ctx._order[sl]] = p[sl, 0]
        m_bar[ctx._order[sl]] = _from_basis(U, co.shrink[sl] + co.gain[sl] * _to_basis(U, w[0]))
    return pi, m_bar, y_hat[0]


def score_at(ctx: ScoreContext, t: float, x) -> np.ndarray:
    """Optimal drift at one position (zero-start problem)."""
    u = ctx.score_batch(ctx.coeffs(t), x)
    return u[0]


def shifted_score(ctx: ScoreContext, t: float, x, z) -> np.ndarray:
    """Optimal drift for a trajectory started at z instead of the origin."""
    u = ctx.score_batch(ctx.coeffs(t), x, z)
    return u[0]
