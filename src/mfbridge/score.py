"""Closed-form Gaussian-mixture score, posterior, and time marginals.

The optimal drift for a mixture target under a piecewise-constant protocol is

    u(t, x) = b(t) * (yhat(t, x) - affine(t, x)),

where ``affine`` collects the kernel's own affine-in-x part and ``yhat`` is
the posterior mixture estimate of the terminal point given the probe

    w(t, x) = (b(t) x + theta_y(t) - theta_plus(1)) / K(t),
    K(t)    = c(t) - a_plus(1)        (probe precision, positive inside (0,1)),

i.e. a pseudo-observation of the target with noise covariance I/K.  Every
coefficient above depends on t alone.  ``ScoreContext.coeff_table`` clips an
array of times (a simulation's step grid), evaluates them all with the one
table evaluator ``CoeffTables.sample`` into a ``KernelCoeffs`` and checks
K > 0 there; ``coeffs(t)`` is its one-row case.  Posterior
responsibilities are accumulated in the log domain and normalised after a
max shift (K blows up near t = 1 and naive likelihoods underflow).
Per-component covariance work is done once in the eigenbasis of each
component, which covers diagonal, spatial-AR(1), and general SPD covariances
with the same O(d^2) per-particle cost.

Non-delta starts reduce to the zero-start problem by a per-particle shift z;
folding the shift back into original coordinates leaves the pipeline intact
and only moves the two affine inputs:

    w   gains  (lambda_y(t) + lambda_plus(1) + K - b) z / K,
    affine gains -(a + lambda_x(t) - b) z / b.

The closed-loop variant re-centres the frozen kernel slots at an externally
supplied guidance value (the batch empirical mean); with delta = nu_hat -
nu_pwc the two affine inputs move by (1 - b/K) delta and (1 - a/b) delta
respectively, and vanish when the override equals the tabled guidance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ProbeError
from .greens import CoeffTables, KernelCoeffs

__all__ = ["GaussianMixture", "KernelCoeffs", "ScoreContext", "ar1_covariance",
           "probe", "posterior", "score_at", "shifted_score", "marginal_density"]

LOG_2PI = float(np.log(2.0 * np.pi))


def ar1_covariance(sigma: float, rho: float, d: int) -> np.ndarray:
    """Spatial AR(1): cov[i, j] = sigma^2 rho^|i-j| over zone indices."""
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"AR(1) correlation must lie in [0, 1), got {rho}")
    idx = np.arange(d)
    return sigma**2 * rho ** np.abs(idx[:, None] - idx[None, :])


def _zone_means(means, d: int) -> np.ndarray:
    """(K, d) means; a 1-d ``means`` holds one scalar per component, repeated over d zones."""
    means = np.asarray(means, dtype=float)
    return np.repeat(means[:, None], d, axis=1) if means.ndim == 1 else means


def _sigmas(sigmas) -> np.ndarray:
    """Per-component scales; the squared scale alone would hide a sign error."""
    sigmas = np.asarray(sigmas, dtype=float).ravel()
    if not np.all(sigmas > 0):
        raise ValueError("non-PD covariance: sigma <= 0")
    return sigmas


@dataclass
class GaussianMixture:
    """Weighted Gaussian components in d dimensions.

    ``means`` is (K, d); a 1-d ``means`` is one scalar per component (d = 1).
    """

    weights: np.ndarray      # (K,)
    means: np.ndarray        # (K, d)
    covariances: np.ndarray  # (K, d, d)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        m = np.asarray(self.means, dtype=float)
        if m.ndim == 1:
            m = m[:, None]
        c = np.asarray(self.covariances, dtype=float)
        if c.ndim == 2:
            c = c[None, :, :] if w.size == 1 else np.array([np.diag(np.atleast_1d(r)) for r in c])
        self.weights, self.means, self.covariances = w, m, c
        if w.size < 1:
            raise ValueError("mixture needs at least one component")
        if m.ndim != 2 or m.shape[0] != w.size:
            raise ValueError(f"means shape {m.shape} is not (K, d) for K={w.size} weights")
        if m.shape[1] < 1:
            raise ValueError("mixture needs dimension d >= 1")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite component mean")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum {w.sum():.12g} != 1")
        if np.any(w < 0):
            raise ValueError("negative mixture weight")
        if c.shape != (w.size, m.shape[1], m.shape[1]):
            raise ValueError(f"covariance shape {c.shape} inconsistent with {w.size} components in d={m.shape[1]}")
        for k, ck in enumerate(c):
            if not np.allclose(ck, ck.T, atol=1e-12):
                raise ValueError(f"component {k}: covariance not symmetric")
            try:
                np.linalg.cholesky(ck)
            except np.linalg.LinAlgError:
                raise ValueError(f"component {k}: non-PD covariance") from None

    @classmethod
    def isotropic(cls, weights, means, sigmas, d: int | None = None) -> "GaussianMixture":
        """Scalar per-component sigmas broadcast to sigma^2 I.

        A 1-d ``means`` gives one scalar per component, repeated over d zones
        (d = 1 if omitted); a 2-d ``means`` is (K, d) and sets d itself.
        """
        means = _zone_means(means, 1 if d is None else d)
        covs = np.array([s**2 * np.eye(means.shape[-1]) for s in _sigmas(sigmas)])
        return cls(np.asarray(weights, dtype=float), means, covs)

    @classmethod
    def spatial_ar1(cls, weights, means, sigmas, rho: float, d: int) -> "GaussianMixture":
        """AR(1) zone covariances sigma_k^2 rho^|i-j|; ``means`` as in ``isotropic``."""
        covs = np.array([ar1_covariance(s, rho, d) for s in _sigmas(sigmas)])
        return cls(np.asarray(weights, dtype=float), _zone_means(means, d), covs)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def logpdf(self, x) -> np.ndarray:
        """Batch log density, x of shape (n, d) or (d,)."""
        X = np.atleast_2d(np.asarray(x, dtype=float))
        parts = np.empty((X.shape[0], self.n_components))
        for k in range(self.n_components):
            L = np.linalg.cholesky(self.covariances[k])
            sol = np.linalg.solve(L, (X - self.means[k]).T).T
            parts[:, k] = (
                np.log(self.weights[k])
                - 0.5 * np.sum(sol**2, axis=1)
                - np.sum(np.log(np.diag(L)))
                - 0.5 * self.dim * LOG_2PI
            )
        out = logsumexp(parts, axis=1)
        return float(out[0]) if np.asarray(x).ndim == 1 else out


class ScoreContext:
    """Immutable bundle of tables + target mixture with per-component eigenbases."""

    def __init__(self, tables: CoeffTables, target: GaussianMixture, initial: GaussianMixture | None = None):
        if target.dim != tables.dim:
            raise ValueError(f"target dimension {target.dim} != tables dimension {tables.dim}")
        if initial is not None and initial.dim != target.dim:
            raise ValueError("initial mixture dimension mismatch")
        self.tables = tables
        self.target = target
        self.initial = initial
        self.a_plus_end = tables.a_plus_end
        self.theta_plus_end = np.atleast_1d(tables.theta_plus_end)
        self.lambda_plus_end = tables.lambda_plus_end
        evals, evecs = [], []
        for ck in target.covariances:
            lam, U = np.linalg.eigh(ck)
            if np.min(lam) <= 0:
                raise ValueError("non-PD target component after eigendecomposition")
            evals.append(lam)
            evecs.append(U)
        self._evals = np.array(evals)            # (K, d)
        self._evecs = np.array(evecs)            # (K, d, d)
        self._means_eig = np.einsum("kij,kj->ki", np.swapaxes(self._evecs, 1, 2), target.means)

    # ------------------------------------------------------------------
    def coeff_table(self, ts) -> KernelCoeffs:
        """Every time-only coefficient at the times ``ts``, clipped to ``t_clip``.

        Raises ProbeError at the first time where the probe precision K is
        not positive, so a bad schedule fails before any particle moves.
        """
        lo, hi = self.tables.t_clip
        table = self.tables.sample(np.clip(ts, lo, hi))
        bad = ~(np.isfinite(table.K) & (table.K > 0))
        if np.any(bad):
            j = int(np.argmax(bad))
            raise ProbeError(f"probe precision {table.K[j]} not positive at t={table.t[j]}; "
                             "schedule/anchoring inconsistency")
        return table

    def coeffs(self, t: float) -> KernelCoeffs:
        """Coefficients at one time: the one-row case of ``coeff_table``."""
        return self.coeff_table(t).row(0)

    # ------------------------------------------------------------------
    def _affine_inputs(self, co: KernelCoeffs, X: np.ndarray, Z: np.ndarray | None, nu_hat: np.ndarray | None):
        """Probe mean w and kernel affine part, both in original coordinates."""
        w = (co.b * X + (co.theta_y - self.theta_plus_end)) / co.K
        ups = (co.a * X - co.theta_x) / co.b
        if Z is not None:
            # shifted problem has guidance nu - z, so every linear coefficient
            # moves by -lambda z (uniform sign under this lambda convention)
            w = w + ((co.K - co.b - co.lam_y + self.lambda_plus_end) / co.K) * Z
            ups = ups - ((co.a - co.lam_x - co.b) / co.b) * Z
        if nu_hat is not None:
            delta = np.atleast_1d(nu_hat) - co.nu
            w = w + (1.0 - co.b / co.K) * delta
            ups = ups + (1.0 - co.a / co.b) * delta
        return w, ups

    def _posterior_from_probe(self, co: KernelCoeffs, w: np.ndarray):
        """Responsibilities and per-component posterior means for probe w (B, d)."""
        Kt = co.K
        B = w.shape[0]
        Kcomp = self.target.n_components
        d = self.target.dim
        log_w = np.empty((B, Kcomp))
        m_bar = np.empty((B, Kcomp, d))
        for k in range(Kcomp):
            U = self._evecs[k]
            lam = self._evals[k]
            pw = w @ U                       # probe in eigenbasis
            vk = self._means_eig[k]
            noise = lam + 1.0 / Kt
            log_w[:, k] = (
                np.log(self.target.weights[k])
                - 0.5 * np.sum((pw - vk) ** 2 / noise, axis=1)
                - 0.5 * np.sum(np.log(noise))
                - 0.5 * d * LOG_2PI
            )
            m_bar[:, k, :] = ((vk + Kt * lam * pw) / (1.0 + Kt * lam)) @ U.T
        pi_bar = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        pi_bar /= pi_bar.sum(axis=1, keepdims=True)
        return pi_bar, m_bar

    def score_batch(self, co: KernelCoeffs, X: np.ndarray, Z: np.ndarray | None = None, nu_hat=None) -> np.ndarray:
        """Drift for a batch of positions X (B, d) at the coefficient row ``co``.

        Z carries per-particle shifts; ``co`` comes from ``coeffs(t)`` or a
        row of ``coeff_table``.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if Z is not None:
            Z = np.atleast_2d(np.asarray(Z, dtype=float))
        w, ups = self._affine_inputs(co, X, Z, nu_hat)
        pi_bar, m_bar = self._posterior_from_probe(co, w)
        y_hat = np.einsum("bk,bkd->bd", pi_bar, m_bar)
        return co.b * (y_hat - ups)


# ----------------------------------------------------------------------------
# functional API
# ----------------------------------------------------------------------------

def probe(ctx: ScoreContext, t: float, x) -> tuple[float, np.ndarray]:
    """(K_t, probe mean) at one position."""
    co = ctx.coeffs(t)
    X = np.atleast_2d(np.asarray(x, dtype=float))
    w, _ = ctx._affine_inputs(co, X, None, None)
    return co.K, w[0]


def posterior(ctx: ScoreContext, t: float, x):
    """(responsibilities, per-component posterior means, mixture estimate)."""
    co = ctx.coeffs(t)
    X = np.atleast_2d(np.asarray(x, dtype=float))
    w, _ = ctx._affine_inputs(co, X, None, None)
    pi_bar, m_bar = ctx._posterior_from_probe(co, w)
    y_hat = np.einsum("bk,bkd->bd", pi_bar, m_bar)
    return pi_bar[0], m_bar[0], y_hat[0]


def score_at(ctx: ScoreContext, t: float, x) -> np.ndarray:
    """Optimal drift at one position (zero-start problem)."""
    u = ctx.score_batch(ctx.coeffs(t), np.atleast_2d(np.asarray(x, dtype=float)))
    return u[0]


def shifted_score(ctx: ScoreContext, t: float, x, z) -> np.ndarray:
    """Optimal drift for a trajectory started at z instead of the origin."""
    u = ctx.score_batch(ctx.coeffs(t), np.atleast_2d(np.asarray(x, dtype=float)),
                        np.atleast_2d(np.asarray(z, dtype=float)))
    return u[0]


def marginal_density(ctx: ScoreContext, t: float, x, log: bool = False):
    """Normalized time-t marginal of the controlled bridge at positions x.

    Delta start: K-component mixture with per-component natural parameters
    assembled from the coefficient tables.  Mixture start: J x K components
    obtained by conditioning on the start draw and the terminal point; the
    pinned kernel between them is Gaussian with precision a_plus + a_minus,
    which pushes endpoint covariances through two affine maps.
    """
    co = ctx.coeffs(t)
    X = np.atleast_2d(np.asarray(x, dtype=float))
    d = ctx.target.dim

    if ctx.initial is None:
        # unnormalized component k: pi_k |S_k|^{-1/2} exp(-x.M_k.x/2 + h_k.x - g_k/2),
        # normalized by the sum of per-component Gaussian masses
        Kt = co.K
        alpha = co.b / Kt
        dbar = (co.theta_y - ctx.theta_plus_end) / Kt
        P = co.a_plus + co.a
        log_parts = []
        log_masses = []
        for k in range(ctx.target.n_components):
            U, lam = ctx._evecs[k], ctx._evals[k]
            noise = lam + 1.0 / Kt                      # S_k eigenvalues
            M_diag = (P - co.b**2 / Kt) + alpha**2 / noise
            if np.any(M_diag <= 0):
                raise ProbeError(f"non-PD marginal precision at t={t}")
            h = co.theta_plus + co.theta_x + co.b * dbar + alpha * (U @ (((ctx.target.means[k] - dbar) @ U) / noise))
            h_eig = h @ U
            quad = np.sum(((ctx.target.means[k] - dbar) @ U) ** 2 / noise)
            prefix = np.log(ctx.target.weights[k]) - 0.5 * np.sum(np.log(noise)) - 0.5 * quad
            Xe = X @ U
            log_parts.append(prefix - 0.5 * np.sum(Xe**2 * M_diag, axis=1) + Xe @ h_eig)
            log_masses.append(
                prefix + 0.5 * np.sum(h_eig**2 / M_diag) - 0.5 * np.sum(np.log(M_diag)) + 0.5 * d * LOG_2PI
            )
        out = logsumexp(np.stack(log_parts, axis=1), axis=1) - logsumexp(np.array(log_masses))
    else:
        P = co.a_plus + co.a
        fac_init = co.a_plus - co.lam_plus
        base = (co.theta_plus + co.theta_x) / P
        logs = []
        log_ws = []
        for j in range(ctx.initial.n_components):
            for k in range(ctx.target.n_components):
                mean = base + (fac_init * ctx.initial.means[j] + co.b * ctx.target.means[k]) / P
                cov = (np.eye(d) / P
                       + (fac_init / P) ** 2 * ctx.initial.covariances[j]
                       + (co.b / P) ** 2 * ctx.target.covariances[k])
                L = np.linalg.cholesky(cov)
                sol = np.linalg.solve(L, (X - mean).T).T
                logs.append(
                    -0.5 * np.sum(sol**2, axis=1) - np.sum(np.log(np.diag(L))) - 0.5 * d * LOG_2PI
                )
                log_ws.append(np.log(ctx.initial.weights[j] * ctx.target.weights[k]))
        logs = np.stack(logs, axis=1) + np.array(log_ws)[None, :]
        out = logsumexp(logs, axis=1)

    if not log:
        out = np.exp(out)
    return float(out[0]) if np.asarray(x).ndim == 1 else out
