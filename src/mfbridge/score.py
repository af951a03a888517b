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
table evaluator ``CoeffTables.sample``, checks K > 0 there, and returns a
``ScoreCoeffs``: the kernel coefficients plus, per time, the factors of the
affine inputs and the per-component posterior constants (log-normaliser,
inverse noise, shrinkage and gain).  ``coeffs(t)`` is its one-row case.

The schedule alone fixes a, b, c, K, a_plus and the lambdas; the guidance
enters only theta_plus, theta_x, theta_y, nu and theta_plus(1).  A context
built on several modes' tables (same schedule and step grid) carries those
per mode, (M, d) per time, and takes positions as M groups of rows, so one
drift evaluation advances every mode.

The target components are grouped into as few orthonormal bases as
diagonalise their covariances: a component joins an earlier eigenbasis U
when U^T Sigma U is diagonal to 1e-12 relative (the identity for diagonal
covariances).  Isotropic and spatial-AR(1) targets need one basis; a general
SPD mixture may need one per component.  Per basis and time the posterior is
one rotation in, log-weights as two matrix products plus a constant, and the
posterior mean p @ shrink + pw * (p @ gain), rotated back; responsibilities
are normalised across all bases after a max shift (K blows up near t = 1 and
naive likelihoods underflow).

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

from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import logsumexp

from .errors import ProbeError
from .greens import CoeffTables, KernelCoeffs

__all__ = ["GaussianMixture", "KernelCoeffs", "ScoreCoeffs", "ScoreContext", "ar1_covariance",
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


# per-mode coefficients: a stacked context gives each of them a mode axis
PER_MODE_FIELDS = ("theta_plus", "theta_x", "theta_y", "nu")
BASIS_TOL = 1e-12  # largest off-diagonal / diagonal ratio of a covariance a basis diagonalises


@dataclass(frozen=True)
class ScoreCoeffs(KernelCoeffs):
    """Kernel coefficients plus what the drift builds from them, at n times.

    Affine inputs: w = probe_x x + probe_0 (+ probe_z z) and
    ups = ups_x x - ups_0 (- ups_z z); probe_0 and ups_0 are per mode.
    Posterior constants, per target component in basis order ((n, K, d) or
    (n, K)): the log-weight terms post_quad = -1/(2 noise), post_lin =
    v/noise and post_const, the shrinkage v/(1 + K lam) and the gain
    K lam/(1 + K lam), where v and lam are the component's mean and
    eigenvalues in its basis and noise = lam + 1/K.
    """

    probe_x: np.ndarray
    probe_0: np.ndarray
    probe_z: np.ndarray
    ups_x: np.ndarray
    ups_0: np.ndarray
    ups_z: np.ndarray
    post_quad: np.ndarray
    post_lin: np.ndarray
    post_const: np.ndarray
    shrink: np.ndarray
    gain: np.ndarray


def _is_diagonal(D: np.ndarray) -> bool:
    diag = np.diag(D)
    return np.max(np.abs(D - np.diag(diag))) <= BASIS_TOL * np.max(np.abs(diag))


def _shared_bases(covariances: np.ndarray):
    """Group the components into as few orthonormal bases as diagonalise them.

    Component k joins the first earlier eigenbasis U with U^T Sigma_k U
    diagonal, else the identity if Sigma_k is diagonal, else founds its own
    eigenbasis.  Returns the bases as (U, slice of the basis-ordered
    components), U None for the identity; the component order; and the
    eigenvalues (K, d) in that order.
    """
    lam = np.empty(covariances.shape[:2])
    groups = [(None, [])]          # the identity, dropped if no component joins it
    for k, cov in enumerate(covariances):
        for U, members in groups[1:] + groups[:1]:
            D = cov if U is None else U.T @ cov @ U
            if _is_diagonal(D):
                members.append(k)
                lam[k] = np.diag(D)
                break
        else:
            lam[k], U = np.linalg.eigh(cov)
            groups.append((U, [k]))
    if np.min(lam) <= 0:
        raise ValueError("non-PD target component after eigendecomposition")
    groups = [g for g in groups if g[1]]
    order = np.concatenate([members for _, members in groups])
    stops = np.cumsum([len(members) for _, members in groups])
    bases = [(U, slice(stop - len(members), stop)) for (U, members), stop in zip(groups, stops)]
    return bases, order, lam[order]


def _to_basis(U, A):
    return A if U is None else A @ U


def _from_basis(U, A):
    return A if U is None else A @ U.T


class ScoreContext:
    """Coefficient tables of one or more guidance modes, the target mixture and its shared eigenbases.

    ``tables`` is one ``CoeffTables`` or a sequence of them, one per stacked
    mode, all on the same schedule and step grid.  A sequence gives every
    per-mode coefficient a mode axis ((M, d) per row), and the positions the
    drift takes are then M groups of rows, one per mode.
    """

    def __init__(self, tables, target: GaussianMixture, initial: GaussianMixture | None = None):
        stacked = not isinstance(tables, CoeffTables)
        modes = tuple(tables) if stacked else (tables,)
        first = modes[0]
        for tab in modes[1:]:
            if not (np.array_equal(tab.schedule.breakpoints, first.schedule.breakpoints)
                    and np.array_equal(tab.schedule.betas, first.schedule.betas)
                    and tab.n_steps == first.n_steps):
                raise ValueError("stacked tables must share the schedule and the step grid")
        if target.dim != first.dim:
            raise ValueError(f"target dimension {target.dim} != tables dimension {first.dim}")
        if initial is not None and initial.dim != target.dim:
            raise ValueError("initial mixture dimension mismatch")
        self.tables = tables
        self.target = target
        self.initial = initial
        self.n_modes = len(modes)
        self._modes = modes
        self._stacked = stacked
        self.a_plus_end = first.a_plus_end
        ends = [np.atleast_1d(tab.theta_plus_end) for tab in modes]
        self.theta_plus_end = np.stack(ends) if stacked else ends[0]
        self.lambda_plus_end = first.lambda_plus_end
        self.bases, self._order, self._lam = _shared_bases(target.covariances)
        means = target.means[self._order]
        for U, sl in self.bases:
            means[sl] = _to_basis(U, means[sl])
        self._means_basis = means                                 # (K, d), basis order
        self._log_weights = np.log(target.weights[self._order])   # (K,), basis order

    # ------------------------------------------------------------------
    def coeff_table(self, ts) -> ScoreCoeffs:
        """Every time-only coefficient at the times ``ts``, clipped to ``t_clip``.

        Raises ProbeError at the first time where the probe precision K is
        not positive, so a bad schedule fails before any particle moves.
        """
        lo, hi = self._modes[0].t_clip
        ts = np.clip(ts, lo, hi)
        samples = [tab.sample(ts) for tab in self._modes]
        co = samples[0]
        bad = ~(np.isfinite(co.K) & (co.K > 0))
        if np.any(bad):
            j = int(np.argmax(bad))
            raise ProbeError(f"probe precision {co.K[j]} not positive at t={co.t[j]}; "
                             "schedule/anchoring inconsistency")
        if self._stacked:
            co = replace(co, **{name: np.stack([getattr(s, name) for s in samples], axis=1)
                                for name in PER_MODE_FIELDS})
        return self._score_coeffs(co)

    def coeffs(self, t: float) -> ScoreCoeffs:
        """Coefficients at one time: the one-row case of ``coeff_table``."""
        return self.coeff_table(t).row(0)

    def _score_coeffs(self, co: KernelCoeffs) -> ScoreCoeffs:
        """Affine-input factors and per-component posterior constants at every time of ``co``."""
        K, a, b = co.K, co.a, co.b
        per_mode = (-1,) + (1,) * (co.theta_x.ndim - 1)   # a scalar row against the per-mode vectors
        Kc = K[:, None, None]
        noise = self._lam + 1.0 / Kc
        v = self._means_basis
        Klam = Kc * self._lam
        return ScoreCoeffs(
            **{f.name: getattr(co, f.name) for f in fields(KernelCoeffs)},
            probe_x=b / K,
            probe_0=(co.theta_y - self.theta_plus_end) / K.reshape(per_mode),
            probe_z=(K - b - co.lam_y + self.lambda_plus_end) / K,
            ups_x=a / b,
            ups_0=co.theta_x / b.reshape(per_mode),
            ups_z=(a - co.lam_x - b) / b,
            post_quad=-0.5 / noise,
            post_lin=v / noise,
            post_const=(self._log_weights - 0.5 * np.sum(v * v / noise + np.log(noise), axis=2)
                        - 0.5 * self.target.dim * LOG_2PI),
            shrink=v / (1.0 + Klam),
            gain=Klam / (1.0 + Klam),
        )

    # ------------------------------------------------------------------
    def _affine_inputs(self, co: ScoreCoeffs, X: np.ndarray, Z: np.ndarray | None, nu_hat: np.ndarray | None):
        """Probe mean w and kernel affine part, both in original coordinates.

        X holds one group of rows per mode; the shifts Z, shared by the
        modes, and a per-mode ``nu_hat`` broadcast over each group.
        """
        d = X.shape[1]
        X3 = X.reshape(self.n_modes, -1, d)
        w = co.probe_x * X3
        w += co.probe_0.reshape(-1, 1, d)
        ups = co.ups_x * X3
        ups -= co.ups_0.reshape(-1, 1, d)
        if Z is not None:
            # shifted problem has guidance nu - z, so every linear coefficient
            # moves by -lambda z (uniform sign under this lambda convention)
            w += co.probe_z * Z
            ups -= co.ups_z * Z
        if nu_hat is not None:
            delta = (np.atleast_1d(nu_hat) - co.nu).reshape(-1, 1, d)
            w += (1.0 - co.probe_x) * delta
            ups += (1.0 - co.ups_x) * delta
        return w.reshape(X.shape), ups.reshape(X.shape)

    def _posterior(self, co: ScoreCoeffs, w: np.ndarray):
        """Responsibilities (K, n), in basis order, and the posterior mean (n, d) for probes w."""
        rotated = [_to_basis(U, w) for U, _ in self.bases]
        log_w = np.concatenate([co.post_quad[sl] @ (pw * pw).T + co.post_lin[sl] @ pw.T + co.post_const[sl, None]
                                for pw, (_, sl) in zip(rotated, self.bases)])
        p = np.exp(log_w - log_w.max(axis=0))
        p /= p.sum(axis=0)
        y_hat = None
        for pw, (U, sl) in zip(rotated, self.bases):
            y = _from_basis(U, p[sl].T @ co.shrink[sl] + pw * (p[sl].T @ co.gain[sl]))
            y_hat = y if y_hat is None else y_hat + y
        return p, y_hat

    def responsibilities(self, co: ScoreCoeffs, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
        """Posterior responsibilities (n, K) of the target components, in component order."""
        w, _ = self._affine_inputs(co, np.atleast_2d(np.asarray(X, dtype=float)), Z, None)
        p, _ = self._posterior(co, w)
        out = np.empty(p.T.shape)
        out[:, self._order] = p.T
        return out

    def score_batch(self, co: ScoreCoeffs, X: np.ndarray, Z: np.ndarray | None = None, nu_hat=None) -> np.ndarray:
        """Drift for a batch of positions X (B, d) at the coefficient row ``co``.

        Z carries per-particle shifts; ``co`` comes from ``coeffs(t)`` or a
        row of ``coeff_table``.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if Z is not None:
            Z = np.atleast_2d(np.asarray(Z, dtype=float))
        w, ups = self._affine_inputs(co, X, Z, nu_hat)
        _, u = self._posterior(co, w)
        u -= ups
        u *= co.b
        return u


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
    p, y_hat = ctx._posterior(co, w)
    pi = np.empty(ctx.target.n_components)
    m_bar = np.empty((ctx.target.n_components, ctx.target.dim))
    for U, sl in ctx.bases:
        pi[ctx._order[sl]] = p[sl, 0]
        m_bar[ctx._order[sl]] = _from_basis(U, co.shrink[sl] + co.gain[sl] * _to_basis(U, w[0]))
    return pi, m_bar, y_hat[0]


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
    P = co.a_plus + co.a

    if ctx.initial is None:
        # unnormalized component k: pi_k |S_k|^{-1/2} exp(-x.M_k.x/2 + h_k.x - g_k/2),
        # normalized by the sum of per-component Gaussian masses; both are
        # diagonal in the component's basis; the probe factors are alpha = b/K
        # and dbar = (theta_y - theta_plus(1))/K
        Kt = co.K
        alpha, dbar = co.probe_x, co.probe_0
        h0 = co.theta_plus + co.theta_x + co.b * dbar
        log_parts = []
        log_masses = []
        for U, sl in ctx.bases:
            Xe, h0e, de = _to_basis(U, X), _to_basis(U, h0), _to_basis(U, dbar)
            for lam, v, log_pi in zip(ctx._lam[sl], ctx._means_basis[sl], ctx._log_weights[sl]):
                noise = lam + 1.0 / Kt                      # S_k eigenvalues
                M_diag = (P - co.b**2 / Kt) + alpha**2 / noise
                if np.any(M_diag <= 0):
                    raise ProbeError(f"non-PD marginal precision at t={t}")
                h_eig = h0e + alpha * (v - de) / noise
                quad = np.sum((v - de) ** 2 / noise)
                prefix = log_pi - 0.5 * np.sum(np.log(noise)) - 0.5 * quad
                log_parts.append(prefix - 0.5 * np.sum(Xe**2 * M_diag, axis=1) + Xe @ h_eig)
                log_masses.append(
                    prefix + 0.5 * np.sum(h_eig**2 / M_diag) - 0.5 * np.sum(np.log(M_diag)) + 0.5 * d * LOG_2PI
                )
        out = logsumexp(np.stack(log_parts, axis=1), axis=1) - logsumexp(np.array(log_masses))
    else:
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
