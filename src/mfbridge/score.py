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
on a table of several stacked modes carries those per mode, (M, d) per
time, and takes positions as M groups of rows, so one drift evaluation
advances every mode.

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

from dataclasses import dataclass, fields

import numpy as np

from .errors import ProbeError
from .greens import CoeffTables, KernelCoeffs

__all__ = ["GaussianMixture", "KernelCoeffs", "ScoreCoeffs", "ScoreContext", "WORK_SLOTS", "ar1_covariance",
           "marginal_density"]

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
    """Weighted Gaussian components in d dimensions: ``means`` (K, d), ``covariances`` (K, d, d)."""

    weights: np.ndarray      # (K,)
    means: np.ndarray        # (K, d)
    covariances: np.ndarray  # (K, d, d)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        m = np.asarray(self.means, dtype=float)
        c = np.asarray(self.covariances, dtype=float)
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
        bad = np.flatnonzero(~(w > 0))   # also catches nan, which the sum check lets through
        if bad.size:
            raise ValueError(f"mixture weight {bad[0]} is {w[bad[0]]:g}; every weight must be positive")
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
        return _mixture_logpdf(np.log(self.weights), self.means, self.covariances, x)


def _rows(x) -> np.ndarray:
    """Positions as float rows (n, d); a float array of rows passes through as it is."""
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 2 else np.atleast_2d(x)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, with the largest term shifted out and summed by log1p."""
    a_max = np.max(a, axis=-1, keepdims=True)
    top = a == a_max
    n_top = np.sum(top, axis=-1)
    rest = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=-1) / n_top
    return np.log1p(rest) + np.log(n_top) + a_max[..., 0]


def _mixture_logpdf(log_weights, means, covs, x) -> np.ndarray:
    """Log density of the mixture (log weights (C,), means (C, d), covariances (C, d, d)) at x, (n, d) or (d,)."""
    X = _rows(x)
    logs = np.empty((X.shape[0], len(log_weights)))
    for i, (mean, cov) in enumerate(zip(means, covs)):
        L = np.linalg.cholesky(cov)
        sol = np.linalg.solve(L, (X - mean).T).T
        logs[:, i] = -0.5 * np.sum(sol**2, axis=1) - np.sum(np.log(np.diag(L))) - 0.5 * X.shape[1] * LOG_2PI
    out = _logsumexp(logs + log_weights)
    return out[0] if np.asarray(x).ndim == 1 else out


BASIS_TOL = 1e-12  # largest off-diagonal / diagonal ratio of a covariance a basis diagonalises
WORK_SLOTS = 5     # (n, d) arrays a drift evaluation writes: probe, affine part, two mean terms, drift


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


def _work(X: np.ndarray, work: np.ndarray | None) -> np.ndarray:
    """``work``, or a fresh (WORK_SLOTS, n, d) array for the positions X (n, d)."""
    return np.empty((WORK_SLOTS, *X.shape)) if work is None else work


def _contract(A: np.ndarray, B: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A @ B into ``out``, B a matrix or a vector; a contraction of length 1 is taken elementwise.

    Both give the one product per entry, but numpy's matmul has a much larger
    fixed cost on the length-1 contractions of one zone, such as the (K, 1)
    @ (1, n) log-weight terms.
    """
    if A.shape[-1] != 1:
        return np.matmul(A, B, out=out)
    return np.multiply(A, B, out=out) if B.ndim > 1 else np.multiply(A[..., 0], B[0], out=out)


def _to_basis(U, A):
    return A if U is None else A @ U


class ScoreContext:
    """The coefficient tables of one or more guidance modes, the target mixture and its shared eigenbases.

    A table of several stacked modes gives every per-mode coefficient a mode
    axis ((M, d) per row), and the positions the drift takes are then M
    groups of rows, one per mode.
    """

    def __init__(self, tables: CoeffTables, target: GaussianMixture, initial: GaussianMixture | None = None):
        if target.dim != tables.dim:
            raise ValueError(f"target dimension {target.dim} != tables dimension {tables.dim}")
        if initial is not None and initial.dim != target.dim:
            raise ValueError("initial mixture dimension mismatch")
        self.tables = tables
        self.target = target
        self.initial = initial
        self.n_modes = tables.n_modes
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
        lo, hi = self.tables.t_clip
        co = self.tables.sample(np.clip(ts, lo, hi))
        bad = ~(np.isfinite(co.K) & (co.K > 0))
        if np.any(bad):
            j = int(np.argmax(bad))
            raise ProbeError(f"probe precision {co.K[j]} not positive at t={co.t[j]}; "
                             "schedule/anchoring inconsistency")
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
            probe_0=(co.theta_y - self.tables.theta_plus_end) / K.reshape(per_mode),
            probe_z=(K - b - co.lam_y + self.tables.lambda_plus_end) / K,
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
    def _affine_inputs(self, co: ScoreCoeffs, X: np.ndarray, Z: np.ndarray | None, nu_hat: np.ndarray | None,
                       work: np.ndarray | None = None):
        """Probe mean w and kernel affine part, both in original coordinates, in work[0] and work[1].

        X holds one group of rows per mode; the shifts Z, shared by the
        modes, and a per-mode ``nu_hat`` broadcast over each group.
        """
        work = _work(X, work)
        d = X.shape[1]
        X3 = X.reshape(self.n_modes, -1, d)
        w = np.multiply(co.probe_x, X3, out=work[0].reshape(X3.shape))
        w += co.probe_0.reshape(-1, 1, d)
        ups = np.multiply(co.ups_x, X3, out=work[1].reshape(X3.shape))
        ups -= co.ups_0.reshape(-1, 1, d)
        if Z is not None:
            # shifted problem has guidance nu - z, so every linear coefficient
            # moves by -lambda z (uniform sign under this lambda convention)
            shift = work[3][:Z.shape[0]]
            w += np.multiply(co.probe_z, Z, out=shift)
            ups -= np.multiply(co.ups_z, Z, out=shift)
        if nu_hat is not None:
            delta = (np.atleast_1d(nu_hat) - co.nu).reshape(-1, 1, d)
            w += (1.0 - co.probe_x) * delta
            ups += (1.0 - co.ups_x) * delta
        return work[0], work[1]

    def _posterior(self, co: ScoreCoeffs, w: np.ndarray, work: np.ndarray | None = None,
                   post: np.ndarray | None = None):
        """Responsibilities (K, n), in basis order, and the posterior mean (n, d) for probes w.

        ``post`` is (2, K, n): the log-weights are built in post[0] and turned
        into the responsibilities in place, and post[1] takes one of their
        terms.  The squared probes and the mean's terms go to work[2] and
        work[4], the mean itself to work[3].  None allocates either array.
        """
        work = _work(w, work)
        p, term = np.empty((2, self.target.n_components, w.shape[0])) if post is None else post
        rotated = [_to_basis(U, w) for U, _ in self.bases]
        for pw, (_, sl) in zip(rotated, self.bases):
            log_w = _contract(co.post_quad[sl], np.multiply(pw, pw, out=work[2]).T, p[sl])
            log_w += _contract(co.post_lin[sl], pw.T, term[sl])
            log_w += co.post_const[sl, None]
        p -= p.max(axis=0)
        np.exp(p, out=p)
        p /= p.sum(axis=0)
        y_hat = work[3]
        for i, (pw, (U, sl)) in enumerate(zip(rotated, self.bases)):
            y = np.matmul(p[sl].T, co.shrink[sl], out=work[4] if i or U is not None else y_hat)
            y += np.multiply(pw, np.matmul(p[sl].T, co.gain[sl], out=work[2]), out=work[2])
            if U is not None:
                y = np.matmul(y, U.T, out=work[2] if i else y_hat)
            if i:
                y_hat += y
        return p, y_hat

    def responsibilities(self, co: ScoreCoeffs, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
        """Posterior responsibilities (n, K) of the target components, in component order."""
        w, _ = self._affine_inputs(co, _rows(X), Z, None)
        p, _ = self._posterior(co, w)
        out = np.empty(p.T.shape)
        out[:, self._order] = p.T
        return out

    def score_batch(self, co: ScoreCoeffs, X: np.ndarray, Z: np.ndarray | None = None, nu_hat=None,
                    work: np.ndarray | None = None, post: np.ndarray | None = None) -> np.ndarray:
        """Drift for a batch of positions X (B, d) at the coefficient row ``co``.

        Z carries per-particle shifts; ``co`` comes from ``coeffs(t)`` or a
        row of ``coeff_table``.  The intermediates and the drift, returned
        as the view work[3], are written into ``work``, (WORK_SLOTS, n, d)
        for X of n rows, and the posterior's log-weights into ``post``,
        (2, K, n); None allocates a fresh one.  A run passes the same arrays
        every step, so the step's memory stays mapped.
        """
        X = _rows(X)
        if Z is not None:
            Z = _rows(Z)
        work = _work(X, work)
        w, ups = self._affine_inputs(co, X, Z, nu_hat, work)
        _, u = self._posterior(co, w, work, post)
        u -= ups
        u *= co.b
        return u


def _marginal_components(ctx: ScoreContext, t: float):
    """The time-t marginal as a Gaussian mixture: log weights (C,), means (C, d) and covariances (C, d, d).

    J x K components, obtained by conditioning on the start draw and the
    terminal point; the pinned kernel between them is Gaussian with
    precision a_plus + a_minus, which pushes endpoint covariances through
    two affine maps.  A delta start is the one point-mass start component
    (weight 1, mean 0, covariance 0), so it gives K components.
    """
    co = ctx.coeffs(t)
    d = ctx.target.dim
    P = co.a_plus + co.a
    if ctx.initial is None:
        init_weights, init_means, init_covs = np.ones(1), np.zeros((1, d)), np.zeros((1, d, d))
    else:
        init_weights, init_means, init_covs = ctx.initial.weights, ctx.initial.means, ctx.initial.covariances
    log_ws, means, covs = [], [], []
    fac_init = co.a_plus - co.lam_plus
    base = (co.theta_plus + co.theta_x) / P
    for j in range(init_weights.size):
        for k in range(ctx.target.n_components):
            means.append(base + (fac_init * init_means[j] + co.b * ctx.target.means[k]) / P)
            covs.append(np.eye(d) / P
                        + (fac_init / P) ** 2 * init_covs[j]
                        + (co.b / P) ** 2 * ctx.target.covariances[k])
            log_ws.append(np.log(init_weights[j] * ctx.target.weights[k]))
    return np.array(log_ws), np.array(means), np.array(covs)


def marginal_density(ctx: ScoreContext, t: float, x, log: bool = False):
    """Normalized time-t marginal of the controlled bridge at positions x.

    The marginal is the Gaussian mixture ``_marginal_components`` assembles
    from the coefficient tables: J x K components for a start of J
    components, K for a delta start.
    """
    out = _mixture_logpdf(*_marginal_components(ctx, t), x)
    return out if log else np.exp(out)
