"""Closed-form Green-kernel coefficients for piecewise-constant protocols.

Raw-coordinate kernel parameterization on each interval [t_i, t_{i+1}) with
stiffness beta_i and guidance value nu_i:

    backward kernel:  -a(t)/2 |x|^2 + b(t) x.y - c(t)/2 |y|^2
                      + theta_x(t).x + theta_y(t).y
    forward kernel:   -a_plus(t)/2 |y|^2 + theta_plus(t).y

with scalar ODEs  a_plus' = beta - a_plus^2,  a' = a^2 - beta,  b' = a b,
c' = b^2, and linear ones  theta_plus' = -a_plus theta_plus + beta nu,
theta_x' = a theta_x - beta nu,  theta_y' = -b theta_x.  The linear
coefficients theta are the physical (continuous) ones; the recentred
variants used in kernel notation are recovered as r = theta_x - (a-b) nu,
s = theta_y - (c-b) nu, s_plus = theta_plus - a_plus nu.

Within one interval everything is hyperbolic, with omega = sqrt(beta):

    a_plus(t) = omega coth(omega tau + phi_i),   tau = t - t_i,
    (terminal) a = c = omega coth(omega sg), b = omega csch(omega sg),
    sg = 1 - t, and theta_x = theta_y = omega nu tanh(omega sg / 2);
    (earlier intervals, anchored at the right endpoint, tau = t_{i+1} - t,
     T = tanh(omega tau))
    a(t) = omega (a_r + omega T) / (omega + a_r T),
    b(t) = b_r * omega sech(omega tau) / (omega + a_r T),
    c(t) = c_r - b_r^2 T / (omega + a_r T),

the last two being the cancellation-free forms of the square-root ratio and
telescoping updates.  The phase phi of the first interval is 0 (singular
delta start a_plus ~ 1/t); later phases are set by continuity.  Anchors:
theta_plus(0+) = 0 and theta_x(1-) = theta_y(1-) = 0 (delta kernels carry no
linear term).  The shift propagators lambda solve the same linear ODEs with
the source beta nu replaced by beta.

beta = 0 intervals use the algebraic limits (heat/bridge kernels).

``CoeffTables.sample(ts)`` is the one evaluator: it looks the interval of
every time up once, evaluates each branch in a single pass (forward a_plus;
backward a, b, c together; the linear theta_plus, theta_x, theta_y for the
guidance and for the shift propagators) and returns one ``KernelCoeffs`` of
per-time arrays.  The closed forms are exact at any interior time, so
interval-boundary continuity holds to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import CoefficientDomainError
from .schedule import PwcSchedule, interval_of

__all__ = ["ForwardScalar", "BackwardScalar", "LinearCoeffs", "CoeffTables", "KernelCoeffs",
           "forward_scalar", "backward_scalar", "linear_coeffs", "shift_propagators",
           "build_tables", "DEFAULT_N_STEPS"]

BETA_ZERO = 1e-14
DEFAULT_N_STEPS = 2500  # dense-grid resolution shared with the simulator


def _arccoth(x: float) -> float:
    if x <= 1.0 + 1e-12:
        raise CoefficientDomainError(f"arccoth argument {x} out of range (coth continuity solve)")
    return 0.5 * np.log1p(2.0 / (x - 1.0))


# ----------------------------------------------------------------------------
# forward branch
# ----------------------------------------------------------------------------

@dataclass
class ForwardScalar:
    schedule: PwcSchedule
    omega: np.ndarray       # (M,)
    phi: np.ndarray         # (M,) phases; first is 0
    inv_a_start: np.ndarray  # (M,) 1/a at interval start, zero-beta branch only
    a_right: np.ndarray     # (M,) value at each right endpoint
    zero: np.ndarray        # (M,) bool, beta == 0 branch

    @property
    def a_end(self) -> float:
        return float(self.a_right[-1])

    def a(self, t: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """a_plus at the times t, which lie in the intervals idx."""
        tau = t - self.schedule.breakpoints[idx]
        out = np.empty_like(t)
        hyp = ~self.zero[idx]
        if np.any(hyp):
            w, ph = self.omega[idx[hyp]], self.phi[idx[hyp]]
            out[hyp] = w / np.tanh(w * tau[hyp] + ph)
        if np.any(~hyp):
            out[~hyp] = 1.0 / (tau[~hyp] + self.inv_a_start[idx[~hyp]])
        return out


def forward_scalar(schedule: PwcSchedule) -> ForwardScalar:
    """Forward Riccati coefficient: first-interval phase 0, then continuity."""
    M = schedule.n_intervals
    widths = schedule.widths()
    omega = np.sqrt(schedule.betas)
    zero = schedule.betas <= BETA_ZERO
    phi = np.zeros(M)
    inv_a = np.zeros(M)
    a_right = np.zeros(M)
    for i in range(M):
        if i > 0:
            a_in = a_right[i - 1]
            if zero[i]:
                inv_a[i] = 1.0 / a_in
            else:
                if a_in <= omega[i] * (1.0 + 1e-12):
                    raise CoefficientDomainError(
                        f"interval {i}: incoming forward coefficient {a_in:.6g} <= omega {omega[i]:.6g}; "
                        "coth branch undefined (schedule must keep a_plus above omega)"
                    )
                phi[i] = _arccoth(a_in / omega[i])
        if zero[i]:
            a_right[i] = 1.0 / (widths[i] + inv_a[i])
        else:
            a_right[i] = omega[i] / np.tanh(omega[i] * widths[i] + phi[i])
    return ForwardScalar(schedule, omega, phi, inv_a, a_right, zero)


# ----------------------------------------------------------------------------
# backward branch
# ----------------------------------------------------------------------------

@dataclass
class BackwardScalar:
    schedule: PwcSchedule
    omega: np.ndarray
    zero: np.ndarray
    a_anchor: np.ndarray  # (M,) value at right end of interval i (inf for terminal)
    b_anchor: np.ndarray
    c_anchor: np.ndarray

    def abc(self, t: np.ndarray, idx: np.ndarray) -> tuple:
        """(a, b, c) at the times t, which lie in the intervals idx."""
        bp = self.schedule.breakpoints
        M = self.schedule.n_intervals
        a, b, c = np.empty_like(t), np.empty_like(t), np.empty_like(t)
        term = idx == M - 1
        if np.any(term):
            sg = 1.0 - t[term]
            i = idx[term]
            w = self.omega[i]
            z = self.zero[i]
            coth, csch = np.empty_like(sg), np.empty_like(sg)
            if np.any(~z):
                ws = w[~z] * sg[~z]
                coth[~z] = w[~z] / np.tanh(ws)
                csch[~z] = w[~z] / np.sinh(ws)
            if np.any(z):
                coth[z] = csch[z] = 1.0 / sg[z]
            a[term] = c[term] = coth
            b[term] = csch
        if np.any(~term):
            i = idx[~term]
            tau = bp[i + 1] - t[~term]
            w = self.omega[i]
            a_r, b_r, c_r = self.a_anchor[i], self.b_anchor[i], self.c_anchor[i]
            z = self.zero[i]
            T = np.where(z, tau, np.tanh(np.where(z, 0.0, w) * tau))
            den = np.where(z, 1.0 + a_r * tau, w + a_r * T)
            if np.any(den <= 0):
                bad = int(i[den <= 0][0])
                raise CoefficientDomainError(f"backward recursion denominator vanished on interval {bad}")
            a[~term] = np.where(z, a_r / den, w * (a_r + w * T) / den)
            sech = np.where(z, 1.0, 1.0 / np.cosh(np.where(z, 0.0, w) * tau))
            b[~term] = np.where(z, b_r / den, b_r * w * sech / den)
            c[~term] = c_r - b_r * b_r * T / den
        return a, b, c


def backward_scalar(schedule: PwcSchedule) -> BackwardScalar:
    """Backward kernel coefficients, anchored at the terminal delta."""
    M = schedule.n_intervals
    widths = schedule.widths()
    omega = np.sqrt(schedule.betas)
    zero = schedule.betas <= BETA_ZERO
    a_anchor = np.full(M, np.inf)
    b_anchor = np.full(M, np.inf)
    c_anchor = np.full(M, np.inf)
    tab = BackwardScalar(schedule, omega, zero, a_anchor, b_anchor, c_anchor)
    # walk right to left: the anchor of interval i is the left-end value of i+1
    for i in range(M - 2, -1, -1):
        if i + 1 == M - 1:
            sg = widths[M - 1]
            if zero[M - 1]:
                a_anchor[i] = b_anchor[i] = c_anchor[i] = 1.0 / sg
            else:
                w = omega[M - 1]
                a_anchor[i] = c_anchor[i] = w / np.tanh(w * sg)
                b_anchor[i] = w / np.sinh(w * sg)
        else:
            tau = widths[i + 1]
            a_r, b_r, c_r = a_anchor[i + 1], b_anchor[i + 1], c_anchor[i + 1]
            if zero[i + 1]:
                den = 1.0 + a_r * tau
                a_anchor[i] = a_r / den
                b_anchor[i] = b_r / den
                c_anchor[i] = c_r - b_r * b_r * tau / den
            else:
                w = omega[i + 1]
                T = np.tanh(w * tau)
                den = w + a_r * T
                if den <= 0:
                    raise CoefficientDomainError(f"backward anchor denominator vanished on interval {i + 1}")
                a_anchor[i] = w * (a_r + w * T) / den
                b_anchor[i] = b_r * w / (np.cosh(w * tau) * den)
                c_anchor[i] = c_r - b_r * b_r * T / den
    return tab


# ----------------------------------------------------------------------------
# linear coefficients (common machinery for guided theta and shift lambda)
# ----------------------------------------------------------------------------

@dataclass
class LinearCoeffs:
    """theta_plus / theta_x / theta_y for a per-interval source vector.

    ``source[i]`` is nu_i for the guidance coefficients or the all-ones
    vector for the shift propagators.
    """

    schedule: PwcSchedule
    fwd: ForwardScalar = field(repr=False)
    bwd: BackwardScalar = field(repr=False)
    source: np.ndarray            # (M, d)
    plus_start: np.ndarray        # (M, d) theta_plus at interval starts
    plus_end: np.ndarray          # (d,) theta_plus at t = 1
    x_anchor: np.ndarray          # (M, d) theta_x at interval right ends (0 row for terminal)
    y_anchor: np.ndarray          # (M, d)

    def evaluate(self, t: np.ndarray, idx: np.ndarray) -> tuple:
        """(theta_plus, theta_x, theta_y), each (n, d), at the times t in the intervals idx."""
        return (self.theta_plus(t, idx),) + self._backward_pair(t, idx)

    def theta_plus(self, t, idx):
        tau = t - self.schedule.breakpoints[idx]
        out = np.zeros((t.size, self.source.shape[1]))
        for i in np.unique(idx):
            m = idx == i
            th0 = self.plus_start[i]
            if self.fwd.zero[i]:
                if self.fwd.inv_a_start[i] > 0:
                    fac = self.fwd.inv_a_start[i] / (tau[m] + self.fwd.inv_a_start[i])
                else:
                    fac = np.zeros(int(m.sum()))  # first interval: singular start, theta == 0
                out[m] = fac[:, None] * th0
            else:
                w, ph = self.fwd.omega[i], self.fwd.phi[i]
                X = w * tau[m] + ph
                sinhX = np.sinh(X)
                hom = np.where(sinhX > 0, np.sinh(ph) / np.where(sinhX > 0, sinhX, 1.0), 1.0)
                drive = (self.schedule.betas[i] / w) * (np.cosh(X) - np.cosh(ph)) / np.where(sinhX > 0, sinhX, 1.0)
                out[m] = hom[:, None] * th0 + drive[:, None] * self.source[i]
        return out

    def _backward_pair(self, t, idx):
        bp = self.schedule.breakpoints
        M = self.schedule.n_intervals
        d = self.source.shape[1]
        thx = np.zeros((t.size, d))
        thy = np.zeros((t.size, d))
        for i in np.unique(idx):
            m = idx == i
            nu = self.source[i]
            if i == M - 1:
                sg = 1.0 - t[m]
                if self.bwd.zero[i]:
                    continue  # no source: thetas stay 0
                w = self.bwd.omega[i]
                val = w * np.tanh(0.5 * w * sg)
                thx[m] = val[:, None] * nu
                thy[m] = val[:, None] * nu
            else:
                tau = bp[i + 1] - t[m]
                a_r, b_r, c_r = self.bwd.a_anchor[i], self.bwd.b_anchor[i], self.bwd.c_anchor[i]
                thx_r, thy_r = self.x_anchor[i], self.y_anchor[i]
                if self.bwd.zero[i]:
                    den = 1.0 + a_r * tau
                    R = 1.0 / den
                    a_t = a_r / den
                    Psi = tau / den
                    drive_y = np.zeros_like(tau)
                else:
                    w = self.bwd.omega[i]
                    T = np.tanh(w * tau)
                    den = w + a_r * T
                    R = w / (np.cosh(w * tau) * den)
                    a_t = w * (a_r + w * T) / den
                    Psi = T / den
                    drive_y = w * (1.0 - 1.0 / np.cosh(w * tau)) / den
                thx[m] = R[:, None] * thx_r + (a_t - R * a_r)[:, None] * nu
                thy[m] = thy_r + (b_r * Psi)[:, None] * thx_r + (b_r * drive_y)[:, None] * nu
        return thx, thy


def linear_coeffs(schedule: PwcSchedule, source, fwd: ForwardScalar, bwd: BackwardScalar) -> LinearCoeffs:
    """Propagate the linear coefficients for a per-interval source (M, d)."""
    source = np.atleast_2d(np.asarray(source, dtype=float))
    M = schedule.n_intervals
    if source.shape[0] != M:
        raise ValueError(f"need one source value per interval: {source.shape[0]} vs {M}")
    d = source.shape[1]
    widths = schedule.widths()

    # interval-end values of theta_plus: ends[i] = theta_plus(t_i), ends[0] = 0
    ends = np.zeros((M + 1, d))
    for i in range(M):
        if fwd.zero[i]:
            # no source; pure decay theta(t) = theta(t_i) a(t)/a(t_i)
            if fwd.inv_a_start[i] > 0:
                fac = fwd.inv_a_start[i] / (widths[i] + fwd.inv_a_start[i])
            else:
                fac = 0.0  # singular first interval, theta identically 0 there
            ends[i + 1] = fac * ends[i]
        else:
            w, ph = fwd.omega[i], fwd.phi[i]
            X = w * widths[i] + ph
            ends[i + 1] = (np.sinh(ph) / np.sinh(X)) * ends[i] + (schedule.betas[i] / w) * (
                (np.cosh(X) - np.cosh(ph)) / np.sinh(X)
            ) * source[i]
    plus_start = ends[:M]
    plus_end = ends[M]

    x_anchor = np.zeros((M, d))
    y_anchor = np.zeros((M, d))
    lc = LinearCoeffs(schedule, fwd, bwd, source, plus_start, plus_end, x_anchor, y_anchor)
    for i in range(M - 2, -1, -1):
        # left-end values of interval i+1 become the anchors of interval i
        saved = lc._backward_pair(schedule.breakpoints[i + 1:i + 2], np.array([i + 1]))
        x_anchor[i] = saved[0][0]
        y_anchor[i] = saved[1][0]
    return lc


def shift_propagators(schedule: PwcSchedule, fwd: ForwardScalar, bwd: BackwardScalar) -> LinearCoeffs:
    """Scalar propagators: same ODEs as the thetas with source beta instead of beta nu."""
    ones = np.ones((schedule.n_intervals, 1))
    return linear_coeffs(schedule, ones, fwd, bwd)


# ----------------------------------------------------------------------------
# assembled tables
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelCoeffs:
    """Time-only kernel coefficients at n evaluation times.

    Scalar coefficients are (n,) arrays and vector ones (n, d): a, b, c are
    the backward kernel's, K = c - a_plus(1) is the probe precision, the
    lam_* are the shift propagators and nu the tabled guidance.  ``row(j)``
    is the slice at one time (scalars and (d,) vectors), which is what the
    probe, posterior and drift take.
    """

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    K: np.ndarray
    theta_x: np.ndarray
    theta_y: np.ndarray
    a_plus: np.ndarray
    theta_plus: np.ndarray
    lam_plus: np.ndarray
    lam_x: np.ndarray
    lam_y: np.ndarray
    nu: np.ndarray

    def row(self, j: int) -> "KernelCoeffs":
        return type(self)(*(getattr(self, f.name)[j] for f in fields(self)))


@dataclass
class CoeffTables:
    """Everything the score needs, evaluable exactly at any interior time."""

    schedule: PwcSchedule
    nu: np.ndarray                 # (M, d) per-interval guidance values
    fwd: ForwardScalar
    bwd: BackwardScalar
    theta: LinearCoeffs
    lam: LinearCoeffs
    n_steps: int = DEFAULT_N_STEPS

    # endpoint values ------------------------------------------------------
    @property
    def a_plus_end(self) -> float:
        return self.fwd.a_end

    @property
    def theta_plus_end(self) -> np.ndarray:
        return self.theta.plus_end

    @property
    def lambda_plus_end(self) -> float:
        return float(self.lam.plus_end[0])

    @property
    def dim(self) -> int:
        return self.nu.shape[1]

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    @property
    def t_clip(self) -> tuple:
        return (0.5 * self.dt, 1.0 - 0.5 * self.dt)

    def probe_precision(self, ts) -> np.ndarray:
        """K_t = c_minus(t) - a_plus(1), without the linear coefficients ``sample`` adds.

        Positive on (0, 1) for sane schedules; the config dry run scans it.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return self.bwd.abc(ts, interval_of(self.schedule, ts))[2] - self.a_plus_end

    def sample(self, ts) -> KernelCoeffs:
        """Every coefficient and the guidance value at the times ``ts``.

        The one evaluator of the tables: the score's per-step table, its
        one-time rows and the coefficient CSV dump all read it.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        idx = interval_of(self.schedule, ts)
        a, b, c = self.bwd.abc(ts, idx)
        theta_plus, theta_x, theta_y = self.theta.evaluate(ts, idx)
        lam_plus, lam_x, lam_y = (v[:, 0] for v in self.lam.evaluate(ts, idx))
        return KernelCoeffs(
            t=ts, a=a, b=b, c=c, K=c - self.a_plus_end, theta_x=theta_x, theta_y=theta_y,
            a_plus=self.fwd.a(ts, idx), theta_plus=theta_plus,
            lam_plus=lam_plus, lam_x=lam_x, lam_y=lam_y, nu=self.nu[idx],
        )


def build_tables(schedule: PwcSchedule, nu_values, n_steps: int = DEFAULT_N_STEPS) -> CoeffTables:
    """Assemble all coefficient trajectories for per-interval guidance values."""
    nu_values = np.atleast_2d(np.asarray(nu_values, dtype=float))
    fwd = forward_scalar(schedule)
    bwd = backward_scalar(schedule)
    theta = linear_coeffs(schedule, nu_values, fwd, bwd)
    lam = shift_propagators(schedule, fwd, bwd)
    return CoeffTables(schedule, nu_values, fwd, bwd, theta, lam, n_steps)
