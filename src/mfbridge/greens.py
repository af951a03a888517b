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

beta = 0 intervals use the algebraic limits (heat/bridge kernels): omega is
0 there, the scale omega becomes 1, and tanh and sinh the identity.

Each closed form is written once, in the evaluator of its branch:
``ForwardScalar.a`` (a_plus), ``BackwardScalar.abc`` (a, b, c; the terminal
interval anchored at the delta) and per-row gains for the linear
coefficients, theta_plus = hom theta_plus(t_i) + drive nu_i,
theta_x = R x_r + gx nu_i and theta_y = y_r + gyx x_r + gy nu_i, with x_r,
y_r the values at the interval's right end.  The builders take every anchor
from those evaluators at the interval boundaries: the forward walk at each
right end, the backward walk at each left end, and the linear coefficients
by a short recurrence over the gains of whole intervals.

``CoeffTables.sample(ts)`` is the one evaluator of the assembled tables: it
looks the interval of every time up once, evaluates each branch in a single
pass (forward a_plus; backward a, b, c and the gains, shared by the guidance
and the shift propagators) and returns one ``KernelCoeffs`` of per-time
arrays.  The closed forms are exact at any interior time, so
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


def _where(cond, x, y):
    """np.where, kept a plain choice for one time in one interval (the anchor walks' case)."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _omega(schedule: PwcSchedule) -> tuple:
    """(zero, omega): the beta == 0 branch mask and sqrt(beta), 0 on that branch."""
    zero = schedule.betas <= BETA_ZERO
    return zero, np.where(zero, 0.0, np.sqrt(schedule.betas))


def _plus(gains, start, src):
    """theta_plus from its gains, the value at the interval start and the source."""
    hom, drive = gains
    return hom * start + drive * src


def _pair(gains, x_r, y_r, src):
    """(theta_x, theta_y) from their gains, the right-end anchors and the source."""
    R, gx, gyx, gy = gains
    return R * x_r + gx * src, y_r + gyx * x_r + gy * src


# ----------------------------------------------------------------------------
# forward branch
# ----------------------------------------------------------------------------

@dataclass
class ForwardScalar:
    schedule: PwcSchedule
    omega: np.ndarray       # (M,) sqrt(beta), 0 on zero-beta intervals
    phi: np.ndarray         # (M,) phases; first is 0
    inv_a_start: np.ndarray  # (M,) 1/a at interval start, zero-beta branch only
    a_right: np.ndarray     # (M,) value at each right endpoint
    zero: np.ndarray        # (M,) bool, beta == 0 branch

    @property
    def a_end(self) -> float:
        return float(self.a_right[-1])

    def _phase(self, t, idx):
        """(zero, omega, X0, X): the coth argument X at t and X0 at the interval start.

        X = omega tau + phi; on zero-beta intervals X = tau + 1/a(t_i), the
        beta -> 0 limit of X / omega, and sinh, tanh become the identity.
        """
        z = self.zero[idx]
        w = self.omega[idx]
        x0 = _where(z, self.inv_a_start[idx], self.phi[idx])
        tau = t - self.schedule.breakpoints[idx]
        return z, w, x0, x0 + _where(z, tau, w * tau)

    def a(self, t, idx):
        """a_plus at the times t, which lie in the intervals idx (arrays, or one time and its interval)."""
        z, w, _, X = self._phase(t, idx)
        return _where(z, 1.0, w) / _where(z, X, np.tanh(X))

    def _plus_gains(self, t, idx) -> tuple:
        """(hom, drive): theta_plus(t) = hom theta_plus(t_i) + drive source_i on interval i."""
        z, w, X0, X = self._phase(t, idx)
        sinhX = np.where(z, X, np.sinh(X))
        live = sinhX > 0  # X = 0 only at t = 0, where theta_plus = 0
        sinhX = np.where(live, sinhX, 1.0)
        hom = np.where(live, np.where(z, X0, np.sinh(X0)) / sinhX, 1.0)
        drive = (self.schedule.betas[idx] / np.where(z, 1.0, w)) * (np.cosh(X) - np.cosh(X0)) / sinhX
        return hom, np.where(z, 0.0, drive)


def forward_scalar(schedule: PwcSchedule) -> ForwardScalar:
    """Forward Riccati coefficient: first-interval phase 0, then continuity."""
    M = schedule.n_intervals
    zero, omega = _omega(schedule)
    fwd = ForwardScalar(schedule, omega, np.zeros(M), np.zeros(M), np.zeros(M), zero)
    for i in range(M):
        if i > 0:
            a_in = fwd.a_right[i - 1]
            if zero[i]:
                fwd.inv_a_start[i] = 1.0 / a_in
            elif a_in <= omega[i] * (1.0 + 1e-12):
                raise CoefficientDomainError(
                    f"interval {i}: incoming forward coefficient {a_in:.6g} <= omega {omega[i]:.6g}; "
                    "coth branch undefined (schedule must keep a_plus above omega)"
                )
            else:
                fwd.phi[i] = 0.5 * np.log1p(2.0 / (a_in / omega[i] - 1.0))  # arccoth(a_in / omega)
        fwd.a_right[i] = fwd.a(schedule.breakpoints[i + 1], i)
    return fwd


# ----------------------------------------------------------------------------
# backward branch
# ----------------------------------------------------------------------------

@dataclass
class BackwardScalar:
    schedule: PwcSchedule
    omega: np.ndarray     # (M,) sqrt(beta), 0 on zero-beta intervals
    zero: np.ndarray
    a_anchor: np.ndarray  # (M,) value at right end of interval i (nan for terminal: the delta anchors it)
    b_anchor: np.ndarray
    c_anchor: np.ndarray

    def abc(self, t, idx) -> tuple:
        """(a, b, c) at the times t, which lie in the intervals idx (arrays, or one time and its interval)."""
        return self._forms(t, idx)[:3]

    def _forms(self, t, idx) -> tuple:
        """(a, b, c, R, gx, gyx, gy) at the times t in the intervals idx.

        The last four are the gains of the linear pair on interval i:
        theta_x = R x_r + gx source_i and theta_y = y_r + gyx x_r + gy source_i,
        from the values x_r, y_r at the right end (0 on the terminal interval).
        """
        term = idx == self.schedule.n_intervals - 1
        tau = _where(term, 1.0, self.schedule.breakpoints[idx + 1]) - t
        z = self.zero[idx]
        w = self.omega[idx]
        s = _where(z, 1.0, w)                    # zero beta: the algebraic limits
        T = _where(z, tau, np.tanh(w * tau))
        cosh = np.cosh(w * tau)
        sech = 1.0 / cosh
        a_r, b_r, c_r = self.a_anchor[idx], self.b_anchor[idx], self.c_anchor[idx]
        den = s + a_r * T                        # > 0, as every anchor a_r is
        a = _where(term, s / T, s * (a_r + w * T) / den)
        b = _where(term, s / _where(z, tau, np.sinh(w * tau)), b_r * s * sech / den)
        c = _where(term, a, c_r - b_r * b_r * T / den)
        R = _where(term, 0.0, s / (cosh * den))
        drive = w * np.tanh(0.5 * w * tau)       # terminal theta_x = theta_y per unit source
        gx = _where(term, drive, a - R * a_r)
        gyx = _where(term, 0.0, b_r * (T / den))
        gy = _where(term, drive, b_r * (s * (1.0 - sech) / den))
        return a, b, c, R, gx, gyx, gy


def backward_scalar(schedule: PwcSchedule) -> BackwardScalar:
    """Backward kernel coefficients, anchored at the terminal delta."""
    M = schedule.n_intervals
    zero, omega = _omega(schedule)
    bwd = BackwardScalar(schedule, omega, zero, np.full(M, np.nan), np.full(M, np.nan), np.full(M, np.nan))
    # walk right to left: the anchor of interval i is the left-end value of i+1
    for i in range(M - 2, -1, -1):
        bwd.a_anchor[i], bwd.b_anchor[i], bwd.c_anchor[i] = bwd.abc(schedule.breakpoints[i + 1], i + 1)
    return bwd


# ----------------------------------------------------------------------------
# linear coefficients (common machinery for guided theta and shift lambda)
# ----------------------------------------------------------------------------

@dataclass
class LinearCoeffs:
    """theta_plus / theta_x / theta_y for a per-interval source vector.

    ``source[i]`` is nu_i for the guidance coefficients or the all-ones
    vector for the shift propagators.  Each is a gain-weighted sum of its
    interval anchor and the source; the gains depend on the schedule alone.
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
        return self._combine(self.fwd._plus_gains(t, idx), self.bwd._forms(t, idx)[3:], idx)

    def _combine(self, plus_gains, pair_gains, idx) -> tuple:
        """(theta_plus, theta_x, theta_y) from per-row gains of the rows in the intervals idx."""
        src = self.source[idx]
        col = lambda gains: [g[:, None] for g in gains]
        return (_plus(col(plus_gains), self.plus_start[idx], src),
                *_pair(col(pair_gains), self.x_anchor[idx], self.y_anchor[idx], src))


def linear_coeffs(schedule: PwcSchedule, source, fwd: ForwardScalar, bwd: BackwardScalar) -> LinearCoeffs:
    """Propagate the linear coefficients for a per-interval source (M, d)."""
    source = np.atleast_2d(np.asarray(source, dtype=float))
    M = schedule.n_intervals
    if source.shape[0] != M:
        raise ValueError(f"need one source value per interval: {source.shape[0]} vs {M}")
    d = source.shape[1]
    bp = schedule.breakpoints
    # theta_plus forward over whole intervals: ends[i] = theta_plus(t_i), ends[0] = 0
    plus_gains = np.array(fwd._plus_gains(bp[1:], np.arange(M)))
    ends = np.zeros((M + 1, d))
    for i in range(M):
        ends[i + 1] = _plus(plus_gains[:, i], ends[i], source[i])
    # the pair backward: the left-end values of interval i+1 are the anchors of interval i
    pair_gains = np.array(bwd._forms(bp[1:M], np.arange(1, M))[3:])
    x_anchor = np.zeros((M, d))
    y_anchor = np.zeros((M, d))
    for i in range(M - 2, -1, -1):
        x_anchor[i], y_anchor[i] = _pair(pair_gains[:, i], x_anchor[i + 1], y_anchor[i + 1], source[i + 1])
    return LinearCoeffs(schedule, fwd, bwd, source, ends[:M], ends[M], x_anchor, y_anchor)


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
        a, b, c, *pair_gains = self.bwd._forms(ts, idx)
        plus_gains = self.fwd._plus_gains(ts, idx)
        theta_plus, theta_x, theta_y = self.theta._combine(plus_gains, pair_gains, idx)
        lam_plus, lam_x, lam_y = (v[:, 0] for v in self.lam._combine(plus_gains, pair_gains, idx))
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
