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

In the distance tau from an anchor, tau = t - t_i forward and
tau = t_{i+1} - t backward, a_plus and a solve the same equation
da/dtau = beta - a^2, and theta_plus and theta_x the same linear one
dtheta/dtau = -a theta + beta src.  Within one interval everything is
hyperbolic, with omega = sqrt(beta) and T = tanh(omega tau):

    a = omega (a_r + omega T) / (omega + a_r T)          (Moebius form)
    theta = hom theta_r + drive src,
        hom = omega sech(omega tau) / (omega + a_r T),  drive = a - hom a_r,
    b(t) = b_r * omega sech(omega tau) / (omega + a_r T),
    c(t) = c_r - b_r^2 T / (omega + a_r T),

from the values a_r, theta_r, b_r, c_r at the anchor.  The form holds for
every anchor a_r >= 0, so any stiffness schedule builds.  A delta anchor
(a_r = inf: a_plus at t = 0, a, b, c at t = 1) gives a = omega coth(omega
tau), hom = 0 and drive = omega tanh(omega tau / 2); the terminal b is
omega csch(omega tau) and c = a there.  Anchors of the linear coefficients:
theta_plus(0+) = 0 and theta_x(1-) = theta_y(1-) = 0 (delta kernels carry
no linear term).  The shift propagators lambda solve the same linear ODEs
with the source beta nu replaced by beta.

beta = 0 intervals use the algebraic limits (heat/bridge kernels): omega is
0 there, the scale omega becomes 1, and tanh and sinh the identity.

Each closed form is written once: ``_mobius`` evaluates a and the gains
(hom, drive) for both branches, ``ForwardScalar._forms`` from each left end
and ``BackwardScalar._forms`` from each right end, which adds b, c and the
gains theta_y = y_r + gyx x_r + gy src.  The builders take every anchor
from those evaluators at the interval boundaries: the forward walk at each
right end, the backward walk at each left end, and the linear coefficients
by a short recurrence over the gains of whole intervals.

``CoeffTables.sample(ts)`` is the one evaluator of the assembled tables: it
looks the interval of every time up once, evaluates each branch in a single
pass (forward a_plus and its gains; backward a, b, c and the gains, shared
by the guidance and the shift propagators) and returns one ``KernelCoeffs``
of per-time arrays.  One table may stack several modes' guidance: the gains
broadcast over the modes, so the schedule-only coefficients are built and
sampled once for all of them.  The closed forms are exact at any interior
time, so interval-boundary continuity holds to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import PwcSchedule, interval_of

__all__ = ["CoeffTables", "KernelCoeffs", "build_tables", "DEFAULT_N_STEPS"]

BETA_ZERO = 1e-14
DEFAULT_N_STEPS = 2500  # dense-grid resolution shared with the simulator


def _where(cond, x, y):
    """np.where, kept a plain choice for one time in one interval (the anchor walks' case)."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else (x if cond else y)


def _omega(schedule: PwcSchedule) -> tuple:
    """(zero, omega): the beta == 0 branch mask and sqrt(beta), 0 on that branch."""
    zero = schedule.betas <= BETA_ZERO
    return zero, np.where(zero, 0.0, np.sqrt(schedule.betas))


def _mobius(tau, zero, omega, a_r, delta) -> tuple:
    """(a, hom, drive, s, T, sech, den) at the distance tau from the anchor a_r.

    a solves da/dtau = beta - a^2 from a_r, and theta = hom theta_r + drive
    source solves dtheta/dtau = -a theta + beta source from theta_r.  The
    rows ``delta`` are anchored at a delta (a_r = inf; the anchor arrays hold
    nan there).  s, T, sech and den are the pieces the backward b and c reuse.
    """
    s = _where(zero, 1.0, omega)                 # zero beta: the algebraic limits
    T = _where(zero, tau, np.tanh(omega * tau))
    cosh = np.cosh(omega * tau)
    den = s + a_r * T                            # > 0, as every anchor a_r is
    a = _where(delta, s / _where(delta, T, 1.0), s * (a_r + omega * T) / den)  # T = 0 at a left end, tau = 0
    hom = _where(delta, 0.0, s / (cosh * den))
    drive = _where(delta, omega * np.tanh(0.5 * omega * tau), a - hom * a_r)
    return a, hom, drive, s, T, 1.0 / cosh, den


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
    omega: np.ndarray     # (M,) sqrt(beta), 0 on zero-beta intervals
    zero: np.ndarray      # (M,) bool, beta == 0 branch
    a_left: np.ndarray    # (M,) value at left end of interval i (nan for the first: the delta anchors it)
    a_end: float = np.nan  # value at t = 1

    def _forms(self, t, idx) -> tuple:
        """(a_plus, hom, drive) at the times t in the intervals idx (arrays, or one time and its interval).

        The last two are the gains theta_plus = hom theta_plus(t_i) + drive
        source_i on interval i.
        """
        tau = t - self.schedule.breakpoints[idx]
        return _mobius(tau, self.zero[idx], self.omega[idx], self.a_left[idx], idx == 0)[:3]


def forward_scalar(schedule: PwcSchedule) -> ForwardScalar:
    """Forward Riccati coefficient, anchored at the initial delta."""
    M = schedule.n_intervals
    zero, omega = _omega(schedule)
    fwd = ForwardScalar(schedule, omega, zero, np.full(M, np.nan))
    # walk left to right: the anchor of interval i is the right-end value of i-1
    for i in range(1, M):
        fwd.a_left[i] = fwd._forms(schedule.breakpoints[i], i - 1)[0]
    fwd.a_end = float(fwd._forms(schedule.breakpoints[M], M - 1)[0])
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

    def _forms(self, t, idx) -> tuple:
        """(a, b, c, R, gx, gyx, gy) at the times t in the intervals idx (arrays, or one time and its interval).

        The last four are the gains of the linear pair on interval i:
        theta_x = R x_r + gx source_i and theta_y = y_r + gyx x_r + gy source_i,
        from the values x_r, y_r at the right end (0 on the terminal interval).
        """
        term = idx == self.schedule.n_intervals - 1
        tau = _where(term, 1.0, self.schedule.breakpoints[idx + 1]) - t
        z = self.zero[idx]
        w = self.omega[idx]
        a_r, b_r, c_r = self.a_anchor[idx], self.b_anchor[idx], self.c_anchor[idx]
        a, R, gx, s, T, sech, den = _mobius(tau, z, w, a_r, term)
        b = _where(term, s / _where(z, tau, np.sinh(w * tau)), b_r * s * sech / den)
        c = _where(term, a, c_r - b_r * b_r * T / den)
        gyx = _where(term, 0.0, b_r * (T / den))
        gy = _where(term, gx, b_r * (s * (1.0 - sech) / den))  # terminal: theta_x = theta_y
        return a, b, c, R, gx, gyx, gy


def backward_scalar(schedule: PwcSchedule) -> BackwardScalar:
    """Backward kernel coefficients, anchored at the terminal delta."""
    M = schedule.n_intervals
    zero, omega = _omega(schedule)
    bwd = BackwardScalar(schedule, omega, zero, np.full(M, np.nan), np.full(M, np.nan), np.full(M, np.nan))
    # walk right to left: the anchor of interval i is the left-end value of i+1
    for i in range(M - 2, -1, -1):
        bwd.a_anchor[i], bwd.b_anchor[i], bwd.c_anchor[i] = bwd._forms(schedule.breakpoints[i + 1], i + 1)[:3]
    return bwd


# ----------------------------------------------------------------------------
# linear coefficients (common machinery for guided theta and shift lambda)
# ----------------------------------------------------------------------------

@dataclass
class LinearCoeffs:
    """theta_plus / theta_x / theta_y for a per-interval source.

    ``source[i]`` is nu_i for the guidance coefficients, (d,) or (n_modes, d),
    or the all-ones (1,) for the shift propagators.  Each is a sum of its
    interval anchor and the source weighted by scalar gains of the schedule.
    """

    source: np.ndarray            # (M, *trail)
    plus_start: np.ndarray        # (M, *trail) theta_plus at interval starts
    plus_end: np.ndarray          # (*trail,) theta_plus at t = 1
    x_anchor: np.ndarray          # (M, *trail) theta_x at interval right ends (0 row for terminal)
    y_anchor: np.ndarray          # (M, *trail)

    def _combine(self, plus_gains, pair_gains, idx) -> tuple:
        """(theta_plus, theta_x, theta_y), each (n, *trail), from the gains (n,) of the rows in the intervals idx."""
        src = self.source[idx]
        col = lambda gains: [g.reshape(g.shape + (1,) * (src.ndim - 1)) for g in gains]
        return (_plus(col(plus_gains), self.plus_start[idx], src),
                *_pair(col(pair_gains), self.x_anchor[idx], self.y_anchor[idx], src))


def linear_coeffs(schedule: PwcSchedule, source, fwd: ForwardScalar, bwd: BackwardScalar) -> LinearCoeffs:
    """Propagate the linear coefficients for a per-interval source (M, *trail)."""
    M = schedule.n_intervals
    if source.shape[0] != M:
        raise ValueError(f"need one source value per interval: {source.shape[0]} vs {M}")
    trail = source.shape[1:]
    bp = schedule.breakpoints
    # theta_plus forward over whole intervals: ends[i] = theta_plus(t_i), ends[0] = 0
    plus_gains = np.array(fwd._forms(bp[1:], np.arange(M))[1:])
    ends = np.zeros((M + 1, *trail))
    for i in range(M):
        ends[i + 1] = _plus(plus_gains[:, i], ends[i], source[i])
    # the pair backward: the left-end values of interval i+1 are the anchors of interval i
    pair_gains = np.array(bwd._forms(bp[1:M], np.arange(1, M))[3:])
    x_anchor = np.zeros((M, *trail))
    y_anchor = np.zeros((M, *trail))
    for i in range(M - 2, -1, -1):
        x_anchor[i], y_anchor[i] = _pair(pair_gains[:, i], x_anchor[i + 1], y_anchor[i + 1], source[i + 1])
    return LinearCoeffs(source, ends[:M], ends[M], x_anchor, y_anchor)


# ----------------------------------------------------------------------------
# assembled tables
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelCoeffs:
    """Time-only kernel coefficients at n evaluation times.

    Scalar coefficients are (n,) arrays: a, b, c are the backward kernel's,
    K = c - a_plus(1) is the probe precision and the lam_* are the shift
    propagators.  The guidance's fields theta_plus, theta_x, theta_y and nu
    (the tabled guidance) are (n, d) for one mode and (n, n_modes, d) for
    several.  ``row(j)`` is the slice at one time, which is what the probe,
    posterior and drift take.
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
        # every instance attribute is a field; filling the row's dict skips
        # the frozen __init__, which would set each field through object.__setattr__
        out = object.__new__(type(self))
        vars(out).update({name: v[j] for name, v in vars(self).items()})
        return out


@dataclass
class CoeffTables:
    """Everything the score needs, evaluable exactly at any interior time."""

    schedule: PwcSchedule
    nu: np.ndarray                 # (M, d) or (M, n_modes, d) per-interval guidance values
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
        return self.nu.shape[-1]

    @property
    def n_modes(self) -> int:
        return 1 if self.nu.ndim == 2 else self.nu.shape[1]

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    @property
    def t_clip(self) -> tuple:
        return (0.5 * self.dt, 1.0 - 0.5 * self.dt)

    def sample(self, ts) -> KernelCoeffs:
        """Every coefficient and the guidance value at the times ``ts``.

        The one evaluator of the tables: the score's per-step table, its
        one-time rows, the config dry run and the coefficient CSV dump all
        read it.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        idx = interval_of(self.schedule, ts)
        a, b, c, *pair_gains = self.bwd._forms(ts, idx)
        a_plus, *plus_gains = self.fwd._forms(ts, idx)
        theta_plus, theta_x, theta_y = self.theta._combine(plus_gains, pair_gains, idx)
        lam_plus, lam_x, lam_y = (v[:, 0] for v in self.lam._combine(plus_gains, pair_gains, idx))
        return KernelCoeffs(
            t=ts, a=a, b=b, c=c, K=c - self.a_plus_end, theta_x=theta_x, theta_y=theta_y,
            a_plus=a_plus, theta_plus=theta_plus,
            lam_plus=lam_plus, lam_x=lam_x, lam_y=lam_y, nu=self.nu[idx],
        )


def build_tables(schedule: PwcSchedule, nu_values, n_steps: int = DEFAULT_N_STEPS) -> CoeffTables:
    """Assemble all coefficient trajectories for per-interval guidance values (M, d) or (M, n_modes, d)."""
    nu_values = np.atleast_2d(np.asarray(nu_values, dtype=float))
    fwd = forward_scalar(schedule)
    bwd = backward_scalar(schedule)
    theta = linear_coeffs(schedule, nu_values, fwd, bwd)
    lam = linear_coeffs(schedule, np.ones((schedule.n_intervals, 1)), fwd, bwd)
    return CoeffTables(schedule, nu_values, fwd, bwd, theta, lam, n_steps)
