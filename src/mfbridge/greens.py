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

beta = 0 intervals use the algebraic limits (heat/bridge kernels); all
evaluators accept scalar or vector t and are exact at any interior time, so
interval-boundary continuity holds to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoefficientDomainError
from .schedule import PwcSchedule, interval_of

__all__ = ["ForwardScalar", "BackwardScalar", "LinearCoeffs", "CoeffTables",
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

    def a(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.atleast_1d(interval_of(self.schedule, t_arr))
        tau = t_arr - self.schedule.breakpoints[idx]
        out = np.empty_like(t_arr)
        hyp = ~self.zero[idx]
        if np.any(hyp):
            w, ph = self.omega[idx[hyp]], self.phi[idx[hyp]]
            out[hyp] = w / np.tanh(w * tau[hyp] + ph)
        if np.any(~hyp):
            out[~hyp] = 1.0 / (tau[~hyp] + self.inv_a_start[idx[~hyp]])
        return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


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

    def _eval(self, t, which: str):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.atleast_1d(interval_of(self.schedule, t_arr))
        bp = self.schedule.breakpoints
        M = self.schedule.n_intervals
        out = np.empty_like(t_arr)
        term = idx == M - 1
        if np.any(term):
            sg = 1.0 - t_arr[term]
            i = idx[term]
            w = self.omega[i]
            z = self.zero[i]
            vals = np.empty_like(sg)
            if np.any(~z):
                ws = w[~z] * sg[~z]
                if which == "b":
                    vals[~z] = w[~z] / np.sinh(ws)
                else:
                    vals[~z] = w[~z] / np.tanh(ws)
            if np.any(z):
                vals[z] = 1.0 / sg[z]
            out[term] = vals
        if np.any(~term):
            i = idx[~term]
            tau = bp[i + 1] - t_arr[~term]
            w = self.omega[i]
            a_r, b_r, c_r = self.a_anchor[i], self.b_anchor[i], self.c_anchor[i]
            z = self.zero[i]
            T = np.where(z, tau, np.tanh(np.where(z, 0.0, w) * tau))
            den = np.where(z, 1.0 + a_r * tau, w + a_r * T)
            if np.any(den <= 0):
                bad = int(i[den <= 0][0])
                raise CoefficientDomainError(f"backward recursion denominator vanished on interval {bad}")
            if which == "a":
                out[~term] = np.where(z, a_r / den, w * (a_r + w * T) / den)
            elif which == "b":
                sech = np.where(z, 1.0, 1.0 / np.cosh(np.where(z, 0.0, w) * tau))
                out[~term] = np.where(z, b_r / den, b_r * w * sech / den)
            else:
                out[~term] = c_r - b_r * b_r * T / den
        return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    def a(self, t):
        return self._eval(t, "a")

    def b(self, t):
        return self._eval(t, "b")

    def c(self, t):
        return self._eval(t, "c")


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

    def _shape(self, t, out):
        return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    def theta_plus(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.atleast_1d(interval_of(self.schedule, t_arr))
        tau = t_arr - self.schedule.breakpoints[idx]
        out = np.zeros((t_arr.size, self.source.shape[1]))
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
        return self._shape(t, out)

    def _backward_pair(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.atleast_1d(interval_of(self.schedule, t_arr))
        bp = self.schedule.breakpoints
        M = self.schedule.n_intervals
        d = self.source.shape[1]
        thx = np.zeros((t_arr.size, d))
        thy = np.zeros((t_arr.size, d))
        for i in np.unique(idx):
            m = idx == i
            nu = self.source[i]
            if i == M - 1:
                sg = 1.0 - t_arr[m]
                if self.bwd.zero[i]:
                    continue  # no source: thetas stay 0
                w = self.bwd.omega[i]
                val = w * np.tanh(0.5 * w * sg)
                thx[m] = val[:, None] * nu
                thy[m] = val[:, None] * nu
            else:
                tau = bp[i + 1] - t_arr[m]
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

    def theta_x(self, t):
        return self._shape(t, self._backward_pair(t)[0])

    def theta_y(self, t):
        return self._shape(t, self._backward_pair(t)[1])


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
        t_left = schedule.breakpoints[i + 1]
        # left-end values of interval i+1 become the anchors of interval i
        saved = lc._backward_pair(np.array([t_left]))
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

    # scalar coefficient evaluators --------------------------------------
    def a_plus(self, t):
        return self.fwd.a(t)

    def a_minus(self, t):
        return self.bwd.a(t)

    def b_minus(self, t):
        return self.bwd.b(t)

    def c_minus(self, t):
        return self.bwd.c(t)

    # linear coefficient evaluators ---------------------------------------
    def theta_plus(self, t):
        return self.theta.theta_plus(t)

    def theta_x(self, t):
        return self.theta.theta_x(t)

    def theta_y(self, t):
        return self.theta.theta_y(t)

    @staticmethod
    def _scalarize(v):
        return float(v[0]) if v.ndim == 1 else v[:, 0]

    def lambda_plus(self, t):
        return self._scalarize(self.lam.theta_plus(t))

    def lambda_x(self, t):
        return self._scalarize(self.lam.theta_x(t))

    def lambda_y(self, t):
        return self._scalarize(self.lam.theta_y(t))

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

    def nu_at(self, t):
        idx = interval_of(self.schedule, t)
        return self.nu[idx]

    def probe_precision(self, t):
        """K_t = c_minus(t) - a_plus(1); positive on (0, 1) for sane schedules."""
        return self.c_minus(t) - self.a_plus_end

    def sample(self, ts=None) -> dict:
        """Every coefficient and the guidance value at the times ``ts``.

        The one evaluation of the tables over many times: the score's
        per-step table and the coefficient CSV dump both read it.
        """
        if ts is None:
            ts = np.arange(1, self.n_steps) * self.dt
        ts = np.asarray(ts, dtype=float)
        return {
            "t": ts,
            "a_plus": self.a_plus(ts),
            "a_minus": self.a_minus(ts),
            "b_minus": self.b_minus(ts),
            "c_minus": self.c_minus(ts),
            "theta_plus": np.atleast_2d(self.theta_plus(ts)),
            "theta_x": np.atleast_2d(self.theta_x(ts)),
            "theta_y": np.atleast_2d(self.theta_y(ts)),
            "lambda_plus": np.atleast_1d(self.lambda_plus(ts)),
            "lambda_x": np.atleast_1d(self.lambda_x(ts)),
            "lambda_y": np.atleast_1d(self.lambda_y(ts)),
            "nu": np.atleast_2d(self.nu_at(ts)),
        }


def build_tables(schedule: PwcSchedule, nu_values, n_steps: int = DEFAULT_N_STEPS) -> CoeffTables:
    """Assemble all coefficient trajectories for per-interval guidance values."""
    nu_values = np.atleast_2d(np.asarray(nu_values, dtype=float))
    fwd = forward_scalar(schedule)
    bwd = backward_scalar(schedule)
    theta = linear_coeffs(schedule, nu_values, fwd, bwd)
    lam = shift_propagators(schedule, fwd, bwd)
    return CoeffTables(schedule, nu_values, fwd, bwd, theta, lam, n_steps)
