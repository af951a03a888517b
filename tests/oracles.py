"""Brute-force reference computations used by the test suite.

Everything here is deliberately independent of the closed-form code paths it
checks: fixed-step RK4 for the Riccati / linear coefficient ODEs, bisection
shooting for the two-point boundary values (superposition for the linear mean
block), log-domain Simpson quadrature for the bridge potential psi and its
score, and the per-component eigenbasis posterior the score used before it
grouped components into shared bases.  Inner loops use plain floats on
purpose; the oracles must stay cheap enough to run inside the gate suite.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from scipy.special import logsumexp

from mfbridge.schedule import PwcSchedule

__all__ = [
    "rk4_path",
    "rk4_riccati_forward",
    "rk4_riccati_backward",
    "rk4_linear_forward",
    "rk4_linear_backward",
    "lqg_shoot",
    "lqg_linear_shoot",
    "bisection_shoot",
    "log_simpson",
    "psi_quadrature",
    "psi_score_fd",
    "simulate_affine_bridge",
    "posterior_reference",
]

# RK4 step bounds: geometric growth out of the singular endpoint, fixed elsewhere.
H_SINGULAR = 1e-5
H_REGULAR = 4e-4
SINGULAR_ZONE = 0.02


def rk4_path(f, y0, t_start, t_evals, breakpoints=None, h_of_t=None):
    """Integrate y' = f(t, y) from t_start through sorted t_evals with RK4.

    Segment endpoints include every breakpoint so no step straddles a
    discontinuity of f.  ``h_of_t`` maps the current time to the local step
    bound; near a 1/t-type singular start it must shrink proportionally to
    the distance from the singularity or explicit RK4 blows up.
    Returns y values at t_evals, shape (len(t_evals), dim).
    """
    t_evals = np.asarray(t_evals, dtype=float)
    nodes = set(float(te) for te in t_evals)
    if breakpoints is not None:
        lo, hi = t_start, float(t_evals.max())
        nodes.update(float(b) for b in np.asarray(breakpoints, float) if lo < b < hi)
    nodes = sorted(nodes)
    if h_of_t is None:
        h_of_t = lambda t: H_REGULAR

    y = np.array(y0, dtype=float, copy=True)
    t = float(t_start)
    out = {}
    for t_next in nodes:
        seg_lo = t
        # clip stage times into the open segment so piecewise-constant
        # integrand pieces are always read from the segment's own interval
        clip = lambda tq: min(max(tq, seg_lo + 1e-12), t_next - 1e-12)
        while t < t_next - 1e-15:
            h = min(h_of_t(t), t_next - t)
            k1 = f(clip(t), y)
            k2 = f(clip(t + 0.5 * h), y + 0.5 * h * k1)
            k3 = f(clip(t + 0.5 * h), y + 0.5 * h * k2)
            k4 = f(clip(t + h), y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        t = t_next
        out[t_next] = y.copy()
    return np.array([out[float(te)] for te in t_evals])


def _beta_lookup(schedule: PwcSchedule):
    # plain-float bisection: this runs at every RK4 stage
    bp = schedule.breakpoints.tolist()
    be = schedule.betas.tolist()
    last = len(be) - 1

    def beta_at(t: float) -> float:
        i = bisect.bisect_right(bp, min(max(t, 0.0), 1.0)) - 1
        return be[min(max(i, 0), last)]

    return beta_at


def _h_singular_start(t):
    # the 1/t tail forces h ~ t for explicit stability; 2% growth per step
    if t < SINGULAR_ZONE:
        return max(H_SINGULAR * t / SINGULAR_ZONE, 0.02 * t)
    return H_REGULAR


def rk4_riccati_forward(schedule: PwcSchedule, t_evals, eps: float = 1e-6):
    """Reference forward coefficient: a' = beta - a^2, a(eps) = 1/eps."""
    beta_at = _beta_lookup(schedule)

    def f(t, y):
        return np.array([beta_at(t) - y[0] * y[0]])

    vals = rk4_path(f, [1.0 / eps], eps, t_evals, schedule.breakpoints, _h_singular_start)
    return vals[:, 0]


def rk4_riccati_backward(schedule: PwcSchedule, t_evals, eps: float = 1e-6):
    """Reference backward coefficients (a, b, c) at t_evals.

    Integrated in reversed time s = 1 - t from the regularized terminal
    condition a = b = c = 1/eps at s = eps.
    """
    beta_at = _beta_lookup(schedule)

    def f(s, y):
        a, b, _ = y
        beta = beta_at(1.0 - s)
        return np.array([beta - a * a, -a * b, -b * b])

    t_evals = np.asarray(t_evals, dtype=float)
    s_evals = 1.0 - t_evals
    order = np.argsort(s_evals)
    rev_bp = np.sort(1.0 - np.asarray(schedule.breakpoints))
    vals = rk4_path(f, [1.0 / eps] * 3, eps, s_evals[order], rev_bp, _h_singular_start)
    out = np.empty_like(vals)
    out[order] = vals
    return out[:, 0], out[:, 1], out[:, 2]


def rk4_linear_forward(schedule: PwcSchedule, sources, t_evals, eps: float = 1e-6):
    """Reference forward linear coefficient, one scalar ODE per source channel.

    Joint integration of (a, th_1..th_d):  a' = beta - a^2,
    th' = -a th + beta * src_i(t),  th(eps) = 0.  ``sources`` maps t to a
    (d,) vector (the per-interval guidance value, or all ones for the shift
    propagator).
    """
    beta_at = _beta_lookup(schedule)
    d = np.atleast_1d(sources(0.5)).size

    def f(t, y):
        a, th = y[0], y[1:]
        beta = beta_at(t)
        return np.concatenate([[beta - a * a], -a * th + beta * np.atleast_1d(sources(t))])

    y0 = np.concatenate([[1.0 / eps], np.zeros(d)])
    vals = rk4_path(f, y0, eps, t_evals, schedule.breakpoints, _h_singular_start)
    return vals[:, 1:]


def rk4_linear_backward(schedule: PwcSchedule, sources, t_evals, eps: float = 1e-6):
    """Reference backward linear pair (th_x, th_y), anchored to zero at t = 1.

    Joint reversed-time integration of (a, b, th_x, th_y):
        da/ds = beta - a^2,  db/ds = -a b,
        dth_x/ds = -a th_x + beta * src,  dth_y/ds = b th_x,
    from a = b = 1/eps, th = 0 at s = eps.  The th anchors at the terminal
    delta kernel are exactly zero; starting them at zero at s = eps incurs
    only an O(eps) offset.
    """
    beta_at = _beta_lookup(schedule)
    d = np.atleast_1d(sources(0.5)).size

    def f(s, y):
        a, b = y[0], y[1]
        thx, thy = y[2 : 2 + d], y[2 + d :]
        beta = beta_at(1.0 - s)
        return np.concatenate(
            [[beta - a * a, -a * b], -a * thx + beta * np.atleast_1d(sources(1.0 - s)), b * thx]
        )

    t_evals = np.asarray(t_evals, dtype=float)
    s_evals = 1.0 - t_evals
    order = np.argsort(s_evals)
    rev_bp = np.sort(1.0 - np.asarray(schedule.breakpoints))
    y0 = np.concatenate([[1.0 / eps, 1.0 / eps], np.zeros(2 * d)])
    vals = rk4_path(f, y0, eps, s_evals[order], rev_bp, _h_singular_start)
    out = np.empty_like(vals)
    out[order] = vals
    return out[:, 2 : 2 + d], out[:, 2 + d :]


def bisection_shoot(objective, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of a continuous scalar objective by bisection; requires a sign change."""
    f_lo, f_hi = objective(lo), objective(hi)
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]: f = ({f_lo}, {f_hi})")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = objective(mid)
        if f_mid == 0 or (hi - lo) < tol:
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------------
# Scalar mean-reverting bridge: reference integration + shooting.
# Pure-float inner loops; these run hundreds of times inside the gate suite.
# ----------------------------------------------------------------------------

def _sweep_S_backward(kappa: float, q: float, S1: float, n_half: int) -> list:
    """Backward RK4 for S' = S^2 + 2 kappa S - q on a grid of n_half+1 nodes."""
    h = 1.0 / n_half
    S = [0.0] * (n_half + 1)
    S[n_half] = S1
    for i in range(n_half, 0, -1):
        y = S[i]
        k1 = y * y + 2 * kappa * y - q
        y2 = y - 0.5 * h * k1
        k2 = y2 * y2 + 2 * kappa * y2 - q
        y3 = y - 0.5 * h * k2
        k3 = y3 * y3 + 2 * kappa * y3 - q
        y4 = y - h * k3
        k4 = y4 * y4 + 2 * kappa * y4 - q
        S[i - 1] = y - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return S


def _sweep_Sigma_forward(kappa: float, S: list) -> list:
    """Forward RK4 for Sigma' = -2 (kappa + S) Sigma + 1 on the coarse grid.

    ``S`` lives on the half-resolution grid (2n+1 nodes for n Sigma steps).
    """
    n = (len(S) - 1) // 2
    h = 1.0 / n
    Sig = [0.0] * (n + 1)
    for j in range(n):
        i = 2 * j
        y = Sig[j]
        c0, cm, c1 = -2 * (kappa + S[i]), -2 * (kappa + S[i + 1]), -2 * (kappa + S[i + 2])
        k1 = c0 * y + 1
        k2 = cm * (y + 0.5 * h * k1) + 1
        k3 = cm * (y + 0.5 * h * k2) + 1
        k4 = c1 * (y + h * k3) + 1
        Sig[j + 1] = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return Sig


def lqg_shoot(kappa: float, q: float, sigma_tar: float, n_steps: int | None = None):
    """Bridge reference: bisection on S(1) until Sigma(1) = sigma_tar^2.

    Returns (grid, S, Sigma, S1, S_half): grid of n_steps+1 uniform nodes
    plus the half-resolution S list reusable by lqg_linear_shoot.  The step
    count auto-scales with the terminal stiffness (S(1) grows like 1/sigma^2
    for tight targets, and explicit RK4 needs h << 1/S).
    """
    delta = math.sqrt(kappa * kappa + q)
    if n_steps is None:
        stiffness = 1.0 / sigma_tar**2 + kappa + 2.0 * delta
        n_steps = max(400, int(math.ceil(16.0 * stiffness)))
    n_half = 2 * n_steps

    def objective(S1):
        S = _sweep_S_backward(kappa, q, S1, n_half)
        return _sweep_Sigma_forward(kappa, S)[-1] - sigma_tar**2

    # admissible branch is S(1) > -kappa; the degenerate bridge limit needs
    # the Brownian bound instead (S(1) > -1, kept away from the pole)
    lo = -kappa + 1e-9 if delta >= 1e-8 else -0.6
    hi = max(10.0, 4 * delta)
    while objective(hi) > 0 and hi < 1e7:
        hi *= 4.0
    S1 = bisection_shoot(objective, lo, hi, tol=1e-13)
    S = _sweep_S_backward(kappa, q, S1, n_half)
    Sigma = _sweep_Sigma_forward(kappa, S)
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    return grid, np.array(S[::2]), np.array(Sigma), S1, S


def lqg_linear_shoot(kappa: float, q: float, m_tar: float, S_half: list, m_bar: float | None = None):
    """Mean-block reference: shoot s(0) so the induced mean hits m_tar.

    Integrates  s' = q*src + (kappa + S) s,  m' = -(kappa + S) m - s,
    m(0) = 0, where src is the running mean m itself (mean-coupled case,
    ``m_bar is None``) or the fixed exogenous centre ``m_bar``.
    Returns (grid, s, m, s0).  ``S_half`` is the half-resolution S list from
    lqg_shoot's sweeps (pass 2*n_steps+1 nodes).
    """
    n = (len(S_half) - 1) // 2
    h = 1.0 / n
    coupled = m_bar is None

    def sweep(s0):
        s = [0.0] * (n + 1)
        m = [0.0] * (n + 1)
        s[0] = s0
        for j in range(n):
            i = 2 * j
            sv, mv = s[j], m[j]
            g0, gm, g1 = kappa + S_half[i], kappa + S_half[i + 1], kappa + S_half[i + 2]

            def fs(g, sv_, mv_):
                return q * (mv_ if coupled else m_bar) + g * sv_

            def fm(g, sv_, mv_):
                return -g * mv_ - sv_

            k1s, k1m = fs(g0, sv, mv), fm(g0, sv, mv)
            k2s, k2m = fs(gm, sv + 0.5 * h * k1s, mv + 0.5 * h * k1m), fm(gm, sv + 0.5 * h * k1s, mv + 0.5 * h * k1m)
            k3s, k3m = fs(gm, sv + 0.5 * h * k2s, mv + 0.5 * h * k2m), fm(gm, sv + 0.5 * h * k2s, mv + 0.5 * h * k2m)
            k4s, k4m = fs(g1, sv + h * k3s, mv + h * k3m), fm(g1, sv + h * k3s, mv + h * k3m)
            s[j + 1] = sv + (h / 6.0) * (k1s + 2 * k2s + 2 * k3s + k4s)
            m[j + 1] = mv + (h / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
        return s, m

    # the block is linear in (s, m) and so is each RK4 step: m(1) is affine
    # in s(0), and two sweeps give the exact shot
    m1_at_0 = sweep(0.0)[1][-1]
    gain = sweep(1.0)[1][-1] - m1_at_0
    if gain == 0.0:
        raise ValueError("terminal mean does not depend on s(0); no shot exists")
    s0 = (m_tar - m1_at_0) / gain
    s, m = sweep(s0)
    grid = np.linspace(0.0, 1.0, n + 1)
    return grid, np.array(s), np.array(m), s0


# ----------------------------------------------------------------------------
# Quadrature evaluation of the bridge potential psi (1-d only).
# ----------------------------------------------------------------------------

def log_simpson(log_f: np.ndarray, h: float) -> float:
    """log of the composite-Simpson integral of exp(log_f) on a uniform grid."""
    n = log_f.size
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson needs an odd number of nodes >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(logsumexp(log_f + np.log(w * h / 3.0)))


def _quad_nodes(target, probe_mean: float, probe_var: float, n: int = 4001):
    """Node range covering >= 8 sigma of every mixture component and the probe."""
    means = np.asarray(target.means, float).ravel()
    sds = np.sqrt(np.array([np.max(np.diag(np.atleast_2d(c))) for c in target.covariances]))
    lo = min(float(np.min(means - 8 * sds)), probe_mean - 8 * math.sqrt(probe_var))
    hi = max(float(np.max(means + 8 * sds)), probe_mean + 8 * math.sqrt(probe_var))
    return np.linspace(lo, hi, n)


def psi_quadrature(coeffs, target, t: float, x: float, n: int = 4001) -> float:
    """log psi_t(x) (up to an x-independent constant) by Simpson quadrature.

    Integrates p_tar(y) * G^-_t(x; y) / G^+_1(y; 0) in the log domain, with
    the kernels assembled from raw-coordinate coefficients supplied by
    ``coeffs`` (a/b/c at t, the raw linear pair th_x/th_y at t, and the
    forward endpoint pair).  1-d only.
    """
    co = coeffs.sample([t]).row(0)
    a, b, c = co.a, co.b, co.c
    thx = float(co.theta_x[0])
    thy = float(co.theta_y[0])
    a1 = coeffs.a_plus_end
    th1 = float(np.atleast_1d(coeffs.theta_plus_end)[0])

    K = c - a1
    if K <= 0:
        raise ValueError(f"non-integrable probe at t={t}: c_minus - a_plus(1) = {K}")
    mu = (b * x + thy - th1) / K
    y = _quad_nodes(target, mu, 1.0 / K, n)

    log_tar = target.logpdf(y[:, None])
    log_ratio = -0.5 * a * x * x + b * x * y - 0.5 * c * y * y + thx * x + thy * y - (-0.5 * a1 * y * y + th1 * y)
    return log_simpson(log_tar + log_ratio, y[1] - y[0])


def psi_score_fd(coeffs, target, t: float, x: float, h: float = 1e-4) -> float:
    """Central-difference d/dx log psi_t(x) from the quadrature oracle."""
    return (psi_quadrature(coeffs, target, t, x + h) - psi_quadrature(coeffs, target, t, x - h)) / (2 * h)


# ----------------------------------------------------------------------------
# Monte-Carlo oracle for the scalar mean-reverting bridge energy.
# ----------------------------------------------------------------------------

def simulate_affine_bridge(kappa, S_of_t, s_of_t, n_particles=8000, n_steps=2500, seed=7):
    """Euler-Maruyama run of dx = (-kappa x + u) dt + dW with u = -S x - s, x0 = 0.

    Returns (mean, stderr) of the per-particle integral of ||u||^2 dt
    (left-endpoint rule, matching the production energy convention).
    """
    rng = np.random.default_rng(seed)
    dt = 1.0 / n_steps
    x = np.zeros(n_particles)
    energy = np.zeros(n_particles)
    for j in range(n_steps):
        t = j * dt
        u = -S_of_t(t) * x - s_of_t(t)
        energy += u * u * dt
        x += (-kappa * x + u) * dt + rng.standard_normal(n_particles) * math.sqrt(dt)
    return float(energy.mean()), float(energy.std(ddof=1) / math.sqrt(n_particles))


# ----------------------------------------------------------------------------
# mixture posterior, one component at a time
# ----------------------------------------------------------------------------

def posterior_reference(target, K: float, w: np.ndarray):
    """Responsibilities (B, K) and per-component posterior means (B, K, d) of probes w (B, d).

    The probe is a pseudo-observation of the target with noise covariance
    I/K.  Each component is handled in its own eigenbasis, with its own
    rotation in and out, and the log-weights are normalised after a max shift.
    """
    B, d = w.shape
    n_comp = target.n_components
    log_w = np.empty((B, n_comp))
    m_bar = np.empty((B, n_comp, d))
    for k in range(n_comp):
        lam, U = np.linalg.eigh(target.covariances[k])
        pw = w @ U
        vk = target.means[k] @ U
        noise = lam + 1.0 / K
        log_w[:, k] = (
            np.log(target.weights[k])
            - 0.5 * np.sum((pw - vk) ** 2 / noise, axis=1)
            - 0.5 * np.sum(np.log(noise))
            - 0.5 * d * np.log(2.0 * np.pi)
        )
        m_bar[:, k, :] = ((vk + K * lam * pw) / (1.0 + K * lam)) @ U.T
    pi_bar = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    pi_bar /= pi_bar.sum(axis=1, keepdims=True)
    return pi_bar, m_bar
