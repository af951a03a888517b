import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from mfbridge.errors import CoefficientDomainError
from mfbridge.greens import build_tables, forward_scalar, backward_scalar, linear_coeffs, shift_propagators
from mfbridge.schedule import PwcSchedule, geometric_schedule, interval_of


def _source_fn(schedule, values):
    bp = schedule.breakpoints

    def src(t):
        i = min(np.searchsorted(bp, t, side="right") - 1, len(values) - 1)
        return np.atleast_1d(values[max(i, 0)])

    return src


def _random_schedule(rng):
    m = int(rng.choice([1, 2, 4, 8]))
    return geometric_schedule(rng.uniform(0.5, 20.0), rng.uniform(0.3, 1.0), m)


def _zero_guidance_tables(sched):
    return build_tables(sched, np.zeros((sched.n_intervals, 1)))


def test_forward_heat_kernel_limit():
    sched = PwcSchedule([0.0, 0.4, 1.0], [0.0, 0.0], allow_zero_beta=True)
    ts = np.linspace(0.02, 0.98, 25)
    co = _zero_guidance_tables(sched).sample(ts)
    assert np.max(np.abs(co.a_plus * ts - 1.0)) < 1e-12


def test_forward_single_interval_value():
    sched = PwcSchedule([0.0, 1.0], [4.0])
    co = _zero_guidance_tables(sched).sample([0.5])
    assert co.a_plus[0] == pytest.approx(2.0 / np.tanh(1.0), rel=1e-14)


def test_backward_terminal_interval_values():
    sched = PwcSchedule([0.0, 1.0], [4.0])
    co = _zero_guidance_tables(sched).sample([0.5])
    assert co.a[0] == pytest.approx(2.0 / np.tanh(1.0), rel=1e-14)
    assert co.c[0] == pytest.approx(2.0 / np.tanh(1.0), rel=1e-14)
    assert co.b[0] == pytest.approx(2.0 / np.sinh(1.0), rel=1e-14)


def test_backward_bridge_kernel_limit():
    sched = PwcSchedule([0.0, 0.3, 1.0], [0.0, 0.0], allow_zero_beta=True)
    ts = np.linspace(0.02, 0.98, 25)
    co = _zero_guidance_tables(sched).sample(ts)
    for v in (co.a, co.b, co.c):
        assert np.max(np.abs(v * (1.0 - ts) - 1.0)) < 1e-12


def test_paper_schedule_matches_rk4(paper_schedule, relerr):
    nu = np.linspace(2.8, 0.6, 17)[1::2][:, None]
    tab = build_tables(paper_schedule, nu)
    ts = np.linspace(0.011, 0.989, 37)
    co = tab.sample(ts)
    assert relerr(co.a_plus, oracles.rk4_riccati_forward(paper_schedule, ts)) < 1e-4
    a_o, b_o, c_o = oracles.rk4_riccati_backward(paper_schedule, ts)
    assert relerr(co.a, a_o) < 1e-4
    assert relerr(co.b, b_o) < 1e-4
    assert relerr(co.c, c_o) < 1e-4
    src = _source_fn(paper_schedule, nu)
    thp = oracles.rk4_linear_forward(paper_schedule, src, ts)
    assert np.max(np.abs(co.theta_plus - thp)) < 1e-4 * max(1, np.max(np.abs(thp)))
    thx, thy = oracles.rk4_linear_backward(paper_schedule, src, ts)
    assert np.max(np.abs(co.theta_x - thx)) < 1e-4 * max(1, np.max(np.abs(thx)))
    assert np.max(np.abs(co.theta_y - thy)) < 1e-4 * max(1, np.max(np.abs(thy)))


def test_shift_propagators_match_unit_source(paper_schedule):
    fwd = forward_scalar(paper_schedule)
    bwd = backward_scalar(paper_schedule)
    lam = shift_propagators(paper_schedule, fwd, bwd)
    ones = np.ones((paper_schedule.n_intervals, 1))
    theta = linear_coeffs(paper_schedule, ones, fwd, bwd)
    ts = np.linspace(0.05, 0.95, 19)
    idx = interval_of(paper_schedule, ts)
    for got, want in zip(lam.evaluate(ts, idx), theta.evaluate(ts, idx)):
        assert np.array_equal(got, want)


def test_lambda_zero_without_interaction():
    sched = PwcSchedule([0.0, 0.5, 1.0], [0.0, 0.0], allow_zero_beta=True)
    co = _zero_guidance_tables(sched).sample(np.linspace(0.05, 0.95, 11))
    assert np.max(np.abs(co.lam_plus)) == 0.0
    assert np.max(np.abs(co.lam_x)) == 0.0
    assert np.max(np.abs(co.lam_y)) == 0.0


def test_theta_zero_for_zero_guidance(paper_schedule):
    co = _zero_guidance_tables(paper_schedule).sample(np.linspace(0.05, 0.95, 11))
    assert np.max(np.abs(co.theta_plus)) == 0.0
    assert np.max(np.abs(co.theta_x)) == 0.0
    assert np.max(np.abs(co.theta_y)) == 0.0


def test_theta_plus_constant_protocol_endpoint():
    beta, nubar = 3.0, 0.8
    sched = PwcSchedule([0.0, 1.0], [beta])
    tab = build_tables(sched, [[nubar]])
    w = np.sqrt(beta)
    want = (beta / w) * nubar * (np.cosh(w) - 1.0) / np.sinh(w)
    assert float(tab.theta_plus_end[0]) == pytest.approx(want, rel=1e-14)


def test_random_schedules_match_rk4(relerr):
    rng = np.random.default_rng(11)
    for _ in range(6):
        sched = _random_schedule(rng)
        nu = rng.uniform(-2.0, 3.0, size=(sched.n_intervals, 1))
        ts = np.linspace(0.015, 0.985, 23)
        co = build_tables(sched, nu).sample(ts)
        assert relerr(co.a_plus, oracles.rk4_riccati_forward(sched, ts)) < 1e-4
        a_o, b_o, c_o = oracles.rk4_riccati_backward(sched, ts)
        assert relerr(co.a, a_o) < 1e-4
        assert relerr(co.b, b_o) < 1e-4
        assert relerr(co.c, c_o) < 1e-4
        src = _source_fn(sched, nu)
        thx, thy = oracles.rk4_linear_backward(sched, src, ts)
        scale = max(1.0, np.max(np.abs(thx)), np.max(np.abs(thy)))
        assert np.max(np.abs(co.theta_x - thx)) < 1e-4 * scale
        assert np.max(np.abs(co.theta_y - thy)) < 1e-4 * scale


def test_boundary_continuity(paper_schedule):
    nu = np.linspace(2.8, 0.6, 17)[1::2][:, None]
    tab = build_tables(paper_schedule, nu)
    eps = 1e-11
    for bp in paper_schedule.breakpoints[1:-1]:
        right, left, mid = (tab.sample([t]).row(0) for t in (bp + eps, bp - eps, bp))
        for name in ("a_plus", "a", "b", "c"):
            f_r, f_l, f_m = (getattr(co, name) for co in (right, left, mid))
            assert abs(f_r - f_l) < 1e-9 * max(1.0, abs(f_m))
        for name in ("theta_plus", "theta_x", "theta_y"):
            assert np.max(np.abs(getattr(right, name) - getattr(left, name))) < 1e-9


def test_riccati_residuals_by_central_differences(paper_schedule):
    # residuals are scaled by the local coefficient magnitude: near the
    # singular tails the finite-difference truncation alone exceeds any
    # absolute bound, for exact closed forms included
    nu = np.linspace(2.8, 0.6, 17)[1::2][:, None]
    tab = build_tables(paper_schedule, nu)
    h = 1e-6
    # stay inside interval interiors: central differences cannot straddle kinks
    ts = np.concatenate([np.linspace(lo + 0.01, hi - 0.01, 7)
                         for lo, hi in zip(paper_schedule.breakpoints[:-1], paper_schedule.breakpoints[1:])])
    beta = paper_schedule.betas[np.searchsorted(paper_schedule.breakpoints, ts, side="right") - 1]
    co, up, down = tab.sample(ts), tab.sample(ts + h), tab.sample(ts - h)
    adot = (up.a_plus - down.a_plus) / (2 * h)
    scale = np.maximum(1.0, co.a_plus ** 2)
    assert np.max(np.abs(-adot + beta - co.a_plus ** 2) / scale) < 1e-5
    am, bm = co.a, co.b
    amdot = (up.a - down.a) / (2 * h)
    assert np.max(np.abs(amdot + beta - am**2) / np.maximum(1.0, am**2)) < 1e-5
    bdot = (up.b - down.b) / (2 * h)
    assert np.max(np.abs(bdot - am * bm) / np.maximum(1.0, np.abs(am * bm))) < 1e-5
    cdot = (up.c - down.c) / (2 * h)
    assert np.max(np.abs(cdot - bm**2) / np.maximum(1.0, bm**2)) < 1e-5


def test_singular_tails():
    sched = geometric_schedule(12.0, 0.65, 8)
    tab = build_tables(sched, np.zeros((8, 1)))
    assert abs(1e-4 * tab.sample([1e-4]).a_plus[0] - 1.0) < 1e-3
    co = tab.sample([1.0 - 1e-4])
    for v in (co.a, co.b, co.c):
        assert abs(1e-4 * v[0] - 1.0) < 1e-3


def test_positive_coefficients_and_small_beta_limit():
    rng = np.random.default_rng(5)
    for _ in range(8):
        sched = geometric_schedule(rng.uniform(0.5, 20.0), rng.uniform(0.3, 1.0), int(rng.choice([1, 2, 4, 8])))
        co = _zero_guidance_tables(sched).sample(np.linspace(0.01, 0.99, 53))
        assert np.all(co.a_plus > 0)
        assert np.all(co.a > 0)
    tiny = geometric_schedule(1e-8, 1.0, 4)
    ts = np.linspace(0.02, 0.98, 33)
    co = _zero_guidance_tables(tiny).sample(ts)
    assert np.max(np.abs(co.a_plus * ts - 1.0)) < 1e-4
    assert np.max(np.abs(co.a * (1 - ts) - 1.0)) < 1e-4


def test_probe_precision_positive(paper_schedule):
    tab = build_tables(paper_schedule, np.zeros((8, 1)))
    ts = np.linspace(2e-4, 1 - 2e-4, 4999)
    K = tab.probe_precision(ts)
    assert np.all(K > 0)


def test_increasing_beta_guard():
    # a_plus drops below the next interval's omega -> coth branch undefined
    sched = PwcSchedule([0.0, 0.5, 1.0], [0.5, 400.0])
    with pytest.raises(CoefficientDomainError):
        forward_scalar(sched)


def test_dense_sample_shapes(paper_schedule):
    nu = np.linspace(2.8, 0.6, 17)[1::2][:, None]
    tab = build_tables(paper_schedule, nu, n_steps=500)
    table = tab.sample(np.arange(1, tab.n_steps) * tab.dt)
    assert table.t.shape == (499,)
    assert table.a_plus.shape == (499,)
    assert table.theta_plus.shape == (499, 1)
    assert np.all(np.isfinite(table.lam_y))
    assert np.array_equal(table.K, table.c - tab.a_plus_end)


def test_sample_looks_up_intervals_once(paper_schedule, monkeypatch):
    import mfbridge.greens as greens

    calls = []
    lookup = greens.interval_of
    monkeypatch.setattr(greens, "interval_of", lambda *a: calls.append(1) or lookup(*a))
    tab = build_tables(paper_schedule, np.ones((8, 2)))
    calls.clear()
    tab.sample(np.linspace(0.01, 0.99, 41))
    assert len(calls) == 1


# one interval: a width weight (normalised below) and a stiffness, zero or hyperbolic
_INTERVAL = st.tuples(st.floats(0.05, 1.0), st.one_of(st.just(0.0), st.floats(0.2, 20.0)))


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(intervals=st.lists(_INTERVAL, min_size=1, max_size=5), d=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_mixed_zero_beta_schedules_match_rk4(intervals, d, seed, relerr):
    widths, betas = (np.array(v) for v in zip(*intervals))
    bp = np.concatenate([[0.0], np.cumsum(widths) / np.sum(widths)])
    bp[-1] = 1.0
    sched = PwcSchedule(bp, betas, allow_zero_beta=True)
    nu = np.random.default_rng(seed).uniform(-2.0, 3.0, size=(sched.n_intervals, d))
    ts = np.linspace(0.015, 0.985, 23)
    # the coth branch of interval i is defined iff a_plus enters it above omega_i
    inner = bp[1:-1]
    a_fwd = oracles.rk4_riccati_forward(sched, np.concatenate([inner, ts, [1.0]]))
    hyp = betas[1:] > 0
    ratio = a_fwd[:inner.size][hyp] / np.sqrt(betas[1:][hyp])
    assume(np.all(np.abs(ratio - 1.0) > 1e-3))   # too close to the edge for the RK4 reference to decide
    if np.any(ratio < 1.0):
        with pytest.raises(CoefficientDomainError):
            build_tables(sched, nu)
        return
    co = build_tables(sched, nu).sample(ts)
    a_plus_o, a_plus_end_o = a_fwd[inner.size:-1], a_fwd[-1]
    assert relerr(co.a_plus, a_plus_o) < 1e-4
    a_o, b_o, c_o = oracles.rk4_riccati_backward(sched, ts)
    assert relerr(co.a, a_o) < 1e-4
    assert relerr(co.b, b_o) < 1e-4
    assert relerr(co.c, c_o) < 1e-4
    # K = c - a_plus(1) cancels: its error is bounded by those of its two terms
    assert np.max(np.abs(co.K - (c_o - a_plus_end_o)) / (c_o + a_plus_end_o)) < 1e-4
    # one extra all-ones channel carries the shift propagators
    src = _source_fn(sched, np.hstack([nu, np.ones((sched.n_intervals, 1))]))
    assert np.array_equal(co.nu, np.array([src(t)[:d] for t in ts]))
    thp = oracles.rk4_linear_forward(sched, src, ts)
    thx, thy = oracles.rk4_linear_backward(sched, src, ts)
    for got, want in ((co.theta_plus, thp[:, :d]), (co.lam_plus, thp[:, d])):
        assert np.max(np.abs(got - want)) < 1e-4 * max(1.0, np.max(np.abs(want)))
    for got_x, got_y, want_x, want_y in ((co.theta_x, co.theta_y, thx[:, :d], thy[:, :d]),
                                         (co.lam_x, co.lam_y, thx[:, d], thy[:, d])):
        scale = max(1.0, np.max(np.abs(want_x)), np.max(np.abs(want_y)))
        assert np.max(np.abs(got_x - want_x)) < 1e-4 * scale
        assert np.max(np.abs(got_y - want_y)) < 1e-4 * scale
