import numpy as np
import pytest

from mfbridge.schedule import PwcSchedule, geometric_schedule, interval_of


def test_geometric_paper_values():
    sched = geometric_schedule(12.0, 0.65, 8)
    assert sched.betas[0] == 12.0
    assert sched.betas[1] == pytest.approx(7.8, abs=1e-12)
    assert np.allclose(sched.breakpoints, np.linspace(0, 1, 9))


def test_geometric_constant_when_gamma_one():
    sched = geometric_schedule(5.0, 1.0, 4)
    assert np.all(sched.betas == 5.0)


def test_geometric_ratio_exact():
    sched = geometric_schedule(3.7, 0.42, 12)
    ratios = sched.betas[1:] / sched.betas[:-1]
    assert np.max(np.abs(ratios - 0.42)) < 1e-15


@pytest.mark.parametrize("bad", [
    dict(beta0=0.0, gamma=0.5, n_intervals=4),
    dict(beta0=-1.0, gamma=0.5, n_intervals=4),
    dict(beta0=1.0, gamma=0.0, n_intervals=4),
    dict(beta0=1.0, gamma=1.5, n_intervals=4),
    dict(beta0=1.0, gamma=0.5, n_intervals=0),
])
def test_geometric_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        geometric_schedule(bad["beta0"], bad["gamma"], bad["n_intervals"])


def test_interval_lookup_examples():
    sched = geometric_schedule(1.0, 1.0, 8)
    assert interval_of(sched, 0.0) == 0
    assert interval_of(sched, 0.999) == 7
    assert interval_of(sched, 0.125) == 1  # left-closed intervals
    assert interval_of(sched, 1.0) == 7


def test_interval_lookup_rejects_outside():
    sched = geometric_schedule(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        interval_of(sched, -0.01)
    with pytest.raises(ValueError):
        interval_of(sched, 1.01)


def test_interval_bracketing_property():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = int(rng.integers(1, 9))
        bp = np.sort(rng.uniform(0.05, 0.95, size=m - 1)) if m > 1 else np.array([])
        bp = np.concatenate([[0.0], bp, [1.0]])
        sched = PwcSchedule(bp, rng.uniform(0.5, 5.0, size=m))
        ts = rng.uniform(0.0, 1.0, size=200)
        idx = interval_of(sched, ts)
        assert np.all(sched.breakpoints[idx] <= ts)
        assert np.all(ts < sched.breakpoints[idx + 1] + (idx == m - 1))


def test_schedule_validation():
    with pytest.raises(ValueError):
        PwcSchedule([0.0, 0.5, 0.9], [1.0, 1.0])       # last != 1
    with pytest.raises(ValueError):
        PwcSchedule([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0])  # not increasing
    with pytest.raises(ValueError):
        PwcSchedule([0.0, 1.0], [1.0, 2.0])            # wrong beta count
    with pytest.raises(ValueError):
        PwcSchedule([0.0, 1.0], [-1.0])                # negative beta
    sched = PwcSchedule([0.0, 1.0], [0.0])             # zero beta: the bridge limit
    assert sched.betas[0] == 0.0
