import os

import numpy as np
import pytest

from mfbridge.schedule import geometric_schedule
from mfbridge.score import GaussianMixture


def _has_child() -> bool:
    """Whether the test process has a child, running or exited and not yet reaped; reaps none."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(autouse=True)
def no_child_process_left_behind():
    """Fail a test that leaves a child process of the test process unreaped (the noise process included)."""
    if not hasattr(os, "waitid"):
        yield
        return
    had_child = _has_child()
    yield
    if not had_child and _has_child():
        pytest.fail("the test left a child process unreaped")


@pytest.fixture(scope="session")
def paper_schedule():
    return geometric_schedule(12.0, 0.65, 8)


@pytest.fixture(scope="session")
def dr_target():
    return GaussianMixture.isotropic([0.6, 0.4], [0.0, 1.5], [0.2, 0.3])


@pytest.fixture(scope="session")
def initial_a():
    return GaussianMixture.isotropic([0.6, 0.4], [1.0, 6.0], [3.0, 3.0])


@pytest.fixture(scope="session")
def initial_b():
    return GaussianMixture.isotropic([0.6, 0.4], [1.5, 5.5], [0.5, 0.7])


def rel_err(got, want, floor=1e-12):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.max(np.abs(got - want) / np.maximum(floor, np.abs(want)))


@pytest.fixture(scope="session")
def relerr():
    return rel_err
