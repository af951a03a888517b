"""Workloads: the CLI calls each one makes, generated from the seed.

One operation is one ``mfbridge.cli.main`` call.  Every round of a run
repeats the same list, so each round does the same work and the share of
failed operations does not depend on how many rounds fit in a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Particles per guidance mode.  Both keep the 2500 steps the paper's energies
# depend on; only the Monte Carlo batch is cut (the paper uses 8000 / 4000).
SCENARIO_B_PARTICLES = 1000
DSWEEP_PARTICLES = 2000

N_LQG = 12        # generated scalar LQG problems per round
N_CONFIGS = 8     # generated 1-d configs per round, half mixture / half delta start
PRESET_NAMES = ("scenario-a", "scenario-b", "d-sweep", "k-sweep", "ar-sweep", "lqg-tcl")
DENSITY_PRESETS = ("scenario-a", "scenario-b")


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments (``--out`` is added per round) and its check."""

    argv: list
    check: Callable[[Path, str], list]


def scenario_b(seed: int, inputs: Path) -> list:
    argv = ["bridge", "--preset", "scenario-b", "--modes", "mf,ia0,iam",
            "--particles", str(SCENARIO_B_PARTICLES), "--seed", str(seed)]
    return [Op(argv, checks.scenario_b)]


def dsweep_d8(seed: int, inputs: Path) -> list:
    argv = ["sweep", "--preset", "d-sweep", "--values", "8", "--modes", "mf,ia0",
            "--particles", str(DSWEEP_PARTICLES), "--seed", str(seed)]
    return [Op(argv, partial(checks.dsweep_d8, particles=DSWEEP_PARTICLES))]


def draw_lqg(rng: np.random.Generator) -> tuple:
    """(kappa, q, m_tar, sigma_tar) in the ranges of acceptance criterion 1.

    Rejection keeps the target variance on the admissible branch with the
    same 2% margin the acceptance suite uses.
    """
    while True:
        kappa = rng.uniform(0.0, 3.0)
        q = rng.uniform(0.0, 5.0)
        sigma = rng.uniform(0.05, 1.5)
        m_tar = rng.uniform(-3.0, 3.0)
        delta = math.sqrt(kappa * kappa + q)
        if delta >= 1e-6 and sigma**2 < 0.98 * math.tanh(delta) / delta:
            return kappa, q, m_tar, sigma


def draw_mixture(rng: np.random.Generator, mean_range: tuple, sigma_range: tuple) -> tuple:
    """(weights, means, sigmas) with 1-3 components, Dirichlet(1) weights."""
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    means = rng.uniform(*mean_range, size=k)
    sigmas = rng.uniform(*sigma_range, size=k)
    return weights.tolist(), means.tolist(), sigmas.tolist()


def _fmt(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def config_text(name: str, schedule: tuple, target: tuple, initial: tuple | None) -> str:
    beta0, gamma, intervals = schedule
    lines = [f"name = {name}", "d = 1",
             f"schedule.beta0 = {beta0!r}", f"schedule.gamma = {gamma!r}",
             f"schedule.intervals = {intervals}"]
    for section, mix in (("target", target), ("initial", initial)):
        if mix is not None:
            w, m, s = mix
            lines += [f"{section}.weights = {_fmt(w)}", f"{section}.means = {_fmt(m)}",
                      f"{section}.sigmas = {_fmt(s)}"]
    return "\n".join(lines) + "\n"


def draw_config(rng: np.random.Generator, delta_start: bool) -> tuple:
    """(schedule, target, initial) in the ranges of acceptance criteria 2 and 4.

    ``initial`` is None for a delta start at the origin.
    """
    schedule = (float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.3, 1.0)),
                int(rng.choice([1, 2, 4, 8])))
    target = draw_mixture(rng, (-2.0, 3.0), (0.1, 0.8))
    initial = None if delta_start else draw_mixture(rng, (-2.0, 6.0), (0.3, 1.5))
    return schedule, target, initial


def analytic(seed: int, inputs: Path) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(N_LQG):
        kappa, q, m_tar, sigma = draw_lqg(rng)
        argv = ["lqg", f"--kappa={kappa!r}", f"--q={q!r}", f"--m-tar={m_tar!r}", f"--sigma-tar={sigma!r}"]
        ops.append(Op(argv, partial(checks.lqg, kappa=kappa, q=q, m_tar=m_tar, sigma_tar=sigma)))
    inputs.mkdir(parents=True, exist_ok=True)
    for i in range(N_CONFIGS):
        schedule, target, initial = draw_config(rng, delta_start=i % 2 == 1)
        path = inputs / f"config{i}.txt"
        path.write_text(config_text(f"bench-{i}", schedule, target, initial))
        ops.append(Op(["validate", "--config", str(path)], checks.validate))
    # `density` draws its grid around the two mixtures' means +- 4 sigma, and
    # curves that spread past it lose mass off the grid: every delta start
    # and some generated mixture starts, depending on the seed (README,
    # known faults).  So the generated configs are validated only, and the
    # density verb runs on the two scenarios, whose curves the grid holds.
    for name in DENSITY_PRESETS:
        ops.append(Op(["density", "--preset", name], partial(checks.density, target=checks.TARGET_DR)))
    for name in PRESET_NAMES:
        ops.append(Op(["validate", "--preset", name], checks.validate))
    return ops


WORKLOADS = {
    "scenario-b": scenario_b,
    "dsweep-d8": dsweep_d8,
    "analytic": analytic,
}
