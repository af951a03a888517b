"""Euler-Maruyama particle simulation of the controlled bridge.

Conventions:
  * energy is the ensemble average of the per-particle integral of ||u||^2 dt
    with no 1/2 factor, matching the analytic power S^2 Sigma + (S m + s)^2;
  * the drift is evaluated at each step's left endpoint j dt (clipped away
    from the singular ends); every time-only kernel coefficient is evaluated
    once per run over that step grid, and step j reads row j of the table;
  * noise comes from counter-based streams keyed by (seed, stream id), one
    stream per step plus one for the initial draw, so runs are bit-for-bit
    reproducible regardless of how particles are partitioned over workers;
    a stream user holds one Philox generator and re-keys it to each stream
    (counter 0, empty buffer), which draws exactly what a new generator on
    that key would;
  * the steps' draws are made one block of steps ahead on one worker
    thread with its own generator while the caller steps through the block
    before.  No draw depends on the particles, so the results do not
    depend on when the worker makes it;
  * ``run_bridge`` takes one problem (``SimConfig``) and the guidance modes
    to compare on it.  Their guidance reaches the run only through one
    ``CoeffTables`` that stacks it.  The modes advance together: their
    positions are stacked as one group of rows per mode, and the initial
    draw and each step's (B, d) draw are made once and shared, which is
    exactly what separate runs with the same seed would draw; every step
    writes its (M B, d) intermediates into one work array of the run and
    the posterior's (K, M B) log-weights into another.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import threading
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError
from .greens import CoeffTables, build_tables, DEFAULT_N_STEPS
from .guidance import linear_guidance
from .schedule import PwcSchedule
from .score import WORK_SLOTS, GaussianMixture, KernelCoeffs, ScoreContext, _contract

__all__ = ["SimConfig", "EnsembleState", "EnergyReport", "GUIDANCE_MODES", "N_SAVED_PATHS",
           "mode_guidance", "tables_for_modes", "sample_initial", "step", "run_bridge"]

# mf: the linear mean-field interpolant; ia0, iam: independent agents
# steering to zero / to the target mean; cl: closed loop, re-centred at the
# empirical ensemble mean
GUIDANCE_MODES = ("mf", "ia0", "iam", "cl")
N_SAVED_PATHS = 50   # particles per mode whose whole paths a report keeps
_SEED_MASK = (1 << 64) - 1


def _streams(seed: int):
    """Stream id -> the one Generator of a run, its Philox re-keyed to (seed, stream id).

    Each call resets the bit generator to the state ``Philox(key=[seed &
    mask, stream id])`` starts in (counter 0, no buffered or half-used
    word), so its draws are that stream's; no generator is built per call.
    """
    bitgen = np.random.Philox(key=np.array([seed & _SEED_MASK, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state

    def stream(stream_id: int) -> np.random.Generator:
        fresh["state"]["key"][1] = stream_id
        bitgen.state = fresh
        return gen
    return stream


NOISE_BLOCK_BYTES = 256 * 1024   # draws per block of the noise thread, rounded down to whole steps


def _lowest_priority() -> None:
    """Lower the calling thread to nice 19 on Linux, where nice is per thread; a refusal only costs speed."""
    if sys.platform == "linux":
        with contextlib.suppress(OSError):
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)


class _NoiseBlocks:
    """Step j's (B, d) draw from stream 1 + j, made one block of steps ahead on a worker thread.

    A block holds ``max(1, NOISE_BLOCK_BYTES // (8 B d))`` steps.  The
    worker fills block k + 1 into one of two buffers while the caller steps
    through block k in the other; numpy fills ``standard_normal(out=...)``
    without the GIL, so the worker draws on a second core.  On Linux the
    worker runs at the lowest priority, so a core that both threads share
    goes to the caller.  The worker draws from its own ``_streams(seed)``.
    Leaving the context joins the worker, and an exception in it is raised
    in the caller.  ``wait_s`` is the caller's time spent waiting for
    blocks.
    """

    def __init__(self, seed: int, n_steps: int, n_particles: int, dim: int):
        self.n_steps = n_steps
        self.per_block = max(1, NOISE_BLOCK_BYTES // (8 * n_particles * dim))
        self.wait_s = 0.0
        self._stream = _streams(seed)
        self._buffers = np.empty((2, min(self.per_block, n_steps), n_particles, dim))
        self._pool = ThreadPoolExecutor(1, "mfbridge-noise", initializer=_lowest_priority)

    def _steps(self, k: int) -> range:
        return range(k * self.per_block, min((k + 1) * self.per_block, self.n_steps))

    def _fill(self, k: int) -> None:
        buf = self._buffers[k % 2]
        for i, j in enumerate(self._steps(k)):
            self._stream(1 + j).standard_normal(out=buf[i])

    def __enter__(self):
        self._next = self._pool.submit(self._fill, 0)
        return self

    def __exit__(self, *exc_info):
        self._pool.shutdown()

    def __iter__(self):
        n_blocks = -(-self.n_steps // self.per_block)
        for k in range(n_blocks):
            t0 = time.perf_counter()
            self._next.result()
            self.wait_s += time.perf_counter() - t0
            if k + 1 < n_blocks:
                self._next = self._pool.submit(self._fill, k + 1)
            yield from self._buffers[k % 2][:len(self._steps(k))]


@dataclass
class SimConfig:
    target: GaussianMixture
    schedule: PwcSchedule
    initial: GaussianMixture | None = None      # None: delta at the origin
    n_particles: int = 8000
    n_steps: int = DEFAULT_N_STEPS
    seed: int = 20250101
    snapshot_times: tuple = ()   # record full particle positions at the steps nearest these times

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if self.n_steps < 10:
            raise ValueError("need at least 10 steps")
        if self.initial is not None and self.initial.dim != self.target.dim:
            raise ValueError("initial/target dimension mismatch")

    @property
    def dim(self) -> int:
        return self.target.dim

    @property
    def initial_mean(self) -> np.ndarray:
        return self.initial.mean if self.initial is not None else np.zeros(self.dim)


def mode_guidance(config: SimConfig, mode: str) -> np.ndarray:
    """A mode's per-interval guidance (n_intervals, d); cl's is mf's."""
    sched = config.schedule
    if mode == "ia0":
        return np.zeros((sched.n_intervals, config.dim))
    if mode == "iam":
        return np.tile(config.target.mean, (sched.n_intervals, 1))
    return linear_guidance(config.initial_mean, config.target.mean, sched.midpoints())


def tables_for_modes(config: SimConfig, modes: Sequence[str]) -> CoeffTables:
    """One coefficient table of the modes' stacked guidance (n_intervals, n_modes, d) on the run's step grid."""
    guidance = np.stack([mode_guidance(config, m) for m in modes], axis=1)
    return build_tables(config.schedule, guidance, config.n_steps)


@dataclass
class EnsembleState:
    """Particles of M stacked modes: one group of B rows per mode, in mode order.

    The modes share the initial draw, so ``labels`` and ``shifts`` are one
    mode's.
    """

    positions: np.ndarray     # (M * B, d)
    labels: np.ndarray        # (B,) initial-component assignment
    shifts: np.ndarray | None  # (B, d) per-particle start points, None for delta
    energy: np.ndarray        # (M * B,) accumulated int ||u||^2 dt
    zone_energy: np.ndarray   # (M, d) per-mode ensemble-mean energy per coordinate
    step_index: int = 0


def sample_initial(config: SimConfig, rng: np.random.Generator, n_modes: int = 1) -> EnsembleState:
    """The initial draw, repeated for each of ``n_modes`` stacked modes."""
    B, d = config.n_particles, config.dim
    if config.initial is None:
        positions = np.zeros((B, d))
        labels = np.zeros(B, dtype=int)
        shifts = None
    else:
        mix = config.initial
        labels = rng.choice(mix.n_components, size=B, p=mix.weights)
        noise = rng.standard_normal((B, d))
        positions = np.empty((B, d))
        for j in range(mix.n_components):
            mask = labels == j
            if not np.any(mask):
                continue
            L = np.linalg.cholesky(mix.covariances[j])
            positions[mask] = mix.means[j] + noise[mask] @ L.T
        shifts = positions.copy()
    return EnsembleState(np.tile(positions, (n_modes, 1)), labels, shifts,
                         np.zeros(n_modes * B), np.zeros((n_modes, d)))


@functools.lru_cache(maxsize=4)
def _ones(n: int) -> np.ndarray:
    """A read-only vector of n ones, the summing vector of the particle means and energies."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def _particle_mean(by_mode: np.ndarray) -> np.ndarray:
    """(M, B, d) -> (M, d): the mean over each mode's particles."""
    return _ones(by_mode.shape[1]) @ by_mode / by_mode.shape[1]


def _mean_std(by_mode: np.ndarray, out: np.ndarray):
    """Mean and standard deviation over the particles of each mode, (M, d) each; ``out`` takes the deviations."""
    mean = _particle_mean(by_mode)
    dev = np.subtract(by_mode, mean[:, None, :], out=out.reshape(by_mode.shape))
    dev *= dev
    return mean, np.sqrt(_particle_mean(dev))


def _first_bad_row(values: np.ndarray, n_particles: int) -> str:
    bad = int(np.argwhere(~np.all(np.isfinite(values), axis=1))[0, 0])
    return f"particle {bad % n_particles} of mode {bad // n_particles}"


def step(state: EnsembleState, ctx: ScoreContext, table: KernelCoeffs, dt: float, noise: np.ndarray,
         work: np.ndarray, post: np.ndarray, closed_loop: np.ndarray | None = None) -> EnsembleState:
    """One Euler-Maruyama update of every mode at row ``state.step_index`` of the step table.

    The step's (B, d) standard-normal draw ``noise`` is added to every
    mode's rows; it is read, not changed.
    ``work`` (WORK_SLOTS, M B, d) takes the drift and every intermediate,
    ``post`` (2, K, M B) the posterior's log-weights.  ``closed_loop``
    marks the modes whose kernel slots re-centre at their batch mean (None:
    no mode).  Mutates and returns ``state``.
    """
    M = ctx.n_modes
    n, d = state.positions.shape
    B = n // M
    co = table.row(state.step_index)
    by_mode = state.positions.reshape(M, B, d)
    nu_hat = None
    if closed_loop is not None:
        nu_hat = np.where(closed_loop[:, None], _particle_mean(by_mode), co.nu.reshape(M, d))
    u = ctx.score_batch(co, state.positions, state.shifts, nu_hat, work, post)
    uu = np.multiply(u, u, out=work[0])
    gained = _contract(uu, _ones(d), work[1].reshape(-1)[:n])
    gained *= dt
    state.energy += gained
    state.zone_energy += _particle_mean(uu.reshape(M, B, d)) * dt
    increment = np.multiply(u, dt, out=work[1]).reshape(M, B, d)
    increment += np.multiply(math.sqrt(dt), noise, out=work[2][:B])
    by_mode += increment
    # one scan per step: a non-finite drift always leaves a non-finite position
    if not np.isfinite(state.positions).all():
        t = state.step_index * dt
        if not np.isfinite(u).all():
            raise DivergedError(f"non-finite drift for {_first_bad_row(u, B)} at t={t:.6f}")
        raise DivergedError(f"non-finite position for {_first_bad_row(state.positions, B)} at t={t + dt:.6f}")
    state.step_index += 1
    return state


@dataclass
class EnergyReport:
    total: float
    stderr: float | None           # None for a single particle
    particle_energy: np.ndarray    # (B,) per-particle totals (paired comparisons)
    component_energy: dict          # label -> (mean, stderr, count); primary attribution
    component_energy_terminal: dict  # terminal-basin attribution
    attribution: str                # "initial" or "terminal"
    fractions: np.ndarray           # empirical component fractions (primary)
    power: np.ndarray               # (n_steps,) batch-mean ||u||^2 per step
    energy_trace: np.ndarray        # (n_steps + 1,) cumulative
    mean_trace: np.ndarray          # (n_steps + 1, d) batch mean position
    std_trace: np.ndarray           # (n_steps + 1, d)
    terminal_mean: dict             # label -> (d,)
    terminal_std: dict              # label -> (d,)
    zone_energy: np.ndarray         # (d,)
    trajectories: np.ndarray        # (n_saved, n_steps + 1, d)
    snapshots: dict = field(default_factory=dict)   # step time k/n -> (B, d) positions
    shifts: np.ndarray | None = None                # (B, d) start points, mixture runs
    seed: int = 0
    guidance_mode: str = ""
    wall_seconds: float = 0.0
    step_loop_seconds: float = 0.0   # the pass's step loop, noise_wait_seconds included
    noise_wait_seconds: float = 0.0  # the step loop's time blocked on the noise thread

    def summary(self) -> dict:
        def entry(v):
            return {"energy": v[0], "stderr": v[1], "count": v[2]}

        comp = {str(k): entry(v) for k, v in self.component_energy.items()}
        comp_term = {str(k): entry(v) for k, v in self.component_energy_terminal.items()}
        return {
            "total_energy": self.total,
            "stderr": self.stderr,
            "component_energy": comp,
            "component_energy_terminal": comp_term,
            "attribution": self.attribution,
            "fractions": self.fractions.tolist(),
            "zone_energy": self.zone_energy.tolist(),
            "seed": self.seed,
            "guidance_mode": self.guidance_mode,
            "wall_seconds": self.wall_seconds,
        }


def _per_component(energy: np.ndarray, labels: np.ndarray, n_comp: int) -> dict:
    """label -> (mean, stderr, count); the mean is None for no particle, the stderr for fewer than two."""
    out = {}
    for k in range(n_comp):
        mask = labels == k
        n = int(mask.sum())
        if n == 0:
            out[k] = (None, None, 0)
        else:
            e = energy[mask]
            out[k] = (float(e.mean()), float(e.std(ddof=1) / np.sqrt(n)) if n > 1 else None, n)
    return out


def run_bridge(config: SimConfig, modes: Sequence[str] = ("mf",),
               tables: CoeffTables | None = None) -> list[EnergyReport]:
    """Bridge simulation of the guidance ``modes`` on one problem, in one stacked pass.

    The modes share the initial draw and each step's noise draw, which is
    exactly what separate runs with one seed would draw.  ``tables``, whose
    guidance holds one mode per entry of ``modes``, defaults to
    ``tables_for_modes``; an unknown mode or a mode-count mismatch raises
    ValueError before any particle moves.  Returns one ``EnergyReport`` per
    mode, in order; each carries the whole pass's wall time, step-loop time
    and the step loop's wait for the noise thread.  The noise thread is
    joined on every way out.
    """
    t_start = time.perf_counter()
    modes = list(modes)
    if not modes:
        raise ValueError("need at least one mode")
    unknown = [m for m in modes if m not in GUIDANCE_MODES]
    if unknown:
        raise ValueError(f"unknown guidance modes {unknown}; choose from {GUIDANCE_MODES}")
    tables = tables_for_modes(config, modes) if tables is None else tables
    if tables.n_modes != len(modes):
        raise ValueError(f"tables hold {tables.n_modes} guidance modes for {len(modes)} modes")
    ctx = ScoreContext(tables, config.target, config.initial)
    M, B, d, n = len(modes), config.n_particles, config.dim, config.n_steps
    dt = 1.0 / n
    table = ctx.coeff_table(np.arange(n) * dt)
    closed_loop = np.array([m == "cl" for m in modes])
    closed_loop = closed_loop if closed_loop.any() else None
    n_saved = min(N_SAVED_PATHS, B)
    work = np.empty((WORK_SLOTS, M * B, d))
    post = np.empty((2, config.target.n_components, M * B))
    power = np.empty((M, n))
    mean_trace = np.empty((M, n + 1, d))
    std_trace = np.empty((M, n + 1, d))
    trajectories = np.empty((M, n_saved, n + 1, d))
    # a snapshot is keyed by the time of the step it is recorded at
    snapshot_steps = {min(n, max(0, int(round(ts * n)))) for ts in config.snapshot_times}
    snapshots = {}

    # the worker draws the first block while the initial draw is made from stream 0
    with _NoiseBlocks(config.seed, n, B, d) as noise:
        state = sample_initial(config, _streams(config.seed)(0), M)
        by_mode = state.positions.reshape(M, B, d)
        mean_trace[:, 0], std_trace[:, 0] = _mean_std(by_mode, work[0])
        trajectories[:, :, 0] = by_mode[:, :n_saved]
        if 0 in snapshot_steps:
            snapshots[0.0] = by_mode.copy()

        energy = state.energy.reshape(M, B)
        prev_energy = np.zeros((M, B))
        gained = np.empty((M, B))
        t_loop = time.perf_counter()
        for j, xi in enumerate(noise):
            step(state, ctx, table, dt, xi, work, post, closed_loop)
            power[:, j] = np.subtract(energy, prev_energy, out=gained).sum(axis=1) / B / dt
            prev_energy[...] = energy
            mean_trace[:, j + 1], std_trace[:, j + 1] = _mean_std(by_mode, work[0])
            trajectories[:, :, j + 1] = by_mode[:, :n_saved]
            if j + 1 in snapshot_steps:
                snapshots[(j + 1) / n] = by_mode.copy()
        loop_s = time.perf_counter() - t_loop
    # a finite drift past about 1e154 overflows its square, which the position scan misses
    if not np.isfinite(state.energy).all():
        raise DivergedError(f"non-finite energy for {_first_bad_row(state.energy[:, None], B)}")

    # terminal-basin attribution from the posterior responsibilities just
    # before the pinning time
    pi_bar = ctx.responsibilities(ctx.coeffs(1.0 - 0.5 * dt), state.positions, state.shifts)
    terminal_labels = np.argmax(pi_bar, axis=1).reshape(M, B)

    attribution = "initial" if config.initial is not None else "terminal"
    n_primary = config.initial.n_components if config.initial is not None else config.target.n_components
    n_target = config.target.n_components
    wall = time.perf_counter() - t_start
    reports = []
    for m, mode in enumerate(modes):
        e, labels, final = energy[m], terminal_labels[m], by_mode[m]
        primary = state.labels if config.initial is not None else labels
        comp = _per_component(e, primary, n_primary)
        term_mean, term_std = {}, {}
        for k in range(n_target):
            mask = labels == k
            if np.any(mask):
                term_mean[k] = final[mask].mean(axis=0)
                term_std[k] = final[mask].std(axis=0)
        reports.append(EnergyReport(
            total=float(e.mean()),
            stderr=float(e.std(ddof=1) / np.sqrt(B)) if B > 1 else None,
            particle_energy=e,
            component_energy=comp,
            component_energy_terminal=_per_component(e, labels, n_target),
            attribution=attribution,
            fractions=np.array([comp[k][2] / B for k in range(n_primary)]),
            power=power[m],
            energy_trace=np.concatenate([[0.0], np.cumsum(power[m]) * dt]),
            mean_trace=mean_trace[m],
            std_trace=std_trace[m],
            terminal_mean=term_mean,
            terminal_std=term_std,
            zone_energy=state.zone_energy[m],
            trajectories=trajectories[m],
            snapshots={ts: snap[m] for ts, snap in snapshots.items()},
            shifts=state.shifts,
            seed=config.seed,
            guidance_mode=mode,
            wall_seconds=wall,
            step_loop_seconds=loop_s,
            noise_wait_seconds=noise.wait_s,
        ))
    return reports
