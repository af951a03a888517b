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
  * the steps' draws are made one block of steps ahead in a forked child
    process with its own GIL and its own copy of the generator, while the
    caller steps through the block before (where ``os.fork`` does not
    exist, the caller draws each block itself).  No draw depends on the
    particles, so the results do not depend on where or when it is made;
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
import mmap
import os
import pickle
import signal
import struct
import time
import warnings
from collections.abc import Sequence
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


NOISE_BLOCK_BYTES = 256 * 1024   # draws per block of the noise process, rounded down to whole steps
# a message of the noise process: b"r" and its drawing time so far in ns, or b"e" and a pickle's length
_MESSAGE = struct.Struct("=cQ")


class _NoiseBlocks:
    """Step j's (B, d) draw from stream 1 + j, made one block of steps ahead in a forked child process.

    A block holds ``max(1, NOISE_BLOCK_BYTES // (8 B d))`` steps.  The
    child fills block k + 1 into one of two buffers of an anonymous shared
    mmap while the caller steps through block k in the other, so the draws
    never take the caller's GIL.  Two pipes carry the signals: "block k
    ready" (with the child's drawing time so far) goes to the caller, and
    "slot free" comes back.  The child draws from its own copy of the
    object's ``_streams(seed)``, leaves through ``os._exit`` (it never
    flushes the caller's stdio) and exits on EOF when the caller's pipe
    ends close.  Leaving the context kills and reaps the child; an
    exception in it is raised in the caller with its type and message.
    Where ``os.fork`` does not exist, the caller fills each block itself.
    ``wait_s`` is the caller's time spent getting blocks, ``draw_s`` the
    time spent drawing them.
    """

    def __init__(self, seed: int, n_steps: int, n_particles: int, dim: int):
        self.n_steps = n_steps
        self.per_block = max(1, NOISE_BLOCK_BYTES // (8 * n_particles * dim))
        self.n_blocks = -(-n_steps // self.per_block)
        self.wait_s = 0.0
        self.draw_s = 0.0
        self._stream = _streams(seed)
        shape = (2, min(self.per_block, n_steps), n_particles, dim)
        self._buffers = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)
        self._pid = None
        self._fds = ()

    def _steps(self, k: int) -> range:
        return range(k * self.per_block, min((k + 1) * self.per_block, self.n_steps))

    def _fill(self, k: int) -> None:
        buf = self._buffers[k % 2]
        for i, j in enumerate(self._steps(k)):
            self._stream(1 + j).standard_normal(out=buf[i])

    def __enter__(self):
        if not hasattr(os, "fork"):
            return self
        ready_r, ready_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python >= 3.12 warns on a fork while threads (OpenBLAS's) run; the
                # child only draws and writes to its pipe, and runs no BLAS
                warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                        DeprecationWarning)
                pid = os.fork()
        except BaseException:
            for fd in (ready_r, ready_w, free_r, free_w):
                os.close(fd)
            raise
        if pid == 0:
            os.close(ready_r)
            os.close(free_w)   # else the child would hold open the pipe it waits on
            self._child(free_r, ready_w)
        os.close(ready_w)
        os.close(free_r)
        self._pid, self._fds = pid, (ready_r, free_w)
        return self

    def _child(self, free_r: int, ready_w: int) -> None:
        """The child's whole life: fill the blocks in order, each into a slot the caller has freed."""
        code = 0
        try:
            draw_ns = 0
            for k in range(self.n_blocks):
                if k >= 2 and not os.read(free_r, 1):
                    break   # the caller has gone
                t0 = time.perf_counter_ns()
                self._fill(k)
                draw_ns += time.perf_counter_ns() - t0
                os.write(ready_w, _MESSAGE.pack(b"r", draw_ns))
        except BrokenPipeError:
            pass   # the caller has gone
        except BaseException as exc:
            code = 1
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            with contextlib.suppress(OSError):
                os.write(ready_w, _MESSAGE.pack(b"e", len(payload)) + payload)
        finally:
            os._exit(code)

    def _read(self, n: int) -> bytes:
        data = b""
        while len(data) < n:
            chunk = os.read(self._fds[0], n - len(data))
            if not chunk:
                _, status = os.waitpid(self._pid, 0)
                self._pid = None
                raise RuntimeError(f"the noise process ended with exit code "
                                   f"{os.waitstatus_to_exitcode(status)} before its block was ready")
            data += chunk
        return data

    def __exit__(self, *exc_info):
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        for fd in self._fds:
            os.close(fd)
        self._fds = ()

    def __iter__(self):
        for k in range(self.n_blocks):
            t0 = time.perf_counter()
            if not self._fds:
                self._fill(k)
                self.draw_s += time.perf_counter() - t0
            else:
                if 0 < k < self.n_blocks - 1:
                    # block k - 1's slot takes block k + 1; a child that has gone says why on the read
                    with contextlib.suppress(BrokenPipeError):
                        os.write(self._fds[1], b"f")
                tag, value = _MESSAGE.unpack(self._read(_MESSAGE.size))
                if tag == b"e":
                    raise pickle.loads(self._read(value))
                self.draw_s = value * 1e-9
            self.wait_s += time.perf_counter() - t0
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
    ``work`` (WORK_SLOTS, M B, d) takes every intermediate and the drift,
    which the step leaves in work[3]; ``post`` (2, K, M B) the posterior's
    log-weights.  ``closed_loop`` marks the modes whose kernel slots
    re-centre at their batch mean (None: no mode).  Mutates and returns
    ``state``.
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
    drifts: dict = field(default_factory=dict)      # step time k/n, k < n -> (B, d) drift step k applied
    shifts: np.ndarray | None = None                # (B, d) start points, mixture runs
    seed: int = 0
    guidance_mode: str = ""
    wall_seconds: float = 0.0
    step_loop_seconds: float = 0.0   # the pass's step loop, noise_wait_seconds included
    noise_wait_seconds: float = 0.0  # the step loop's time spent getting noise blocks
    noise_draw_seconds: float = 0.0  # the time spent drawing the steps' noise, in the noise process

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
    mode, in order; each carries the whole pass's wall time, step-loop time,
    the step loop's wait for noise blocks and the noise draws' own time.
    The noise process is killed and reaped on every way out.
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
    # a snapshot is keyed by the time of the step it is recorded at; so is the
    # drift that step applies at the snapshot's positions (none at step n)
    snapshot_steps = {min(n, max(0, int(round(ts * n)))) for ts in config.snapshot_times}
    snapshots, drifts = {}, {}

    # the noise process draws the first block while the initial draw is made from stream 0
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
            if j in snapshot_steps:
                drifts[j / n] = work[3].reshape(M, B, d).copy()   # the drift step leaves in work[3]
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
            drifts={ts: u[m] for ts, u in drifts.items()},
            shifts=state.shifts,
            seed=config.seed,
            guidance_mode=mode,
            wall_seconds=wall,
            step_loop_seconds=loop_s,
            noise_wait_seconds=noise.wait_s,
            noise_draw_seconds=noise.draw_s,
        ))
    return reports
