"""Euler-Maruyama particle simulation of the controlled bridge.

Conventions:
  * energy is the ensemble average of the per-particle integral of ||u||^2 dt
    with no 1/2 factor, matching the analytic power S^2 Sigma + (S m + s)^2;
  * the drift is evaluated at each step's left endpoint j dt (clipped away
    from the singular ends); every time-only kernel coefficient is evaluated
    once per run over that step grid, and step j reads row j of the table;
  * noise comes from counter-based streams keyed by (seed, stream id), one
    stream per step plus one for the initial draw, so runs are bit-for-bit
    reproducible regardless of how particles are partitioned over workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError
from .greens import CoeffTables, build_tables, DEFAULT_N_STEPS
from .guidance import GuidanceTrajectory, constant_guidance, linear_guidance
from .schedule import PwcSchedule
from .score import GaussianMixture, KernelCoeffs, ScoreContext

__all__ = ["SimConfig", "EnsembleState", "EnergyReport", "GUIDANCE_MODES",
           "guidance_for_mode", "tables_for_mode", "sample_initial", "step", "run_bridge"]

GUIDANCE_MODES = ("mf-linear", "ia-zero", "ia-target-mean", "closed-loop")
_SEED_MASK = (1 << 64) - 1


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    key = np.array([seed & _SEED_MASK, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class SimConfig:
    target: GaussianMixture
    schedule: PwcSchedule
    initial: GaussianMixture | None = None      # None: delta at the origin
    guidance_mode: str = "mf-linear"
    guidance: GuidanceTrajectory | None = None  # explicit trajectory override
    n_particles: int = 8000
    n_steps: int = DEFAULT_N_STEPS
    seed: int = 20250101
    n_saved_paths: int = 50
    snapshot_times: tuple = ()   # record full particle positions at these times

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if self.n_steps < 10:
            raise ValueError("need at least 10 steps")
        if self.guidance_mode not in GUIDANCE_MODES:
            raise ValueError(f"unknown guidance mode {self.guidance_mode!r}; choose from {GUIDANCE_MODES}")
        if self.initial is not None and self.initial.dim != self.target.dim:
            raise ValueError("initial/target dimension mismatch")

    @property
    def dim(self) -> int:
        return self.target.dim

    @property
    def initial_mean(self) -> np.ndarray:
        return self.initial.mean if self.initial is not None else np.zeros(self.dim)


def guidance_for_mode(config: SimConfig) -> GuidanceTrajectory:
    """Analytic guidance for each mode; closed-loop tables use the linear one."""
    if config.guidance is not None:
        return config.guidance
    mode = config.guidance_mode
    if mode in ("mf-linear", "closed-loop"):
        return linear_guidance(config.initial_mean, config.target.mean)
    if mode == "ia-zero":
        return constant_guidance(np.zeros(config.dim))
    if mode == "ia-target-mean":
        return constant_guidance(config.target.mean)
    raise ValueError(mode)


def tables_for_mode(config: SimConfig) -> CoeffTables:
    """Coefficient tables of the configured guidance on the run's step grid."""
    guidance = guidance_for_mode(config)
    return build_tables(config.schedule, guidance.pwc_values(config.schedule), config.n_steps)


@dataclass
class EnsembleState:
    positions: np.ndarray     # (B, d)
    labels: np.ndarray        # (B,) initial-component assignment
    shifts: np.ndarray | None  # (B, d) per-particle start points, None for delta
    energy: np.ndarray        # (B,) accumulated int ||u||^2 dt
    zone_energy: np.ndarray   # (d,) ensemble-mean energy per coordinate
    step_index: int = 0


def sample_initial(config: SimConfig, rng: np.random.Generator) -> EnsembleState:
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
    return EnsembleState(positions, labels, shifts, np.zeros(B), np.zeros(d))


def step(state: EnsembleState, ctx: ScoreContext, table: KernelCoeffs, dt: float, rng: np.random.Generator,
         closed_loop: bool = False) -> EnsembleState:
    """One Euler-Maruyama update at row ``state.step_index`` of the step table.

    Mutates and returns ``state``.
    """
    t = state.step_index * dt
    nu_hat = state.positions.mean(axis=0) if closed_loop else None
    u = ctx.score_batch(table.row(state.step_index), state.positions, state.shifts, nu_hat)
    if not np.all(np.isfinite(u)):
        bad = int(np.argwhere(~np.all(np.isfinite(u), axis=1))[0, 0])
        raise DivergedError(f"non-finite drift for particle {bad} at t={t:.6f}")
    state.energy += np.sum(u * u, axis=1) * dt
    state.zone_energy += np.mean(u * u, axis=0) * dt
    xi = rng.standard_normal(state.positions.shape)
    state.positions += u * dt + np.sqrt(dt) * xi
    if not np.all(np.isfinite(state.positions)):
        bad = int(np.argwhere(~np.all(np.isfinite(state.positions), axis=1))[0, 0])
        raise DivergedError(f"non-finite position for particle {bad} at t={t + dt:.6f}")
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
    snapshots: dict = field(default_factory=dict)   # time -> (B, d) positions
    shifts: np.ndarray | None = None                # (B, d) start points, mixture runs
    seed: int = 0
    guidance_mode: str = ""
    wall_seconds: float = 0.0

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


def run_bridge(config: SimConfig, tables: CoeffTables | None = None) -> EnergyReport:
    """Full bridge simulation under the configured guidance mode.

    ``tables`` defaults to ``tables_for_mode(config)``.
    """
    t_start = time.perf_counter()
    if tables is None:
        tables = tables_for_mode(config)
    ctx = ScoreContext(tables, config.target, config.initial)
    B, d, n = config.n_particles, config.dim, config.n_steps
    dt = 1.0 / n
    table = ctx.coeff_table(np.arange(n) * dt)
    rng_init = _stream(config.seed, 0)
    state = sample_initial(config, rng_init)
    closed_loop = config.guidance_mode == "closed-loop"
    n_saved = min(config.n_saved_paths, B)

    power = np.empty(n)
    mean_trace = np.empty((n + 1, d))
    std_trace = np.empty((n + 1, d))
    trajectories = np.empty((n_saved, n + 1, d))
    mean_trace[0] = state.positions.mean(axis=0)
    std_trace[0] = state.positions.std(axis=0)
    trajectories[:, 0, :] = state.positions[:n_saved]

    snapshot_steps = {min(n, max(0, int(round(ts * n)))): float(ts) for ts in config.snapshot_times}
    snapshots = {}
    if 0 in snapshot_steps:
        snapshots[snapshot_steps[0]] = state.positions.copy()

    prev_energy = np.zeros(B)
    for j in range(n):
        rng = _stream(config.seed, 1 + j)
        step(state, ctx, table, dt, rng, closed_loop=closed_loop)
        power[j] = float(np.mean((state.energy - prev_energy))) / dt
        prev_energy = state.energy.copy()
        mean_trace[j + 1] = state.positions.mean(axis=0)
        std_trace[j + 1] = state.positions.std(axis=0)
        trajectories[:, j + 1, :] = state.positions[:n_saved]
        if j + 1 in snapshot_steps:
            snapshots[snapshot_steps[j + 1]] = state.positions.copy()

    # terminal-basin attribution from the posterior responsibilities just
    # before the pinning time
    t_final = 1.0 - 0.5 * dt
    co = ctx.coeffs(t_final)
    w, _ = ctx._affine_inputs(co, state.positions, state.shifts, None)
    pi_bar, _ = ctx._posterior_from_probe(co, w)
    terminal_labels = np.argmax(pi_bar, axis=1)

    primary = state.labels if config.initial is not None else terminal_labels
    attribution = "initial" if config.initial is not None else "terminal"
    n_primary = config.initial.n_components if config.initial is not None else config.target.n_components

    comp = _per_component(state.energy, primary, n_primary)
    comp_term = _per_component(state.energy, terminal_labels, config.target.n_components)
    fractions = np.array([comp[k][2] / B for k in range(n_primary)])

    term_mean, term_std = {}, {}
    for k in range(config.target.n_components):
        mask = terminal_labels == k
        if np.any(mask):
            term_mean[k] = state.positions[mask].mean(axis=0)
            term_std[k] = state.positions[mask].std(axis=0)

    energy_trace = np.concatenate([[0.0], np.cumsum(power) * dt])
    return EnergyReport(
        total=float(state.energy.mean()),
        stderr=float(state.energy.std(ddof=1) / np.sqrt(B)) if B > 1 else None,
        particle_energy=state.energy,
        component_energy=comp,
        component_energy_terminal=comp_term,
        attribution=attribution,
        fractions=fractions,
        power=power,
        energy_trace=energy_trace,
        mean_trace=mean_trace,
        std_trace=std_trace,
        terminal_mean=term_mean,
        terminal_std=term_std,
        zone_energy=state.zone_energy,
        trajectories=trajectories,
        snapshots=snapshots,
        shifts=state.shifts,
        seed=config.seed,
        guidance_mode=config.guidance_mode,
        wall_seconds=time.perf_counter() - t_start,
    )
