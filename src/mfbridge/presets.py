"""Experiment configurations: presets, config-file parsing, validation.

Config files are flat ``section.key = value`` text (``#`` comments, lists
comma-separated) or an equivalent nested JSON object.  Unknown keys are
rejected.  Presets cover the two demand-response scenarios, the three
scalability sweeps, and the scalar thermostat benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericalError
from .greens import build_tables
from .lqg import LqgProblem, solve_lqg
from .schedule import geometric_schedule
from .score import GaussianMixture
from .simulate import GUIDANCE_MODES

__all__ = ["MixtureSpec", "LqgSpec", "ExperimentConfig", "PRESETS", "preset",
           "parse_config_text", "parse_config_json", "load_config", "validate_config", "check_config", "dry_run",
           "dsweep_mixtures", "ksweep_mixtures"]

# sweep axis -> the short name of its value in point tags and directories
SWEEP_TAGS = {"dimension": "d", "components": "K", "ar-rho": "rho"}


@dataclass
class MixtureSpec:
    weights: list
    means: list            # one scalar per component (broadcast over zones)
    sigmas: list           # isotropic per-component scale
    ar_rho: float = 0.0    # spatial AR(1) zone correlation; 0 = diagonal

    def build(self, d: int) -> GaussianMixture:
        if self.ar_rho != 0.0:  # the AR(1) constructor rejects rho outside [0, 1)
            return GaussianMixture.spatial_ar1(self.weights, self.means, self.sigmas, self.ar_rho, d)
        return GaussianMixture.isotropic(self.weights, self.means, self.sigmas, d=d)


@dataclass
class LqgSpec:
    kappa: float = 0.8
    q: float = 2.0
    m_tar: float = 1.5
    sigma_tar: float = 0.3
    m_bar_grid: list = field(default_factory=lambda: [0.0, 0.375, 0.75, 1.125, 1.5])


@dataclass
class ExperimentConfig:
    name: str = "custom"
    d: int = 1
    target: MixtureSpec | None = None
    initial: MixtureSpec | None = None      # None: delta start at the origin
    beta0: float = 12.0
    gamma: float = 0.65
    intervals: int = 8
    n_particles: int = 8000
    n_steps: int = 2500
    seed: int = 20250101
    modes: list = field(default_factory=lambda: ["mf", "ia0", "iam"])
    sweep_axis: str = "none"                # none | dimension | components | ar-rho
    sweep_values: list = field(default_factory=list)
    lqg: LqgSpec | None = None

    def schedule(self):
        return geometric_schedule(self.beta0, self.gamma, self.intervals)

    def mixtures(self, sweep_value=None):
        """(initial, target) mixtures of one run point: ``sweep_value`` on the sweep axis.

        On a sweep config, None means the first sweep value, so a
        single-point verb runs the sweep's first point.  The mixture
        constructors raise ValueError on a bad shape, weight or covariance;
        a spec's error names the spec (``target``/``initial``).
        """
        if sweep_value is None and self.sweep_axis in SWEEP_TAGS and self.sweep_values:
            sweep_value = self.sweep_values[0]
        if self.sweep_axis == "dimension" and sweep_value is not None:
            return dsweep_mixtures(_whole(sweep_value))
        if self.sweep_axis == "components" and sweep_value is not None:
            return ksweep_mixtures(_whole(sweep_value), self.d)
        target, initial = self.target, self.initial
        if self.sweep_axis == "ar-rho" and sweep_value is not None:
            target = replace(target, ar_rho=float(sweep_value))
            initial = replace(initial, ar_rho=float(sweep_value)) if initial is not None else None

        def build(spec: MixtureSpec, label: str) -> GaussianMixture:
            try:
                return spec.build(self.d)
            except ValueError as exc:
                raise ValueError(f"{label}: {exc}") from None

        return (build(initial, "initial") if initial is not None else None), build(target, "target")

    def sweep_points(self) -> list:
        """The sweep values a run visits, as they are passed on; [None] for a single point."""
        if self.sweep_axis not in SWEEP_TAGS:
            return [None]
        if self.sweep_axis in ("dimension", "components"):
            return [_whole(v) for v in self.sweep_values]
        return list(self.sweep_values)

    def point_tag(self, value) -> str:
        """``d=8``, ``K=3``, ``rho=0.5``: a sweep point's name in messages and directory names."""
        tag = SWEEP_TAGS[self.sweep_axis]
        return f"{tag}={value:g}" if isinstance(value, float) else f"{tag}={value}"

    def has_mixtures(self) -> bool:
        """Whether the config defines a bridge problem: a target, or a sweep axis that generates the mixtures."""
        return self.target is not None or self.sweep_axis in ("dimension", "components")


def _whole(value) -> int:
    """A value on the dimension or components axis, which counts zones or components."""
    if not float(value).is_integer():
        raise ValueError(f"a count must be a whole number, got {value:g}")
    return int(value)


def dsweep_mixtures(d: int):
    """Zone-count sweep endpoints: sinusoidal zone-type profile, narrow modes.

    z_j = sin(2 pi j / d); target means 0.1 + 0.15 z and 1.5 - 0.15 z;
    initial means displaced by +1.5 (first mode) and +4.0 (second); narrow
    per-component scales from the well-separated scenario.
    """
    z = np.sin(2.0 * np.pi * np.arange(d) / d)
    m0 = 0.1 * np.ones(d) + 0.15 * z
    m1 = 1.5 * np.ones(d) - 0.15 * z
    target = GaussianMixture.isotropic([0.6, 0.4], np.vstack([m0, m1]), [0.2, 0.3])
    initial = GaussianMixture.isotropic([0.6, 0.4], np.vstack([m0 + 1.5, m1 + 4.0]), [0.5, 0.7])
    return initial, target


def ksweep_mixtures(K: int, d: int):
    """Fleet-heterogeneity sweep: K modes uniform on [-1, 2], weights (K..1).

    Initial means are target + 4 (aggressive displacement).  Per-component
    scales interpolate the narrow scenario's ranges; the construction keeps
    the target global mean at 0 for every K so both constant-centre
    baselines coincide.
    """
    means = np.linspace(-1.0, 2.0, K)
    w = np.arange(K, 0, -1, dtype=float)
    w /= w.sum()
    s_tar = np.linspace(0.2, 0.3, K)
    s_in = np.linspace(0.5, 0.7, K)
    target = GaussianMixture.isotropic(w, np.repeat(means[:, None], d, axis=1), s_tar)
    initial = GaussianMixture.isotropic(w, np.repeat(means[:, None] + 4.0, d, axis=1), s_in)
    return initial, target


# ----------------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------------

def _target_dr() -> MixtureSpec:
    return MixtureSpec([0.6, 0.4], [0.0, 1.5], [0.2, 0.3])


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]()


def _scenario_a() -> ExperimentConfig:
    return ExperimentConfig(
        name="scenario-a",
        target=_target_dr(),
        initial=MixtureSpec([0.6, 0.4], [1.0, 6.0], [3.0, 3.0]),
    )


def _scenario_b() -> ExperimentConfig:
    return ExperimentConfig(
        name="scenario-b",
        target=_target_dr(),
        initial=MixtureSpec([0.6, 0.4], [1.5, 5.5], [0.5, 0.7]),
    )


def _d_sweep() -> ExperimentConfig:
    return ExperimentConfig(
        name="d-sweep",
        n_particles=4000,
        sweep_axis="dimension",
        sweep_values=[1, 2, 4, 8, 16, 32],
    )


def _k_sweep() -> ExperimentConfig:
    return ExperimentConfig(
        name="k-sweep",
        d=4,
        n_particles=4000,
        sweep_axis="components",
        sweep_values=[2, 3, 4, 8],
    )


def _ar_sweep() -> ExperimentConfig:
    return ExperimentConfig(
        name="ar-sweep",
        d=8,
        target=_target_dr(),
        initial=MixtureSpec([0.6, 0.4], [1.5, 5.5], [0.5, 0.7]),
        n_particles=4000,
        sweep_axis="ar-rho",
        sweep_values=[0.0, 0.5, 0.8],
    )


def _lqg_tcl() -> ExperimentConfig:
    return ExperimentConfig(name="lqg-tcl", target=_target_dr(), lqg=LqgSpec())


PRESETS = {
    "scenario-a": _scenario_a,
    "scenario-b": _scenario_b,
    "d-sweep": _d_sweep,
    "k-sweep": _k_sweep,
    "ar-sweep": _ar_sweep,
    "lqg-tcl": _lqg_tcl,
}


# ----------------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------------

_SCHEMA = {
    "name": str,
    "d": int,
    "schedule.beta0": float,
    "schedule.gamma": float,
    "schedule.intervals": int,
    "sim.particles": int,
    "sim.steps": int,
    "sim.seed": int,
    "modes": "strlist",
    "sweep.axis": str,
    "sweep.values": "floatlist",
    "target.weights": "floatlist",
    "target.means": "floatlist",
    "target.sigmas": "floatlist",
    "target.ar_rho": float,
    "initial.weights": "floatlist",
    "initial.means": "floatlist",
    "initial.sigmas": "floatlist",
    "initial.ar_rho": float,
    "lqg.kappa": float,
    "lqg.q": float,
    "lqg.m_tar": float,
    "lqg.sigma_tar": float,
    "lqg.m_bar_grid": "floatlist",
}


def _cast(key: str, raw, kind):
    try:
        if kind == "floatlist":
            if isinstance(raw, str):
                parts = [p for p in raw.replace(",", " ").split() if p]
                return [float(p) for p in parts]
            return [float(v) for v in raw]
        if kind == "strlist":
            if isinstance(raw, str):
                return [p for p in raw.replace(",", " ").split() if p]
            return [str(v) for v in raw]
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} ({exc})") from None


# flat config key -> ExperimentConfig field; the dataclasses hold every default
_CONFIG_FIELDS = {
    "name": "name", "d": "d", "schedule.beta0": "beta0", "schedule.gamma": "gamma",
    "schedule.intervals": "intervals", "sim.particles": "n_particles", "sim.steps": "n_steps",
    "sim.seed": "seed", "modes": "modes", "sweep.axis": "sweep_axis", "sweep.values": "sweep_values",
}


def _assemble(flat: dict) -> ExperimentConfig:
    for key in flat:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    vals = {k: _cast(k, v, _SCHEMA[k]) for k, v in flat.items()}

    def section(name: str) -> dict:
        return {k.partition(".")[2]: v for k, v in vals.items() if k.startswith(name + ".")}

    def mixture(name: str) -> MixtureSpec | None:
        spec = section(name)
        keys = ["weights", "means", "sigmas"]
        if not any(k in spec for k in keys):
            return None
        missing = [f"{name}.{k}" for k in keys if k not in spec]
        if missing:
            raise ConfigError(f"incomplete mixture section {name!r}: missing {missing}")
        return MixtureSpec(**spec)

    lqg = section("lqg")
    return ExperimentConfig(
        target=mixture("target"), initial=mixture("initial"), lqg=LqgSpec(**lqg) if lqg else None,
        **{attr: vals[key] for key, attr in _CONFIG_FIELDS.items() if key in vals},
    )


def parse_config_text(text: str) -> ExperimentConfig:
    flat = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        flat[key.strip()] = value.strip()
    return _assemble(flat)


def parse_config_json(text: str) -> ExperimentConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON config: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("JSON config must be an object")
    flat = {}
    for key, val in obj.items():
        if isinstance(val, dict):
            for sub, v in val.items():
                flat[f"{key}.{sub}"] = v
        else:
            flat[key] = val
    return _assemble(flat)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_config_json(text)
    return parse_config_text(text)


# ----------------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------------

def validate_config(config: ExperimentConfig) -> list:
    """``check_config``, then, if it passed and the config defines a bridge problem, ``dry_run``.

    Returns a list of error strings; empty means the config is runnable.
    """
    errors = check_config(config)
    if errors or not config.has_mixtures():
        return errors
    return dry_run(config)


def check_config(config: ExperimentConfig) -> list:
    """Structural checks, every sweep point's mixtures and the ``lqg`` closed form; a list of errors."""
    errors = []
    if not config.has_mixtures() and config.lqg is None:
        errors.append("config needs a target mixture (or an lqg section)")
    if config.beta0 <= 0:
        errors.append(f"schedule.beta0 must be positive, got {config.beta0}")
    if not (0 < config.gamma <= 1):
        errors.append(f"schedule.gamma must lie in (0, 1], got {config.gamma}")
    if config.intervals < 1:
        errors.append("schedule.intervals must be >= 1")
    if config.n_particles < 1 or config.n_steps < 10:
        errors.append("sim.particles >= 1 and sim.steps >= 10 required")
    if config.sweep_axis not in ("none", *SWEEP_TAGS):
        errors.append(f"unknown sweep axis {config.sweep_axis!r}")
    if config.sweep_axis != "none" and not config.sweep_values:
        errors.append("sweep axis set but sweep.values empty")
    if not config.modes:
        errors.append("no guidance modes")
    for m in config.modes:
        if m not in GUIDANCE_MODES:
            errors.append(f"unknown mode {m!r}; available: {list(GUIDANCE_MODES)}")
    if len(set(config.modes)) < len(config.modes):
        errors.append(f"guidance modes repeat: {config.modes}")
    if config.sweep_axis in SWEEP_TAGS:
        # two values with one tag would run into one directory and one table row each
        tags = [config.point_tag(v) for v in config.sweep_values]
        if len(set(tags)) < len(tags):
            errors.append(f"sweep values repeat: {tags}")
    spec = config.lqg
    if spec is not None:
        try:
            problem = LqgProblem(spec.kappa, spec.q, spec.m_tar, spec.sigma_tar)
        except ValueError as exc:
            errors.append(f"lqg: {exc}")
        if not spec.m_bar_grid:
            errors.append("lqg.m_bar_grid empty")
        if not errors:
            # the closed form is cheap: a target variance off the admissible branch fails here
            try:
                solve_lqg(problem)
            except NumericalError as exc:
                errors.append(f"lqg.sigma_tar = {spec.sigma_tar}: {exc}")
    if not config.has_mixtures():
        return errors

    for value in config.sweep_values if config.sweep_axis in SWEEP_TAGS else [None]:
        try:
            config.mixtures(value)
        except ValueError as exc:
            errors.append(f"{exc}" if value is None else f"sweep point {config.point_tag(value)}: {exc}")
    return errors


def dry_run(config: ExperimentConfig) -> list:
    """A coefficient dry run: the probe precision K must be finite and positive on a 2001-time grid.

    K = c(t) - a_plus(1) depends on the schedule alone, so one table with
    zero guidance covers every sweep point.  Returns a list of errors.
    """
    try:
        sched = config.schedule()
        tables = build_tables(sched, np.zeros((sched.n_intervals, 1)), config.n_steps)
        ts = np.linspace(tables.t_clip[0], tables.t_clip[1], 2001)
        K = tables.sample(ts).K
    except Exception as exc:  # surface anything the dry run trips over
        return [f"dry run failed: {exc}"]
    if not np.all(np.isfinite(K)) or np.any(K <= 0):
        return [f"probe precision not positive on the grid (worst at t={float(ts[np.argmin(K)]):.4f})"]
    return []
