"""Experiment driver: presets and config files in, CSV/JSON artifacts out.

Verbs: lqg, bridge, sweep, density, guidance-check, validate.
Exit codes: 0 ok, 1 validation/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError
from .guidance import linear_guidance, midpoint_mean_map, self_consistent_guidance
from .lqg import LqgProblem, ia_baseline, lqg_metrics, solve_lqg
from .presets import ExperimentConfig, check_config, load_config, preset, validate_config
from .score import ScoreContext, _marginal_components, _mixture_logpdf
from .simulate import SimConfig, artifact_steps, artifact_stride, run_bridge, tables_for_modes

__all__ = ["main", "run_experiment"]

AFFINE_FIT_SLICES = 49
DENSITY_GRID_POINTS = 501
DENSITY_GRID_SDS = 6.0   # the grid spans every marginal component's mean +- this many sd
CSV_CHUNK_ROWS = 1024    # rows a CSV writer formats and writes at a time


# ----------------------------------------------------------------------------
# small writers
# ----------------------------------------------------------------------------

@contextmanager
def _atomic_open(path: Path):
    """Write through a temporary file in the target's directory, moved into place on success.

    A failure part-way leaves neither the target nor the temporary file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list, specs: list, blocks) -> None:
    """Write a header row, then the rows of each block in turn, with ``\\r\\n`` line ends.

    A block is a list of equal-length columns: flat arrays or sequences,
    strings allowed; ``specs`` holds one printf-style conversion per column
    (``"%s"``, ``"%d"``, ``"%.8g"``, ...).  Rows are formatted by one
    per-row format string, ``CSV_CHUNK_ROWS`` at a time, and ``blocks`` may
    be a generator, so no more than one block's columns need exist at once.
    The fields need no quoting (no comma, quote or line break), so the bytes
    are those ``csv.writer`` writes.
    """
    row = ",".join(specs) + "\r\n"
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            for i in range(0, len(columns[0]), CSV_CHUNK_ROWS):
                chunk = [c[i:i + CSV_CHUNK_ROWS] for c in columns]
                fh.write("".join(map(row.__mod__, zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                                        for c in chunk)))))


def _joined(values, spec: str) -> str:
    """A vector as one field: its entries formatted with the conversion ``spec`` and joined by spaces."""
    return " ".join([spec % v for v in np.atleast_1d(values).tolist()])


def _write_json(path: Path, obj: dict) -> None:
    with _atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------------
# single bridge run and its artifacts
# ----------------------------------------------------------------------------

def _sim_config(config: ExperimentConfig, sweep_value=None, **extra) -> SimConfig:
    initial, target = config.mixtures(sweep_value)
    return SimConfig(
        target=target,
        schedule=config.schedule(),
        initial=initial,
        n_particles=config.n_particles,
        n_steps=config.n_steps,
        seed=config.seed,
        **extra,
    )


def _affine_fit(reports: list):
    """Least-squares fit u ~ -S x - s per mode and recorded step, with R^2 (1-d runs).

    The pairs (x, u) are each snapshot's positions and the drift the step
    there applied to them, re-centred for a ``cl`` mode as that step
    re-centred it.  Returns the step times and the fit (3, M, steps): S, s
    and R^2.
    """
    times = sorted(reports[0].drifts)
    fit = np.empty((3, len(reports), len(times)))
    for i, rep in enumerate(reports):
        for j, t_s in enumerate(times):
            x, u = rep.snapshots[t_s][:, 0], rep.drifts[t_s][:, 0]
            A = np.column_stack([-x, -np.ones_like(x)])
            coef, *_ = np.linalg.lstsq(A, u, rcond=None)
            resid = u - A @ coef
            ss_tot = float(np.sum((u - u.mean()) ** 2))
            r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
            fit[:, i, j] = coef[0], coef[1], r2
    return times, fit


def _dump_coefficients(out_dir: Path, modes: list, tables) -> None:
    """One ``coefficients_{mode}.csv`` per mode, from one sample of the stacked tables."""
    n = tables.n_steps
    table = tables.sample(np.arange(1, n, artifact_stride(n)) / n)
    d = tables.dim
    header = (["t", "a_plus", "a_minus", "b_minus", "c_minus"]
              + [f"theta_plus_{i}" for i in range(d)] + [f"theta_x_{i}" for i in range(d)]
              + [f"theta_y_{i}" for i in range(d)] + ["lambda_plus", "lambda_x", "lambda_y"])
    specs = ["%.6f"] + ["%.10g"] * (len(header) - 1)
    shared = [table.t, table.a_plus, table.a, table.b, table.c]
    lams = [table.lam_plus, table.lam_x, table.lam_y]
    for i, m in enumerate(modes):
        thetas = [field[:, i, k] for field in (table.theta_plus, table.theta_x, table.theta_y) for k in range(d)]
        _write_csv(out_dir / f"coefficients_{m}.csv", header, specs, [shared + thetas + lams])


def _run_point(config: ExperimentConfig, sweep_value, out_dir: Path, dump_coefficients: bool = False) -> dict:
    """Run every guidance mode at one sweep point (None: the config's first) and write its artifacts."""
    if sweep_value is None:
        sweep_value = config.sweep_points()[0]   # still None on a config with no sweep axis
    out_dir.mkdir(parents=True, exist_ok=True)
    t_wall = time.perf_counter()
    sim_cfg = _sim_config(config, sweep_value)
    d = sim_cfg.dim
    if d == 1:   # the positions and drifts the affine fit reads
        sim_cfg.snapshot_times = tuple(np.linspace(0.01, 0.99, AFFINE_FIT_SLICES))
    tables = tables_for_modes(sim_cfg, config.modes)
    t_run = time.perf_counter()
    runs = run_bridge(sim_cfg, config.modes, tables)
    t_ran = time.perf_counter()
    reports = dict(zip(config.modes, runs))
    if dump_coefficients:
        _dump_coefficients(out_dir, config.modes, tables)
    wall = time.perf_counter() - t_wall

    modes = config.modes
    n = config.n_steps
    steps = artifact_steps(n)   # the grid the reports keep their paths on
    t_col = ["%.6f" % t for t in (steps / n).tolist()]   # shared by the per-time files
    T = len(t_col)

    # energy.csv: t then P_/E_ per mode; the last time repeats the last step's power
    _write_csv(out_dir / "energy.csv", ["t"] + [f"P_{m}" for m in modes] + [f"E_{m}" for m in modes],
               ["%s"] + ["%.8g"] * (2 * len(modes)),
               [[t_col] + [reports[m].power[np.minimum(steps, n - 1)] for m in modes]
                + [reports[m].energy_trace[steps] for m in modes]])

    # terminal.csv: per-component moments per mode
    rows = []
    for m in modes:
        rep = reports[m]
        for k, (e, se, cnt) in rep.component_energy.items():
            mean = rep.terminal_mean.get(k)
            std = rep.terminal_std.get(k)
            rows.append((m, k, cnt, cnt / config.n_particles,
                         _joined(mean, "%.6g") if mean is not None else "",
                         _joined(std, "%.6g") if std is not None else "",
                         "%.8g" % e if e is not None else "", "%.4g" % se if se is not None else ""))
    _write_csv(out_dir / "terminal.csv",
               ["mode", "component", "count", "fraction", "terminal_mean", "terminal_std", "energy", "energy_stderr"],
               ["%s", "%s", "%s", "%.6f", "%s", "%s", "%s", "%s"], [list(zip(*rows))])

    # trajectories.csv: the saved paths, one block per path
    _write_csv(out_dir / "trajectories.csv", ["mode", "path", "t"] + [f"x_{i}" for i in range(d)],
               ["%s", "%d", "%s"] + ["%.6g"] * d,
               ([[m] * T, [pid] * T, t_col, *path.T]
                for m in modes for pid, path in enumerate(reports[m].trajectories)))

    if d == 1:
        times, fit = _affine_fit(runs)
        _write_csv(out_dir / "affine_fit.csv", ["mode", "t", "S", "s", "R2"], ["%s", "%.6f", "%.8g", "%.8g", "%.8g"],
                   ([[m] * len(times), times, *fit[:, i]] for i, m in enumerate(modes)))

    if d > 1:
        _write_csv(out_dir / "zone_energy.csv", ["mode", "zone", "energy"], ["%s", "%d", "%.8g"],
                   ([[m] * d, range(d), reports[m].zone_energy] for m in modes))
        # the (time, zone) order of mean_trace.ravel()
        t_z = [t for t in t_col for _ in range(d)], list(range(d)) * T
        _write_csv(out_dir / "zone_means.csv", ["mode", "t", "zone", "mean"], ["%s", "%s", "%d", "%.6g"],
                   ([[m] * (T * d), *t_z, reports[m].mean_trace[steps].ravel()] for m in modes))

    totals = {m: reports[m].total for m in config.modes}
    saving = None
    if "mf" in totals and "ia0" in totals:
        saving = 1.0 - totals["mf"] / totals["ia0"]
    summary = {
        "sweep_value": sweep_value,
        "d": d,
        "totals": totals,
        "totals_per_zone": {m: totals[m] / d for m in totals},
        "saving_vs_ia0": saving,
        "wall_seconds": wall,
        "timings": {
            "tables_s": t_run - t_wall,
            "step_loop_s": runs[0].step_loop_seconds,
            "noise_wait_s": runs[0].noise_wait_seconds,
            "noise_draw_s": runs[0].noise_draw_seconds,
            "writing_s": time.perf_counter() - t_ran,
        },
        "modes": {m: reports[m].summary() for m in config.modes},
        "config": asdict(config),
    }
    _write_json(out_dir / "summary.json", summary)

    row = {"value": sweep_value, "d": d, "wall_seconds": wall, "saving": saving}
    for m in config.modes:
        row[f"E_per_zone_{m}"] = totals[m] / d
    return row


def _point_dir(out: Path, config: ExperimentConfig, value) -> Path:
    return out if value is None else out / config.point_tag(value)


def run_experiment(config: ExperimentConfig, out_dir, parallel: bool = False) -> Path:
    """Run a config (single point or sweep); returns the output directory.

    An ``lqg`` config builds no coefficient table, so it skips the dry run.
    """
    errors = check_config(config) if config.lqg is not None else validate_config(config)
    if errors:
        raise ConfigError("; ".join(errors))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if config.lqg is not None:
        _run_lqg(config, out)
        return out

    jobs = [(config, v, _point_dir(out, config, v)) for v in config.sweep_points()]
    if parallel and len(jobs) > 1:
        with ProcessPoolExecutor() as pool:
            rows = list(pool.map(_run_point, *zip(*jobs)))
    else:
        rows = [_run_point(*job) for job in jobs]

    if config.sweep_axis != "none":
        _write_csv(out / "sweep_table.csv",
                   ["value", "d"] + [f"E_per_zone_{m}" for m in config.modes] + ["saving_pct", "wall_seconds"],
                   ["%s", "%s"] + ["%.6g"] * len(config.modes) + ["%s", "%.1f"],
                   [[[row["value"] for row in rows], [row["d"] for row in rows]]
                    + [[row[f"E_per_zone_{m}"] for row in rows] for m in config.modes]
                    + [["%.2f" % (100 * row["saving"]) if row["saving"] is not None else "" for row in rows],
                       [row["wall_seconds"] for row in rows]]])
    return out


# ----------------------------------------------------------------------------
# lqg verb
# ----------------------------------------------------------------------------

def _run_lqg(config: ExperimentConfig, out: Path) -> None:
    spec = config.lqg
    problem = LqgProblem(spec.kappa, spec.q, spec.m_tar, spec.sigma_tar)
    sol = solve_lqg(problem)
    ia0 = ia_baseline(problem, sol, 0.0)
    iam = ia_baseline(problem, sol, spec.m_tar)

    mf = lqg_metrics(sol)
    e0 = lqg_metrics(sol, s_of_t=ia0.s, m_of_t=ia0.m)
    em = lqg_metrics(sol, s_of_t=iam.s, m_of_t=iam.m)

    # every column on one strided sample of the dense grid
    stride = max(1, (mf.grid.size - 1) // 1000)
    t = mf.grid[::stride]
    values = (sol.S(t), sol.Sigma(t), sol.m(t), sol.s(t), ia0.s(t), iam.s(t),
              mf.power[::stride], e0.power[::stride], em.power[::stride],
              mf.energy[::stride], e0.energy[::stride], em.energy[::stride])
    _write_csv(out / "lqg.csv",
               ["t", "S", "Sigma", "m_mf", "s_mf", "s_ia0", "s_iam",
                "P_mf", "P_ia0", "P_iam", "E_mf", "E_ia0", "E_iam"],
               ["%.6f"] + ["%.8g"] * len(values), [[t, *values]])

    totals = []
    for m_bar in spec.m_bar_grid:
        ia = ia_baseline(problem, sol, float(m_bar))
        totals.append(lqg_metrics(sol, s_of_t=ia.s, m_of_t=ia.m).total)
    _write_csv(out / "lqg_mbar_sweep.csv", ["m_bar", "E_total"], ["%.6g", "%.8g"], [[spec.m_bar_grid, totals]])

    _write_json(out / "summary.json", {
        "kappa": spec.kappa, "q": spec.q, "m_tar": spec.m_tar, "sigma_tar": spec.sigma_tar,
        "delta": sol.delta, "rho": None if np.isnan(sol.rho) else sol.rho, "S1": sol.S1,
        "E_mf": mf.total, "E_ia0": e0.total, "E_iam": em.total,
        "config": asdict(config),
    })


# ----------------------------------------------------------------------------
# density and guidance-check verbs
# ----------------------------------------------------------------------------

def _run_density(sim_cfg: SimConfig, modes: list, times, out: Path) -> None:
    ctx = ScoreContext(tables_for_modes(sim_cfg, modes), sim_cfg.target, sim_cfg.initial)
    # each time's marginal components, computed once for the grid and the curves: the
    # means (C, modes, d) carry the mode axis, the log weights and covariances are shared
    comps = [_marginal_components(ctx, t) for t in times]
    # one grid for every curve, wide enough for each curve's every component
    lo, hi = np.inf, -np.inf
    for _, means, covs in comps:
        half = DENSITY_GRID_SDS * np.sqrt(covs[:, 0, 0])[:, None]
        lo, hi = min(lo, np.min(means[..., 0] - half)), max(hi, np.max(means[..., 0] + half))
    xs = np.linspace(lo, hi, DENSITY_GRID_POINTS)
    curves = np.exp([[_mixture_logpdf(log_ws, means[:, i], covs, xs[:, None]) for i in range(ctx.n_modes)]
                     for log_ws, means, covs in comps])   # (times, modes, x)
    _write_csv(out / "density.csv", ["t", "x"] + [f"p_{m}" for m in modes],
               ["%.4f", "%.6f"] + ["%.8g"] * ctx.n_modes,
               ([[t] * xs.size, xs, *at_t] for t, at_t in zip(times, curves)))


def _run_guidance_check(config: ExperimentConfig, out: Path) -> dict:
    """The self-consistent guidance against the linear interpolant at the interval midpoints, with no particle run."""
    sim_cfg = _sim_config(config)
    sched, m_in, m_tar = sim_cfg.schedule, sim_cfg.initial_mean, sim_cfg.target.mean
    mids = sched.midpoints()
    nu, J = self_consistent_guidance(sched, m_in, m_tar)
    lin_mid = linear_guidance(m_in, m_tar, mids)
    resid = nu - lin_mid
    G = J[::nu.shape[1], ::nu.shape[1]]   # J = G (x) I_d: the zones share one M x M map

    _write_csv(out / "midpoint_residuals.csv", ["interval", "t_mid", "nu_fixed_point", "nu_linear", "residual"],
               ["%d", "%.6f", "%s", "%s", "%.8g"],
               [[range(len(mids)), mids, [_joined(v, "%.8g") for v in nu],
                 [_joined(v, "%.8g") for v in lin_mid], [np.linalg.norm(r) for r in resid]]])

    summary = {
        "max_residual_vs_linear": float(np.max(np.linalg.norm(resid, axis=1))),
        "contraction_factor": float(np.max(np.abs(np.linalg.eigvals(G)))),
        "self_consistency_residual": float(np.max(np.abs(midpoint_mean_map(sched, nu, m_in, m_tar) - nu))),
        "config": asdict(config),
    }
    _write_json(out / "summary.json", summary)
    return summary


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map usage errors to exit code 1
        raise ConfigError(message)


def _floats(flag: str, text: str) -> list:
    """A comma list of numbers given on the command line."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _load(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    elif getattr(args, "preset", None):
        cfg = preset(args.preset)
    else:
        raise ConfigError("need --preset NAME or --config PATH")
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "modes", None) is not None:
        cfg.modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if getattr(args, "values", None) is not None:
        cfg.sweep_values = _floats("--values", args.values)
    if getattr(args, "particles", None) is not None:
        cfg.n_particles = args.particles
    if getattr(args, "steps", None) is not None:
        cfg.n_steps = args.steps
    return cfg


def _load_target_config(args) -> ExperimentConfig:
    """A validated config that defines a bridge problem: what ``density`` and ``guidance-check`` evaluate."""
    cfg = _load(args)
    errors = validate_config(cfg)
    if not errors and not cfg.has_mixtures():
        errors = [f"{args.verb} needs a target mixture; the config has only an lqg section"]
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: ``parse_args`` keeps no state in it."""
    parser = _Parser(prog="mfbridge", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, preset_default=None):
        p.add_argument("--preset", default=preset_default)
        p.add_argument("--config")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default="out")
        p.add_argument("--modes", help="comma list from mf,ia0,iam,cl")
        p.add_argument("--particles", type=int, help="override sim.particles")
        p.add_argument("--steps", type=int, help="override sim.steps")

    p = sub.add_parser("lqg", help="closed-form scalar thermostat benchmark")
    common(p, preset_default="lqg-tcl")
    p.add_argument("--kappa", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--m-tar", type=float, dest="m_tar")
    p.add_argument("--sigma-tar", type=float, dest="sigma_tar")
    p.add_argument("--m-bar-grid", dest="m_bar_grid", help="comma list of centres")

    p = sub.add_parser("bridge", help="single scenario run")
    common(p)
    p.add_argument("--dump-coefficients", action="store_true", dest="dump_coefficients",
                   help="also write the dense kernel-coefficient tables per mode")

    p = sub.add_parser("sweep", help="dimension / components / ar-rho sweep")
    common(p)
    p.add_argument("--values", help="override sweep values, comma list")
    p.add_argument("--parallel", action="store_true")

    p = sub.add_parser("density", help="analytic marginal density curves")
    common(p)
    p.add_argument("--times", default="0.1,0.3,0.5,0.7,1.0")

    p = sub.add_parser("guidance-check", help="exact self-consistent guidance against the linear interpolant")
    common(p)

    p = sub.add_parser("validate", help="validate a config / preset")
    common(p)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out = Path(args.out)

        if args.verb == "validate":
            cfg = _load(args)
            errors = validate_config(cfg)
            if errors:
                for e in errors:
                    print(f"error: {e}", file=sys.stderr)
                return 1
            print("ok")
            return 0

        if args.verb == "lqg":
            cfg = _load(args)
            if cfg.lqg is None:
                from .presets import LqgSpec

                cfg.lqg = LqgSpec()
            for field_name in ("kappa", "q", "m_tar", "sigma_tar"):
                v = getattr(args, field_name, None)
                if v is not None:
                    setattr(cfg.lqg, field_name, v)
            if args.m_bar_grid is not None:
                cfg.lqg.m_bar_grid = _floats("--m-bar-grid", args.m_bar_grid)
            run_experiment(cfg, out)
            print(f"wrote {out}/lqg.csv")
            return 0

        if args.verb in ("bridge", "sweep"):
            cfg = _load(args)
            if cfg.lqg is not None:
                raise ConfigError(f"config {cfg.name!r} has an lqg section; run it with the lqg verb")

        if args.verb == "bridge":
            errors = validate_config(cfg)
            if errors:
                raise ConfigError("; ".join(errors))
            _run_point(cfg, None, out, args.dump_coefficients)
            print(f"wrote {out}/summary.json")
            return 0

        if args.verb == "sweep":
            if cfg.sweep_axis == "none":
                raise ConfigError(f"config {cfg.name!r} has no sweep axis")
            run_experiment(cfg, out, parallel=args.parallel)
            print(f"wrote {out}/sweep_table.csv")
            return 0

        if args.verb == "density":
            cfg = _load_target_config(args)
            sim_cfg = _sim_config(cfg)
            if sim_cfg.dim != 1:
                raise ConfigError(f"density emission is 1-d only, got d={sim_cfg.dim}")
            times = _floats("--times", args.times)
            if not times:
                raise ConfigError("--times: no times given")
            outside = [t for t in times if not 0.0 <= t <= 1.0]
            if outside:
                raise ConfigError(f"--times must lie in [0, 1], got {outside}")
            _run_density(sim_cfg, cfg.modes, times, out)
            print(f"wrote {out}/density.csv")
            return 0

        if args.verb == "guidance-check":
            cfg = _load_target_config(args)
            summary = _run_guidance_check(cfg, out)
            print(f"contraction factor {summary['contraction_factor']:.4g}; "
                  f"self-consistency residual {summary['self_consistency_residual']:.2g}; "
                  f"max residual vs linear {summary['max_residual_vs_linear']:.4g}")
            return 0

        raise ConfigError(f"unknown verb {args.verb!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
