import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mfbridge
from mfbridge.cli import main
from mfbridge.errors import ConfigError
from mfbridge.presets import (
    ExperimentConfig,
    LqgSpec,
    dsweep_mixtures,
    ksweep_mixtures,
    load_config,
    parse_config_text,
    preset,
    validate_config,
)


def test_preset_scenario_a_values():
    cfg = preset("scenario-a")
    assert cfg.target.weights == [0.6, 0.4]
    assert cfg.target.sigmas == [0.2, 0.3]
    assert cfg.initial.means == [1.0, 6.0]
    assert cfg.initial.sigmas == [3.0, 3.0]
    assert cfg.seed == 20250101
    assert cfg.n_particles == 8000 and cfg.n_steps == 2500


def test_preset_scenario_b_values():
    cfg = preset("scenario-b")
    assert cfg.initial.means == [1.5, 5.5]
    assert cfg.initial.sigmas == [0.5, 0.7]


def test_preset_unknown():
    with pytest.raises(ConfigError):
        preset("scenario-c")


def test_ksweep_component_layout():
    _, target = ksweep_mixtures(4, d=1)
    assert np.allclose(target.means[:, 0], [-1.0, 0.0, 1.0, 2.0])
    assert np.allclose(target.weights, np.array([4, 3, 2, 1]) / 10)
    assert abs(target.mean[0]) < 1e-12
    initial, _ = ksweep_mixtures(4, d=1)
    assert np.allclose(initial.means[:, 0], [3.0, 4.0, 5.0, 6.0])


def test_ar_sweep_preset():
    cfg = preset("ar-sweep")
    assert cfg.d == 8
    assert len(cfg.target.weights) == 2
    assert cfg.sweep_values == [0.0, 0.5, 0.8]


def test_dsweep_zone_pattern():
    initial, target = dsweep_mixtures(4)
    z = np.sin(2 * np.pi * np.arange(4) / 4)
    assert np.allclose(target.means[0], 0.1 + 0.15 * z)
    assert np.allclose(target.means[1], 1.5 - 0.15 * z)
    assert np.allclose(initial.means[0], target.means[0] + 1.5)
    assert np.allclose(initial.means[1], target.means[1] + 4.0)


def test_config_text_roundtrip(tmp_path):
    text = """
# demo config
name = demo
d = 1
schedule.beta0 = 6.0
schedule.gamma = 0.8
schedule.intervals = 4
sim.particles = 100
sim.steps = 50
sim.seed = 9
target.weights = 0.5, 0.5
target.means = 0.0, 1.0
target.sigmas = 0.2, 0.2
modes = mf, ia0
"""
    cfg = parse_config_text(text)
    assert cfg.name == "demo"
    assert cfg.beta0 == 6.0
    assert cfg.modes == ["mf", "ia0"]
    assert validate_config(cfg) == []
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    assert load_config(str(path)).seed == 9


def test_config_json(tmp_path):
    obj = {
        "name": "jdemo",
        "schedule": {"beta0": 5.0, "gamma": 0.9, "intervals": 2},
        "sim": {"particles": 64, "steps": 40, "seed": 1},
        "target": {"weights": [1.0], "means": [0.5], "sigmas": [0.3]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    cfg = load_config(str(path))
    assert cfg.beta0 == 5.0
    assert validate_config(cfg) == []


def test_config_keys_left_out_take_the_dataclass_defaults():
    cfg = parse_config_text("lqg.kappa = 0.8")
    assert cfg.lqg == LqgSpec(kappa=0.8)
    assert cfg == ExperimentConfig(lqg=LqgSpec())
    cfg = parse_config_text("target.weights = 1\ntarget.means = 0.5\ntarget.sigmas = 0.3")
    assert cfg.target.ar_rho == 0.0 and cfg.initial is None
    with pytest.raises(ConfigError, match="missing \\['target.sigmas'\\]"):
        parse_config_text("target.weights = 1\ntarget.means = 0.5")


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("bogus.key = 1")


def test_validate_reports_bad_weights():
    cfg = preset("scenario-a")
    cfg.target.weights = [0.7, 0.4]
    errors = validate_config(cfg)
    assert any("sum" in e for e in errors)


def test_validate_reports_non_pd():
    cfg = preset("scenario-a")
    cfg.target.sigmas = [0.2, 0.0]
    errors = validate_config(cfg)
    assert any("non-PD" in e for e in errors)


@pytest.mark.parametrize("spec", ["target", "initial"])
def test_zero_weight_fails_validate(tmp_path, capsys, spec):
    # a zero weight would reach log(0) in the score; it is refused up front
    path = tmp_path / "zero.cfg"
    weights = {"target": "0.6, 0.4", "initial": "0.6, 0.4", spec: "1.0, 0.0"}
    path.write_text("".join(f"{name}.weights = {w}\n{name}.means = 0.0, 1.0\n{name}.sigmas = 0.2, 0.3\n"
                            for name, w in weights.items()))
    assert main(["validate", "--config", str(path)]) == 1
    assert f"{spec}: mixture weight 1 is 0" in capsys.readouterr().err
    out = tmp_path / "run"
    assert main(["bridge", "--config", str(path), "--particles", "10", "--steps", "10", "--out", str(out)]) == 1
    assert f"{spec}: mixture weight 1 is 0" in capsys.readouterr().err
    assert not out.exists()


def test_lqg_target_variance_off_the_admissible_branch_fails_validate(tmp_path, capsys):
    # the default kappa and q admit no target variance of 25; lqg would fail only after creating its directory
    path = tmp_path / "wide.cfg"
    path.write_text("lqg.sigma_tar = 5.0\n")
    assert main(["validate", "--config", str(path)]) == 1
    assert "lqg.sigma_tar = 5.0: target variance 25 outside the admissible branch" in capsys.readouterr().err
    out = tmp_path / "run"
    assert main(["lqg", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()


def test_validate_clean_preset_passes():
    assert validate_config(preset("scenario-a")) == []


def test_cli_validate_exit_codes(capsys):
    assert main(["validate", "--preset", "scenario-a"]) == 0
    assert main(["validate", "--preset", "missing"]) == 1
    assert main(["bogus-verb"]) == 1


def test_cli_lqg_csv(tmp_path):
    out = tmp_path / "lqg"
    assert main(["lqg", "--out", str(out)]) == 0
    with open(out / "lqg.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"t", "S", "Sigma", "m_mf", "s_mf", "s_ia0", "s_iam",
                            "P_mf", "P_ia0", "P_iam", "E_mf", "E_ia0", "E_iam"}
    last = rows[-1]
    assert float(last["t"]) == 1.0
    assert float(last["m_mf"]) == pytest.approx(1.5, abs=1e-9)
    # energy columns are cumulative: final ordering matches the summary
    summary = json.loads((out / "summary.json").read_text())
    assert summary["E_mf"] < summary["E_ia0"]
    assert (out / "lqg_mbar_sweep.csv").exists()


@pytest.mark.parametrize("kappa, q, m_tar, sigma_tar", [
    (0.8, 2.0, 1.5, 0.3),    # general branch
    (0.0, 0.5, -1.0, 0.7),   # kappa < 1e-8, q > 0: the mean block's kappa -> 0 forms
    (0.0, 0.0, 1.5, 0.6),    # Delta < 1e-8: the Brownian-bridge limit
], ids=["general", "kappa0", "delta0"])
def test_lqg_csv_rows_match_the_evaluators(tmp_path, kappa, q, m_tar, sigma_tar):
    from mfbridge.lqg import LqgProblem, ia_baseline, lqg_metrics, solve_lqg

    out = tmp_path / "lqg"
    assert main(["lqg", f"--kappa={kappa}", f"--q={q}", f"--m-tar={m_tar}", f"--sigma-tar={sigma_tar}",
                 "--out", str(out)]) == 0
    with open(out / "lqg.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    problem = LqgProblem(kappa, q, m_tar, sigma_tar)
    sol = solve_lqg(problem)
    ia0, iam = ia_baseline(problem, sol, 0.0), ia_baseline(problem, sol, m_tar)
    mf = lqg_metrics(sol)
    e0 = lqg_metrics(sol, s_of_t=ia0.s, m_of_t=ia0.m)
    em = lqg_metrics(sol, s_of_t=iam.s, m_of_t=iam.m)
    assert len(rows) == 1001   # every 4th point of the 4001-point grid
    assert [row[0] for row in rows] == [f"{t:.6f}" for t in mf.grid[::4]]
    for j in range(0, 1001, 37):
        i, t = 4 * j, mf.grid[4 * j]
        want = [f"{v:.8g}" for v in (sol.S(t), sol.Sigma(t), sol.m(t), sol.s(t), ia0.s(t), iam.s(t),
                                      mf.power[i], e0.power[i], em.power[i],
                                      mf.energy[i], e0.energy[i], em.energy[i])]
        assert rows[j][1:] == want, j


def test_mode_names_round_trip(tmp_path):
    # the names given are the summary's mode keys and each report's guidance_mode
    names = ["mf", "ia0", "iam", "cl"]
    out = tmp_path / "modes"
    rc = main(["bridge", "--preset", "scenario-b", "--particles", "40", "--steps", "40",
               "--modes", ",".join(names), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert {m: rep["guidance_mode"] for m, rep in summary["modes"].items()} == {m: m for m in names}


def _mode_source(tmp_path, source, modes):
    if source == "flag":
        return ["--preset", "scenario-b", "--modes", modes]
    path = tmp_path / "cfg.txt"
    path.write_text(f"target.weights = 1\ntarget.means = 0.5\ntarget.sigmas = 0.3\nmodes = {modes}\n")
    return ["--config", str(path)]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_unknown_mode_is_named(tmp_path, capsys, source):
    out = tmp_path / "run"
    rc = main(["bridge", *_mode_source(tmp_path, source, "mf,closed-loop"),
               "--particles", "20", "--steps", "20", "--out", str(out)])
    assert rc == 1
    assert "unknown mode 'closed-loop'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("modes", [",", ""])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_mode_list_fails_before_running(tmp_path, capsys, source, modes):
    args = _mode_source(tmp_path, source, modes)
    assert main(["validate", *args]) == 1
    assert "no guidance modes" in capsys.readouterr().err
    out = tmp_path / "run"
    assert main(["bridge", *args, "--particles", "20", "--steps", "20", "--out", str(out)]) == 1
    assert "no guidance modes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_repeated_mode_fails_before_running(tmp_path, capsys, source):
    out = tmp_path / "run"
    rc = main(["bridge", *_mode_source(tmp_path, source, "mf,ia0,mf"),
               "--particles", "20", "--steps", "20", "--out", str(out)])
    assert rc == 1
    assert "guidance modes repeat: ['mf', 'ia0', 'mf']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--particles", "--steps"])
def test_zero_size_override_is_rejected(tmp_path, capsys, flag):
    assert main(["validate", "--preset", "scenario-b", flag, "0"]) == 1
    assert "sim.particles >= 1 and sim.steps >= 10" in capsys.readouterr().err
    out = tmp_path / "run"
    assert main(["bridge", "--preset", "scenario-b", "--modes", "mf", flag, "0", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["density", "--preset", "scenario-b", "--times", "1.5,-0.2"], "--times must lie in [0, 1], got [1.5, -0.2]"),
    (["density", "--preset", "scenario-b", "--times", "0.5,late"], "--times: could not convert string to float: 'late'"),
    (["density", "--preset", "scenario-b", "--times", ""], "--times: no times given"),
    (["density", "--preset", "scenario-b", "--times", ","], "--times: no times given"),
    (["sweep", "--preset", "d-sweep", "--values", "2,x"], "--values: could not convert"),
    (["sweep", "--preset", "d-sweep", "--values", "", "--particles", "20", "--steps", "20"], "sweep.values empty"),
    (["lqg", "--m-bar-grid", "0,x"], "--m-bar-grid: could not convert"),
    (["lqg", "--m-bar-grid", ""], "lqg.m_bar_grid empty"),
    (["lqg", "--m-bar-grid", ","], "lqg.m_bar_grid empty"),
], ids=["times-range", "times-text", "times-empty", "times-comma", "values-text", "values-empty",
        "m-bar-grid-text", "m-bar-grid-empty", "m-bar-grid-comma"])
def test_bad_number_lists_are_config_errors(tmp_path, capsys, args, message):
    out = tmp_path / "run"
    assert main([*args, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_empty_m_bar_grid_in_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "lqg.cfg"
    path.write_text("lqg.m_bar_grid =\n")
    assert main(["validate", "--config", str(path)]) == 1
    assert "lqg.m_bar_grid empty" in capsys.readouterr().err
    out = tmp_path / "run"
    assert main(["lqg", "--config", str(path), "--out", str(out)]) == 1
    assert "lqg.m_bar_grid empty" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests' references
    code = "import sys, mfbridge.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(mfbridge.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_cli_bridge_outputs(tmp_path):
    out = tmp_path / "bridge"
    rc = main(["bridge", "--preset", "scenario-b", "--particles", "300",
               "--steps", "120", "--modes", "mf,ia0", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["totals"]) == {"mf", "ia0"}
    assert summary["saving_vs_ia0"] is not None
    for name in ("energy.csv", "terminal.csv", "trajectories.csv", "affine_fit.csv"):
        assert (out / name).exists(), name
    with open(out / "energy.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "P_mf", "P_ia0", "E_mf", "E_ia0"]


def test_affine_fit_slices_lie_on_the_step_grid(tmp_path):
    # positions are recorded at the step nearest each requested time, and
    # the drift they are fitted against is evaluated at that step's time
    out = tmp_path / "coarse"
    assert main(["bridge", "--preset", "scenario-b", "--particles", "50", "--steps", "20",
                 "--modes", "mf", "--out", str(out)]) == 0
    with open(out / "affine_fit.csv") as fh:
        ts = [float(row["t"]) for row in csv.DictReader(fh)]
    assert len(ts) == len(set(ts)) == 21
    assert all(abs(t * 20 - round(t * 20)) < 1e-9 for t in ts)


def test_affine_fit_of_cl_rows_uses_the_recentred_drift(tmp_path):
    # the closed loop's kernel slots re-centre at the batch mean each step,
    # so its fit must be of that drift, not of the open-loop kernel
    from mfbridge.cli import AFFINE_FIT_SLICES, _sim_config
    from mfbridge.score import ScoreContext
    from mfbridge.simulate import run_bridge, tables_for_modes

    out = tmp_path / "cl"
    assert main(["bridge", "--preset", "scenario-b", "--modes", "mf,cl", "--particles", "400",
                 "--steps", "250", "--out", str(out)]) == 0
    with open(out / "affine_fit.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["mode"] == "cl"]
    cfg = preset("scenario-b")
    cfg.n_particles, cfg.n_steps = 400, 250
    sim_cfg = _sim_config(cfg, snapshot_times=tuple(np.linspace(0.01, 0.99, AFFINE_FIT_SLICES)))
    rep = run_bridge(sim_cfg, ["cl"])[0]
    ctx = ScoreContext(tables_for_modes(sim_cfg, ["cl"]), sim_cfg.target, sim_cfg.initial)
    j = len(rows) // 2
    t = sorted(rep.snapshots)[j]
    assert float(rows[j]["t"]) == pytest.approx(t, abs=1e-6)
    x = rep.snapshots[t]

    def fit(nu_hat):
        u = ctx.score_batch(ctx.coeffs(t), x, rep.shifts, nu_hat)
        return np.linalg.lstsq(np.column_stack([-x[:, 0], -np.ones(len(x))]), u[:, 0], rcond=None)[0]

    S, s = fit(x.mean(axis=0))
    assert float(rows[j]["S"]) == pytest.approx(S, rel=1e-7)
    assert float(rows[j]["s"]) == pytest.approx(s, rel=1e-7)
    assert abs(fit(None)[1] - s) > 1e-3   # the open-loop fit is a different drift


def test_cli_sweep_table(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--preset", "ar-sweep", "--values", "0.0,0.5",
               "--particles", "200", "--steps", "80", "--modes", "mf,ia0", "--out", str(out)])
    assert rc == 0
    with open(out / "sweep_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["value"] for r in rows} == {"0.0", "0.5"}
    assert (out / "rho=0" / "summary.json").exists()
    assert (out / "rho=0" / "zone_energy.csv").exists()


def test_cli_density(tmp_path):
    out = tmp_path / "dens"
    rc = main(["density", "--preset", "scenario-b", "--times", "0.25,0.75",
               "--steps", "200", "--out", str(out)])
    assert rc == 0
    with open(out / "density.csv") as fh:
        rows = list(csv.DictReader(fh))
    ts = {r["t"] for r in rows}
    assert ts == {"0.2500", "0.7500"}
    xs = sorted({float(r["x"]) for r in rows})
    h = xs[1] - xs[0]
    for t in ts:
        mass = sum(float(r["p_mf"]) for r in rows if r["t"] == t) * h
        assert mass == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("name", ["lqg-tcl", "scenario-a", "scenario-b"])
def test_density_grid_holds_the_whole_mass(tmp_path, name):
    # every curve at the default times integrates to one on the shared grid
    out = tmp_path / name
    assert main(["density", "--preset", name, "--modes", "mf,ia0,iam,cl", "--out", str(out)]) == 0
    with open(out / "density.csv") as fh:
        rows = list(csv.DictReader(fh))
    modes = [c for c in rows[0] if c.startswith("p_")]
    assert len(modes) == 4
    for t in sorted({r["t"] for r in rows}):
        curve = [r for r in rows if r["t"] == t]
        x = np.array([float(r["x"]) for r in curve])
        for m in modes:
            mass = np.trapezoid([float(r[m]) for r in curve], x)
            assert abs(mass - 1.0) <= 1e-6, (t, m, mass)


@pytest.mark.parametrize("name, value", [("scenario-b", None), ("d-sweep", 2.0)])
def test_trajectories_csv_rows_match_the_report(tmp_path, name, value):
    import mfbridge.cli as climod
    from mfbridge.simulate import run_bridge

    cfg = preset(name)
    cfg.modes, cfg.n_particles, cfg.n_steps = ["mf", "ia0"], 20, 1000
    climod._run_point(cfg, value, tmp_path)
    reports = run_bridge(climod._sim_config(cfg, value), cfg.modes)
    raw = (tmp_path / "trajectories.csv").read_bytes()
    with open(tmp_path / "trajectories.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert raw.count(b"\r\n") == raw.count(b"\n") == len(rows)
    ts = np.arange(cfg.n_steps + 1) / cfg.n_steps
    stride = 2  # the file keeps every (n_steps // 500)-th step
    want = [[m, str(pid), f"{t:.6f}", *(f"{v:.6g}" for v in x)]
            for m, rep in zip(cfg.modes, reports)
            for pid, path in enumerate(rep.trajectories)
            for t, x in zip(ts[::stride], path[::stride])]
    assert rows[1:] == want


def test_cli_guidance_check_solves_the_map_without_a_particle_run(tmp_path, monkeypatch):
    import mfbridge.cli as climod

    def no_run(*args, **kwargs):
        raise AssertionError("a particle run started")

    monkeypatch.setattr(climod, "run_bridge", no_run)
    out = tmp_path / "gc"
    assert main(["guidance-check", "--preset", "scenario-b", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"max_residual_vs_linear", "contraction_factor", "self_consistency_residual", "config"}
    assert summary["self_consistency_residual"] <= 1e-12
    assert summary["max_residual_vs_linear"] == pytest.approx(4.83e-3, abs=1e-4)
    assert summary["contraction_factor"] == pytest.approx(0.265, abs=1e-3)
    assert sorted(p.name for p in out.iterdir()) == ["midpoint_residuals.csv", "summary.json"]
    with open(out / "midpoint_residuals.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["interval", "t_mid", "nu_fixed_point", "nu_linear", "residual"]
    assert max(float(r["residual"]) for r in rows) == pytest.approx(summary["max_residual_vs_linear"], rel=1e-7)


@pytest.mark.parametrize("flag, value", [("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"),
                                         ("--max-iter", "0"), ("--max-iter", "-3")])
def test_cli_guidance_check_rejects_bad_iteration_limits(tmp_path, monkeypatch, capsys, flag, value):
    import mfbridge.cli as climod

    def no_run(*args, **kwargs):
        raise AssertionError("a particle run started")

    monkeypatch.setattr(climod, "run_bridge", no_run)
    out = tmp_path / "gc"
    rc = main(["guidance-check", "--preset", "scenario-b", "--particles", "50", "--steps", "30",
               flag, value, "--out", str(out)])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb_args, message", [
    (["density", "--config", "lqg-only.cfg"], "density needs a target mixture"),
    (["guidance-check", "--config", "lqg-only.cfg"], "guidance-check needs a target mixture"),
    (["density", "--preset", "ar-sweep"], "density emission is 1-d only"),
], ids=["density-lqg-only", "guidance-check-lqg-only", "density-d8"])
def test_verbs_refuse_a_config_they_cannot_run_before_writing(tmp_path, capsys, verb_args, message):
    (tmp_path / "lqg-only.cfg").write_text("lqg.sigma_tar = 0.3\n")
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in verb_args]
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bridge_summary_reports_where_the_time_went(tmp_path):
    out = tmp_path / "timed"
    assert main(["bridge", "--preset", "scenario-b", "--particles", "200", "--steps", "100",
                 "--modes", "mf,ia0", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    timings = summary["timings"]
    assert set(timings) == {"tables_s", "step_loop_s", "noise_wait_s", "writing_s"}
    assert all(v >= 0.0 for v in timings.values())
    assert timings["noise_wait_s"] <= timings["step_loop_s"]
    assert timings["tables_s"] + timings["step_loop_s"] + timings["writing_s"] <= summary["wall_seconds"] + 1.0


def test_run_experiment_rejects_invalid():
    from mfbridge.cli import run_experiment

    cfg = preset("scenario-a")
    cfg.target.weights = [0.9, 0.4]
    with pytest.raises(ConfigError):
        run_experiment(cfg, "/tmp/should-not-exist-xyz")


def test_cli_parallel_sweep(tmp_path):
    out = tmp_path / "par"
    rc = main(["sweep", "--preset", "k-sweep", "--values", "2,3", "--parallel",
               "--particles", "120", "--steps", "60", "--modes", "mf", "--out", str(out)])
    assert rc == 0
    with open(out / "sweep_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2


def test_cli_numerical_failure_exit_code(monkeypatch, tmp_path):
    from mfbridge.errors import DivergedError
    import mfbridge.cli as climod

    def boom(*a, **kw):
        raise DivergedError("synthetic blow-up")

    monkeypatch.setattr(climod, "run_bridge", boom)
    rc = main(["bridge", "--preset", "scenario-b", "--particles", "50",
               "--steps", "30", "--modes", "mf", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_cli_probe_failure_exit_code(monkeypatch, tmp_path, capsys):
    import mfbridge.cli as climod
    from mfbridge.simulate import tables_for_modes

    def broken_tables(sim_cfg, modes):
        tables = tables_for_modes(sim_cfg, modes)
        tables.bwd.c_anchor[3] -= 1e3  # K < 0 on one interval
        return tables

    monkeypatch.setattr(climod, "tables_for_modes", broken_tables)
    out = tmp_path / "probe"
    rc = main(["bridge", "--preset", "scenario-b", "--particles", "50",
               "--steps", "30", "--modes", "mf", "--out", str(out)])
    assert rc == 2
    assert "probe precision" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_cli_single_particle_summary_is_strict_json(tmp_path):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    out = tmp_path / "one"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["bridge", "--preset", "scenario-b", "--particles", "1",
                   "--steps", "60", "--modes", "mf", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["modes"]["mf"]["stderr"] is None
    components = summary["modes"]["mf"]["component_energy"]
    assert sorted(c["count"] for c in components.values()) == [0, 1]
    assert all(c["stderr"] is None for c in components.values())
    text = (out / "terminal.csv").read_text()
    assert "nan" not in text.lower()
    with open(out / "terminal.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["energy_stderr"] == "" for r in rows)
    assert [r["energy"] == "" for r in rows] == [r["count"] == "0" for r in rows]


@pytest.mark.parametrize("verb_args", [
    ["--preset", "ar-sweep", "--values", "0.5,1.5"],   # rho = 1.5 is not a correlation
    ["--preset", "d-sweep", "--values", "1,0"],        # d = 0 zones
    ["--preset", "k-sweep", "--values", "2,0"],        # K = 0 components
    ["--preset", "d-sweep", "--values", "2.5"],        # a zone count is whole
    ["--preset", "k-sweep", "--values", "2.7"],        # a component count is whole
], ids=["rho", "d", "K", "d-fraction", "K-fraction"])
def test_sweep_rejects_any_bad_point_before_running(verb_args, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", *verb_args, "--particles", "20", "--steps", "20", "--modes", "mf", "--out", str(out)])
    assert rc == 1
    assert "sweep point" in capsys.readouterr().err
    assert not out.exists()


def test_cli_dump_coefficients(tmp_path):
    out = tmp_path / "dump"
    rc = main(["bridge", "--preset", "scenario-b", "--particles", "80",
               "--steps", "60", "--modes", "mf", "--dump-coefficients", "--out", str(out)])
    assert rc == 0
    with open(out / "coefficients_mf.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header[:5] == ["t", "a_plus", "a_minus", "b_minus", "c_minus"]
    assert "lambda_y" in header


def test_dump_coefficients_rows_match_the_table(tmp_path):
    import mfbridge.cli as climod
    from mfbridge.simulate import tables_for_modes

    cfg = preset("scenario-b")
    cfg.d, cfg.modes, cfg.n_particles, cfg.n_steps = 2, ["mf", "iam"], 20, 1200
    climod._run_point(cfg, None, tmp_path, dump_coefficients=True)
    n = cfg.n_steps
    table = tables_for_modes(climod._sim_config(cfg), cfg.modes).sample(np.arange(1, n, 2) / n)
    for i, m in enumerate(cfg.modes):
        with open(tmp_path / f"coefficients_{m}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][5:7] == ["theta_plus_0", "theta_plus_1"] and len(rows) == 1 + table.t.size
        for j in range(table.t.size):
            co = table.row(j)
            want = ([f"{co.t:.6f}"] + [f"{v:.10g}" for v in (co.a_plus, co.a, co.b, co.c)]
                    + [f"{v:.10g}" for v in (*co.theta_plus[i], *co.theta_x[i], *co.theta_y[i])]
                    + [f"{v:.10g}" for v in (co.lam_plus, co.lam_x, co.lam_y)])
            assert rows[1 + j] == want, (m, j)


def test_csv_writer_bytes_match_csv_module(tmp_path):
    # mode strings, empty fields, space-joined vectors and the float edge cases
    from mfbridge.cli import CSV_CHUNK_ROWS, _joined, _write_csv

    floats = [-0.0, float("nan"), float("inf"), -float("inf"), 1e-300, 1e300, 0.1, -2.5e-7]
    n = len(floats)
    modes = ["mf", "ia0", "iam", "cl"] * 2
    vectors = [_joined(np.arange(k) - 0.5, "%.6g") for k in range(n)]
    maybe = ["" if k % 2 else f"{v:.4g}" for k, v in enumerate(floats)]
    header = ["mode", "k", "f6", "g8", "g10", "repr", "vector", "maybe"]
    columns = [modes, range(n), np.array(floats), np.array(floats), floats, floats, vectors, maybe]
    target, reference = tmp_path / "mixed.csv", tmp_path / "reference.csv"
    _write_csv(target, header, ["%s", "%d", "%.6f", "%.8g", "%.10g", "%s", "%s", "%s"],
               ([c[:3] for c in columns], [c[3:] for c in columns]))   # two blocks
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([m, k, f"{v:.6f}", f"{v:.8g}", f"{v:.10g}", v, vec, e]
                         for m, k, v, vec, e in zip(modes, range(n), floats, vectors, maybe))
    assert target.read_bytes() == reference.read_bytes()
    assert b"-0," in target.read_bytes() and b"1e+300" in target.read_bytes()

    # a block longer than one chunk comes out whole and in order
    big = np.arange(2 * CSV_CHUNK_ROWS + 3) / 7
    _write_csv(target, ["x"], ["%.8g"], [[big]])
    with open(reference, "w", newline="") as fh:
        csv.writer(fh).writerows([["x"]] + [[f"{v:.8g}"] for v in big])
    assert target.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("write", ["csv", "json"])
def test_failed_write_leaves_no_file(tmp_path, write):
    from mfbridge.cli import CSV_CHUNK_ROWS, _write_csv, _write_json

    class Unserialisable:
        pass

    def blocks():
        yield [[1.0] * (CSV_CHUNK_ROWS + 1), list(range(CSV_CHUNK_ROWS + 1))]   # more than one chunk written
        raise RuntimeError("row source failed")

    target = tmp_path / "out" / f"artifact.{write}"
    with pytest.raises((RuntimeError, TypeError)):
        if write == "csv":
            _write_csv(target, ["a", "b"], ["%.3f", "%d"], blocks())
        else:
            _write_json(target, {"ok": 1, "bad": Unserialisable()})
    assert list(target.parent.iterdir()) == []


def test_write_replaces_whole_file(tmp_path):
    from mfbridge.cli import _write_csv

    target = tmp_path / "table.csv"
    _write_csv(target, ["a"], ["%d"], [[[1, 2, 3]]])
    _write_csv(target, ["a"], ["%d"], [[[4]]])
    assert target.read_bytes() == b"a\r\n4\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_cached_parser_keeps_nothing_between_calls(tmp_path):
    # the parser is built once per process; each call's options are its own
    assert main(["lqg", "--kappa", "0.5", "--out", str(tmp_path / "k05")]) == 0
    assert main(["lqg", "--out", str(tmp_path / "plain")]) == 0
    assert json.loads((tmp_path / "k05" / "summary.json").read_text())["kappa"] == 0.5
    assert json.loads((tmp_path / "plain" / "summary.json").read_text())["kappa"] == 0.8
    run = ["bridge", "--preset", "scenario-b", "--particles", "20", "--steps", "20", "--modes", "mf"]
    assert main([*run, "--dump-coefficients", "--out", str(tmp_path / "dump")]) == 0
    assert main([*run, "--out", str(tmp_path / "nodump")]) == 0
    assert (tmp_path / "dump" / "coefficients_mf.csv").exists()
    assert not list((tmp_path / "nodump").glob("coefficients_*.csv"))


def test_lqg_skips_the_coefficient_dry_run(tmp_path, monkeypatch, capsys):
    # lqg builds no coefficient table; validate still dry-runs one
    import mfbridge.presets as presets

    def no_tables(*args, **kwargs):
        raise RuntimeError("no table may be built")

    monkeypatch.setattr(presets, "build_tables", no_tables)
    assert main(["lqg", "--preset", "lqg-tcl", "--out", str(tmp_path / "lqg")]) == 0
    assert (tmp_path / "lqg" / "lqg.csv").exists()
    assert main(["validate", "--preset", "lqg-tcl"]) == 1
    assert "dry run failed: no table may be built" in capsys.readouterr().err
