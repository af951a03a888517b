import csv
import json
import warnings

import numpy as np
import pytest

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
    rc = main(["density", "--scenario", "B", "--times", "0.25,0.75",
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


def test_cli_guidance_check(tmp_path):
    out = tmp_path / "gc"
    rc = main(["guidance-check", "--preset", "scenario-b", "--particles", "600",
               "--steps", "250", "--max-iter", "12", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] <= 12
    assert (out / "guidance_check.csv").exists()
    assert (out / "midpoint_residuals.csv").exists()


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
    from mfbridge.simulate import tables_for_mode

    def broken_tables(sim_cfg):
        tables = tables_for_mode(sim_cfg)
        tables.bwd.c_anchor[3] -= 1e3  # K < 0 on one interval
        return tables

    monkeypatch.setattr(climod, "tables_for_mode", broken_tables)
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


@pytest.mark.parametrize("write", ["csv", "json"])
def test_failed_write_leaves_no_file(tmp_path, write):
    from mfbridge.cli import _write_csv, _write_json

    class Unserialisable:
        pass

    def rows():
        yield [1, 2]
        raise RuntimeError("row source failed")

    target = tmp_path / "out" / f"artifact.{write}"
    with pytest.raises((RuntimeError, TypeError)):
        if write == "csv":
            _write_csv(target, ["a", "b"], rows())
        else:
            _write_json(target, {"ok": 1, "bad": Unserialisable()})
    assert list(target.parent.iterdir()) == []


def test_write_replaces_whole_file(tmp_path):
    from mfbridge.cli import _write_csv

    target = tmp_path / "table.csv"
    _write_csv(target, ["a"], [[1], [2], [3]])
    _write_csv(target, ["a"], [[4]])
    assert target.read_bytes() == b"a\r\n4\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
