from dataclasses import fields

import numpy as np
import pytest


import mfbridge.simulate as simulate
from mfbridge.errors import ProbeError
from mfbridge.schedule import PwcSchedule, geometric_schedule
from mfbridge.score import GaussianMixture, KernelCoeffs, ScoreContext
from mfbridge.simulate import (GUIDANCE_MODES, SimConfig, mode_guidance, run_bridge, sample_initial,
                               tables_for_modes, _stream)


def small_config(**kw):
    defaults = dict(
        target=GaussianMixture.isotropic([0.6, 0.4], [0.0, 1.5], [0.2, 0.3]),
        schedule=geometric_schedule(12.0, 0.65, 8),
        n_particles=400,
        n_steps=250,
        seed=7,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(n_steps=5)


def test_guidance_modes_resolve():
    # each mode's guidance is one value per interval: the linear
    # interpolant at the midpoints for mf and cl, constants for ia0 and iam
    target = GaussianMixture.isotropic([0.6, 0.4], [[0.0, 0.3], [1.5, -0.4]], [0.2, 0.3])
    initial = GaussianMixture.isotropic([0.6, 0.4], [[1.5, 2.0], [5.5, 4.0]], [0.5, 0.7])
    cfg = small_config(target=target, initial=initial)
    mids = cfg.schedule.midpoints()[:, None]
    linear = (1.0 - mids) * initial.mean + mids * target.mean
    want = {"mf": linear, "cl": linear, "ia0": np.zeros((8, 2)), "iam": np.tile(target.mean, (8, 1))}
    for mode in GUIDANCE_MODES:
        np.testing.assert_allclose(mode_guidance(cfg, mode), want[mode], rtol=1e-15, atol=0, err_msg=mode)


def test_sample_initial_delta():
    cfg = small_config()
    state = sample_initial(cfg, _stream(1, 0))
    assert np.all(state.positions == 0.0)
    assert np.all(state.labels == 0)
    assert state.shifts is None


def test_sample_initial_single_gaussian_clt():
    init = GaussianMixture.isotropic([1.0], [0.7], [0.5])
    cfg = small_config(initial=init, n_particles=100_000)
    state = sample_initial(cfg, _stream(1, 0))
    assert abs(state.positions.mean() - 0.7) < 4 * 0.5 / np.sqrt(100_000)


def test_sample_initial_mixture_fractions():
    init = GaussianMixture.isotropic([0.6, 0.4], [1.5, 5.5], [0.5, 0.7])
    cfg = small_config(initial=init, n_particles=8000)
    state = sample_initial(cfg, _stream(20250101, 0))
    frac = np.mean(state.labels == 0)
    assert abs(frac - 0.6) < 3 * np.sqrt(0.6 * 0.4 / 8000)
    assert np.array_equal(state.shifts, state.positions)


def test_pure_diffusion_when_score_vanishes():
    # matched heat kernel: zero drift, terminal law N(0, 1)
    sched = PwcSchedule([0.0, 1.0], [0.0])
    cfg = SimConfig(
        target=GaussianMixture.isotropic([1.0], [0.0], [1.0]),
        schedule=sched, n_particles=20000, n_steps=200, seed=5,
    )
    rep = run_bridge(cfg)[0]
    assert rep.total < 1e-10
    assert abs(rep.mean_trace[-1, 0]) < 4 / np.sqrt(20000)
    assert abs(rep.std_trace[-1, 0] - 1.0) < 0.03


def test_single_gaussian_terminal_moments():
    cfg = small_config(
        target=GaussianMixture.isotropic([1.0], [1.2], [0.4]),
        n_particles=8000, n_steps=1000,
    )
    rep = run_bridge(cfg)[0]
    se_mean = rep.std_trace[-1, 0] / np.sqrt(8000)
    assert abs(rep.mean_trace[-1, 0] - 1.2) < 3 * se_mean + 1e-3
    assert abs(rep.std_trace[-1, 0] - 0.4) < 3 * 0.4 / np.sqrt(2 * 8000) + 0.4 / 1000


def test_seed_determinism():
    cfg = small_config(initial=GaussianMixture.isotropic([0.6, 0.4], [1.5, 5.5], [0.5, 0.7]))
    r1 = run_bridge(cfg)[0]
    r2 = run_bridge(cfg)[0]
    assert r1.total == r2.total
    assert np.array_equal(r1.mean_trace, r2.mean_trace)
    assert np.array_equal(r1.trajectories, r2.trajectories)
    r3 = run_bridge(small_config(seed=8, initial=cfg.initial))[0]
    assert r3.total != r1.total


def test_energy_decomposition_identity():
    cfg = small_config(initial=GaussianMixture.isotropic([0.6, 0.4], [1.5, 5.5], [0.5, 0.7]),
                       n_particles=3000, n_steps=400)
    rep = run_bridge(cfg)[0]
    total_from_parts = sum(rep.fractions[k] * rep.component_energy[k][0]
                           for k in rep.component_energy if rep.component_energy[k][2] > 0)
    assert abs(total_from_parts - rep.total) < 1e-10
    assert rep.attribution == "initial"
    # zone energy sums to the total in 1-d
    assert rep.zone_energy[0] == pytest.approx(rep.total, abs=1e-10)


def test_energy_nonnegative_and_monotone():
    cfg = small_config(initial=GaussianMixture.isotropic([0.6, 0.4], [1.5, 5.5], [0.5, 0.7]))
    rep = run_bridge(cfg)[0]
    assert np.all(np.diff(rep.energy_trace) >= -1e-12)
    assert np.all(rep.power >= 0)


def test_terminal_attribution_for_delta_start():
    cfg = small_config(n_particles=2000, n_steps=500)
    rep = run_bridge(cfg)[0]
    assert rep.attribution == "terminal"
    fr = rep.fractions
    assert abs(fr[0] - 0.6) < 3 * np.sqrt(0.6 * 0.4 / 2000) + 0.02
    for k, m in rep.terminal_mean.items():
        assert abs(m[0] - cfg.target.means[k][0]) < 0.05


def test_multi_zone_shapes_and_energy_split():
    d = 3
    target = GaussianMixture.isotropic([0.6, 0.4], [[0.0] * d, [1.5] * d], [0.2, 0.3])
    initial = GaussianMixture.isotropic([0.6, 0.4], [[1.5] * d, [5.5] * d], [0.5, 0.7])
    cfg = SimConfig(target=target, schedule=geometric_schedule(12.0, 0.65, 8),
                    initial=initial, n_particles=500, n_steps=300, seed=3)
    rep = run_bridge(cfg)[0]
    assert rep.mean_trace.shape == (301, d)
    assert rep.zone_energy.shape == (d,)
    assert rep.zone_energy.sum() == pytest.approx(rep.total, abs=1e-9)
    assert rep.trajectories.shape == (500 if 500 < 50 else 50, 301, d)


def test_closed_loop_tracks_analytic(paper_schedule, dr_target, initial_b):
    cfg = SimConfig(target=dr_target, schedule=paper_schedule, initial=initial_b,
                    n_particles=4000, n_steps=800, seed=21)
    rep, rep_cl = run_bridge(cfg, ["mf", "cl"])
    assert abs(rep_cl.total / rep.total - 1.0) < 0.02
    # terminal law matches the target mixture component-wise
    for rp in (rep, rep_cl):
        for k, m in rp.terminal_mean.items():
            n_k = np.sum(rp.component_energy_terminal[k][2])
            sd = rp.terminal_std[k][0]
            assert abs(m[0] - dr_target.means[k][0]) < 3 * sd / np.sqrt(n_k) + 0.02
            assert abs(sd - np.sqrt(dr_target.covariances[k][0, 0])) < 0.05


def test_snapshots_recorded():
    cfg = small_config(snapshot_times=(0.0, 0.5, 1.0))
    rep = run_bridge(cfg)[0]
    assert set(rep.snapshots) == {0.0, 0.5, 1.0}
    assert rep.snapshots[0.5].shape == (400, 1)
    assert np.all(rep.snapshots[0.0] == 0.0)


def _zero_beta_delta_config():
    sched = PwcSchedule([0.0, 0.25, 0.5, 0.75, 1.0], [6.0, 0.0, 2.0, 0.0])
    return small_config(schedule=sched), "mf"


def _mixture_config():
    return small_config(initial=GaussianMixture.isotropic([0.6, 0.4], [1.5, 5.5], [0.5, 0.7])), "mf"


def _closed_loop_config():
    return small_config(initial=GaussianMixture.isotropic([0.6, 0.4], [1.5, 5.5], [0.5, 0.7])), "cl"


@pytest.mark.parametrize("make_config", [_zero_beta_delta_config, _mixture_config, _closed_loop_config])
def test_step_table_rows_match_scalar_coeffs(make_config):
    # the vectorised per-step table run_bridge builds equals the one-time
    # evaluation at every step time, field by field (nu is the closed-loop
    # re-centring reference)
    cfg, mode = make_config()
    ctx = ScoreContext(tables_for_modes(cfg, [mode]), cfg.target, cfg.initial)
    n = cfg.n_steps
    dt = 1.0 / n
    table = ctx.coeff_table(np.arange(n) * dt)
    names = [f.name for f in fields(KernelCoeffs)]
    for j in range(n):
        row, co = table.row(j), ctx.coeffs(j * dt)
        for name in names:
            np.testing.assert_allclose(getattr(row, name), getattr(co, name), rtol=1e-14, atol=0, err_msg=name)


def _no_step(*args, **kwargs):
    raise AssertionError("a particle moved before the check")


def test_probe_failure_raises_before_first_step(monkeypatch):
    cfg = small_config()
    tables = tables_for_modes(cfg, ["mf"])
    tables.bwd.c_anchor[3] -= 1e3  # K < 0 on [0.375, 0.5) only
    monkeypatch.setattr(simulate, "step", _no_step)
    # first step time at or after 0.375 on the 250-step grid
    with pytest.raises(ProbeError, match=r"at t=0\.376"):
        run_bridge(cfg, ["mf"], tables)


def test_run_bridge_rejects_bad_modes_before_first_step(monkeypatch):
    cfg = small_config()
    monkeypatch.setattr(simulate, "step", _no_step)
    with pytest.raises(ValueError, match="'nope'"):
        run_bridge(cfg, ["mf", "nope"])
    with pytest.raises(ValueError, match="tables hold 1 guidance modes for 2 modes"):
        run_bridge(cfg, ["mf", "ia0"], tables_for_modes(cfg, ["mf"]))


def test_run_bridge_defaults_to_one_mf_linear_report():
    cfg = small_config(n_particles=50, n_steps=50)
    rep, = run_bridge(cfg)
    assert rep.guidance_mode == "mf"
    assert rep.total == run_bridge(cfg, ["mf"])[0].total


def test_stacked_run_equals_single_runs():
    # the modes share every draw, so one stacked pass reproduces each
    # single-mode run up to rounding
    cfg = small_config(initial=GaussianMixture.isotropic([0.6, 0.4], [1.5, 5.5], [0.5, 0.7]), n_particles=300)
    stacked = run_bridge(cfg, GUIDANCE_MODES)
    assert [r.guidance_mode for r in stacked] == list(GUIDANCE_MODES)
    for mode, rep in zip(GUIDANCE_MODES, stacked):
        single, = run_bridge(cfg, [mode])
        assert rep.total == pytest.approx(single.total, rel=1e-13, abs=0)
        for name in ("power", "mean_trace", "zone_energy", "particle_energy", "trajectories"):
            np.testing.assert_allclose(getattr(rep, name), getattr(single, name), rtol=1e-13, atol=0, err_msg=name)
        for k, (e, se, n) in single.component_energy.items():
            assert rep.component_energy[k][2] == n
            assert rep.component_energy[k][0] == pytest.approx(e, rel=1e-13, abs=0)
            assert rep.component_energy[k][1] == pytest.approx(se, rel=1e-13, abs=0)
    totals = [r.total for r in stacked]
    assert len(set(totals)) == len(totals)
