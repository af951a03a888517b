import functools
import hashlib
import threading
from dataclasses import fields

import numpy as np
import pytest


import mfbridge.simulate as simulate
from mfbridge.errors import DivergedError, ProbeError
from mfbridge.presets import preset
from mfbridge.schedule import PwcSchedule, geometric_schedule
from mfbridge.score import GaussianMixture, KernelCoeffs, ScoreContext
from mfbridge.simulate import (GUIDANCE_MODES, SimConfig, mode_guidance, run_bridge, sample_initial,
                               tables_for_modes, _streams)


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
    state = sample_initial(cfg, _streams(1)(0))
    assert np.all(state.positions == 0.0)
    assert np.all(state.labels == 0)
    assert state.shifts is None


def test_sample_initial_single_gaussian_clt():
    init = GaussianMixture.isotropic([1.0], [0.7], [0.5])
    cfg = small_config(initial=init, n_particles=100_000)
    state = sample_initial(cfg, _streams(1)(0))
    assert abs(state.positions.mean() - 0.7) < 4 * 0.5 / np.sqrt(100_000)


def test_sample_initial_mixture_fractions():
    init = GaussianMixture.isotropic([0.6, 0.4], [1.5, 5.5], [0.5, 0.7])
    cfg = small_config(initial=init, n_particles=8000)
    state = sample_initial(cfg, _streams(20250101)(0))
    frac = np.mean(state.labels == 0)
    assert abs(frac - 0.6) < 3 * np.sqrt(0.6 * 0.4 / 8000)
    assert np.array_equal(state.shifts, state.positions)


@pytest.mark.parametrize("seed", [0, 20250101, 2**64 + 5])
def test_rekeyed_stream_draws_what_a_new_generator_draws(seed):
    # every odd stream leaves a half-used 32-bit word and a part-used buffer
    # behind, which the next re-key must drop
    stream = _streams(seed)
    assert stream(0) is stream(1)
    for j in range(3000):
        want = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), j]))
        got = stream(j)
        if j % 2:
            assert np.array_equal(got.random(3, dtype=np.float32), want.random(3, dtype=np.float32))
        assert np.array_equal(got.standard_normal(5), want.standard_normal(5))


class _Drift:
    """Stands in for the ScoreContext of ``step``: a fixed drift for every row."""

    n_modes = 2

    def __init__(self, drift):
        self.drift = drift

    def score_batch(self, co, X, Z, nu_hat, work, post):
        work[3][...] = self.drift
        return work[3]


class _NoRows:
    def row(self, j):
        return None


def _diverging_step(drift, positions):
    # particle 3 of mode 1 is row B + 3 of the stacked positions
    B, d = 5, 2
    state = sample_initial(small_config(n_particles=B, target=GaussianMixture.isotropic([1.0], [[0.0, 0.0]], [1.0])),
                           _streams(1)(0), 2)
    state.positions[B + 3] = positions
    state.step_index = 7
    u = np.zeros((2 * B, d))
    u[B + 3] = drift
    work, post = np.empty((simulate.WORK_SLOTS, 2 * B, d)), np.empty((2, 1, 2 * B))
    simulate.step(state, _Drift(u), _NoRows(), 0.01, _streams(1)(8).standard_normal((B, d)), work, post)


def test_non_finite_drift_is_named():
    with pytest.raises(DivergedError, match=r"non-finite drift for particle 3 of mode 1 at t=0\.070000"):
        _diverging_step([0.0, np.nan], 0.0)


def test_finite_drift_past_the_largest_float_is_a_non_finite_position():
    # the drift's square and the position overflow; only the message is under test
    with np.errstate(over="ignore"), \
            pytest.raises(DivergedError, match=r"non-finite position for particle 3 of mode 1 at t=0\.080000"):
        _diverging_step([0.0, 1e308], [0.0, 1.79e308])


def test_run_bridge_names_the_mode_whose_drift_turns_nan(monkeypatch):
    # a NaN drift for one particle of the second mode at the 41st step
    original, calls = ScoreContext.score_batch, []

    def nan_at_step_40(self, *args):
        u = original(self, *args)
        calls.append(None)
        if len(calls) == 41:
            u[400 + 17, 0] = np.nan
        return u

    monkeypatch.setattr(ScoreContext, "score_batch", nan_at_step_40)
    with pytest.raises(DivergedError, match=r"non-finite drift for particle 17 of mode 1 at t=0\.160000"):
        run_bridge(small_config(), ["mf", "ia0"])


def test_run_bridge_names_the_mode_whose_energy_overflows(monkeypatch):
    # a finite drift of 1e160 at the last step: its square overflows, the position stays finite
    original, calls = ScoreContext.score_batch, []

    def huge_at_last_step(self, *args):
        u = original(self, *args)
        calls.append(None)
        if len(calls) == 250:
            u[400 + 17, 0] = 1e160
        return u

    monkeypatch.setattr(ScoreContext, "score_batch", huge_at_last_step)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergedError, match=r"non-finite energy for particle 17 of mode 1"):
        run_bridge(small_config(), ["mf", "ia0"])


@pytest.mark.parametrize("B, d, n_steps", [(1, 1, 40), (20_000, 2, 3), (1000, 3, 25)],
                         ids=["one-particle", "one-step-blocks", "partial-last-block"])
def test_noise_blocks_draw_each_steps_own_stream(B, d, n_steps):
    seed = 2**64 + 9
    with simulate._NoiseBlocks(seed, n_steps, B, d) as noise:
        got = [xi.copy() for xi in noise]
    assert len(got) == n_steps
    if B == 20_000:
        assert noise.per_block == 1
    if B == 1000:
        assert n_steps % noise.per_block != 0 and noise.per_block < n_steps
    for j, xi in enumerate(got):
        want = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 1 + j])).standard_normal((B, d))
        assert np.array_equal(xi, want), j


def _patch_score_batch(monkeypatch, at, change):
    """``change(u)`` is applied to the drift of the ``at``-th ``score_batch`` call (1-based)."""
    original, calls = ScoreContext.score_batch, []

    def score_batch(self, *args):
        u = original(self, *args)
        calls.append(None)
        if len(calls) == at:
            change(u)
        return u
    monkeypatch.setattr(ScoreContext, "score_batch", score_batch)


def _set(value):
    def change(u):
        u[3, 0] = value
    return change


def _interrupt(u):
    raise KeyboardInterrupt


@pytest.mark.parametrize("way_out", ["return", "diverged", "energy-overflow", "interrupt", "first-step"])
def test_run_bridge_leaves_no_thread_behind(monkeypatch, way_out):
    before = threading.active_count()
    cfg = small_config()
    if way_out == "return":
        run_bridge(cfg, ["mf"])
    elif way_out == "diverged":
        _patch_score_batch(monkeypatch, 41, _set(np.nan))
        with pytest.raises(DivergedError, match="non-finite drift"):
            run_bridge(cfg, ["mf"])
    elif way_out == "energy-overflow":
        _patch_score_batch(monkeypatch, 250, _set(1e160))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedError, match="non-finite energy"):
            run_bridge(cfg, ["mf"])
    elif way_out == "interrupt":
        _patch_score_batch(monkeypatch, 7, _interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_bridge(cfg, ["mf"])
    else:  # the first step fails while the worker still has blocks to fill
        _patch_score_batch(monkeypatch, 1, _set(np.nan))
        with pytest.raises(DivergedError, match="non-finite drift"):
            run_bridge(small_config(n_particles=4000, n_steps=400), ["mf"])
    assert threading.active_count() == before


def test_a_failure_in_the_noise_thread_is_raised_in_the_caller(monkeypatch):
    real = simulate._NoiseBlocks._fill

    def failing_at_the_second_block(self, k):
        assert threading.current_thread() is not threading.main_thread()
        if k == 1:
            raise MemoryError("injected in the noise thread")
        real(self, k)

    before = threading.active_count()
    monkeypatch.setattr(simulate._NoiseBlocks, "_fill", failing_at_the_second_block)
    with pytest.raises(MemoryError, match="injected in the noise thread"):
        run_bridge(small_config(n_particles=4000), ["mf"])
    assert threading.active_count() == before


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


# ----------------------------------------------------------------------------
# pinned results: a change to the step loop that keeps every floating-point
# operation leaves these bits as they are.  They were taken with numpy 2.4 and
# its bundled OpenBLAS 0.3.31 on x86-64; a BLAS that orders its sums
# differently moves the last bits
# ----------------------------------------------------------------------------

def _preset_config(name, **kw):
    exp = preset(name)
    initial, target = exp.mixtures(None)
    return SimConfig(target=target, schedule=exp.schedule(), initial=initial, **kw)


def _two_basis_config(**kw):
    # an isotropic component on the identity and one general SPD component on its own eigenbasis
    A = np.array([[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 0.5]])
    target = GaussianMixture(np.array([0.6, 0.4]), np.array([[0.0, 0.2, -0.1], [1.5, 1.0, 1.2]]),
                             np.array([0.09 * np.eye(3), 0.2 * A]))
    initial = GaussianMixture.isotropic([0.5, 0.5], [[1.5, 2.0, 1.0], [4.0, 3.5, 5.0]], [0.5, 0.7])
    return SimConfig(target=target, schedule=geometric_schedule(12.0, 0.65, 8), initial=initial, **kw)


# name -> (config builder, modes, {mode: (total, zone energies)} as float.hex, digest of the traces)
GOLDEN = {
    "scenario-b": (functools.partial(_preset_config, "scenario-b"), ("mf", "ia0", "iam"), {
        "mf": ("0x1.8745cbf76cf54p+3", ["0x1.8745cbf76cf53p+3"]),
        "ia0": ("0x1.ec2b3183a11bep+3", ["0x1.ec2b3183a11b8p+3"]),
        "iam": ("0x1.bbfb932b4d975p+3", ["0x1.bbfb932b4d976p+3"]),
    }, "3e445bc3a145e42d"),
    "scenario-a": (functools.partial(_preset_config, "scenario-a"), ("mf", "ia0", "iam", "cl"), {
        "mf": ("0x1.d9da3e662612bp+4", ["0x1.d9da3e662612bp+4"]),
        "ia0": ("0x1.efd60b9fc9f18p+4", ["0x1.efd60b9fc9f19p+4"]),
        "iam": ("0x1.df0bd79e2fdfbp+4", ["0x1.df0bd79e2fdfcp+4"]),
        "cl": ("0x1.d5471a932e9cap+4", ["0x1.d5471a932e9ccp+4"]),
    }, "d9e75ad656e2a75e"),
    "two-bases-d3": (_two_basis_config, ("mf", "ia0", "cl"), {
        "mf": ("0x1.dcfa30eb64cb6p+4", ["0x1.06deec4499176p+3", "0x1.f9e6e4fda399bp+2", "0x1.b62203135eb29p+3"]),
        "ia0": ("0x1.36324f462feb2p+5", ["0x1.642d3806ac479p+3", "0x1.5677056d9518bp+3", "0x1.0f127fd23f25fp+4"]),
        "cl": ("0x1.df33a121bfb60p+4", ["0x1.0831553e23888p+3", "0x1.fc626343adf28p+2", "0x1.b804bb6384ea0p+3"]),
    }, "5bda03dffef54377"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_energies_are_bit_identical_to_the_pinned_run(name):
    make, modes, want, trace_digest = GOLDEN[name]
    cfg = make(n_particles=64, n_steps=200, seed=11)
    if name == "two-bases-d3":
        assert [U is None for U, _ in ScoreContext(tables_for_modes(cfg, ["mf"]), cfg.target).bases] == [True, False]
    reports = run_bridge(cfg, modes)
    got = {r.guidance_mode: (r.total.hex(), [float(v).hex() for v in r.zone_energy]) for r in reports}
    assert got == want
    digest = hashlib.sha256()
    for r in reports:
        for a in (r.power, r.mean_trace, r.std_trace, r.trajectories, r.particle_energy):
            digest.update(a.tobytes())
    assert digest.hexdigest()[:16] == trace_digest
