"""Gate suite: one test per acceptance criterion, each printing PASS/FAIL.

Stated tolerances are pinned here; runtime ceilings are asserted too.
Monte-Carlo criteria use the production batch sizes, so this module is the
slow part of the suite (about 105 s in one process, measured on a shared
2-core machine).
"""

import time

import numpy as np


import oracles
from pointwise import score_at, shifted_score
from mfbridge.greens import build_tables
from mfbridge.guidance import linear_guidance
from mfbridge.lqg import LqgProblem, solve_lqg
from mfbridge.presets import dsweep_mixtures, ksweep_mixtures
from mfbridge.schedule import PwcSchedule, geometric_schedule
from mfbridge.score import GaussianMixture, ScoreContext
from mfbridge.simulate import SimConfig, run_bridge


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _run(target, initial, schedule, modes, n_particles, n_steps=2500, seed=20250101):
    """One report per mode, from one stacked run: the modes share every draw."""
    cfg = SimConfig(target=target, schedule=schedule, initial=initial,
                    n_particles=n_particles, n_steps=n_steps, seed=seed)
    return run_bridge(cfg, modes)


def _scenario(name):
    target = GaussianMixture.isotropic([0.6, 0.4], [0.0, 1.5], [0.2, 0.3])
    if name == "A":
        initial = GaussianMixture.isotropic([0.6, 0.4], [1.0, 6.0], [3.0, 3.0])
    else:
        initial = GaussianMixture.isotropic([0.6, 0.4], [1.5, 5.5], [0.5, 0.7])
    return target, initial


def test_criterion_1_lqg_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n_checked = 0
    worst = 0.0
    while n_checked < 50:
        kappa = rng.uniform(0.0, 3.0)
        q = rng.uniform(0.0, 5.0)
        sigma = rng.uniform(0.05, 1.5)
        m_tar = rng.uniform(-3.0, 3.0)
        delta = np.sqrt(kappa**2 + q)
        if delta < 1e-6 or sigma**2 >= 0.98 * np.tanh(delta) / delta:
            continue
        p = LqgProblem(kappa, q, m_tar, sigma)
        sol = solve_lqg(p)
        assert abs(sol.Sigma(1.0) - sigma**2) < 1e-10
        assert abs(sol.m(1.0) - m_tar) < 1e-12
        grid, S_o, Sig_o, S1_o, S_half = oracles.lqg_shoot(kappa, q, sigma)
        rel_S = np.max(np.abs(sol.S(grid) - S_o) / np.maximum(1e-3, np.abs(S_o)))
        rel_Sig = np.max(np.abs(sol.Sigma(grid[2:]) - Sig_o[2:]) / np.abs(Sig_o[2:]))
        g2, s_o, m_o, _ = oracles.lqg_linear_shoot(kappa, q, m_tar, S_half)
        rel_m = np.max(np.abs(sol.m(g2) - m_o) / np.maximum(1e-3, np.abs(m_o)))
        rel_s = np.max(np.abs(sol.s(g2) - s_o) / np.maximum(1e-3, np.abs(s_o)))
        worst = max(worst, rel_S, rel_Sig, rel_m, rel_s)
        n_checked += 1
    elapsed = time.perf_counter() - t0
    _report("criterion 1: closed forms vs shooting oracle (50 problems)",
            worst < 1e-6 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_green_coefficients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    schedules = [geometric_schedule(12.0, 0.65, 8)]
    for _ in range(20):
        schedules.append(geometric_schedule(rng.uniform(0.5, 20.0), rng.uniform(0.3, 1.0),
                                            int(rng.choice([1, 2, 4, 8]))))
    worst_rel = 0.0
    worst_jump = 0.0
    worst_resid = 0.0
    h = 1e-6
    for sched in schedules:
        nu = rng.uniform(-2.0, 3.0, size=(sched.n_intervals, 1))
        tab = build_tables(sched, nu)
        ts = np.linspace(0.015, 0.985, 21)
        co = tab.sample(ts)
        worst_rel = max(worst_rel, float(np.max(np.abs(co.a_plus - oracles.rk4_riccati_forward(sched, ts)) / np.abs(co.a_plus))))
        a_o, b_o, c_o = oracles.rk4_riccati_backward(sched, ts)
        for got, want in ((co.a, a_o), (co.b, b_o), (co.c, c_o)):
            worst_rel = max(worst_rel, float(np.max(np.abs(got - want) / np.abs(want))))
        bp = sched.breakpoints

        def src(t, nu=nu, bp=bp, m=sched.n_intervals):
            i = min(int(np.searchsorted(bp, t, side="right")) - 1, m - 1)
            return nu[max(i, 0)]

        thx_o, thy_o = oracles.rk4_linear_backward(sched, src, ts)
        scale = max(1.0, float(np.max(np.abs(thx_o))), float(np.max(np.abs(thy_o))))
        worst_rel = max(worst_rel, float(np.max(np.abs(co.theta_x - thx_o))) / scale)
        worst_rel = max(worst_rel, float(np.max(np.abs(co.theta_y - thy_o))) / scale)
        thp_o = oracles.rk4_linear_forward(sched, src, ts)
        worst_rel = max(worst_rel, float(np.max(np.abs(co.theta_plus - thp_o))) / scale)
        for b in sched.breakpoints[1:-1]:
            right, left, mid = (tab.sample([t]).row(0) for t in (b + 1e-11, b - 1e-11, b))
            for name in ("a_plus", "a", "b", "c"):
                f_r, f_l, f_m = (getattr(k, name) for k in (right, left, mid))
                worst_jump = max(worst_jump, abs(f_r - f_l) / max(1.0, abs(f_m)))
        tm = np.concatenate([np.linspace(lo + 0.02, hi - 0.02, 5)
                             for lo, hi in zip(bp[:-1], bp[1:])])
        beta = sched.betas[np.clip(np.searchsorted(bp, tm, side="right") - 1, 0, sched.n_intervals - 1)]
        cm, up, down = tab.sample(tm), tab.sample(tm + h), tab.sample(tm - h)
        adot = (up.a_plus - down.a_plus) / (2 * h)
        worst_resid = max(worst_resid, float(np.max(np.abs(-adot + beta - cm.a_plus ** 2) / np.maximum(1.0, cm.a_plus ** 2))))
        am, bm = cm.a, cm.b
        amdot = (up.a - down.a) / (2 * h)
        worst_resid = max(worst_resid, float(np.max(np.abs(amdot + beta - am**2) / np.maximum(1.0, am**2))))
        bdot = (up.b - down.b) / (2 * h)
        worst_resid = max(worst_resid, float(np.max(np.abs(bdot - am * bm) / np.maximum(1.0, np.abs(am * bm)))))
        cdot = (up.c - down.c) / (2 * h)
        worst_resid = max(worst_resid, float(np.max(np.abs(cdot - bm**2) / np.maximum(1.0, bm**2))))
    elapsed = time.perf_counter() - t0
    _report("criterion 2: PWC coefficients vs RK4 (21 schedules)",
            worst_rel < 1e-4 and worst_jump < 1e-9 and worst_resid < 1e-5 and elapsed < 30.0,
            f"rel {worst_rel:.2e}, jump {worst_jump:.2e}, resid {worst_resid:.2e}, {elapsed:.1f}s")


def test_criterion_3_score_master_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_fd = 0.0
    worst_cv = 0.0
    for name in ("A", "B"):
        target, initial = _scenario(name)
        sched = geometric_schedule(12.0, 0.65, 8)
        nu = linear_guidance([float(initial.mean[0])], [float(target.mean[0])], sched.midpoints())
        tab = build_tables(sched, nu)
        ctx = ScoreContext(tab, target)
        for _ in range(100):
            t = rng.uniform(0.02, 0.98)
            x = rng.uniform(-2.0, 6.0)
            u = score_at(ctx, t, [x])[0]
            u_fd = oracles.psi_score_fd(tab, target, t, x)
            worst_fd = max(worst_fd, abs(u - u_fd) / max(1e-6, abs(u_fd)))
        # cross-validation identity, central differences both sides
        from mfbridge.score import marginal_density

        h = 1e-5
        for _ in range(25):
            t = rng.uniform(0.05, 0.95)
            x = rng.uniform(-1.5, 4.0)
            u = score_at(ctx, t, [x])[0]
            lp = marginal_density(ctx, t, np.array([[x + h], [x - h]]), log=True)
            dlogp = (lp[0] - lp[1]) / (2 * h)
            co = tab.sample([t])
            a1t = float(co.a_plus[0])
            th1t = float(co.theta_plus[0, 0])
            dlogG = -a1t * x + th1t
            worst_cv = max(worst_cv, abs(u - (dlogp - dlogG)))
    elapsed = time.perf_counter() - t0
    _report("criterion 3: score vs quadrature gradient + cross-validation",
            worst_fd < 1e-4 and worst_cv < 1e-4 and elapsed < 60.0,
            f"fd {worst_fd:.2e}, cv {worst_cv:.2e}, {elapsed:.1f}s")


def test_criterion_4_linear_mean_theorem():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    schedules = [geometric_schedule(12.0, 0.65, 8),
                 geometric_schedule(rng.uniform(2, 18), rng.uniform(0.4, 0.95), 4),
                 geometric_schedule(rng.uniform(2, 18), rng.uniform(0.4, 0.95), 8)]
    ok = True
    details = []
    for trial in range(5):
        K_in, K_tar = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        w_in = rng.dirichlet(np.ones(K_in))
        w_tar = rng.dirichlet(np.ones(K_tar))
        initial = GaussianMixture.isotropic(w_in, rng.uniform(-2, 6, K_in), rng.uniform(0.3, 1.5, K_in))
        target = GaussianMixture.isotropic(w_tar, rng.uniform(-2, 3, K_tar), rng.uniform(0.1, 0.8, K_tar))
        sched = schedules[trial % 3]
        rep, = _run(target, initial, sched, ["mf"], 8000, seed=404 + trial)
        ts = np.arange(rep.mean_trace.shape[0]) / (rep.mean_trace.shape[0] - 1)
        deciles = np.linspace(0, rep.mean_trace.shape[0] - 1, 11).astype(int)
        dev = np.abs(rep.mean_trace[deciles, 0] - linear_guidance(initial.mean, target.mean, ts[deciles])[:, 0])
        tol = 3 * rep.std_trace[deciles, 0] / np.sqrt(8000) + 0.01
        ok &= bool(np.all(dev < tol))
        details.append(f"max dev {np.max(dev):.4f}")
    elapsed = time.perf_counter() - t0
    _report("criterion 4: empirical mean tracks the linear interpolant",
            ok and elapsed < 300.0, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_5_table1_energies():
    t0 = time.perf_counter()
    sched = geometric_schedule(12.0, 0.65, 8)
    expect = {
        "A": {"ia0": 31.30, "iam": 29.68, "mf": 27.67,
              "per_mode": {"ia0": (13.89, 56.92), "iam": (13.43, 53.59), "mf": (14.72, 46.73)},
              "saving": 0.116},
        "B": {"ia0": 17.15, "iam": 15.47, "mf": 13.27,
              "per_mode": {"ia0": (3.38, 37.40), "iam": (2.63, 34.36), "mf": (3.21, 28.07)},
              "saving": 0.226},
    }
    ok = True
    lines = []
    for name in ("A", "B"):
        target, initial = _scenario(name)
        modes = ("ia0", "iam", "mf")
        reports = dict(zip(modes, _run(target, initial, sched, modes, 8000)))
        for m, want in ((k, v) for k, v in expect[name].items() if k in reports):
            got = reports[m].total
            ok &= abs(got - want) / want < 0.05
            occ_w, unocc_w = expect[name]["per_mode"][m]
            occ_g = reports[m].component_energy[0][0]
            unocc_g = reports[m].component_energy[1][0]
            ok &= abs(occ_g - occ_w) / occ_w < 0.08 and abs(unocc_g - unocc_w) / unocc_w < 0.08
        e_mf, e_iam, e_ia0 = (reports["mf"], reports["iam"], reports["ia0"])
        # strict ordering with 3-stderr separation; the runs share identical
        # noise and initial draws (same seed), so the honest uncertainty is
        # the stderr of the paired per-particle energy difference
        B = e_mf.particle_energy.size

        def paired_se(a, b):
            return float(np.std(a.particle_energy - b.particle_energy, ddof=1) / np.sqrt(B))

        ok &= (e_mf.total + 3 * paired_se(e_mf, e_iam)) < e_iam.total
        ok &= (e_iam.total + 3 * paired_se(e_iam, e_ia0)) < e_ia0.total
        saving = 1 - e_mf.total / e_ia0.total
        ok &= abs(saving - expect[name]["saving"]) < 0.02
        lines.append(f"{name}: {e_ia0.total:.2f}/{e_iam.total:.2f}/{e_mf.total:.2f} saving {saving * 100:.1f}%")
    elapsed = time.perf_counter() - t0
    _report("criterion 5: per-scenario energy table at B=8000",
            ok and elapsed < 600.0, "; ".join(lines) + f", {elapsed:.0f}s")


def test_criterion_6_dimension_sweep():
    t0 = time.perf_counter()
    sched = geometric_schedule(12.0, 0.65, 8)
    table2 = {1: (12.26, 16.17), 2: (13.07, 16.96), 4: (13.37, 17.22), 8: (13.57, 17.40)}
    ok = True
    lines = []
    mf_per_zone = {}
    for d in (1, 2, 4, 8):
        initial, target = dsweep_mixtures(d)
        rep_mf, rep_0 = _run(target, initial, sched, ["mf", "ia0"], 4000)
        saving = 1 - rep_mf.total / rep_0.total
        mf_per_zone[d] = rep_mf.total / d
        ok &= 0.19 <= saving <= 0.25
        want_mf, want_0 = table2[d]
        ok &= abs(rep_mf.total / d - want_mf) / want_mf < 0.15
        ok &= abs(rep_0.total / d - want_0) / want_0 < 0.15
        lines.append(f"d={d}: E/d {rep_mf.total / d:.2f}/{rep_0.total / d:.2f} saving {saving * 100:.1f}%")
    vals = np.array(list(mf_per_zone.values()))
    ok &= (vals.max() - vals.min()) / vals.mean() < 0.10  # flat within +-5%
    elapsed = time.perf_counter() - t0
    _report("criterion 6: per-zone energy flat across d", ok and elapsed < 900.0,
            "; ".join(lines) + f", {elapsed:.0f}s")


def test_criterion_7_component_and_correlation_sweeps():
    t0 = time.perf_counter()
    sched = geometric_schedule(12.0, 0.65, 8)
    expect_k = {2: 0.193, 3: 0.210, 4: 0.216, 8: 0.224}
    ok = True
    lines = []
    for K, want in expect_k.items():
        initial, target = ksweep_mixtures(K, d=4)
        rep_mf, rep_0, rep_m = _run(target, initial, sched, ["mf", "ia0", "iam"], 4000)
        saving = 1 - rep_mf.total / rep_0.total
        ok &= abs(saving - want) < 0.02
        # zero target mean: the two constant-centre baselines coincide
        ok &= abs(rep_0.total - rep_m.total) < 3 * np.hypot(rep_0.stderr, rep_m.stderr) + 1e-9
        lines.append(f"K={K}: {saving * 100:.1f}%")
    expect_rho = {0.0: 0.220, 0.5: 0.218, 0.8: 0.210}
    for rho, want in expect_rho.items():
        target = GaussianMixture.spatial_ar1([0.6, 0.4], [0.0, 1.5], [0.2, 0.3], rho=rho, d=8)
        initial = GaussianMixture.spatial_ar1([0.6, 0.4], [1.5, 5.5], [0.5, 0.7], rho=rho, d=8)
        rep_mf, rep_0 = _run(target, initial, sched, ["mf", "ia0"], 4000)
        saving = 1 - rep_mf.total / rep_0.total
        ok &= abs(saving - want) < 0.02
        lines.append(f"rho={rho}: {saving * 100:.1f}%")
    elapsed = time.perf_counter() - t0
    _report("criterion 7: component-count and zone-correlation sweeps",
            ok and elapsed < 1200.0, "; ".join(lines) + f", {elapsed:.0f}s")


def test_criterion_8_fixed_point_consistency():
    t0 = time.perf_counter()
    from mfbridge.guidance import fixed_point_guidance

    sched = geometric_schedule(12.0, 0.65, 8)
    bounds = {"A": 0.078 * 1.5, "B": 0.030 * 1.5}
    ok = True
    lines = []
    for name in ("A", "B"):
        target, initial = _scenario(name)
        mids = sched.midpoints()
        mid_steps = np.round(mids * 2500).astype(int)

        def mean_map(nu_values):
            cfg = SimConfig(target=target, schedule=sched, initial=initial,
                            n_particles=8000, n_steps=2500, seed=808)
            return run_bridge(cfg, ["mf"], build_tables(sched, nu_values, 2500))[0].mean_trace[mid_steps]

        nu0 = np.repeat(target.mean[None, :], 8, axis=0)
        res = fixed_point_guidance(sched, mean_map, nu0, tol=2e-4, max_iter=15)
        resid = float(np.max(np.abs(res.values - linear_guidance(initial.mean, target.mean, mids))))
        ok &= res.converged and res.n_iterations <= 15 and resid <= bounds[name]
        lines.append(f"{name}: {res.n_iterations} iters, resid {resid:.4f} (limit {bounds[name]:.4f})")
    elapsed = time.perf_counter() - t0
    _report("criterion 8: Picard iteration consistency", ok, "; ".join(lines) + f", {elapsed:.0f}s")


def test_criterion_9_trivial_limits():
    t0 = time.perf_counter()
    # interaction-free bridge onto a standard normal: no control anywhere
    sched0 = PwcSchedule([0.0, 1.0], [0.0])
    tab0 = build_tables(sched0, np.zeros((1, 1)))
    ctx0 = ScoreContext(tab0, GaussianMixture.isotropic([1.0], [0.0], [1.0]))
    worst_u = max(abs(score_at(ctx0, t, [x])[0])
                  for t in (0.05, 0.25, 0.5, 0.75, 0.95) for x in np.linspace(-4, 4, 17))
    cfg = SimConfig(target=ctx0.target, schedule=sched0, n_particles=2000, n_steps=250, seed=9)
    zero_energy = run_bridge(cfg)[0].total

    # single-component target: exactly affine score
    sched = geometric_schedule(12.0, 0.65, 8)
    tab1 = build_tables(sched, linear_guidance([0.0], [1.2], sched.midpoints()))
    ctx1 = ScoreContext(tab1, GaussianMixture.isotropic([1.0], [1.2], [0.4]))
    worst_r2 = 1.0
    xs = np.linspace(-3, 3, 33)
    for t in (0.1, 0.4, 0.7, 0.95):
        us = np.array([score_at(ctx1, t, [x])[0] for x in xs])
        coef = np.polyfit(xs, us, 1)
        ss_res = float(np.sum((us - np.polyval(coef, xs)) ** 2))
        ss_tot = float(np.sum((us - us.mean()) ** 2))
        worst_r2 = min(worst_r2, 1.0 - ss_res / ss_tot)

    # translation equivariance
    target, initial = _scenario("A")
    nuA = linear_guidance([float(initial.mean[0])], [float(target.mean[0])], sched.midpoints())
    tabA = build_tables(sched, nuA)
    ctxA = ScoreContext(tabA, target)
    c = 0.9
    nu2 = linear_guidance([float(initial.mean[0]) + c], [float(target.mean[0]) + c], sched.midpoints())
    tab2 = build_tables(sched, nu2)
    tgt2 = GaussianMixture.isotropic([0.6, 0.4], [c, 1.5 + c], [0.2, 0.3])
    ctx2 = ScoreContext(tab2, tgt2)
    worst_tr = max(abs(score_at(ctxA, t, [x])[0] - shifted_score(ctx2, t, [x + c], [c])[0])
                   for t in (0.1, 0.5, 0.9) for x in (-1.0, 0.5, 2.0))
    elapsed = time.perf_counter() - t0
    _report("criterion 9: trivial limits",
            worst_u < 1e-6 and zero_energy < 1e-10 and worst_r2 > 1 - 1e-10 and worst_tr < 1e-10,
            f"|u| {worst_u:.1e}, E {zero_energy:.1e}, R2 gap {1 - worst_r2:.1e}, transl {worst_tr:.1e}, {elapsed:.0f}s")
