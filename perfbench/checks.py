"""Output checks for every workload operation.

Each check reads the artifacts one CLI call wrote and returns a list of
problems, empty when the call's output is right.  Every problem starts with
a tag naming the check, so the self-test can tell which check fired.

The references are made apart from the program: the paper's tables, the
closed-form endpoint formulas, identities the method must satisfy, and
quadratures the benchmark does itself.  Monte Carlo tolerances are
``Z * (the run's own reported stderr) + a fixed allowance``; the README gives
the reason for each allowance.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

Z = 6.0  # stderr multiple; a Gaussian error passes with probability 1 - 2e-9

# paper Table 1, scenario B, B=8000, and the acceptance suite's tolerances
TABLE1_B = {"mf": 13.27, "iam": 15.47, "ia0": 17.15}
TABLE1_REL_ALLOWANCE = 0.05
SAVING_B = 0.226
SAVING_ALLOWANCE = 0.02

# paper Table 2 at d=8 (energy per zone) and the paper's saving band
TABLE2_D8 = {"mf": 13.57, "ia0": 17.40}
TABLE2_REL_ALLOWANCE = 0.15
SAVING_BAND = (0.19, 0.25)

# demand-response target: basin means and scales (scenario B)
TARGET_DR = ((0.6, 0.4), (0.0, 1.5), (0.2, 0.3))  # weights, means, sigmas
TERMINAL_MEAN_ALLOWANCE = 0.01
TERMINAL_STD_ALLOWANCE = 0.02
ZONE_MEAN_ALLOWANCE = 0.01   # acceptance criterion 4's allowance

CSV_REL_DIGITS = 5e-8        # "%.8g" rounds to at most 5e-8 relative
DENSITY_MASS_TOL = 1e-3
DENSITY_TERMINAL_TOL = 0.02  # |p(1) - p_target| relative to the target's peak


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def _mixture_std(weights, means, sigmas) -> float:
    w, m, s = (np.asarray(v, dtype=float) for v in (weights, means, sigmas))
    mean = w @ m
    return float(np.sqrt(w @ (s**2 + m**2) - mean**2))


def _saving_stderr(e_mf: float, se_mf: float, e_0: float, se_0: float) -> float:
    """Delta-method stderr of 1 - e_mf / e_0, treating the two runs as unpaired.

    The modes share noise streams, so the true spread is smaller; the
    unpaired value is the conservative one that the artifacts allow.
    """
    return math.hypot(se_mf / e_0, e_mf * se_0 / e_0**2)


# ----------------------------------------------------------------------------
# simulation workloads
# ----------------------------------------------------------------------------

def scenario_b(out: Path, stdout: str) -> list:
    problems = []
    summary = json.loads((out / "summary.json").read_text())
    totals = summary["totals"]
    se = {m: summary["modes"][m]["stderr"] for m in totals}
    for m, ref in TABLE1_B.items():
        tol = Z * se[m] + TABLE1_REL_ALLOWANCE * ref
        if not _close(totals[m], ref, tol):
            problems.append(f"table1: E_{m} = {totals[m]:.4f}, paper {ref} +- {tol:.3f}")
    if not totals["mf"] < totals["iam"] < totals["ia0"]:
        problems.append(f"ordering: need mf < iam < ia0, got {totals}")
    saving = 1.0 - totals["mf"] / totals["ia0"]
    if not _close(summary["saving_vs_ia0"], saving, 1e-12):
        problems.append(f"saving: summary says {summary['saving_vs_ia0']}, totals give {saving}")
    tol = SAVING_ALLOWANCE + _saving_stderr(totals["mf"], se["mf"], totals["ia0"], se["ia0"])
    if not _close(saving, SAVING_B, tol):
        problems.append(f"saving: {saving:.4f}, paper {SAVING_B} +- {tol:.4f}")

    _, basin_means, basin_sigmas = TARGET_DR
    seen = set()
    for row in _read_rows(out / "terminal.csv"):
        k = int(row["component"])
        n = int(row["count"])
        mean, std = float(row["terminal_mean"]), float(row["terminal_std"])
        m_k, s_k = basin_means[k], basin_sigmas[k]
        tol_m = Z * s_k / math.sqrt(n) + TERMINAL_MEAN_ALLOWANCE
        tol_s = Z * s_k / math.sqrt(2 * n) + TERMINAL_STD_ALLOWANCE
        if not _close(mean, m_k, tol_m):
            problems.append(f"terminal: {row['mode']} basin {k} mean {mean}, target {m_k} +- {tol_m:.4f}")
        if not _close(std, s_k, tol_s):
            problems.append(f"terminal: {row['mode']} basin {k} std {std}, target {s_k} +- {tol_s:.4f}")
        seen.add((row["mode"], k))
    want = {(m, k) for m in TABLE1_B for k in range(len(basin_means))}
    if seen != want:
        problems.append(f"terminal: rows for {sorted(seen)}, expected {sorted(want)}")
    return problems


def dsweep_zone_endpoints(d: int) -> tuple:
    """Per-zone mean of the initial and target mixtures of the d-sweep.

    From the documented ``dsweep_mixtures`` formula: z_j = sin(2 pi j / d),
    target means 0.1 + 0.15 z and 1.5 - 0.15 z, initial means displaced by
    +1.5 and +4.0, weights 0.6 / 0.4, scales 0.2 / 0.3 (target) and
    0.5 / 0.7 (initial).  Returns (m_in, m_tar, std_bound), each of shape (d,).
    """
    z = np.sin(2.0 * np.pi * np.arange(d) / d)
    tar = (0.1 + 0.15 * z, 1.5 - 0.15 * z)
    ini = (tar[0] + 1.5, tar[1] + 4.0)
    w = (0.6, 0.4)
    m_tar = w[0] * tar[0] + w[1] * tar[1]
    m_in = w[0] * ini[0] + w[1] * ini[1]
    # a zone's spread never exceeds the wider endpoint law plus the unit
    # bridge noise, whose standard deviation sqrt(t (1 - t)) is at most 1/2
    std_bound = np.array([
        max(_mixture_std(w, (ini[0][j], ini[1][j]), (0.5, 0.7)),
            _mixture_std(w, (tar[0][j], tar[1][j]), (0.2, 0.3))) + 0.5
        for j in range(d)
    ])
    return m_in, m_tar, std_bound


def dsweep_d8(out: Path, stdout: str, particles: int) -> list:
    problems = []
    d = 8
    summary = json.loads((out / "d=8" / "summary.json").read_text())
    totals = summary["totals"]
    se = {m: summary["modes"][m]["stderr"] for m in totals}
    for m, ref in TABLE2_D8.items():
        per_zone = totals[m] / d
        tol = Z * se[m] / d + TABLE2_REL_ALLOWANCE * ref
        if not _close(per_zone, ref, tol):
            problems.append(f"table2: E_{m}/d = {per_zone:.4f}, paper {ref} +- {tol:.3f}")
    saving = 1.0 - totals["mf"] / totals["ia0"]
    if not SAVING_BAND[0] <= saving <= SAVING_BAND[1]:
        problems.append(f"saving: {saving:.4f} outside the paper's band {SAVING_BAND}")

    table = _read_rows(out / "sweep_table.csv")
    if len(table) != 1 or int(table[0]["d"]) != d:
        problems.append(f"sweep_table: expected one row for d={d}, got {table}")
    else:
        for m in TABLE2_D8:
            got = float(table[0][f"E_per_zone_{m}"])
            if not _close(got, totals[m] / d, 1e-5 * abs(got)):
                problems.append(f"sweep_table: E_per_zone_{m} {got} vs summary {totals[m] / d}")

    m_in, m_tar, std_bound = dsweep_zone_endpoints(d)
    tol = Z * std_bound / math.sqrt(particles) + ZONE_MEAN_ALLOWANCE
    worst, n_rows = 0.0, 0
    for row in _read_rows(out / "d=8" / "zone_means.csv"):
        if row["mode"] != "mf":
            continue
        t, z, mean = float(row["t"]), int(row["zone"]), float(row["mean"])
        excess = abs(mean - ((1.0 - t) * m_in[z] + t * m_tar[z])) - tol[z]
        worst = max(worst, excess) if math.isfinite(excess) else math.inf
        n_rows += 1
    if n_rows == 0 or worst > 0:
        problems.append(f"zone_means: mf mean leaves the linear interpolant by {worst:.4g} "
                        f"beyond tolerance over {n_rows} rows")
    return problems


# ----------------------------------------------------------------------------
# analytic workload
# ----------------------------------------------------------------------------

def _fd_riccati(t, S, kappa: float, q: float) -> float:
    """Worst central-difference residual of S' = S^2 + 2 kappa S - q over its bound.

    The bound is the central-difference truncation h^2/6 |S'''| plus the CSV
    rounding, with S''' taken from the ODE itself:
    f = S^2 + 2 kappa S - q, S'' = f' f, S''' = f'' f^2 + f'^2 f.
    """
    h = t[2:] - t[:-2]
    dS = (S[2:] - S[:-2]) / h
    Si = S[1:-1]
    f = Si * Si + 2.0 * kappa * Si - q
    fp = 2.0 * Si + 2.0 * kappa
    s3 = np.abs(2.0 * f * f + fp * fp * f)
    s3 = np.maximum(s3, np.maximum(np.r_[s3[1:], 0.0], np.r_[0.0, s3[:-1]]))
    bound = 2.0 * (h / 2) ** 2 / 6.0 * s3 + 4.0 * CSV_REL_DIGITS * np.abs(S).max() / h + 1e-9
    return float(np.max(np.abs(dS - f) / bound))


def _simpson(y, x) -> float:
    """Composite Simpson on an even number of uniform panels."""
    h = (x[-1] - x[0]) / (x.size - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def lqg(out: Path, stdout: str, kappa: float, q: float, m_tar: float, sigma_tar: float) -> list:
    problems = []
    data = np.loadtxt(out / "lqg.csv", delimiter=",", skiprows=1)
    t, S, Sigma, m, s = (data[:, j] for j in range(5))
    P = {"mf": data[:, 7], "ia0": data[:, 8], "iam": data[:, 9]}
    E = {"mf": data[:, 10], "ia0": data[:, 11], "iam": data[:, 12]}
    if not (_close(t[0], 0.0, 1e-12) and _close(t[-1], 1.0, 1e-12)) or (t.size - 1) % 2:
        problems.append(f"grid: t runs {t[0]}..{t[-1]} over {t.size} rows")
        return problems

    if not _close(Sigma[-1], sigma_tar**2, 1e-7 * max(1.0, sigma_tar**2)):
        problems.append(f"endpoint: Sigma(1) = {Sigma[-1]}, sigma_tar^2 = {sigma_tar**2}")
    if not _close(m[-1], m_tar, 1e-7 * max(1.0, abs(m_tar))):
        problems.append(f"endpoint: m(1) = {m[-1]}, m_tar = {m_tar}")

    ratio = _fd_riccati(t, S, kappa, q)
    if not ratio <= 1.0:
        problems.append(f"riccati: finite-difference residual at {ratio:.3g} x its bound")

    terms = S * S * Sigma + (np.abs(S * m) + np.abs(s)) ** 2
    want = S * S * Sigma + (S * m + s) ** 2
    bad = np.abs(P["mf"] - want) > 8.0 * CSV_REL_DIGITS * terms + 1e-12
    if np.any(bad):
        j = int(np.argmax(bad))
        problems.append(f"power: P_mf({t[j]}) = {P['mf'][j]}, S^2 Sigma + (S m + s)^2 = {want[j]}")

    for mode in ("mf", "ia0", "iam"):
        fine, coarse = _simpson(P[mode], t), _simpson(P[mode][::2], t[::2])
        tol = 2.0 * abs(fine - coarse) + 1e-7 * abs(fine)
        if not _close(E[mode][-1], fine, tol):
            problems.append(f"energy: E_{mode}(1) = {E[mode][-1]}, integral of P_{mode} = {fine} +- {tol:.3g}")
        if np.any(np.diff(E[mode]) < -CSV_REL_DIGITS * np.abs(E[mode][1:])):
            problems.append(f"energy: E_{mode} decreases")
    return problems


def _mixture_pdf(x, weights, means, sigmas):
    w, m, s = (np.asarray(v, dtype=float) for v in (weights, means, sigmas))
    z = (x[:, None] - m[None, :]) / s[None, :]
    return (w * np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))).sum(axis=1)


def density(out: Path, stdout: str, target: tuple) -> list:
    problems = []
    rows = _read_rows(out / "density.csv")
    modes = [c[2:] for c in rows[0] if c.startswith("p_")] if rows else []
    curves = {}
    for row in rows:
        curves.setdefault(float(row["t"]), []).append(row)
    if not modes or sorted(curves) != [0.1, 0.3, 0.5, 0.7, 1.0]:
        problems.append(f"shape: times {sorted(curves)} modes {modes}")
        return problems
    for t, cur in curves.items():
        x = np.array([float(r["x"]) for r in cur])
        for mode in modes:
            p = np.array([float(r[f"p_{mode}"]) for r in cur])
            mass = float(np.trapezoid(p, x))
            if not _close(mass, 1.0, DENSITY_MASS_TOL):
                problems.append(f"mass: p_{mode}(t={t}) integrates to {mass:.6f}")
            if t == 1.0:
                ref = _mixture_pdf(x, *target)
                dev = float(np.max(np.abs(p - ref)) / ref.max())
                if not dev <= DENSITY_TERMINAL_TOL:
                    problems.append(f"terminal: p_{mode}(t=1) leaves the target pdf by {dev:.4f} of its peak")
    return problems


def validate(out: Path, stdout: str) -> list:
    return [] if stdout.strip() == "ok" else [f"validate: printed {stdout.strip()!r}, not 'ok'"]
