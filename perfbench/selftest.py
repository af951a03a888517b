"""Self-test of the output checks: none of them may pass vacuously.

    python3 perfbench/selftest.py

Runs one real operation of each kind (about 15 s), requires its check to
pass on the artifacts as written, then perturbs a copy of them once per
check and requires that check to reject it.  Exits 1 on any miss.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import run
import workloads

SEED = 20250101


def edit_json(rel: str, fn):
    def mutate(out: Path):
        path = out / rel
        obj = json.loads(path.read_text())
        fn(obj)
        path.write_text(json.dumps(obj))
    return mutate


def edit_csv(rel: str, fn):
    """fn(header, rows) edits rows (lists of strings) in place."""
    def mutate(out: Path):
        path = out / rel
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        fn(header, rows)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
    return mutate


def scale_column(column: str, factor: float, where=lambda row: True):
    def fn(header, rows):
        j = header.index(column)
        for row in rows:
            if where(dict(zip(header, row))):
                row[j] = repr(float(row[j]) * factor)
    return fn


def _totals(scale: dict):
    def fn(summary):
        for m, f in scale.items():
            summary["totals"][m] *= f
        t = summary["totals"]
        summary["saving_vs_ia0"] = 1.0 - t["mf"] / t["ia0"]
    return fn


def _relative(**factors):
    """Set totals[m] = totals["ia0"] * factor, keeping the saving field consistent."""
    def fn(summary):
        t = summary["totals"]
        for m, f in factors.items():
            t[m] = t["ia0"] * f
        summary["saving_vs_ia0"] = 1.0 - t["mf"] / t["ia0"]
    return fn


def _shift_terminal(column: str, delta: float = 0.0, factor: float = 1.0):
    def fn(header, rows):
        j = header.index(column)
        for row in rows:
            if row[0] == "mf" and row[1] == "1":
                row[j] = repr(float(row[j]) * factor + delta)
    return fn


def _roll_terminal_curve(header, rows):
    j = header.index("p_mf")
    last = [row for row in rows if float(row[0]) == 1.0]
    values = [row[j] for row in last]
    for row, v in zip(last, values[25:] + values[:25]):
        row[j] = v


PERTURBATIONS = {
    "scenario-b": [
        ("table1", edit_json("summary.json", _totals({"mf": 1.4, "iam": 1.4, "ia0": 1.4}))),
        ("ordering", edit_json("summary.json", _relative(iam=1.001))),
        ("saving", edit_json("summary.json", _relative(iam=0.96, mf=0.92))),
        ("terminal", edit_csv("terminal.csv", _shift_terminal("terminal_mean", delta=0.2))),
        ("terminal", edit_csv("terminal.csv", _shift_terminal("terminal_std", factor=1.6))),
    ],
    "dsweep-d8": [
        ("table2", edit_json("d=8/summary.json", _totals({"mf": 1.4, "ia0": 1.4}))),
        ("saving", edit_json("d=8/summary.json", _relative(mf=0.85))),
        ("sweep_table", edit_csv("sweep_table.csv", scale_column("E_per_zone_mf", 1.01))),
        ("zone_means", edit_csv("d=8/zone_means.csv", scale_column(
            "mean", 1.3, lambda r: r["mode"] == "mf" and r["zone"] == "3" and 0.4 < float(r["t"]) < 0.6))),
    ],
    "lqg": [
        ("endpoint", edit_csv("lqg.csv", scale_column("Sigma", 1.01, lambda r: r["t"] == "1.000000"))),
        ("endpoint", edit_csv("lqg.csv", scale_column("m_mf", 1.01, lambda r: r["t"] == "1.000000"))),
        ("riccati", edit_csv("lqg.csv", scale_column("S", 1.01))),
        ("power", edit_csv("lqg.csv", scale_column("P_mf", 1.0 + 1e-4))),
        ("energy", edit_csv("lqg.csv", scale_column("E_ia0", 1.001, lambda r: r["t"] == "1.000000"))),
    ],
    "density": [
        ("mass", edit_csv("density.csv", scale_column("p_mf", 1.01, lambda r: r["t"] == "0.5000"))),
        ("terminal", edit_csv("density.csv", _roll_terminal_curve)),
    ],
    "validate": [],
}


def cases(root: Path) -> dict:
    """One real operation per check: name -> Op."""
    analytic = workloads.analytic(SEED, root / "inputs")
    first = {}
    for op in analytic:
        first.setdefault(op.argv[0], op)
    return {
        "scenario-b": workloads.scenario_b(SEED, root)[0],
        "dsweep-d8": workloads.dsweep_d8(SEED, root)[0],
        "lqg": first["lqg"],
        "density": first["density"],
        "validate": first["validate"],
    }


def main() -> int:
    root = run.RUNS / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    cli = run.load_program()
    misses = 0
    try:
        for name, op in cases(root).items():
            out = root / name
            code, stdout, stderr, _ = run.call(cli, op.argv + ["--out", str(out)])
            if code != 0:
                raise SystemExit(f"selftest: {' '.join(op.argv)} exited {code}: {stderr}")
            problems = op.check(out, stdout)
            print(f"[{'PASS' if not problems else 'FAIL'}] {name}: real artifacts accepted {problems or ''}")
            misses += bool(problems)
            for tag, mutate in PERTURBATIONS[name]:
                copy = root / f"{name}-perturbed"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(out, copy)
                mutate(copy)
                hit = [p for p in op.check(copy, stdout) if p.startswith(f"{tag}:")]
                print(f"[{'PASS' if hit else 'FAIL'}] {name}: perturbed {tag} rejected {hit[:1]}")
                misses += not hit
            if name == "validate":
                hit = op.check(out, "error: target: weights sum 0.9 != 1\n")
                print(f"[{'PASS' if hit else 'FAIL'}] {name}: error output rejected {hit[:1]}")
                misses += not hit
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"{misses} check(s) missed")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
