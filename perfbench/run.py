"""Benchmark of the mfbridge CLI: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scenario-b --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and driven only through ``mfbridge.cli.main``.  A run repeats
whole rounds of the workload's operations until ``--seconds`` have passed
(at least one round), checks every operation's artifacts, and prints the
metrics as the last line of standard output.  ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` wraps public names of the program and
gives the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_PROBES = 5          # fresh interpreters timed for setup_s
PROBE_TIMEOUT_S = 60


def load_program():
    """Import mfbridge from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        from mfbridge import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mfbridge from {SRC}: {exc}")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"perfbench: mfbridge imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, run_dir: Path):
    """Everything a run does before its first operation: import and inputs."""
    cli = load_program()
    import workloads

    return cli, workloads.WORKLOADS[workload](seed, run_dir / "inputs")


def time_setups(workload: str, seed: int, run_dir: Path) -> list:
    """Set-up time of fresh interpreters: spawn until the inputs are ready."""
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
               "--setup-probe", str(run_dir / f"probe{i}")]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe exited {code} after {line!r}")
        samples.append(elapsed)
    return samples


def call(cli, argv: list) -> tuple:
    """One ``cli.main`` call: (exit code, stdout, stderr, seconds)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception as exc:  # an escaped exception is a failed operation
        code = f"{type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), stderr.getvalue(), time.perf_counter() - t0


def run_op(cli, op, out: Path) -> tuple:
    """One operation and its check: (seconds, problems, bytes written)."""
    code, stdout, stderr, elapsed = call(cli, op.argv + ["--out", str(out)])
    if code != 0:
        problems = [f"exit: {code}; {stderr.strip()[-400:]}"]
    else:
        try:
            problems = op.check(out, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"artifacts: {type(exc).__name__}: {exc}"]
    written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) if out.exists() else 0
    shutil.rmtree(out, ignore_errors=True)
    return elapsed, problems, written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20250101)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", dest="setup_probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        probe_dir = Path(args.setup_probe)
        setup(args.workload, args.seed, probe_dir)
        print("ready", flush=True)
        shutil.rmtree(probe_dir, ignore_errors=True)
        return 0

    if not SRC.is_dir():
        sys.exit(f"perfbench: no program sources at {SRC}")
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir: Path) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    setup_samples = [] if args.trace else time_setups(args.workload, args.seed, run_dir)
    cli, ops = setup(args.workload, args.seed, run_dir)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    rounds, round_spans, attempted, failures = [], [], 0, []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < args.seconds:
        r = len(rounds)
        seconds, written = 0.0, 0
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            elapsed, problems, nbytes = run_op(cli, op, run_dir / f"round{r}" / f"op{i:02d}")
            seconds += elapsed
            written += nbytes
            attempted += 1
            if problems:
                failures.append((r, i, op.argv, problems))
        record = {"seconds": seconds, "bytes": written}
        if tracer:
            spans_r, counts = tracer.take_round()
            round_spans.append(spans_r)
            record["layers"] = spans.round_metrics(spans_r, counts)
        rounds.append(record)
    if tracer:
        tracer.uninstall()

    for r, i, argv, problems in failures:
        print(f"FAILED round {r} op {i} {' '.join(argv)}", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
    times = [rec["seconds"] for rec in rounds]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(ops)} ops, "
          f"round seconds {' '.join(f'{t:.3f}' for t in times)}")

    consistent = True
    if tracer:
        metrics = {}
        for name, unit in spans.LAYER_METRICS.items():
            values = [rec["layers"][name] for rec in rounds]
            if unit == "count":  # every round does the same work
                if len(set(values)) > 1:
                    print(f"perfbench: {name} differs between rounds: {values}", file=sys.stderr)
                    consistent = False
                metrics[name] = {"value": values[0], "unit": unit}
            else:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        # summary.json records wall seconds, so sizes may differ by a few bytes
        metrics["cli.bytes_written"] = {"value": statistics.median(rec["bytes"] for rec in rounds), "unit": "B"}
        metrics["traced_run_s"] = {"value": statistics.median(times), "unit": "s"}
        span_file = RUNS / f"spans-{args.workload}-seed{args.seed}.csv"
        spans.write_spans(span_file, round_spans)
        print(f"spans written to {span_file}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    result = {"correct": not failures and consistent, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
