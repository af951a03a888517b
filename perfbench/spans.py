"""Layer spans and counts, recorded from outside the program.

The traced run replaces public functions of ``mfbridge`` with timing
wrappers.  A function imported by name (``from .greens import build_tables``)
has one binding per importing module, so every module binding that is the
original function is replaced.  Spans (name, start, end, parent, operation)
stay in memory until the run ends.  Nothing here is imported on an untraced
run.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute, class or None): the public names the traced run wraps
SPANNED = (
    ("mfbridge.cli", "main", None),
    ("mfbridge.greens", "build_tables", None),
    ("mfbridge.presets", "validate_config", None),
    ("mfbridge.simulate", "run_bridge", None),
    ("mfbridge.simulate", "step", None),
    ("mfbridge.score", "ScoreContext", "coeffs"),
    ("mfbridge.score", "ScoreContext", "score_batch"),
    ("mfbridge.score", "marginal_density", None),
    ("mfbridge.lqg", "solve_lqg", None),
    ("mfbridge.lqg", "ia_baseline", None),
    ("mfbridge.lqg", "lqg_metrics", None),
)
COUNTED = (("mfbridge.schedule", "interval_of"),)  # too frequent for a span each
COUNTER_METRICS = ("schedule.interval_of.calls", "simulate.particle_steps")

# per-layer metric -> unit; the suffix says how a round's spans give it:
# .calls = span count, .s = total span time, .self_s = span time minus the
# time of its child spans; COUNTER_METRICS come from counters instead
LAYER_METRICS = {
    "schedule.interval_of.calls": "count",
    "score.ScoreContext.coeffs.calls": "count",
    "score.ScoreContext.coeffs.s": "s",
    "simulate.run_bridge.self_s": "s",
    "simulate.step.self_s": "s",
    "score.ScoreContext.score_batch.self_s": "s",
    "simulate.particle_steps": "count",
    "greens.build_tables.calls": "count",
    "greens.build_tables.s": "s",
    "presets.validate_config.s": "s",
    "score.marginal_density.s": "s",
    "lqg.solve_lqg.s": "s",
    "lqg.ia_baseline.s": "s",
    "lqg.lqg_metrics.s": "s",
    "cli.main.self_s": "s",
}


def _span_name(module: str, attr: str, method: str | None) -> str:
    short = module.split(".", 1)[1]
    return f"{short}.{attr}.{method}" if method else f"{short}.{attr}"


class Tracer:
    """Installs the wrappers and keeps the spans and counts of one run."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------
    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_step = name == "simulate.step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_step:  # step(state, ...): count particle x step work
                self.counts["simulate.particle_steps"] += args[0].positions.shape[0]
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing --------------------------------------------------------
    def _rebind(self, original, wrapped) -> None:
        """Point every mfbridge module binding of ``original`` at ``wrapped``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mfbridge" or mod_name.startswith("mfbridge.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def install(self) -> None:
        for module, attr, method in SPANNED:
            name = _span_name(module, attr, method)
            owner = getattr(sys.modules[module], attr)
            if method:
                original = vars(owner)[method]
                setattr(owner, method, self._spanned(name, original))
                self._undo.append((owner, method, original))
            else:
                self._rebind(owner, self._spanned(name, owner))
        for module, attr in COUNTED:
            original = getattr(sys.modules[module], attr)
            self._rebind(original, self._counted(f"{_span_name(module, attr, None)}.calls", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- reading -------------------------------------------------------------
    def take_round(self) -> tuple:
        """Spans and counts since the last call; clears both."""
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def round_metrics(spans: list, counts: dict) -> dict:
    """Per-layer values of one round: calls, total seconds, self seconds."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, total, self_s = Counter(), Counter(), Counter()
    for i, (name, t0, t1, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += t1 - t0 - child[i]
    out = {}
    for metric in LAYER_METRICS:
        base, _, kind = metric.rpartition(".")
        if metric in COUNTER_METRICS:
            out[metric] = counts.get(metric, 0)
        else:
            table = {"calls": calls, "s": total, "self_s": self_s}[kind]
            out[metric] = table[base] if kind == "calls" else float(table[base])
    return out


def write_spans(path: Path, rounds: list) -> None:
    """One CSV row per span: round, op, name, start, end, parent index."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "op", "name", "start", "end", "parent"])
        for r, spans in enumerate(rounds):
            for name, t0, t1, parent, op in spans:
                writer.writerow([r, op, name, f"{t0:.9f}", f"{t1:.9f}", parent])
