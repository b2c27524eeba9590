"""Layer spans recorded from outside the package.

While a Tracer is installed, each public name that one module of the package
imports from the next layer (for example `tauberian_lab.contour.exp_tail_integral`
or `tauberian_lab.bv.quad`) is replaced by a timing wrapper.  Every call
records a span (command, span id, parent id, name, start, end, count) in
memory.  A name missing from its module is reported as absent and skipped.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _tail_pairs(args, kwargs, result) -> int:
    bv, z, t = args[:3]
    return np.size(z) * (bv.jump_times.size - int(np.searchsorted(bv.jump_times, t, "left")))


def _partial_pairs(args, kwargs, result) -> int:
    bv, z, t = args[:3]
    return np.size(z) * int(np.searchsorted(bv.jump_times, t, "left"))


def _grid_points(args, kwargs, result) -> int:
    return np.size(args[2])


def _eta_points(args, kwargs, result) -> int:
    return np.size(args[0])


def _contour_nodes(args, kwargs, result) -> int:
    return result.total_nodes


# (module, attribute, span name, counter of the work done by one call)
TARGETS = (
    ("tauberian_lab.cli", "load_problem", "problems.load", None),
    ("tauberian_lab.problems", "build_instance", "dirichlet.build_instance", None),
    ("tauberian_lab.cli", "partial_sum_decay", "dirichlet.partial_sum_decay", None),
    ("tauberian_lab.cli", "decay_rate", "rates.decay_rate", None),
    ("tauberian_lab.dirichlet", "decay_rate", "rates.decay_rate", None),
    ("tauberian_lab.rates", "m_log_inverse", "growth.m_log_inverse", None),
    ("tauberian_lab.cli", "make_t_grid", "verify", None),
    ("tauberian_lab.cli", "check_tauberian", "verify", None),
    ("tauberian_lab.cli", "check_line_bound", "verify", None),
    ("tauberian_lab.cli", "check_tail_bound", "verify", None),
    ("tauberian_lab.cli", "check_small_x_bound", "verify", None),
    ("tauberian_lab.verify", "weighted_partial_grid", "bv.weighted_grid", _grid_points),
    ("tauberian_lab.verify", "weighted_tail_grid", "bv.weighted_grid", _grid_points),
    ("tauberian_lab.cli", "cauchy_identity_report", "contour.identity", None),
    ("tauberian_lab.cli", "term_bounds", "contour.term_bounds", None),
    ("tauberian_lab.cli", "contour_dump", "contour.dump", None),
    ("tauberian_lab.cli", "extension_agreement", "contour.agreement", None),
    ("tauberian_lab.contour", "build_contour", "contour.build", _contour_nodes),
    ("tauberian_lab.contour", "exp_tail_integral", "bv.exp_tail", _tail_pairs),
    ("tauberian_lab.contour", "exp_partial_integral", "bv.exp_partial", _partial_pairs),
    ("tauberian_lab.contour", "eta", "oracles.eta", _eta_points),
    ("tauberian_lab.contour", "improper_laplace", "transform.improper", None),
    ("tauberian_lab.transform", "stieltjes_integral", "bv.stieltjes", None),
    ("tauberian_lab.bv", "stieltjes_integral", "bv.stieltjes", None),
    ("tauberian_lab.bv", "quad", "bv.adaptive_quad", None),
)

ROOT = "cli"
SPAN_NAMES = tuple(dict.fromkeys([ROOT] + [name for _, _, name, _ in TARGETS]))

# per-layer metrics beyond each span's self time and call count, with units
DERIVED_UNITS = {
    "bv.node_jump_pairs": "count",
    "bv.node_jump_pairs_per_s": "1/s",
    "bv.weighted_grid_points": "count",
    "contour.points": "count",
    "contour.nodes": "count",
    "contour.builds_per_point": "builds/point",
    "bv.exp_tail_calls_per_point": "calls/point",
    "oracles.eta_points": "count",
    "verify.commands": "count",
    "verify.sweeps_per_command": "calls/command",
    "trace.accounted_s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_names": "count",
    "contour.residual_max": "ratio",
    "checks.failure_ratio": "ratio",
}


def metric_names(span: str) -> tuple[str, str]:
    """Names of a span's self-time and call-count metrics."""
    if "." in span:
        return f"{span}_s", f"{span}_calls"
    return f"{span}.self_s", f"{span}.calls"


def units() -> dict[str, str]:
    """Every per-layer metric with its unit."""
    out = {}
    for span in SPAN_NAMES:
        self_s, calls = metric_names(span)
        out[self_s], out[calls] = "s", "count"
    return {**out, **DERIVED_UNITS}


class Tracer:
    """In-memory spans; `install` patches the targets, `uninstall` restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [command, id, parent, name, start, end, count]
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.absent: list[str] = []
        self.counter_errors: set[str] = set()
        self.command = 0

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return wrapper

    def call(self, name, fn, args, kwargs, counter=None):
        parent = self._stack[-1] if self._stack else None
        record = [self.command, len(self.spans), parent, name, 0.0, 0.0, 0]
        self.spans.append(record)
        self._stack.append(record[1])
        result = None
        record[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()
            if counter is not None:
                try:
                    record[6] = int(counter(args, kwargs, result))
                except Exception:  # a changed signature must not stop the run
                    self.counter_errors.add(name)


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: self seconds (duration minus children), calls, counted work."""
    child_time = defaultdict(float)
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = {name: {"self_s": 0.0, "calls": 0, "count": 0} for name in SPAN_NAMES}
    for _, span_id, _, name, start, end, count in spans:
        entry = totals.setdefault(name, {"self_s": 0.0, "calls": 0, "count": 0})
        entry["self_s"] += end - start - child_time[span_id]
        entry["calls"] += 1
        entry["count"] += count
    return totals


def layer_metrics(spans: list[list], pass_commands: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    pass_commands counts the pass's commands by CLI command name; it is the
    base of the per-command and per-point ratios.
    """
    totals = layer_totals(spans)
    out = {}
    for name, entry in totals.items():
        self_s, calls = metric_names(name)
        out[self_s], out[calls] = entry["self_s"], entry["calls"]
    points = totals["contour.identity"]["calls"]
    pairs = totals["bv.exp_tail"]["count"] + totals["bv.exp_partial"]["count"]
    pair_s = totals["bv.exp_tail"]["self_s"] + totals["bv.exp_partial"]["self_s"]
    verify_commands = pass_commands.get("verify", 0)
    out.update({
        "bv.node_jump_pairs": pairs,
        "bv.node_jump_pairs_per_s": pairs / pair_s if pair_s > 0 else 0.0,
        "bv.weighted_grid_points": totals["bv.weighted_grid"]["count"],
        "contour.points": points,
        "contour.nodes": (totals["contour.build"]["count"] / totals["contour.build"]["calls"]
                          if totals["contour.build"]["calls"] else 0.0),
        "contour.builds_per_point": (totals["contour.build"]["calls"] / points
                                     if points else 0.0),
        "bv.exp_tail_calls_per_point": (totals["bv.exp_tail"]["calls"] / points
                                        if points else 0.0),
        "oracles.eta_points": totals["oracles.eta"]["count"],
        "verify.commands": verify_commands,
        "verify.sweeps_per_command": (totals["bv.weighted_grid"]["calls"] / verify_commands
                                      if verify_commands else 0.0),
    })
    return out
