"""Time to verdict of tauberian-lab CLI commands on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload jumps-contour --seed 1 --seconds 20 --trace 0

The benchmark generates the workload's problem files from --seed, imports
`tauberian_lab.cli` from ./src and calls its commands in this one process,
with TAUBERIAN_LAB_THREADS unset.  After a warm-up pass it repeats passes
through the command list for about --seconds seconds and checks every
output (see workloads.py).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: setup_s (median time of a fresh
interpreter importing tauberian_lab.cli), pass_ref (the time of one pass in
units of a fixed reference computation timed between the commands, see
reference_s) and peak_rss_mb (peak resident memory of this process).  The
wall times of the passes and of the reference are printed above the result.
--trace 1 alternates untraced and traced passes and reports per-layer self
times and counts from the traced ones (see spans.py); trace.overhead_s is
the traced minus the untraced median pass time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5          # timed fresh-interpreter imports, after one untimed one
MIN_PASSES = 3          # measured passes per run, whatever --seconds says
MIN_TRACED_PASSES = 2   # of each kind in a traced run
DEADLINE_S = 150.0      # no pass starts later than this after start-up
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _invoke(cli, args) -> int | str:
    """One CLI call in this process; returns its exit code."""
    try:
        cli.main(args=list(args), prog_name="tauberian-lab", standalone_mode=True)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # a crash in the program is a failed command, not a crashed benchmark
        traceback.print_exc()
        return "exception"
    return 0


def _meta(stderr: str) -> dict:
    start = stderr.find("{")
    try:
        return json.JSONDecoder().raw_decode(stderr[start:])[0] if start >= 0 else {}
    except ValueError:
        return {}


class Runner:
    """Runs passes through a command list and checks every output."""

    def __init__(self, cli, commands):
        self.cli = cli
        self.commands = commands
        self.first: dict[str, tuple] = {}
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.command_times: dict[str, list[float]] = defaultdict(list)
        self.reference_around: dict[str, list[float]] = defaultdict(list)
        self.reference_times: list[float] = []
        self.residual_max = 0.0

    def run_pass(self, tracer=None, relative=False) -> float:
        """One pass; with `relative`, time reference_s before and after each command."""
        total = 0.0
        if relative and not self.reference_times:
            self.reference_times.append(reference_s())
        for index, command in enumerate(self.commands):
            if command.dump is not None:
                command.dump.unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = _invoke(self.cli, command.args)
                else:
                    tracer.command = index
                    code = tracer.call("cli", _invoke, (self.cli, command.args), {})
            elapsed = time.perf_counter() - start
            total += elapsed
            self.command_times[command.label].append(elapsed)
            if relative:
                self.reference_times.append(reference_s())
                self.reference_around[command.label].append(
                    (self.reference_times[-2] + self.reference_times[-1]) / 2.0)
            self._check(command, code, out.getvalue(), err.getvalue())
        return total

    def _check(self, command, code, body: str, stderr: str) -> None:
        problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]
        dump = command.dump.read_bytes() if command.dump and command.dump.exists() else None
        if command.dump is not None and dump is None:
            problems.append("no dump file written")
        if self.first.setdefault(command.label, (body, dump)) != (body, dump):
            problems.append("CSV output differs from the first run of this command")
        key = (command.label, body)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = command.check(body, _meta(stderr))
            except Exception as exc:  # unparsable output is a failed check
                self.verdicts[key] = [f"output check raised {exc!r}"]
        problems += self.verdicts[key]
        for row in body.splitlines()[1:] if body.startswith("t,R,residual") else ():
            self.residual_max = max(self.residual_max, float(row.split(",")[2]))
        self.attempted += 1
        if problems:
            self.problems.append(f"{command.label}: {'; '.join(problems)}")


def reference_s() -> float:
    """Wall time of a fixed computation that uses none of the package.

    Half of it is dense complex exponentials over node x time blocks (like the
    jump-sum kernels), half is interpreted float arithmetic (like the CLI and
    quadrature callbacks).  A shared host slows both kinds of work together
    with the program, so a command's time divided by the reference times taken
    just before and after it varies far less than the command's time itself.
    """
    import numpy as np  # only after main() has pinned the BLAS threads

    nodes = np.linspace(0.05, 2.0, 64) * (1.0 + 1.0j)
    times = np.linspace(0.0, 12.0, 8192)
    start = time.perf_counter()
    acc = 0.0
    for shift in (0.0, 1.0):
        acc += abs(np.exp(-np.outer(nodes, times + shift)).sum())
    for k in range(200_000):
        acc += math.exp(-k * 1e-5) * math.cos(k)
    if not math.isfinite(acc):
        raise RuntimeError("reference computation went wrong")
    return time.perf_counter() - start


def measure_setup(runs: int) -> list[float]:
    """Wall time of fresh interpreters that import tauberian_lab.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    times = []
    for _ in range(runs + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tauberian_lab.cli"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return times[1:]  # the first one may compile bytecode


def environment(caller_env: dict) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tauberian_lab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": commit, "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"), "blas": blas,
        "TAUBERIAN_LAB_THREADS": os.environ.get("TAUBERIAN_LAB_THREADS"),
        **{name: os.environ.get(name) for name in BLAS_ENV},
        "caller_env": caller_env,
    }


_median = statistics.median


def relative_pass(runner) -> float:
    """One pass in reference times: per command, its total time over the run
    divided by the total of the reference times taken around its runs."""
    return sum(sum(runner.command_times[label]) / sum(around)
               for label, around in runner.reference_around.items())


def _passes(runner, started: float, seconds: float, minimum: int) -> list[float]:
    """Repeat passes until --seconds would be exceeded; at least `minimum`."""
    times = []
    begin = time.perf_counter()
    while True:
        times.append(runner.run_pass(relative=True))
        now = time.perf_counter()
        if len(times) >= minimum and (now - begin + _median(times) > seconds
                                      or now - started > DEADLINE_S):
            return times


def traced_run(runner, started: float, seconds: float) -> tuple[dict, list[str], set]:
    from spans import Tracer, layer_metrics

    untraced, traced, layers, absent, counter_errors = [], [], [], [], set()
    commands = Counter(c.args[0] for c in runner.commands)
    begin = time.perf_counter()
    while True:
        untraced.append(runner.run_pass())
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        absent, counter_errors = tracer.absent, tracer.counter_errors
        layers.append(layer_metrics(tracer.spans, commands))
        layers[-1]["trace.accounted_s"] = sum(end - start for _, _, parent, _, start, end, _
                                              in tracer.spans if parent is None)
        now = time.perf_counter()
        if len(traced) >= MIN_TRACED_PASSES and (
                now - begin + _median(untraced) + _median(traced) > seconds
                or now - started > DEADLINE_S):
            break
    metrics = {name: _median([m[name] for m in layers]) for name in layers[0]}
    metrics.update({
        "trace.pass_s": _median(traced),
        "trace.untraced_pass_s": _median(untraced),
        "trace.overhead_s": _median(traced) - _median(untraced),
        "trace.absent_names": len(absent),
    })
    print(f"traced passes {len(traced)}, untraced passes {len(untraced)}")
    return metrics, absent, counter_errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "tauberian_lab" / "cli.py").is_file():
        print(f"error: no tauberian_lab package under {SRC}", file=sys.stderr)
        return 2

    # One BLAS thread, set before numpy loads: on a small shared machine a
    # second BLAS thread makes pass times follow the load of other processes.
    caller_env = {name: os.environ.get(name) for name in ("TAUBERIAN_LAB_THREADS",) + BLAS_ENV}
    os.environ.pop("TAUBERIAN_LAB_THREADS", None)
    os.environ.update(dict.fromkeys(BLAS_ENV, "1"))
    from spans import SPAN_NAMES, metric_names, units
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup = measure_setup(SETUP_RUNS) if args.trace == 0 else []
    sys.path.insert(0, str(SRC))
    from tauberian_lab.cli import main as cli

    print("env " + json.dumps(environment(caller_env), sort_keys=True))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        commands = WORKLOADS[args.workload](args.seed, work)
        runner = Runner(cli, commands)
        runner.run_pass()  # warm-up
        runner.command_times.clear()
        if args.trace == 0:
            passes = _passes(runner, started, args.seconds, MIN_PASSES)
            metrics = {
                "setup_s": {"value": _median(setup), "unit": "s"},
                "pass_ref": {"value": relative_pass(runner), "unit": "ref"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }
            print(f"setup_s samples {[round(s, 4) for s in setup]}")
            print(f"pass_ref {relative_pass(runner):.3f} reference times; "
                  f"reference median {_median(runner.reference_times):.4f} s over "
                  f"{len(runner.reference_times)} runs")
            print(f"pass wall time median {_median(passes):.4f} s over {len(passes)} passes: "
                  f"{[round(p, 4) for p in passes]}")
        else:
            layers, absent, counter_errors = traced_run(runner, started, args.seconds)
            layers["contour.residual_max"] = runner.residual_max
            layers["checks.failure_ratio"] = len(runner.problems) / runner.attempted
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in units().items()}
            timed = {metric_names(span)[0]: layers[metric_names(span)[0]]
                     for span in SPAN_NAMES}
            top = max(timed, key=timed.get)
            print(f"dominant layer {top}: {timed[top]:.4f} s of traced pass "
                  f"{layers['trace.pass_s']:.4f} s")
            if absent:
                print(f"absent wrapped names: {', '.join(absent)}")
            if counter_errors:
                print(f"counters that failed: {', '.join(sorted(counter_errors))}")
        for label, times in runner.command_times.items():
            around = runner.reference_around.get(label)
            print(f"command {label}: median {_median(times):.4f} s over {len(times)} runs"
                  + (f", {sum(times) / sum(around):.3f} reference times, one by one "
                     f"{[round(t / r, 3) for t, r in zip(times, around)]}" if around else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"failure_ratio {len(runner.problems)}/{runner.attempted}")
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": len(runner.problems), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
