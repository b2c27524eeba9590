"""Gallery expectations: every gallery command keeps its exit code and its CSV body.

Each command runs in-process.  Exit codes, text cells (``case_id``,
``branch``, ...) and ``witness_t`` must match ``gallery_expected.json``
exactly; every other numeric cell within 1e-12 relative, with an absolute
floor of 1e-12 for residuals and near-zero margins.  Each contour command's
sidecar ``extension_agreement_gap`` must match within 1e-12 absolute.

Regenerate the expectations, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_gallery.py

For a byte-for-byte comparison of two checkouts, run in each (from its root)

    PYTHONPATH=src python tests/test_gallery.py --outputs DIR

(it exits 2, naming both directories, when the ``tauberian_lab`` it imports is not
this checkout's ``src/tauberian_lab``, as under a stale ``PYTHONPATH``), which
writes every gallery command's exact stdout, exit code and stderr
(without the sidecar's ``generated_at`` line) into DIR, with each contour
command's ``--dump`` table beside them, and then the same for every command
of the benchmark workloads (``perfbench/workloads.py``) at seeds 1, 7 and 23;
and then each run of ``FAILURE_RUNS``, which exit 1 or 2; then compare with
``diff -r``.  The workloads run with DIR as the working directory and write
their problem files and dumps under the relative path
``workloads/<workload>/<seed>/``, and the failure runs theirs and their outputs
under ``failures/``, so the sidecar's ``"problem"`` path is the same for every
DIR.

For the code-line counts that CHANGES.md and ROADMAP.md quote, run

    PYTHONPATH=src python tests/test_gallery.py --code-lines

which prints the lines of each ``src/tauberian_lab/*.py`` and ``tests/*.py`` file that
hold code (no docstring, comment or blank line), then each directory's total.

The trace test runs every gallery command, with each contour's ``--dump``,
under ``sys.setprofile`` and asserts that the package functions none of
them enters are exactly those of ``UNREACHED``, each listed with the reason
it stays.
"""

import argparse
import ast
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest
from click.testing import CliRunner

import tauberian_lab
from tauberian_lab.cli import main

EXPECTED = Path(__file__).with_name("gallery_expected.json")
PROBLEMS = Path(__file__).parents[1] / "problems"
PACKAGE = Path(__file__).parents[1] / "src" / "tauberian_lab"
WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads.py"
SPANS = WORKLOADS.with_name("spans.py")
WORKLOAD_SEEDS = (1, 7, 23)
REL_TOL = ABS_TOL = 1e-12
EXACT_COLUMNS = ("case_id", "witness_t")
AGREEMENT_TOL = 1e-12  # absolute, on the contour sidecar's extension_agreement_gap


def _commands() -> dict[str, list[str]]:
    gallery = ("delayed_step", "exp_density", "rate_constant_growth", "dirichlet_ones",
               "dirichlet_alternating")
    commands = {f"verify {p}": ["verify", "--problem", f"problems/{p}.json"] for p in gallery}
    for p in ("exp_density", "dirichlet_alternating"):
        commands[f"contour {p}"] = ["contour", "--problem", f"problems/{p}.json"]
    commands["rate rate_constant_growth"] = ["rate", "--problem",
                                             "problems/rate_constant_growth.json"]
    commands["dirichlet dirichlet_alternating"] = ["dirichlet", "--problem",
                                                   "problems/dirichlet_alternating.json"]
    # the only gallery problem with power and damped_power pieces, so with quad
    commands["verify density_mix"] = ["verify", "--problem", "problems/density_mix.json",
                                      "--t-grid", "0:40:120", "--x-grid", "1:100:16"]
    # the only gallery problem in the sup norm, which also norms the reversed tail rows
    commands["verify periodic_sup"] = ["verify", "--problem", "problems/periodic_sup.json"]
    return commands


# runs that exit 1, one per verdict path of verify, contour and dirichlet, then runs that exit 2
# on a bad input: {name: (command, gallery problem, {block: {field: value}} changed in it,
# arguments after --problem)}; only --outputs runs them, so the gallery expectations and
# UNREACHED leave them out
FAILURE_RUNS = {
    "verify_C_0.01": ("verify", "exp_density", {"certificate": {"C": 0.01}}, []),
    "contour_residual_tol_0": ("contour", "exp_density", {},
                               ["--t-grid", "1:5:3", "--residual-tol", "0"]),
    "contour_agreement_tol_0": ("contour", "exp_density", {}, ["--agreement-tol", "0"]),
    "contour_C_0.01": ("contour", "exp_density", {"certificate": {"C": 0.01}},
                       ["--t-grid", "1:5:3"]),
    "dirichlet_f0_100": ("dirichlet", "dirichlet_alternating", {"dirichlet": {"f0": [100.0]}},
                         []),
    "verify_x0_1e-323": ("verify", "exp_density", {"certificate": {"x0": 1e-323, "C": 1e-300}},
                         []),
    "verify_x_grid_below_x0": ("verify", "exp_density", {}, ["--x-grid", "0.001:0.5:4"]),
    "verify_C_1e308": ("verify", "exp_density", {"certificate": {"C": 1e308}}, []),
    "contour_radius_0.5": ("contour", "exp_density", {}, ["--radius", "0.5"]),
    "contour_density_0": ("contour", "exp_density", {}, ["--density", "0"]),
    "dirichlet_t_grid_past_log_n_max": ("dirichlet", "dirichlet_alternating", {},
                                        ["--t-grid", "1:20:3"]),
    "verify_unknown_key": ("verify", "exp_density", {"certificate": {"D": 1.0}}, []),
}


def run_gallery() -> dict[str, dict]:
    """Exit code, CSV header and rows (as text) of every gallery command.

    Contour commands also keep their sidecar's extension_agreement_gap.
    """
    outputs = {}
    for name, args in _commands().items():
        result = CliRunner().invoke(main, args)
        lines = result.stdout.splitlines()
        cells = [line.split(",") for line in lines]
        outputs[name] = {"exit_code": result.exit_code, "header": cells[0] if cells else [],
                         "rows": cells[1:]}
        if args[0] == "contour":
            meta = json.JSONDecoder().raw_decode(result.stderr[result.stderr.index("{"):])[0]
            outputs[name]["extension_agreement_gap"] = meta["extension_agreement_gap"]
    return outputs


def _workloads() -> dict:
    """The benchmark's {name: commands(seed, work)}, read from its file (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclass looks the module up in sys.modules
    return module.WORKLOADS


def _with_dump(name: str, args: list[str], directory: Path) -> list[str]:
    """A gallery command's args, a contour's with --dump into directory."""
    if args[0] != "contour":
        return args
    return [*args, "--dump", str(directory / f"{name.replace(' ', '_')}.dump.csv")]


def _write_run(directory: Path, stem: str, args) -> None:
    """One command's stdout, exit code and stderr (without generated_at) in directory."""
    result = CliRunner().invoke(main, list(args))
    (directory / f"{stem}.csv").write_text(result.stdout)
    (directory / f"{stem}.exit").write_text(f"{result.exit_code}\n")
    (directory / f"{stem}.stderr").write_text("".join(
        line for line in result.stderr.splitlines(keepends=True)
        if '"generated_at":' not in line))


def write_outputs(directory: Path) -> None:
    """Each gallery command's outputs and contour dump in directory, then each benchmark
    workload command's at each of WORKLOAD_SEEDS, its files under workloads/<name>/<seed>/,
    then each failure run's, its problem file and outputs under failures/."""
    directory = directory.resolve()
    directory.mkdir(parents=True, exist_ok=True)
    for name, args in _commands().items():
        _write_run(directory, name.replace(" ", "_"), _with_dump(name, args, directory))
    previous = Path.cwd()
    os.chdir(directory)
    try:
        for name, commands in _workloads().items():
            for seed in WORKLOAD_SEEDS:
                work = Path("workloads", name, str(seed))
                work.mkdir(parents=True, exist_ok=True)
                for command in commands(seed, work):
                    _write_run(Path(), f"{name}_{seed}_{command.label}", command.args)
        for name, (command, problem, changes, args) in FAILURE_RUNS.items():
            data = json.loads((PROBLEMS / f"{problem}.json").read_text())
            for block, fields in changes.items():
                data[block].update(fields)
            path = Path("failures", f"{name}.json")
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(data, indent=1) + "\n")
            _write_run(path.parent, name, [command, "--problem", str(path), *args])
    finally:
        os.chdir(previous)


def refuse_foreign_package(imported: Path) -> None:
    """Exit 2, naming both directories, unless imported is this checkout's package: --outputs
    of two checkouts that import one tree would compare that tree with itself."""
    if imported.resolve() != PACKAGE.resolve():
        print(f"--outputs: tauberian_lab was imported from {imported.resolve()}, not from this "
              f"checkout's {PACKAGE.resolve()}; run with PYTHONPATH=src from the checkout's root",
              file=sys.stderr)
        sys.exit(2)


def test_outputs_mode_refuses_a_foreign_package(tmp_path, capsys):
    refuse_foreign_package(PACKAGE)
    with pytest.raises(SystemExit) as exit_:
        refuse_foreign_package(tmp_path / "tauberian_lab")
    assert exit_.value.code == 2
    message = capsys.readouterr().err
    assert str((tmp_path / "tauberian_lab").resolve()) in message
    assert str(PACKAGE.resolve()) in message


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _cell_matches(column: str, got: str, want: str) -> bool:
    g, w = _number(got), _number(want)
    if column in EXACT_COLUMNS or g is None or w is None or not math.isfinite(w):
        return got == want
    return abs(g - w) <= max(ABS_TOL, REL_TOL * abs(w))


@pytest.fixture(scope="module")
def gallery() -> dict[str, dict]:
    return run_gallery()


@pytest.mark.parametrize("name", list(_commands()))
def test_gallery_command_matches_expectations(gallery, name):
    want = json.loads(EXPECTED.read_text())[name]
    got = gallery[name]
    assert got["exit_code"] == want["exit_code"]
    assert got["header"] == want["header"]
    assert len(got["rows"]) == len(want["rows"])
    for got_row, want_row in zip(got["rows"], want["rows"]):
        assert len(got_row) == len(want_row)
        for column, g, w in zip(want["header"], got_row, want_row):
            assert _cell_matches(column, g, w), f"{name}: {column} = {g}, expected {w}"
    if "extension_agreement_gap" in want:
        gap = got["extension_agreement_gap"]
        assert abs(gap - want["extension_agreement_gap"]) <= AGREEMENT_TOL


def test_cell_comparison():
    assert _cell_matches("margin", "1e-13", "-5e-13")
    assert not _cell_matches("grid_sup", "1.000000000002", "1.0")
    assert not _cell_matches("witness_t", "0.10000000000000002", "0.1")
    assert not _cell_matches("case_id", "small_x_bound", "tail_bound_x1_y2")
    assert _cell_matches("R_rule_t", "inf", "inf") and not _cell_matches("R_rule_t", "1e308", "inf")


def test_outputs_mode_writes_each_command(tmp_path, monkeypatch):
    subset = {name: args for name, args in _commands().items()
              if name in ("rate rate_constant_growth", "contour exp_density")}
    monkeypatch.setattr(sys.modules[__name__], "_commands", lambda: subset)
    monkeypatch.setattr(sys.modules[__name__], "_workloads", dict)
    monkeypatch.setattr(sys.modules[__name__], "FAILURE_RUNS", {})
    write_outputs(tmp_path / "out")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "contour_exp_density.csv", "contour_exp_density.dump.csv", "contour_exp_density.exit",
        "contour_exp_density.stderr", "rate_rate_constant_growth.csv",
        "rate_rate_constant_growth.exit", "rate_rate_constant_growth.stderr"]
    rate = CliRunner().invoke(main, subset["rate rate_constant_growth"])
    assert (tmp_path / "out" / "rate_rate_constant_growth.csv").read_text() == rate.stdout
    assert (tmp_path / "out" / "contour_exp_density.exit").read_text() == "0\n"
    assert "generated_at" not in (tmp_path / "out" / "contour_exp_density.stderr").read_text()
    dump = (tmp_path / "out" / "contour_exp_density.dump.csv").read_text()
    assert dump.startswith("piece,s_param,re z,im z,|integrand|\n")


def test_outputs_mode_writes_each_workload_command(tmp_path, monkeypatch):
    # one workload at one seed, written from two directories: the trees are identical,
    # the problem path in the sidecar included
    module, jumps_contour = sys.modules[__name__], _workloads()["jumps-contour"]
    monkeypatch.setattr(module, "_commands", dict)
    monkeypatch.setattr(module, "_workloads", lambda: {"jumps-contour": jumps_contour})
    monkeypatch.setattr(module, "WORKLOAD_SEEDS", (7,))
    monkeypatch.setattr(module, "FAILURE_RUNS", {})
    trees = []
    for out in (tmp_path / "a", tmp_path / "deeper" / "b"):
        write_outputs(out)
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert trees[0] == trees[1]
    assert sorted(trees[0]) == [
        "jumps-contour_7_contour.csv", "jumps-contour_7_contour.exit",
        "jumps-contour_7_contour.stderr", "jumps-contour_7_dirichlet.csv",
        "jumps-contour_7_dirichlet.exit", "jumps-contour_7_dirichlet.stderr",
        "workloads/jumps-contour/7/alternating.json",
        "workloads/jumps-contour/7/contour_dump.csv"]
    stderr = trees[0]["jumps-contour_7_contour.stderr"].decode()
    assert '"problem": "workloads/jumps-contour/7/alternating.json"' in stderr
    assert "generated_at" not in stderr
    assert trees[0]["jumps-contour_7_contour.exit"] == trees[0][
        "jumps-contour_7_dirichlet.exit"] == b"0\n"
    assert trees[0]["workloads/jumps-contour/7/contour_dump.csv"].startswith(
        b"piece,s_param,re z,im z,|integrand|\n")


def test_outputs_mode_writes_each_failure_run(tmp_path, monkeypatch):
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "_commands", dict)
    monkeypatch.setattr(module, "_workloads", dict)
    monkeypatch.setattr(module, "FAILURE_RUNS", {
        name: FAILURE_RUNS[name] for name in ("contour_agreement_tol_0", "contour_C_0.01")})
    write_outputs(tmp_path / "out")
    failures = tmp_path / "out" / "failures"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["failures"]
    assert sorted(p.name for p in failures.iterdir()) == [
        f"{name}.{ext}" for name in ("contour_C_0.01", "contour_agreement_tol_0")
        for ext in ("csv", "exit", "json", "stderr")]
    problem = json.loads((failures / "contour_C_0.01.json").read_text())
    assert problem["certificate"] == {"C": 0.01, "x0": 1.0, "T": 0.0}
    for name in ("contour_C_0.01", "contour_agreement_tol_0"):
        assert (failures / f"{name}.exit").read_text() == "1\n"
        stderr = (failures / f"{name}.stderr").read_text()
        assert f'"problem": "failures/{name}.json"' in stderr
        assert "generated_at" not in stderr


# "module.qualname" of every package function that no gallery command enters, and why it stays
UNREACHED = {
    "bv.NonFiniteIntegrandError.__init__": "error path: a sweep meets a non-finite value",
    "bv.QuadratureError.__init__": "error path: an interval of quad misses its tolerance",
    "contour.ContourBudgetError.__init__": "error path: a contour needs too many nodes",
    "transform.TruncationCapError.__init__": "error path: no truncation point within the cap",
    "cli._input_error": "error path: a bad command-line value exits 2",
    "cli._contour_failure": "error path: names a contour check that fails, for exit 1",
    "problems._fail": "error path: a malformed problem file exits 2",
    "verify._span": "error path: names a grid that leaves the ratio condition nothing to check",
    "growth.at_index": "error path: tags a batch entry's failure with its position",
    "dirichlet.read_coefficients": "input path that no gallery problem uses",
    **dict.fromkeys(("bv._jump_exp_sum", "bv._block_factors", "bv._split"),
                    "input path that no gallery problem uses: contour on materialised jumps, "
                    "until ROADMAP item 3"),
    "verify.check_admissibility": "ROADMAP item 5 wires it into contour and certify",
}


def test_every_unreached_function_is_an_error_path_an_input_path_or_due():
    # the package is what a command runs: a listed function is an error path, an input
    # path no gallery problem takes, or a name an open ROADMAP item or perfbench calls
    reason = re.compile(r"error path: |input path |ROADMAP item \d+\b|perfbench")
    assert [name for name, why in UNREACHED.items() if not reason.match(why)] == []


def _package_functions() -> dict[tuple[str, int], str]:
    """{(file, first line): "module.qualname"} of every def in the package, nested ones
    joined by dots; a decorated def starts at its first decorator, as its code object does."""
    found = {}

    def walk(node, file: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                    found[file, line] = name
            walk(child, file, name)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path.resolve()), path.stem)
    return found


def unreached_functions(directory: Path) -> set[str]:
    """The package functions that no gallery command, run with each contour's --dump into
    directory, enters under sys.setprofile."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    for name, args in _commands().items():
        args = _with_dump(name, args, directory)
        sys.setprofile(profile)
        try:
            CliRunner().invoke(main, args)
        finally:
            sys.setprofile(previous)
    files = {file: str(Path(file).resolve()) for file, _ in entered}
    entered = {(files[file], line) for file, line in entered}
    return {name for key, name in _package_functions().items() if key not in entered}


def test_every_package_function_is_reached_or_listed(tmp_path):
    # equality, so wiring a listed function into a command fails too until its entry goes
    assert unreached_functions(tmp_path) == set(UNREACHED)


_BENCHMARK_CHANGE = "waits for ROADMAP item 4's benchmark change"
# "module.attribute" of every perfbench span target that names nothing, and why it stays
STALE_SPAN_TARGETS = {
    "cli.check_tauberian": _BENCHMARK_CHANGE,
    "cli.check_line_bound": _BENCHMARK_CHANGE,
    "cli.check_tail_bound": _BENCHMARK_CHANGE,
    "cli.check_small_x_bound": _BENCHMARK_CHANGE,
    "transform.stieltjes_integral": _BENCHMARK_CHANGE,
    "bv.stieltjes_integral": _BENCHMARK_CHANGE,
}


def test_every_perfbench_span_target_resolves_or_is_listed():
    # perfbench skips a span whose target is gone, so a rename would silently drop a layer
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = {f"{module.removeprefix('tauberian_lab.')}.{attr}"
                  for module, attr, _, _ in spans.TARGETS
                  if not hasattr(importlib.import_module(module), attr)}
    assert unresolved == set(STALE_SPAN_TARGETS)


def test_every_name_has_one_home():
    # a fresh import of the package root defines __version__ and no public name: every name
    # is imported from the module that defines it
    script = ("import types, tauberian_lab as root\n"
              "print(root.__version__, sorted(n for n, v in vars(root).items()\n"
              "      if not n.startswith('_') and not isinstance(v, types.ModuleType)))\n")
    res = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": str(PACKAGE.parent), "PATH": ""}, check=True)
    assert res.stdout.split(" ", 1)[1] == "[]\n"
    # and every top-level def of tests/exact.py is imported by some test module
    tests = Path(__file__).parent
    defined = {node.name for node in ast.parse((tests / "exact.py").read_text()).body
               if isinstance(node, ast.FunctionDef)}
    imported = {alias.name for path in tests.glob("test_*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "exact"
                for alias in node.names}
    assert defined and defined - imported == set()


def code_lines(source: str) -> int:
    """Lines of source that hold code: no blank line, comment or docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENDMARKER)
    lines = {line for token in tokenize.generate_tokens(io.StringIO(source).readline)
             if token.type not in layout for line in range(token.start[0], token.end[0] + 1)}
    return len(lines - docstrings)


def print_code_lines() -> None:
    """Code lines of each package and test file, then of each directory."""
    root = Path(__file__).parents[1]
    for directory in (PACKAGE, root / "tests"):
        total = 0
        for path in sorted(directory.glob("*.py")):
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6d}  {path.relative_to(root)}")
        print(f"{total:6d}  {directory.relative_to(root)}/*.py")


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = ('"""Module\ndocstring."""\n\nx = 1  # comment\n# comment\n'
              'def f():\n    """Doc."""\n    return """a\nb"""\n')
    assert code_lines(source) == 4  # x = 1, def, and the two lines of the returned string


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate gallery_expected.json, or with "
                                     "--outputs write every gallery and benchmark workload "
                                     "output into DIR, or with --code-lines print the code "
                                     "lines of the package and the tests.")
    parser.add_argument("--outputs", metavar="DIR", type=Path)
    parser.add_argument("--code-lines", action="store_true")
    args = parser.parse_args()
    if args.code_lines:
        print_code_lines()
    elif args.outputs is None:
        EXPECTED.write_text(json.dumps(run_gallery(), indent=1) + "\n")
    else:
        refuse_foreign_package(Path(tauberian_lab.__file__).parent)
        write_outputs(args.outputs)
