"""CLI surface: exit codes, CSV schemas, metadata, and determinism."""

import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from tauberian_lab import bv as bv_module
from tauberian_lab.cli import main

ALT_PROBLEM = """
{
  "name": "alt-small",
  "dirichlet": {"coefficients": "alternating", "n_max": 50000},
  "growth": {"kind": "affine", "params": {"c": 1.25}}
}
"""


def run(*args):
    return CliRunner().invoke(main, list(args))


def stderr_of(result) -> str:
    try:
        return result.stderr
    except ValueError:
        return ""


def parse_csv(text: str):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestRate:
    def test_comma_grid_and_values(self, tmp_path):
        out = tmp_path / "rate.csv"
        res = run("rate", "--problem", "problems/rate_constant_growth.json",
                  "--t-grid", "8,16,32", "--out", str(out))
        assert res.exit_code == 0, res.output
        header, rows = parse_csv(out.read_text())
        assert header == ["t", "R_opt", "R_rule_t", "branch", "bound_B", "rate_shape"]
        assert len(rows) == 3
        # R_opt(8) for M = 2, C = 1 is (sqrt 5 / 2) e
        assert float(rows[0][1]) == pytest.approx(math.sqrt(5.0) / 2.0 * math.e, rel=1e-9)
        assert rows[0][3] == "opt_inside"
        meta = json.loads((tmp_path / "rate.csv.meta.json").read_text())
        assert meta["command"] == "rate"
        assert meta["rows"] == 3

    def test_default_grid_skips_below_threshold(self):
        res = run("rate", "--problem", "problems/rate_constant_growth.json")
        assert res.exit_code == 0
        header, rows = parse_csv(res.stdout)
        assert len(rows) == 50  # T' = 0 for this instance: nothing skipped

    def test_bad_grid_is_input_error(self):
        res = run("rate", "--problem", "problems/rate_constant_growth.json",
                  "--t-grid", "5:1:3")
        assert res.exit_code == 2
        assert "--t-grid" in stderr_of(res)

    def test_unreachable_radius_names_its_time(self):
        # the middle time 1000000.5 needs m_log = 250000.125, far past float range
        # for M = 2: the error names that time and that target
        res = run("rate", "--problem", "problems/rate_constant_growth.json",
                  "--t-grid", "1:2000000:3")
        assert res.exit_code == 2
        assert ("error: t = 1e+06: no radius in float range reaches m_log = 250000.125"
                in stderr_of(res))

    @pytest.fixture
    def const10_problem(self, tmp_path):
        # M = 10, C = 1: T' = 40 (log 10 - 0.5 log 5) ~ 59.91
        p = tmp_path / "const10.json"
        p.write_text(json.dumps({
            "name": "const10", "densities": [
                {"from": 0, "to": "inf", "kind": "exponential", "scale": [1.0],
                 "rate": -1.0}],
            "certificate": {"C": 1.0, "x0": 1.0, "T": 0.0},
            "growth": {"kind": "constant", "params": {"c": 10.0}}}))
        return p

    def test_rows_start_above_t_prime(self, tmp_path, const10_problem):
        out = tmp_path / "rate.csv"
        res = run("rate", "--problem", str(const10_problem), "--t-grid", "30,60,90",
                  "--out", str(out))
        assert res.exit_code == 0, res.output
        header, rows = parse_csv(out.read_text())
        assert [float(r[0]) for r in rows] == [60.0, 90.0]
        meta = json.loads((tmp_path / "rate.csv.meta.json").read_text())
        assert meta["t_prime"] == pytest.approx(59.91, abs=5e-3)
        assert meta["skipped_at_or_below_t_prime"] == 1

    def test_grid_below_t_prime_gives_header_only(self, const10_problem):
        res = run("rate", "--problem", str(const10_problem), "--t-grid", "10,20")
        assert res.exit_code == 0, res.output
        assert res.stdout == "t,R_opt,R_rule_t,branch,bound_B,rate_shape\n"

    def test_grid_is_inverted_in_one_pass(self, monkeypatch):
        # one branch_start and a few dozen array m_log calls serve the whole
        # grid; inverting one time at a time made about 9300 m_log calls here
        import tauberian_lab.growth as growth_module

        counts = {"branch_start": 0, "m_log": 0}
        for name in counts:
            inner = getattr(growth_module, name)

            def counted(*args, _inner=inner, _name=name, **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(growth_module, name, counted)
        res = run("rate", "--problem", "problems/rate_constant_growth.json",
                  "--t-grid", "0.5:300:160")
        assert res.exit_code == 0, res.output
        assert len(parse_csv(res.stdout)[1]) == 160
        assert counts["branch_start"] == 1
        assert counts["m_log"] <= 300

    def test_thread_variable_is_ignored(self, monkeypatch):
        # a malformed TAUBERIAN_LAB_THREADS once crashed _emit with exit code 1
        args = ("rate", "--problem", "problems/rate_constant_growth.json",
                "--t-grid", "10:10:1")
        monkeypatch.delenv("TAUBERIAN_LAB_THREADS", raising=False)
        plain = run(*args)
        monkeypatch.setenv("TAUBERIAN_LAB_THREADS", "zero")
        res = run(*args)
        assert res.exit_code == 0, res.output
        assert res.stdout == plain.stdout

    def test_missing_growth_block(self, tmp_path):
        p = tmp_path / "no_growth.json"
        p.write_text(json.dumps({
            "name": "ng", "certificate": {"C": 1, "x0": 1},
            "jumps": [{"t": 1, "value": [1.0]}]}))
        res = run("rate", "--problem", str(p))
        assert res.exit_code == 2
        assert "growth" in stderr_of(res)


@pytest.mark.parametrize("command, problem, grid", [
    ("rate", "problems/rate_constant_growth.json", "1,nan,3"),
    ("dirichlet", "problems/dirichlet_alternating.json", "1,nan,3"),
    ("verify", "problems/exp_density.json", "0,nan,5"),
])
def test_nonfinite_grid_value_is_input_error(command, problem, grid):
    # nan slipped through the increasing-order check: dirichlet printed a nan
    # row, rate counted it as skipped, verify failed deep inside a sweep
    res = run(command, "--problem", problem, "--t-grid", grid)
    assert res.exit_code == 2
    assert f"--t-grid '{grid}': grid values must be finite" in stderr_of(res)
    assert res.stdout == ""


@pytest.mark.parametrize("flag, grid", [("--t-grid", "1:inf:3"), ("--x-grid", "1:inf:3"),
                                        ("--t-grid", "inf,nan")])
def test_nonfinite_grid_end_is_input_error(flag, grid):
    res = run("verify", "--problem", "problems/exp_density.json", flag, grid)
    assert res.exit_code == 2
    assert f"{flag} '{grid}': grid values must be finite" in stderr_of(res)


class TestVerify:
    def test_delayed_step_passes(self):
        res = run("verify", "--problem", "problems/delayed_step.json",
                  "--quad-tol", "1e-12")
        assert res.exit_code == 0, res.output
        header, rows = parse_csv(res.stdout)
        assert header == ["case_id", "grid_sup", "bound", "margin", "witness_t"]
        by_case = {r[0]: r for r in rows}
        assert float(by_case["tauberian_condition"][1]) == pytest.approx(1.0, abs=1e-3)
        assert set(by_case) == {"tauberian_condition", "line_bound_x1_y0",
                                "line_bound_x1_y2", "tail_bound_x1_y2",
                                "small_x_bound"}

    def test_violation_exits_one(self, tmp_path):
        p = tmp_path / "bad_cert.json"
        p.write_text(json.dumps({
            "name": "bad", "dimension": 1,
            "jumps": [{"t": 1.0, "value": [1.0]}],
            "cutoff": {"kind": "constant", "value": 1.0},
            "certificate": {"C": 0.5, "x0": 1.0}}))
        out = tmp_path / "verify.csv"
        res = run("verify", "--problem", str(p), "--quad-tol", "1e-12", "--out", str(out))
        assert res.exit_code == 1
        assert "violation" in stderr_of(res)
        # the hypothesis fails at x0 = 1, so every bound that assumes it fails too
        meta = json.loads((tmp_path / "verify.csv.meta.json").read_text())
        assert meta["failed_cases"] == ["tauberian_condition", "line_bound_x1_y0",
                                        "line_bound_x1_y2", "tail_bound_x1_y2", "small_x_bound"]
        assert meta["notes"] == {"line_bound_x1_y0": "ratio hypothesis fails at x = 1",
                                 "line_bound_x1_y2": "ratio hypothesis fails at x = 1",
                                 "tail_bound_x1_y2": "ratio hypothesis fails at x = 1; "
                                                     "v_max=64.7318",
                                 "small_x_bound": "ratio hypothesis fails at x0 = 1"}

    def test_empty_ratio_check_exits_two(self, tmp_path):
        # no grid time lies past T, so the ratio condition checks nothing
        p = tmp_path / "late.json"
        p.write_text(json.dumps({
            "name": "late", "dimension": 1, "jumps": [{"t": 1.0, "value": [5.0]}],
            "certificate": {"C": 1.0, "x0": 1.0, "T": 100.0}}))
        res = run("verify", "--problem", str(p))
        assert res.exit_code == 2
        assert "T = 100" in stderr_of(res)
        assert "tauberian_condition" not in res.stdout

    def test_explicit_grids(self):
        res = run("verify", "--problem", "problems/exp_density.json",
                  "--t-grid", "0:20:200", "--x-grid", "1:10:8")
        assert res.exit_code == 0, res.output

    def test_quadrature_failure_is_input_error(self, tmp_path, monkeypatch):
        # with one subinterval per integral no power segment converges; the run
        # must stop with exit 2 and name the piece instead of printing a number
        monkeypatch.setattr(bv_module, "_QUAD_LEAVES", 1)
        p = tmp_path / "power.json"
        p.write_text(json.dumps({
            "name": "power", "dimension": 1,
            "densities": [{"from": 0.0, "to": 3.0, "kind": "power", "scale": [1.0],
                           "exponent": 1.5}],
            "cutoff": {"kind": "constant", "value": 1.0},
            "certificate": {"C": 10.0, "x0": 1.0}}))
        res = run("verify", "--problem", str(p))
        assert res.exit_code == 2
        assert "error: adaptive quadrature of density kind 'power' on [" in stderr_of(res)


class TestContour:
    def test_exp_density_identity(self, tmp_path):
        out = tmp_path / "contour.csv"
        res = run("contour", "--problem", "problems/exp_density.json",
                  "--t-grid", "5:5:1", "--radius", "2.0", "--out", str(out))
        assert res.exit_code == 0, res.output
        header, rows = parse_csv(out.read_text())
        assert header == ["t", "R", "residual", "I_measured", "I_bound",
                          "II_measured", "II_bound", "III_measured", "III_bound"]
        assert float(rows[0][2]) <= 1e-9
        assert float(rows[0][3]) <= float(rows[0][4])
        meta = json.loads((tmp_path / "contour.csv.meta.json").read_text())
        assert meta["extension_agreement_gap"] <= 1e-6
        assert meta["extension_agreement_points"] == 12
        assert meta["extension_agreement_t_star_max"] > 0.0
        assert meta["extension_agreement_truncation_bound_max"] == pytest.approx(1e-9, rel=1e-12)
        [(t, nodes)] = meta["total_nodes"]
        assert t == 5.0 and nodes > 0
        assert meta["jump_sum_remainder_max"] == 0.0

    def test_far_left_nodes_do_not_overflow(self):
        # at t = 12 the nodes with Re(r - z) = 63 once overflowed the closed
        # form of the partial integral: numpy warnings, then exit code 2
        proc = subprocess.run([sys.executable, "-m", "tauberian_lab.cli", "contour", "--problem",
                               "problems/exp_density.json", "--t-grid", "12:12:1",
                               "--radius", "64"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        header, rows = parse_csv(proc.stdout)
        assert float(rows[0][header.index("residual")]) <= 1e-6

    def test_dump_writes_node_table(self, tmp_path):
        dump = tmp_path / "nodes.csv"
        res = run("contour", "--problem", "problems/exp_density.json",
                  "--t-grid", "5:5:1", "--dump", str(dump))
        assert res.exit_code == 0, res.output
        header, rows = parse_csv(dump.read_text())
        assert header == ["piece", "s_param", "re z", "im z", "|integrand|"]
        pieces = {r[0] for r in rows}
        assert "gamma1" in pieces and "gamma2_top" in pieces

    def test_dump_reuses_the_evaluation(self, tmp_path, monkeypatch):
        # one contour build and one tail kernel call feed the identity, the
        # term bounds and the dump
        import tauberian_lab.contour as contour_mod

        calls = {"build_contour": 0, "exp_tail_integral": 0}
        for name in calls:
            def counted(*args, _real=getattr(contour_mod, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(contour_mod, name, counted)
        res = run("contour", "--problem", "problems/exp_density.json",
                  "--t-grid", "5:5:1", "--dump", str(tmp_path / "nodes.csv"))
        assert res.exit_code == 0, res.output
        assert calls == {"build_contour": 1, "exp_tail_integral": 1}

    def test_dump_requires_single_time(self):
        res = run("contour", "--problem", "problems/exp_density.json",
                  "--t-grid", "2:6:3", "--dump", "unused.csv")
        assert res.exit_code == 2
        assert "single-point" in stderr_of(res)

    def test_budget_error_is_input_error(self):
        res = run("contour", "--problem", "problems/exp_density.json",
                  "--t-grid", "2000:2000:1", "--radius", "50.0")
        assert res.exit_code == 2
        assert "budget" in stderr_of(res) or "nodes" in stderr_of(res)

    def test_missing_extension_block(self, tmp_path):
        p = tmp_path / "no_ext.json"
        p.write_text(json.dumps({
            "name": "ne", "certificate": {"C": 1, "x0": 1},
            "jumps": [{"t": 1, "value": [1.0]}],
            "growth": {"kind": "constant", "params": {"c": 2.0}}}))
        res = run("contour", "--problem", str(p))
        assert res.exit_code == 2
        assert "extension" in stderr_of(res)


class TestDirichlet:
    def test_ones_without_f0_names_the_gap(self):
        res = run("dirichlet", "--problem", "problems/dirichlet_ones.json")
        assert res.exit_code == 2
        assert "f0" in stderr_of(res)

    def test_alternating_margins(self, tmp_path):
        p = tmp_path / "alt.json"
        p.write_text(ALT_PROBLEM)
        res = run("dirichlet", "--problem", str(p), "--t-grid", "1:10:10")
        assert res.exit_code == 0, res.output
        header, rows = parse_csv(res.stdout)
        assert header == ["t", "decay_norm", "bound_B", "margin"]
        assert all(float(r[3]) >= 0.0 for r in rows)

    def test_grid_beyond_n_max(self, tmp_path):
        p = tmp_path / "alt.json"
        p.write_text(ALT_PROBLEM)
        res = run("dirichlet", "--problem", str(p), "--t-grid", "1:20:5")
        assert res.exit_code == 2
        assert "n_max" in stderr_of(res)

    def test_needs_dirichlet_block(self):
        res = run("dirichlet", "--problem", "problems/exp_density.json")
        assert res.exit_code == 2
        assert "dirichlet" in stderr_of(res)


class TestDeterminism:
    def test_rate_outputs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            res = run("rate", "--problem", "problems/rate_constant_growth.json",
                      "--t-grid", "8,16,32", "--out", str(out))
            assert res.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_dirichlet_outputs_are_byte_identical(self, tmp_path):
        p = tmp_path / "alt.json"
        p.write_text(ALT_PROBLEM)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            res = run("dirichlet", "--problem", str(p), "--t-grid", "1:10:10",
                      "--out", str(out))
            assert res.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_meta_sidecar_differs_only_in_timestamp(self, tmp_path):
        metas = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run("rate", "--problem", "problems/rate_constant_growth.json",
                "--t-grid", "8,16,32", "--out", str(out))
            meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
            meta.pop("generated_at")
            metas.append(meta)
        assert metas[0] == metas[1]


def test_console_script_wiring():
    proc = subprocess.run([sys.executable, "-m", "tauberian_lab.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "tauberian-lab" in proc.stdout


def test_cli_imports_without_scipy():
    # a fresh interpreter, so no other test's imports count
    code = "import sys, tauberian_lab.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def readme_examples() -> list[tuple[str, list[str]]]:
    """Each `$ tauberian-lab ...` line of README.md with the output lines under it."""
    examples, lines = [], (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("$ tauberian-lab "):
            end = lines.index("```", i)
            examples.append((line[len("$ tauberian-lab "):], lines[i + 1:end]))
    return examples


@pytest.mark.parametrize("command, expected", readme_examples(),
                         ids=[c.split()[0] for c, _ in readme_examples()])
def test_readme_examples_match_the_cli(command, expected):
    # an expected line ending in "..." is a prefix of the printed line
    res = run(*shlex.split(command))
    assert res.exit_code == 0, stderr_of(res)
    printed = res.stdout.splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3])
        else:
            assert got == want
