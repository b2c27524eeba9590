"""CLI surface: exit codes, CSV schemas, metadata, and determinism."""

import json
import math
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from tauberian_lab import bv as bv_module
from tauberian_lab.cli import main
from tauberian_lab.problems import load_problem
from tauberian_lab.verify import make_t_grid

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
        # one climb of a few dozen array m_log calls serves the whole grid,
        # branch start included; inverting one time at a time made about 9300
        # m_log calls here
        import tauberian_lab.growth as growth_module

        counts = {"_climb": 0, "m_log": 0}
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
        assert counts["_climb"] == 1
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


@pytest.mark.parametrize("args, flag, value", [
    (("contour", "--problem", "problems/exp_density.json", "--t-grid", "2:2:1"),
     "--residual-tol", "nan"),
    (("contour", "--problem", "problems/exp_density.json", "--t-grid", "2:2:1"),
     "--residual-tol", "-1"),
    (("contour", "--problem", "problems/exp_density.json", "--t-grid", "2:2:1"),
     "--agreement-tol", "nan"),
    (("verify", "--problem", "problems/delayed_step.json"), "--quad-tol", "nan"),
    (("contour", "--problem", "problems/dirichlet_alternating.json", "--t-grid", "3:3:1",
      "--radius", "1.5"), "--quad-tol", "-1"),
    (("contour", "--problem", "problems/exp_density.json", "--t-grid", "2:2:1"),
     "--seed", "-1"),
], ids=["residual_nan", "residual_negative", "agreement_nan", "quad_nan_jumps_only",
        "quad_negative_contour", "seed_negative"])
def test_bad_option_value_is_input_error_naming_the_flag(args, flag, value):
    # each was read only where something used it: a nan or negative tolerance
    # failed a verdict (exit 1) or was never read (exit 0), and seed -1 crashed
    # in default_rng with exit 1
    res = run(*args, flag, value)
    assert res.exit_code == 2
    assert f"Invalid value for '{flag}'" in stderr_of(res)
    assert res.stdout == ""


@pytest.mark.parametrize("flag, grid", [("--t-grid", "1:inf:3"), ("--x-grid", "1:inf:3"),
                                        ("--t-grid", "inf,nan")])
def test_nonfinite_grid_end_is_input_error(flag, grid):
    res = run("verify", "--problem", "problems/exp_density.json", flag, grid)
    assert res.exit_code == 2
    assert f"{flag} '{grid}': grid values must be finite" in stderr_of(res)


@pytest.mark.parametrize("args, flag", [
    (("rate", "--problem", "problems/rate_constant_growth.json"), "--out"),
    (("contour", "--problem", "problems/exp_density.json", "--t-grid", "5:5:1"), "--dump"),
], ids=["out", "dump"])
def test_unwritable_output_path_is_input_error(tmp_path, args, flag):
    # a FileNotFoundError traceback exited 1, which reads as a violated bound
    path = tmp_path / "missing" / "table.csv"
    res = run(*args, flag, str(path))
    assert res.exit_code == 2
    assert f"error: {flag} {path}: No such file or directory" in stderr_of(res)


def test_csv_text_is_csv_writers_minimal_quoting():
    import csv
    import io

    from tauberian_lab.cli import _csv_text

    header = ("case_id", "x", "y", "z")
    rows = [("ratio_condition", math.nan, math.inf, -math.inf),
            ("line_bound", -0.0, 5e-324, 1e308), ("gamma2_top", 3, 0.1, -2.5e-17),
            ("opt_inside", 0.1, 1e-05, 1e16, -0.0, math.nan, math.inf, 7)]
    # every column takes every kind of cell in turn; rows may be empty or short
    cells = ("gamma1", 0, 7, math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16, 2.5e-17)
    rows += [tuple(cells[(i + k) % len(cells)] for k in range(4)) for i in range(30)]
    rows += [(), ("gamma1",)]
    # cells go through str, and str(float) is repr(float): the text is csv.writer's, and the
    # join of each row's cells
    for body in (rows, rows[:1], []):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in body)
        assert _csv_text(header, body) == buf.getvalue()
        assert buf.getvalue() == "".join([",".join(map(str, row)) + "\n"
                                          for row in (header, *body)])
    lines = _csv_text(header, rows).splitlines()
    assert lines[2] == "line_bound,-0.0,5e-324,1e+308"
    assert lines[4] == "opt_inside,0.1,1e-05,1e+16,-0.0,nan,inf,7"


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

    def test_overflowing_certificate_is_input_error(self, tmp_path):
        # C = 1e308 made the tail bound inf: two RuntimeWarnings, then a vacuous PASS, exit 0
        problem = gallery_variant(tmp_path, "exp_density", "certificate", C=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run("verify", "--problem", problem)
        assert res.exit_code == 2
        assert stderr_of(res) == ("error: certificate C = 1e+308, x0 = 1 makes the tail bound "
                                  "inf; every bound must be finite\n")
        assert res.stdout == ""

    def test_x0_without_a_small_x_grid_is_named(self, tmp_path):
        # x0 / 100 rounds to 0, and the small-x grid was refused as "x grid needs 0 < x_min
        # <= x_max", naming neither x0 nor that grid
        problem = gallery_variant(tmp_path, "exp_density", "certificate", x0=1e-323, C=1e-300)
        res = run("verify", "--problem", problem)
        assert res.exit_code == 2
        assert stderr_of(res) == ("error: certificate x0 = 9.88131e-324 leaves no small-x grid "
                                  "[x0/100, x0]: x0/100 rounds to 0\n")
        assert res.stdout == ""

    def test_x_grid_below_x0_is_named(self):
        res = run("verify", "--problem", "problems/exp_density.json", "--x-grid", "0.001:0.5:4")
        assert res.exit_code == 2
        assert stderr_of(res) == ("error: x grid [0.001, 0.5] holds no abscissa at or above the "
                                  "certificate's x0 = 1\n")
        assert res.stdout == ""

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

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_quad_tol_is_input_error(self, tol):
        # every interval counted as converged after one Kronrod pass: nan gave
        # tauberian_condition 1.4792887383371252 with exit 0, against
        # 1.479288719603549 at --quad-tol 1e-10
        res = run("verify", "--problem", "problems/density_mix.json", "--t-grid", "0:40:120",
                  "--x-grid", "1:100:16", "--quad-tol", tol)
        assert res.exit_code == 2
        assert f"quadrature tolerance must be finite and >= 0, not {tol}" in stderr_of(res)
        assert res.stdout == ""

    def test_sidecar_describes_the_default_t_grid(self, tmp_path):
        out = tmp_path / "verify.csv"
        res = run("verify", "--problem", "problems/delayed_step.json", "--out", str(out))
        assert res.exit_code == 0, res.output
        meta = json.loads((tmp_path / "verify.csv.meta.json").read_text())
        _, described = make_t_grid(load_problem("problems/delayed_step.json").bv)
        assert meta["t_grid"] == described == (
            "t in [0, 50], 512 uniform + 64 geometric per jump (window 0.1, 1 jumps refined), "
            "576 points")

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--density", "nan", "density multiplier must be positive and finite"),
        ("--density", "inf", "density multiplier must be positive and finite"),
        ("--radius", "inf", "contour radius must be finite and >= 1"),
        ("--radius", "0.5", "contour radius must be finite and >= 1"),
        ("--density", "0", "density multiplier must be positive and finite"),
    ])
    def test_non_finite_radius_or_density_is_named(self, flag, value, message):
        # these once reached the panel count as "cannot convert float ... to integer", and
        # then were refused for a time of the grid ("t = 5: ..."), not for the option
        res = run("contour", "--problem", "problems/exp_density.json", flag, value)
        assert res.exit_code == 2
        assert message in stderr_of(res)
        assert f"Invalid value for '{flag}'" in stderr_of(res)
        assert "t = " not in stderr_of(res)

    @pytest.mark.parametrize("flag, value", [("--radius", "1e308"), ("--density", "1e308"),
                                             ("--t-grid", "1e308:1e308:1")])
    def test_overflowing_panel_count_is_over_the_budget(self, flag, value):
        # a finite input whose panel count overflows to inf is refused by the node budget
        res = run("contour", "--problem", "problems/exp_density.json", flag, value)
        assert res.exit_code == 2
        assert "needs inf nodes, over the budget of 400000" in stderr_of(res)

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
        assert "no known limit value; give f0 in the problem file's dirichlet block" in (
            stderr_of(res))

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

    @pytest.mark.parametrize("coefficients, described", [
        ("alternating", "alternating"), ("ones", "ones"),
        ({"kind": "periodic", "values": [1.0, -2.0, 1.0]}, "periodic(period=3)"),
        ({"kind": "file", "path": "c.txt"}, "file({dir}/c.txt, n=1200)"),
    ], ids=["alternating", "ones", "periodic", "file"])
    def test_sidecar_names_the_source_of_a_block_f0(self, tmp_path, coefficients, described):
        # the sidecar said "accelerated alternating series ..." or null for a block f0
        (tmp_path / "c.txt").write_text("1.0 0.0\n-0.5 0.25\n0.0 1.0\n" * 400)
        p = tmp_path / "f0.json"
        p.write_text(json.dumps({"dirichlet": {"coefficients": coefficients, "n_max": 1000,
                                               "f0": [0.5]},
                                 "growth": {"kind": "affine", "params": {"c": 1.25}}}))
        out = tmp_path / "d.csv"
        res = run("dirichlet", "--problem", str(p), "--t-grid", "2:6:2", "--out", str(out))
        assert res.exit_code == 0, stderr_of(res)
        meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
        assert meta["coefficients"] == described.format(dir=tmp_path)
        assert meta["n_max"] == 1000
        assert meta["f0_provenance"] == f"problem file: {p}.dirichlet.f0"

    def test_needs_dirichlet_block(self):
        res = run("dirichlet", "--problem", "problems/exp_density.json")
        assert res.exit_code == 2
        assert "dirichlet" in stderr_of(res)


def gallery_variant(directory: Path, problem: str, block: str, **fields) -> str:
    """The path of a copy of problems/<problem>.json, written into directory, with the given
    fields of one block replaced."""
    data = json.loads(Path("problems", f"{problem}.json").read_text())
    data[block].update(fields)
    path = directory / f"{problem}_variant.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestFailurePaths:
    # each verdict of contour and dirichlet that fails exits 1, names every failure on the last
    # stderr line and lists them in the sidecar
    def failed_run(self, tmp_path, *args) -> tuple[str, dict]:
        out = tmp_path / "table.csv"
        res = run(*args, "--out", str(out))
        assert res.exit_code == 1, stderr_of(res)
        return stderr_of(res).splitlines()[-1], json.loads(Path(f"{out}.meta.json").read_text())

    def test_contour_residual_over_its_tolerance(self, tmp_path):
        line, meta = self.failed_run(tmp_path, "contour", "--problem",
                                     "problems/exp_density.json", "--t-grid", "1:5:3",
                                     "--residual-tol", "0")
        failures = ["residual 3.93e-17 at t = 1", "residual 4.99e-16 at t = 3",
                    "residual 8.82e-16 at t = 5"]
        assert line == "; ".join(failures)
        assert meta["failures"] == failures

    def test_contour_extension_disagrees(self, tmp_path):
        line, meta = self.failed_run(tmp_path, "contour", "--problem",
                                     "problems/exp_density.json", "--agreement-tol", "0")
        assert line == "extension disagrees with the transform by 1.53e-14"
        assert meta["failures"] == [line]

    def test_contour_terms_over_their_bounds(self, tmp_path):
        problem = gallery_variant(tmp_path, "exp_density", "certificate", C=0.01)
        line, meta = self.failed_run(tmp_path, "contour", "--problem", problem,
                                     "--t-grid", "1:5:3")
        failures = ["term I exceeds its bound at t = 1", "term II exceeds its bound at t = 1",
                    "term II exceeds its bound at t = 3"]
        assert line == "; ".join(failures)
        assert meta["failures"] == failures

    def test_dirichlet_decay_over_its_bound(self, tmp_path):
        problem = gallery_variant(tmp_path, "dirichlet_alternating", "dirichlet", f0=[100.0])
        line, meta = self.failed_run(tmp_path, "dirichlet", "--problem", problem)
        ts = [1.0 + 0.5 * k for k in range(25)]
        assert line == f"bound violated at t = {', '.join(f'{t:g}' for t in ts)}"
        assert meta["negative_margin_at"] == ts


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
