"""CLI surface: exit codes, CSV schemas, metadata, and determinism."""

import json
import math
import subprocess
import sys

import pytest
from click.testing import CliRunner

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

    def test_missing_growth_block(self, tmp_path):
        p = tmp_path / "no_growth.json"
        p.write_text(json.dumps({
            "name": "ng", "certificate": {"C": 1, "x0": 1},
            "jumps": [{"t": 1, "value": [1.0]}]}))
        res = run("rate", "--problem", str(p))
        assert res.exit_code == 2
        assert "growth" in stderr_of(res)


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
        res = run("verify", "--problem", str(p), "--quad-tol", "1e-12")
        assert res.exit_code == 1
        assert "violation" in stderr_of(res)

    def test_explicit_grids(self):
        res = run("verify", "--problem", "problems/exp_density.json",
                  "--t-grid", "0:20:200", "--x-grid", "1:10:8")
        assert res.exit_code == 0, res.output


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
        [(t, nodes)] = meta["total_nodes"]
        assert t == 5.0 and nodes > 0
        assert meta["jump_sum_remainder_max"] == 0.0

    def test_dump_writes_node_table(self, tmp_path):
        dump = tmp_path / "nodes.csv"
        res = run("contour", "--problem", "problems/exp_density.json",
                  "--t-grid", "5:5:1", "--dump", str(dump))
        assert res.exit_code == 0, res.output
        header, rows = parse_csv(dump.read_text())
        assert header == ["piece", "s_param", "re z", "im z", "|integrand|"]
        pieces = {r[0] for r in rows}
        assert "gamma1" in pieces and "gamma2_top" in pieces

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
