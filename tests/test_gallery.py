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

which writes every gallery command's exact stdout, exit code and stderr
(without the sidecar's ``generated_at`` line) into DIR, with each contour
command's ``--dump`` table beside them; then compare with ``diff -r``.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from tauberian_lab.cli import main

EXPECTED = Path(__file__).with_name("gallery_expected.json")
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


def write_outputs(directory: Path) -> None:
    """Each gallery command's stdout, exit code and stderr, and each contour dump, in directory."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, args in _commands().items():
        stem = name.replace(" ", "_")
        if args[0] == "contour":
            args = [*args, "--dump", str(directory / f"{stem}.dump.csv")]
        result = CliRunner().invoke(main, args)
        (directory / f"{stem}.csv").write_text(result.stdout)
        (directory / f"{stem}.exit").write_text(f"{result.exit_code}\n")
        (directory / f"{stem}.stderr").write_text("".join(
            line for line in result.stderr.splitlines(keepends=True)
            if '"generated_at":' not in line))


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


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate gallery_expected.json, or with "
                                     "--outputs write every gallery output into DIR.")
    parser.add_argument("--outputs", metavar="DIR", type=Path)
    outputs = parser.parse_args().outputs
    if outputs is None:
        EXPECTED.write_text(json.dumps(run_gallery(), indent=1) + "\n")
    else:
        write_outputs(outputs)
