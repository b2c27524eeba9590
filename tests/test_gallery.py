"""Gallery expectations: every gallery command keeps its exit code and its CSV body.

Each command runs in-process.  Exit codes, text cells (``case_id``,
``branch``, ...) and ``witness_t`` must match ``gallery_expected.json``
exactly; every other numeric cell within 1e-12 relative, with an absolute
floor of 1e-12 for residuals and near-zero margins.  Each contour command's
sidecar ``extension_agreement_gap`` must match within 1e-12 absolute.

Regenerate the expectations, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_gallery.py
"""

import json
import math
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


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(run_gallery(), indent=1) + "\n")
