"""The strict problem-file schema: happy paths and loud failures."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from tauberian_lab.cli import main
from tauberian_lab.contour import MAX_ACCELERATION_TERMS
from tauberian_lab.problems import ProblemFormatError, load_problem

SHIPPED = [str(p) for p in sorted(Path("problems").glob("*.json"))]


def write(tmp_path, payload):
    p = tmp_path / "case.json"
    p.write_text(json.dumps(payload))
    return p


@pytest.mark.parametrize("path", SHIPPED)
def test_shipped_problems_load(path):
    prob = load_problem(path)
    assert prob.name
    assert prob.bv.dimension >= 1


def test_delayed_step_contents():
    prob = load_problem("problems/delayed_step.json")
    assert prob.bv.jump_times.size == 1
    assert prob.bv.jump_times[0] == 1.0
    assert prob.certificate.C == 1.0
    assert prob.certificate.R_rule(10.0) == 1.0
    assert prob.f0 is not None


def test_dirichlet_problem_contents():
    prob = load_problem("problems/dirichlet_alternating.json")
    assert prob.dirichlet is not None
    assert prob.dirichlet.n_max == 1_000_000
    assert prob.dirichlet.t_max == pytest.approx(math.log(1_000_000))
    assert prob.certificate.C == pytest.approx(math.e)
    assert prob.growth is not None
    assert prob.growth(1.0) == pytest.approx(2.5)  # affine c = 1.25
    assert prob.extension is not None


def test_unknown_top_key(tmp_path):
    p = write(tmp_path, {"name": "x", "certificate": {"C": 1, "x0": 1},
                         "jumps": [{"t": 1, "value": [1.0]}], "bogus": 1})
    with pytest.raises(ProblemFormatError, match="bogus"):
        load_problem(p)


def test_unknown_nested_key_names_path(tmp_path):
    p = write(tmp_path, {"name": "x", "certificate": {"C": 1, "x0": 1, "oops": 2},
                         "jumps": [{"t": 1, "value": [1.0]}]})
    with pytest.raises(ProblemFormatError, match="certificate"):
        load_problem(p)


def test_missing_certificate(tmp_path):
    p = write(tmp_path, {"name": "x", "jumps": [{"t": 1, "value": [1.0]}]})
    with pytest.raises(ProblemFormatError, match="certificate"):
        load_problem(p)


def test_no_content_rejected(tmp_path):
    p = write(tmp_path, {"name": "x", "certificate": {"C": 1, "x0": 1}})
    with pytest.raises(ProblemFormatError):
        load_problem(p)


def test_bad_json_wrapped(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ProblemFormatError):
        load_problem(p)


def test_complex_pairs_parse(tmp_path):
    p = write(tmp_path, {
        "name": "pair", "certificate": {"C": 1, "x0": 1},
        "jumps": [{"t": 0.5, "value": [1.0, -2.0]}],
        "f0": [0.0, 0.0],
    })
    prob = load_problem(p)
    assert prob.bv.jump_sizes[0, 0] == 1.0 - 2.0j


def test_density_blocks(tmp_path):
    p = write(tmp_path, {
        "name": "dens", "certificate": {"C": 1, "x0": 1},
        "densities": [{"from": 0.0, "to": "inf", "kind": "exponential",
                       "scale": [1.0], "rate": -1.0}],
    })
    prob = load_problem(p)
    assert prob.bv.pieces[0].rate == -1.0
    assert math.isinf(prob.bv.pieces[0].end)


def test_density_param_mismatch(tmp_path):
    p = write(tmp_path, {
        "name": "dens", "certificate": {"C": 1, "x0": 1},
        "densities": [{"from": 0, "to": 1, "kind": "constant",
                       "scale": [1.0], "rate": -1.0}],
    })
    with pytest.raises(ProblemFormatError, match="rate"):
        load_problem(p)


def test_growth_kinds(tmp_path):
    for kind, params in (("constant", {"c": 2.0}), ("affine", {"c": 1.5}),
                         ("power", {"c": 1.0, "alpha": 0.5}),
                         ("log", {"c": 1.5, "beta": 2.0}),
                         ("exp", {"c": 1.0, "kappa": 0.1})):
        p = write(tmp_path, {"name": "g", "certificate": {"C": 1, "x0": 1},
                             "jumps": [{"t": 1, "value": [1.0]}],
                             "growth": {"kind": kind, "params": params}})
        prob = load_problem(p)
        assert prob.growth is not None
    p = write(tmp_path, {"name": "g", "certificate": {"C": 1, "x0": 1},
                         "jumps": [{"t": 1, "value": [1.0]}],
                         "growth": {"kind": "quadratic", "params": {}}})
    with pytest.raises(ProblemFormatError, match="quadratic"):
        load_problem(p)


def _with_kind(block: str, kind) -> tuple[dict, str]:
    """A problem whose <block> has the given kind, and that block's JSON path."""
    base = {"name": "k", "certificate": {"C": 1, "x0": 1}, "jumps": [{"t": 1, "value": [1.0]}]}
    if block == "growth":
        return dict(base, growth={"kind": kind, "params": {"c": 2.0}}), "growth"
    if block == "cutoff":
        return dict(base, cutoff={"kind": kind}), "cutoff"
    if block == "extension":
        return dict(base, extension={"kind": kind}), "extension"
    if block == "density":
        return dict(base, densities=[{"from": 0, "to": 1, "kind": kind, "scale": [1.0]}]), \
            "densities[0]"
    return ({"name": "k", "dirichlet": {"coefficients": {"kind": kind}, "n_max": 10}},
            "dirichlet.coefficients")


@pytest.mark.parametrize("kind", [["affine"], {"name": "affine"}], ids=["list", "object"])
@pytest.mark.parametrize("block", ["growth", "cutoff", "extension", "density", "coefficients"])
def test_unhashable_kind_is_a_format_error(tmp_path, block, kind):
    # a list or object kind once raised TypeError in the growth lookup
    payload, where = _with_kind(block, kind)
    with pytest.raises(ProblemFormatError, match=re.escape(f"{where}.kind:")):
        load_problem(write(tmp_path, payload))


def test_cutoff_kinds(tmp_path):
    base = {"name": "c", "certificate": {"C": 1, "x0": 1},
            "jumps": [{"t": 1, "value": [1.0]}]}
    p = write(tmp_path, dict(base, cutoff={"kind": "exp_t"}))
    assert load_problem(p).certificate.R_rule(1.0) == pytest.approx(math.e)
    p = write(tmp_path, dict(base, cutoff={"kind": "constant", "value": 3.0}))
    assert load_problem(p).certificate.R_rule(9.0) == 3.0
    p = write(tmp_path, dict(base, cutoff={"kind": "constant"}))
    with pytest.raises(ProblemFormatError, match="value"):
        load_problem(p)


def test_dirichlet_block_excludes_direct_data(tmp_path):
    p = write(tmp_path, {
        "name": "d", "dirichlet": {"coefficients": "alternating", "n_max": 100},
        "jumps": [{"t": 1, "value": [1.0]}],
    })
    with pytest.raises(ProblemFormatError):
        load_problem(p)


@pytest.mark.parametrize("payload, where", [
    ({"name": "d", "dirichlet": {"coefficients": "alternating", "n_max": 100}, "f0": 5.0}, "f0"),
    (dict(name="c", certificate={"C": 1, "x0": 1}, jumps=[{"t": 1, "value": [1.0]}],
          cutoff={"kind": "exp_t", "value": 3}), "cutoff.value"),
    (dict(name="c", certificate={"C": 1, "x0": 1}, jumps=[{"t": 1, "value": [1.0]}],
          cutoff={"kind": "infinite", "value": 3}), "cutoff.value"),
    ({"name": "d", "dirichlet": {"coefficients": {"kind": "alternating", "values": [5, 6]},
                                 "n_max": 100}}, "dirichlet.coefficients.values"),
    ({"name": "d", "dirichlet": {"coefficients": {"kind": "periodic", "values": [1.0, -1.0],
                                                  "path": "c.txt"}, "n_max": 10}},
     "dirichlet.coefficients.path"),
], ids=["dirichlet_f0", "exp_t_value", "infinite_value", "rule_values", "periodic_path"])
def test_keys_the_kind_does_not_read_are_refused(tmp_path, payload, where):
    # each loaded once and was ignored: f0 stayed log 2, the table stayed [1, -1]
    with pytest.raises(ProblemFormatError, match=re.escape(f"case.json.{where}:")):
        load_problem(write(tmp_path, payload))


@pytest.mark.parametrize("entry, token", [
    ('"growth": {"kind": "constant", "params": {"c": Infinity}}', "Infinity"),
    ('"growth": {"kind": "power", "params": {"c": 1.0, "alpha": Infinity}}', "Infinity"),
    ('"densities": [{"from": 0, "to": 1, "kind": "constant", "scale": [NaN]}]', "NaN"),
    ('"f0": [-Infinity]', "-Infinity"),
], ids=["growth_c", "growth_alpha", "density_scale", "f0"])
def test_non_json_number_tokens_are_refused(tmp_path, entry, token):
    # Python's json reads these tokens: rate then printed an empty table, and
    # its sidecar held the non-JSON values Infinity and NaN
    p = tmp_path / "case.json"
    p.write_text('{"name": "x", "certificate": {"C": 1, "x0": 1}, '
                 '"jumps": [{"t": 1, "value": [1.0]}], ' + entry + "}")
    with pytest.raises(ProblemFormatError, match=re.escape(f"({token} is not a number")):
        load_problem(p)


_WITH_JUMPS = '"certificate": {"C": 1, "x0": 1}, "jumps": [{"t": 1, "value": [1.0]}], '


@pytest.mark.parametrize("entry, where", [
    (_WITH_JUMPS + '"f0": [1e400]', "f0[0]"),
    (_WITH_JUMPS + '"f0": [1.0, -1e400]', "f0[1]"),
    ('"dirichlet": {"coefficients": "alternating", "n_max": 100, "f0": [1e400]}',
     "dirichlet.f0[0]"),
    (_WITH_JUMPS + '"extension": {"kind": "rational", '
                   '"params": {"numerator": [1e400], "denominator": [1, 1]}}',
     "extension.params.numerator[0]"),
    (_WITH_JUMPS + '"densities": [{"from": 0, "to": 1e400, "kind": "constant", "scale": [1.0]}]',
     "densities[0].to"),
    (_WITH_JUMPS + '"growth": {"kind": "constant", "params": {"c": 1' + "0" * 400 + '}}',
     "growth.params.c"),
], ids=["f0", "f0_pair", "dirichlet_f0", "rational_numerator", "density_to", "integer_growth_c"])
def test_numbers_that_overflow_to_infinity_are_refused(tmp_path, entry, where):
    # json reads 1e400 as inf: a dirichlet f0 then gave decay_norm inf and exit 0, a rational
    # numerator failed on a contour node, "to": 1e400 meant "inf", and a 400-digit integer
    # raised OverflowError
    p = tmp_path / "case.json"
    p.write_text('{"name": "x", ' + entry + "}")
    with pytest.raises(ProblemFormatError,
                       match=re.escape(f"case.json.{where}: expected a finite number")):
        load_problem(p)


def test_dirichlet_periodic_and_file(tmp_path):
    coeff_file = tmp_path / "c.txt"
    coeff_file.write_text("1.0 0.0\n-1.0 0.0\n0.5 0.0\n")
    p = write(tmp_path, {
        "name": "d",
        "dirichlet": {"coefficients": {"kind": "file", "path": "c.txt"}, "n_max": 3},
    })
    prob = load_problem(p)
    assert prob.dirichlet.n_max == 3
    p2 = write(tmp_path, {
        "name": "d2",
        "dirichlet": {"coefficients": {"kind": "periodic", "values": [1.0, -1.0]},
                      "n_max": 10},
    })
    assert load_problem(p2).dirichlet.coefficients == "periodic(period=2)"


def test_certificate_constant_reads_only_the_jumps_it_holds(tmp_path):
    # summation by parts needs sup ||b_n|| over n <= n_max only; C once read the file's
    # third row, 5, which the integrator does not hold, and came out 5e
    (tmp_path / "c.txt").write_text("1 0\n1 0\n5 0\n")
    p = write(tmp_path, {"dirichlet": {"coefficients": {"kind": "file", "path": "c.txt"},
                                       "n_max": 2}})
    prob = load_problem(p)
    np.testing.assert_array_equal(prob.bv.jumps_at(slice(None))[1][:, 0], [1.0, 0.5])
    assert prob.certificate.C == math.e


def test_missing_growth_hint(tmp_path):
    p = write(tmp_path, {"name": "x", "certificate": {"C": 1, "x0": 1},
                         "jumps": [{"t": 1, "value": [1.0]}]})
    prob = load_problem(p)
    assert prob.growth is None and prob.extension is None and prob.dirichlet is None
    # a command names the first block it needs that the file lacks, and exits 2
    for command, block in (("rate", "a 'growth'"), ("contour", "an 'extension'"),
                           ("dirichlet", "a 'dirichlet'")):
        res = CliRunner().invoke(main, [command, "--problem", str(p)])
        assert res.exit_code == 2
        assert res.stderr == f"error: {p}: this command needs {block} block in the problem file\n"


def test_n_max_too_large_to_allocate_names_the_option(tmp_path):
    # 10^15 jumps once needed petabytes, and numpy's MemoryError escaped as a traceback, exit 1.
    # A table forms no jump arrays now; its limit is where fl(log n) is proven to increase
    p = write(tmp_path, {"name": "big", "dirichlet": {"coefficients": "alternating",
                                                      "n_max": 10**15}})
    with pytest.raises(ProblemFormatError, match=re.escape(f"{p}.dirichlet.n_max: too large")):
        load_problem(p)
    res = CliRunner().invoke(main, ["verify", "--problem", str(p)])
    assert res.exit_code == 2
    assert res.stderr.startswith(f"error: {p}.dirichlet.n_max: too large: a table gives at most "
                                 f"2^40 = 1099511627776 jumps")


def test_eta_shift_terms_outside_the_acceleration_range_are_refused(tmp_path):
    # past MAX_ACCELERATION_TERMS the weights overflow: eta gave nan, then OverflowError
    base = {"name": "e", "certificate": {"C": 1, "x0": 1}, "jumps": [{"t": 1, "value": [1.0]}]}
    for terms in (7, MAX_ACCELERATION_TERMS + 1, 500):
        p = write(tmp_path, dict(base, extension={"kind": "eta_shift", "params": {"terms": terms}}))
        with pytest.raises(ProblemFormatError, match=re.escape(f"{p}.extension.params.terms:")):
            load_problem(p)
    p = write(tmp_path, dict(base, extension={"kind": "eta_shift",
                                              "params": {"terms": MAX_ACCELERATION_TERMS}}))
    assert load_problem(p).extension.terms == MAX_ACCELERATION_TERMS


def test_constant_cutoff_below_one_names_the_cutoff(tmp_path):
    # CutoffRule's ValueError once escaped load_problem: a traceback and exit 1
    p = write(tmp_path, {"certificate": {"C": 1.0, "x0": 1.0}, "jumps": [{"t": 1.0, "value": [1.0]}],
                         "cutoff": {"kind": "constant", "value": 0.5}})
    with pytest.raises(ProblemFormatError, match=re.escape(f"{p}.cutoff.value: constant cutoff")):
        load_problem(p)
    res = CliRunner().invoke(main, ["verify", "--problem", str(p)])
    assert res.exit_code == 2
    assert res.stderr.startswith(f"error: {p}.cutoff.value: constant cutoff must be")


@pytest.mark.parametrize("values, where", [
    ([[1, 2, 3], [4]], "values[1]"),
    ([[[1, 0], [2, 0]], [[1, 0]]], "values[1]"),
    ([[1, 2, 3], 4], "values[1]"),
    ([[]], "values"),
], ids=["ragged", "ragged_pairs", "row_not_a_list", "empty_row"])
def test_ragged_or_empty_periodic_table_names_the_row(tmp_path, values, where):
    # numpy's inhomogeneous-shape ValueError (or the empty table's) once escaped: exit 1
    p = write(tmp_path, {"dirichlet": {"coefficients": {"kind": "periodic", "values": values},
                                       "n_max": 100}})
    with pytest.raises(ProblemFormatError,
                       match=re.escape(f"{p}.dirichlet.coefficients.{where}:")):
        load_problem(p)
    res = CliRunner().invoke(main, ["verify", "--problem", str(p)])
    assert res.exit_code == 2
    assert res.stderr.startswith(f"error: {p}.dirichlet.coefficients.{where}:")
