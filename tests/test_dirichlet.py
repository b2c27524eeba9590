"""Dirichlet-series instances, the certificate on them and on a bounded density,
and growth admissibility on the left strip."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from tauberian_lab.bv import BVFunction, DensityPiece
from tauberian_lab.cli import main
from tauberian_lab.contour import EtaShiftExtension, RationalExtension, eta
from tauberian_lab.dirichlet import build_instance, partial_sum_decay, read_coefficients
from tauberian_lab.growth import GrowthBound
from tauberian_lab.problems import load_problem
from tauberian_lab.transform import TauberianCertificate, improper_laplace
from tauberian_lab.vectors import vector_norm
from tauberian_lab.verify import check_admissibility, check_certificate

from exact import exp_density, named_rule, stieltjes_integral, table_jumps


def coefficients(table: np.ndarray, n: np.ndarray) -> np.ndarray:
    """b_n for a 1-based index array: the table repeated."""
    return table[(n - 1) % table.shape[0]]


def dirichlet_problem(tmp_path, source, n_max: int):
    """The problem of a dirichlet block with this coefficient source and n_max, loaded."""
    p = tmp_path / "d.json"
    p.write_text(json.dumps({"dirichlet": {"coefficients": source, "n_max": n_max}}))
    return load_problem(p)


class TestCoefficientSequence:
    def test_alternating(self):
        c = named_rule("alternating")
        vals = coefficients(c, np.arange(1, 6))
        np.testing.assert_allclose(vals[:, 0], [1, -1, 1, -1, 1])

    def test_ones(self):
        c = named_rule("ones")
        assert np.all(coefficients(c, np.arange(1, 4)) == 1.0)

    def test_named_rules_are_bitwise_their_closed_forms(self):
        n = np.arange(1, 10**6 + 1)
        for coeffs, want in (
                (named_rule("alternating"),
                 np.where(n % 2 == 1, 1.0, -1.0).astype(complex)[:, None]),
                (named_rule("ones"), np.ones((n.size, 1), dtype=complex))):
            got = coefficients(coeffs, n)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_periodic(self):
        # the jumps of a period-3 table, times n, repeat it; C = e as sup ||b_n|| = 1
        bv, cert = build_instance(np.asarray([[1.0], [0.0], [-1.0]], dtype=complex), n_max=7)
        vals = bv.jumps_at(slice(None))[1][:, 0] * np.arange(1, 8)
        np.testing.assert_allclose(vals, [1, 0, -1, 1, 0, -1, 1])
        assert cert.C == math.e

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "coeffs.txt"
        p.write_text("# a comment\n1.0 0.0\n\n-0.5 0.25\n0.0 1.0\n")
        table = read_coefficients(p)
        assert table.shape == (3, 1)
        vals = table[:, 0]
        np.testing.assert_allclose(vals, [1.0, -0.5 + 0.25j, 1.0j])

    def test_file_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0 0.0\n2.0 0.0\n3.0\n")
        with pytest.raises(ValueError, match=r"bad\.txt:3"):
            read_coefficients(p)
        p2 = tmp_path / "ragged.txt"
        p2.write_text("1.0 0.0 2.0 0.0\n1.0 0.0\n")
        with pytest.raises(ValueError, match=r"ragged\.txt:2"):
            read_coefficients(p2)
        p3 = tmp_path / "empty.txt"
        p3.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no coefficients"):
            read_coefficients(p3)
        for token in ("nan", "inf", "1e400"):
            p4 = tmp_path / "nonfinite.txt"
            p4.write_text(f"1.0 0.0\n{token} 0\n")
            with pytest.raises(ValueError, match=rf"nonfinite\.txt:2: .* got '{token}'"):
                read_coefficients(p4)


class TestBuildInstance:
    def test_jump_layout(self):
        bv, _ = build_instance(named_rule("ones"), n_max=3)
        times, sizes = bv.jumps_at(slice(None))
        np.testing.assert_allclose(times, [0.0, math.log(2.0), math.log(3.0)])
        np.testing.assert_allclose(sizes[:, 0], [1.0, 0.5, 1.0 / 3.0])
        # jump locations invert exactly back to the integer index
        n_back = np.exp(times)
        np.testing.assert_allclose(n_back, [1.0, 2.0, 3.0], rtol=1e-14)

    def test_partial_sums_match_by_hand(self):
        bv, _ = build_instance(named_rule("alternating"), n_max=10)
        # value just past log 3 is 1 - 1/2 + 1/3
        got = stieltjes_integral(bv, 0.0, math.log(3.0) + 1e-9, 1e-12)[0].real
        assert got == pytest.approx(1.0 - 0.5 + 1.0 / 3.0, rel=1e-12)
        assert vector_norm(stieltjes_integral(bv, 0.0, 0.0, 1e-12), bv.norm_kind) == 0.0

    def test_certificate_fields(self):
        _, cert = build_instance(named_rule("alternating"), n_max=100)
        assert cert.C == math.e  # max(sup ||b_n||, 1) e with sup ||b_n|| = 1
        assert cert.x0 == 1.0
        assert cert.R_rule(2.0) == pytest.approx(math.exp(2.0))

    def test_alternating_limit_is_computed(self, tmp_path):
        prob = dirichlet_problem(tmp_path, "alternating", 50)
        assert prob.f0 is not None
        assert prob.f0[0].real == pytest.approx(math.log(2.0), abs=1e-14)
        assert "series" in prob.dirichlet.f0_provenance

    def test_ones_has_no_limit(self, tmp_path):
        assert dirichlet_problem(tmp_path, "ones", 50).f0 is None

    @pytest.mark.parametrize("kind", ["ones", "alternating", "periodic", "file"])
    def test_jumps_are_the_coefficients_over_n_at_log_n(self, kind, tmp_path):
        # bit for bit b_n / n (numpy's complex division by n) at log n; the
        # periodic table holds zero and negative parts, the file more rows than n_max
        periodic = [[1.5 - 0.25j, 0.0], [-0.7j, -2.0 + 0.0j], [0.3, 4.0 - 1e-3j]]
        path = tmp_path / "c.txt"
        values = np.linspace(-2.0, 3.0, 1237)
        path.write_text("".join(f"{v:.17g} {-v / 3:.17g}\n" for v in values))
        coeffs = {"ones": named_rule("ones"),
                  "alternating": named_rule("alternating"),
                  "periodic": np.asarray(periodic),
                  "file": read_coefficients(path)}[kind]
        n = np.arange(1, 1001)
        bv, _ = build_instance(coeffs, n_max=1000)
        times, sizes = bv.jumps_at(slice(None))
        want = coefficients(coeffs, n) / n[:, None]
        assert sizes.shape == want.shape
        assert np.array_equal(sizes, want)
        live = want.view(float) != 0
        assert np.array_equal(sizes.view(float)[live].view(np.uint64),
                              want.view(float)[live].view(np.uint64))
        assert np.array_equal(times.view(np.uint64), np.log(n).view(np.uint64))
        # the integrator carries its table, a file's cut at n_max: no full period past it
        assert np.array_equal(bv.table, coeffs[:1000])

    def test_n_max_validation(self, tmp_path):
        with pytest.raises(ValueError):
            build_instance(named_rule("ones"), n_max=1)
        p = tmp_path / "c.txt"
        p.write_text("1.0 0.0\n1.0 0.0\n")
        with pytest.raises(ValueError, match="lower n_max"):
            dirichlet_problem(tmp_path, {"kind": "file", "path": "c.txt"}, 5)

    def test_index_lookup_is_searchsorted_of_the_jump_times(self):
        # a table counts the jumps before t from t alone: np.searchsorted of its times fl(log n)
        # on both sides, at every jump time, at both of its float neighbours and past the ends
        n_max = 10**6
        bv, _ = build_instance(named_rule("ones"), n_max=n_max)
        times = table_jumps(named_rule("ones"), n_max)[0]
        ends = [-1.0, 0.0, math.log(n_max), 50.0, math.inf]
        t = np.concatenate((times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf), ends))
        for side in ("left", "right"):
            assert np.array_equal(bv.jumps_before(t, side), np.searchsorted(times, t, side))
            for s in ends:
                assert bv.jumps_before(s, side) == np.searchsorted(times, s, side)
        assert bv.jump_count == n_max

    @pytest.mark.parametrize("kind", ["alternating", "periodic"])
    def test_gather_is_the_table_arithmetic_bit_for_bit(self, kind, rng):
        # jumps_at forms jump i from its index alone, bit for bit the whole arrays: lengths
        # 1..8193 (every one to 64, then every 128th and the batch edges), contiguous from a
        # random start and scattered, sorted or not
        table = {"alternating": named_rule("alternating"),
                 "periodic": np.asarray([[1.5 - 0.25j, 0.0], [-0.7j, -2.0 + 0.0j],
                                         [0.3, 4.0 - 1e-3j]])}[kind]
        n_max = 60_000
        bv, _ = build_instance(table, n_max=n_max)
        times, sizes = table_jumps(table, n_max)
        for m in [*range(1, 65), *range(128, 8192, 128), 8191, 8192, 8193]:
            start = int(rng.integers(0, n_max - m + 1))
            for idx in (np.arange(start, start + m), rng.integers(0, n_max, m),
                        np.sort(rng.choice(n_max, m, replace=False))):
                tau, got = bv.jumps_at(idx)
                assert np.array_equal(tau.view(np.uint64), times[idx].view(np.uint64))
                assert np.array_equal(got.view(np.uint64), sizes[idx].view(np.uint64))
        tau, got = bv.jumps_at(slice(None))
        assert np.array_equal(tau.view(np.uint64), times.view(np.uint64))
        assert np.array_equal(got.view(np.uint64), sizes.view(np.uint64))
        assert np.array_equal(bv.jump_times.view(np.uint64), times.view(np.uint64))

    def test_a_million_jumps_load_and_verify_in_under_2_mb(self):
        # the table is read by index, so no array grows with n_max: the gallery's 10^6 jumps
        # once held 23 MB from load and peaked 23 MB more in the certificate check
        path = "problems/dirichlet_alternating.json"
        load_problem(path)  # imports outside the count
        tracemalloc.start()
        try:
            prob = load_problem(path)
            check_certificate(prob.bv, prob.certificate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prob.bv.jump_count == 10**6
        assert peak < 2_000_000


def alternating_decay(n_max: int, M: GrowthBound, t_grid) -> list[tuple]:
    """partial_sum_decay's (t, decay_norm, bound_B, margin) rows of the alternating series."""
    bv, cert = build_instance(named_rule("alternating"), n_max=n_max)
    return partial_sum_decay(bv, np.asarray([complex(eta(1.0).real)]), cert, M, t_grid,
                             math.log(n_max))


class TestPartialSumDecay:
    def test_alternating_decay_scale(self):
        rows = alternating_decay(200_000, GrowthBound("affine", 1.25), [10.0])
        _, decay_norm, bound_B, margin = rows[0]
        # |A(t) - log 2| ~ 1/(2 e^t) for the alternating harmonic tail
        scale = 1.0 / (2.0 * math.exp(10.0))
        assert decay_norm == pytest.approx(scale, rel=4.0)
        assert margin >= 0.0
        assert math.isfinite(bound_B)  # t = 10 lies past T'

    def test_margins_nonnegative_on_grid(self):
        rows = alternating_decay(200_000, GrowthBound("affine", 1.25), np.linspace(0.5, 12.0, 24))
        assert all(margin >= 0.0 for *_, margin in rows if math.isfinite(margin))

    def test_below_threshold_rows_are_nan(self):
        # a deliberately huge growth bound pushes T' above the whole grid
        rows = alternating_decay(1_000, GrowthBound("constant", 10.0), [1.0, 2.0])
        assert all(math.isnan(bound_B) and math.isnan(margin) for _, _, bound_B, margin in rows)
        assert all(math.isfinite(decay_norm) for _, decay_norm, _, _ in rows)

    def test_one_inversion_per_grid(self, inversion_sizes):
        # M = 5, C = e puts T' ~ 6.09 inside the grid: 12 of the 24 rows are above it
        rows = alternating_decay(200_000, GrowthBound("constant", 5.0), np.linspace(0.5, 12.0, 24))
        assert inversion_sizes == [12]
        assert [math.isnan(bound_B) for _, _, bound_B, _ in rows] == [True] * 12 + [False] * 12

    def test_missing_f0_is_refused(self, tmp_path):
        # a table with no computed limit and no f0 in its block
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"dirichlet": {"coefficients": {"kind": "periodic",
                                                                "values": [1.0, 0.0]},
                                               "n_max": 100},
                                 "growth": {"kind": "affine", "params": {"c": 2.0}}}))
        res = CliRunner().invoke(main, ["dirichlet", "--problem", str(p), "--t-grid", "2,3"])
        assert res.exit_code == 2
        assert res.stderr == ("error: coefficient source 'periodic(period=2)' has no known "
                              "limit value; give f0 in the problem file's dirichlet block\n")

    def test_explicit_f0_override(self):
        bv, cert = build_instance(np.zeros((1, 1), dtype=complex), n_max=100)
        rows = partial_sum_decay(bv, np.zeros(1), cert, GrowthBound("affine", 2.0), [2.0],
                                 math.log(100.0))
        assert rows[0][1] == 0.0

    def test_grid_beyond_faithful_range_is_refused(self):
        with pytest.raises(ValueError, match="log\\(n_max\\)"):
            alternating_decay(100, GrowthBound("affine", 1.25), [math.log(100.0) + 0.5])


class TestTauberianConditionForInstances:
    def test_alternating_within_e(self):
        bv, cert = build_instance(named_rule("alternating"), n_max=100_000)
        report = check_certificate(bv, cert, x_grid=np.geomspace(1.0, 200.0, 32),
                                   quad_tol=1e-12)[0]
        assert report.passed()
        # the known sharp level: sup of x e^{-xt} sum_{log n < t} n^{x-1} b_n
        assert report.value <= math.e

    def test_bounded_density_sup_at_most_c0(self):
        # dA = a(s) ds with |a| <= c0 = 1: x e^{-xt} int_0^t e^{xs} |a(s)| ds <= 1 - e^{-xt}
        report = check_certificate(exp_density()[0], TauberianCertificate(C=1.0, x0=1.0),
                                   x_grid=np.geomspace(1.0, 30.0, 12))[0]
        assert report.passed()
        assert report.value <= 1.0 + 1e-9


class TestBoundedDensityInstances:
    def test_cosine_transform_matches_density(self):
        # int_0^t e^{-zs} cos s ds approaches z/(1+z^2) as t grows; cos s = (e^{is} + e^{-is})/2
        cosine = BVFunction(1, pieces=tuple(
            DensityPiece(0.0, math.inf, "exponential", (0.5,), rate) for rate in (1j, -1j)))
        z = 1.3 + 0.0j
        point = improper_laplace(cosine, [z], TauberianCertificate(C=1.0, x0=1.0), target_err=1e-9)
        assert point.value[0, 0] == pytest.approx(z / (1.0 + z * z), abs=1e-8)


class TestAdmissibility:
    def test_cosine_extension_violates_near_poles(self):
        # z/(1+z^2) blows up near z = +-i: inside the strip of M = 2 the
        # bound fails around |y| = 1
        ext = RationalExtension((0.0, 1.0), (1.0, 0.0, 1.0))
        report = check_admissibility(ext, GrowthBound("constant", 2.0))
        assert report.value > 0.0
        assert abs(abs(report.witness_t) - 1.0) <= 0.1

    def test_decaying_exp_extension_is_admissible(self):
        # 1/(1+z) is bounded by 2 on the whole strip of M = 2 away from -1
        report = check_admissibility(exp_density()[1], GrowthBound("constant", 2.0))
        assert report.value <= 0.0
        assert "strip depths" in report.note

    def test_singular_sample_reported(self):
        ext = RationalExtension((1.0,), (0.0, 1.0))  # 1/z singular at 0
        report = check_admissibility(ext, GrowthBound("constant", 2.0))
        assert math.isinf(report.value)
        assert "singular" in report.note

    def test_eta_shift_admissible_after_calibration(self):
        # the affine c = 1.25 of dirichlet_alternating.json holds on the default window
        report = check_admissibility(EtaShiftExtension(), GrowthBound("affine", 1.25))
        assert report.value <= 0.0



def test_f0_provenance_is_not_a_literal():
    # the shipped limit value matches the oracle to full precision
    assert eta(1.0).real == pytest.approx(math.log(2.0), abs=5e-16)
