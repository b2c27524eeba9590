"""vector_norm: bitwise numpy's norms on ordinary rows, and no lost squares at the extremes."""

import math
import warnings

import numpy as np
import pytest

from tauberian_lab.vectors import vector_norm


def _layouts(a: np.ndarray) -> dict[str, np.ndarray]:
    """a as contiguous, reversed and strided rows, and as single (d,) vectors."""
    return {"contiguous": a, "reversed": a[::-1], "strided": a[::2], "vector": a[3],
            "reversed vector": a[::-1][5]}


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("dtype", [complex, float])
def test_norms_are_bitwise_numpys(d, dtype, rng):
    # magnitudes over ten decades, so that the squares differ widely and any other order
    # of their sum would round differently
    a = rng.standard_normal((2000, d)) * np.exp(rng.uniform(-11.5, 11.5, (2000, d)))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((2000, d)) * np.exp(rng.uniform(-11.5, 11.5, (2000, d)))
    for layout, rows in _layouts(a).items():
        for kind, want in (("euclidean", np.linalg.norm(rows, axis=-1)),
                           ("sup", np.max(np.abs(rows), axis=-1))):
            got = vector_norm(rows, kind)
            assert type(got) is type(want), (layout, kind)
            assert np.shape(got) == np.shape(want), (layout, kind)
            assert np.array_equal(_bits(got), _bits(want)), (layout, kind)


def test_a_row_norm_does_not_depend_on_the_rows_beside_it(rng):
    # numpy's in-place complex product rounded a lone complex entry without the fused
    # multiply-add it takes among others, so a sweep that held one row could read a sup one
    # ulp off the full sweep's
    rows = rng.standard_normal((2000, 1)) + 1j * rng.standard_normal((2000, 1))
    alone = [vector_norm(row[None])[0] for row in rows] + [vector_norm(row) for row in rows]
    assert np.array_equal(_bits(alone), _bits(np.tile(vector_norm(rows), 2)))
    assert np.array_equal(_bits(vector_norm(rows)), _bits(np.linalg.norm(rows, axis=-1)))


def test_a_vector_gives_a_numpy_float():
    assert type(vector_norm(np.asarray([3.0, 4j]))) is np.float64
    assert vector_norm(np.asarray([3, 4])) == 5.0  # integer input is taken as float
    assert vector_norm([3, -4], "sup") == 4.0


def test_unknown_norm_kind_is_refused():
    with pytest.raises(ValueError, match="unknown norm kind"):
        vector_norm(np.ones(2), "taxicab")


class TestExtremes:
    ROWS = np.asarray([[1e-200, 1e-200j], [1.0, 2.0 + 2.0j], [1e200, -1e200j], [0.0, 0.0],
                       [3e-200, 4e-200j], [math.inf, 1.0], [math.nan, 1.0], [5e-324, 0.0],
                       [1.5e308, 1.5e308], [0.5, -0.25j]])

    def norms(self, rows, kind="euclidean"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning, whatever the filter around it
            return vector_norm(rows, kind)

    @pytest.mark.parametrize("layout", ["contiguous", "reversed"])
    def test_euclidean_rows_next_to_ordinary_ones(self, layout):
        rows = self.ROWS if layout == "contiguous" else self.ROWS[::-1]
        got = self.norms(rows)
        got = got if layout == "contiguous" else got[::-1]
        root2 = math.sqrt(2.0)
        assert got[0] == pytest.approx(root2 * 1e-200, rel=1e-15)
        assert got[2] == pytest.approx(root2 * 1e200, rel=1e-15)
        assert got[4] == pytest.approx(5e-200, rel=1e-15)
        assert got[3] == 0.0 and got[7] == 5e-324
        assert math.isinf(got[5]) and math.isnan(got[6])
        assert math.isinf(got[8])  # the norm itself, 2.1e308, lies past the float range
        # the ordinary rows keep numpy's value, bit for bit
        for i in (1, 9):
            assert _bits(got[i]) == _bits(np.linalg.norm(self.ROWS[i]))

    def test_single_vectors(self):
        assert self.norms(np.asarray([1e-200, 1e-200])) == pytest.approx(math.sqrt(2) * 1e-200,
                                                                          rel=1e-15)
        assert self.norms(np.asarray([1e200, 1e200])) == pytest.approx(math.sqrt(2) * 1e200,
                                                                        rel=1e-15)
        assert type(self.norms(np.asarray([1e200, 1e200]))) is np.float64

    def test_sup_rows(self):
        got = self.norms(self.ROWS, "sup")
        assert got[0] == 1e-200 and got[2] == 1e200 and got[4] == 4e-200 and got[3] == 0.0
        assert math.isinf(got[5]) and math.isnan(got[6]) and got[8] == 1.5e308
