"""write_csv's float tables against the csv module with ``repr`` cells, byte for byte.

A float64 table goes through orjson's shortest digits wherever orjson writes
them as ``repr`` does (|x| < 1e-9, zeros and subnormals among them, and
1e-4 <= |x| < 1e16) and through ``repr`` elsewhere (1e-9 <= |x| < 1e-4,
|x| >= 1e16, nan and inf), so these cases sit on both sides of all three
thresholds.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shrinker_lab import reports
from shrinker_lab.numerics import InputError
from shrinker_lab.reports import write_csv

BLOCK = reports._CSV_BLOCK_ROWS


def reference_bytes(path, header, table):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in table:
            writer.writerow([repr(float(v)) for v in row])
    return path.read_bytes()


def assert_bytes_equal_reference(tmp_path, table, header=None):
    header = [f"c{k}" for k in range(table.shape[1])] if header is None else header
    write_csv(tmp_path / "x.csv", header, table)
    assert (tmp_path / "x.csv").read_bytes() == reference_bytes(tmp_path / "ref.csv", header, table)


def neighbours(values):
    """Each value with the doubles one ulp below and above it, both signs."""
    values = np.asarray(values, dtype=np.float64)
    near = np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])
    return np.concatenate([near, -near])


def edge_table():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    decades = [float(f"1e{k}") for k in range(-324, 309)]
    thresholds = [1e-9, 1e-5, 1e-4, 1e16]
    # the thresholds where repr (1e-4, 1e16) or orjson (1e-5, 1e16) switches to an
    # exponent, or below which (1e-9) both write a two-digit exponent, and the
    # four doubles below each
    steps = [np.nextafter(x, -np.inf) for x in thresholds]
    for _ in range(3):
        steps += [np.nextafter(x, -np.inf) for x in steps[-len(thresholds):]]
    cells = np.concatenate([neighbours(powers), neighbours(decades), neighbours(thresholds + steps),
                            [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324]])
    return np.resize(cells, (-(-cells.size // 7), 7))


class TestFloatTableBytes:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
                      elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    def test_any_float64_table(self, tmp_path_factory, table):
        assert_bytes_equal_reference(tmp_path_factory.mktemp("csv"), table)

    def test_dense_plain_decimal_range(self, tmp_path, rng):
        # uniform in the bit patterns of [1e-4, 1e16), uniform in log10, and short decimals
        lo, hi = np.array([1e-4, 1e16]).view(np.int64)
        bits = rng.integers(lo, hi, 40_000).view(np.float64)
        logs = 10.0 ** rng.uniform(-4.0, 16.0, 40_000)
        short = rng.integers(1, 1000, 40_000) * 10.0 ** rng.integers(-4, 14, 40_000)
        cells = np.concatenate([bits, logs, short]) * rng.choice([-1.0, 1.0], 120_000)
        assert_bytes_equal_reference(tmp_path, cells.reshape(-1, 6))

    def test_dense_exponent_band(self, tmp_path, rng):
        # uniform in the bit patterns and in log10 of [1e-12, 1e-4): both sides
        # of 1e-9, where orjson's exponent text stops being repr's
        lo, hi = np.array([1e-12, 1e-4]).view(np.int64)
        bits = rng.integers(lo, hi, 40_000).view(np.float64)
        logs = 10.0 ** rng.uniform(-12.0, -4.0, 40_000)
        cells = np.concatenate([bits, logs]) * rng.choice([-1.0, 1.0], 80_000)
        assert_bytes_equal_reference(tmp_path, cells.reshape(-1, 8))

    def test_edge_table(self, tmp_path):
        assert_bytes_equal_reference(tmp_path, edge_table())

    def test_shapes(self, tmp_path):
        table = edge_table()
        for shaped in (table[:0], table[:1], table[:, :1], table[::3, ::-2], table.T[:, :BLOCK + 1],
                       np.tile(table, (2, 1))[: 2 * BLOCK + 7]):
            assert_bytes_equal_reference(tmp_path, shaped)

    def test_header_that_needs_quoting(self, tmp_path):
        header = ["t", "a,b", 'say "x"', "φ′′", "line\nbreak", ""]
        assert_bytes_equal_reference(tmp_path, edge_table()[:9, :6], header)

    @pytest.mark.parametrize("table", [np.array([1.5, 2.5, 3.25]), np.arange(8.0).reshape(2, 2, 2),
                                       np.array([1.5, 1e-7, 3.25]), np.array(2.5)],
                             ids=["1d", "3d", "1d-exponent", "0d"])
    def test_float_table_not_2d_is_refused(self, tmp_path, table):
        with pytest.raises(InputError, match="expected a 2-D float table"):
            write_csv(tmp_path / "x.csv", ["a"], table)
        assert not (tmp_path / "x.csv").exists()
