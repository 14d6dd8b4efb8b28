"""Byte-identity tests for the vectorised CSV row encoder.

The export manifests pin payload sha256 digests over CSV bytes, so
:func:`repro.engine.csvfmt.encode_csv_rows` is only admissible while it
reproduces ``np.savetxt`` output *exactly* — including the printf corner
cases: truncation-toward-zero of ``%d``, the signed ``-0.0`` of ``%.1f``
on tiny negatives, correctly-rounded ties (``0.25`` → ``0.2``), sub-ULP
neighbours of rounding boundaries, and the huge/tiny magnitudes that
leave the vectorised fast path for the chunked ``%`` fallback.  The
fixed-slot kernel adds its own edges: rows whose float64 product is a tie
or at least 2**52 (the only rows that take the long-double route), a sign
placed before fewer digits than the column maximum, and slot widths that
depend on the rows in the call.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.csvfmt import (
    FAST_PATH_LIMIT,
    encode_csv_rows,
    parse_row_format,
)
from repro.engine.writer import HOST_CSV_FMT


def savetxt_bytes(matrix: np.ndarray, fmt: str = HOST_CSV_FMT) -> bytes:
    buffer = io.BytesIO()
    np.savetxt(buffer, matrix, fmt=fmt)
    return buffer.getvalue()


class TestFormatParsing:
    def test_host_row_format(self):
        assert parse_row_format(HOST_CSV_FMT) == (None, 1, 1, 1, 2)

    def test_unsupported_token_rejected(self):
        with pytest.raises(ValueError, match="unsupported row format"):
            parse_row_format("%d,%s")

    def test_shape_must_match_format(self):
        with pytest.raises(ValueError, match="columns"):
            encode_csv_rows(np.zeros((3, 2)), HOST_CSV_FMT)
        with pytest.raises(ValueError, match="2-D"):
            encode_csv_rows(np.zeros(5), HOST_CSV_FMT)


class TestByteIdentity:
    def test_generated_fleet_rows(self):
        from repro.core.generator import CorrelatedHostGenerator

        population = CorrelatedHostGenerator().generate(
            2010.67, 5_000, np.random.default_rng(20110611)
        )
        matrix = population.to_matrix()
        assert encode_csv_rows(matrix, HOST_CSV_FMT) == savetxt_bytes(matrix)

    def test_zeros_and_signed_zeros(self):
        matrix = np.array(
            [
                [0.0, 0.0, 0.0, 0.0, 0.0],
                [-0.0, -0.0, -0.0, -0.0, -0.0],
            ]
        )
        assert encode_csv_rows(matrix, HOST_CSV_FMT) == savetxt_bytes(matrix)

    def test_negative_rounding_to_zero_keeps_sign(self):
        # %.1f of -0.04 is "-0.0"; %d of -0.7 is an unsigned "0".
        matrix = np.array([[-0.7, -0.04, -0.004, -0.049999, -0.0049999]])
        data = encode_csv_rows(matrix, HOST_CSV_FMT)
        assert data == savetxt_bytes(matrix)
        assert data == b"0,-0.0,-0.0,-0.0,-0.00\n"

    def test_exact_ties_round_half_even(self):
        # 0.25 and 0.75 are exactly representable: printf rounds them to
        # the even neighbour (0.2, 0.8), not away from zero.
        matrix = np.array([[1.0, 0.25, 0.75, -0.25, 0.125]])
        data = encode_csv_rows(matrix, HOST_CSV_FMT)
        assert data == savetxt_bytes(matrix)
        assert data == b"1,0.2,0.8,-0.2,0.12\n"

    def test_sub_ulp_neighbours_of_rounding_boundaries(self):
        rows = []
        for boundary in (0.05, 0.15, 0.25, 0.35, 99999.95, 0.005, 0.015):
            rows.append(
                [
                    np.trunc(boundary),
                    np.nextafter(boundary, -np.inf),
                    boundary,
                    np.nextafter(boundary, np.inf),
                    boundary,
                ]
            )
        matrix = np.array(rows)
        assert encode_csv_rows(matrix, HOST_CSV_FMT) == savetxt_bytes(matrix)

    def test_extreme_magnitudes_fall_back_identically(self):
        matrix = np.array(
            [
                [1e300, -1e300, 1e-300, -1e-300, 1e307],
                [2.0, 10.5, 3.5, 4.5, 5.25],  # fallback covers whole call
                [FAST_PATH_LIMIT, -FAST_PATH_LIMIT, 1e16, -1e16, 1e15],
            ]
        )
        assert encode_csv_rows(matrix, HOST_CSV_FMT) == savetxt_bytes(matrix)

    def test_non_finite_values_fall_back_identically(self):
        # One NaN or infinity anywhere sends the whole call to the fallback.
        matrix = np.array(
            [[1.0, np.nan, np.inf, -np.inf, np.nan], [2.0, 1.5, 2.5, 3.5, 4.25]]
        )
        data = encode_csv_rows(matrix, HOST_CSV_FMT)
        assert data == savetxt_bytes(matrix)
        assert data == b"1,nan,inf,-inf,nan\n2,1.5,2.5,3.5,4.25\n"

    def test_fast_path_limit_edges_stay_identical(self):
        near = np.nextafter(FAST_PATH_LIMIT, 0)
        matrix = np.array(
            [
                [near, -near, near, -near, near],
                [123456789.0, 9999999.95, 1048576.0, -1048576.5, 42.424242],
            ]
        )
        assert encode_csv_rows(matrix, HOST_CSV_FMT) == savetxt_bytes(matrix)

    def test_empty_matrix(self):
        assert encode_csv_rows(np.empty((0, 5)), HOST_CSV_FMT) == b""

    def test_single_row_wide_format(self):
        fmt = "%.2f,%d"
        matrix = np.array([[3.14159, 9.99], [-2.5, -3.99]])
        assert encode_csv_rows(matrix, fmt) == savetxt_bytes(matrix, fmt)

    def test_zero_decimals_print_no_point(self):
        fmt = "%.0f,%d"
        matrix = np.array([[2.5, 3.7], [-0.4, 10.5]])
        data = encode_csv_rows(matrix, fmt)
        assert data == savetxt_bytes(matrix, fmt)
        assert data == b"2,3\n-0,10\n"

    def test_sign_sits_before_the_first_digit(self):
        # Negative rows with fewer digits than their column's widest row,
        # and a %d field where an unsigned "0" (-0.7) sits next to -12.
        fmt = "%d,%.1f,%.2f"
        matrix = np.array(
            [[-0.7, -3.0, 123.456], [-12.0, -12345.6, -0.5], [3.0, 7.25, -1.0]]
        )
        data = encode_csv_rows(matrix, fmt)
        assert data == savetxt_bytes(matrix, fmt)
        assert data == b"0,-3.0,123.46\n-12,-12345.6,-0.50\n3,7.2,-1.00\n"

    @pytest.mark.parametrize("decimals", [1, 2])
    @pytest.mark.parametrize("boundary", [2**52, 2**53])
    def test_products_across_binade_boundaries(self, decimals, boundary):
        # At |x * 10**d| >= 2**52 the float64 product is an integer, and
        # from 2**53 on it skips integers, so such rows must take the exact
        # long-double route.
        scale = 10**decimals
        ks = np.arange(boundary - 6, boundary + 7, dtype=np.float64)
        ties = np.concatenate([(ks + 0.5) / scale, (ks + 0.25) / scale])
        column = np.concatenate(
            [ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)]
        )
        matrix = np.concatenate([column, -column])[:, None]
        fmt = f"%.{decimals}f"
        assert np.abs(matrix).max() < FAST_PATH_LIMIT
        assert encode_csv_rows(matrix, fmt) == savetxt_bytes(matrix, fmt)

    def test_many_decimals_route_to_fallback_identically(self):
        # d > 2 would overflow the int64 scaled integer below
        # FAST_PATH_LIMIT (9e14 * 1e6 > 2**63) and the long-double
        # product stops being exact — the whole call must take the
        # CPython fallback and still match np.savetxt byte for byte.
        fmt = "%.6f,%.3f"
        matrix = np.array([[9e14, 1.0005], [-0.25, 123456.789]])
        assert encode_csv_rows(matrix, fmt) == savetxt_bytes(matrix, fmt)


class TestByteIdentityProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        magnitude=st.floats(min_value=-3.0, max_value=14.0),
        rows=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_matrices_match_savetxt(self, seed, magnitude, rows):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(0.0, 10.0**magnitude, size=(rows, 5))
        assert encode_csv_rows(matrix, HOST_CSV_FMT) == savetxt_bytes(matrix)

    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=5,
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_finite_doubles_match_savetxt(self, values):
        matrix = np.asarray([values])
        assert encode_csv_rows(matrix, HOST_CSV_FMT) == savetxt_bytes(matrix)

    @given(
        data=st.data(),
        decimals=st.sampled_from([0, 1, 2]),
        negative=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_ties_and_neighbours_match_savetxt(self, data, decimals, negative):
        # x = (k + 0.5) / 10**d puts |x * 10**d| on a tie of the float64
        # product, from 1 up to 2**53 (across the 2**52 boundary) while x
        # stays below FAST_PATH_LIMIT.  A tie and its two neighbours are
        # exactly where the float64 and the exact product can round apart.
        scale = 10**decimals
        upper = min(2**53, int(FAST_PATH_LIMIT) * scale)
        bits = data.draw(st.integers(0, upper.bit_length() - 2), label="bits")
        k = data.draw(st.integers(2**bits, min(2 ** (bits + 1), upper)), label="k")
        tie = (-1.0 if negative else 1.0) * (k + 0.5) / scale
        matrix = np.array(
            [[np.nextafter(tie, -np.inf)], [tie], [np.nextafter(tie, np.inf)]]
        )
        fmt = f"%.{decimals}f"
        assert np.abs(matrix).max() < FAST_PATH_LIMIT
        assert encode_csv_rows(matrix, fmt) == savetxt_bytes(matrix, fmt)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=2, max_value=300),
        cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_split_invariance(self, seed, rows, cuts):
        # Slot widths come from the rows in each call; the bytes must not.
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.uniform(-2.0, 8.0, size=(rows, 1))
        matrix = rng.normal(0.0, 1.0, size=(rows, 5)) * scales
        bounds = sorted({0, rows, *(int(c * rows) for c in cuts)})
        pieces = [
            encode_csv_rows(matrix[lo:hi], HOST_CSV_FMT)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert b"".join(pieces) == encode_csv_rows(matrix, HOST_CSV_FMT)
