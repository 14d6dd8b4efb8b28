"""Vectorised fixed-format CSV row encoding, byte-identical to ``np.savetxt``.

Every fleet export path renders host rows with the printf format
:data:`~repro.engine.writer.HOST_CSV_FMT` (``%d,%.1f,%.1f,%.1f,%.2f``).
``np.savetxt`` applies that format one Python ``%`` call per row, which
profiles as ~85 % of ``fleet export`` wall-clock — far more than generating
the hosts.  :func:`encode_csv_rows` produces the *same bytes* in a handful
of whole-column numpy passes over a fixed-slot layout:

* **Slots.**  Each field gets a slot sized from its column's maximum
  digit count: an optional sign position (only when the column has a
  negative row), the integer digits, the point and fraction digits (only
  for ``%.Nf`` with ``N > 0``) and the separator (``,``, or ``\\n`` after
  the last field).  All slots side by side form one ``(rows, W)`` ``uint8``
  matrix — ``W`` is 34 for the host format.
* **Digits.**  Every digit position is one strided column, written for all
  rows at once by ``nq = q // 10; digit = q - 10 * nq`` (numpy divides by
  a scalar quickly; its ``%`` and ``divmod`` are several times slower).
  Columns whose maximum fits narrow to ``int32`` first.
* **Compaction.**  A boolean mask of the same shape drops each row's
  leading-zero positions and unused sign positions, so the ``-`` a
  negative row keeps in its sign slot lands just before its first digit.
  One boolean compaction of the matrix yields the row bytes in order.

Byte identity is the hard constraint (export manifests pin payload sha256
digests), and it hinges on exact rounding:

* ``%.Nf`` prints the decimal expansion of the *binary* double, correctly
  rounded to ``N`` fractional digits with ties to even — round-half-even
  of the exact product ``x * 10**N``.  The encoder computes
  ``p = x * 10**N`` in float64 and ``r = rint(p)``.  ``p`` is the double
  nearest the exact product, and below ``2**52`` every half-integer is a
  double, so a half-integer lying strictly between ``p`` and the exact
  product would be nearer to it than ``p`` is — impossible.  Hence ``r``
  is exact unless ``p`` is itself a half-integer.  Rows where
  ``|p - r| == 0.5`` or ``|p| >= 2**52``, and only those, take the exact
  route: on platforms where ``np.longdouble`` carries a >= 60-bit
  mantissa the product of a 53-bit double with ``10`` or ``100`` (4 and
  7 extra bits) is exact in long double, so ``np.rint`` over it
  reproduces printf's rounding bit for bit.  ``%.0f`` needs no product.
* ``%d`` truncates toward zero (``np.trunc``), and an integral ``0`` never
  prints a sign even for negative inputs, while ``%.Nf`` signs anything
  with the sign bit set (``-0.04`` → ``-0.0``).  ``%.0f`` prints no point.

Inputs outside the fast path — non-finite values, magnitudes at or above
:data:`FAST_PATH_LIMIT` (where scaled integers stop fitting comfortably in
``int64`` and ``%.1f`` starts printing hundreds of digits), more than two
fractional digits, or a platform whose long double adds no precision —
fall back to CPython's own ``%`` formatting applied to whole chunks at
once, which is identical by construction (it is the same code path
``np.savetxt`` uses, minus the per-row Python loop).
"""

from __future__ import annotations

import re

import numpy as np

#: Magnitudes at or above this leave the vectorised path: the widest
#: fast-path field scale (100, see :data:`_MAX_FAST_DECIMALS`) times this
#: stays well inside int64.
FAST_PATH_LIMIT = 1e15

#: Fractional digits beyond this route the whole call to the fallback:
#: the exactness argument (53-bit double times 10**d fits a >=60-bit
#: long-double mantissa) holds for d <= 2, and larger scales would also
#: push scaled integers toward int64 overflow below FAST_PATH_LIMIT.
_MAX_FAST_DECIMALS = 2

#: Below this every half-integer is a double, so the float64 ``rint`` of a
#: scaled field is exact except on ties (see the module docstring).
_HALF_INTEGER_LIMIT = 2.0**52

#: Whether ``np.longdouble`` products of a double with 10/100 are exact
#: (53 + 7 bits must fit the mantissa); x86 extended (64 bits) and IEEE
#: quad (113 bits) qualify, double-double and plain-double builds do not.
_EXACT_LONGDOUBLE = np.finfo(np.longdouble).nmant >= 60

#: Rows encoded per fallback ``%`` call / per streaming write, bounding
#: peak string memory without giving up whole-chunk formatting.
_CHUNK_ROWS = 65536

_SPEC_TOKEN = re.compile(r"^%(?:d|\.(\d+)f)$")


def parse_row_format(fmt: str) -> "tuple[int | None, ...]":
    """Decimal counts of a ``%d``/``%.Nf`` comma-joined row format.

    Returns one entry per field: ``None`` for ``%d``, the fractional digit
    count for ``%.Nf``.  Anything else is outside the encoder's contract
    and raises ``ValueError`` (callers should fall back to ``np.savetxt``
    for exotic formats rather than guess).
    """
    specs: "list[int | None]" = []
    for token in fmt.split(","):
        match = _SPEC_TOKEN.match(token)
        if match is None:
            raise ValueError(
                f"unsupported row format token {token!r}; the vectorised "
                "encoder handles %d and %.Nf fields"
            )
        specs.append(None if match.group(1) is None else int(match.group(1)))
    return tuple(specs)


def _encode_rows_fallback(matrix: np.ndarray, fmt: str) -> bytes:
    """CPython ``%`` formatting applied whole chunks at a time.

    Identical to ``np.savetxt`` output by construction — the same format
    machinery runs over the same doubles — but one ``%`` call per
    ``_CHUNK_ROWS`` rows instead of one per row.
    """
    pieces: "list[bytes]" = []
    template_full = (fmt + "\n") * _CHUNK_ROWS
    for lo in range(0, matrix.shape[0], _CHUNK_ROWS):
        chunk = matrix[lo : lo + _CHUNK_ROWS]
        template = (
            template_full
            if chunk.shape[0] == _CHUNK_ROWS
            else (fmt + "\n") * chunk.shape[0]
        )
        pieces.append((template % tuple(chunk.ravel().tolist())).encode("ascii"))
    return b"".join(pieces)


def _scaled_magnitudes(
    column: np.ndarray, decimals: "int | None"
) -> "tuple[np.ndarray, np.ndarray]":
    """``(negative mask, |scaled integer|)`` of one field, as printf rounds it.

    ``decimals`` is ``None`` for ``%d`` (truncation toward zero; an
    integral zero prints unsigned) and the fractional digit count for
    ``%.Nf`` (round half to even of the exact ``|x| * 10**N``; the sign
    bit decides the sign, so ``-0.04`` prints ``-0.0``).
    """
    if decimals is None:
        value = np.trunc(column)
        return value < 0, np.abs(value).astype(np.int64)
    scale = 10**decimals
    product = np.abs(column) * scale
    rounded = np.rint(product)
    scaled = rounded.astype(np.int64)
    if decimals:
        # Only a float64 tie, or a product past 2**52, can round apart
        # from the exact product: redo those rows in long double.
        inexact = (np.abs(product - rounded) == 0.5) | (
            product >= _HALF_INTEGER_LIMIT
        )
        if inexact.any():
            exact = np.abs(column[inexact]).astype(np.longdouble) * scale
            scaled[inexact] = np.rint(exact).astype(np.int64)
    return np.signbit(column), scaled


def encode_csv_rows(matrix: "np.ndarray", fmt: str) -> bytes:
    """Render ``matrix`` rows through ``fmt`` (+ ``\\n``), byte-identical
    to ``np.savetxt(handle, matrix, fmt=fmt)``.

    ``matrix`` must be a 2-D float array with one column per format field.
    Finite, moderate values take the vectorised fixed-slot path; any
    non-finite or huge value routes the whole call through the chunked
    CPython fallback (still byte-identical, still far cheaper than the
    per-row ``np.savetxt`` loop).  Working memory is about ten bytes per
    row per slot column (the matrix, its mask and the compaction's
    indices), so callers bound it by encoding block by block.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D row matrix, got shape {matrix.shape}")
    specs = parse_row_format(fmt)
    if matrix.shape[1] != len(specs):
        raise ValueError(
            f"matrix has {matrix.shape[1]} columns for {len(specs)} format fields"
        )
    if matrix.shape[0] == 0:
        return b""
    # ``max`` propagates NaN, so this one reduction also rejects non-finite
    # values.
    if (
        not _EXACT_LONGDOUBLE
        or any(d is not None and d > _MAX_FAST_DECIMALS for d in specs)
        or not np.abs(matrix).max() < FAST_PATH_LIMIT
    ):
        return _encode_rows_fallback(matrix, fmt)

    # One slot per field, sized from its column's widest row:
    # [sign][integer digits][point and fraction digits][separator].
    slots = []
    width = 0
    for j, decimals in enumerate(specs):
        negative, scaled = _scaled_magnitudes(matrix[:, j], decimals)
        fraction = decimals or 0
        top = int(scaled.max())
        int_digits = len(str(top // 10**fraction))
        signed = bool(negative.any())
        ones = width + signed + int_digits - 1  # column of the ones digit
        width = ones + (fraction + 1 if fraction else 0) + 2
        if top < 2**31:
            scaled = scaled.astype(np.int32)  # numpy divides int32 faster
        slots.append((negative if signed else None, scaled, fraction, int_digits, ones))

    rows = np.empty((matrix.shape[0], width), dtype=np.uint8)
    keep = np.ones(rows.shape, dtype=bool)
    for negative, q, fraction, int_digits, ones in slots:
        for k in range(fraction, 0, -1):  # fraction digits, right to left
            nq = q // 10
            rows[:, ones + 1 + k] = q - 10 * nq + 48
            q = nq
        if fraction:
            rows[:, ones + 1] = ord(".")
        rows[:, ones + fraction + 2 if fraction else ones + 1] = ord(",")
        for k in range(int_digits):  # integer digits, right to left
            if k:
                keep[:, ones - k] = q > 0  # a leading zero is dropped
            nq = q // 10
            rows[:, ones - k] = q - 10 * nq + 48
            q = nq
        if negative is not None:
            # The leading zeros between the sign slot and the first digit
            # are dropped, so a kept "-" lands just before the first digit.
            rows[:, ones - int_digits] = ord("-")
            keep[:, ones - int_digits] = negative
    rows[:, -1] = ord("\n")
    return np.compress(keep.ravel(), rows.ravel()).tobytes()
