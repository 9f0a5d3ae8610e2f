"""Plain-text table and JSON writers behind every artifact the package emits.

Numbers are written with 17 significant digits, enough for every double to
read back exactly, so one format serves lossless re-reading and byte-wise
determinism checks alike. That format is ``_NUMBER``, ``'%.17g'``.

Every table that holds only numbers (:func:`write_columns`: trajectories,
stability maps, frequency responses and the CLI's point and sweep tables)
goes through the array encoder behind :func:`encode_rows`, which yields
exactly the bytes ``'%.17g'`` gives, a few thousand values per call.
``'%.17g'`` is its oracle in the tests and its fallback for the values it
does not handle itself. A whole number, such as an index or a 0/1 flag, is
written as ``'%d'`` would write it.

The encoder builds one 32-byte record per value, NUL-padded, and a line is
its row's bytes with every NUL deleted. :func:`write_columns` takes columns
that broadcast together, one row per element of their broadcast shape. A
column whose values come from a small table, a grid axis (a column with
fewer elements than the table) or a bool column (the values 0 and 1), has
each table value encoded once into a narrow field: its text left-aligned,
then the separator, padded to the longest. Each row gathers those fields;
only the other ("dense") columns are encoded row by row, into records.

Only tables with text columns (:func:`write_rows`) format line by line:
a text field as it is, any other field with ``'%.17g'``.
"""

from __future__ import annotations

import json
import math
from functools import cache
from typing import NamedTuple

import numpy as np

_NUMBER = "%.17g"

# Values that write_columns encodes per call, so rows per call are this over
# the number of encoded columns (256 rows of a 13-column trajectory). The
# encoder's temporaries take about 230 bytes a value, so 0.75 MB, whatever
# the table's length.
CHUNK_VALUES = 3328

def write_rows(path, header, rows, sep: str = ",") -> None:
    """Stream ``rows`` (an iterable of tuples) to ``path``, one line each.

    ``header`` names the columns; ``None`` writes no header line. A ``str``
    field is written as it is, any other with ``'%.17g'``. Rows are formatted
    as they are consumed, so a lazy ``rows`` never holds more than its source.
    """
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(sep.join(header) + "\n")
        for row in rows:
            fh.write(sep.join(v if isinstance(v, str) else _NUMBER % v for v in row) + "\n")


def write_columns(path, header, columns) -> None:
    """Write ``columns`` as float64 number columns (a bool column as 0 and 1).

    The columns are arrays that broadcast together; the rows are the elements
    of their broadcast shape in C order. A column whose values come from a
    small table is gathered: a grid axis (a column with fewer elements than
    the table) from its own elements, indexed by each row's place along it,
    and a bool column from the values 0 and 1, indexed by the flag itself.
    Each table value is encoded once, and a gathered column's field is as
    wide as its longest text plus the separator. The other ("dense") columns
    go through the encoder, :data:`CHUNK_VALUES` values per call, one 32-byte
    record each. A table of dense columns only is written with one
    :func:`encode_rows` call per chunk.
    """
    columns = [np.asarray(column) for column in columns]
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    n = math.prod(shape)
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    dense, gathered = [], []
    for j, column in enumerate(columns):
        if column.size < n:
            values, index = column.reshape(-1), np.arange(column.size).reshape(column.shape)
        elif column.dtype == bool:
            values, index = np.array([0.0, 1.0]), np.ascontiguousarray(column).view(np.uint8)
        else:
            dense.append((j, column.reshape(-1)))
            continue
        # A row's entry of ``index`` is its element sum(coordinate * step).
        steps = [step // index.itemsize for step in np.broadcast_to(index, shape).strides]
        gathered.append((j, _fields(values, seps[j]), index.reshape(-1), steps))
    chunk = CHUNK_VALUES // max(len(dense), 1)
    block = np.empty((min(n, chunk), len(dense)))
    if gathered:
        formats = ["V32"] * len(columns)
        for j, fields, _, _ in gathered:
            formats[j] = fields.dtype
        lines = np.empty(len(block), [(f"c{j}", f) for j, f in enumerate(formats)])
        dense_seps = np.array([seps[j][0] for j, _ in dense], np.uint8)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, n, chunk):
            rows = block[:min(chunk, n - lo)]
            for k, (_, column) in enumerate(dense):
                rows[:, k] = column[lo:lo + chunk]
            if not gathered:
                fh.write(encode_rows(rows))
                continue
            out = lines[:len(rows)]
            if dense:
                records = _encode(rows.reshape(-1)).reshape(len(rows), len(dense), 32)
                records[:, :, 31] = dense_seps
                for k, (j, _) in enumerate(dense):
                    out[f"c{j}"] = records[:, k].view("V32")[:, 0]
            where = np.unravel_index(np.arange(lo, lo + len(rows)), shape)
            for j, fields, index, steps in gathered:
                out[f"c{j}"] = fields[index[sum(at * step for at, step in zip(where, steps) if step)]]
            fh.write(out.tobytes().translate(None, b"\0"))


def write_json(path, data) -> None:
    """Write ``data`` to ``path`` as JSON, indented by 2, keys sorted, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- the %.17g array encoder ------------------------------------------------
#
# A finite x != 0 with E = floor(log10|x|) prints the 17 digits of
# N = round(|x| * 10**(16 - E)), 1e16 <= N < 1e17, then drops their trailing
# zeros, in one of Python's two %g layouts: fixed ("123.45", "0.00012") for
# -4 <= E < 17, else "1.2345e-05". The scaled value y = |x| * 10**(16 - E) is
# a double-double (Dekker's exact product of |x| with a two-double 10**p), so
# it is within 1e-13 of the exact product and rounds as the exact one does
# unless its fraction lies within _TIE of one half. Such near-ties, |x|
# outside [_LOW, _HIGH] and non-finite values are formatted by '%.17g' one at
# a time. An E one too small or too large (log10 rounds near powers of ten)
# is corrected once; a y that rounds up to 1e17 carries into E + 1.
#
# Each value is packed into a 32-byte record whose unused bytes are NUL:
#    0       '-'
#    1-5     "0.000", the fixed layout's "0." and zeros when E < 0
#    7-24    the 17 digits with '.' inserted after the first k of them
#    25-29   the exponent, "e+308"
#    31      the separator, ',' or '\n'
# The digits are written at bytes 7-23 ("left") and, in a copy shifted by one
# byte, at 8-24 ("right"). A layout, picked by (E class, number of digits,
# sign), is a mask that keeps the left digits before the point and the right
# ones after it, plus its constant bytes. The records are compacted by
# deleting every NUL. Only dense columns keep these records in a row; the
# narrow field of a gathered column holds a record's bytes with the NULs
# already deleted.

_LOW, _HIGH = 1e-250, 1e250
_TIE = 1e-6
_P_MIN, _P_MAX = -240, 270        # powers 10**p that scaling can ask for
_E_MIN, _E_MAX = -260, 260        # decimal exponents that layouts cover
_SPLIT = 134217729.0              # 2**27 + 1, Veltkamp's splitter
_FIXED_CLASSES = 21               # E = -4 .. 16; class 21 is the exponent form


class _Tables(NamedTuple):
    pow_head: np.ndarray     # 10**p = pow_head + pow_mid + pow_tail, the first
    pow_mid: np.ndarray      # two the 26-bit halves of the nearest double
    pow_tail: np.ndarray
    quads: np.ndarray        # uint32 holding the ASCII of "0000" .. "9999"
    group_nd2: np.ndarray    # (4, 10000): 2 * the digit count up to a group's
    #                          last nonzero digit, for each of the 4 groups
    layout_of_e: np.ndarray  # 36 * E class, by E - _E_MIN
    keep_left: np.ndarray    # (layouts, 4) uint64 masks and constant bytes
    keep_right: np.ndarray
    constant: np.ndarray
    exponent: np.ndarray     # (E range, 4) uint64 exponent text, by E - _E_MIN


def _split(v):
    """Veltkamp's split of ``v`` into two halves of at most 26 bits."""
    big = v * _SPLIT
    head = big - (big - v)
    return head, v - head


def _records(items) -> np.ndarray:
    """32-byte records as an (n, 4) uint64 array."""
    return np.frombuffer(b"".join(items), dtype=np.uint64).reshape(-1, 4)


@cache
def _tables() -> _Tables:
    """The encoder's lookup tables, built on its first call (about 5 ms)."""
    nearest, tail = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        near = num / den                     # correctly rounded
        n2, d2 = near.as_integer_ratio()
        nearest.append(near)
        tail.append((num * d2 - n2 * den) / (den * d2))
    head, mid = _split(np.array(nearest))

    g = np.arange(10000, dtype=np.uint16)
    digit = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    quads = (digit + ord("0")).view(np.uint32).ravel()
    # A group's digits up to its last nonzero one: 0 for 0000, 2 for 1200.
    used = ((digit > 0) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)
    # group_nd2[i][g] / 2: group i (digits 1-4, 5-8, 9-12, 13-16 after the
    # leading one) holding g makes at least 1 + 4i + used digits; 1 for the first.
    group_nd2 = np.array([np.where(used > 0, 2 * used + (2 + 8 * i), 2 * (i == 0))
                       for i in range(4)], dtype=np.uint8)

    keep_left, keep_right, constant = [], [], []
    for cls in range(_FIXED_CLASSES + 1):
        e = cls - 4
        for nd in range(18):
            left, right, const = bytearray(32), bytearray(32), bytearray(32)
            if cls < 4:                      # 0.000ddd: no point in the digits
                const[1:2 - e] = b"0.000"[:1 - e]
                left[7:7 + nd] = b"\xff" * nd
            else:
                k = e + 1 if cls < _FIXED_CLASSES else 1
                left[7:7 + k] = b"\xff" * k
                if nd > k:
                    const[7 + k] = ord(".")
                    right[8 + k:8 + nd] = b"\xff" * (nd - k)
            for sign in b"\0-":
                const[0] = sign
                keep_left.append(bytes(left))
                keep_right.append(bytes(right))
                constant.append(bytes(const))
    layout_of_e, exponent = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        fixed = -4 <= e < 17
        layout_of_e.append(36 * (e + 4 if fixed else _FIXED_CLASSES))
        exponent.append(bytes(25) + (b"" if fixed else b"e%+03d" % e).ljust(7, b"\0"))
    return _Tables(head, mid, np.array(tail), quads, group_nd2, np.array(layout_of_e),
                   *map(_records, (keep_left, keep_right, constant, exponent)))


def _scale(a, e, tables: _Tables):
    """a * 10**(16 - e) as a double-double (hi, lo) with |lo| <= ulp(hi) / 2."""
    i = 16 - _P_MIN - e
    head, mid, tail = tables.pow_head[i], tables.pow_mid[i], tables.pow_tail[i]
    hi = a * (head + mid)
    a_head, a_mid = _split(a)
    lo = ((a_head * head - hi) + a_head * mid + a_mid * head) + a_mid * mid + a * tail
    total = hi + lo
    return total, lo - (total - hi)


def _significand(a, tables: _Tables):
    """(N, E, near tie) of each |x| = ``a`` in [_LOW, _HIGH]: E = floor(log10 a)
    and N = round(a * 10**(16 - E)), 1e16 <= N < 1e17."""
    e = np.floor(np.log10(a)).astype(np.int64)
    y, r = _scale(a, e, tables)
    # Correct e where y, exactly y + r, fell outside [1e16, 1e17).
    shift = ((y - 1e17) + r >= 0).astype(np.int64) - ((y - 1e16) + r < 0)
    fix = np.flatnonzero(shift)
    if fix.size:
        e[fix] += shift[fix]
        y[fix], r[fix] = _scale(a[fix], e[fix], tables)
    step = np.rint(r)
    tie = np.abs(r - step) > 0.5 - _TIE
    num = y.astype(np.int64) + step.astype(np.int64)
    carry = num == 10 ** 17
    num[carry] = 10 ** 16
    e += carry
    return num, e, tie


def encode_rows(table) -> bytes:
    """The rows of the 2-D float64 ``table`` as CSV lines, each exactly
    ``",".join("%.17g" % v for v in row) + "\\n"``."""
    return _join(_encode(table.reshape(-1)), table.shape[1])


def _join(records, cols: int) -> bytes:
    """CSV lines of rows of ``cols`` records: each record ends in its separator,
    ',' or a newline after the last column, and every NUL is deleted."""
    seps = np.full(cols, ord(","), np.uint8)
    seps[-1] = ord("\n")
    records.reshape(-1, cols, 32)[:, :, 31] = seps
    return records.tobytes().translate(None, b"\0")


def _fields(x, sep: bytes) -> np.ndarray:
    """The texts of the 1-D ``x``, each followed by ``sep``, as one ``S<width>``
    array: left-aligned and NUL-padded to the longest. Encoded
    :data:`CHUNK_VALUES` values per call."""
    records = np.concatenate([_encode(x[lo:lo + CHUNK_VALUES])
                              for lo in range(0, x.size, CHUNK_VALUES)])
    return np.array([record.tobytes().translate(None, b"\0") + sep for record in records])


def _encode(x) -> np.ndarray:
    """The (n, 32) uint8 records of the n values of the 1-D ``x``, each
    ``'%.17g' % v`` padded with NULs; the separator byte 31 is NUL."""
    tables = _tables()
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    regular = (a >= _LOW) & (a <= _HIGH)
    zero = a == 0.0
    num, e, tie = _significand(np.where(regular, a, 1.0), tables)
    del a

    # The leading digit and four groups of four (// by a constant is fast, % is not).
    top = num // 10 ** 8
    bottom = num - top * 10 ** 8
    head = top // 10 ** 4
    lead = head // 10 ** 4
    third = bottom // 10 ** 4
    groups = (head - lead * 10 ** 4, top - head * 10 ** 4, third, bottom - third * 10 ** 4)
    lead[zero] = 0
    nd2 = tables.group_nd2[0][groups[0]]
    for i in (1, 2, 3):
        np.maximum(nd2, tables.group_nd2[i][groups[i]], out=nd2)
    ie = e - _E_MIN
    layout = tables.layout_of_e[ie] + nd2 + np.signbit(x)

    # The left digits, which the layout masks below turn into the records.
    records = np.zeros((x.size, 32), np.uint8)
    records[:, 7] = lead + ord("0")
    left32 = records.view(np.uint32)
    for i, group in enumerate(groups):
        left32[:, 2 + i] = tables.quads[group]
    right = np.empty_like(records)
    right.ravel()[0] = 0
    right.ravel()[1:] = records.ravel()[:-1]
    words = records.view(np.uint64)
    words &= np.take(tables.keep_left, layout, axis=0)
    right_words = right.view(np.uint64)
    right_words &= np.take(tables.keep_right, layout, axis=0)
    words |= right_words
    words |= np.take(tables.constant, layout, axis=0)
    words |= np.take(tables.exponent, ie, axis=0)

    redo = np.flatnonzero(~(regular | zero) | tie)
    if redo.size:
        texts = b"".join((_NUMBER % v).encode().ljust(31, b"\0") for v in x[redo].tolist())
        records[redo, :31] = np.frombuffer(texts, np.uint8).reshape(-1, 31)
    return records
