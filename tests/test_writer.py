"""The array encoder of number tables against ``'%.17g'``, its oracle."""

from fractions import Fraction

import numpy as np
import pytest

from offsetsteer import _writer


def _reference(table):
    """Each row formatted value by value with '%.17g'."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in table.tolist()).encode()


def _written(path, columns):
    """The rows ``write_columns`` writes for ``columns``, header stripped."""
    _writer.write_columns(path, [f"c{j}" for j in range(len(columns))], columns)
    header, rows = path.read_bytes().split(b"\n", 1)
    assert header == b",".join(b"c%d" % j for j in range(len(columns)))
    return rows


def _assert_encodes_like_reference(path, values, cols):
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.zeros(-values.size % cols)])
    table = values.reshape(-1, cols)
    got = _written(path, list(table.T))
    want = _reference(table)
    if got != want:
        pairs = zip(got.replace(b"\n", b",").split(b","), want.replace(b"\n", b",").split(b","))
        wrong = [(v, g, w) for v, (g, w) in zip(values.tolist(), pairs) if g != w]
        pytest.fail(f"{len(wrong)} values differ, first {wrong[:5]}")
    return got


_MAX = np.finfo(float).max
_TINY = np.finfo(float).tiny          # smallest normal double
_EDGES = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
    5e-324, -5e-324, _TINY, np.nextafter(_TINY, 0.0), 1e-310, _MAX, -_MAX,
    # Where the digit count or the exponent changes.
    1e16, 1e17, np.nextafter(1e16, 0.0), np.nextafter(1e17, 0.0), np.nextafter(1e16, 2e16),
    # The fixed / exponent layout boundary of %g.
    1e-5, 1e-4, np.nextafter(1e-5, 0.0), np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
    -1e-5, -1e-4,
    # Exact ties at the 18th digit, which %.17g rounds half to even.
    2.0 ** -25, 3 * 2.0 ** -30, 2.0 ** 60, -2.0 ** -25,
    # Where the encoder hands over to '%.17g' and takes over again.
    1e-250, 1e250, np.nextafter(1e-250, 0.0), np.nextafter(1e250, np.inf),
    1.0, 0.1, 0.5, 123456789012345678.0, 9007199254740993.0,
]


def test_encoder_matches_percent_17g_on_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    # Uniform bit patterns reach every binary exponent, NaNs and subnormals included.
    exponents = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    assert np.unique(exponents).size == 2048
    _assert_encodes_like_reference(tmp_path / "t.csv", np.concatenate([values, _EDGES]), 7)


def test_encoder_matches_percent_17g_near_powers_of_ten_and_on_edge_values(tmp_path):
    powers = 10.0 ** np.arange(-323, 309)
    values = np.concatenate([_EDGES, powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf), -powers])
    _assert_encodes_like_reference(tmp_path / "t.csv", values, 5)
    lines = _assert_encodes_like_reference(tmp_path / "t.csv", _EDGES, 1).splitlines()
    # 2**-25 = 2.98023223876953125e-08 exactly: the tie rounds to the even 2.
    assert lines[_EDGES.index(2.0 ** -25)] == b"2.9802322387695312e-08"


def test_encoder_hands_a_near_tie_to_the_format(tmp_path, monkeypatch):
    # x = 1 + j / 2**52 scales to y = 1e16 + j * 5**16 / 2**36: pick j so that
    # y's fraction is 1/2 + 2**-36, inside the band the encoder leaves to '%.17g'.
    j = (2 ** 35 + 1) * pow(5 ** 16, -1, 2 ** 36) % 2 ** 36
    x = 1.0 + j * 2.0 ** -52
    assert Fraction(x) * 10 ** 16 % 1 == Fraction(1, 2) + Fraction(1, 2 ** 36)
    columns = [np.array([x]), np.array([0.25])]
    assert _written(tmp_path / "t.csv", columns) == b"%.17g,0.25\n" % x
    monkeypatch.setattr(_writer, "_NUMBER", "%.3g")
    assert _written(tmp_path / "t.csv", columns) == b"%.3g,0.25\n" % x


_RNG = np.random.default_rng(3)


@pytest.mark.parametrize("columns", [
    # An axis along each of the table's two axes, a constant, a dense column and
    # a bool flag; 4,200 rows with one dense column span two chunks.
    (np.array([0.0, -0.0, 1.5, -2e-7, 1e22, np.inf, np.nan])[:, None],
     _RNG.normal(size=(7, 600)), np.arange(600) * 0.1, np.array(-0.0),
     _RNG.random((7, 600)) < 0.5),
    # A bool column with fewer elements than the table is an axis too.
    (np.array([True, False, True])[:, None], np.array([0.25, -0.0, 3.0, 1e-300]),
     _RNG.normal(size=(3, 4))),
    # Axes only: no column is encoded row by row, and each chunk encodes no values.
    (np.array([1.0, 2.0, 3.0])[:, None], np.array([-0.5, 0.5])),
    # A single row.
    (np.float64(2.5), np.array(True), np.array([[-0.0]]), np.array([1e300])),
    # A flag, then an axis, as the last column: the newline ends a narrow field.
    (_RNG.normal(size=(4, 5)), np.arange(5.0), _RNG.random((4, 5)) < 0.5),
    (_RNG.normal(size=(3, 4)), np.array([2.0, -0.5, 1e-3])[:, None]),
    # An axis whose fields hold from "0," to "-1.2345678901234568e-300,".
    (np.array([0.0, -1.2345678901234567e-300, np.nan, 7.5, -np.inf])[:, None],
     _RNG.normal(size=(5, 2))),
    # Flags and axes only: no column is encoded row by row.
    (np.array([0.5, -3.0])[:, None], _RNG.random((2, 3)) < 0.5, np.array([1e-5, 2.0, 3.0]),
     np.array([[True, False, True], [False, False, True]])),
], ids=["broadcast-axis", "broadcast-bool", "axes-only", "single-row", "flag-last", "axis-last",
        "axis-text-widths", "flags-and-axes"])
def test_write_columns_writes_the_broadcast_table(tmp_path, columns):
    table = np.column_stack([c.ravel() for c in np.broadcast_arrays(*columns)]).astype(float)
    assert _written(tmp_path / "t.csv", columns) == _reference(table)
