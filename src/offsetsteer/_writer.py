"""Plain-text table and JSON writers behind every artifact the package emits.

Numbers are written with 17 significant digits, enough for every double to
read back exactly, so one format serves lossless re-reading and byte-wise
determinism checks alike. That format has one home, ``_FORMATS["g"]``.

Lines are written from ``%`` templates (:func:`template`) that already hold,
as text formatted once, the fields repeated across rows: a column whose every
row holds the same bits (:func:`write_columns`), or a grid value formatted
with :func:`format_numbers` (a stability map's k1, k2 and kappa0, the omega
grid of a frequency response). Only the fields new on each row go through
the format. A template may hold many lines, so that one ``%`` writes a
stability-map slice or a whole response file. Text baked into a template
has its ``%`` escaped (:func:`literal`).
"""

from __future__ import annotations

import itertools
import json

import numpy as np

_FORMATS = {"g": "%.17g", "d": "%d", "s": "%s"}


def format_numbers(values) -> list[str]:
    """Each number of the 1-D ``values`` as the ``g`` column writes it."""
    number = _FORMATS["g"]
    return [number % v for v in values.tolist()]


def literal(text: str) -> str:
    """``text`` as it stands in a ``%`` template: every ``%`` escaped."""
    return text.replace("%", "%%")


def template(kinds: str, sep: str = ",", fixed=None) -> str:
    """The ``%`` format of one line, one column per letter of ``kinds``.

    Letters are ``g`` number, ``d`` integer or ``s`` text. ``fixed`` maps a
    column's index to the text every line holds there: that text goes into
    the template with its ``%`` escaped, and the rows leave the column out.
    """
    fixed = fixed or {}
    return sep.join(literal(fixed[i]) if i in fixed else _FORMATS[k]
                    for i, k in enumerate(kinds)) + "\n"


def write_lines(path, header, lines, sep: str = ",") -> None:
    """Write the ``header`` line (``None`` writes none), then the finished ``lines``."""
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(sep.join(header) + "\n")
        fh.writelines(lines)


def write_rows(path, header, rows, kinds: str | None = None, sep: str = ",") -> None:
    """Stream ``rows`` (an iterable of tuples) to ``path``, one line each.

    ``header`` names the columns; ``None`` writes no header line. ``kinds``
    gives one letter per column (see :func:`template`) and defaults to numbers
    throughout. Rows are formatted as they are consumed, so a lazy ``rows``
    never holds more than its source arrays.
    """
    if kinds is None:
        kinds = "g" * len(header)
    write_lines(path, header, map(template(kinds, sep).__mod__, rows), sep)


def write_columns(path, header, columns) -> None:
    """Write the float64 ``columns``, all of one length, as number columns.

    A column whose rows all hold the same bits is formatted once; comparing
    bits keeps 0.0 and -0.0 apart and lets a column of one NaN be fixed.
    """
    columns = list(columns)
    fixed, varying = {}, []
    for i, column in enumerate(columns):
        bits = column.view(np.int64)
        if bits.size and (bits == bits[0]).all():
            fixed[i] = format_numbers(column[:1])[0]
        else:
            varying.append(column)
    rows = zip(*varying) if varying else itertools.repeat((), columns[0].size)
    write_lines(path, header, map(template("g" * len(columns), fixed=fixed).__mod__, rows))


def write_json(path, data) -> None:
    """Write ``data`` to ``path`` as JSON, indented by 2, keys sorted, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
