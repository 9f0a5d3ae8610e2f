"""Plain-text table and JSON writers behind every artifact the package emits.

Numbers are written with 17 significant digits, enough for every double to
read back exactly, so one format serves lossless re-reading and byte-wise
determinism checks alike. That format has one home, ``_FORMATS["g"]``: a
column whose values repeat across rows (a grid axis) is formatted once with
:func:`format_numbers` and written as text.
"""

from __future__ import annotations

import json

_FORMATS = {"g": "%.17g", "d": "%d", "s": "%s"}


def format_numbers(values) -> list[str]:
    """Each number of the 1-D ``values`` as the ``g`` column writes it."""
    number = _FORMATS["g"]
    return [number % v for v in values.tolist()]


def write_rows(path, header, rows, kinds: str | None = None, sep: str = ",") -> None:
    """Stream ``rows`` (an iterable of tuples) to ``path``, one line each.

    ``header`` names the columns; ``None`` writes no header line. ``kinds``
    gives one letter per column, ``g`` number, ``d`` integer or ``s`` text,
    and defaults to numbers throughout. Rows are formatted as they are
    consumed, so a lazy ``rows`` never holds more than its source arrays.
    """
    if kinds is None:
        kinds = "g" * len(header)
    line = sep.join(_FORMATS[k] for k in kinds) + "\n"
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(sep.join(header) + "\n")
        fh.writelines(line % row for row in rows)


def write_json(path, data) -> None:
    """Write ``data`` to ``path`` as JSON, indented by 2, keys sorted, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
