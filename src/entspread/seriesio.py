"""CSV and JSON emission with a pinned schema, and the series CSV read.

Column set and order are fixed; floats are written with 17 significant
digits so a read-back is bit-exact for doubles, and reruns of a deterministic
command produce byte-identical series files.  A series is written by one
compiled pass (`format_rows` in `_ring.c`) that spells every cell as
format(x, ".17g") does, from integer products with a table of 128-bit
powers of ten built here at import (`_POWERS`), and read back by another
(`parse_rows`): strtod, correctly rounded as float() is, on the base
columns, the extra columns skipped unread.  `read_series_csv` gives the
field grammar, and the locale strtod reads.
"""

from __future__ import annotations

import ctypes
import json
from pathlib import Path

import numpy as np

from .analysis import MomentSeries
from .bessel import _N, _P, _bind
from .observables import MOMENT_COLUMNS

ANALYTIC_EXTRA_COLUMNS = ("w_lower_bound", "w_upper_bound", "w_asymptote", "m_asymptote")

_parse_rows = _bind("parse_rows", _P, _N, _N, _N, _P, _N, _P, _P)
_format_rows = _bind("format_rows", _P, _N, _N, _P, _P, _P)


def _powers_of_ten() -> np.ndarray:
    """`format_rows`' table: for k = -293..341, the words P >> 64, P mod 2^64, s and bound.

    P = floor(10^k 2^s) lies in [2^127, 2^128).  The bound is 0 where P is
    10^k 2^s exactly, which holds for k = 0..55, and 1, in units of 2^-64
    of the scaled cell, elsewhere (see `format_rows` in `_ring.c`).
    """
    words = []
    for k in range(-293, 342):  # row k + 293, as `format_rows` indexes it (POWER_MIN)
        if k >= 0:
            power, shift = 10**k, 128 - (10**k).bit_length()
            scaled = power << shift if shift >= 0 else power >> -shift
            exact = shift >= 0 or scaled << -shift == power
        else:
            shift = 127 + (10**-k).bit_length()
            scaled, exact = (1 << shift) // 10**-k, False
        words.append((*divmod(scaled, 1 << 64), shift % (1 << 64), 0 if exact else 1))
    return np.array(words, dtype=np.uint64)


_POWERS = _powers_of_ten()
# The longest cell, -d.dddddddddddddddde-XXX, and its comma or line end.
_CELL_BYTES = 25


def write_series_csv(
    path: str | Path,
    series: MomentSeries,
    extras: dict[str, np.ndarray] | None = None,
) -> None:
    """Write one moment series; `extras` appends named numeric columns after the base set.

    Every cell is spelled as format(x, ".17g") spells it, and rows end in
    CRLF, as the csv module's default dialect writes them.  The body is
    formatted by one compiled pass (`format_rows` in `_ring.c`) before the
    file is opened, so an extra column of another length or not numeric
    raises ValueError naming it and leaves the path as it was.
    """
    extras = extras or {}
    columns = []
    for name, col in extras.items():
        col = np.asarray(col)
        if len(col) != len(series):
            raise ValueError(f"extra column {name!r} has {len(col)} rows, series has {len(series)}")
        if col.dtype.kind not in "biuf":
            raise ValueError(f"extra column {name!r} is not numeric: dtype {col.dtype}")
        columns.append(col)
    table = np.ascontiguousarray(np.column_stack((series.table, *columns)), dtype=np.float64)
    head = (",".join((*MOMENT_COLUMNS, *extras)) + "\r\n").encode()
    text = np.empty(len(head) + len(table) * (_CELL_BYTES * table.shape[1] + 1), dtype=np.uint8)
    text[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    length = np.empty(1, dtype=np.int64)
    _format_rows(table.ctypes.data, *table.shape, _POWERS.ctypes.data, text[len(head):].ctypes.data,
                 length.ctypes.data)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text[: len(head) + int(length[0])].data)


def read_series_csv(path: str | Path) -> MomentSeries:
    """Read a series back; extra columns are ignored.

    The header is the first line; every other line is one row, ending in
    LF or CRLF (the last one may end in neither), with the header's field
    count.  A base field is a decimal number as float() reads it, with
    ASCII white space around it allowed: digits with an optional point and
    exponent, or inf, infinity or nan, signed or not.  Fields are split at
    every comma, so quotes are not CSV quoting, and the `1_0` and non-ASCII
    digit spellings that float() also takes are refused.  The file's bytes
    are read in one compiled pass (`parse_rows` in `_ring.c`), whose
    strtod rounds correctly, so a field written with 17 digits reads back
    bit for bit.  strtod reads the decimal point of the LC_NUMERIC locale,
    which Python leaves at "C" unless a program calls locale.setlocale.

    An empty file or missing base columns raise ValueError naming the
    path; a row with another field count than the header, or a base field
    that is not such a number, naming the path and the line.
    """
    path = Path(path)
    text = path.read_bytes()
    if not text:
        raise ValueError(f"{path}: empty CSV")
    body = text.find(b"\n") + 1 or len(text)  # the offset of the first row's line
    try:
        header = text[:body].removesuffix(b"\n").removesuffix(b"\r").decode().split(",")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: line 1: {exc}") from None
    missing = [c for c in MOMENT_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {missing}")
    columns = np.full(len(header), -1, dtype=np.int64)
    columns[[header.index(name) for name in MOMENT_COLUMNS]] = range(len(MOMENT_COLUMNS))
    rows = text.count(b"\n", body) + (body < len(text) and not text.endswith(b"\n"))
    table = np.empty((rows, len(MOMENT_COLUMNS)))
    status = np.empty(4, dtype=np.int64)
    # The rows are read in place, from the body's address inside `text`.
    _parse_rows(ctypes.cast(text, _P).value + body, len(text) - body, rows, len(header), columns.ctypes.data,
                len(MOMENT_COLUMNS), table.ctypes.data, status.ctypes.data)
    row, count, start, stop = status.tolist()
    if row < rows:
        if count >= 0:
            raise ValueError(f"{path}: line {row + 2}: {count} fields, header has {len(header)}")
        field = text[body + start : body + stop].decode(errors="replace")
        raise ValueError(f"{path}: line {row + 2}: could not convert string to float: {field!r}")
    return MomentSeries.from_table(table)


def write_json(path: str | Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
