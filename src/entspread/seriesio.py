"""CSV and JSON emission with a pinned schema.

Column set and order are fixed; floats are written with 17 significant
digits so a read-back is bit-exact for doubles, and reruns of a deterministic
command produce byte-identical series files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .analysis import MomentSeries
from .observables import MOMENT_COLUMNS

ANALYTIC_EXTRA_COLUMNS = ("w_lower_bound", "w_upper_bound", "w_asymptote", "m_asymptote")


def write_series_csv(
    path: str | Path,
    series: MomentSeries,
    extras: dict[str, np.ndarray] | None = None,
) -> None:
    """Write one moment series; `extras` appends named columns after the base set.

    Rows end in CRLF, as the csv module's default dialect writes them.
    """
    extras = extras or {}
    for name, col in extras.items():
        if len(col) != len(series):
            raise ValueError(f"extra column {name!r} has {len(col)} rows, series has {len(series)}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    table = np.column_stack((series.table, *extras.values()))
    header = ",".join((*MOMENT_COLUMNS, *extras))
    # One format per row, applied to plain floats: no numpy scalar per cell.
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(row % cells for cells in map(tuple, table.tolist()))


def read_series_csv(path: str | Path) -> MomentSeries:
    """Read a series back; extra columns are ignored.

    Missing base columns raise ValueError naming the path; a row with another
    field count than the header or a non-numeric base field, naming the path
    and the line.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        missing = [c for c in MOMENT_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        index = [header.index(name) for name in MOMENT_COLUMNS]
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num}: {len(row)} fields, header has {len(header)}"
                )
            try:
                rows.append([float(row[k]) for k in index])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    table = np.array(rows, dtype=float).reshape(len(rows), len(MOMENT_COLUMNS))
    return MomentSeries.from_table(table)


def write_json(path: str | Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
