"""Read a jungck ``trace.csv`` back into columns, for round-trip tests."""

import csv
from pathlib import Path


def read_jungck_csv(path: Path) -> dict:
    """Columns back to lists: ints for ``n`` and the gates, floats otherwise,
    None for empty cells."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    out: dict = {name: [] for name in header}
    for row in body:
        for name, cell in zip(header, row):
            if cell == "":
                out[name].append(None)
            elif name == "n" or name.startswith("gate_"):
                out[name].append(int(cell))
            else:
                out[name].append(float(cell))
    return out
