"""Report plumbing: deterministic JSON reports and RFC-4180 CSV writers."""

from __future__ import annotations

import csv
import json

import numpy as np

__all__ = ["json_report", "write_json", "write_csv"]

TOOL_VERSION = "0.1.0"


def json_report(command, config, results, passed):
    """Canonical report text: sorted keys, no timestamps, embedded version.

    Identical (command, config, results) produce byte-identical output.
    """
    payload = {
        "command": command,
        "config": config,
        "results": results,
        "pass": bool(passed),
        "version": TOOL_VERSION,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# rows formatted and written per block: the whole table as one list of
# Python floats would cost several times the array's memory
_CSV_BLOCK_ROWS = 1024


def write_csv(path, header, rows):
    """RFC-4180 CSV (CRLF line endings, as the csv module emits by default).

    A float cell is written as ``repr`` of its float (the shortest string that
    reads back to the same double; ``nan``, ``inf``, ``-0.0``), any other cell
    (a label, an int) as the csv module writes it.  A float64 ndarray table is
    formatted in blocks of rows, with the same bytes.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
            for start in range(0, len(rows), _CSV_BLOCK_ROWS):
                block = rows[start:start + _CSV_BLOCK_ROWS].tolist()
                fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in block]))
        else:
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
