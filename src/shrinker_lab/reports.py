"""Report plumbing: deterministic JSON reports and RFC-4180 CSV writers."""

from __future__ import annotations

import csv
import json

import numpy as np

from . import __version__

__all__ = ["json_report", "write_json", "write_csv"]


def json_report(command, config, results, passed):
    """Canonical report text: sorted keys, no timestamps, embedded version.

    Identical (command, config, results) produce byte-identical output.
    """
    payload = {
        "command": command,
        "config": config,
        "results": results,
        "pass": bool(passed),
        "version": __version__,
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
    formatted in blocks of rows, each through one ``%r`` template (``%r`` of
    a float is its ``repr``), with the same bytes.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
            line = ",".join(["%r"] * rows.shape[1]) + "\r\n"
            for start in range(0, len(rows), _CSV_BLOCK_ROWS):
                block = rows[start:start + _CSV_BLOCK_ROWS]
                fh.write(line * len(block) % tuple(block.ravel().tolist()))
        else:
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
