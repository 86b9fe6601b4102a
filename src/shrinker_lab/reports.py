"""Report plumbing: deterministic JSON reports and RFC-4180 CSV writers."""

from __future__ import annotations

import csv
import json

import numpy as np
import orjson

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


# rows formatted and written per block: the whole table as one text would
# cost several times the array's memory
_CSV_BLOCK_ROWS = 1024


def write_csv(path, header, rows):
    """RFC-4180 CSV (CRLF line endings, as the csv module emits by default).

    A float cell is written as ``repr`` of its float (the shortest string that
    reads back to the same double; ``nan``, ``inf``, ``-0.0``), any other cell
    (a label, an int) as the csv module writes it.  A float64 ndarray table is
    formatted in blocks of rows, each through one ``orjson.dumps``, whose
    shortest round-trip digits are ``repr``'s wherever ``repr`` is plain
    decimal: at +-0.0 and for 1e-4 <= |x| < 1e16.  Every other cell (nan, inf,
    and the magnitudes ``repr`` writes with an exponent, which orjson writes
    another way) is dumped as nan, orjson's ``null``, and filled in with its
    ``repr``, so the bytes are those of ``csv.writer`` with ``repr`` cells.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
            for start in range(0, len(rows), _CSV_BLOCK_ROWS):
                block = rows[start:start + _CSV_BLOCK_ROWS]
                mag = np.abs(block)
                plain = (block == 0) | ((mag >= 1e-4) & (mag < 1e16))
                cells = np.ascontiguousarray(np.where(plain, block, np.nan))
                text = orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode()
                # "[[a,b],[c,d]]" -> "a,b\r\nc,d\r\n", each null a %s for its cell's repr
                text = text.replace("],[", "\r\n").replace("null", "%s") + "\r\n"
                fh.write(text % tuple(map(repr, block[~plain].tolist())))
        else:
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
