"""Report plumbing: deterministic JSON reports and RFC-4180 CSV writers."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import orjson

from . import __version__
from .numerics import InputError

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
    (a label, an int) as the csv module writes it.  A float64 ndarray table
    must be 2-D (any other shape is an InputError, before the file is opened)
    and is formatted in blocks of rows, each through one ``orjson.dumps``.
    orjson's shortest round-trip digits are ``repr``'s, and it writes them as
    ``repr`` does but at four kinds of cell: 1e-9 <= |x| < 1e-5 as ``1.5e-7``,
    1e-5 <= |x| < 1e-4 as ``0.0000123`` and |x| >= 1e16 as ``1e16``, where
    ``repr`` writes ``1.5e-07``, ``1.23e-05`` and ``1e+16``, and nan and inf
    as ``null``.  Those cells are dumped as nan, and each ``null`` filled in
    with the cell's text from a second dump of them alone: ``e-`` patched to
    ``e-0`` (no other of their texts holds ``e-``), and ``repr`` itself for
    nan, inf, 1e-5 <= |x| < 1e-4 and |x| >= 1e16.  So the bytes are those of
    ``csv.writer`` with ``repr`` cells; the header is formatted by
    ``csv.writer`` and the file written as UTF-8 bytes.
    """
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
        return
    if rows.ndim != 2:
        raise InputError(f"expected a 2-D float table, got shape {rows.shape}")
    head = io.StringIO()
    csv.writer(head).writerow(header)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode())
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS]
            mag = np.abs(block)
            same = (mag < 1e-9) | ((mag >= 1e-4) & (mag < 1e16))    # +-0.0 and subnormals among them
            cells = np.ascontiguousarray(np.where(same, block, np.nan))
            # "[[a,b],[c,d]]" -> "a,b\r\nc,d\r\n"
            text = b"\r\n".join(orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")) + b"\r\n"
            odd = block[~same]
            if odd.size:
                fills = orjson.dumps(odd, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].replace(b"e-", b"e-0").split(b",")
                rest = ~(np.abs(odd) < 1e-5)    # nan among them
                for i, v in zip(np.flatnonzero(rest).tolist(), odd[rest].tolist()):
                    fills[i] = repr(v).encode()
                parts = text.split(b"null")    # a cell's null, in cell order
                out = parts + fills
                out[::2], out[1::2] = parts, fills
                text = b"".join(out)
            fh.write(text)
