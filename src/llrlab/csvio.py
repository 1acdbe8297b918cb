"""CSV emission: every number at 17 significant digits, so it re-parses to
the identical float.

The columns are copied into one object table, which turns int64 values
into Python ints and floats into Python floats; the table, read row by
row, feeds a single % call on a repeated row template.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def csv_text(header, columns) -> str:
    """Render equal-length 1-D columns under a header tuple.

    Integer columns are written with %d, every other column with %.17g,
    which also writes inf, -inf, nan and -0.  The body is a single %
    call on a repeated row template, so no per-value Python call is made.
    """
    cols = [np.asarray(c) for c in columns]
    if not cols or len(cols) != len(header) or any(c.ndim != 1 or c.size != cols[0].size for c in cols):
        raise ContractError("csv_text needs one equal-length 1-D column per header field")
    table = np.empty((cols[0].size, len(cols)), dtype=object)
    for j, c in enumerate(cols):
        table[:, j] = c
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in cols) + "\n"
    body = (row * table.shape[0]) % tuple(table.ravel().tolist())
    return ",".join(header) + "\n" + body
