"""Experiment report container and the one writer of CSV tables and
key=value files.

Reports carry their full parameterization, so a run can be reconstructed
from its emitted files alone. Floats are written with repr (shortest
round-trip form), which makes re-running with the same inputs byte-identical.
Wall-clock time lives in the metadata file only, never in table CSVs. So do
the Python and NumPy versions, the BLAS library and the BLAS thread
settings, on which the last bits of tables built on BLAS products depend.

A table is a header and equal-length columns (lists, tuples or ndarrays),
written as csv.writer's excel dialect writes the _cell form of each value,
but a block of rows at a time and one column per pass: a float64 array is
formatted by one map of float.__repr__, plain strings pass through, other
cells go through _cell, and the lines are joined directly. A block with a
string cell that csv would quote (one holding a comma, a quote or a line
break) or an empty one goes through csv.writer.
"""

import csv
import os
import platform
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


# Rows formatted at once: large enough that the per-column passes pay off,
# small enough that a block's cell strings stay near a megabyte.
_BLOCK_ROWS = 4096
_NEEDS_CSV = re.compile(r'[,"\r\n]')


def _format_block(block):
    """The CSV lines of a block of column slices, or None when it needs
    csv.writer: a string cell that is empty or would be quoted."""
    cells = []
    for column in block:
        if isinstance(column, np.ndarray) and column.dtype == np.float64:
            cells.append(map(float.__repr__, column.tolist()))
            continue
        if set(map(type, column)) != {str}:
            column = list(map(_cell, column))
        if any(not s or _NEEDS_CSV.search(s) for s in set(column)):
            return None
        cells.append(column)
    return "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


def write_table(path, header, columns):
    """Write a header row, then the rows that the equal-length `columns`
    hold, _BLOCK_ROWS rows at a time; unequal lengths raise ValidationError."""
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValidationError("table columns differ in length: %s" % sorted(lengths))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for start in range(0, max(lengths, default=0), _BLOCK_ROWS):
            block = [column[start:start + _BLOCK_ROWS] for column in columns]
            lines = _format_block(block)
            if lines is None:
                w.writerows(zip(*[map(_cell, column) for column in block]))
            else:
                fh.write(lines)


def write_kv(path, pairs):
    """Write one key=value line per (key, value) pair, the value as %s gives it."""
    with open(path, "w") as fh:
        for k, v in pairs:
            fh.write("%s=%s\n" % (k, v))


@dataclass
class ExperimentReport:
    """experiment: short id; params: full input parameterization;
    tables: name -> (header, columns), written by write_table;
    summary: headline numbers;
    wall_clock: seconds spent producing the report; figures: the SVG
    companions as (kind, filename, data, labels) entries, where kind is
    "histogram", "line" or "scatter", data is the dict the matching svgplot
    function draws and labels holds its title/xlabel/ylabel keywords. The
    experiment fills figures from the arrays behind its tables; `write`
    leaves them out, and the CLI draws them."""

    experiment: str
    params: dict
    tables: dict
    summary: dict = field(default_factory=dict)
    wall_clock: float = 0.0
    figures: list = field(default_factory=list)

    def table(self, name):
        """The table as (header, rows), each row a list of Python values."""
        header, columns = self.tables[name]
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        return header, [list(row) for row in zip(*columns)]

    def write(self, outdir):
        """Write one CSV per table plus a key=value metadata file.

        Returns the list of paths written. Table CSVs are bit-reproducible
        for identical inputs; the metadata file carries wall_clock and is
        exempt from that guarantee.
        """
        os.makedirs(outdir, exist_ok=True)
        paths = []
        for name in self.tables:
            path = os.path.join(outdir, "%s_%s.csv" % (self.experiment, name))
            write_table(path, *self.tables[name])
            paths.append(path)
        meta = os.path.join(outdir, "%s_params.txt" % self.experiment)
        write_kv(meta, [("experiment", self.experiment)]
                 + [(k, _fmt_param(v)) for k, v in self.params.items()]
                 + [("summary." + k, _cell(v)) for k, v in self.summary.items()]
                 + _runtime()
                 + [("wall_clock", "%.3f" % self.wall_clock)])
        paths.append(meta)
        return paths


def _runtime():
    """The Python and NumPy versions, the BLAS NumPy was built with and the
    BLAS thread settings, as metadata pairs: the last bits of BLAS products,
    and so the bytes of the tables built on them (figures 1 and 11), depend
    on these."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (TypeError, KeyError):  # NumPy < 1.25, or a build without the entry
        blas = "unknown"
    return ([("python", platform.python_version()), ("numpy", np.__version__),
             ("blas", blas)]
            + [(v, os.environ.get(v, "unset"))
               for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")])


def _fmt_param(v):
    if isinstance(v, (list, tuple, np.ndarray)):
        return ",".join(_cell(x) for x in v)
    if isinstance(v, dict):
        return ";".join("%s:%s" % (k, _cell(v[k])) for k in v)
    return _cell(v)
