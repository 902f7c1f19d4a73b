"""Experiment report container and the one writer of CSV tables and
key=value files.

Reports carry their full parameterization, so a run can be reconstructed
from its emitted files alone. Floats are written with repr (shortest
round-trip form), which makes re-running with the same inputs byte-identical.
Wall-clock time lives in the metadata file only, never in table CSVs.

Tables are written the way csv.writer's excel dialect writes the _cell form
of each value, but a block of rows at a time and one column per pass: a
column of floats is formatted by one map of float.__repr__, a column of
plain strings passes through, and the lines are joined directly. A block
with a string cell that csv would quote (one holding a comma, a quote or a
line break) or an empty one goes through csv.writer.
"""

import csv
import itertools
import os
import re
from dataclasses import dataclass, field

import numpy as np


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
_FLOATS = {float, np.float64}
_NEEDS_CSV = re.compile(r'[,"\r\n]')


def _format_block(block):
    """The CSV lines of `block`, or None when it needs csv.writer: a ragged
    block, empty rows, or a string cell that is empty or would be quoted."""
    width = len(block[0])
    if width == 0 or any(len(row) != width for row in block):
        return None
    columns = []
    for column in zip(*block):
        kinds = set(map(type, column))
        if kinds <= _FLOATS:
            columns.append(map(float.__repr__, column))
            continue
        cells = column if kinds == {str} else list(map(_cell, column))
        if any(not s or _NEEDS_CSV.search(s) for s in set(cells)):
            return None
        columns.append(cells)
    return "".join(",".join(line) + "\r\n" for line in zip(*columns))


def write_table(path, header, rows):
    """Write a header row, then each row with every cell formatted by _cell.

    `rows` may be any iterable, a generator included; it is read one block
    of _BLOCK_ROWS rows at a time.
    """
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            lines = _format_block(block)
            if lines is None:
                w.writerows([_cell(v) for v in row] for row in block)
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
    tables: name -> (header, rows); summary: headline numbers;
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
        header, rows = self.tables[name]
        return header, rows

    def write(self, outdir):
        """Write one CSV per table plus a key=value metadata file.

        Returns the list of paths written. Table CSVs are bit-reproducible
        for identical inputs; the metadata file carries wall_clock and is
        exempt from that guarantee.
        """
        os.makedirs(outdir, exist_ok=True)
        paths = []
        for name in self.tables:
            header, rows = self.tables[name]
            path = os.path.join(outdir, "%s_%s.csv" % (self.experiment, name))
            write_table(path, header, rows)
            paths.append(path)
        meta = os.path.join(outdir, "%s_params.txt" % self.experiment)
        write_kv(meta, [("experiment", self.experiment)]
                 + [(k, _fmt_param(v)) for k, v in self.params.items()]
                 + [("summary." + k, _cell(v)) for k, v in self.summary.items()]
                 + [("wall_clock", "%.3f" % self.wall_clock)])
        paths.append(meta)
        return paths


def _fmt_param(v):
    if isinstance(v, (list, tuple, np.ndarray)):
        return ",".join(_cell(x) for x in v)
    if isinstance(v, dict):
        return ";".join("%s:%s" % (k, _cell(v[k])) for k in v)
    return _cell(v)
