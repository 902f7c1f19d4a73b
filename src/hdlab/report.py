"""Experiment report container and the one writer of CSV tables and
key=value files.

Reports carry their full parameterization, so a run can be reconstructed
from its emitted files alone. Floats are written with repr (shortest
round-trip form), which makes re-running with the same inputs byte-identical.
Wall-clock time lives in the metadata file only, never in table CSVs.
"""

import csv
import os
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


def write_table(path, header, rows):
    """Write a header row, then each row with every cell formatted by _cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])


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
