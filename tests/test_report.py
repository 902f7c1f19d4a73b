import csv
import io

import numpy as np
import pytest

from hdlab import report
from hdlab.report import _cell, write_table


def csv_writer_bytes(header, rows):
    """What csv.writer's excel dialect writes for the _cell form of each cell."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([_cell(v) for v in row])
    return buf.getvalue().encode()


def many_rows(count, quoted_at=None):
    rows = [["planted" if i % 3 else "exogenous", "raw", i * 0.1 - 7.3, i]
            for i in range(count)]
    if quoted_at is not None:
        rows[quoted_at][0] = "a, b"
    return rows


TABLES = {
    "numbers": [[1.5, 2, True, np.float64(1e-300)],
                [np.float32(0.1), np.int64(-3), np.bool_(False), float("nan")],
                [-0.0, 10 ** 20, False, float("inf")]],
    "quoted strings": [["a,b", 'say "hi"', "two\nlines", "cr\rhere"],
                       ["plain", "x", "y", "z"]],
    "empty strings": [["", "x", "", 1.0], ["y", "", "z", 2.0]],
    "single empty cell": [[""], ["x"]],
    "one row of strings and floats": [["planted", "raw", -0.25]],
    "strings and floats": [["planted" if i % 2 else "exogenous", "permuted", i * 0.37 - 4.1,
                            np.float64(i) / 7.0 if i % 3 else i / 7.0] for i in range(257)],
    "more rows than a block": many_rows(2 * report._BLOCK_ROWS + 5),
    "a quoted cell in the second block": many_rows(2 * report._BLOCK_ROWS + 5,
                                                   quoted_at=report._BLOCK_ROWS + 1),
    "ragged rows": [[1.0, 2.0], [3.0], ["a", "b", "c"]],
    "empty rows": [[], [1.0], []],
    "zero rows": [],
}


@pytest.mark.parametrize("rows", TABLES.values(), ids=TABLES.keys())
def test_write_table_matches_csv_writer(tmp_path, rows):
    header = ["c%d" % j for j in range(max((len(r) for r in rows), default=2))]
    path = tmp_path / "t.csv"
    write_table(path, header, rows)
    assert path.read_bytes() == csv_writer_bytes(header, rows)


def test_write_table_reads_a_generator(tmp_path):
    rows = many_rows(report._BLOCK_ROWS + 10)
    path = tmp_path / "t.csv"
    write_table(path, ["scenario", "kind", "value", "i"], (row for row in rows))
    assert path.read_bytes() == csv_writer_bytes(["scenario", "kind", "value", "i"], rows)
    write_table(path, ["lambda", "cv_mse"], zip([0.5, 0.1], [1.25, 0.75]))
    assert path.read_bytes() == b"lambda,cv_mse\r\n0.5,1.25\r\n0.1,0.75\r\n"
