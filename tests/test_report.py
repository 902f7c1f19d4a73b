import csv
import io

import numpy as np
import pytest

from hdlab import ValidationError, report
from hdlab.report import _cell, write_table


def csv_writer_bytes(header, columns):
    """What csv.writer's excel dialect writes for the _cell form of each
    cell of the zipped rows."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in zip(*columns):
        w.writerow([_cell(v) for v in row])
    return buf.getvalue().encode()


def many_rows(count, quoted_at=None):
    labels = ["planted" if i % 3 else "exogenous" for i in range(count)]
    if quoted_at is not None:
        labels[quoted_at] = "a, b"
    return [labels, ["raw"] * count, np.arange(count) * 0.1 - 7.3, list(range(count))]


TABLES = {
    "numbers": [[1.5, np.float32(0.1), -0.0], [2, np.int64(-3), 10 ** 20],
                [True, np.bool_(False), False],
                [np.float64(1e-300), float("nan"), float("inf")]],
    "float64 array columns": [np.array([-0.0, float("nan"), float("inf"), 1e-300, 0.1]),
                              np.linspace(-1.0, 1.0, 5) / 3.0],
    "a list of float and np.float64": [[0.1, np.float64(0.2), 1 / 3, np.float64(-0.0)],
                                       ["a", "b", "c", "d"]],
    "other arrays": [np.array([1, -2], dtype=np.int64), np.array([True, False]),
                     np.array([0.1, 1e-300], dtype=np.float32), np.array(["x", "y, z"])],
    "quoted strings": [["a,b", "plain"], ['say "hi"', "x"], ["two\nlines", "y"],
                       ["cr\rhere", "z"]],
    "empty strings": [["", "y"], ["x", ""], ["", "z"], np.array([1.0, 2.0])],
    "single empty cell": [["", "x"]],
    "one row of strings and floats": [["planted"], ["raw"], [-0.25]],
    "strings and floats": [["planted" if i % 2 else "exogenous" for i in range(257)],
                           ["permuted"] * 257, np.arange(257) * 0.37 - 4.1,
                           [np.float64(i) / 7.0 if i % 3 else i / 7.0 for i in range(257)]],
    "more rows than a block": many_rows(2 * report._BLOCK_ROWS + 5),
    "a quoted cell in the second block": many_rows(2 * report._BLOCK_ROWS + 5,
                                                   quoted_at=report._BLOCK_ROWS + 1),
    "zero rows": [[], np.empty(0)],  # the header only
    "no columns": [],
}


@pytest.mark.parametrize("columns", TABLES.values(), ids=TABLES.keys())
def test_write_table_matches_csv_writer(tmp_path, columns):
    header = ["c%d" % j for j in range(len(columns))]
    path = tmp_path / "t.csv"
    write_table(path, header, columns)
    assert path.read_bytes() == csv_writer_bytes(header, columns)


def test_write_table_refuses_unequal_columns(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValidationError, match="differ in length"):
        write_table(path, ["a", "b"], [np.arange(3.0), [1.0, 2.0]])
    # The same at the end of a second block, where a shorter column's
    # slices would otherwise come up short only there.
    with pytest.raises(ValidationError):
        write_table(path, ["a", "b"], [np.arange(report._BLOCK_ROWS + 2.0),
                                       list(range(report._BLOCK_ROWS + 1))])
