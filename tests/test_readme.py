"""The README's library quick start runs as printed."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def quick_start_code():
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_quick_start_runs_and_selects_features():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_code(), "README.md", "exec"), {})
    printed = out.getvalue()
    active = re.match(r"\[([\d\s]*)\]", printed)
    assert active, printed
    assert [int(j) for j in active.group(1).split()], printed
