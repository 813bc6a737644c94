"""The README's Python example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_python_example_runs():
    text = README.read_text(encoding="utf-8")
    quick_start = text[text.index("## Quick start") :]
    quick_start = quick_start[: quick_start.index("\n## ", 1)]
    (example,) = re.findall(r"```python\n(.*?)```", quick_start, flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    # the one print is the whole-stream mean of a trial-averaged |residual| curve
    assert 0.0 < float(out.getvalue()) < 1.0
