"""The README's Python example runs as written, and its configuration table is current."""

import contextlib
import io
import re
from pathlib import Path

from streamarima.cli import CONFIGS

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


def test_configuration_table_matches_cli_configs():
    # the table restates cli.CONFIGS, so a retuned configuration must change both
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| id | data") :].split("\n\n", 1)[0].splitlines()
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in table]
    assert cells[0] == ["id", "data", "mk", "d", "lr", "lambda", "trials"]
    readme = {
        int(fid): (int(mk), int(d), float(lr), ramp if ramp == "grid" else float(ramp), int(trials))
        for fid, _, mk, d, lr, ramp, trials in cells[2:]
    }
    configs = {
        fid: (cfg["mk"], cfg.get("d", 0), cfg["lr"], "grid" if "grid" in cfg else cfg["ramp"],
              cfg["trials"])
        for fid, cfg in CONFIGS.items()
    }
    assert readme == configs
