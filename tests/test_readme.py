"""The README's Quick start runs as written, and its configuration table is current."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from streamarima.cli import CONFIGS, OUT_DIR_ENV, main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block(language):
    text = README.read_text(encoding="utf-8")
    quick_start = text[text.index("## Quick start") :]
    quick_start = quick_start[: quick_start.index("\n## ", 1)]
    (block,) = re.findall(rf"```{language}\n(.*?)```", quick_start, flags=re.S)
    return block


def test_quick_start_shell_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    lines = quick_start_block("sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line and not line.startswith("#")]
    assert [argv[:2] for argv in commands] == [["streamarima", "synth"], ["streamarima", "run"]]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv[1:]) == 0, argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv", "curve.svg", "s1.csv"]


def test_quick_start_python_example_runs():
    example = quick_start_block("python")
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
