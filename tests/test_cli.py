"""Command-line interface tests.

Most calls go through ``main(argv)`` in process; one test drives the real
``python -m streamarima`` entry point to cover the installed script path.
"""

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamarima.cli import ALL_OPTIMIZERS, CONFIGS, curve_csv, main, write_text_atomic
from streamarima.experiment import ResidualCurve
from streamarima.synthetic import GeneratorSpec, generate


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    series = generate(GeneratorSpec(alpha=(0.6, -0.3), length=250, seed=2, burn_in=50))
    path = tmp_path_factory.mktemp("data") / "small.csv"
    lines = ["value"] + [repr(float(x)) for x in series.values]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory):
    rng = np.random.default_rng(0)
    root = tmp_path_factory.mktemp("batches")
    for k in range(3):
        rows = "\n".join(f"{v:.6f} {v + 1:.6f}" for v in rng.normal(size=60))
        (root / f"batch_{k}.txt").write_text(rows + "\n", encoding="ascii")
    return root


def run_cli(*argv):
    return main([str(a) for a in argv])


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synth_writes_full_preset(tmp_path, capsys):
    out = tmp_path / "s1.csv"
    assert run_cli("synth", "--preset", 1, "--seed", 7, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "value"
    assert len(lines) == 10_001  # header plus one line per sample
    values = np.array([float(x) for x in lines[1:]])
    assert values.min() == -1.0 and values.max() == 1.0
    assert "wrote 10000 samples" in capsys.readouterr().out


def test_run_writes_curve_and_svg(tmp_path, small_csv):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    code = run_cli(
        "run", "--data", small_csv, "--optimizer", "combined", "--lambda", 50,
        "--mk", 3, "--trials", 2, "--lr", 0.05, "--out", out, "--svg", svg,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,r_mean,r_0,r_1"
    assert len(lines) == 1 + (250 - 3)
    first = lines[1].split(",")
    assert int(first[0]) == 3
    assert all(np.isfinite(float(tok)) for tok in first[1:])
    assert svg.read_text().startswith("<svg ")


def test_run_is_byte_deterministic(tmp_path, small_csv):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run_cli(
            "run", "--data", small_csv, "--optimizer", "adam",
            "--mk", 3, "--trials", 2, "--out", out,
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_single_trial_has_no_per_trial_columns(tmp_path, small_csv):
    out = tmp_path / "one.csv"
    assert run_cli(
        "run", "--data", small_csv, "--optimizer", "basic",
        "--mk", 3, "--trials", 1, "--out", out,
    ) == 0
    assert out.read_text().splitlines()[0] == "t,r_mean"


def test_run_over_batch_directory(tmp_path, batch_dir):
    out = tmp_path / "batched.csv"
    code = run_cli(
        "run", "--data", batch_dir, "--format", "bearing", "--channel", 1,
        "--optimizer", "momentum", "--mk", 3, "--trials", 1, "--out", out,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header plus one row per batch
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2"]


def test_run_errors_exit_nonzero(tmp_path, small_csv, capsys):
    out = tmp_path / "x.csv"
    # combined needs a ramp
    assert run_cli(
        "run", "--data", small_csv, "--optimizer", "combined",
        "--mk", 3, "--trials", 1, "--out", out,
    ) == 1
    assert capsys.readouterr().err.startswith("error:")
    # and only combined takes one
    for cmd, rule, ramp in (("run", "basic", "5"), ("grid-search", "adam", "-3")):
        flags = ("--out", out) if cmd == "run" else ("--rates", "0.01", "--out", out)
        assert run_cli(
            cmd, "--data", small_csv, "--optimizer", rule, "--lambda", ramp, "--mk", 3, *flags,
        ) == 1
        err = capsys.readouterr().err
        assert err == f"error: --lambda: valid only with --optimizer combined, not {rule}\n"
    assert not out.exists()

    assert run_cli(
        "run", "--data", tmp_path / "missing.csv", "--optimizer", "basic", "--out", out,
    ) == 1
    assert "no such file" in capsys.readouterr().err

    # batch-directory flags are rejected for a series file, not ignored
    assert run_cli(
        "run", "--data", small_csv, "--optimizer", "basic", "--format", "bearing", "--out", out,
    ) == 1
    assert "--format: valid only when --data is a batch directory" in capsys.readouterr().err
    # and so are --data and --no-normalize for a configuration that generates its series
    for flags in (["--data", tmp_path / "missing"], ["--no-normalize"]):
        assert run_cli("reproduce", 7, "--out-dir", tmp_path / "r", *flags) == 1
        err = capsys.readouterr().err
        assert err == f"error: {flags[0]}: configuration 7 generates its series\n"
    assert not (tmp_path / "r").exists()

    # csv batch files have one column, so a channel other than 0 is an error
    csv_dir = tmp_path / "csv"
    csv_dir.mkdir()
    (csv_dir / "b0.csv").write_text("value\n" + "\n".join(map(str, range(20))) + "\n")
    assert run_cli(
        "run", "--data", csv_dir, "--format", "csv", "--channel", 3,
        "--optimizer", "basic", "--mk", 3, "--out", out,
    ) == 1
    err = capsys.readouterr().err
    assert err == "error: channel 3: csv batch files have one column\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ("--lr", "50"),  # diverges
        ("--lr", "nan"),
        ("--lr", "inf"),
        ("--lr", "1"),  # blows up to about 3.5e13 without leaving the floats
    ],
)
def test_divergence_and_non_finite_rates_fail_closed(tmp_path, small_csv, capsys, flags):
    out = tmp_path / "x.csv"
    code = run_cli("run", "--data", small_csv, "--optimizer", "basic", *flags, "--out", out)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists()


def test_reproduce_keeps_the_rules_that_did_not_diverge(tmp_path, monkeypatch, capsys):
    # at lr 1.0 on preset 2, basic, momentum, nesterov and combined diverge
    monkeypatch.setitem(CONFIGS, 2, {**CONFIGS[2], "lr": 1.0})
    out = tmp_path / "some"
    assert run_cli("reproduce", 2, "--trials", 1, "--out-dir", out) == 0
    lines = capsys.readouterr().out.splitlines()
    diverged = ("basic", "momentum", "nesterov", "combined")
    assert len(lines) == len(diverged) + 1
    for line, name in zip(lines, diverged):
        assert line.startswith("run diverged at sample ")
        assert line.endswith(f"(optimizer {name}, rate 1, trial seed 0)")
    assert lines[-1] == f"wrote 4 curve files and {out / 'config2.svg'}"
    stable = ("adagrad", "rmsprop", "adam", "amsgrad")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["config2.svg"] + [f"config2_{name}.csv" for name in stable]
    )
    svg = (out / "config2.svg").read_text()
    assert all(name in svg for name in stable) and not any(name in svg for name in diverged)

    # with every rule diverged there is nothing to plot, and nothing is written
    monkeypatch.setitem(CONFIGS, 2, {**CONFIGS[2], "lr": 1e300})
    out = tmp_path / "none"
    assert run_cli("reproduce", 2, "--trials", 1, "--out-dir", out) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no curves to plot\n")
    assert not out.exists()


def test_sweep_plot_with_every_run_diverged_fails_closed(tmp_path, small_csv, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep-lambda", "--data", small_csv, "--grid", "5", "--lr", "1e300",
        "--mk", 3, "--out", out, "--svg", tmp_path / "sweep.svg",
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: no curves to plot\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("trials", [1, 3])
def test_curve_csv_bytes_are_per_cell_repr(trials):
    cells = [0.1, 1 / 3, 5e-324, 1e-300, 2.5e16, 123456.789, 0.0, 7.0]
    per_trial = np.array([[c * (k + 1) for c in cells] for k in range(trials)])
    curve = ResidualCurve(np.arange(4, 12), per_trial.mean(axis=0), per_trial, "sample")
    header = "t,r_mean" + ("".join(f",r_{k}" for k in range(trials)) if trials > 1 else "")
    rows = []
    for j in range(len(cells)):
        row = [str(j + 4), repr(float(curve.mean[j]))]
        if trials > 1:
            row += [repr(float(per_trial[k, j])) for k in range(trials)]
        rows.append(",".join(row))
    assert curve_csv(curve) == "\n".join([header, *rows]) + "\n"


def test_unknown_arguments_exit_with_usage_error(small_csv):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--data", small_csv, "--optimizer", "sgd", "--out", "x.csv")
    assert exc.value.code == 2


def test_out_dir_environment_variable(tmp_path, small_csv, monkeypatch):
    monkeypatch.setenv("STREAMARIMA_OUT_DIR", str(tmp_path))
    assert run_cli(
        "run", "--data", small_csv, "--optimizer", "basic",
        "--mk", 3, "--trials", 1, "--out", "rel.csv",
    ) == 0
    assert (tmp_path / "rel.csv").exists()


def test_sweep_lambda_summary(tmp_path, small_csv):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep-lambda", "--data", small_csv, "--grid", "5,20",
        "--mk", 3, "--trials", 1, "--out", out,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "label,mean_residual,diverged"
    labels = [row.split(",")[0] for row in lines[1:]]
    assert labels == ["combined_lambda_5", "combined_lambda_20", "amsgrad", "basic", "momentum"]
    assert all(row.split(",")[2] == "0" for row in lines[1:])
    assert sha256(out) == "d18117bf7db32fb4dee779079adc4743543fc712d50edfb2b077d96d398bce86"


def test_grid_search_reports_best(tmp_path, small_csv, capsys):
    out = tmp_path / "grid.csv"
    code = run_cli(
        "grid-search", "--data", small_csv, "--optimizer", "basic",
        "--mk", 3, "--trials", 1, "--rates", "0.01,0.05,1e12", "--out", out,
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "best rate:" in stdout and "rate 1e+12: diverged" in stdout
    assert "rate 0.05: mean=" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "rate,mean_residual,diverged,best"
    assert sum(row.split(",")[3] == "1" for row in lines[1:]) == 1
    assert sha256(out) == "033957b3ef00b0944296ab89da7f3c3b9aba7c614a852729ad82449508abe5b8"


def test_reproduce_batched_requires_data(capsys):
    assert run_cli("reproduce", "4") == 1
    assert "--data" in capsys.readouterr().err


def test_module_entry_point(tmp_path, small_csv):
    out = tmp_path / "sub.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "streamarima", "run",
            "--data", str(small_csv), "--optimizer", "basic",
            "--mk", "3", "--trials", "1", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


# Numeric flags with values each must reject. Values go in as --flag=value,
# so argparse cannot mistake a negative number for an option.
INVALID = {
    "--mk": st.integers(max_value=0),
    "--d": st.integers(max_value=-1),
    "--trials": st.integers(max_value=0),
    "--seed": st.integers(max_value=-1),
    "--lr": st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf]),
    "--lambda": st.floats(max_value=0.0) | st.just(math.nan),
    "--smooth": st.integers(max_value=0),
    "--repeat": st.integers(max_value=0),
    "--limit": st.integers(max_value=0),
    "--channel": st.integers(max_value=-1),
    "--data-seed": st.integers(max_value=-1),
}
DATA_FLAGS = ("--repeat", "--limit", "--channel")
MODEL_FLAGS = ("--mk", "--d", "--trials", "--seed", "--lr")
COMMANDS = {
    "run": (["--optimizer", "combined", "--lambda", "50", "--out", "{out}/c.csv", "--svg", "{out}/c.svg"],
            MODEL_FLAGS + DATA_FLAGS + ("--lambda", "--smooth")),
    "sweep-lambda": (["--grid", "5,20", "--out", "{out}/s.csv", "--svg", "{out}/s.svg"],
                     MODEL_FLAGS + DATA_FLAGS + ("--smooth",)),
    "grid-search": (["--optimizer", "combined", "--lambda", "50", "--rates", "0.01,0.05",
                     "--out", "{out}/g.csv"], MODEL_FLAGS + DATA_FLAGS + ("--lambda",)),
    "reproduce": (["2", "--out-dir", "{out}"], ("--trials", "--seed", "--data-seed", "--smooth", "--limit", "--channel")),
}


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_invalid_numeric_flag_fails_closed(small_csv, batch_dir, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    base, flags = COMMANDS[command]
    flag = data.draw(st.sampled_from(flags))
    value = data.draw(INVALID[flag])
    argv = [command, *base]
    if command != "reproduce":
        source = data.draw(st.sampled_from(["file", "dir"]))
        argv += ["--mk", "3"]
        argv += ["--data", str(small_csv)] if source == "file" else [
            "--data", str(batch_dir), "--format", "bearing"]
    argv.append(f"{flag}={value}")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([arg.format(out=out) for arg in argv])
        written = os.listdir(out)
    lines = err.getvalue().splitlines()
    assert code != 0, argv
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    assert written == [], argv


def test_reproduce_is_the_explicit_commands(tmp_path):
    # configuration 2: synth --preset 2 --seed 7, then one run per rule;
    # configuration 7: sweep-lambda over the same series
    canned = tmp_path / "canned"
    assert run_cli("reproduce", 2, "--trials", 2, "--out-dir", canned) == 0
    assert run_cli("reproduce", 7, "--trials", 2, "--out-dir", canned) == 0
    series = tmp_path / "s2.csv"
    assert run_cli("synth", "--preset", 2, "--seed", 7, "--out", series) == 0
    model = ["--data", series, "--mk", 10, "--lr", 0.05, "--trials", 2]
    for name in ALL_OPTIMIZERS:
        out = tmp_path / f"{name}.csv"
        ramp = ["--lambda", 2000] if name == "combined" else []
        assert run_cli("run", *model, "--optimizer", name, *ramp, "--out", out) == 0
        assert out.read_bytes() == (canned / f"config2_{name}.csv").read_bytes(), name
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep-lambda", *model, "--out", out) == 0
    assert out.read_bytes() == (canned / "config7_sweep.csv").read_bytes()


def test_write_text_atomic_uses_a_fresh_temp_file(tmp_path, monkeypatch):
    other = tmp_path / "out.csv.tmp"  # e.g. a concurrent writer's file
    other.write_text("other\n")
    target = tmp_path / "out.csv"
    write_text_atomic(target, "a\n")
    assert target.read_text() == "a\n"
    assert other.read_text() == "other\n"
    umask = os.umask(0)
    os.umask(umask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_text_atomic(tmp_path / "new.csv", "b\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]
