"""Command-line interface tests.

Most calls go through ``main(argv)`` in process; one test drives the real
``python -m streamarima`` entry point to cover the installed script path.
"""

import contextlib
import hashlib
import io
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamarima.cli import (
    ALL_OPTIMIZERS,
    CONFIGS,
    _cells,
    _digit_words,
    _midpoints,
    _places,
    _scaled,
    _shortest_digits,
    curve_csv,
    main,
    write_text_atomic,
)
from streamarima.experiment import ResidualCurve
from streamarima.series import normalize
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
    # and so are --data, --no-normalize and the batch flags for a configuration
    # that generates its series
    for flags in (["--data", tmp_path / "missing"], ["--no-normalize"], ["--limit", 5],
                  ["--channel", 2]):
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


@pytest.mark.parametrize("cmd, flags", [("run", ()), ("grid-search", ("--rates", "0.01"))])
def test_combined_without_lambda_names_the_flag(tmp_path, capsys, cmd, flags):
    # the check comes before the data are read: the data file does not exist
    out = tmp_path / "x.csv"
    assert run_cli(cmd, "--data", tmp_path / "missing.csv", "--optimizer", "combined",
                   *flags, "--out", out) == 1
    assert capsys.readouterr().err == "error: --lambda: required with --optimizer combined\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd, flags", [
    ("run", ("--optimizer", "basic", "--out", "{out}/c.csv")),
    ("sweep-lambda", ("--grid", "5,20", "--out", "{out}/s.csv")),
    ("grid-search", ("--optimizer", "basic", "--rates", "0.01", "--out", "{out}/g.csv")),
    ("reproduce", ("--out-dir", "{out}")),
])
@pytest.mark.parametrize("flag, value, message", [
    ("--trials", 0, "--trials must be >= 1, got 0"),
    ("--trials", -2, "--trials must be >= 1, got -2"),
    ("--seed", -1, "--seed must be >= 0, got -1"),
])
def test_trial_count_and_seed_errors_name_the_flag(tmp_path, capsys, cmd, flags, flag, value,
                                                    message):
    # the data file does not exist: the flag is refused before the data are read
    data = ("2",) if cmd == "reproduce" else ("--data", tmp_path / "missing.csv", "--mk", 3)
    argv = [str(a).format(out=tmp_path) for a in (cmd, *data, *flags)]
    assert main([*argv, f"{flag}={value}"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_reproduce_refuses_its_flags_before_it_reads_a_batch(tmp_path, capsys):
    data = tmp_path / "batches"
    data.mkdir()
    (data / "a.txt").write_text("not a number\n", encoding="ascii")
    out = tmp_path / "out"
    assert run_cli("reproduce", 4, "--data", data, "--out-dir", out) == 1
    assert capsys.readouterr().err == f"error: {data / 'a.txt'}: malformed value 'not' in row 1\n"
    assert run_cli("reproduce", 4, "--trials", 0, "--data", data, "--out-dir", out) == 1
    assert capsys.readouterr() == ("", "error: --trials must be >= 1, got 0\n")
    assert not out.exists()


def test_generator_seeds_out_of_range_fail_closed(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run_cli("synth", "--preset", 1, "--seed", -1, "--out", out) == 1
    assert capsys.readouterr().err == "error: seed must be an int in [0, 2**128), got -1\n"
    assert run_cli("reproduce", 1, "--data-seed", -3, "--out-dir", tmp_path / "r") == 1
    assert capsys.readouterr().err == "error: seed must be an int in [0, 2**128), got -3\n"
    assert list(tmp_path.iterdir()) == []


def test_an_output_path_that_is_a_directory_writes_nothing(tmp_path, small_csv, capsys):
    taken = tmp_path / "taken"
    taken.mkdir()
    csv, svg = tmp_path / "x.csv", tmp_path / "x.svg"
    for flags in (("--out", csv, "--svg", taken), ("--out", taken, "--svg", svg)):
        assert run_cli("run", "--data", small_csv, "--optimizer", "basic", "--mk", 3, *flags) == 1
        assert capsys.readouterr().err == f"error: {taken}: is a directory\n"
        assert list(tmp_path.iterdir()) == [taken]
    assert run_cli("synth", "--preset", 1, "--out", taken) == 1
    assert capsys.readouterr().err == f"error: {taken}: is a directory\n"
    # grid-search checks its path before it prints its results
    assert run_cli("grid-search", "--data", small_csv, "--optimizer", "basic", "--mk", 3,
                   "--rates", "0.01,0.05", "--out", taken) == 1
    assert capsys.readouterr() == ("", f"error: {taken}: is a directory\n")
    # reproduce checks all nine of its paths before it writes the first
    out = tmp_path / "r"
    (out / "config1_adam.csv").mkdir(parents=True)
    assert run_cli("reproduce", 1, "--trials", 1, "--out-dir", out) == 1
    assert capsys.readouterr().err == f"error: {out / 'config1_adam.csv'}: is a directory\n"
    assert [p.name for p in out.iterdir()] == ["config1_adam.csv"]
    assert list(taken.iterdir()) == []


def test_two_outputs_at_one_path_write_nothing(tmp_path, small_csv, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run = ("run", "--data", small_csv, "--optimizer", "basic", "--mk", 3)
    for out, svg in (("same.out", "same.out"), ("same.out", "./same.out"),
                     (tmp_path / "same.out", "same.out")):
        assert run_cli(*run, "--out", out, "--svg", svg) == 1
        assert capsys.readouterr().err == f"error: {Path(svg)}: named for two outputs\n"
    assert run_cli("sweep-lambda", "--data", small_csv, "--grid", 5, "--mk", 3,
                   "--out", "s.csv", "--svg", "s.csv") == 1
    assert capsys.readouterr().err == "error: s.csv: named for two outputs\n"
    assert list(tmp_path.iterdir()) == []


def test_an_output_path_under_a_file_writes_nothing(tmp_path, small_csv, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    ok = tmp_path / "ok.csv"
    for bad in (afile / "x.svg", afile / "sub" / "x.svg"):
        assert run_cli("run", "--data", small_csv, "--optimizer", "basic", "--mk", 3,
                       "--out", ok, "--svg", bad) == 1
        assert capsys.readouterr().err == f"error: {bad}: {afile} is not a directory\n"
    assert run_cli("synth", "--preset", 1, "--out", afile / "s.csv") == 1
    assert capsys.readouterr().err == f"error: {afile / 's.csv'}: {afile} is not a directory\n"
    assert run_cli("grid-search", "--data", small_csv, "--optimizer", "basic", "--mk", 3,
                   "--rates", "0.01,0.05", "--out", afile / "g.csv") == 1
    assert capsys.readouterr() == ("", f"error: {afile / 'g.csv'}: {afile} is not a directory\n")
    assert list(tmp_path.iterdir()) == [afile]
    assert afile.read_text() == "kept\n"


def test_reproduce_6_runs_on_the_csv_demo_batches(tmp_path, capsys):
    # configuration 6 reads one-column csv batches, which the demo script writes on request
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_batches.py"
    demo = tmp_path / "demo"
    subprocess.run([sys.executable, str(script), "--format", "csv", "--batches", "3",
                    "--batch-size", "400", "--out-dir", str(demo)], check=True,
                   capture_output=True)
    assert (demo / "batch_0000.txt").read_text().startswith("value\n")
    out = tmp_path / "out"
    assert run_cli("reproduce", 6, "--data", demo, "--trials", 2, "--out-dir", out) == 0
    assert capsys.readouterr().out == f"wrote 8 curve files and {out / 'config6.svg'}\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["config6.svg"] + [f"config6_{name}.csv" for name in ALL_OPTIMIZERS])
    lines = (out / "config6_combined.csv").read_text().splitlines()
    assert lines[0] == "t,r_mean,r_0,r_1" and len(lines) == 1 + 3


def test_a_constant_first_batch_writes_nothing(tmp_path, capsys):
    data = tmp_path / "batches"
    data.mkdir()
    for name, rows in (("a.txt", "0 1\n0 2\n0 3\n"), ("b.txt", "1 0\n2 0\n3 0\n")):
        (data / name).write_text(rows, encoding="ascii")
    out = tmp_path / "out"
    message = "error: first batch (batch 0) is constant at 0: it gives no range to normalize by\n"
    assert run_cli("run", "--data", data, "--format", "bearing", "--optimizer", "basic",
                   "--mk", 1, "--out", out / "o.csv") == 1
    assert capsys.readouterr().err == message
    assert run_cli("reproduce", 5, "--data", data, "--out-dir", out) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()
    # another channel, or no normalization, runs
    assert run_cli("run", "--data", data, "--format", "bearing", "--channel", 1,
                   "--optimizer", "basic", "--mk", 1, "--out", out / "o.csv") == 0
    assert run_cli("run", "--data", data, "--format", "bearing", "--no-normalize",
                   "--optimizer", "basic", "--mk", 1, "--out", out / "o.csv") == 0


def test_a_constant_series_file_with_normalize_writes_nothing(tmp_path, capsys):
    data = tmp_path / "c.csv"
    data.write_text("value\n1\n1\n1\n1\n1\n", encoding="ascii")
    out = tmp_path / "o.csv"
    argv = ("run", "--data", data, "--optimizer", "basic", "--mk", 1, "--out", out)
    assert run_cli(*argv, "--normalize") == 1
    assert capsys.readouterr().err == (
        f"error: {data} is constant at 1: it gives no range to normalize by\n")
    assert not out.exists()
    # without --normalize the series runs
    assert run_cli(*argv) == 0


def test_normalize_runs_a_series_file_on_its_normalized_values(tmp_path, small_csv):
    # the same bytes as a run on a file of the normalized values' reprs; small_csv
    # is already on [-1, 1], so the series is stretched off it first
    values = 3.0 * np.array([float(x) for x in small_csv.read_text().split()[1:]]) + 0.5
    files = {"scaled.csv": values, "normalized.csv": normalize(values, values.min(), values.max())}
    for name, column in files.items():
        rows = map(repr, column.tolist())
        (tmp_path / name).write_text("\n".join(["value", *rows]) + "\n", encoding="ascii")
    argv = ("run", "--optimizer", "basic", "--mk", 3)
    scaled = tmp_path / "scaled.csv"
    assert run_cli(*argv, "--data", scaled, "--normalize", "--out", tmp_path / "a.csv") == 0
    assert run_cli(*argv, "--data", tmp_path / "normalized.csv", "--out", tmp_path / "b.csv") == 0
    assert run_cli(*argv, "--data", scaled, "--out", tmp_path / "raw.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "raw.csv").read_bytes()


def test_a_file_that_is_not_ascii_names_itself(tmp_path, capsys):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbfvalue\n0.5\n0.25\n")
    out = tmp_path / "o.csv"
    assert run_cli("run", "--data", bom, "--optimizer", "basic", "--mk", 1, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {bom}: not ASCII text (byte 0xef)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, grid, message",
    [
        ("sweep-lambda", "--grid", "100,100,1e2", "ramp grid: '100' and '100' both print as 100"),
        ("sweep-lambda", "--grid", "5, 5.0", "ramp grid: '5' and '5.0' both print as 5"),
        ("grid-search", "--rates", "0.01,1000000,1000001",
         "rate grid: '1000000' and '1000001' both print as 1e+06"),
        # and values that do not parse, or none at all
        ("grid-search", "--rates", "0.01,abc", "could not parse rate grid: '0.01,abc'"),
        ("sweep-lambda", "--grid", "x", "could not parse ramp grid: 'x'"),
        ("sweep-lambda", "--grid", " , ", "ramp grid is empty"),
    ],
)
def test_grid_values_that_print_alike_write_nothing(tmp_path, capsys, command, flag, grid,
                                                    message):
    # labels and reports print each value with %g, so two such values would collide;
    # the data file does not exist, as the grid is parsed before the data are read
    out = tmp_path / "x.csv"
    extra = ("--optimizer", "basic") if command == "grid-search" else ()
    assert run_cli(command, "--data", tmp_path / "missing.csv", *extra, flag, grid, "--mk", 3,
                   "--out", out) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


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


def cell_texts(values) -> list[str]:
    """The text _cells writes for each value, without its leading comma."""
    rows = _cells(np.asarray(values, dtype=np.float64))
    return [row[row != 0].tobytes().decode("ascii")[1:] for row in rows]


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# every finite double >= 0, as hypothesis draws floats and as raw bit patterns
finite_doubles = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.integers(0, 0x7FEFFFFFFFFFFFFF).map(from_bits),
    st.integers(*struct.unpack("<2Q", struct.pack("<2d", 1e-10, 1e15))).map(from_bits),
)


@given(st.lists(finite_doubles, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_cells_are_repr(values):
    assert cell_texts(values) == [repr(float(v)) for v in values]


def test_the_array_path_writes_almost_every_value_in_its_range():
    rng = np.random.default_rng(0)
    lo, hi = np.array([1e-10, 1e15]).view(np.uint64)
    values = rng.integers(lo, hi, 20_000, dtype=np.uint64).view(np.float64)
    exact = _shortest_digits(values)[3]
    assert exact.mean() > 0.99
    assert cell_texts(values) == [repr(v) for v in values.tolist()]


@pytest.mark.parametrize("value, text, exact", [
    # powers of two, whose gap below is half the gap above
    (2.0**-33, "1.1641532182693481e-10", True),
    (2.0**-20, "9.5367431640625e-07", True),
    (0.5, "0.5", True),
    (1024.0, "1024.0", True),
    (2.0**49, "562949953421312.0", True),
    # where repr switches notation: decpt -3 | -4, and 16 | 17
    (1e-4, "0.0001", True),
    (float(np.nextafter(1e-4, 0)), "9.999999999999999e-05", False),
    (1e-5, "1e-05", True),
    (float(np.nextafter(1e-5, 1)), "1.0000000000000003e-05", True),
    (float(np.nextafter(1e16, 0)), "9999999999999998.0", False),
    (1e16, "1e+16", False),
    # the ends of the array range, [1e-10, 1e15)
    (1e-10, "1e-10", True),
    (float(np.nextafter(1e-10, 0)), "9.999999999999999e-11", False),
    (float(np.nextafter(1e15, 0)), "999999999999999.9", False),
    (1e15, "1000000000000000.0", False),
    (0.0, "0.0", False),
    (5e-324, "5e-324", False),
    # midway between ...37 and ...38; repr rounds the digit to even
    (199476721919104.375, "199476721919104.38", False),
    (2.0**-25, "2.9802322387695312e-08", False),
])
def test_cell_examples(value, text, exact):
    assert cell_texts([value]) == [text] == [repr(value)]
    assert bool(_shortest_digits(np.array([value]))[3][0]) is exact


def test_a_curve_that_mixes_array_path_and_repr_cells():
    # several blocks of rows, cells off the array range in each
    rng = np.random.default_rng(3)
    per_trial = rng.random((3, 7000)) ** 4
    per_trial[:, ::997] = [[0.0], [1e-300], [2.5e16]]
    per_trial[1, ::1999] = 199476721919104.375
    curve = ResidualCurve(np.arange(7000), per_trial.mean(axis=0), per_trial, "sample")
    table = np.vstack((curve.mean, per_trial)).T
    exact = _shortest_digits(table.ravel())[3]
    assert 0 < (~exact).sum() < exact.size // 100
    rows = [",".join([str(t), *map(repr, cells)])
            for t, cells in zip(curve.indices.tolist(), table.tolist())]
    assert curve_csv(curve) == "\n".join(["t,r_mean,r_0,r_1,r_2", *rows]) + "\n"


def as_u64(*values):
    return [np.array([value], dtype=np.uint64) for value in values]


@given(st.integers(1, 27), st.integers(1, 63), st.booleans(), st.integers(2**54, 2**55 - 1),
       st.sampled_from(["any", "carry", "borrow"]), st.integers(0, 2**62))
@settings(max_examples=500, deadline=None)
def test_midpoints_follow_from_the_values_product(q, s, narrow, m, case, pick):
    # _shortest_digits takes q in 1..27 and s in 3..62, and m = 4M < 2**55
    p, modulus = 5**q, 2**s
    k = 1 if narrow else 2
    above, below = 2 * p % modulus, k * p % modulus
    if case == "carry" and above:
        want = modulus - 1 - pick % above  # m p mod 2**s, so that adding 2p carries
    elif case == "borrow" and below:
        want = pick % below  # so that taking k p away borrows
    else:
        want = m * p % modulus
    m = m // modulus * modulus + want * pow(p, -1, modulus) % modulus
    m += modulus if m < 2 else 0
    if case == "carry":
        assert m * p % modulus + above >= modulus or not above
    if case == "borrow":
        assert m * p % modulus < below or not below
    m_, p_, s_ = as_u64(m, p, s)
    mid, mid_frac = _scaled(m_, p_, s_)
    lo, hi = _midpoints(mid, mid_frac, p_, s_, np.array([narrow]))
    assert hi[0] == _scaled(m_ + np.uint64(2), p_, s_)[0][0] == ((m + 2) * p >> s) % 2**64
    assert lo[0] == _scaled(m_ - np.uint64(k), p_, s_)[0][0] == ((m - k) * p >> s) % 2**64


# hi as _shortest_digits makes it, with runs of zeros from the hundreds up
upper_floors = st.one_of(
    st.integers(10**15, 10**18),
    st.builds(lambda head, zeros, tail: head * 10**zeros + tail,
              st.integers(1, 999), st.integers(2, 15), st.integers(0, 99)),
)


@given(upper_floors, st.integers(1, 99))
@settings(max_examples=500, deadline=None)
def test_places_is_the_largest_power_of_ten_with_a_multiple_between(hi, gap):
    lo = hi - gap
    i = max(k for k in range(19) if hi // 10**k * 10**k > lo)
    assert _places(*as_u64(lo, hi))[0] == i


@pytest.mark.parametrize("c", [0, 1, 10**9 - 1, 10**9, 10**16, 10**17 - 1,
                               *np.random.default_rng(5).integers(0, 10**17, 20).tolist()])
def test_digit_words_spell_seventeen_digits(c):
    text = _digit_words(np.array([c], dtype=np.uint64)).T.astype("<u8").tobytes()
    assert text == bytes(7) + f"{c:017d}".encode()


@pytest.mark.parametrize("n", range(1, 16))
def test_every_form_writes_repr(n):
    # n digits, the last not 0, are repr's digits for n <= 15; decpt spans the array range,
    # and a leading 7 keeps off powers of ten, where log10 may misjudge the scale
    digits = "723456789123456"[:n]
    values = [float(f"0.{digits}e{decpt}") for decpt in range(-9, 16)]
    assert _shortest_digits(np.array(values))[3].all()
    assert cell_texts(values) == [repr(v) for v in values]


def test_cells_too_long_for_three_words_take_a_fourth():
    values = [-1.2345678901234567e-100, 0.5, -0.0, math.nan, -math.inf, 1.0e-5]
    assert _cells(np.array(values)).shape == (6, 32)
    assert cell_texts(values) == [repr(v) for v in values]


def test_curve_csv_writes_t_of_any_width():
    t = np.array([0, 10**7, 10**8, 10**15, 2**62])
    per_trial = np.full((1, t.size), 0.25)
    curve = ResidualCurve(t, per_trial[0], per_trial, "sample")
    assert curve_csv(curve) == "t,r_mean\n" + "".join(f"{x},0.25\n" for x in t.tolist())


# the sha256 of each curve file of `reproduce 2 --trials 2`, as the
# per-cell repr writer wrote them
REPRODUCE_2_CURVES = {
    "config2_adagrad.csv": "98aa8dbe46e08cdaf28e2730418bbbbfd7335c54ee3f1bf51f18f11fd938cb58",
    "config2_adam.csv": "42aa0146c9dddf7c9916928d28d1c8392c32186c43ff20b3b121502dd4100438",
    "config2_amsgrad.csv": "471cb38a6623ac1c805f2d49c6378b4adde7c977cfebd812a82af8f9f7e1cafe",
    "config2_basic.csv": "9ed97d4e0dce0d75ea7339b0ebdbfb8847a7af8714ef9e65808ace9ccd6d8d25",
    "config2_combined.csv": "31bc680974c430577ba5ebdf804855f5437355794677533c8cf00a35c7ed25e0",
    "config2_momentum.csv": "4f62a9d0497e601197f8367a6abd5178a1f72f47bead0ae7855fa956d6a164cf",
    "config2_nesterov.csv": "a32a5e124f3ac3e94ef51a3dbd478154a6e1f26098a12f70ee45bb9250445bd2",
    "config2_rmsprop.csv": "554b658752d32048cc5469468d10ca7061d32cdc24f93a292ddfbedcbbd1afd9",
}


def test_reproduce_2_curve_files_keep_their_bytes(tmp_path):
    assert run_cli("reproduce", 2, "--trials", 2, "--out-dir", tmp_path) == 0
    written = {p.name: sha256(p) for p in sorted(tmp_path.glob("*.csv"))}
    assert written == REPRODUCE_2_CURVES


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
    # configuration 7: sweep-lambda over the same series; configuration 6,
    # the batched d > 0 one: one run per rule over a directory of csv batches
    canned = tmp_path / "canned"
    assert run_cli("reproduce", 2, "--trials", 2, "--out-dir", canned) == 0
    assert run_cli("reproduce", 7, "--trials", 2, "--out-dir", canned) == 0
    series = tmp_path / "s2.csv"
    assert run_cli("synth", "--preset", 2, "--seed", 7, "--out", series) == 0
    batches = tmp_path / "batches"
    batches.mkdir()
    walk = np.random.default_rng(6).normal(size=4 * 300).cumsum()
    for k in range(4):
        lines = ["value", *map(repr, walk[300 * k : 300 * (k + 1)].tolist())]
        (batches / f"batch_{k}.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    assert run_cli("reproduce", 6, "--data", batches, "--trials", 1, "--out-dir", canned) == 0

    for fid, model, ramp in (
        (2, ["--data", series, "--mk", 10, "--lr", 0.05, "--trials", 2], 2000),
        (6, ["--data", batches, "--d", 1, "--mk", 60, "--lr", 0.01, "--trials", 1], 102400),
    ):
        for name in ALL_OPTIMIZERS:
            out = tmp_path / f"{fid}_{name}.csv"
            given = ["--lambda", ramp] if name == "combined" else []
            assert run_cli("run", *model, "--optimizer", name, *given, "--out", out) == 0
            assert out.read_bytes() == (canned / f"config{fid}_{name}.csv").read_bytes(), name
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep-lambda", "--data", series, "--mk", 10, "--lr", 0.05, "--trials", 2,
                   "--out", out) == 0
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
