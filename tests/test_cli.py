"""Command-line interface tests.

Most calls go through ``main(argv)`` in process; one test drives the real
``python -m streamarima`` entry point to cover the installed script path.
"""

import subprocess
import sys

import numpy as np
import pytest

from streamarima.cli import curve_csv, main
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

    assert run_cli(
        "run", "--data", tmp_path / "missing.csv", "--optimizer", "basic", "--out", out,
    ) == 1
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ("--lr", "50"),  # diverges
        ("--lr", "nan"),
        ("--lr", "inf"),
    ],
)
def test_divergence_and_non_finite_rates_fail_closed(tmp_path, small_csv, capsys, flags):
    out = tmp_path / "x.csv"
    code = run_cli("run", "--data", small_csv, "--optimizer", "basic", *flags, "--out", out)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists()


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
    assert lines[0] == "label,final_residual,diverged"
    labels = [row.split(",")[0] for row in lines[1:]]
    assert labels == ["combined_lambda_5", "combined_lambda_20", "amsgrad", "basic", "momentum"]
    assert all(row.split(",")[2] == "0" for row in lines[1:])


def test_grid_search_reports_best(tmp_path, small_csv, capsys):
    out = tmp_path / "grid.csv"
    code = run_cli(
        "grid-search", "--data", small_csv, "--optimizer", "basic",
        "--mk", 3, "--trials", 1, "--rates", "0.01,0.05", "--out", out,
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "best rate:" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "rate,tail_mean,diverged,best"
    assert sum(row.split(",")[3] == "1" for row in lines[1:]) == 1


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
