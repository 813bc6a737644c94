"""End-to-end acceptance checks.

Ten checks cover gradient correctness, optimizer recurrences, the blend
schedule, the three synthetic evaluation presets, the ramp-length sweep,
metric consistency, byte-level determinism of the command line, and an
optional smoke run on local bearing data.

Checks 04-07 score every rule at its own learning rate (the RATES table
below) by the mean of its trial-averaged |residual| curve over the whole
stream, the paper's "overall" prediction error, on data seed 7 with trial
seeds 0-29. scripts/acceptance_rates.py chose the rates: it tries every
rate of a grid from 5e-4 to 1.0 on an independent realization of each
preset (data seed 8) under the same whole-stream score, a diverged rate
scoring inf and ties going to the smaller rate. Its constants are the one
source of those settings; it prints them, as the comment above RATES,
with the table, and test_rate_table_matches_search_settings checks that
this module runs the checks with the same ones. The search takes about
10 s, so the table is checked in rather than recomputed here.

Each check computes its verdict, records one PASS/FAIL line for the
terminal summary (see conftest.py), and then asserts, so a failing check
still reports its measured numbers instead of dying silently.

The slow checks run the full 30-trial protocol on 10,000-sample series,
with all the rules of a preset, or all of check 07's ramps, in one kernel
call; the whole file takes about 5 s (4.4 to 5.5 s over three runs on a
2-vCPU Xeon).
"""

import functools
import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import record_acceptance
from oracles import (
    BASELINE_NAMES,
    batch_residual,
    delta_of,
    learn_step_forecasts,
    microbatches,
    probe,
    warmed_model,
)
from test_model import fd_gradient
from test_optimizers import ORACLES, SCRIPT, combined_deltas, deltas

from streamarima.experiment import (
    DivergedError,
    ResidualCurve,
    RunRecord,
    RunSpec,
    compare_optimizers,
    run_data,
)
from streamarima.experiment import _run_all
from streamarima.model import ModelConfig
from streamarima.optimizers import make_optimizer
from streamarima.series import TimeSeries
from streamarima.synthetic import generate, preset

DATA_SEED = 7
TRIAL_SEEDS = tuple(range(30))
ALL_NAMES = BASELINE_NAMES + ("combined",)
LAMBDA_GRID = (100, 500, 1000, 2000, 3000, 5000, 10000)
PRESET_MK = {1: 5, 2: 10, 3: 10}
RAMP_LENGTH = 2000.0


def check(criterion: str, ok: bool, detail: str = "") -> None:
    record_acceptance(criterion, ok, detail)
    assert ok, f"{criterion}: {detail}"


@functools.lru_cache(maxsize=None)
def series_for(setting: int) -> TimeSeries:
    return generate(preset(setting, seed=DATA_SEED))


# Learning rate per preset and rule. The comment lines and the table below
# are the output of scripts/acceptance_rates.py, verbatim.
# Chosen by scripts/acceptance_rates.py with these settings:
#   tuning data seed 8, trial seeds 0-29, combined at lambda 2000
#   mk per preset {1: 5, 2: 10, 3: 10}
#   grid (0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
#   score: whole-stream mean of the trial-averaged |residual|;
#   a diverged rate scores inf, ties go to the smaller rate
RATES = {
    1: {
        "basic": 0.1,
        "momentum": 0.01,
        "nesterov": 0.01,
        "adagrad": 0.2,
        "rmsprop": 0.01,
        "adam": 0.01,
        "amsgrad": 0.005,
        "combined": 0.005,
    },
    2: {
        "basic": 0.1,
        "momentum": 0.01,
        "nesterov": 0.01,
        "adagrad": 0.5,
        "rmsprop": 0.01,
        "adam": 0.01,
        "amsgrad": 0.005,
        "combined": 0.01,
    },
    3: {
        "basic": 0.1,
        "momentum": 0.01,
        "nesterov": 0.01,
        "adagrad": 0.2,
        "rmsprop": 0.01,
        "adam": 0.01,
        "amsgrad": 0.005,
        "combined": 0.01,
    },
}


def rule_spec(setting: int, name: str) -> RunSpec:
    """One rule at its own rate on a preset at the preset's reference window."""
    return RunSpec(
        model=ModelConfig(mk=PRESET_MK[setting], d=0),
        optimizer=name,
        learning_rate=RATES[setting][name],
        ramp_length=RAMP_LENGTH,
        trial_seeds=TRIAL_SEEDS,
    )


def stable_records(runs, series: TimeSeries) -> dict:
    """Each run's record from one kernel call; a diverged run fails the check."""
    records = _run_all(runs, series)
    for r in records:
        if r.diverged:
            raise DivergedError(r.message)
    return {r.label: r for r in records}


@functools.lru_cache(maxsize=None)
def preset_records(setting: int) -> dict[str, RunRecord]:
    """All eight rules on one synthetic preset, each at its own rate, 30 trials."""
    return stable_records([(name, rule_spec(setting, name)) for name in ALL_NAMES],
                          series_for(setting))


def preset_means(setting: int) -> dict[str, float]:
    """Each rule's score: the whole-stream mean of its trial-averaged |residual| curve."""
    return {name: r.score for name, r in preset_records(setting).items()}


def fmt_rated(setting: int, means: dict[str, float]) -> str:
    ordered = sorted(means.items(), key=lambda kv: kv[1])
    return ", ".join(
        f"{name} {value:.4f} (lr {RATES[setting][name]:g})" for name, value in ordered
    )


def fmt_means(means: dict[str, float]) -> str:
    ordered = sorted(means.items(), key=lambda kv: kv[1])
    return ", ".join(f"{name} {value:.4f}" for name, value in ordered)


def test_01_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(120):
        mk = int(rng.integers(1, 21))
        d = int(rng.integers(0, 2))
        history = rng.normal(scale=2.0, size=mk + d)
        actual = float(rng.normal(scale=2.0))
        model = warmed_model(ModelConfig(mk=mk, d=d), history, seed=trial)
        _, analytic = probe(model, actual)
        numeric = fd_gradient(model.gamma, history, d, actual)
        rel = np.abs(analytic - numeric) / np.maximum(
            1.0, np.maximum(np.abs(analytic), np.abs(numeric))
        )
        worst = max(worst, float(rel.max()))
    check(
        "01 analytic gradient vs finite differences",
        worst < 1e-6,
        f"worst relative error {worst:.2e} over 120 instances",
    )


def test_02_optimizer_step_oracles():
    worst = 0.0
    for name in BASELINE_NAMES:
        got = deltas(make_optimizer(name, 3, 0.1), SCRIPT)
        want = ORACLES[name](SCRIPT)
        err = max(
            abs(g - w) for gs, ws in zip(got, want) for g, w in zip(gs, ws)
        )
        worst = max(worst, err)
    check(
        "02 optimizer five-step oracles",
        worst <= 1e-12,
        f"worst per-coefficient deviation {worst:.2e} across 7 optimizers",
    )


def test_03_blend_anchors_and_momentum_handover():
    # Combined's delta against AMSGrad's (a) and Momentum's (m) on a 2000-step ramp
    g = [0.2, -1.3]
    at = {t: combined_deltas(t, 2000.0, g) for t in (0, 1000, 2000, 3000)}
    anchors = (
        np.array_equal(at[0][0], at[0][1])
        and np.array_equal(at[2000][0], at[2000][2])
        and np.array_equal(at[3000][0], at[3000][2])
        and np.abs(at[1000][0] - 0.5 * (at[1000][1] + at[1000][2])).max() < 1e-12
    )

    rng = np.random.default_rng(0)
    comb = make_optimizer("combined", 4, 0.05, ramp_length=8.0)
    comb.step_count = 8  # past the ramp from the first step
    mom = make_optimizer("momentum", 4, 0.05)
    cx, mx = np.zeros(4), np.zeros(4)
    bitwise = True
    for _ in range(40):
        g = rng.normal(size=4)
        cx = cx - delta_of(comb, g)
        mx = mx - delta_of(mom, g)
        bitwise = bitwise and np.array_equal(cx, mx)
    check(
        "03 blend anchors and momentum handover",
        anchors and bitwise,
        f"anchors exact: {anchors}, post-ramp trajectory bitwise momentum: {bitwise}",
    )


def check_combined_ordering(label: str, setting: int) -> None:
    means = preset_means(setting)
    combined = means["combined"]
    baseline_ok = all(combined <= means[n] for n in BASELINE_NAMES)
    margin_ok = combined <= 0.98 * means["amsgrad"]
    check(
        label,
        baseline_ok and margin_ok,
        f"whole-stream means: {fmt_rated(setting, means)}; need combined lowest"
        f" and <= 0.98*amsgrad ({0.98 * means['amsgrad']:.4f})",
    )


def test_04_preset1_combined_tail_ordering():
    check_combined_ordering("04 preset 1 combined ordering", 1)


def test_05_preset2_combined_tail_ordering():
    check_combined_ordering("05 preset 2 combined ordering", 2)


def window_mean(curve: ResidualCurve, lo: int, hi: int) -> float:
    """Mean of the averaged curve over sample positions in [lo, hi)."""
    mask = (curve.indices >= lo) & (curve.indices < hi)
    return float(curve.mean[mask].mean())


def test_06_preset3_shift_response_and_tail_minimum():
    records = preset_records(3)
    spike_ok = all(
        window_mean(r.curve, 5000, 5500) > window_mean(r.curve, 4500, 5000)
        for r in records.values()
    )
    means = preset_means(3)
    min_name = min(means, key=means.get)
    min_ok = min_name == "combined"
    check(
        "06 preset 3 shift response and overall minimum",
        spike_ok and min_ok,
        f"residual rises after the shift for all 8: {spike_ok}; "
        f"whole-stream minimum: {min_name} ({fmt_rated(3, means)})",
    )


def test_07_every_ramp_length_beats_amsgrad_on_preset2():
    # Combined stays at its preset-2 rate (tuned at lambda = 2000) for every
    # ramp length. The margin at lambda = 100, which is Momentum after 100
    # samples, is -0.03% on data seed 7 but +0.25% and +0.36% on seeds 10
    # and 12: below seed-to-seed noise, so a pass there is no evidence for
    # the claim. The message prints every margin so the reader can see it.
    means = preset_means(2)
    amsgrad = means["amsgrad"]
    spec = rule_spec(2, "combined")
    series = series_for(2)
    records = stable_records([(lam, replace(spec, ramp_length=float(lam)))
                              for lam in LAMBDA_GRID], series)
    sweep = {lam: r.score for lam, r in records.items()}
    losing = {lam: m for lam, m in sweep.items() if m > amsgrad}
    detail = ", ".join(
        f"lambda={lam} {m:.5f} ({100 * (m / amsgrad - 1):+.2f}%)" for lam, m in sweep.items()
    )
    check(
        "07 ramp grid beats amsgrad on preset 2",
        not losing,
        f"whole-stream means: {fmt_rated(2, means)}; combined (lr {spec.learning_rate:g})"
        f" against amsgrad {amsgrad:.5f}: {detail}; above amsgrad: {sorted(losing)}",
    )


def test_rate_table_matches_search_settings():
    """RATES was searched with the settings this module scores under."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "acceptance_rates.py"
    spec = importlib.util.spec_from_file_location("acceptance_rates", path)
    search = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(search)
    assert search.TRIAL_SEEDS == TRIAL_SEEDS
    assert search.RAMP_LENGTH == RAMP_LENGTH
    assert search.PRESET_MK == PRESET_MK
    assert search.ALL_NAMES == ALL_NAMES
    assert search.TUNING_SEED != DATA_SEED
    assert set(RATES) == set(PRESET_MK)
    for rates in RATES.values():
        assert tuple(rates) == ALL_NAMES
        assert set(rates.values()) <= set(search.RATE_GRID)

def test_08_batch_residual_matches_per_sample_records():
    # a batched run_data against the per-batch oracle over a per-sample learn_step loop
    rng = np.random.default_rng(31)
    worst = 0.0
    checked = 0
    for round_ in range(6):
        n = int(rng.integers(200, 400))
        series = TimeSeries(rng.normal(size=n))
        mk = int(rng.integers(2, 6))
        size = int(rng.integers(mk + 2, 80))
        if n < size:
            continue
        batches = microbatches(series, size)
        spec = RunSpec(
            model=ModelConfig(mk=mk, d=0),
            optimizer=("adam", "basic", "combined")[round_ % 3],
            learning_rate=0.01,
            ramp_length=25.0,
            trial_seeds=(round_,),
        )
        curve = run_data(spec, batches)
        values = series.values
        preds = np.concatenate([np.full(mk, np.nan), learn_step_forecasts(spec, values)[0]])
        for k in range(len(batches)):
            s, e = k * size, (k + 1) * size
            direct = batch_residual(preds[s:e], values[s:e], mk)
            worst = max(worst, abs(direct - curve.per_trial[0, k]))
            checked += 1
    check(
        "08 batch residual consistency",
        checked > 10 and worst <= 1e-12,
        f"max deviation {worst:.2e} over {checked} randomized batches",
    )


def test_09_rerun_is_byte_identical(tmp_path):
    data = tmp_path / "s1.csv"
    env = {**os.environ, "STREAMARIMA_OUT_DIR": str(tmp_path)}

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "streamarima", *map(str, argv)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    cli("synth", "--preset", 1, "--seed", DATA_SEED, "--out", data)
    for name in ("first.csv", "second.csv"):
        cli(
            "run", "--data", data, "--optimizer", "combined", "--lambda", 2000,
            "--mk", 5, "--lr", 0.05, "--trials", 3, "--out", name,
        )
    first = (tmp_path / "first.csv").read_bytes()
    second = (tmp_path / "second.csv").read_bytes()
    check(
        "09 byte-identical reruns",
        first == second and len(first) > 0,
        f"{len(first)} bytes per curve file",
    )


def _bearing_dir() -> Path | None:
    env = os.environ.get("STREAMARIMA_BEARING_DIR")
    if env:
        return Path(env)
    local = Path(__file__).resolve().parents[1] / "data" / "bearing"
    return local if local.is_dir() else None


def test_10_bearing_smoke_run():
    root = _bearing_dir()
    if root is None or not root.is_dir():
        record_acceptance(
            "10 bearing data smoke run",
            None,
            "skipped: no local bearing data (set STREAMARIMA_BEARING_DIR)",
        )
        pytest.skip("no local bearing data")

    from streamarima.experiment import normalize_batches
    from streamarima.ingest import load_batch_dir

    batches = normalize_batches(load_batch_dir(root, "bearing", limit=10))
    spec = RunSpec(
        model=ModelConfig(mk=300, d=0),
        optimizer="combined",
        learning_rate=5e-3,
        ramp_length=102400.0,
        trial_seeds=(0, 1),
    )
    records = compare_optimizers(spec, batches, ("amsgrad", "combined"))
    finite = not any(r.diverged for r in records)
    means = {r.label: r.score for r in records}
    ok = finite and means["combined"] <= means["amsgrad"]
    check(
        "10 bearing data smoke run",
        ok,
        f"finite: {finite}; whole-stream means: {fmt_means(means)}",
    )
