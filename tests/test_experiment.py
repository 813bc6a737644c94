"""Harness tests: residual metric, streaming vs batched runs, search loops."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import batch_residual, doubled_residual_rows, learn_step_forecasts, microbatches
from streamarima.experiment import (
    DIVERGENCE_CHECK_INTERVAL,
    DIVERGENCE_FACTOR,
    DivergedError,
    ResidualCurve,
    RunSpec,
    compare_optimizers,
    grid_search,
    normalize_batches,
    run_data,
    sweep_lambda,
)
from streamarima.experiment import _kernel, _run_all
from streamarima.model import ModelConfig
from streamarima.optimizers import OPTIMIZERS
from streamarima.series import MicroBatch, TimeSeries
from streamarima.synthetic import GeneratorSpec, generate, preset


@pytest.fixture(scope="module")
def short_series():
    return generate(GeneratorSpec(alpha=(0.6, -0.3), length=400, seed=1, burn_in=50))


def spec_for(optimizer="basic", mk=3, seeds=(0,), lr=0.05, ramp=None):
    return RunSpec(
        model=ModelConfig(mk=mk, d=0),
        optimizer=optimizer,
        learning_rate=lr,
        ramp_length=ramp,
        trial_seeds=seeds,
    )


# hand examples for the per-batch residual oracle the batched runs are held to


def test_batch_residual_hand_example():
    preds = [1.0, 2.0, 3.0, 4.0]
    actuals = [0.0, 2.0, 2.0, 8.0]
    # mk + d = 2 leaves positions 2 and 3: |3-2| and |4-8|
    assert batch_residual(preds, actuals, 2) == pytest.approx(2.5, abs=1e-15)


def test_batch_residual_skips_exactly_the_window():
    preds = np.arange(6.0)
    actuals = np.zeros(6)
    # mk = 2, d = 1: positions 3, 4 and 5
    assert batch_residual(preds, actuals, 3) == pytest.approx(4.0, abs=1e-15)


def test_stream_run_shape_and_indices(short_series):
    curve = run_data(spec_for(seeds=(0, 1)), short_series)
    assert curve.granularity == "sample"
    assert curve.per_trial.shape == (2, 397)
    np.testing.assert_array_equal(curve.indices, np.arange(3, 400))
    np.testing.assert_array_equal(curve.mean, curve.per_trial.mean(axis=0))
    assert np.all(np.isfinite(curve.mean))


def test_stream_run_is_deterministic(short_series):
    a = run_data(spec_for(optimizer="combined", ramp=50.0), short_series)
    b = run_data(spec_for(optimizer="combined", ramp=50.0), short_series)
    np.testing.assert_array_equal(a.per_trial, b.per_trial)


def test_per_trial_rows_match_single_seed_runs(short_series):
    multi = run_data(spec_for(seeds=(0, 1, 2)), short_series)
    solo = run_data(spec_for(seeds=(1,)), short_series)
    np.testing.assert_array_equal(multi.per_trial[1], solo.per_trial[0])


def test_stream_run_rejects_short_series():
    with pytest.raises(ValueError, match="too short"):
        run_data(spec_for(mk=5), TimeSeries(np.zeros(5)))


def test_combined_requires_ramp(short_series):
    with pytest.raises(ValueError, match="ramp_length"):
        run_data(spec_for(optimizer="combined"), short_series)


def test_batched_run_keeps_model_state_across_batches(short_series):
    spec = spec_for(optimizer="momentum")
    stream = run_data(spec, short_series).per_trial
    curve = run_data(spec, microbatches(short_series, 100))
    # the batch boundaries change what is scored, never what the model sees:
    # batch k scores samples 100k + 3 onward, stream positions 100k onward
    want = np.stack([stream[:, s : s + 100 - 3].mean(axis=1) for s in range(0, 400, 100)], axis=1)
    np.testing.assert_array_equal(curve.per_trial, want)


def test_batched_details_agree_with_curve(short_series):
    # each batch's point is the per-batch oracle over a learn_step loop
    spec = spec_for(seeds=(0,))
    batches = microbatches(short_series, 80)
    curve = run_data(spec, batches)
    assert curve.granularity == "batch"
    np.testing.assert_array_equal(curve.indices, np.arange(5))
    values = short_series.values
    preds = np.concatenate([np.full(3, np.nan), learn_step_forecasts(spec, values)[0]])
    for k in range(5):
        s, e = 80 * k, 80 * (k + 1)
        want = batch_residual(preds[s:e], values[s:e], 3)
        assert curve.per_trial[0, k] == pytest.approx(want, abs=1e-12)


def test_batched_scoring_skips_window_positions_every_batch(short_series):
    # mk + d = 4 positions go unscored at the start of every batch, of any size
    spec = RunSpec(model=ModelConfig(mk=3, d=1), optimizer="basic", learning_rate=0.05)
    stream = run_data(spec, short_series).per_trial
    sizes = (50, 37, 61, 252)
    starts = np.cumsum((0,) + sizes[:-1])
    batches = [
        MicroBatch(TimeSeries(short_series.values[s : s + n])) for s, n in zip(starts, sizes)
    ]
    curve = run_data(spec, batches)
    want = np.stack([stream[:, s : s + n - 4].mean(axis=1) for s, n in zip(starts, sizes)], axis=1)
    np.testing.assert_array_equal(curve.per_trial, want)


def test_batched_run_rejects_batch_shorter_than_window():
    tiny = [MicroBatch(TimeSeries(np.zeros(3)))]
    with pytest.raises(ValueError, match="batch 0 has 3 samples"):
        run_data(spec_for(mk=3), tiny)


def test_a_short_batch_is_named_by_its_position_in_the_list(short_series):
    # repeated batches are distinct positions; the first short one names the error
    ok, short = MicroBatch(short_series), MicroBatch(TimeSeries(np.zeros(3)))
    with pytest.raises(ValueError, match="^batch 1 has 3 samples"):
        run_data(spec_for(mk=3), [ok, short] * 2)


def test_run_data_dispatch(short_series):
    assert run_data(spec_for(), short_series).granularity == "sample"
    batches = microbatches(short_series, 100)
    assert run_data(spec_for(), batches).granularity == "batch"
    with pytest.raises(ValueError, match="^no batches to run$"):
        run_data(spec_for(), [])


def test_diverged_run_raises(short_series):
    with pytest.raises(DivergedError, match="diverged"):
        run_data(spec_for(lr=1e12), short_series)


def test_divergence_names_first_diverging_trial(short_series):
    # at lr 1e12 every trial diverges; the error names the first one
    spec = spec_for(lr=1e12, seeds=(4, 5))
    with pytest.raises(DivergedError, match=r"at sample \d+ .*rate 1e\+12, trial seed 4\)"):
        run_data(spec, short_series)
    batches = microbatches(short_series, 100)
    with pytest.raises(DivergedError, match=r"in batch 0 at offset \d+ .*trial seed 4\)"):
        run_data(spec, batches)
    # only scored positions count: with mk = 3, offset 3 is a batch's first.
    # The blow-up starts at sample 4, batch 1's unscored offset 0.
    with pytest.raises(DivergedError, match=r"in batch 1 at offset 3 "):
        run_data(spec, microbatches(short_series, 4))
    # the first trial names the run even when a later one diverges hundreds of
    # samples earlier (trial seed 0 alone diverges at sample 74)
    series = generate(GeneratorSpec(alpha=(0.6, -0.3), length=2000, seed=1, burn_in=50))
    with pytest.raises(DivergedError, match=r"at sample 515 .*trial seed 2\)"):
        run_data(spec_for(mk=6, lr=1.85, seeds=(2, 0)), series)


# ------------------------------------------- kernel against learn_step


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_kernel_matches_per_sample_learn_step(data):
    mk = data.draw(st.integers(1, 12), label="mk")
    d = data.draw(st.integers(0, 2), label="d")
    spec = RunSpec(
        model=ModelConfig(mk=mk, d=d),
        optimizer=data.draw(st.sampled_from(sorted(OPTIMIZERS)), label="optimizer"),
        learning_rate=data.draw(st.sampled_from([1e-3, 3e-3]), label="lr"),
        ramp_length=data.draw(st.floats(1.0, 60.0), label="ramp"),
        trial_seeds=tuple(
            data.draw(st.lists(st.integers(0, 999), min_size=1, max_size=4, unique=True))
        ),
    )
    sizes = data.draw(
        st.lists(st.integers(mk + d + 1, mk + d + 40), min_size=1, max_size=5), label="batches"
    )
    values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=sum(sizes))
    want = learn_step_forecasts(spec, values)
    window = mk + d
    resid = np.abs(want - values[window:])
    # a run that blows up (momentum-like rules at d = 2 can) is reported where
    # the per-sample loop blows up, for its first trial that does
    bad = ~(resid <= DIVERGENCE_FACTOR * np.abs(values).max())
    if bad.any():
        trial = int(bad.any(axis=1).argmax())
        k = int(bad[trial].argmax()) + window
        with pytest.raises(DivergedError,
                           match=rf"at sample {k} .*trial seed {spec.trial_seeds[trial]}\)"):
            run_data(spec, TimeSeries(values))
        return

    got = run_data(spec, TimeSeries(values))
    np.testing.assert_allclose(got.per_trial, resid, rtol=1e-12, atol=1e-12)

    starts = np.cumsum([0] + sizes[:-1])
    batches = [MicroBatch(TimeSeries(values[s : s + n])) for s, n in zip(starts, sizes)]
    per_batch = [resid[:, s : s + n - window].mean(axis=1) for s, n in zip(starts, sizes)]
    curve = run_data(spec, batches)
    np.testing.assert_allclose(curve.per_trial, np.stack(per_batch, axis=1), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
def test_trial_rows_are_bitwise_independent_of_other_trials(optimizer):
    values = generate(GeneratorSpec(alpha=(0.6, -0.3), length=300, seed=3, burn_in=50))
    for mk, d in ((1, 0), (5, 1), (40, 2)):
        spec = RunSpec(
            model=ModelConfig(mk=mk, d=d),
            optimizer=optimizer,
            learning_rate=1e-3,
            ramp_length=100.0,
            trial_seeds=(3, 0, 7, 11),
        )
        together = run_data(spec, values).per_trial
        alone = run_data(replace(spec, trial_seeds=(7,)), values).per_trial
        np.testing.assert_array_equal(together[2], alone[0])


# ------------------------------------------- runs side by side in one kernel


def _alone(spec, data):
    """The curve of ``spec`` run by itself, or its divergence message."""
    try:
        return run_data(spec, data)
    except DivergedError as exc:
        return str(exc)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_run_of_one_kernel_call_matches_the_run_alone(data):
    mk = data.draw(st.integers(1, 12), label="mk")
    d = data.draw(st.integers(0, 2), label="d")
    # up to 8 runs in any order, a rule repeated at the same or other rates
    # and ramps; the largest rates diverge, some only after several check
    # intervals
    rules = data.draw(st.lists(
        st.tuples(
            st.sampled_from(sorted(OPTIMIZERS)),
            st.sampled_from([1e-3, 3e-3, 0.05, 0.3, 1e3]),
            st.one_of(st.floats(1.0, 300.0), st.just(math.inf)),
        ),
        min_size=1, max_size=7,
    ), label="runs")
    # and, at times, one run's rule, rate and ramp again, somewhere among them
    if data.draw(st.booleans(), label="repeat"):
        again = data.draw(st.sampled_from(rules), label="again")
        rules.insert(data.draw(st.integers(0, len(rules)), label="at"), again)
    runs = []
    for k, (optimizer, rate, ramp) in enumerate(rules):
        runs.append((f"run_{k}", RunSpec(
            model=ModelConfig(mk=mk, d=d),
            optimizer=optimizer,
            learning_rate=rate,
            ramp_length=ramp,
            trial_seeds=tuple(
                data.draw(st.lists(st.integers(0, 999), min_size=1, max_size=4, unique=True))
            ),
        )))
    sizes = data.draw(
        st.lists(st.integers(mk + d + 1, mk + d + 150), min_size=1, max_size=5), label="batches"
    )
    values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=sum(sizes))
    starts = np.cumsum([0] + sizes[:-1])
    batches = [MicroBatch(TimeSeries(values[s : s + n])) for s, n in zip(starts, sizes)]
    for source in (TimeSeries(values), batches):
        for record in _run_all(runs, source):
            alone = _alone(record.spec, source)
            if record.diverged:
                assert record.message == alone and record.score == float("inf")
            else:
                np.testing.assert_array_equal(record.curve.per_trial, alone.per_trial)
                np.testing.assert_array_equal(record.curve.indices, alone.indices)


def test_a_diverged_run_leaves_the_loop_without_touching_the_others():
    series = generate(preset(2, seed=7))
    stable = [spec_for(name, mk=10, seeds=(0, 1), lr=0.05, ramp=2000.0)
              for name in ("basic", "adagrad", "combined")]
    # a ramp that has ended before the wild run leaves, and one that has not
    stable.append(spec_for("combined", mk=10, seeds=(0, 1), lr=0.05, ramp=50.0))
    wild = spec_for("momentum", mk=10, seeds=(0, 1), lr=1.0)
    runs = [(s.optimizer, s) for s in (stable[0], wild, *stable[1:])]
    records = _run_all(runs, series)
    assert [r.diverged for r in records] == [False, True, False, False, False]
    for r in records:
        alone = _alone(r.spec, series)
        if r.diverged:
            assert r.message == alone
            assert r.message.startswith("run diverged at sample ")
        else:
            np.testing.assert_array_equal(r.curve.per_trial, alone.per_trial)
    # the kernel's verdicts are the records' messages; the diverged run's
    # residual rows are nan from the check that caught it on, and the stable
    # runs' rows are finite to the end
    resid, blocks, messages = _kernel([s for _, s in runs], series.values, None)
    assert messages == [r.message for r in records]
    window = wild.model.window
    for r, block in zip(records, blocks):
        if r.diverged:
            k = int(re.match(r"run diverged at sample (\d+) ", r.message)[1])
            caught = ((k - window) // DIVERGENCE_CHECK_INTERVAL + 1) * DIVERGENCE_CHECK_INTERVAL
            assert caught < resid.shape[1]
            assert np.isnan(resid[block, caught:]).all()
            assert not np.isnan(resid[block.start, : k - window]).any()
        else:
            assert np.isfinite(resid[block]).all()


def test_runs_that_leave_at_two_checks_leave_the_others_bitwise_alone():
    # d = 1 over 40 batches: momentum at rate 1 leaves at the second check,
    # basic at rate 1 at the ninth, and the kept rows' buffer is rebuilt
    # each time
    series = generate(preset(2, seed=7))
    batches = microbatches(series, 250)
    values = np.concatenate([b.samples.values for b in batches])
    starts = np.arange(len(batches)) * 250

    def spec(name, lr, ramp=None):
        return RunSpec(ModelConfig(mk=10, d=1), name, lr, ramp, (0, 1))

    specs = [spec("basic", 0.05), spec("momentum", 1.0), spec("combined", 0.05, 2000.0),
             spec("adagrad", 0.05), spec("basic", 1.0), spec("combined", 0.05, 50.0)]
    resid, blocks, messages = _kernel(specs, values, starts)
    assert messages == [
        "", "run diverged in batch 0 at offset 163 (optimizer momentum, rate 1, trial seed 0)",
        "", "", "run diverged in batch 3 at offset 73 (optimizer basic, rate 1, trial seed 0)", ""]
    window = specs[0].model.window
    caught = []
    for s, block, message in zip(specs, blocks, messages):
        alone = _kernel([s], values, starts)
        assert alone[2] == [message]
        if not message:
            assert resid[block].tobytes() == alone[0].tobytes()
            continue
        batch, offset = map(int, re.search(r"batch (\d+) at offset (\d+)", message).groups())
        k = int(starts[batch]) + offset - window
        caught.append((k // DIVERGENCE_CHECK_INTERVAL + 1) * DIVERGENCE_CHECK_INTERVAL)
        assert np.isnan(resid[block, caught[-1] :]).all()
        assert not np.isnan(resid[block, : caught[-1]]).any()
        assert resid[block, : caught[-1]].tobytes() == alone[0][:, : caught[-1]].tobytes()
    assert caught == [200, 900]


def test_a_run_that_leaves_holds_no_second_copy_of_the_residuals():
    # momentum at rate 1 leaves at the first check; the other twelve rows
    # run on to the end without a second (rows, samples left) array
    values = generate(preset(2, seed=7)).values
    specs = [spec_for(name, mk=10, seeds=(0, 1, 2, 3), lr=lr, ramp=ramp)
             for name, lr, ramp in (("basic", 0.05, None), ("momentum", 1.0, None),
                                    ("adagrad", 0.05, None), ("combined", 0.05, 2000.0))]
    tracemalloc.start()
    try:
        resid, _, messages = _kernel(specs, values, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert messages[1].startswith("run diverged at sample 84 ")
    assert peak <= 1.5 * resid.nbytes


def test_the_kernel_judges_each_residual_without_a_full_size_mask():
    # the batched form of the bank above: each interval's residuals are
    # judged in the interval buffer, so no (rows, samples) bool array is
    # made and the traced peak stays near the residual array itself
    values = generate(preset(2, seed=7)).values
    starts = np.arange(0, values.size, 250)
    specs = [spec_for(name, mk=10, seeds=(0, 1, 2, 3), lr=lr, ramp=ramp)
             for name, lr, ramp in (("basic", 0.05, None), ("momentum", 1.0, None),
                                    ("adagrad", 0.05, None), ("combined", 0.05, 2000.0))]
    tracemalloc.start()
    try:
        resid, _, messages = _kernel(specs, values, starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert messages[1].startswith("run diverged in batch 0 at offset 84 ")
    assert peak <= 1.25 * resid.nbytes


def test_a_run_whose_later_trial_diverges_stays_in_the_loop():
    # at rate 0.27 on these 2,000 samples, momentum from seed 9 diverges at
    # sample 1305 and from seed 0 stays finite: the run keeps its rows to the
    # end and is named by seed 9
    values = generate(preset(3, seed=7)).values[:2000]
    series = TimeSeries(values)
    spec = spec_for("momentum", mk=10, seeds=(0, 9), lr=0.27)
    runs = [("basic", spec_for("basic", mk=10, seeds=(0, 9))), ("momentum", spec)]
    records = _run_all(runs, series)
    message = "run diverged at sample 1305 (optimizer momentum, rate 0.27, trial seed 9)"
    assert [r.message for r in records] == ["", message]
    assert _alone(spec, series) == message
    assert _alone(replace(spec, trial_seeds=(9,)), series) == message
    assert isinstance(_alone(replace(spec, trial_seeds=(0,)), series), ResidualCurve)
    resid, blocks, _ = _kernel([s for _, s in runs], values, None)
    assert np.isfinite(resid[blocks[1].start]).all()


@pytest.mark.parametrize("length", [200, 2000])
def test_a_run_whose_trial_1_diverges_first_is_named_by_trial_0(length):
    # at rate 1, basic from seed 0 diverges at sample 66 and from seed 1 at
    # 196: the run leaves when trial 0 (seed 1) diverges, in the last
    # interval of the 200 samples and at the second check of the 2,000, and
    # is named by trial 0 at its own sample
    values = generate(preset(2, seed=7)).values[:length]
    series = TimeSeries(values)
    spec = spec_for("basic", mk=10, seeds=(1, 0), lr=1.0)
    runs = [("adagrad", spec_for("adagrad", mk=10, seeds=(1, 0))), ("basic", spec)]
    records = _run_all(runs, series)
    message = "run diverged at sample 196 (optimizer basic, rate 1, trial seed 1)"
    assert [r.message for r in records] == ["", message]
    assert _alone(spec, series) == message
    assert _alone(replace(spec, trial_seeds=(1,)), series) == message
    assert _alone(replace(spec, trial_seeds=(0,)), series).startswith("run diverged at sample 66 ")


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e154, 1e300])
@pytest.mark.parametrize("d", [0, 1])
def test_the_kernel_gradient_is_the_doubled_residual_times_f(scale, d):
    # r * (2 f) and (2 r) * f round the same exact product once, even where
    # it overflows or underflows: near either end of the float range the
    # runs blow up, leave or stall alike
    values = scale * generate(preset(2, seed=7)).values[:1200]
    specs = [RunSpec(ModelConfig(mk=10, d=d), name, 0.05, 300.0 if name == "combined" else None,
                     (0, 1)) for name in OPTIMIZERS]
    specs.append(RunSpec(ModelConfig(mk=10, d=d), "momentum", 1.0, None, (0, 1)))
    for starts in (None, np.arange(0, 1200, 300)):
        resid, blocks, _ = _kernel(specs, values, starts)
        for s, block in zip(specs, blocks):
            assert resid[block].tobytes() == doubled_residual_rows(s, values, starts).tobytes()


@pytest.mark.parametrize("bad", [True, np.bool_(False), "0.1", 1j])
def test_runspec_rates_and_ramps_must_be_real_numbers(bad):
    shown = re.escape(repr(bad))
    with pytest.raises(ValueError, match=rf"^learning_rate must be a real number, got {shown}$"):
        spec_for(lr=bad)
    with pytest.raises(ValueError, match=rf"^ramp_length must be a real number, got {shown}$"):
        spec_for(optimizer="combined", ramp=bad)


def test_residual_curve_validation():
    idx = np.arange(3)
    with pytest.raises(ValueError, match="granularity"):
        ResidualCurve(idx, np.zeros(3), np.zeros((1, 3)), "weekly")
    with pytest.raises(ValueError, match="lengths differ"):
        ResidualCurve(idx, np.zeros(4), np.zeros((1, 4)), "sample")
    with pytest.raises(ValueError, match="per_trial"):
        ResidualCurve(idx, np.zeros(3), np.zeros((1, 4)), "sample")


def test_residual_curve_rejects_a_negative_index():
    with pytest.raises(ValueError, match=r"^indices must be >= 0, got -1$"):
        ResidualCurve(np.arange(-1, 2), np.zeros(3), np.zeros((1, 3)), "sample")


def test_normalize_batches_freezes_first_batch_params():
    b0 = MicroBatch(TimeSeries(np.array([0.0, 4.0, 2.0])))
    b1 = MicroBatch(TimeSeries(np.array([4.0, 8.0, 6.0])))
    n0, n1 = normalize_batches([b0, b1])
    np.testing.assert_allclose(n0.samples.values, [-1.0, 1.0, 0.0], atol=1e-15)
    # same affine map, so the second batch escapes [-1, 1]
    np.testing.assert_allclose(n1.samples.values, [1.0, 3.0, 2.0], atol=1e-12)
    with pytest.raises(ValueError, match="no batches"):
        normalize_batches([])


def test_a_constant_first_batch_is_an_error():
    # its zero range would map this batch and every later one to 0
    b0 = MicroBatch(TimeSeries(np.zeros(4)))
    b1 = MicroBatch(TimeSeries(np.array([1.0, 2.0])))
    with pytest.raises(ValueError) as info:
        normalize_batches([b0, b1])
    assert str(info.value) == (
        "first batch (batch 0) is constant at 0: it gives no range to normalize by")
    # a constant later batch is fine: the map comes from the first
    _, n1 = normalize_batches([b1, MicroBatch(TimeSeries(np.full(3, 2.0)))])
    np.testing.assert_array_equal(n1.samples.values, [1.0, 1.0, 1.0])


def test_compare_optimizers_returns_requested_curves(short_series):
    records = compare_optimizers(
        spec_for(optimizer="combined", ramp=50.0),
        short_series,
        ("basic", "amsgrad", "combined"),
    )
    assert [r.label for r in records] == ["basic", "amsgrad", "combined"]
    for r in records:
        assert r.spec.optimizer == r.label and not r.diverged and r.message == ""
        # only combined has a ramp, so each record's spec states the ramp it ran
        assert r.spec.ramp_length == (50.0 if r.label == "combined" else None)
        assert r.curve.per_trial.shape == (1, 397)
        assert r.score == float(r.curve.mean.mean())


def test_compare_optimizers_keeps_the_rules_that_did_not_diverge():
    # lr 1.0 on preset 2: basic blows up to about 2e47 without leaving the
    # floats, momentum, nesterov and combined overflow; the adaptive rules hold
    spec = spec_for(optimizer="combined", mk=10, lr=1.0, ramp=2000.0)
    records = compare_optimizers(spec, generate(preset(2, seed=7)), tuple(OPTIMIZERS))
    stable = {r.label: r for r in records if not r.diverged}
    assert list(stable) == ["adagrad", "rmsprop", "adam", "amsgrad"]
    for r in stable.values():
        assert r.curve.per_trial.max() <= 69.0
        alone = run_data(r.spec, generate(preset(2, seed=7)))
        np.testing.assert_array_equal(r.curve.per_trial, alone.per_trial)
    for r in records:
        if r.diverged:
            assert r.curve is None and r.score == float("inf")
            assert r.message.startswith("run diverged at sample ")
            assert f"(optimizer {r.label}, rate 1, trial seed 0)" in r.message


def test_grid_search_picks_lowest_tail(short_series):
    spec = spec_for()
    best, records = grid_search(spec, short_series, [0.05])
    assert best == 0.05 and len(records) == 1 and not records[0].diverged

    best, records = grid_search(spec, short_series, [0.05, 1e12])
    assert best == 0.05
    assert records[1].diverged and records[1].score == float("inf")
    assert "rate 1e+12" in records[1].message

    # every rate is scored by its whole-stream mean, per sample on a series
    # and per batch on a batch list, and the best rate has the lowest
    for data in (short_series, microbatches(short_series, 100)):
        best, grid = grid_search(spec, data, [0.01, 0.05, 0.2])
        for r in grid:
            assert r.score == float(r.curve.mean.mean())
            assert r.curve.granularity == ("sample" if data is short_series else "batch")
        scores = {r.spec.learning_rate: r.score for r in grid}
        assert scores[best] == min(scores.values())


def test_grid_search_validation(short_series):
    spec = spec_for()
    with pytest.raises(ValueError, match="grid is empty"):
        grid_search(spec, short_series, [])
    # a rate is checked where every run's is, when its RunSpec is built
    for bad in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            grid_search(spec, short_series, [bad, 0.1])
    with pytest.raises(DivergedError):
        run_data(spec_for(lr=1e12), short_series)
    with pytest.raises(ValueError, match="no stable rate"):
        grid_search(spec, short_series, [1e12, 1e13])


def test_sweep_lambda_labels_and_baselines(short_series):
    entries = sweep_lambda(spec_for(optimizer="combined", ramp=50.0), short_series, [5, 10])
    assert [e.label for e in entries] == [
        "combined_lambda_5",
        "combined_lambda_10",
        "amsgrad",
        "basic",
        "momentum",
    ]
    assert [e.spec.ramp_length for e in entries] == [5.0, 10.0, None, None, None]
    for e in entries:
        assert np.isfinite(e.score) and not e.diverged
        assert e.curve is not None
        assert e.score == float(e.curve.mean.mean())
    with pytest.raises(ValueError, match="ramp grid"):
        sweep_lambda(spec_for(), short_series, [])


def test_runspec_validation():
    with pytest.raises(ValueError, match="unknown optimizer"):
        spec_for(optimizer="sgd")
    for bad in (-0.1, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            spec_for(lr=bad)
    with pytest.raises(ValueError, match="trial seed"):
        spec_for(seeds=())
    assert spec_for(seeds=(0, 1, 2)).trials == 3
    # combined's ramp is checked when the spec is built, by the optimizers' own check
    for bad in (None, -1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match=f"combined requires a ramp_length > 0, got {bad}"):
            spec_for(optimizer="combined", ramp=bad)
    assert spec_for(optimizer="combined", ramp=math.inf).ramp_length == math.inf
    # ints and numpy reals are rates and ramps
    assert spec_for(lr=1).learning_rate == 1
    assert spec_for(lr=np.float32(0.05), optimizer="combined", ramp=np.int64(5)).ramp_length == 5
    # another rule has no ramp, so the spec states none, but a given one is
    # checked as combined's would be first
    assert spec_for(ramp=2000.0).ramp_length is None
    assert spec_for(ramp=math.inf).ramp_length is None
    for bad, message in (("x", "ramp_length must be a real number, got 'x'"),
                         (True, "ramp_length must be a real number, got True"),
                         (-1.0, "ramp_length must be > 0, got -1.0"),
                         (float("nan"), "ramp_length must be > 0, got nan")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunSpec(ModelConfig(mk=3), "basic", 0.05, bad)
    combined = spec_for(optimizer="combined", ramp=5.0)
    assert replace(combined, optimizer="adam") == spec_for(optimizer="adam")
    assert RunSpec(ModelConfig(mk=3), "basic", 0.05, 2000.0).ramp_length is None
    assert RunSpec(ModelConfig(mk=3), "basic", 0.05, 2000.0) == spec_for()
    # trial seeds are ints >= 0: -1 used to fail in the kernel, after the
    # data was loaded, and 1.5 with numpy's TypeError
    for bad in (-1, 1.5, 2.0, "3", True, None):
        with pytest.raises(ValueError, match=f"trial seeds must be ints >= 0, got {bad!r}"):
            spec_for(seeds=(0, bad))
    assert spec_for(seeds=(np.int64(4), 0)).trials == 2
