"""Forecaster tests: prediction formula, analytic gradient, streaming contract.

Forecasts and gradients are read off ``learn_step`` itself, through an
optimizer that records the gradient and leaves the coefficients alone.
"""

import dataclasses
import re

import numpy as np
import pytest

from oracles import Recorder, WindowOracle, forecast, probe, warmed_model
from streamarima.model import ArimaModel, ModelConfig, Prediction, differences
from streamarima.optimizers import OPTIMIZERS, Optimizer, make_optimizer


def fd_gradient(gamma, history, d, actual, h=1e-6):
    """Central finite differences of the squared residual of the README forecast."""
    gamma = np.asarray(gamma, dtype=np.float64)
    out = np.empty_like(gamma)
    for i in range(gamma.size):
        hi = gamma.copy()
        lo = gamma.copy()
        hi[i] += h
        lo[i] -= h
        f_hi = (forecast(hi, history, d) - actual) ** 2
        f_lo = (forecast(lo, history, d) - actual) ** 2
        out[i] = (f_hi - f_lo) / (2 * h)
    return out


def learn_step_forecast(gamma, history, d):
    """The value learn_step predicts with coefficients ``gamma`` after ``history``."""
    model = warmed_model(ModelConfig(mk=len(gamma), d=d), history, gamma)
    pred, _ = probe(model, 0.0)
    return pred.value


# each hand example holds both the product path and the README transcription


def test_forecast_with_one_level_of_differencing():
    # gamma [0.5, 0.25] against first differences [3, 2] newest first,
    # plus the last level 6: 1.5 + 0.5 + 6
    for predict in (learn_step_forecast, forecast):
        assert predict([0.5, 0.25], [1.0, 3.0, 6.0], 1) == pytest.approx(8.0, abs=1e-12)


def test_forecast_without_differencing_is_reversed_dot():
    for predict in (learn_step_forecast, forecast):
        got = predict([0.5, 0.25], [1.0, 3.0], 0)
        assert got == pytest.approx(0.5 * 3.0 + 0.25 * 1.0, abs=1e-12)


def test_forecast_with_second_differences():
    # dd = 4 - 2*2 + 1 = 1, integration terms 4 and (4 - 2)
    for predict in (learn_step_forecast, forecast):
        got = predict([0.5], [1.0, 2.0, 4.0], 2)
        assert got == pytest.approx(0.5 * 1.0 + 4.0 + 2.0, abs=1e-12)


def test_differences_are_np_diff_bitwise():
    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 11, 301):
        x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
        levels = differences(x, 3)
        assert len(levels) == 4 and levels[0] is x
        for k, level in enumerate(levels):
            np.testing.assert_array_equal(level, np.diff(x, n=k), strict=True)
            assert level.tobytes() == np.diff(x, n=k).tobytes()
    assert differences(x, 0) == [x]


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(120):
        mk = int(rng.integers(1, 21))
        d = int(rng.integers(0, 2))
        config = ModelConfig(mk=mk, d=d)
        history = rng.normal(scale=2.0, size=mk + d)
        actual = float(rng.normal(scale=2.0))

        model = warmed_model(config, history, seed=trial)
        _, analytic = probe(model, actual)
        numeric = fd_gradient(model.gamma, history, d, actual)
        rel = np.abs(analytic - numeric) / np.maximum(
            1.0, np.maximum(np.abs(analytic), np.abs(numeric))
        )
        worst = max(worst, float(rel.max()))
    assert worst < 1e-6, f"worst relative gradient error {worst:.3e}"


def test_gradient_is_twice_residual_times_features():
    config = ModelConfig(mk=3, d=0)
    history = np.array([0.2, -0.4, 0.9])
    model = warmed_model(config, history, seed=1)
    gamma = model.gamma.copy()
    actual = 0.3
    pred, grad = probe(model, actual)
    assert pred.residual == pytest.approx(forecast(gamma, history, 0) - actual, abs=1e-12)
    expected = 2.0 * pred.residual * history[::-1]
    np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-12)
    # the recording optimizer returns a zero delta
    np.testing.assert_array_equal(model.gamma, gamma)


def test_warmup_contract():
    config = ModelConfig(mk=2, d=1)
    model = ArimaModel(config)
    opt = make_optimizer("basic", 2, 0.05)
    assert config.window == 3
    gamma_before = model.gamma.copy()
    for x in (0.1, 0.2, 0.3):
        assert not model.warm
        assert model.learn_step(opt, x) is None
    assert model.warm
    # warm-up must not touch the coefficients
    np.testing.assert_array_equal(model.gamma, gamma_before)
    pred = model.learn_step(opt, 0.4)
    assert pred is not None
    assert pred.residual == pytest.approx(pred.value - 0.4, abs=1e-15)


def test_history_eviction_keeps_last_window():
    config = ModelConfig(mk=3, d=1)
    model = ArimaModel(config)
    opt = make_optimizer("basic", 3, 1e-9)
    xs = np.arange(10.0)
    for x in xs:
        model.learn_step(opt, x)
    # the forecast sees exactly the last mk + d samples
    want = forecast(model.gamma, xs[-4:], 1)
    pred, _ = probe(model, 0.0)
    assert pred.value == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("rule", OPTIMIZERS)
def test_learn_step_is_the_windowed_oracle_bitwise(rule):
    # every stream wraps the lag ring several times; a short ramp puts the
    # combined rule's handover inside it
    rng = np.random.default_rng(11)
    ramp = 7.0 if rule == "combined" else None
    for d in (0, 1, 2, 3):
        for mk in (1, 2, 10):
            config = ModelConfig(mk=mk, d=d)
            xs = rng.normal(size=4 * config.window + 5).cumsum() * 0.1
            model, twin = ArimaModel(config, mk + d), ArimaModel(config, mk + d)
            oracle = WindowOracle(mk, d, model.gamma)
            opt = make_optimizer(rule, mk, 0.01, ramp)
            oracle_opt = make_optimizer(rule, mk, 0.01, ramp)
            for k, x in enumerate(xs):
                assert model.warm == twin.warm == (k >= config.window)
                want = oracle.learn_step(oracle_opt, x)
                if want is None:
                    assert twin.learn_step(Recorder(mk), x) is None
                    assert model.learn_step(opt, x) is None
                    continue
                twin.gamma = model.gamma.copy()
                pred, grad = probe(twin, x)
                value, residual, oracle_grad = want
                assert pred.value == value and pred.residual == residual
                assert grad.tobytes() == oracle_grad.tobytes()
                assert model.learn_step(opt, x) == pred
                assert model.gamma.tobytes() == oracle.gamma.tobytes()
            assert model.warm and np.all(np.isfinite(model.gamma))


@pytest.mark.parametrize("rule", OPTIMIZERS)
def test_learn_step_checks_each_optimizer_once_then_updates_gamma_in_place(rule):
    # learn_step checks the optimizer's shape, and never takes the checked step
    ramp = 7.0 if rule == "combined" else None
    model = ArimaModel(ModelConfig(mk=3, d=1))
    held = model.gamma
    xs = np.random.default_rng(2).normal(size=30).cumsum() * 0.1
    # the second optimizer arrives mid-stream, fresh
    for chunk in (xs[:15], xs[15:]):
        opt = make_optimizer(rule, 3, 0.01, ramp)
        checked = []
        opt.step = lambda coeffs, grad, step=opt.step: checked.append(grad) or step(coeffs, grad)
        scored = 0
        for x in chunk:
            before = model.gamma.copy()
            if model.learn_step(opt, x) is None:
                continue
            scored += 1
            assert model.gamma is held and not np.array_equal(held, before)
        assert checked == [] and opt.step_count == scored > 1
        assert np.all(np.isfinite(model.gamma))


def test_recorder_still_drives_an_in_place_model():
    model = ArimaModel(ModelConfig(mk=3, d=1))
    opt = make_optimizer("adam", 3, 0.01)
    for x in (0.1, 0.4, 0.2, 0.5, 0.3, 0.6):
        model.learn_step(opt, x)
    gamma = model.gamma.copy()
    pred, grad = probe(model, 0.7)
    assert model.gamma.tobytes() == gamma.tobytes()
    assert grad.shape == (3,) and pred.residual == pred.value - 0.7
    held = model.gamma
    model.learn_step(opt, 0.8)
    assert model.gamma is held and not np.array_equal(held, gamma)


@pytest.mark.parametrize("wrong, message", [
    (make_optimizer("basic", 4, 0.05), r"optimizer shape \(4,\) is not gamma's, \(3,\)"),
    (Optimizer(3, [("basic", 0.05, None, 2)]), r"optimizer shape \(2, 3\) is not gamma's, \(3,\)"),
], ids=["wrong-dim", "bank"])
def test_a_mismatched_optimizer_raises_and_leaves_the_model_as_it_was(wrong, message):
    config = ModelConfig(mk=3, d=1)
    model, twin = ArimaModel(config), ArimaModel(config)
    opt, twin_opt = make_optimizer("momentum", 3, 0.01), make_optimizer("momentum", 3, 0.01)
    xs = np.random.default_rng(4).normal(size=20).cumsum() * 0.1
    for x in xs[:10]:
        model.learn_step(opt, x)
        twin.learn_step(twin_opt, x)
    gamma = model.gamma
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            model.learn_step(wrong, xs[10])
    assert model.gamma is gamma and gamma.tobytes() == twin.gamma.tobytes()
    # the ring, the newest levels and the step count are as if the calls never came
    for x in xs[10:]:
        assert model.learn_step(opt, x) == twin.learn_step(twin_opt, x)
    assert model.gamma.tobytes() == twin.gamma.tobytes()


def test_prediction_is_a_named_pair():
    model = warmed_model(ModelConfig(mk=2, d=0), [0.1, 0.2])
    pred = model.learn_step(make_optimizer("basic", 2, 0.05), 0.3)
    assert isinstance(pred, Prediction)
    assert pred == (pred.value, pred.residual) and pred.residual == pred.value - 0.3
    with pytest.raises(AttributeError):
        pred.value = 0.0
    assert repr(pred) == f"Prediction(value={pred.value!r}, residual={pred.residual!r})"
    assert repr(Prediction(1.5, -0.25)) == "Prediction(value=1.5, residual=-0.25)"


def test_learn_step_updates_match_manual_sgd():
    lr = 0.05
    config = ModelConfig(mk=2, d=0)
    model = ArimaModel(config, 3)
    opt = make_optimizer("basic", 2, lr)
    model.learn_step(opt, 0.5)
    model.learn_step(opt, -0.2)

    gamma = model.gamma.copy()
    hist = np.array([0.5, -0.2])
    actual = 0.7
    pred = model.learn_step(opt, actual)

    feats = hist[::-1]
    value = float(feats @ gamma)
    assert pred.value == pytest.approx(value, abs=1e-15)
    expected_gamma = gamma - lr * 2.0 * (value - actual) * feats
    np.testing.assert_allclose(model.gamma, expected_gamma, rtol=0, atol=1e-15)


def test_prediction_uses_only_past_samples():
    rng = np.random.default_rng(9)
    xs = rng.normal(size=30)
    ys = xs.copy()
    ys[-1] += 100.0

    def run(series):
        config = ModelConfig(mk=4, d=0)
        model = ArimaModel(config)
        opt = make_optimizer("momentum", 4, 0.05)
        return [
            p.value for x in series if (p := model.learn_step(opt, x)) is not None
        ]

    a, b = run(xs), run(ys)
    assert a[:-1] == b[:-1]
    assert a[-1] == b[-1]  # forecast made before the corrupted sample arrives


def test_rejects_non_finite_samples():
    model = ArimaModel(ModelConfig(mk=2, d=0))
    opt = make_optimizer("basic", 2, 0.05)
    with pytest.raises(ValueError, match="invalid sample"):
        model.learn_step(opt, float("nan"))
    with pytest.raises(ValueError, match="invalid sample"):
        model.learn_step(opt, float("inf"))


def test_initialization_is_seeded_and_bounded():
    a = ArimaModel(ModelConfig(mk=50, d=0), 11)
    b = ArimaModel(ModelConfig(mk=50, d=0), seed=11)
    c = ArimaModel(ModelConfig(mk=50, d=0), 12)
    np.testing.assert_array_equal(a.gamma, b.gamma)
    assert not np.array_equal(a.gamma, c.gamma)
    assert np.all(a.gamma >= -0.5) and np.all(a.gamma <= 0.5)
    want = np.random.default_rng(11).uniform(-0.5, 0.5, 50)
    assert a.gamma.tobytes() == want.tobytes()
    config = ModelConfig(mk=3)
    assert ArimaModel(config).gamma.tobytes() == ArimaModel(config, 0).gamma.tobytes()
    # the seed is checked as RunSpec checks trial seeds; numpy used to raise
    # its own errors for 1.5 and -1, and took True as 1
    for bad in (1.5, True, -1, "0"):
        with pytest.raises(ValueError, match=f"^seed must be an int >= 0, got {re.escape(repr(bad))}$"):
            ArimaModel(config, bad)
    for seed in (0, np.int64(3), 2**70):
        want = np.random.default_rng(seed).uniform(-0.5, 0.5, 3)
        assert ArimaModel(config, seed).gamma.tobytes() == want.tobytes()


def test_config_validation():
    with pytest.raises(ValueError, match="mk"):
        ModelConfig(mk=0)
    with pytest.raises(ValueError, match="d must be"):
        ModelConfig(mk=2, d=-1)
    assert ModelConfig(mk=5, d=2).window == 7
    # only ints: 2.5 used to fail later, in numpy, with a TypeError
    for bad in (2.5, 3.0, "3", True):
        with pytest.raises(ValueError, match=f"mk must be an int >= 1, got {bad!r}"):
            ModelConfig(mk=bad)
        with pytest.raises(ValueError, match=f"d must be an int >= 0, got {bad!r}"):
            ModelConfig(mk=2, d=bad)
    config = ModelConfig(mk=np.int64(4), d=np.int32(1))
    assert config.window == 5 and ArimaModel(config).gamma.shape == (4,)
    # the config is the shape alone; the seed is the model's
    assert [f.name for f in dataclasses.fields(ModelConfig)] == ["mk", "d"]
    with pytest.raises(TypeError, match="seed"):
        ModelConfig(mk=3, seed=5)
