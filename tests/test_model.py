"""Forecaster tests: prediction formula, analytic gradient, streaming contract.

Forecasts and gradients are read off ``learn_step`` itself, through an
optimizer that records the gradient and leaves the coefficients alone.
"""

import numpy as np
import pytest

from oracles import Recorder, WindowOracle, forecast, probe, warmed_model
from streamarima.model import ArimaModel, ModelConfig, differences
from streamarima.optimizers import OPTIMIZERS, make_optimizer


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
        config = ModelConfig(mk=mk, d=d, seed=trial)
        history = rng.normal(scale=2.0, size=mk + d)
        actual = float(rng.normal(scale=2.0))

        model = warmed_model(config, history)
        _, analytic = probe(model, actual)
        numeric = fd_gradient(model.gamma, history, d, actual)
        rel = np.abs(analytic - numeric) / np.maximum(
            1.0, np.maximum(np.abs(analytic), np.abs(numeric))
        )
        worst = max(worst, float(rel.max()))
    assert worst < 1e-6, f"worst relative gradient error {worst:.3e}"


def test_gradient_is_twice_residual_times_features():
    config = ModelConfig(mk=3, d=0, seed=1)
    history = np.array([0.2, -0.4, 0.9])
    model = warmed_model(config, history)
    gamma = model.gamma.copy()
    actual = 0.3
    pred, grad = probe(model, actual)
    assert pred.residual == pytest.approx(forecast(gamma, history, 0) - actual, abs=1e-12)
    expected = 2.0 * pred.residual * history[::-1]
    np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-12)
    # the recording optimizer returns a zero delta
    np.testing.assert_array_equal(model.gamma, gamma)


def test_warmup_contract():
    config = ModelConfig(mk=2, d=1, seed=0)
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
    config = ModelConfig(mk=3, d=1, seed=0)
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
            config = ModelConfig(mk=mk, d=d, seed=mk + d)
            xs = rng.normal(size=4 * config.window + 5).cumsum() * 0.1
            model, twin = ArimaModel(config), ArimaModel(config)
            oracle = WindowOracle(mk, d, model.gamma)
            opt = make_optimizer(rule, mk, 0.01, ramp)
            oracle_opt = make_optimizer(rule, mk, 0.01, ramp)
            for k, x in enumerate(xs):
                assert model.warm == twin.warm == (k >= config.window)
                want = oracle.learn_step(oracle_opt, x)
                if want is None:
                    assert twin.learn_step(Recorder(), x) is None
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


def test_learn_step_updates_match_manual_sgd():
    lr = 0.05
    config = ModelConfig(mk=2, d=0, seed=3)
    model = ArimaModel(config)
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
        config = ModelConfig(mk=4, d=0, seed=0)
        model = ArimaModel(config)
        opt = make_optimizer("momentum", 4, 0.05)
        return [
            p.value for x in series if (p := model.learn_step(opt, x)) is not None
        ]

    a, b = run(xs), run(ys)
    assert a[:-1] == b[:-1]
    assert a[-1] == b[-1]  # forecast made before the corrupted sample arrives


def test_rejects_non_finite_samples():
    model = ArimaModel(ModelConfig(mk=2, d=0, seed=0))
    opt = make_optimizer("basic", 2, 0.05)
    with pytest.raises(ValueError, match="invalid sample"):
        model.learn_step(opt, float("nan"))
    with pytest.raises(ValueError, match="invalid sample"):
        model.learn_step(opt, float("inf"))


def test_initialization_is_seeded_and_bounded():
    a = ArimaModel(ModelConfig(mk=50, d=0, seed=11))
    b = ArimaModel(ModelConfig(mk=50, d=0, seed=11))
    c = ArimaModel(ModelConfig(mk=50, d=0, seed=12))
    np.testing.assert_array_equal(a.gamma, b.gamma)
    assert not np.array_equal(a.gamma, c.gamma)
    assert np.all(a.gamma >= -0.5) and np.all(a.gamma <= 0.5)


def test_config_validation():
    with pytest.raises(ValueError, match="mk"):
        ModelConfig(mk=0)
    with pytest.raises(ValueError, match="d must be"):
        ModelConfig(mk=2, d=-1)
    assert ModelConfig(mk=5, d=2).window == 7
