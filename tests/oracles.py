"""Independent transcriptions that the tests hold the package to.

Each one is written from the definitions in README.md, not from the package
code: the forecast formula, the per-batch residual, a micro-batch splitter
and a per-sample ``learn_step`` loop. ``Recorder`` is an optimizer that
keeps every gradient ``learn_step`` hands it and never moves the
coefficients, so the forecaster's gradient is checked on the path that
training uses.
"""

from dataclasses import replace

import numpy as np

from streamarima.model import ArimaModel
from streamarima.optimizers import Optimizer, make_optimizer
from streamarima.series import MicroBatch, TimeSeries


def forecast(gamma, history, d):
    """x_hat = sum_i gamma_i * diff_d(x, t - i) + sum_{j<d} diff_j(x, t - 1).

    ``history`` holds the samples up to t - 1, oldest first; diff_j is the
    j-th order difference, taken by recursion on plain floats.
    """
    history = [float(x) for x in history]

    def diff(j, k):
        return history[k] if j == 0 else diff(j - 1, k) - diff(j - 1, k - 1)

    last = len(history) - 1
    lags = sum(float(g) * diff(d, last - i) for i, g in enumerate(gamma))
    return lags + sum(diff(j, last) for j in range(d))


class Recorder(Optimizer):
    """Records the gradient of every step and returns a zero delta."""

    name = "recorder"

    def __init__(self, dim):
        super().__init__(dim, 1.0)
        self.grads = []

    def _delta(self, grad):
        self.grads.append(grad.copy())
        return np.zeros_like(grad)


def warmed_model(config, history, gamma=None):
    """A model whose lag window holds ``history`` (mk + d samples)."""
    model = ArimaModel(config)
    recorder = Recorder(config.mk)
    for x in history:
        assert model.learn_step(recorder, x) is None
    assert model.warm
    if gamma is not None:
        model.gamma = np.array(gamma, dtype=np.float64)
    return model


def probe(model, actual):
    """The Prediction and the gradient of one learn_step; gamma keeps its values."""
    recorder = Recorder(model.config.mk)
    pred = model.learn_step(recorder, actual)
    return pred, recorder.grads[0]


def batch_residual(predictions, actuals, window):
    """Mean |prediction - actual| over a batch, without its first ``window`` positions."""
    errors = [abs(p - a) for p, a in zip(predictions[window:], actuals[window:])]
    return sum(errors) / len(errors)


def microbatches(series, size):
    """Consecutive batches of ``size`` samples; a shorter remainder is dropped."""
    starts = range(0, len(series) - size + 1, size)
    return [
        MicroBatch(TimeSeries(series.values[s : s + size]), k)
        for k, s in enumerate(starts)
    ]


def learn_step_forecasts(spec, values):
    """Forecasts of a learn_step loop, one model and optimizer per trial."""
    rows = []
    for seed in spec.trial_seeds:
        model = ArimaModel(replace(spec.model, seed=seed))
        hyper = {"ramp_length": spec.ramp_length} if spec.optimizer == "combined" else {}
        opt = make_optimizer(spec.optimizer, spec.model.mk, spec.learning_rate, **hyper)
        preds = (model.learn_step(opt, x) for x in values)
        rows.append([p.value for p in preds if p is not None])
    return np.array(rows)
