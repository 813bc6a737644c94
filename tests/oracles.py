"""Independent transcriptions that the tests hold the package to.

Each one is written from the definitions in README.md, not from the package
code: the forecast formula, a forecaster that re-differences its raw window
on every step, the per-batch residual, a micro-batch splitter, a per-sample
``learn_step`` loop and the plot's per-point coordinate map.
``Recorder`` is an optimizer that keeps every gradient ``learn_step`` hands
it and never moves the coefficients, so the forecaster's gradient is
checked on the path that training uses.
"""

from dataclasses import replace

import numpy as np

from streamarima.model import ArimaModel
from streamarima.optimizers import make_optimizer
from streamarima.plotting import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH
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


class Recorder:
    """Records the gradient of every step and leaves the coefficients as they are."""

    def __init__(self):
        self.grads = []

    def step(self, coeffs, grad):
        self.grads.append(np.array(grad, dtype=np.float64))
        return np.array(coeffs, dtype=np.float64)


def warmed_model(config, history, gamma=None):
    """A model whose lag window holds ``history`` (mk + d samples)."""
    model = ArimaModel(config)
    recorder = Recorder()
    for x in history:
        assert model.learn_step(recorder, x) is None
    assert model.warm
    if gamma is not None:
        model.gamma = np.array(gamma, dtype=np.float64)
    return model


def probe(model, actual):
    """The Prediction and the gradient of one learn_step; gamma keeps its values."""
    recorder = Recorder()
    pred = model.learn_step(recorder, actual)
    return pred, recorder.grads[0]


class WindowOracle:
    """``learn_step`` recomputed from the last ``mk + d`` raw samples on every step.

    Each forecast takes the features as ``np.diff(window, d)[::-1]``, the
    d-th differences newest first, and the integration term as the sum, from
    0.0 and level by level, of the newest j-th difference for j < d. The
    arithmetic is the same, operation for operation, as a streaming model
    that keeps each difference once, so the two must agree bitwise.
    """

    def __init__(self, mk, d, gamma):
        self.mk, self.d = mk, d
        self.gamma = np.array(gamma, dtype=np.float64)
        self.window = []

    def learn_step(self, optimizer, actual):
        """``(value, residual, gradient)`` of one step, or None during warm-up."""
        actual = float(actual)
        if len(self.window) < self.mk + self.d:
            self.window.append(actual)
            return None
        window = np.array(self.window)
        feats = np.diff(window, self.d)[::-1]
        integ = 0.0
        for j in range(self.d):
            integ += np.diff(window, j)[-1]
        value = float(np.dot(self.gamma, feats) + integ)
        residual = value - actual
        grad = (2.0 * residual) * feats
        self.gamma = optimizer.step(self.gamma, grad)
        self.window = self.window[1:] + [actual]
        return value, residual, grad


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
        ramp = spec.ramp_length if spec.optimizer == "combined" else None
        opt = make_optimizer(spec.optimizer, spec.model.mk, spec.learning_rate, ramp)
        preds = (model.learn_step(opt, x) for x in values)
        rows.append([p.value for p in preds if p is not None])
    return np.array(rows)


def polyline_points(curves):
    """The ``points`` attribute of each curve's polyline, computed point by point.

    The plot area spans the x range of all curves and their y range padded
    by 5% at each end; a flat range is widened to 1 first. Each point maps
    linearly into the area, y pointing down, and is written ``"x,y"`` with
    two decimals; points are separated by one space.
    """
    xs = [float(v) for x, _ in curves.values() for v in np.asarray(x, dtype=np.float64)]
    ys = [float(v) for _, y in curves.values() for v in np.asarray(y, dtype=np.float64)]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    out = []
    for x, y in curves.values():
        pts = []
        for a, b in zip(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)):
            px = MARGIN_L + (float(a) - x_lo) / (x_hi - x_lo) * plot_w
            py = MARGIN_T + (y_hi - float(b)) / (y_hi - y_lo) * plot_h
            pts.append(f"{px:.2f},{py:.2f}")
        out.append(" ".join(pts))
    return out
