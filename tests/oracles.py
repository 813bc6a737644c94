"""Independent transcriptions that the tests hold the package to.

Each one is written from the definitions in README.md, not from the package
code: the forecast formula, a forecaster that re-differences its raw window
on every step, the per-batch residual, a micro-batch splitter, a per-sample
``learn_step`` loop, the plot's per-point coordinate map, the generator's
innovations and recurrence, and a one-run kernel loop that doubles the
residual before it multiplies the lag row.
``Recorder`` is an optimizer that keeps every gradient ``learn_step`` writes
into its ``grad`` buffer and returns a zero delta from ``advance()``, so the
forecaster's gradient is checked on the path that training uses, and the
coefficients keep their bits. ``delta_of`` steps a real optimizer on that
same path, and a test moves coefficients ``c`` by ``c - delta_of(opt, g)``.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from streamarima.experiment import DIVERGENCE_CHECK_INTERVAL, DIVERGENCE_FACTOR
from streamarima.model import ArimaModel, differences
from streamarima.optimizers import OPTIMIZERS, Optimizer, make_optimizer
from streamarima.plotting import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH
from streamarima.series import MicroBatch, TimeSeries


# the seven rules that the paper's combination is compared against
BASELINE_NAMES = tuple(name for name in OPTIMIZERS if name != "combined")


def delta_of(opt, grad):
    """The delta of one update of ``opt`` by ``grad``, as a fresh array.

    ``grad`` is copied into the optimizer's ``grad`` buffer, and ``advance()``
    runs as the kernel and ``learn_step`` run it.
    """
    np.copyto(opt.grad, grad)
    return opt.advance().copy()


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
    """An optimizer over ``dim`` coefficients that records each gradient and never moves them."""

    def __init__(self, dim):
        self.shape = (dim,)
        self.grad = np.zeros(dim)
        self.zero = np.zeros(dim)
        self.grads = []

    def advance(self):
        self.grads.append(self.grad.copy())
        return self.zero


def warmed_model(config, history, gamma=None, seed=0):
    """A model drawn from ``seed`` whose lag window holds ``history`` (mk + d samples)."""
    model = ArimaModel(config, seed)
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
        self.gamma = self.gamma - delta_of(optimizer, grad)
        self.window = self.window[1:] + [actual]
        return value, residual, grad


def batch_residual(predictions, actuals, window):
    """Mean |prediction - actual| over a batch, without its first ``window`` positions."""
    errors = [abs(p - a) for p, a in zip(predictions[window:], actuals[window:])]
    return sum(errors) / len(errors)


def microbatches(series, size):
    """Consecutive batches of ``size`` samples; a shorter remainder is dropped."""
    starts = range(0, len(series) - size + 1, size)
    return [MicroBatch(TimeSeries(series.values[s : s + size])) for s in starts]


def learn_step_forecasts(spec, values):
    """Forecasts of a learn_step loop, one model and optimizer per trial."""
    rows = []
    for seed in spec.trial_seeds:
        model = ArimaModel(spec.model, seed)
        opt = make_optimizer(spec.optimizer, spec.model.mk, spec.learning_rate, spec.ramp_length)
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


def innovations(seed, count, std):
    """The documented noise stream: Philox uniforms through Box-Muller, scaled by ``std``."""
    u = np.random.Generator(np.random.Philox(key=seed)).random(2 * count)
    r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    return std * r * np.cos(2.0 * np.pi * u[1::2])


def arma_samples(spec):
    """The raw samples of a ``GeneratorSpec``, one sample at a time.

    x[t] = eps[t] + alpha_1 x[t-1] + ... + alpha_p x[t-p]
                  + beta_1 eps[t-1] + ... + beta_q eps[t-q],
    added left to right on plain floats, without the terms whose lag reaches
    before sample 0. The shift's coefficients take over at sample
    burn_in + at_index, and the first burn_in samples are dropped.
    """
    total = spec.burn_in + spec.length
    eps = [float(e) for e in innovations(spec.seed, total, spec.noise_std)]
    x = []
    for t in range(total):
        coeffs = spec
        if spec.shift is not None and t >= spec.burn_in + spec.shift.at_index:
            coeffs = spec.shift
        value = eps[t]
        for i, a in enumerate(coeffs.alpha, start=1):
            if t - i >= 0:
                value += a * x[t - i]
        for i, b in enumerate(coeffs.beta, start=1):
            if t - i >= 0:
                value += b * eps[t - i]
        x.append(value)
    return np.array(x[spec.burn_in :])


def doubled_residual_rows(spec, values, starts=None):
    """One run's signed residual rows from a per-sample loop that doubles r, then multiplies f.

    Per sample: r = gamma @ f, plus the integration term when d > 0, minus
    the sample; the gradient is ``(2.0 * r) * f`` and gamma takes
    ``advance()``'s delta. Every DIVERGENCE_CHECK_INTERVAL samples the first
    trial's |r| is tested against DIVERGENCE_FACTOR times the largest
    |sample| at the scored positions; once it fails, the rest is nan. The
    lag rows are the same reversed strided view as the kernel's, so that
    ``gamma @ f`` sums alike.
    """
    model = spec.model
    window = model.window
    levels = differences(values, model.d)
    feats = sliding_window_view(levels[-1], model.mk)[:-1, ::-1]
    integ = sum(level[window - 1 - i : -1] for i, level in enumerate(levels[:-1]))
    actual = values[window:]
    scored = np.ones(values.size, dtype=bool)
    for s in () if starts is None else starts:
        scored[s : s + window] = False
    scored = scored[window:]
    bound = DIVERGENCE_FACTOR * np.abs(values).max()
    opt = Optimizer(model.mk, [(spec.optimizer, spec.learning_rate, spec.ramp_length,
                                spec.trials)])
    gamma = np.array([ArimaModel(model, s).gamma for s in spec.trial_seeds])
    resid = np.full((spec.trials, actual.size), np.nan)
    with np.errstate(all="ignore"):
        for j, f in enumerate(feats):
            r = gamma @ f
            if model.d:
                r += integ[j]
            r -= actual[j]
            resid[:, j] = r
            np.multiply((2.0 * r)[:, None], f, out=opt.grad)
            gamma -= opt.advance()
            if (j + 1) % DIVERGENCE_CHECK_INTERVAL == 0:
                span = slice(j + 1 - DIVERGENCE_CHECK_INTERVAL, j + 1)
                if (~(np.abs(resid[0, span]) <= bound) & scored[span]).any():
                    break
    return resid
