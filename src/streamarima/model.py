"""AR-style online forecaster over differenced history.

The model forecasts the next sample from the last ``mk + d`` observations as

    x_hat = sum_i gamma[i] * (d-th difference at lag i+1)
          + sum_{j<d} (j-th difference at the most recent position)

so gamma[0] multiplies the most recent difference. With d = 0 this is a
plain AR(mk) predictor; the second sum restores the integrated levels for
d >= 1. Loss per sample is the squared residual, and the gradient with
respect to gamma is analytic: 2 * residual * (d-th differences, newest first).

``learn_step`` is the per-sample path for one model. It keeps each
difference once, as it arrives, rather than re-differencing its window, so
a step costs the same bookkeeping whatever mk is. It writes each gradient
into the optimizer's ``grad`` buffer and updates gamma in place through the
unchecked ``advance()``, as the experiment harness's kernel does. That
kernel runs the same recurrence for many trials at once, over the whole
series' ``differences``, with each trial's coefficients drawn by ``ArimaModel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .optimizers import Optimizer
from .series import _is_int


INIT_BOUND = 0.5  # a seed draws the coefficients from U[-INIT_BOUND, INIT_BOUND]


def differences(x: np.ndarray, d: int) -> list[np.ndarray]:
    """The levels ``[x, diff_1(x), ..., diff_d(x)]`` of ``x``, oldest first.

    Each level is ``a[1:] - a[:-1]`` of the one before, which is what
    ``np.diff`` computes, without its per-call overhead on a short window.
    """
    levels = [x]
    for _ in range(d):
        x = x[1:] - x[:-1]
        levels.append(x)
    return levels


@dataclass(frozen=True)
class ModelConfig:
    """Structure of one forecaster: ``mk`` coefficients over d-th differences."""

    mk: int
    d: int = 0

    def __post_init__(self):
        if not (_is_int(self.mk) and self.mk >= 1):
            raise ValueError(f"mk must be an int >= 1, got {self.mk!r}")
        if not (_is_int(self.d) and self.d >= 0):
            raise ValueError(f"d must be an int >= 0, got {self.d!r}")

    @property
    def window(self) -> int:
        return self.mk + self.d


class Prediction(NamedTuple):
    """One scored forecast; residual = value - actual."""

    value: float
    residual: float


class ArimaModel:
    """Streaming forecaster whose coefficients, drawn from ``seed``, are updated online.

    Once warm, the lag window is a ring of ``2 * mk`` d-th differences,
    newest first: each new one is written at ``i`` and at ``i + mk``, one
    place before the last, so the feature row is always the one contiguous
    slice ``ring[i : i + mk]``, one of the ``mk`` row views made with the
    ring. The newest value of each level ``0..d-1``
    is a float, and a new sample is carried down the levels by one
    subtraction per level, the same operation as ``a[1:] - a[:-1]``.
    ``np.dot`` copies a reversed view into a contiguous row before its BLAS
    dot, so handing it the newest-first row directly sums the same terms in
    the same order, without the copy.

    ``gamma`` is one array for the life of the model, updated in place, so
    a caller that wants to keep its values copies it. Twice the residual is
    written into a 0-d array before it scales the features, because numpy
    multiplies an array by a 0-d array faster than by a Python float.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        if not (_is_int(seed) and seed >= 0):
            raise ValueError(f"seed must be an int >= 0, got {seed!r}")
        self.config = config
        rng = np.random.default_rng(seed)
        self.gamma = rng.uniform(-INIT_BOUND, INIT_BOUND, config.mk)
        self._ring = np.empty(2 * config.mk)
        self._rows = [self._ring[i : i + config.mk] for i in range(config.mk)]
        self._i = 0
        self._newest: list[float] = []
        self._warmup: list[float] | None = []
        self._twice_residual = np.zeros(())

    @property
    def warm(self) -> bool:
        return self._warmup is None

    def _fill(self, x: float) -> None:
        """Extend the warm-up history; once it spans the window, build the ring."""
        self._warmup.append(x)
        if len(self._warmup) == self.config.window:
            levels = differences(np.array(self._warmup), self.config.d)
            self._newest = [float(level[-1]) for level in levels[:-1]]
            mk = self.config.mk
            self._ring[:mk] = self._ring[mk:] = levels[-1][::-1]
            self._warmup = None

    def learn_step(self, optimizer: Optimizer, actual) -> Prediction | None:
        """Consume one sample: forecast it, update gamma, absorb it into history.

        During warm-up the sample only extends history and None is returned.
        The features are the d-th differences of the last ``mk + d`` samples,
        newest first, read from the ring as one contiguous slice. Absorbing
        the sample costs one subtraction per level and one write to the
        ring, whatever mk is.

        The gradient is written into ``optimizer.grad`` and
        ``gamma -= optimizer.advance()`` updates gamma in place, without
        allocating. An optimizer whose ``shape`` is not gamma's raises
        before anything changes.
        """
        actual = float(actual)
        if not math.isfinite(actual):
            raise ValueError(f"invalid sample: {actual}")
        if self._warmup is not None:
            self._fill(actual)
            return None
        gamma, mk, i, newest = self.gamma, self.config.mk, self._i, self._newest
        if optimizer.shape != gamma.shape:
            raise ValueError(f"optimizer shape {optimizer.shape} is not gamma's, {gamma.shape}")
        feats = self._rows[i]
        integ = 0.0
        for level in newest:
            integ += level
        value = float(np.dot(gamma, feats)) + integ
        residual = value - actual
        twice = self._twice_residual
        twice[()] = 2.0 * residual
        np.multiply(twice, feats, out=optimizer.grad)
        gamma -= optimizer.advance()
        x = actual
        for j, prev in enumerate(newest):
            newest[j] = x
            x = x - prev
        i = (i or mk) - 1
        self._ring[i] = self._ring[i + mk] = x
        self._i = i
        return Prediction(value, residual)
