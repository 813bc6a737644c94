"""AR-style online forecaster over differenced history.

The model keeps the last ``mk + d`` raw observations (oldest first) and
predicts the next sample as

    x_hat = sum_i gamma[i] * (d-th difference at lag i+1)
          + sum_{j<d} (j-th difference at the most recent position)

so gamma[0] multiplies the most recent difference. With d = 0 this is a
plain AR(mk) predictor; the second sum restores the integrated levels for
d >= 1. Loss per sample is the squared residual, and the gradient with
respect to gamma is analytic: 2 * residual * (reversed d-th differences).

``learn_step`` is the per-sample path for one model; the experiment
harness runs the same recurrence for many trials at once in its kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimizers import Optimizer


INIT_BOUND = 0.5  # coefficients start at U[-INIT_BOUND, INIT_BOUND]


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
    """Structure and initialization seed of one forecaster instance."""

    mk: int
    d: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.mk < 1:
            raise ValueError(f"mk must be >= 1, got {self.mk}")
        if self.d < 0:
            raise ValueError(f"d must be >= 0, got {self.d}")

    @property
    def window(self) -> int:
        return self.mk + self.d


@dataclass(frozen=True)
class Prediction:
    """One scored forecast; residual = value - actual."""

    value: float
    residual: float


class ArimaModel:
    """Streaming forecaster with an online-updated coefficient vector."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.gamma = rng.uniform(-INIT_BOUND, INIT_BOUND, config.mk)
        self._hist = np.empty(config.window)
        self._filled = 0

    @property
    def warm(self) -> bool:
        return self._filled == self.config.window

    def _push(self, x: float) -> None:
        if self._filled < self.config.window:
            self._hist[self._filled] = x
            self._filled += 1
        else:
            self._hist[:-1] = self._hist[1:]
            self._hist[-1] = x

    def learn_step(self, optimizer: Optimizer, actual) -> Prediction | None:
        """Consume one sample: forecast it, update gamma, absorb it into history.

        During warm-up the sample only extends history and None is returned.
        The features are the reversed d-th differences of the history, newest
        first, from the same ``differences`` as the kernel's, built here for
        one row: the kernel's strided view costs several times more per call.
        """
        actual = float(actual)
        if not math.isfinite(actual):
            raise ValueError(f"invalid sample: {actual}")
        if not self.warm:
            self._push(actual)
            return None
        levels = differences(self._hist, self.config.d)
        feats = levels[-1][::-1]
        integ = 0.0
        for level in levels[:-1]:
            integ += level[-1]
        value = float(np.dot(self.gamma, feats) + integ)
        residual = value - actual
        grad = (2.0 * residual) * feats
        self.gamma = optimizer.step(self.gamma, grad)
        self._push(actual)
        return Prediction(value=value, residual=residual)
