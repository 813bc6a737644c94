"""AR-style online forecaster over differenced history.

The model keeps the last ``mk + d`` raw observations (oldest first) and
predicts the next sample as

    x_hat = sum_i gamma[i] * (d-th difference at lag i+1)
          + sum_{j<d} (j-th difference at the most recent position)

so gamma[0] multiplies the most recent difference. With d = 0 this is a
plain AR(mk) predictor; the second sum restores the integrated levels for
d >= 1. Loss per sample is the squared residual, and the gradient with
respect to gamma is analytic: 2 * residual * (reversed d-th differences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimizers import Optimizer


@dataclass(frozen=True)
class ModelConfig:
    """Structure and initialization of one forecaster instance."""

    mk: int
    d: int = 0
    init_lo: float = -0.5
    init_hi: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.mk < 1:
            raise ValueError(f"mk must be >= 1, got {self.mk}")
        if self.d < 0:
            raise ValueError(f"d must be >= 0, got {self.d}")
        if not (self.init_lo <= self.init_hi):
            raise ValueError("init_lo must be <= init_hi")

    @property
    def window(self) -> int:
        return self.mk + self.d


@dataclass(frozen=True)
class Prediction:
    """One scored forecast; residual = value - actual."""

    value: float
    residual: float


def _features(history: np.ndarray, d: int) -> tuple[np.ndarray, float]:
    """Reversed d-th differences (newest first) plus the integration terms."""
    diffs = history if d == 0 else np.diff(history, n=d)
    integ = 0.0
    for i in range(d):
        integ += history[-1] if i == 0 else np.diff(history, n=i)[-1]
    return diffs[::-1], integ


def forecast(gamma, history, d: int) -> float:
    """Pure forecast from explicit coefficients and raw history (oldest first)."""
    gamma = np.asarray(gamma, dtype=np.float64)
    history = np.asarray(history, dtype=np.float64)
    if history.size != gamma.size + d:
        raise ValueError(
            f"history length {history.size} does not match mk + d = {gamma.size + d}"
        )
    feats, integ = _features(history, d)
    return float(np.dot(gamma, feats) + integ)


class ArimaModel:
    """Streaming forecaster with an online-updated coefficient vector."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.gamma = rng.uniform(config.init_lo, config.init_hi, config.mk)
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

    @staticmethod
    def _check_sample(actual) -> float:
        actual = float(actual)
        if not math.isfinite(actual):
            raise ValueError(f"invalid sample: {actual}")
        return actual

    def predict(self) -> float:
        if not self.warm:
            raise ValueError("model is still warming up, no forecast available")
        feats, integ = _features(self._hist, self.config.d)
        return float(np.dot(self.gamma, feats) + integ)

    def gradient(self, actual) -> np.ndarray:
        """Analytic gradient of the squared residual at the current state."""
        actual = self._check_sample(actual)
        if not self.warm:
            raise ValueError("model is still warming up, no gradient available")
        feats, integ = _features(self._hist, self.config.d)
        residual = float(np.dot(self.gamma, feats) + integ) - actual
        return (2.0 * residual) * feats

    def learn_step(self, optimizer: Optimizer, actual) -> Prediction | None:
        """Consume one sample: forecast it, update gamma, absorb it into history.

        During warm-up the sample only extends history and None is returned.
        """
        actual = self._check_sample(actual)
        if not self.warm:
            self._push(actual)
            return None
        feats, integ = _features(self._hist, self.config.d)
        value = float(np.dot(self.gamma, feats) + integ)
        residual = value - actual
        grad = (2.0 * residual) * feats
        self.gamma = optimizer.step(self.gamma, grad)
        self._push(actual)
        return Prediction(value=value, residual=residual)
