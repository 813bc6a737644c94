"""Online gradient descent update rules over a fixed-length coefficient vector.

Every optimizer exposes the same two calls:

* ``update_direction(grad)`` advances internal state and returns the delta
  that a step would subtract from the coefficients,
* ``step(coeffs, grad)`` returns ``coeffs - update_direction(grad)``.

Deltas never depend on the coefficient values themselves, only on the
gradient history, so steps are translation equivariant.

Coefficients and gradients may carry leading axes, one row per trial: state
starts as zeros of shape ``(dim,)`` and broadcasts on the first step.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_MOMENTUM = 0.9
DEFAULT_RHO = 0.9
DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.999
DEFAULT_EPS = 1e-8


def _check_unit_interval(name: str, value: float) -> float:
    if not (0.0 <= value < 1.0):
        raise ValueError(f"{name} must lie in [0, 1), got {value}")
    return float(value)


class Optimizer:
    """Base class holding the step count and shared validation."""

    name = "base"

    def __init__(self, dim: int, learning_rate: float):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not (math.isfinite(learning_rate) and learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
        self.dim = int(dim)
        self.learning_rate = float(learning_rate)
        self.step_count = 0

    def _check_grad(self, grad) -> np.ndarray:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape[-1:] != (self.dim,):
            raise ValueError(f"gradient shape {grad.shape} does not match dim {self.dim}")
        return grad

    def update_direction(self, grad) -> np.ndarray:
        raise NotImplementedError

    def step(self, coeffs, grad) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape[-1:] != (self.dim,):
            raise ValueError(f"coefficient shape {coeffs.shape} does not match dim {self.dim}")
        return coeffs - self.update_direction(grad)


class Basic(Optimizer):
    """Plain online gradient descent: delta = lr * grad."""

    name = "basic"

    def update_direction(self, grad) -> np.ndarray:
        grad = self._check_grad(grad)
        self.step_count += 1
        return self.learning_rate * grad


class Momentum(Optimizer):
    """Heavy-ball velocity: v <- mu*v + lr*grad, delta = v."""

    name = "momentum"

    def __init__(self, dim, learning_rate, momentum: float = DEFAULT_MOMENTUM):
        super().__init__(dim, learning_rate)
        self.momentum = _check_unit_interval("momentum", momentum)
        self.velocity = np.zeros(dim)

    def update_direction(self, grad) -> np.ndarray:
        grad = self._check_grad(grad)
        self.step_count += 1
        self.velocity = self.momentum * self.velocity + self.learning_rate * grad
        return self.velocity.copy()


class Nesterov(Optimizer):
    """Look-ahead momentum: v <- mu*v + lr*grad, delta = mu*v + lr*grad."""

    name = "nesterov"

    def __init__(self, dim, learning_rate, momentum: float = DEFAULT_MOMENTUM):
        super().__init__(dim, learning_rate)
        self.momentum = _check_unit_interval("momentum", momentum)
        self.velocity = np.zeros(dim)

    def update_direction(self, grad) -> np.ndarray:
        grad = self._check_grad(grad)
        self.step_count += 1
        self.velocity = self.momentum * self.velocity + self.learning_rate * grad
        return self.momentum * self.velocity + self.learning_rate * grad


class Adagrad(Optimizer):
    """Per-coordinate scaling by the running sum of squared gradients."""

    name = "adagrad"

    def __init__(self, dim, learning_rate, eps: float = DEFAULT_EPS):
        super().__init__(dim, learning_rate)
        if eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.eps = float(eps)
        self.accum = np.zeros(dim)

    def update_direction(self, grad) -> np.ndarray:
        grad = self._check_grad(grad)
        self.step_count += 1
        self.accum = self.accum + grad * grad
        return self.learning_rate * grad / (np.sqrt(self.accum) + self.eps)


class RMSProp(Optimizer):
    """Adagrad with an exponentially decaying squared-gradient average."""

    name = "rmsprop"

    def __init__(self, dim, learning_rate, rho: float = DEFAULT_RHO, eps: float = DEFAULT_EPS):
        super().__init__(dim, learning_rate)
        self.rho = _check_unit_interval("rho", rho)
        if eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.eps = float(eps)
        self.sq_avg = np.zeros(dim)

    def update_direction(self, grad) -> np.ndarray:
        grad = self._check_grad(grad)
        self.step_count += 1
        self.sq_avg = self.rho * self.sq_avg + (1.0 - self.rho) * grad * grad
        return self.learning_rate * grad / (np.sqrt(self.sq_avg) + self.eps)


class Adam(Optimizer):
    """First and second moment estimates, both bias corrected."""

    name = "adam"

    def __init__(
        self,
        dim,
        learning_rate,
        beta1: float = DEFAULT_BETA1,
        beta2: float = DEFAULT_BETA2,
        eps: float = DEFAULT_EPS,
    ):
        super().__init__(dim, learning_rate)
        self.beta1 = _check_unit_interval("beta1", beta1)
        self.beta2 = _check_unit_interval("beta2", beta2)
        if eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.eps = float(eps)
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)

    def update_direction(self, grad) -> np.ndarray:
        grad = self._check_grad(grad)
        self.step_count += 1
        t = self.step_count
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**t)
        v_hat = self.v / (1.0 - self.beta2**t)
        return self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


class AMSGrad(Optimizer):
    """Adam with a non-decreasing second moment and no correction on it.

    The running max is taken over the raw second moment, so the effective
    per-coordinate step never grows between consecutive updates.
    """

    name = "amsgrad"

    def __init__(
        self,
        dim,
        learning_rate,
        beta1: float = DEFAULT_BETA1,
        beta2: float = DEFAULT_BETA2,
        eps: float = DEFAULT_EPS,
    ):
        super().__init__(dim, learning_rate)
        self.beta1 = _check_unit_interval("beta1", beta1)
        self.beta2 = _check_unit_interval("beta2", beta2)
        if eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.eps = float(eps)
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.v_max = np.zeros(dim)

    def update_direction(self, grad) -> np.ndarray:
        grad = self._check_grad(grad)
        self.step_count += 1
        t = self.step_count
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        self.v_max = np.maximum(self.v_max, self.v)
        m_hat = self.m / (1.0 - self.beta1**t)
        return self.learning_rate * m_hat / (np.sqrt(self.v_max) + self.eps)


def blend(t: int, ramp_length: float, a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Linear ramp between two update directions.

    Returns exactly ``a`` at t = 0, the pointwise linear mix while
    0 < t < ramp_length, and exactly ``m`` from t = ramp_length onward.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not ramp_length > 0.0:
        raise ValueError(f"ramp_length must be > 0, got {ramp_length}")
    a = np.asarray(a, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if a.shape != m.shape:
        raise ValueError(f"direction shapes differ: {a.shape} vs {m.shape}")
    w = t / ramp_length
    if w <= 0.0:
        return a.copy()
    if w >= 1.0:
        return m.copy()
    return (1.0 - w) * a + w * m


class Combined(Optimizer):
    """AMSGrad graduating into Momentum over ``ramp_length`` steps.

    Runs a full AMSGrad and a full Momentum optimizer side by side with a
    shared learning rate, advances both every step, and applies the blended
    update direction. The blend weight uses the pre-increment step count,
    so the very first step is pure AMSGrad and every step from
    ``ramp_length`` onward is pure Momentum.
    """

    name = "combined"

    def __init__(
        self,
        dim,
        learning_rate,
        ramp_length: float,
        momentum: float = DEFAULT_MOMENTUM,
        beta1: float = DEFAULT_BETA1,
        beta2: float = DEFAULT_BETA2,
        eps: float = DEFAULT_EPS,
    ):
        super().__init__(dim, learning_rate)
        if not ramp_length > 0.0:
            raise ValueError(f"ramp_length must be > 0, got {ramp_length}")
        self.ramp_length = float(ramp_length)
        self.amsgrad = AMSGrad(dim, learning_rate, beta1=beta1, beta2=beta2, eps=eps)
        self.momentum = Momentum(dim, learning_rate, momentum=momentum)

    def update_direction(self, grad) -> np.ndarray:
        grad = self._check_grad(grad)
        a = self.amsgrad.update_direction(grad)
        m = self.momentum.update_direction(grad)
        h = blend(self.step_count, self.ramp_length, a, m)
        self.step_count += 1
        return h


OPTIMIZERS: dict[str, type[Optimizer]] = {
    cls.name: cls for cls in (Basic, Momentum, Nesterov, Adagrad, RMSProp, Adam, AMSGrad, Combined)
}

BASELINE_NAMES = ("basic", "momentum", "nesterov", "adagrad", "rmsprop", "adam", "amsgrad")


def make_optimizer(name: str, dim: int, learning_rate: float, **hyper) -> Optimizer:
    """Instantiate an optimizer by registry name.

    ``hyper`` is forwarded to the constructor; ``combined`` requires
    ``ramp_length``.
    """
    try:
        cls = OPTIMIZERS[name]
    except KeyError:
        known = ", ".join(sorted(OPTIMIZERS))
        raise ValueError(f"unknown optimizer {name!r}, expected one of: {known}") from None
    return cls(dim, learning_rate, **hyper)
