"""Online gradient descent update rules over a fixed-length coefficient vector.

Every optimizer exposes the same two calls:

* ``update_direction(grad)`` advances internal state and returns the delta
  that a step would subtract from the coefficients,
* ``step(coeffs, grad)`` returns ``coeffs - update_direction(grad)``.

A rule is a declaration: its ``name``, the ``state`` arrays it keeps, and
``_delta(grad)``. ``Optimizer`` validates the dimension and the learning
rate, zero-allocates the state, checks the gradient and counts steps once
for all of them. The decay rates and ``EPS`` are the module constants below;
the learning rate, and ``Combined``'s ramp length, are the only settings.

Deltas never depend on the coefficient values themselves, only on the
gradient history, so steps are translation equivariant.

Coefficients and gradients may carry leading axes, one row per trial: state
starts as zeros of shape ``(dim,)`` and broadcasts on the first step.
"""

from __future__ import annotations

import math

import numpy as np

MU = 0.9  # Momentum and Nesterov velocity decay
RHO = 0.9  # RMSProp squared-gradient decay
BETA1 = 0.9  # Adam and AMSGrad first-moment decay
BETA2 = 0.999  # Adam and AMSGrad second-moment decay
EPS = 1e-8  # denominator floor of the adaptive rules


class Optimizer:
    """Base class: argument validation, state allocation and the step count."""

    name = "base"
    state: tuple[str, ...] = ()

    def __init__(self, dim: int, learning_rate: float):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not (math.isfinite(learning_rate) and learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
        self.dim = int(dim)
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        for key in self.state:
            setattr(self, key, np.zeros(dim))

    def _delta(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def update_direction(self, grad) -> np.ndarray:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape[-1:] != (self.dim,):
            raise ValueError(f"gradient shape {grad.shape} does not match dim {self.dim}")
        self.step_count += 1
        return self._delta(grad)

    def step(self, coeffs, grad) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape[-1:] != (self.dim,):
            raise ValueError(f"coefficient shape {coeffs.shape} does not match dim {self.dim}")
        return coeffs - self.update_direction(grad)


class Basic(Optimizer):
    """Plain online gradient descent: delta = lr * grad."""

    name = "basic"

    def _delta(self, grad):
        return self.learning_rate * grad


class Momentum(Optimizer):
    """Heavy-ball velocity: v <- mu*v + lr*grad, delta = v."""

    name = "momentum"
    state = ("velocity",)

    def _delta(self, grad):
        self.velocity = MU * self.velocity + self.learning_rate * grad
        return self.velocity.copy()


class Nesterov(Optimizer):
    """Look-ahead momentum: v <- mu*v + lr*grad, delta = mu*v + lr*grad."""

    name = "nesterov"
    state = ("velocity",)

    def _delta(self, grad):
        self.velocity = MU * self.velocity + self.learning_rate * grad
        return MU * self.velocity + self.learning_rate * grad


class Adagrad(Optimizer):
    """Per-coordinate scaling by the running sum of squared gradients."""

    name = "adagrad"
    state = ("accum",)

    def _delta(self, grad):
        self.accum = self.accum + grad * grad
        return self.learning_rate * grad / (np.sqrt(self.accum) + EPS)


class RMSProp(Optimizer):
    """Adagrad with an exponentially decaying squared-gradient average."""

    name = "rmsprop"
    state = ("sq_avg",)

    def _delta(self, grad):
        self.sq_avg = RHO * self.sq_avg + (1.0 - RHO) * grad * grad
        return self.learning_rate * grad / (np.sqrt(self.sq_avg) + EPS)


class Adam(Optimizer):
    """First and second moment estimates, both bias corrected."""

    name = "adam"
    state = ("m", "v")

    def _delta(self, grad):
        t = self.step_count
        self.m = BETA1 * self.m + (1.0 - BETA1) * grad
        self.v = BETA2 * self.v + (1.0 - BETA2) * grad * grad
        m_hat = self.m / (1.0 - BETA1**t)
        v_hat = self.v / (1.0 - BETA2**t)
        return self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)


class AMSGrad(Optimizer):
    """Adam with a non-decreasing second moment and no correction on it.

    The running max is taken over the raw second moment, so the effective
    per-coordinate step never grows between consecutive updates.
    """

    name = "amsgrad"
    state = ("m", "v", "v_max")

    def _delta(self, grad):
        t = self.step_count
        self.m = BETA1 * self.m + (1.0 - BETA1) * grad
        self.v = BETA2 * self.v + (1.0 - BETA2) * grad * grad
        self.v_max = np.maximum(self.v_max, self.v)
        m_hat = self.m / (1.0 - BETA1**t)
        return self.learning_rate * m_hat / (np.sqrt(self.v_max) + EPS)


class Combined(Optimizer):
    """AMSGrad graduating into Momentum over ``ramp_length`` steps.

    Runs a full AMSGrad and a full Momentum optimizer side by side with a
    shared learning rate, advances both every step, and applies the mixed
    update direction. The ramp weight uses the pre-increment step count,
    so the very first step is pure AMSGrad and every step from
    ``ramp_length`` onward is pure Momentum.
    """

    name = "combined"

    def __init__(self, dim, learning_rate, ramp_length: float):
        super().__init__(dim, learning_rate)
        if not ramp_length > 0.0:
            raise ValueError(f"ramp_length must be > 0, got {ramp_length}")
        self.ramp_length = float(ramp_length)
        self.amsgrad = AMSGrad(dim, learning_rate)
        self.momentum = Momentum(dim, learning_rate)

    def _delta(self, grad):
        a = self.amsgrad.update_direction(grad)
        m = self.momentum.update_direction(grad)
        # both are fresh arrays; the ends of the ramp return one of them exactly
        w = (self.step_count - 1) / self.ramp_length
        if w <= 0.0:
            return a
        if w >= 1.0:
            return m
        return (1.0 - w) * a + w * m


OPTIMIZERS: dict[str, type[Optimizer]] = {
    cls.name: cls for cls in (Basic, Momentum, Nesterov, Adagrad, RMSProp, Adam, AMSGrad, Combined)
}

BASELINE_NAMES = tuple(name for name in OPTIMIZERS if name != "combined")


def make_optimizer(name: str, dim: int, learning_rate: float, **kwargs) -> Optimizer:
    """Instantiate an optimizer by registry name.

    ``kwargs`` is forwarded to the constructor; ``combined`` requires
    ``ramp_length``, the only keyword any rule takes.
    """
    try:
        cls = OPTIMIZERS[name]
    except KeyError:
        known = ", ".join(sorted(OPTIMIZERS))
        raise ValueError(f"unknown optimizer {name!r}, expected one of: {known}") from None
    return cls(dim, learning_rate, **kwargs)
