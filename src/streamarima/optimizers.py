"""Online gradient descent update rules over a fixed-length coefficient vector.

Every optimizer exposes the same two checked calls:

* ``update_direction(grad)`` advances internal state and returns the delta
  that a step would subtract from the coefficients, as a fresh array,
* ``step(coeffs, grad)`` returns ``coeffs - update_direction(grad)``.

``advance(grad)`` is the same update without the checks, for a caller that
builds every gradient itself, such as the experiment kernel: its delta may
be a state array, valid until the next call.

A rule is a declaration: its ``name``, the ``state`` arrays it keeps, and
``_delta(grad)``. ``Optimizer`` validates the dimension and the learning
rate, allocates the state, checks the gradient and counts steps once for
all of them. The decay rates and ``EPS`` are the module constants below;
the learning rate, and ``Combined``'s ramp length, are the only settings.

Deltas never depend on the coefficient values themselves, only on the
gradient history, so steps are translation equivariant.

Coefficients and gradients may carry leading axes, one row per trial. State
exists from construction as zeros of shape ``(dim,)``; the first gradient
re-allocates it as zeros of that gradient's shape, such as ``(rows, dim)``,
and every later gradient must have the same shape. Each ``_delta`` then
updates the state in place (``v *= MU; v += lr * g``), in the same order of
operations as the textbook recurrence, so the results are bitwise the same.
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
        self._allocate((self.dim,))

    def _allocate(self, shape: tuple[int, ...]) -> None:
        self.shape = shape
        for key in self.state:
            setattr(self, key, np.zeros(shape))

    def _delta(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def advance(self, grad: np.ndarray) -> np.ndarray:
        """Unchecked update by a float64 ``grad`` of the first gradient's shape.

        The returned delta may be a state array, valid until the next call.
        """
        if not self.step_count:
            self._allocate(grad.shape)
        self.step_count += 1
        return self._delta(grad)

    def _checked(self, grad) -> np.ndarray:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape[-1:] != (self.dim,):
            raise ValueError(f"gradient shape {grad.shape} does not match dim {self.dim}")
        if self.step_count and grad.shape != self.shape:
            raise ValueError(f"gradient shape {grad.shape} differs from the first, {self.shape}")
        return grad

    def update_direction(self, grad) -> np.ndarray:
        return self.advance(self._checked(grad)).copy()

    def step(self, coeffs, grad) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape[-1:] != (self.dim,):
            raise ValueError(f"coefficient shape {coeffs.shape} does not match dim {self.dim}")
        return coeffs - self.advance(self._checked(grad))


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
        self.velocity *= MU
        self.velocity += self.learning_rate * grad
        return self.velocity


class Nesterov(Optimizer):
    """Look-ahead momentum: v <- mu*v + lr*grad, delta = mu*v + lr*grad."""

    name = "nesterov"
    state = ("velocity",)

    def _delta(self, grad):
        step = self.learning_rate * grad
        self.velocity *= MU
        self.velocity += step
        step += MU * self.velocity
        return step


class Adagrad(Optimizer):
    """Per-coordinate scaling by the running sum of squared gradients."""

    name = "adagrad"
    state = ("accum",)

    def _delta(self, grad):
        self.accum += grad * grad
        return _scaled(self.learning_rate * grad, self.accum)


class RMSProp(Optimizer):
    """Adagrad with an exponentially decaying squared-gradient average."""

    name = "rmsprop"
    state = ("sq_avg",)

    def _delta(self, grad):
        self.sq_avg *= RHO
        self.sq_avg += (1.0 - RHO) * grad * grad
        return _scaled(self.learning_rate * grad, self.sq_avg)


class Adam(Optimizer):
    """First and second moment estimates, both bias corrected."""

    name = "adam"
    state = ("m", "v")

    def _delta(self, grad):
        t = self.step_count
        _moments(self.m, self.v, grad)
        m_hat = self.m / (1.0 - BETA1**t)
        return _scaled(self.learning_rate * m_hat, self.v / (1.0 - BETA2**t))


class AMSGrad(Optimizer):
    """Adam with a non-decreasing second moment and no correction on it.

    The running max is taken over the raw second moment, so the effective
    per-coordinate step never grows between consecutive updates.
    """

    name = "amsgrad"
    state = ("m", "v", "v_max")

    def _delta(self, grad):
        t = self.step_count
        _moments(self.m, self.v, grad)
        np.maximum(self.v_max, self.v, out=self.v_max)
        m_hat = self.m / (1.0 - BETA1**t)
        return _scaled(self.learning_rate * m_hat, self.v_max)


def _moments(m, v, grad):
    """Adam's first and second moment updates, in place."""
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * grad * grad


def _scaled(step, sq):
    """step / (sqrt(sq) + EPS), written over ``step``."""
    denom = np.sqrt(sq)
    denom += EPS
    step /= denom
    return step


class Combined(Optimizer):
    """AMSGrad graduating into Momentum over ``ramp_length`` steps.

    Runs a full AMSGrad and a full Momentum optimizer side by side with a
    shared learning rate and applies the mixed update direction. The ramp
    weight uses the pre-increment step count, so the very first step is
    pure AMSGrad and every step from ``ramp_length`` onward is pure
    Momentum. Both rules advance every step until then; after it AMSGrad's
    output is never read again, so only Momentum advances.
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
        w = (self.step_count - 1) / self.ramp_length
        if w >= 1.0:
            return self.momentum.advance(grad)
        a = self.amsgrad.advance(grad)
        m = self.momentum.advance(grad)
        # the start of the ramp returns AMSGrad's delta exactly
        if w <= 0.0:
            return a
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
