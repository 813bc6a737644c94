"""Online gradient descent update rules over a fixed-length coefficient vector.

A rule is a declaration in ``OPTIMIZERS``: the recurrences it keeps and how
it forms its delta from them. The recurrences are these, each run in place
in the order of operations of the textbook expression, so that the results
are bitwise the same:

* velocity ``v <- MU*v + lr*g``,
* first moment ``m <- BETA1*m + (1-BETA1)*g``,
* squared average ``s <- a*s + (b*g)*g``, with the rule's ``(a, b)``,
* running max ``v_max <- max(v_max, s)``.

One ``Optimizer`` holds runs of any rules over one coefficient array, one
block of rows per run. Its rows are grouped by delta form in ``DELTAS``
order, and ``combined`` runs by ramp length, so that the users of each
recurrence and of each delta form are one contiguous slice. Each step then
applies each recurrence once, in place, over its slice, with full-shape
arrays of the per-row coefficients (rate, ``(a, b)``, ramp) and of the
constants. A
``combined`` run past its ramp is a ``momentum`` run from then on; sorting
by ramp keeps it at the edge of the slices it leaves.

``make_optimizer`` builds the one-run case, with the checked calls:

* ``update_direction(grad)`` advances the state and returns the delta that a
  step would subtract from the coefficients, as a fresh array,
* ``step(coeffs, grad)`` returns ``coeffs - update_direction(grad)``.

``advance(grad)`` is the same update without the checks, for a caller that
builds every gradient itself: the experiment kernel, and
``ArimaModel.learn_step`` once a checked ``step`` has fixed the state's
shape. The delta it returns is a buffer, valid until the next call. The
state of a one-run optimizer takes the shape of its first gradient, such
as ``(dim,)`` or ``(rows, dim)``, and every later gradient must have that
shape.

Deltas never depend on the coefficient values themselves, only on the
gradient history, so steps are translation equivariant. The decay rates and
``EPS`` are the module constants below; the learning rate, and
``combined``'s ramp length, are the only settings.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

MU = 0.9  # Momentum and Nesterov velocity decay
RHO = 0.9  # RMSProp squared-gradient decay
BETA1 = 0.9  # Adam and AMSGrad first-moment decay
BETA2 = 0.999  # Adam and AMSGrad second-moment decay
EPS = 1e-8  # denominator floor of the adaptive rules

# How a rule forms its delta, in the order of an optimizer's rows:
#   step       lr*g
#   lookahead  lr*g + MU*v
#   velocity   v
#   handover   max, blended into velocity over the ramp
#   max        lr*m_hat / (sqrt(v_max) + EPS)
#   corrected  lr*m_hat / (sqrt(s / (1 - BETA2**t)) + EPS)
#   scaled     lr*g / (sqrt(s) + EPS)
# with m_hat = m / (1 - BETA1**t) at step t.
DELTAS = ("step", "lookahead", "velocity", "handover", "max", "corrected", "scaled")


class Rule(NamedTuple):
    """One update rule: the recurrences it keeps and its delta form."""

    name: str
    delta: str
    velocity: bool = False
    moment: bool = False
    squared: tuple[float, float] | None = None  # (a, b) of s <- a*s + (b*g)*g
    v_max: bool = False


ADAM_SQUARED = (BETA2, 1.0 - BETA2)

# The registry's order is the order of every comparison's files and legend.
OPTIMIZERS: dict[str, Rule] = {rule.name: rule for rule in (
    Rule("basic", "step"),
    Rule("momentum", "velocity", velocity=True),
    Rule("nesterov", "lookahead", velocity=True),
    Rule("adagrad", "scaled", squared=(1.0, 1.0)),
    Rule("rmsprop", "scaled", squared=(RHO, 1.0 - RHO)),
    Rule("adam", "corrected", moment=True, squared=ADAM_SQUARED),
    Rule("amsgrad", "max", moment=True, squared=ADAM_SQUARED, v_max=True),
    # AMSGrad handing over linearly to Momentum across ramp_length steps
    Rule("combined", "handover", velocity=True, moment=True, squared=ADAM_SQUARED, v_max=True),
)}

BASELINE_NAMES = tuple(name for name in OPTIMIZERS if name != "combined")


class Optimizer:
    """Runs of update rules over one coefficient array, one block of rows per run.

    ``runs`` lists ``(name, learning_rate, ramp_length, rows)``, with a
    ramp length for ``combined`` runs only. ``blocks[i]`` is the slice of
    rows of run i. ``rows`` None, for a lone run, takes the shape of the
    first gradient, and the run's block is then ``...``. ``without`` drops
    runs, such as the ones that have diverged.

    ``combined`` weighs AMSGrad's delta by ``1 - w`` and Momentum's by ``w``,
    with ``w = (t - 1) / ramp_length`` at step t: the first step is pure
    AMSGrad, and from ``w >= 1`` on the run is pure Momentum and only its
    velocity advances, since AMSGrad's delta is never read again.
    """

    def __init__(self, dim: int, runs):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self._given = list(runs)
        runs = [(_rule(name), float(lr), ramp, rows) for name, lr, ramp, rows in runs]
        for rule, lr, ramp, rows in runs:
            if not (math.isfinite(lr) and lr > 0.0):
                raise ValueError(f"learning_rate must be finite and > 0, got {lr}")
            if rule.delta != "handover" and ramp is not None:
                raise ValueError(f"{rule.name} takes no ramp_length, got {ramp}")
            if rule.delta == "handover" and not (ramp is not None and ramp > 0.0):
                raise ValueError(f"ramp_length must be > 0, got {ramp}")
        if None in [rows for *_, rows in runs] and len(runs) != 1:
            raise ValueError("only a lone run takes its rows from the first gradient")
        # sorted() is stable, so runs of one rule and ramp keep their order
        self._order = sorted(range(len(runs)), key=lambda i: (
            DELTAS.index(runs[i][0].delta), runs[i][2] or 0.0))
        self._runs = [runs[i] for i in self._order]
        self.step_count = 0
        self.shape = None
        if runs[0][3] is not None:
            self._allocate((sum(rows for *_, rows in runs), self.dim))

    def _allocate(self, shape: tuple[int, ...]) -> None:
        """Zero state and buffers of ``shape``, and each run's coefficients in its rows."""
        self.shape = shape
        for key in ("velocity", "m", "s", "v_max", "delta",
                    "_lr", "_decay", "_scale", "_ramp", "_tmp", "_tmp2", "_den"):
            setattr(self, key, np.zeros(shape))
        # the constants as arrays too: numpy takes two arrays faster than an array and a float
        self._mu, self._beta1, self._beta1c, self._eps, self._one = (
            np.full(shape, c) for c in (MU, BETA1, 1.0 - BETA1, EPS, 1.0))
        # and the scalars of step t as 0-d arrays, rewritten each step, for the same reason
        self._bias1, self._bias2, self._elapsed = np.zeros(()), np.zeros(()), np.zeros(())
        if self._runs[0][3] is None:
            spans = [...]
        else:
            stops = np.cumsum([rows for *_, rows in self._runs]).tolist()
            spans = [slice(stop - rows, stop) for stop, (*_, rows) in zip(stops, self._runs)]
        self._spans = spans
        self.blocks = [None] * len(spans)
        for i, span in zip(self._order, spans):
            self.blocks[i] = span
        for (rule, lr, ramp, _), span in zip(self._runs, spans):
            self._lr[span] = lr
            if rule.squared:
                self._decay[span], self._scale[span] = rule.squared
            if ramp is not None:
                self._ramp[span] = ramp
        self._rules = [rule for rule, *_ in self._runs]
        # combined runs still on their ramp, shortest ramp first
        self._ramping = [k for k, (rule, _, ramp, _) in enumerate(self._runs)
                         if rule.delta == "handover" and ramp != math.inf]
        self._bind()

    def _span(self, keep, hull=False):
        """The rows of the runs whose rule ``keep`` accepts: a slice, ``...`` for all, or None.

        They must be contiguous, unless ``hull`` asks for the rows from the
        first of them to the last.
        """
        hits = [k for k, rule in enumerate(self._rules) if keep(rule, self._runs[k][2])]
        if not hits:
            return None
        if not hull and hits[-1] - hits[0] + 1 != len(hits):
            raise AssertionError(f"the rows kept by {keep} are not contiguous")
        if hits[-1] - hits[0] + 1 == len(self._rules):
            return ...
        return slice(self._spans[hits[0]].start, self._spans[hits[-1]].stop)

    def _bind(self) -> None:
        """Views of the state and buffers over the rows of each recurrence and delta form."""

        def views(keep, *arrays, hull=False):
            span = self._span(keep, hull)
            return None if span is None else (span, *(a[span] for a in arrays))

        # lr*g for the velocity and the step, lookahead and scaled deltas; in
        # between, adam and amsgrad rows compute it unread
        self._lr_g = views(lambda r, _: r.velocity or r.delta in ("step", "scaled"),
                           self._lr, self.delta, hull=True)
        self._vel = views(lambda r, _: r.velocity, self.velocity, self.delta, self._mu)
        self._look = views(lambda r, _: r.delta == "lookahead", self.delta, self.velocity,
                           self._tmp, self._mu)
        self._vdel = views(lambda r, _: r.delta == "velocity", self.delta, self.velocity)
        self._mom = views(lambda r, _: r.moment, self.m, self._tmp, self.delta, self._lr,
                          self._beta1, self._beta1c)
        self._sq = views(lambda r, _: r.squared is not None, self.s, self._decay, self._scale,
                         self._tmp, self._den, self.delta, self._eps)
        self._max = views(lambda r, _: r.v_max, self.v_max, self.s, self._den)
        self._corr = views(lambda r, _: r.delta == "corrected", self.s, self._den)
        self._scal = views(lambda r, _: r.delta == "scaled", self.s, self._den)
        self._hand = views(lambda r, ramp: r.delta == "handover" and ramp != math.inf,
                           self.delta, self.velocity, self._ramp, self._tmp, self._tmp2, self._one)

    def _hand_over(self, t: int) -> None:
        """Make every combined run whose ramp has ended at step t a momentum run."""
        while self._ramping and (t - 1) / self._runs[self._ramping[0]][2] >= 1.0:
            self._rules[self._ramping.pop(0)] = OPTIMIZERS["momentum"]
        self._bind()

    def without(self, gone) -> tuple[Optimizer, np.ndarray]:
        """A copy without the runs for which ``gone`` is true, and which row each of its rows was."""
        kept = [i for i, out in enumerate(gone) if not out]
        copy = Optimizer(self.dim, [self._given[i] for i in kept])
        copy.step_count = self.step_count  # its next step hands over what has ended
        rows = np.concatenate([np.arange(self.blocks[kept[i]].start, self.blocks[kept[i]].stop)
                               for i in copy._order])
        for key in ("velocity", "m", "s", "v_max"):
            getattr(copy, key)[...] = getattr(self, key)[rows]
        return copy, rows

    def advance(self, grad: np.ndarray) -> np.ndarray:
        """Unchecked update of every row by a float64 ``grad`` of the optimizer's shape.

        The returned delta is a buffer, valid until the next call.
        """
        t = self.step_count = self.step_count + 1
        if self._ramping and (t - 1) / self._runs[self._ramping[0]][2] >= 1.0:
            self._hand_over(t)
        if self._lr_g:
            span, lr, d = self._lr_g
            np.multiply(lr, grad[span], out=d)
        if self._vel:
            _, v, lr_g, mu = self._vel
            v *= mu
            v += lr_g
        if self._look:
            _, d, v, tmp, mu = self._look
            np.multiply(mu, v, out=tmp)
            d += tmp
        if self._vdel:
            _, d, v = self._vdel
            np.copyto(d, v)
        if self._mom:
            span, m, tmp, d_mom, lr, beta1, beta1c = self._mom
            m *= beta1
            np.multiply(beta1c, grad[span], out=tmp)
            m += tmp
        if self._sq:
            span, s, decay, scale, tmp, den, d_sq, eps = self._sq
            g = grad[span]
            s *= decay
            np.multiply(scale, g, out=tmp)
            tmp *= g
            s += tmp
            if self._max:
                _, v_max, s_max, den_max = self._max
                np.maximum(v_max, s_max, out=v_max)
                np.sqrt(v_max, out=den_max)
            if self._corr:
                _, s_corr, den_corr = self._corr
                self._bias2[()] = 1.0 - BETA2**t
                np.divide(s_corr, self._bias2, out=den_corr)
                np.sqrt(den_corr, out=den_corr)
            if self._scal:
                _, s_scal, den_scal = self._scal
                np.sqrt(s_scal, out=den_scal)
            den += eps
        if self._mom:
            self._bias1[()] = 1.0 - BETA1**t
            np.divide(m, self._bias1, out=d_mom)
            d_mom *= lr
        if self._sq:
            d_sq /= den
        # the first step, and an infinite ramp, leave AMSGrad's delta exact
        if self._hand and t > 1:
            _, d, v, ramp, w, keep, one = self._hand
            self._elapsed[()] = t - 1
            np.divide(self._elapsed, ramp, out=w)
            np.subtract(one, w, out=keep)
            d *= keep
            w *= v
            d += w
        return self.delta

    def _checked(self, grad) -> np.ndarray:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape[-1:] != (self.dim,):
            raise ValueError(f"gradient shape {grad.shape} does not match dim {self.dim}")
        if self.shape is None:
            self._allocate(grad.shape)
        elif grad.shape != self.shape:
            raise ValueError(f"gradient shape {grad.shape} differs from the first, {self.shape}")
        return grad

    def update_direction(self, grad) -> np.ndarray:
        return self.advance(self._checked(grad)).copy()

    def step(self, coeffs, grad) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape[-1:] != (self.dim,):
            raise ValueError(f"coefficient shape {coeffs.shape} does not match dim {self.dim}")
        return coeffs - self.advance(self._checked(grad))


def _rule(name: str) -> Rule:
    try:
        return OPTIMIZERS[name]
    except KeyError:
        known = ", ".join(sorted(OPTIMIZERS))
        raise ValueError(f"unknown optimizer {name!r}, expected one of: {known}") from None


# A one-run optimizer's type carries its rule's name, so that a tool that
# tags calls by ``type(optimizer).name`` (perfbench's tracer) splits them by rule.
_ONE_RULE = {name: type(f"Optimizer[{name}]", (Optimizer,), {"name": name}) for name in OPTIMIZERS}


def make_optimizer(name: str, dim: int, learning_rate: float,
                   ramp_length: float | None = None) -> Optimizer:
    """One run of the rule ``name``; ``combined`` requires ``ramp_length``, no other rule takes it."""
    return _ONE_RULE[_rule(name).name](dim, [(name, learning_rate, ramp_length, None)])
