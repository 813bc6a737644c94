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
constants. A ``combined`` run past its ramp is a ``momentum`` run from
then on; sorting by ramp keeps it at the edge of the slices it leaves.

The three linear recurrences are one update ``state <- decay*state +
gain*g`` over adjacent planes of one ``(3, *shape)`` buffer: ``velocity``,
``m`` and ``s`` are views of its planes, and the per-row decay
(``MU | BETA1 | a``) and gain (``lr | 1-BETA1 | b``) are planes of the
same shape, never broadcast. Recurrences that every row keeps advance as
one group in five calls: copy ``grad`` into the group's other gradient
planes, ``inc = gain*G``, ``inc_s *= g`` for the squared average,
``state *= decay`` and ``state += inc``. A ``combined`` run, or a bank of
``combined`` runs all on their ramps, groups v, m and s; a bank of adam and
amsgrad runs groups m and s. A recurrence alone in its group, or kept by
only some rows (a group there would be a strided view, which numpy runs
more slowly than separate calls), keeps its own calls. The
velocity plane of ``inc`` is the delta buffer, so ``lr*g`` is computed once.
While exactly one distinct ramp is still running, its blend weights
``w = (t-1)/ramp`` and ``1-w`` are Python floats in 0-d arrays rather than
full-shape arrays. A lone ``combined`` run on its ramp so makes 14 numpy
calls per step, and the 8-rule bank 25 while its ramp runs and 22 after it.

``make_optimizer`` builds the one-run case. An optimizer's ``shape`` is
fixed at construction: ``(dim,)`` for a lone run, ``(rows, dim)`` for a
bank. It owns ``grad``, a buffer of that shape, and ``advance()`` updates
every row from the gradient a caller wrote there: the experiment kernel and
``ArimaModel.learn_step`` call it. The delta it returns is one buffer, the
same object on every call, valid until the next. ``step(coeffs, grad)``
checks that both have the optimizer's shape, copies the gradient into
``grad`` and returns ``coeffs - advance()``.

The update is bound once, when the state is allocated, and again when a
ramp ends or ``without`` builds a copy, so the groups and the blend's
weights follow the rules and ramps still running: ``_ops`` lists each numpy
call with its operands, views over the rows it updates, output included,
in the order of operations above, and ``_hand_ops`` the ramp's blend. ``advance``
writes step t's scalars into 0-d arrays and runs the lists.

Deltas never depend on the coefficient values themselves, only on the
gradient history, so steps are translation equivariant. The decay rates and
``EPS`` are the module constants below; the learning rate, and
``combined``'s ramp length, are the only settings.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .series import _check_real, _is_int

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

# The recurrences' state, in the order of the planes of an optimizer's buffers
PLANES = ("velocity", "m", "s")


class Optimizer:
    """Runs of update rules over one coefficient array, one block of rows per run.

    ``runs`` lists ``(name, learning_rate, ramp_length, rows)``, with a
    ramp length for ``combined`` runs only. ``blocks[i]`` is the slice of
    rows of run i. ``rows`` None, for a lone run, makes the shape ``(dim,)``
    and the run's block ``...``. ``without`` drops runs, such as the ones
    that have diverged.

    ``combined`` weighs AMSGrad's delta by ``1 - w`` and Momentum's by ``w``,
    with ``w = (t - 1) / ramp_length`` at step t: the first step is pure
    AMSGrad, and from ``w >= 1`` on the run is pure Momentum and only its
    velocity advances, since AMSGrad's delta is never read again.
    """

    def __init__(self, dim: int, runs):
        if not (_is_int(dim) and dim >= 1):
            raise ValueError(f"dim must be an int >= 1, got {dim!r}")
        self.dim = int(dim)
        self._given = list(runs)
        runs = [(_rule(name), lr, ramp, rows) for name, lr, ramp, rows in runs]
        if not runs:
            raise ValueError("at least one run is required")
        for rule, lr, ramp, rows in runs:
            if rule.delta != "handover" and ramp is not None:
                raise ValueError(f"{rule.name} takes no ramp_length, got {ramp}")
            _check_settings(rule, lr, ramp)
            if rows is not None and not (_is_int(rows) and rows >= 1):
                raise ValueError(f"a run needs an int rows >= 1, got {rows!r}")
        if None in [rows for *_, rows in runs] and len(runs) != 1:
            raise ValueError("only a lone run may leave its rows unset")
        # sorted() is stable, so runs of one rule and ramp keep their order
        self._order = sorted(range(len(runs)), key=lambda i: (
            DELTAS.index(runs[i][0].delta), runs[i][2] or 0.0))
        self._runs = [runs[i] for i in self._order]
        self.step_count = 0
        self._allocate()

    def _allocate(self) -> None:
        """Fix the shape; zero the state and buffers; put each run's coefficients in its rows."""
        if self._runs[0][3] is None:
            shape, spans = (self.dim,), [...]
        else:
            stops = np.cumsum([rows for *_, rows in self._runs]).tolist()
            shape = (stops[-1], self.dim)
            spans = [slice(stop - rows, stop) for stop, (*_, rows) in zip(stops, self._runs)]
        self.shape = shape
        # plane p of each holds recurrence p's term, in PLANES order: the state,
        # the gradient the recurrence reads, its increment gain*g, its decay and
        # its gain, full-shape so that a group of planes advances in one call
        for key in ("_state", "_grads", "_inc", "_decay", "_gain"):
            setattr(self, key, np.zeros((len(PLANES), *shape)))
        self.velocity, self.m, self.s = self._state
        self.grad = self._grads[0]
        self.delta = self._inc[0]  # which holds lr*g until the delta overwrites it
        self._decay[0], self._decay[1] = MU, BETA1
        self._gain[1] = 1.0 - BETA1
        for key in ("v_max", "_ramp", "_tmp", "_tmp2", "_den"):
            setattr(self, key, np.zeros(shape))
        # the constants as arrays too: numpy takes two arrays faster than an array and a float
        self._eps, self._one = np.full(shape, EPS), np.full(shape, 1.0)
        # and the scalars of step t as 0-d arrays, rewritten each step, for the same reason
        self._bias1, self._bias2, self._elapsed, self._w, self._keep = (
            np.zeros(()) for _ in range(5))
        self._spans = spans
        self.blocks = [None] * len(spans)
        for i, span in zip(self._order, spans):
            self.blocks[i] = span
        for (rule, lr, ramp, _), span in zip(self._runs, spans):
            self._gain[0][span] = lr
            if rule.squared:
                self._decay[2][span], self._gain[2][span] = rule.squared
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
        """Bind the update's calls to the rows of each recurrence and delta form.

        ``_ops`` lists ``(function, operands)`` pairs, outputs included, in the
        order of operations of the expressions in the module docstring;
        ``_hand_ops`` is the blend of the combined runs still on their ramp.
        """

        def at(keep, *arrays, hull=False):
            span = self._span(keep, hull)
            return None if span is None else [a[span] for a in arrays]

        mul, add, div, sqrt = np.multiply, np.add, np.divide, np.sqrt
        ops, corr = [], None
        users = [self._span(keep) for keep in (lambda r, _: r.velocity, lambda r, _: r.moment,
                                               lambda r, _: r.squared is not None)]
        # lr*g for the velocity and the step, lookahead and scaled deltas; in
        # between, adam and amsgrad rows compute it unread. Over the velocity's
        # rows alone it is computed with the velocity's recurrence instead.
        lr_rows = self._span(lambda r, _: r.velocity or r.delta in ("step", "scaled"), hull=True)
        lr_g = lr_rows is not None and lr_rows != users[0]
        if lr_g:
            ops.append((mul, (self._gain[0][lr_rows], self.grad[lr_rows], self.delta[lr_rows])))
        # recurrences that every row keeps advance as one group of adjacent
        # planes, a contiguous block; over fewer rows a group would be a
        # strided view, which numpy iterates more slowly than separate calls
        lo = 0
        while lo < len(PLANES):
            hi = lo + 1
            while hi < len(PLANES) and users[lo] is users[hi] is ...:
                hi += 1
            if users[lo] is not None:
                ops += self._advance_ops(lo, hi, users[lo], lr_g)
            lo = hi
        if look := at(lambda r, _: r.delta == "lookahead", self.delta, self.velocity,
                      self._tmp, self._decay[0]):
            d, v, tmp, mu = look
            ops += [(mul, (mu, v, tmp)), (add, (d, tmp, d))]
        if vdel := at(lambda r, _: r.delta == "velocity", self.delta, self.velocity):
            ops.append((np.copyto, vdel))
        if mom := users[1]:
            m, d_mom, lr = self.m[mom], self.delta[mom], self._gain[0][mom]
        if sq := users[2]:
            den, eps, d_sq = self._den[sq], self._eps[sq], self.delta[sq]
            if vmax := at(lambda r, _: r.v_max, self.v_max, self.s, self._den):
                v_max, s_max, den_max = vmax
                # numpy deprecates a positional out for maximum
                ops += [(partial(np.maximum, out=v_max), (v_max, s_max)),
                        (sqrt, (v_max, den_max))]
            if corr := at(lambda r, _: r.delta == "corrected", self.s, self._den):
                s_corr, den_corr = corr
                ops += [(div, (s_corr, self._bias2, den_corr)), (sqrt, (den_corr, den_corr))]
            if scal := at(lambda r, _: r.delta == "scaled", self.s, self._den):
                ops.append((sqrt, scal))
            ops.append((add, (den, eps, den)))
        if mom:
            ops += [(div, (m, self._bias1, d_mom)), (mul, (d_mom, lr, d_mom))]
        if sq:
            ops.append((div, (d_sq, den, d_sq)))
        self._ops = ops
        # the scalars of step t that the ops read
        self._moment = mom is not None
        self._corrected = corr is not None
        self._hand_ops, self._one_ramp = [], None
        if hand := at(lambda r, ramp: r.delta == "handover" and ramp != math.inf,
                      self.delta, self.velocity, self._ramp, self._tmp, self._tmp2, self._one):
            d, v, ramp, w, keep, one = hand
            ramps = {self._runs[k][2] for k in self._ramping}
            if len(ramps) == 1:
                # one ramp: its weights are the same in every row, so scalars
                (self._one_ramp,) = ramps
                self._hand_ops = [(mul, (d, self._keep, d)), (mul, (self._w, v, w)),
                                  (add, (d, w, d))]
            else:
                self._hand_ops = [(div, (self._elapsed, ramp, w)), (np.subtract, (one, w, keep)),
                                  (mul, (d, keep, d)), (mul, (w, v, w)), (add, (d, w, d))]

    def _advance_ops(self, lo: int, hi: int, rows, lr_g: bool) -> list:
        """The calls that advance recurrence planes ``lo`` to ``hi - 1`` over ``rows``.

        The velocity's increment lr*g is already in the delta when ``lr_g``.
        """
        mul, g = np.multiply, self.grad[rows]
        buffers = (self._state, self._decay, self._gain, self._inc)
        if hi == lo + 1:
            # one plane, in views of its rows, reading grad itself
            state, decay, gain, inc = (a[lo, rows] for a in buffers)
            ops = [] if lo == 0 and lr_g else [(mul, (gain, g, inc))]
        else:
            # a group over every row: grad is copied into its other gradient planes
            state, decay, gain, inc = (a[lo:hi] for a in buffers)
            ops = [(np.copyto, (self._grads[max(lo, 1):hi], g)),
                   (mul, (gain, self._grads[lo:hi], inc))]
        if hi == len(PLANES):
            # the squared average's increment is (b*g)*g; an in-place call
            # passes one view as input and output, which numpy checks fastest
            inc_s = self._inc[-1, rows]
            ops.append((mul, (inc_s, g, inc_s)))
        return ops + [(mul, (state, decay, state)), (np.add, (state, inc, state))]

    def _hand_over(self, t: int) -> None:
        """Make every combined run whose ramp has ended at step t a momentum run."""
        while self._ramping and (t - 1) / self._runs[self._ramping[0]][2] >= 1.0:
            self._rules[self._ramping.pop(0)] = OPTIMIZERS["momentum"]
        self._bind()

    def without(self, gone) -> tuple[Optimizer, np.ndarray]:
        """A copy without the runs for which ``gone`` is true, and which row each of its rows was.

        ``gone`` has one flag per run, and the optimizer must be a bank: a
        lone run has no rows to drop.
        """
        if len(gone) != len(self.blocks):
            raise ValueError(f"gone has {len(gone)} flags for {len(self.blocks)} runs")
        if self.blocks == [...]:
            raise ValueError("a lone run has no rows to drop")
        kept = [i for i, out in enumerate(gone) if not out]
        copy = Optimizer(self.dim, [self._given[i] for i in kept])
        copy.step_count = self.step_count  # its next step hands over what has ended
        rows = np.concatenate([np.arange(self.blocks[kept[i]].start, self.blocks[kept[i]].stop)
                               for i in copy._order])
        copy._state[...] = self._state[:, rows]
        copy.v_max[...] = self.v_max[rows]
        return copy, rows

    def advance(self) -> np.ndarray:
        """Unchecked update of every row by the gradient a caller wrote into ``grad``.

        The returned delta is a buffer, valid until the next call.
        """
        t = self.step_count = self.step_count + 1
        if self._ramping and (t - 1) / self._runs[self._ramping[0]][2] >= 1.0:
            self._hand_over(t)
        if self._moment:
            self._bias1[()] = 1.0 - BETA1**t
        if self._corrected:
            self._bias2[()] = 1.0 - BETA2**t
        for op, operands in self._ops:
            op(*operands)
        # the first step, and an infinite ramp, leave AMSGrad's delta exact
        if self._hand_ops and t > 1:
            if self._one_ramp is None:
                self._elapsed[()] = t - 1
            else:
                self._w[()] = w = (t - 1) / self._one_ramp
                self._keep[()] = 1.0 - w
            for op, operands in self._hand_ops:
                op(*operands)
        return self.delta

    def step(self, coeffs, grad) -> np.ndarray:
        """``coeffs - advance()`` after ``grad`` is copied in, both checked for the optimizer's shape.

        No product code calls it; it stays because perfbench's tracer wraps it by name.
        """
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != self.shape:
            raise ValueError(f"coefficient shape {coeffs.shape} is not the optimizer's, {self.shape}")
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.shape:
            raise ValueError(f"gradient shape {grad.shape} is not the optimizer's, {self.shape}")
        np.copyto(self.grad, grad)
        return coeffs - self.advance()


def _rule(name: str) -> Rule:
    try:
        return OPTIMIZERS[name]
    except KeyError:
        known = ", ".join(sorted(OPTIMIZERS))
        raise ValueError(f"unknown optimizer {name!r}, expected one of: {known}") from None


def _check_settings(rule: Rule, learning_rate: float, ramp_length: float | None) -> None:
    """Raise unless the rate is finite and > 0 and a ramp length, which ``combined``
    requires and another rule may be given, is > 0 (inf included).

    Each is first checked to be a real number that fits a float: a bool or a
    str is rejected, not converted, and so is an int past the float range.
    """
    _check_real(learning_rate, "learning_rate must be a real number")
    if not (math.isfinite(learning_rate) and learning_rate > 0.0):
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
    needed = rule.delta == "handover"
    if ramp_length is not None:
        _check_real(ramp_length, "ramp_length must be a real number")
    elif not needed:
        return
    if not (ramp_length is not None and ramp_length > 0.0):
        rule_text = f"{rule.name} requires a ramp_length" if needed else "ramp_length must be"
        raise ValueError(f"{rule_text} > 0, got {ramp_length}")


# A one-run optimizer's type carries its rule's name, so that a tool that
# tags calls by ``type(optimizer).name`` (perfbench's tracer) splits them by rule.
_ONE_RULE = {name: type(f"Optimizer[{name}]", (Optimizer,), {"name": name}) for name in OPTIMIZERS}


def make_optimizer(name: str, dim: int, learning_rate: float,
                   ramp_length: float | None = None) -> Optimizer:
    """One run of the rule ``name``; ``combined`` requires ``ramp_length``, no other rule takes it."""
    return _ONE_RULE[_rule(name).name](dim, [(name, learning_rate, ramp_length, None)])
