"""Optimizer unit tests.

The reference recurrences at the top are straight-line transcriptions in
plain Python (no numpy), written independently of the implementation.
Every optimizer is checked against its transcription over a scripted
gradient sequence; the blend of ``combined`` is checked at its anchor
points and against a hand-rolled two-optimizer oracle, and the rows of an
optimizer that holds runs of several rules against one-run optimizers.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import BASELINE_NAMES, delta_of
from streamarima.optimizers import OPTIMIZERS, Optimizer, make_optimizer

LR = 0.1

# five steps, three coordinates, mixed signs and a zero
SCRIPT = [
    [0.5, -1.0, 2.0],
    [-0.25, 0.75, -1.5],
    [1.0, 0.0, 0.5],
    [0.0, -0.5, 1.25],
    [-2.0, 1.5, -0.75],
]


# ---------------------------------------------------------------- oracles


def oracle_basic(grads, lr=LR):
    return [[lr * g for g in grad] for grad in grads]


def oracle_momentum(grads, lr=LR, mu=0.9):
    v = [0.0] * len(grads[0])
    out = []
    for grad in grads:
        v = [mu * vi + lr * gi for vi, gi in zip(v, grad)]
        out.append(list(v))
    return out


def oracle_nesterov(grads, lr=LR, mu=0.9):
    v = [0.0] * len(grads[0])
    out = []
    for grad in grads:
        v = [mu * vi + lr * gi for vi, gi in zip(v, grad)]
        out.append([mu * vi + lr * gi for vi, gi in zip(v, grad)])
    return out


def oracle_adagrad(grads, lr=LR, eps=1e-8):
    acc = [0.0] * len(grads[0])
    out = []
    for grad in grads:
        acc = [ai + gi * gi for ai, gi in zip(acc, grad)]
        out.append([lr * gi / (math.sqrt(ai) + eps) for ai, gi in zip(acc, grad)])
    return out


def oracle_rmsprop(grads, lr=LR, rho=0.9, eps=1e-8):
    sq = [0.0] * len(grads[0])
    out = []
    for grad in grads:
        sq = [rho * si + (1 - rho) * gi * gi for si, gi in zip(sq, grad)]
        out.append([lr * gi / (math.sqrt(si) + eps) for si, gi in zip(sq, grad)])
    return out


def oracle_adam(grads, lr=LR, b1=0.9, b2=0.999, eps=1e-8):
    dim = len(grads[0])
    m = [0.0] * dim
    v = [0.0] * dim
    out = []
    for t, grad in enumerate(grads, start=1):
        m = [b1 * mi + (1 - b1) * gi for mi, gi in zip(m, grad)]
        v = [b2 * vi + (1 - b2) * gi * gi for vi, gi in zip(v, grad)]
        mh = [mi / (1 - b1**t) for mi in m]
        vh = [vi / (1 - b2**t) for vi in v]
        out.append([lr * mi / (math.sqrt(vi) + eps) for mi, vi in zip(mh, vh)])
    return out


def oracle_amsgrad(grads, lr=LR, b1=0.9, b2=0.999, eps=1e-8):
    dim = len(grads[0])
    m = [0.0] * dim
    v = [0.0] * dim
    vmax = [0.0] * dim
    out = []
    for t, grad in enumerate(grads, start=1):
        m = [b1 * mi + (1 - b1) * gi for mi, gi in zip(m, grad)]
        v = [b2 * vi + (1 - b2) * gi * gi for vi, gi in zip(v, grad)]
        vmax = [max(xi, vi) for xi, vi in zip(vmax, v)]
        mh = [mi / (1 - b1**t) for mi in m]
        out.append([lr * mi / (math.sqrt(xi) + eps) for mi, xi in zip(mh, vmax)])
    return out


ORACLES = {
    "basic": oracle_basic,
    "momentum": oracle_momentum,
    "nesterov": oracle_nesterov,
    "adagrad": oracle_adagrad,
    "rmsprop": oracle_rmsprop,
    "adam": oracle_adam,
    "amsgrad": oracle_amsgrad,
}


def deltas(opt, grads):
    """Observed update directions, recovered from the coefficients they move."""
    out = []
    coeffs = np.zeros(opt.dim)
    for grad in grads:
        new = coeffs - delta_of(opt, grad)
        out.append(coeffs - new)
        coeffs = new
    return out


@pytest.mark.parametrize("name", BASELINE_NAMES)
def test_five_step_oracle(name):
    opt = make_optimizer(name, 3, LR)
    got = deltas(opt, SCRIPT)
    want = ORACLES[name](SCRIPT)
    for step, (g, w) in enumerate(zip(got, want)):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=f"{name} step {step}")


# ------------------------------------------------- pinned single examples


def test_momentum_second_step_value():
    opt = make_optimizer("momentum", 1, 0.1)
    first = delta_of(opt, [1.0])
    second = delta_of(opt, [1.0])
    assert first[0] == pytest.approx(0.1, abs=1e-12)
    assert second[0] == pytest.approx(0.19, abs=1e-12)


def test_nesterov_first_step_lookahead():
    opt = make_optimizer("nesterov", 1, 0.1)
    d = delta_of(opt, [1.0])
    # v = 0.1, delta = 0.9*0.1 + 0.1
    assert d[0] == pytest.approx(0.19, abs=1e-12)


def test_adagrad_first_step_value():
    opt = make_optimizer("adagrad", 1, 0.1)
    d = delta_of(opt, [2.0])
    assert d[0] == pytest.approx(0.1 * 2 / (math.sqrt(4.0) + 1e-8), abs=1e-15)


def test_rmsprop_first_step_value():
    opt = make_optimizer("rmsprop", 1, 0.1)
    d = delta_of(opt, [1.0])
    assert d[0] == pytest.approx(0.1 / (math.sqrt(0.1) + 1e-8), abs=1e-15)
    assert d[0] == pytest.approx(0.3162, abs=5e-5)


def test_adam_first_step_is_learning_rate_scaled_sign():
    opt = make_optimizer("adam", 1, 0.1)
    d = delta_of(opt, [1.0])
    # both corrections cancel the (1-beta) factors on the first step
    assert d[0] == pytest.approx(0.1, abs=1e-8)

    opt = make_optimizer("adam", 1, 0.1)
    d = delta_of(opt, [100.0])
    assert d[0] == pytest.approx(0.1, abs=1e-8)


def test_amsgrad_max_never_increases_step():
    # after a large then a tiny gradient the retained max exceeds the
    # current second moment, so the step is no larger than the same
    # update computed from the current moment alone
    opt = make_optimizer("amsgrad", 1, 0.1)
    delta_of(opt, [10.0])
    delta_of(opt, [0.1])
    m_before = opt.m.copy()
    v_before = opt.s.copy()
    d = delta_of(opt, [0.1])

    b1, b2 = 0.9, 0.999
    m3 = b1 * m_before[0] + (1 - b1) * 0.1
    v3 = b2 * v_before[0] + (1 - b2) * 0.01
    unclamped = 0.1 * (m3 / (1 - b1**3)) / (math.sqrt(v3) + 1e-8)
    assert opt.v_max[0] > v3
    assert abs(d[0]) < abs(unclamped)


def test_zero_gradient_zero_delta():
    for name in ("basic", "adagrad", "adam", "amsgrad"):
        opt = make_optimizer(name, 2, 0.1)
        for _ in range(4):
            d = delta_of(opt, np.zeros(2))
            assert np.array_equal(d, np.zeros(2)), name


def test_velocity_decays_geometrically_after_zero_gradients():
    for name in ("momentum", "nesterov"):
        opt = make_optimizer(name, 2, 0.1)
        delta_of(opt, np.array([1.0, -2.0]))
        prev = delta_of(opt, np.zeros(2))
        for _ in range(5):
            cur = delta_of(opt, np.zeros(2))
            assert np.array_equal(cur, 0.9 * prev), name
            prev = cur


# ----------------------------------------------------------------- blend


def combined_deltas(t, ramp_length, grad):
    """Combined's delta after t steps, with AMSGrad's and Momentum's at the same count.

    All three start from cold state; the weight and AMSGrad's bias
    corrections read the count before the step.
    """
    grad = np.asarray(grad, dtype=np.float64)
    opts = (
        make_optimizer("combined", grad.size, LR, ramp_length=ramp_length),
        make_optimizer("amsgrad", grad.size, LR),
        make_optimizer("momentum", grad.size, LR),
    )
    for opt in opts:
        opt.step_count = t
    return tuple(delta_of(opt, grad) for opt in opts)


def test_blend_anchor_points():
    for t, pick in ((0, 1), (2000, 2), (5000, 2)):
        got = combined_deltas(t, 2000.0, [0.2, -1.0])
        assert np.array_equal(got[0], got[pick]), t


def test_blend_midpoint():
    got, a, m = combined_deltas(1000, 2000.0, [0.2])
    assert got[0] == pytest.approx(0.5 * a[0] + 0.5 * m[0], abs=1e-12)


@given(t=st.integers(min_value=0, max_value=4000), g=st.floats(-5, 5))
def test_blend_is_affine_on_the_ramp(t, g):
    lam = 2000.0
    got, a, m = combined_deltas(t, lam, [g])
    w = min(t / lam, 1.0)
    assert got[0] == pytest.approx((1 - w) * a[0] + w * m[0], rel=1e-12, abs=1e-12)


# -------------------------------------------------------------- combined


def test_combined_three_step_oracle():
    grads = [[1.0, -0.5]] * 3
    opt = make_optimizer("combined", 2, LR, ramp_length=2.0)
    got = deltas(opt, grads)

    a_steps = oracle_amsgrad(grads)
    m_steps = oracle_momentum(grads)
    want = [
        a_steps[0],  # t=0: pure amsgrad
        [0.5 * ai + 0.5 * mi for ai, mi in zip(a_steps[1], m_steps[1])],
        m_steps[2],  # t=2=ramp: pure momentum
    ]
    for step, (g, w) in enumerate(zip(got, want)):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=f"step {step}")


def test_combined_first_step_is_pure_amsgrad():
    g = np.array([0.3, -0.7, 1.1])
    c = make_optimizer("combined", 3, LR, ramp_length=2000.0)
    a = make_optimizer("amsgrad", 3, LR)
    assert np.array_equal(delta_of(c, g), delta_of(a, g))
    # not a blend at weight 0: lr * g overflows here, so the velocity and
    # AMSGrad's direction are inf, and 0 * inf would make the blend nan
    g = np.array([0.3, 1e10, 1.1])
    c = make_optimizer("combined", 3, 1e300, ramp_length=2000.0)
    a = make_optimizer("amsgrad", 3, 1e300)
    with np.errstate(over="ignore"):
        assert np.array_equal(delta_of(c, g), delta_of(a, g))


def test_combined_infinite_ramp_is_amsgrad_bitwise():
    rng = np.random.default_rng(3)
    c = make_optimizer("combined", 4, LR, ramp_length=math.inf)
    a = make_optimizer("amsgrad", 4, LR)
    coeffs_c = np.zeros(4)
    coeffs_a = np.zeros(4)
    for _ in range(50):
        g = rng.normal(size=4)
        coeffs_c = coeffs_c - delta_of(c, g)
        coeffs_a = coeffs_a - delta_of(a, g)
        assert np.array_equal(coeffs_c, coeffs_a)


def test_combined_past_ramp_is_momentum_bitwise():
    # clock started beyond the ramp, both velocity states cold
    rng = np.random.default_rng(4)
    c = make_optimizer("combined", 3, LR, ramp_length=3.0)
    c.step_count = 3
    m = make_optimizer("momentum", 3, LR)
    coeffs_c = np.zeros(3)
    coeffs_m = np.zeros(3)
    for _ in range(20):
        g = rng.normal(size=3)
        coeffs_c = coeffs_c - delta_of(c, g)
        coeffs_m = coeffs_m - delta_of(m, g)
        assert np.array_equal(coeffs_c, coeffs_m)


def assert_amsgrad_state(c, a):
    """Combined's AMSGrad state (m, s, v_max) is that of the AMSGrad run ``a``."""
    for key in ("m", "s", "v_max"):
        np.testing.assert_array_equal(getattr(c, key), getattr(a, key), err_msg=key)


def test_combined_handover_matches_warmed_momentum():
    # after the ramp the update directions coincide with a pure momentum
    # run that saw the same gradient history; AMSGrad stops advancing there,
    # so its state is that of an AMSGrad run that saw only the first 3 steps
    rng = np.random.default_rng(5)
    for rows in (None, 3):
        c, m, a = (Optimizer(2, [(name, LR, ramp, rows)])
                   for name, ramp in (("combined", 3.0), ("momentum", None), ("amsgrad", None)))
        grads = rng.normal(size=(8, *c.shape))
        for k, g in enumerate(grads):
            dc = delta_of(c, g)
            dm = delta_of(m, g)
            if k < 3:
                delta_of(a, g)
            else:
                assert np.array_equal(dc, dm)
        assert_amsgrad_state(c, a)
        np.testing.assert_array_equal(c.velocity, m.velocity)
        assert c.step_count == m.step_count == 8 and a.step_count == 3


def test_combined_advances_both_substates_every_step():
    c = make_optimizer("combined", 2, LR, ramp_length=5.0)
    a = make_optimizer("amsgrad", 2, LR)
    m = make_optimizer("momentum", 2, LR)
    for _ in range(4):
        for opt in (c, a, m):
            delta_of(opt, np.array([1.0, 1.0]))
    assert_amsgrad_state(c, a)
    np.testing.assert_array_equal(c.velocity, m.velocity)
    assert c.step_count == 4
    assert np.all(c.velocity != 0)
    assert np.all(c.v_max > 0)


def test_combined_requires_positive_ramp():
    with pytest.raises(ValueError, match="ramp_length"):
        make_optimizer("combined", 2, LR, ramp_length=0.0)
    with pytest.raises(ValueError, match="ramp_length"):
        make_optimizer("combined", 2, LR, ramp_length=-5.0)


# ------------------------------------------------------------ invariants


@given(
    name=st.sampled_from(BASELINE_NAMES + ("combined",)),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_translation_equivariance(name, data):
    dim = data.draw(st.integers(1, 5))
    steps = data.draw(st.integers(1, 4))
    finite = st.floats(-10, 10, allow_nan=False)
    coeffs = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    shift = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
    grads = [
        np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
        for _ in range(steps)
    ]
    hyper = {"ramp_length": 2.0} if name == "combined" else {}
    a = make_optimizer(name, dim, LR, **hyper)
    b = make_optimizer(name, dim, LR, **hyper)
    xa, xb = coeffs.copy(), coeffs + shift
    for g in grads:
        xa = xa - delta_of(a, g)
        xb = xb - delta_of(b, g)
        np.testing.assert_allclose(xb, xa + shift, rtol=1e-12, atol=1e-12)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_amsgrad_vmax_monotone(data):
    dim = data.draw(st.integers(1, 4))
    steps = data.draw(st.integers(1, 10))
    finite = st.floats(-100, 100, allow_nan=False)
    opt = make_optimizer("amsgrad", dim, LR)
    prev = np.zeros(dim)  # the state starts at zero
    for _ in range(steps):
        g = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
        delta_of(opt, g)
        assert np.all(opt.v_max >= prev)
        prev = opt.v_max.copy()


@pytest.mark.parametrize("name", tuple(OPTIMIZERS))
def test_returned_delta_is_not_state(name):
    # the state is updated in place, and advance() returns a delta buffer
    # apart from it: a caller that writes over the delta leaves the next step
    # as it was; combined with a ramp of 2 returns Momentum's direction from
    # its third step on
    rng = np.random.default_rng(7)
    hyper = {"ramp_length": 2.0} if name == "combined" else {}
    opt, twin = (make_optimizer(name, 3, LR, **hyper) for _ in range(2))
    for _ in range(6):
        g = rng.normal(size=3)
        np.copyto(opt.grad, g)
        got = opt.advance()
        assert np.array_equal(got, delta_of(twin, g)), name
        got.fill(np.nan)


def test_update_ignores_coefficient_values():
    # the delta depends on gradient history only
    for name in BASELINE_NAMES:
        a = make_optimizer(name, 2, LR)
        b = make_optimizer(name, 2, LR)
        g = np.array([0.5, -1.5])
        for _ in range(3):
            assert np.array_equal(delta_of(a, g), delta_of(b, g))


@pytest.mark.parametrize("name", BASELINE_NAMES + ("combined",))
def test_rows_step_like_separate_optimizers(name):
    # a bank of 4 rows of one run, one row per trial
    rng = np.random.default_rng(6)
    ramp = 3.0 if name == "combined" else None
    together = Optimizer(3, [(name, LR, ramp, 4)])
    alone = [make_optimizer(name, 3, LR, ramp) for _ in range(4)]
    coeffs = rng.normal(size=(4, 3))
    rows = [c.copy() for c in coeffs]
    for _ in range(6):
        grads = rng.normal(size=(4, 3))
        coeffs = coeffs - delta_of(together, grads)
        rows = [r - delta_of(opt, g) for opt, r, g in zip(alone, rows, grads)]
        np.testing.assert_array_equal(coeffs, np.stack(rows))

    # runs of several rules in one optimizer: this rule at two rates (combined
    # also at three ramps, one infinite) among a run of every other rule, in
    # shuffled order; the ramps of 2, 3 and 5.5 hand over at steps 3, 4 and 7
    runs = [(other, LR, 2.0 if other == "combined" else None, 2)
            for other in OPTIMIZERS if other != name]
    ramps = (3.0, 5.5, math.inf) if name == "combined" else (None,)
    runs += [(name, lr, ramp, 3) for lr in (LR, 0.03) for ramp in ramps]
    runs = [runs[i] for i in rng.permutation(len(runs))]
    bank = Optimizer(3, runs)
    alone = [[make_optimizer(rule, 3, lr, ramp_length=ramp) for _ in range(rows)]
             for rule, lr, ramp, rows in runs]
    coeffs = rng.normal(size=bank.shape)
    together = coeffs.copy()
    for _ in range(8):
        grads = rng.normal(size=bank.shape)
        together = together - delta_of(bank, grads)
        for opts, block in zip(alone, bank.blocks):
            for opt, row in zip(opts, range(block.start, block.stop)):
                coeffs[row] = coeffs[row] - delta_of(opt, grads[row])
        np.testing.assert_array_equal(together, coeffs)


# ------------------------------------------------------- the grad buffer


def assert_bitwise(got, want, msg=""):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), msg


@pytest.mark.parametrize("name", tuple(OPTIMIZERS))
@pytest.mark.parametrize("rows", [None, 3])
def test_advance_reuses_its_buffers_built_at_the_final_shape(name, rows):
    # a lone run and a bank are both built at their final shape
    rng = np.random.default_rng(8)
    ramp = 4.0 if name == "combined" else None
    lone = make_optimizer(name, 3, LR, ramp)
    assert lone.shape == lone.grad.shape == (3,)
    opt, twin = (Optimizer(3, [(name, LR, ramp, rows)]) for _ in range(2))
    grads = rng.normal(size=(8, *((rows, 3) if rows else (3,))))
    assert opt.shape == opt.grad.shape == grads.shape[1:]
    buffer, delta = opt.grad, opt.delta
    for k, g in enumerate(grads):
        np.copyto(opt.grad, g)
        got = opt.advance()
        assert_bitwise(got, delta_of(twin, g), f"{name} step {k}")
        assert got is delta and opt.grad is buffer
    for key in ("velocity", "m", "s", "v_max"):
        assert_bitwise(getattr(opt, key), getattr(twin, key), key)


# Banks whose rows group differently from those of one-run optimizers: every
# rule, where no recurrence shares its rows with another; two combined ramps,
# which share v, m and s until the first hand-over and then m and s; adam with
# amsgrad, which share m and s; and one combined run across its hand-over.
BANKS = {
    "every-rule": [(name, LR, 2.0 if name == "combined" else None, 2) for name in OPTIMIZERS]
    + [("combined", 0.03, ramp, 3) for ramp in (3.0, math.inf)],
    "combined-ramps": [("combined", LR, 2.0, 2), ("combined", 0.03, 9.0, 3)],
    "adam-amsgrad": [("adam", LR, None, 2), ("amsgrad", 0.03, None, 3)],
    "lone-combined": [("combined", LR, 4.0, 3)],
}


@pytest.mark.parametrize("bank", tuple(BANKS))
def test_advance_over_the_grad_buffer_across_handover_and_without(bank):
    # the ramps of 2, 3, 4 and 9 hand over at steps 3, 4, 5 and 10; each row is
    # checked against a lone optimizer of its run's rule
    rng = np.random.default_rng(9)
    runs = [BANKS[bank][i] for i in rng.permutation(len(BANKS[bank]))]
    opt = Optimizer(3, runs)
    alone = [[make_optimizer(rule, 3, lr, ramp) for _ in range(rows)]
             for rule, lr, ramp, rows in runs]
    for k in range(12):
        if k == 6:
            gone = [i % 3 == 0 and len(runs) > 1 for i in range(len(runs))]
            opt, rows = opt.without(gone)
            kept = [i for i, out in enumerate(gone) if not out]
            alone = [alone[i] for i in kept]
            assert opt.grad.shape == opt.shape == (rows.size, 3)
        g = rng.normal(size=opt.shape)
        opt.grad[...] = g
        got = opt.advance()
        for opts, block in zip(alone, opt.blocks):
            for row, one in zip(range(block.start, block.stop), opts):
                assert_bitwise(got[row], delta_of(one, g[row]), f"{bank} step {k} row {row}")
    assert opt.step_count == 12


# ------------------------------------------------------------ validation


def test_registry_contents():
    # the table's order is the order of every comparison's files and legend
    assert BASELINE_NAMES + ("combined",) == tuple(OPTIMIZERS) == (
        "basic", "momentum", "nesterov", "adagrad", "rmsprop", "adam", "amsgrad", "combined"
    )
    for name, cls in OPTIMIZERS.items():
        assert cls.name == name


def test_make_optimizer_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown optimizer"):
        make_optimizer("adamw", 2, LR)


def test_constructor_validation():
    # dim is an int >= 1: a float used to build int(dim) coefficients
    for bad in (0, -1, 2.5, 2.0, "3", True):
        with pytest.raises(ValueError, match=f"dim must be an int >= 1, got {bad!r}"):
            make_optimizer("basic", bad, LR)
        with pytest.raises(ValueError, match=f"dim must be an int >= 1, got {bad!r}"):
            Optimizer(bad, [("basic", LR, None, 2)])
    assert make_optimizer("adam", np.int64(3), LR).shape == (3,)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            make_optimizer("basic", 2, bad)
    with pytest.raises(ValueError, match="^basic takes no ramp_length, got 5.0$"):
        make_optimizer("basic", 3, LR, ramp_length=5.0)
    # the decay rates and eps are constants; ramp_length is the only keyword
    with pytest.raises(TypeError, match="rho"):
        make_optimizer("adam", 2, LR, rho=0.5)
    with pytest.raises(TypeError, match="momentum"):
        make_optimizer("combined", 2, LR, ramp_length=5.0, momentum=0.5)


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.1", None, 1j])
def test_rates_and_ramps_must_be_real_numbers(bad):
    # rejected, not converted: float() would take "0.1" and True as rates
    shown = re.escape(repr(bad))
    rate = rf"^learning_rate must be a real number, got {shown}$"
    with pytest.raises(ValueError, match=rate):
        make_optimizer("basic", 3, bad)
    with pytest.raises(ValueError, match=rate):
        Optimizer(3, [("basic", LR, None, 2), ("adam", bad, None, 1)])
    if bad is not None:  # a missing ramp is combined's range error, see below
        with pytest.raises(ValueError, match=rf"^ramp_length must be a real number, got {shown}$"):
            make_optimizer("combined", 3, LR, ramp_length=bad)


# an int past the float range used to raise a bare OverflowError from float()
def test_a_learning_rate_too_large_for_a_float_is_a_value_error():
    message = "^learning_rate must be a real number, got one too large for a float$"
    with pytest.raises(ValueError, match=message):
        make_optimizer("basic", 3, 10**400)


def test_a_ramp_length_too_large_for_a_float_is_a_value_error():
    message = "^ramp_length must be a real number, got one too large for a float$"
    with pytest.raises(ValueError, match=message):
        make_optimizer("combined", 3, LR, ramp_length=10**400)


@pytest.mark.parametrize("rate", [1, np.int64(1), np.float32(1.0), np.float64(1.0)])
def test_ints_and_numpy_reals_are_rates_and_ramps(rate):
    g = np.array([0.5, -1.0, 2.0])
    given_as = make_optimizer("combined", 3, rate, ramp_length=np.int64(5))
    floats = make_optimizer("combined", 3, 1.0, ramp_length=5.0)
    for _ in range(3):
        assert delta_of(given_as, g).tobytes() == delta_of(floats, g).tobytes()


def test_constructor_rejects_bad_run_lists():
    with pytest.raises(ValueError, match="at least one run is required"):
        Optimizer(3, [])
    for rows in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match=f"a run needs an int rows >= 1, got {rows}"):
            Optimizer(3, [("basic", LR, None, 2), ("adam", LR, None, rows)])
    with pytest.raises(ValueError, match="only a lone run"):
        Optimizer(3, [("basic", LR, None, None), ("adam", LR, None, None)])


def test_without_takes_one_flag_per_run_of_a_bank():
    with pytest.raises(ValueError, match="a lone run has no rows to drop"):
        make_optimizer("basic", 3, LR).without([False])
    bank = Optimizer(3, [("basic", LR, None, 2), ("adam", LR, None, 1)])
    for gone in ([False], [True], [False, False, False]):
        with pytest.raises(ValueError, match=f"gone has {len(gone)} flags for 2 runs"):
            bank.without(gone)
    with pytest.raises(ValueError, match="at least one run is required"):
        bank.without([True, True])
    kept, rows = bank.without([True, False])
    assert kept.shape == (1, 3) and rows.tolist() == [2]


def test_gradient_shape_mismatch():
    opt = make_optimizer("basic", 3, LR)
    with pytest.raises(ValueError, match="shape"):
        opt.step(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        opt.step(np.zeros(2), np.zeros(3))
    # a lone run's shape is (dim,) from the start, and refuses a bank's gradient
    opt = make_optimizer("adam", 3, LR)
    with pytest.raises(ValueError, match=r"gradient shape \(2, 3\) is not the optimizer's, \(3,\)"):
        opt.step(np.zeros(3), np.zeros((2, 3)))
    assert opt.step_count == 0 and opt.m.shape == (3,)
    # the coefficients must have the optimizer's shape too, not only its last axis
    lone, bank = make_optimizer("momentum", 3, LR), Optimizer(3, [("momentum", LR, None, 2)])
    with pytest.raises(ValueError, match=r"coefficient shape \(2, 3\) is not the optimizer's, \(3,\)"):
        lone.step(np.zeros((2, 3)), np.ones(3))
    with pytest.raises(ValueError, match=r"coefficient shape \(3,\) is not the optimizer's, \(2, 3\)"):
        bank.step(np.zeros(3), np.ones((2, 3)))
    assert lone.step_count == bank.step_count == 0
