"""Optimizer unit tests.

The reference recurrences at the top are straight-line transcriptions in
plain Python (no numpy), written independently of the implementation.
Every optimizer is checked against its transcription over a scripted
gradient sequence; the blend inside ``Combined`` is checked at its anchor
points and against a hand-rolled two-optimizer oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamarima.optimizers import (
    BASELINE_NAMES,
    OPTIMIZERS,
    AMSGrad,
    Combined,
    Momentum,
    make_optimizer,
)

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
    """Observed update directions, recovered through the public step call."""
    out = []
    coeffs = np.zeros(opt.dim)
    for grad in grads:
        new = opt.step(coeffs, np.asarray(grad))
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
    opt = Momentum(1, 0.1)
    first = opt.update_direction([1.0])
    second = opt.update_direction([1.0])
    assert first[0] == pytest.approx(0.1, abs=1e-12)
    assert second[0] == pytest.approx(0.19, abs=1e-12)


def test_nesterov_first_step_lookahead():
    opt = make_optimizer("nesterov", 1, 0.1)
    d = opt.update_direction([1.0])
    # v = 0.1, delta = 0.9*0.1 + 0.1
    assert d[0] == pytest.approx(0.19, abs=1e-12)


def test_adagrad_first_step_value():
    opt = make_optimizer("adagrad", 1, 0.1)
    d = opt.update_direction([2.0])
    assert d[0] == pytest.approx(0.1 * 2 / (math.sqrt(4.0) + 1e-8), abs=1e-15)


def test_rmsprop_first_step_value():
    opt = make_optimizer("rmsprop", 1, 0.1)
    d = opt.update_direction([1.0])
    assert d[0] == pytest.approx(0.1 / (math.sqrt(0.1) + 1e-8), abs=1e-15)
    assert d[0] == pytest.approx(0.3162, abs=5e-5)


def test_adam_first_step_is_learning_rate_scaled_sign():
    opt = make_optimizer("adam", 1, 0.1)
    d = opt.update_direction([1.0])
    # both corrections cancel the (1-beta) factors on the first step
    assert d[0] == pytest.approx(0.1, abs=1e-8)

    opt = make_optimizer("adam", 1, 0.1)
    d = opt.update_direction([100.0])
    assert d[0] == pytest.approx(0.1, abs=1e-8)


def test_amsgrad_max_never_increases_step():
    # after a large then a tiny gradient the retained max exceeds the
    # current second moment, so the step is no larger than the same
    # update computed from the current moment alone
    opt = make_optimizer("amsgrad", 1, 0.1)
    opt.update_direction([10.0])
    opt.update_direction([0.1])
    m_before = opt.m.copy()
    v_before = opt.v.copy()
    d = opt.update_direction([0.1])

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
            d = opt.update_direction(np.zeros(2))
            assert np.array_equal(d, np.zeros(2)), name


def test_velocity_decays_geometrically_after_zero_gradients():
    for name in ("momentum", "nesterov"):
        opt = make_optimizer(name, 2, 0.1)
        opt.update_direction(np.array([1.0, -2.0]))
        prev = opt.update_direction(np.zeros(2))
        for _ in range(5):
            cur = opt.update_direction(np.zeros(2))
            assert np.array_equal(cur, 0.9 * prev), name
            prev = cur


# ----------------------------------------------------------------- blend


def combined_deltas(t, ramp_length, grad):
    """Combined's delta at step t, with AMSGrad's and Momentum's from cold state."""
    grad = np.asarray(grad, dtype=np.float64)
    comb = Combined(grad.size, LR, ramp_length=ramp_length)
    comb.step_count = t  # the weight reads the count before the step
    a = AMSGrad(grad.size, LR).update_direction(grad)
    m = Momentum(grad.size, LR).update_direction(grad)
    return comb.update_direction(grad), a, m


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
    opt = Combined(2, LR, ramp_length=2.0)
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
    c = Combined(3, LR, ramp_length=2000.0)
    a = AMSGrad(3, LR)
    assert np.array_equal(c.update_direction(g), a.update_direction(g))


def test_combined_infinite_ramp_is_amsgrad_bitwise():
    rng = np.random.default_rng(3)
    c = Combined(4, LR, ramp_length=math.inf)
    a = AMSGrad(4, LR)
    coeffs_c = np.zeros(4)
    coeffs_a = np.zeros(4)
    for _ in range(50):
        g = rng.normal(size=4)
        coeffs_c = c.step(coeffs_c, g)
        coeffs_a = a.step(coeffs_a, g)
        assert np.array_equal(coeffs_c, coeffs_a)


def test_combined_past_ramp_is_momentum_bitwise():
    # clock started beyond the ramp, both velocity states cold
    rng = np.random.default_rng(4)
    c = Combined(3, LR, ramp_length=3.0)
    c.step_count = 3
    m = Momentum(3, LR)
    coeffs_c = np.zeros(3)
    coeffs_m = np.zeros(3)
    for _ in range(20):
        g = rng.normal(size=3)
        coeffs_c = c.step(coeffs_c, g)
        coeffs_m = m.step(coeffs_m, g)
        assert np.array_equal(coeffs_c, coeffs_m)


def test_combined_handover_matches_warmed_momentum():
    # after the ramp the update directions coincide with a pure momentum
    # run that saw the same gradient history; AMSGrad stops advancing there
    rng = np.random.default_rng(5)
    for shape in ((2,), (3, 2)):
        grads = rng.normal(size=(8, *shape))
        c = Combined(2, LR, ramp_length=3.0)
        m = Momentum(2, LR)
        for k, g in enumerate(grads):
            dc = c.update_direction(g)
            dm = m.update_direction(g)
            if k >= 3:
                assert np.array_equal(dc, dm)
        assert c.amsgrad.step_count == 3 and c.momentum.step_count == 8


def test_combined_advances_both_substates_every_step():
    c = Combined(2, LR, ramp_length=5.0)
    for _ in range(4):
        c.update_direction(np.array([1.0, 1.0]))
    assert c.amsgrad.step_count == 4
    assert c.momentum.step_count == 4
    assert c.step_count == 4
    assert np.all(c.momentum.velocity != 0)
    assert np.all(c.amsgrad.v_max > 0)


def test_combined_requires_positive_ramp():
    with pytest.raises(ValueError, match="ramp_length"):
        Combined(2, LR, ramp_length=0.0)
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
        xa = a.step(xa, g)
        xb = b.step(xb, g)
        np.testing.assert_allclose(xb, xa + shift, rtol=1e-12, atol=1e-12)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_amsgrad_vmax_monotone(data):
    dim = data.draw(st.integers(1, 4))
    steps = data.draw(st.integers(1, 10))
    finite = st.floats(-100, 100, allow_nan=False)
    opt = AMSGrad(dim, LR)
    prev = opt.v_max.copy()
    for _ in range(steps):
        g = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
        opt.update_direction(g)
        assert np.all(opt.v_max >= prev)
        prev = opt.v_max.copy()


@pytest.mark.parametrize("name", tuple(OPTIMIZERS))
def test_returned_delta_is_not_state(name):
    # state is updated in place, so a returned delta must be a copy; combined
    # with a ramp of 2 returns Momentum's direction from its third step on
    rng = np.random.default_rng(7)
    hyper = {"ramp_length": 2.0} if name == "combined" else {}
    opt = make_optimizer(name, 3, LR, **hyper)
    prev = opt.update_direction(rng.normal(size=3))
    for _ in range(5):
        kept = prev.copy()
        cur = opt.update_direction(rng.normal(size=3))
        assert np.array_equal(prev, kept), name
        prev = cur


def test_update_ignores_coefficient_values():
    # the delta depends on gradient history only
    for name in BASELINE_NAMES:
        a = make_optimizer(name, 2, LR)
        b = make_optimizer(name, 2, LR)
        g = np.array([0.5, -1.5])
        for _ in range(3):
            assert np.array_equal(a.update_direction(g), b.update_direction(g))


@pytest.mark.parametrize("name", BASELINE_NAMES + ("combined",))
def test_rows_step_like_separate_optimizers(name):
    # state broadcasts from (dim,) to (rows, dim), one row per trial
    rng = np.random.default_rng(6)
    hyper = {"ramp_length": 3.0} if name == "combined" else {}
    together = make_optimizer(name, 3, LR, **hyper)
    alone = [make_optimizer(name, 3, LR, **hyper) for _ in range(4)]
    coeffs = rng.normal(size=(4, 3))
    rows = [c.copy() for c in coeffs]
    for _ in range(6):
        grads = rng.normal(size=(4, 3))
        coeffs = together.step(coeffs, grads)
        rows = [opt.step(r, g) for opt, r, g in zip(alone, rows, grads)]
        np.testing.assert_array_equal(coeffs, np.stack(rows))


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
    with pytest.raises(ValueError, match="dim"):
        make_optimizer("basic", 0, LR)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            make_optimizer("basic", 2, bad)
    # the decay rates and eps are constants; ramp_length is the only keyword
    with pytest.raises(TypeError, match="rho"):
        make_optimizer("adam", 2, LR, rho=0.5)
    with pytest.raises(TypeError, match="momentum"):
        make_optimizer("combined", 2, LR, ramp_length=5.0, momentum=0.5)


def test_gradient_shape_mismatch():
    opt = make_optimizer("basic", 3, LR)
    with pytest.raises(ValueError, match="shape"):
        opt.update_direction(np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        opt.step(np.zeros(2), np.zeros(3))
    # state takes the first gradient's shape, and every later one must match it
    opt = make_optimizer("adam", 3, LR)
    opt.update_direction(np.zeros((2, 3)))
    assert opt.m.shape == (2, 3)
    with pytest.raises(ValueError, match="differs from the first"):
        opt.update_direction(np.zeros(3))
