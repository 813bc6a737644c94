"""Generator tests: innovation contract, recurrence, presets, shift behavior, validation."""

import hashlib
import math
import re

import numpy as np
import pytest

from oracles import arma_samples
from oracles import innovations as reference_innovations
from streamarima.cli import series_csv
from streamarima.synthetic import (
    CoefficientShift,
    GeneratorSpec,
    gaussian_innovations,
    generate,
    generate_raw,
    preset,
)


def test_innovation_contract_is_frozen():
    got = gaussian_innovations(42, 16, 0.3)
    np.testing.assert_allclose(got, reference_innovations(42, 16, 0.3), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(got, gaussian_innovations(42, 16, 0.3))
    assert not np.array_equal(got, gaussian_innovations(43, 16, 0.3))


def test_innovation_moments():
    eps = gaussian_innovations(0, 200_000, 0.3)
    assert abs(eps.mean()) < 0.005
    assert eps.std() == pytest.approx(0.3, rel=0.02)


def test_preset_parameters():
    p1 = preset(1, seed=5)
    assert p1.alpha == (0.9, -0.9, 0.9, -0.4, -0.1)
    assert p1.beta == ()
    assert p1.length == 10_000 and p1.burn_in == 500 and p1.noise_std == 0.3
    assert p1.seed == 5 and p1.shift is None

    p2 = preset(2)
    assert p2.alpha == p1.alpha and p2.beta == (0.5, 0.1)

    p3 = preset(3)
    assert p3.alpha == p2.alpha and p3.beta == p2.beta
    assert p3.shift == CoefficientShift(
        at_index=5000, alpha=(0.7, -0.7, 0.7, -0.6, -0.3), beta=(0.2, 0.4)
    )
    with pytest.raises(ValueError, match="unknown preset"):
        preset(4)


def test_generate_is_deterministic_and_normalized():
    for setting in (1, 2, 3):
        a = generate(preset(setting, seed=7))
        b = generate(preset(setting, seed=7))
        np.testing.assert_array_equal(a.values, b.values)
        assert len(a) == 10_000
        assert a.values.min() == -1.0
        assert a.values.max() == 1.0


# sha256 of the CSV that `synth --preset k --seed 7` writes
PRESET_SHA256 = {
    1: "0540d0ce7c2926985f4243dcbabccb30679233df5eb115987becf9a4ff9af67c",
    2: "3403d48c7631205125d491bbd97e60c600706c2948571c19b6b1a3f1b7f668f6",
    3: "e9ff3a463a012b3c97577df73b861a3bc4bd16dd983861bbd29fc948a6e91c21",
}


@pytest.mark.parametrize("setting", sorted(PRESET_SHA256))
def test_normalized_preset_bytes_are_pinned(setting):
    text = series_csv(generate(preset(setting, seed=7)))
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_SHA256[setting]


def test_seed_changes_realization():
    a = generate(preset(1, seed=0))
    b = generate(preset(1, seed=1))
    assert not np.array_equal(a.values, b.values)


def test_shifted_preset_shares_its_prefix_raw():
    # identical dynamics until the shift index, bitwise, then a divergence;
    # the comparison is on raw series because normalization couples the
    # halves through the global min and max
    base = generate_raw(preset(2, seed=3)).values
    shifted = generate_raw(preset(3, seed=3)).values
    np.testing.assert_array_equal(shifted[:5000], base[:5000])
    assert shifted[5000] != base[5000]


def test_shift_index_counts_from_burn_in_end():
    spec = GeneratorSpec(
        alpha=(0.5,),
        length=10,
        seed=0,
        burn_in=4,
        shift=CoefficientShift(at_index=3, alpha=(-0.5,), beta=()),
    )
    base = GeneratorSpec(alpha=(0.5,), length=10, seed=0, burn_in=4)
    a = generate_raw(spec).values
    b = generate_raw(base).values
    np.testing.assert_array_equal(a[:3], b[:3])
    assert a[3] != b[3]


def test_explosive_coefficients_are_rejected():
    with pytest.raises(ValueError, match="non-stationary"):
        generate_raw(GeneratorSpec(alpha=(1.5,), length=200, seed=0))


def test_zero_noise_stable_recurrence_collapses_to_midpoint():
    spec = GeneratorSpec(alpha=(0.5,), length=50, seed=0, noise_std=0.0, burn_in=10)
    out = generate(spec)
    np.testing.assert_array_equal(out.values, np.zeros(50))


def test_spec_validation():
    with pytest.raises(ValueError, match="autoregressive"):
        GeneratorSpec(alpha=())
    with pytest.raises(ValueError, match="length"):
        GeneratorSpec(alpha=(0.5,), length=0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_std"):
            GeneratorSpec(alpha=(0.5,), noise_std=bad)
    with pytest.raises(ValueError, match="burn_in"):
        GeneratorSpec(alpha=(0.5,), burn_in=-1)
    with pytest.raises(ValueError, match="shift index"):
        CoefficientShift(at_index=0, alpha=(0.5,), beta=())


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "x", "0.3", None, 1j])
def test_noise_std_must_be_a_real_number(bad):
    shown = re.escape(repr(bad))
    with pytest.raises(ValueError, match=rf"^noise_std must be a real number, got {shown}$"):
        GeneratorSpec(alpha=(0.5,), length=5, noise_std=bad)


# an int past the float range used to raise a bare OverflowError from math.isfinite
def test_a_noise_std_too_large_for_a_float_is_a_value_error():
    message = "^noise_std must be a real number, got one too large for a float$"
    with pytest.raises(ValueError, match=message):
        GeneratorSpec(alpha=(0.5,), length=5, noise_std=10**400)


def test_a_coefficient_too_large_for_a_float_is_a_value_error():
    message = "^alpha coefficients must be finite real numbers, got one too large for a float$"
    with pytest.raises(ValueError, match=message):
        GeneratorSpec(alpha=(10**400,), length=5)


@pytest.mark.parametrize("noise_std", [0, 1, np.int64(1), np.float32(0.25), np.float64(0.3)])
def test_noise_std_takes_ints_and_numpy_reals(noise_std):
    assert len(generate(GeneratorSpec(alpha=(0.5,), length=5, noise_std=noise_std))) == 5


def test_integer_fields_are_checked_at_construction():
    for field, bad, rule in (
        ("seed", (1.5, True, -1, 2**128, "3"), r"seed must be an int in \[0, 2\*\*128\)"),
        ("length", (2.5, True, 0), "length must be an int >= 1"),
        ("burn_in", (1.5, False, -1), "burn_in must be an int >= 0"),
    ):
        for value in bad:
            with pytest.raises(ValueError, match=rule):
                GeneratorSpec(alpha=(0.5,), **{field: value})
    for value in (2.5, True, 0):
        with pytest.raises(ValueError, match="at_index"):
            CoefficientShift(at_index=value, alpha=(0.5,))
    # numpy integers and the largest Philox key are accepted
    spec = GeneratorSpec(alpha=(0.5,), length=np.int64(5), burn_in=np.int32(2), seed=2**128 - 1)
    assert len(generate(spec)) == 5
    assert CoefficientShift(at_index=np.int64(1), alpha=(0.5,)).at_index == 1


@pytest.mark.parametrize("spec", [
    *(preset(setting, seed=seed) for setting in (1, 2, 3) for seed in (0, 7)),
    # no burn-in, and more lags than the first samples have behind them
    GeneratorSpec(alpha=(0.3, -0.2, 0.1, 0.05, -0.05, 0.02), beta=(0.4, 0.3, -0.2, 0.1, 0.1),
                  length=40, burn_in=0, seed=3),
    # a shift at the first index, onto more lags than before
    GeneratorSpec(alpha=(0.3, 0.2), beta=(0.4,), length=30, burn_in=2, seed=5,
                  shift=CoefficientShift(1, (0.5, -0.1, 0.1), (0.2, 0.2, -0.2, 0.1))),
    GeneratorSpec(alpha=(0.3, 0.2), length=30, burn_in=0, seed=5,
                  shift=CoefficientShift(1, (-0.5,), (0.3,))),
    # a shift past the end never applies
    GeneratorSpec(alpha=(0.3, 0.2), beta=(0.4,), length=30, burn_in=2, seed=5,
                  shift=CoefficientShift(31, (0.9,), ())),
    # more MA than AR lags over several blocks of the recurrence, and a shift
    # inside a block onto still more
    GeneratorSpec(alpha=(0.3,), beta=(0.4, 0.3, 0.2, -0.1, 0.1), length=3000, burn_in=7,
                  seed=11, shift=CoefficientShift(1500, (0.2, 0.1), (0.1,) * 7)),
    GeneratorSpec(alpha=(0.3, 0.2), beta=(0.4,), length=1, burn_in=0, seed=9),
    GeneratorSpec(alpha=(0.3, 0.2), beta=(0.4,), length=1, seed=9),
], ids=lambda spec: f"p{len(spec.alpha)}q{len(spec.beta)}n{spec.length}b{spec.burn_in}"
                    f"s{spec.seed}{'shift' if spec.shift else ''}")
def test_generate_raw_is_the_recurrence_bit_for_bit(spec):
    got = generate_raw(spec).values
    assert got.tobytes() == arma_samples(spec).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x", "0.5", None, True,
                                 np.bool_(False), 1j, np.float64("nan")])
def test_coefficients_must_be_finite_real_numbers(bad):
    for field in ("alpha", "beta"):
        coefficients = {field: (0.5, bad)}
        with pytest.raises(ValueError, match=rf"^{field} coefficients must be finite real "):
            GeneratorSpec(**{"alpha": (0.5,), **coefficients})
        with pytest.raises(ValueError, match=rf"^shift {field} coefficients must be finite "):
            CoefficientShift(at_index=3, **{"alpha": (0.5,), **coefficients})


def test_coefficient_sequences_are_checked_at_construction():
    with pytest.raises(ValueError, match="^shift alpha needs at least one autoregressive"):
        CoefficientShift(at_index=3, alpha=())
    with pytest.raises(ValueError, match="^alpha needs at least one autoregressive"):
        GeneratorSpec(alpha=[])
    for field in ("alpha", "beta"):
        with pytest.raises(ValueError, match=f"^{field} must be a sequence of coefficients"):
            GeneratorSpec(**{"alpha": (0.5,), field: 0.5})
    # ints and numpy numbers are real; a list is kept as a tuple
    spec = GeneratorSpec(alpha=[1, np.float64(-0.5)], beta=[np.int64(0)], length=5)
    assert spec.alpha == (1, -0.5) and spec.beta == (0,)
    assert isinstance(spec.alpha, tuple) and isinstance(spec.beta, tuple)
    assert len(generate(spec)) == 5
