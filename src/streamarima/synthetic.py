"""Seeded synthetic ARMA series with optional mid-stream coefficient shifts.

The innovation stream is part of the package's external contract so the
same seed reproduces the same series anywhere: uniforms come from numpy's
counter-based Philox generator keyed with the seed, consumed two per
innovation through the Box-Muller transform

    z[j] = sqrt(-2 * ln(1 - u[2j])) * cos(2 * pi * u[2j + 1])

and scaled by ``noise_std``. Philox is a documented, portable algorithm,
so a reimplementation in another language can match the stream bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import TimeSeries, _is_int, normalize

EXPLOSION_LIMIT = 1e6


@dataclass(frozen=True)
class CoefficientShift:
    """Replacement recurrence coefficients taking over at a recorded index.

    Lagged samples and innovations carry across the switch unchanged; only
    the coefficients applied to them change.
    """

    at_index: int
    alpha: tuple[float, ...]
    beta: tuple[float, ...] = ()

    def __post_init__(self):
        if not (_is_int(self.at_index) and self.at_index >= 1):
            raise ValueError(f"at_index (the shift index) must be an int >= 1, "
                             f"got {self.at_index!r}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Full recipe for one reproducible ARMA realization."""

    alpha: tuple[float, ...]
    beta: tuple[float, ...] = ()
    length: int = 10_000
    seed: int = 0
    noise_std: float = 0.3
    burn_in: int = 500
    shift: CoefficientShift | None = None

    def __post_init__(self):
        if len(self.alpha) < 1:
            raise ValueError("at least one autoregressive coefficient is required")
        if not (_is_int(self.length) and self.length >= 1):
            raise ValueError(f"length must be an int >= 1, got {self.length!r}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not (_is_int(self.burn_in) and self.burn_in >= 0):
            raise ValueError(f"burn_in must be an int >= 0, got {self.burn_in!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**128):
            raise ValueError(f"seed must be an int in [0, 2**128), got {self.seed!r}")


def gaussian_innovations(seed: int, count: int, std: float) -> np.ndarray:
    """Deterministic innovation stream, see the module docstring for the contract."""
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random(2 * count)
    radius = np.sqrt(-2.0 * np.log(1.0 - uniforms[0::2]))
    angle = np.cos(2.0 * np.pi * uniforms[1::2])
    return std * radius * angle


def generate_raw(spec: GeneratorSpec) -> TimeSeries:
    """Run the recurrence and return the un-normalized series.

    The burn-in prefix is generated, used to populate lags, and discarded.
    Because innovations are drawn in time order, two specs that agree up to
    some recorded index produce bit-identical samples up to that index,
    which is what makes shifted variants comparable against their base.
    """
    total = spec.burn_in + spec.length
    # The recurrence reads and writes the arrays through memoryviews, whose
    # items are Python floats: the same IEEE double arithmetic as on numpy
    # scalars at a fraction of the cost per term, with no float object kept
    # per sample.
    eps = memoryview(gaussian_innovations(spec.seed, total, spec.noise_std))
    samples = np.zeros(total)
    x = memoryview(samples)
    base = (tuple(spec.alpha), tuple(spec.beta))
    shifted = (tuple(spec.shift.alpha), tuple(spec.shift.beta)) if spec.shift else None
    for t in range(total):
        alpha, beta = base
        if shifted is not None and t - spec.burn_in >= spec.shift.at_index:
            alpha, beta = shifted
        acc = eps[t]
        for j, a in enumerate(alpha):
            k = t - 1 - j
            if k >= 0:
                acc += a * x[k]
        for j, b in enumerate(beta):
            k = t - 1 - j
            if k >= 0:
                acc += b * eps[k]
        x[t] = acc
    if not np.all(np.abs(samples) <= EXPLOSION_LIMIT):
        raise ValueError(
            "non-stationary realization: sample magnitude exceeded "
            f"{EXPLOSION_LIMIT:g}, check the recurrence coefficients"
        )
    return TimeSeries(samples[spec.burn_in :])


def generate(spec: GeneratorSpec) -> TimeSeries:
    """Generate a realization and normalize it onto [-1, 1]."""
    raw = generate_raw(spec).values
    return TimeSeries(normalize(raw, raw.min(), raw.max()))


def preset(setting: int, seed: int = 0) -> GeneratorSpec:
    """Built-in evaluation scenarios, 10,000 samples each.

    1: stationary AR(5).
    2: the same AR(5) with a two-term moving-average tail.
    3: preset 2 for the first 5,000 samples, then an abrupt switch to a
       different coefficient set with lags and innovations carried over.
    """
    alpha = (0.9, -0.9, 0.9, -0.4, -0.1)
    if setting == 1:
        return GeneratorSpec(alpha=alpha, beta=(), seed=seed)
    if setting == 2:
        return GeneratorSpec(alpha=alpha, beta=(0.5, 0.1), seed=seed)
    if setting == 3:
        shift = CoefficientShift(
            at_index=5000, alpha=(0.7, -0.7, 0.7, -0.6, -0.3), beta=(0.2, 0.4)
        )
        return GeneratorSpec(alpha=alpha, beta=(0.5, 0.1), seed=seed, shift=shift)
    raise ValueError(f"unknown preset {setting}, expected 1, 2 or 3")
