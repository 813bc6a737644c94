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

from .series import TimeSeries, _check_real, _is_int, normalize

EXPLOSION_LIMIT = 1e6
# samples per block of the generator's recurrence, see _recur
_RECURRENCE_BLOCK = 1024


def _coefficients(field: str, values, required: bool) -> tuple:
    """``values`` as a tuple of finite real numbers (not bools), at least one if ``required``."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{field} must be a sequence of coefficients, got {values!r}") from None
    if required and not values:
        raise ValueError(f"{field} needs at least one autoregressive coefficient")
    rule = f"{field} coefficients must be finite real numbers"
    for value in values:
        _check_real(value, rule)
        if not math.isfinite(value):
            raise ValueError(f"{rule}, got {value!r}")
    return values


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
        object.__setattr__(self, "alpha", _coefficients("shift alpha", self.alpha, True))
        object.__setattr__(self, "beta", _coefficients("shift beta", self.beta, False))


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
        object.__setattr__(self, "alpha", _coefficients("alpha", self.alpha, True))
        object.__setattr__(self, "beta", _coefficients("beta", self.beta, False))
        if not (_is_int(self.length) and self.length >= 1):
            raise ValueError(f"length must be an int >= 1, got {self.length!r}")
        _check_real(self.noise_std, "noise_std must be a real number")
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

    Sample t is ``eps[t] + alpha[0]*x[t-1] + ... + alpha[p-1]*x[t-p]
    + beta[0]*eps[t-1] + ... + beta[q-1]*eps[t-q]``, added left to right,
    where a term whose lag reaches before the first sample is left out.
    The burn-in prefix is generated, used to populate lags, and discarded.
    Because innovations are drawn in time order, two specs that agree up to
    some recorded index produce bit-identical samples up to that index,
    which is what makes shifted variants comparable against their base.
    """
    total = spec.burn_in + spec.length
    eps = gaussian_innovations(spec.seed, total, spec.noise_std)
    samples = np.zeros(total)
    cut = total if spec.shift is None else min(total, spec.burn_in + spec.shift.at_index)
    _recur(samples, eps, spec.alpha, spec.beta, 0, cut)
    if spec.shift is not None:
        _recur(samples, eps, spec.shift.alpha, spec.shift.beta, cut, total)
    if not np.all(np.abs(samples) <= EXPLOSION_LIMIT):
        raise ValueError(
            "non-stationary realization: sample magnitude exceeded "
            f"{EXPLOSION_LIMIT:g}, check the recurrence coefficients"
        )
    return TimeSeries(samples[spec.burn_in :])


def _recur(samples: np.ndarray, eps: np.ndarray, alpha, beta, start: int, stop: int) -> None:
    """Write ``samples[start:stop]`` with one coefficient set, see ``generate_raw``.

    The recurrence runs over Python lists of floats: the same IEEE double
    arithmetic as on numpy scalars at a fraction of the cost per term. The
    lists hold one block of _RECURRENCE_BLOCK samples and the lags before
    it, so no float object outlives its block (lists of a whole series
    held about 1.3 MB for batched-files' 21k samples, and raised its peak
    RSS). List index i is sample ``origin + i``: with origin 0 the guard
    ``lag <= i`` is the series' own, and a later block starts past every
    lag, so the guard always holds.
    """
    ar = list(enumerate(alpha, 1))
    ma = list(enumerate(beta, 1))
    reach = max(len(ar), len(ma))
    for lo in range(start, stop, _RECURRENCE_BLOCK):
        hi = min(lo + _RECURRENCE_BLOCK, stop)
        origin = max(lo - reach, 0)
        x, e = samples[origin:hi].tolist(), eps[origin:hi].tolist()
        for i in range(lo - origin, hi - origin):
            acc = e[i]
            for lag, a in ar:
                if lag <= i:
                    acc += a * x[i - lag]
            for lag, b in ma:
                if lag <= i:
                    acc += b * e[i - lag]
            x[i] = acc
        samples[lo:hi] = x[lo - origin :]


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
