"""Time series containers and primitives shared by the rest of the package.

Conventions used throughout:

* series values are float64 and oldest-first,
* normalization is the affine map of an observed [min, max] onto [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number (an int or a numpy float too); a bool is not."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_real(value, rule: str) -> None:
    """Raise ``ValueError(f"{rule}, got ...")`` unless ``value`` is a real number that fits a float.

    A bool or a str is rejected, not converted, and so is an int past 1.8e308.
    """
    if not _is_real(value):
        raise ValueError(f"{rule}, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{rule}, got one too large for a float") from None


@dataclass(frozen=True)
class TimeSeries:
    """Evenly indexed sample sequence; ``values[0]`` is sample 0."""

    values: np.ndarray

    def __post_init__(self):
        # bools and strings are rejected, not converted
        arr = np.asarray(self.values)
        if isinstance(self.values, (list, tuple)) and arr.dtype.kind in "iufO":
            # asarray reads a bool beside a number as 1, and keeps an int
            # past 64 bits as an object
            kinds = set(map(type, self.values))
            if bool in kinds or np.bool_ in kinds:
                raise ValueError("samples must be ints or floats, got a bool")
            if arr.dtype == object and all(issubclass(t, Real) for t in kinds):
                try:
                    arr = np.array([float(v) for v in self.values])
                except OverflowError:
                    raise ValueError("samples must be ints or floats, "
                                     "got an int too large for a float") from None
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"samples must be ints or floats, got dtype {arr.dtype}")
        arr = arr.astype(np.float64, copy=False)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-d sequence of samples, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series contains non-finite samples")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class MicroBatch:
    """One contiguous chunk of a stream, delivered as a unit.

    A batch carries no name of its own: errors, divergence messages and
    curves name it by its 0-based position in the run's batch list.
    """

    samples: TimeSeries

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("micro-batch must contain at least one sample")

    def __len__(self) -> int:
        return len(self.samples)


def normalize(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Map the observed range [lo, hi] affinely onto [-1, 1] and apply it to ``values``.

    A constant range (lo == hi) cannot be stretched; every sample maps to 0,
    the midpoint of the target interval.
    """
    if lo == hi:
        return np.zeros_like(values)
    # fraction first: lo and hi land exactly on -1 and 1, and samples
    # inside [lo, hi] cannot escape [-1, 1]
    frac = (values - lo) / (hi - lo)
    return -1.0 + frac * 2.0
