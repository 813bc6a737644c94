"""Time series containers and primitives shared by the rest of the package.

Conventions used throughout:

* series values are float64 and oldest-first,
* normalization is the affine map of the observed [min, max] onto a
  target interval, [-1, 1] unless stated otherwise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d sequence of samples, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Evenly indexed sample sequence.

    ``start_index`` is the global position of ``values[0]``; slices of a
    longer stream keep their original indexing this way.
    """

    values: np.ndarray
    start_index: int = 0

    def __post_init__(self):
        arr = _as_float_array(self.values)
        if not np.all(np.isfinite(arr)):
            raise ValueError("series contains non-finite samples")
        if self.start_index < 0:
            raise ValueError(f"start_index must be >= 0, got {self.start_index}")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class MicroBatch:
    """One contiguous chunk of a stream, delivered as a unit."""

    samples: TimeSeries
    batch_index: int = 0

    def __post_init__(self):
        if self.batch_index < 0:
            raise ValueError(f"batch_index must be >= 0, got {self.batch_index}")
        if len(self.samples) == 0:
            raise ValueError("micro-batch must contain at least one sample")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class NormalizationParams:
    """Frozen affine map used to normalize a series.

    ``degenerate`` marks a constant input, where the map collapses every
    sample onto the midpoint of the target interval.
    """

    observed_min: float
    observed_max: float
    target_lo: float = -1.0
    target_hi: float = 1.0
    degenerate: bool = field(default=False)

    def __post_init__(self):
        if not (self.observed_min <= self.observed_max):
            raise ValueError("observed_min must be <= observed_max")
        if not (self.target_lo < self.target_hi):
            raise ValueError("target_lo must be < target_hi")

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = _as_float_array(values)
        if self.degenerate:
            mid = 0.5 * (self.target_lo + self.target_hi)
            return np.full_like(values, mid)
        # fraction first: observed min/max land exactly on the target
        # endpoints and interior points cannot escape [target_lo, target_hi]
        frac = (values - self.observed_min) / (self.observed_max - self.observed_min)
        return self.target_lo + frac * (self.target_hi - self.target_lo)


def estimate_normalization(
    series: TimeSeries, target_lo: float = -1.0, target_hi: float = 1.0
) -> NormalizationParams:
    """Fit normalization parameters on ``series`` without applying them."""
    lo = float(series.values.min())
    hi = float(series.values.max())
    return NormalizationParams(lo, hi, target_lo, target_hi, degenerate=(lo == hi))


def normalize(
    series: TimeSeries, target_lo: float = -1.0, target_hi: float = 1.0
) -> tuple[TimeSeries, NormalizationParams]:
    """Affinely map ``series`` onto [target_lo, target_hi].

    A constant series cannot be stretched; it maps to the midpoint of the
    target interval and the returned params are flagged degenerate.
    """
    params = estimate_normalization(series, target_lo, target_hi)
    return TimeSeries(params.apply(series.values), series.start_index), params


def make_microbatches(series: TimeSeries, batch_size: int) -> list[MicroBatch]:
    """Split ``series`` into consecutive non-overlapping batches of ``batch_size``.

    A trailing remainder shorter than ``batch_size`` is dropped; the drop is
    logged so silent truncation is visible in experiment logs.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n_batches = len(series) // batch_size
    if n_batches == 0:
        raise ValueError(
            f"series of length {len(series)} is shorter than one batch of {batch_size}"
        )
    dropped = len(series) - n_batches * batch_size
    if dropped:
        log.info("dropping %d trailing samples shorter than one batch", dropped)
    batches = []
    for k in range(n_batches):
        chunk = series.values[k * batch_size : (k + 1) * batch_size]
        batches.append(
            MicroBatch(
                samples=TimeSeries(chunk, series.start_index + k * batch_size),
                batch_index=k,
            )
        )
    return batches
