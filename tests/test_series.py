"""Container and normalization tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from streamarima.series import MicroBatch, TimeSeries, normalize

series_arrays = hnp.arrays(
    np.float64,
    st.integers(4, 60),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def test_timeseries_validation():
    with pytest.raises(ValueError, match="1-d"):
        TimeSeries(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        TimeSeries(np.array([1.0, np.nan]))
    assert len(TimeSeries([1, 2, 3])) == 3
    assert TimeSeries([1, 2, 3]).values.dtype == np.float64


def test_normalize_hits_target_endpoints_exactly():
    values = np.array([3.0, -1.0, 7.0, 5.0])
    out = normalize(values, -1.0, 7.0)
    np.testing.assert_array_equal(out, [0.0, -1.0, 1.0, 0.5])


@given(arr=series_arrays)
@settings(max_examples=80, deadline=None)
def test_normalize_bounds_and_roundtrip(arr):
    lo, hi = float(arr.min()), float(arr.max())
    out = normalize(arr, lo, hi)
    assert np.all(out >= -1.0) and np.all(out <= 1.0)
    # the observed range is enough to undo the map
    back = lo + (out + 1.0) / 2.0 * (hi - lo)
    scale = max(1.0, float(np.abs(arr).max()))
    np.testing.assert_allclose(back, arr, rtol=0, atol=1e-9 * scale)


def test_estimate_without_applying():
    # the range is fitted on one series and applied to another, as for the
    # later batches of a directory
    np.testing.assert_array_equal(normalize(np.array([5.0, 20.0]), 0.0, 10.0), [0.0, 3.0])


def test_normalize_constant_series_maps_to_midpoint():
    np.testing.assert_array_equal(normalize(np.full(5, 2.5), 2.5, 2.5), np.zeros(5))


def test_microbatch_validation():
    with pytest.raises(ValueError, match="batch_index"):
        MicroBatch(TimeSeries([1.0]), batch_index=-1)
    for bad in (True, 1.5):
        with pytest.raises(ValueError, match=f"batch_index must be an int >= 0, got {bad!r}"):
            MicroBatch(TimeSeries([1.0]), batch_index=bad)
    assert MicroBatch(TimeSeries([1.0]), np.int64(2)).batch_index == 2
    with pytest.raises(ValueError, match="at least one sample"):
        MicroBatch(TimeSeries(np.array([])))
    assert len(MicroBatch(TimeSeries([1.0, 2.0]), 3)) == 2
