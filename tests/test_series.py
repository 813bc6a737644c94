"""Container and primitive tests: normalization, micro-batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from streamarima.series import (
    MicroBatch,
    NormalizationParams,
    TimeSeries,
    estimate_normalization,
    make_microbatches,
    normalize,
)

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
    with pytest.raises(ValueError, match="start_index"):
        TimeSeries(np.zeros(3), start_index=-1)
    assert len(TimeSeries([1, 2, 3])) == 3
    assert TimeSeries([1, 2, 3]).values.dtype == np.float64


def test_normalize_hits_target_endpoints_exactly():
    ts = TimeSeries(np.array([3.0, -1.0, 7.0, 5.0]))
    out, params = normalize(ts)
    assert out.values.min() == -1.0
    assert out.values.max() == 1.0
    assert params.observed_min == -1.0 and params.observed_max == 7.0
    assert not params.degenerate


@given(arr=series_arrays)
@settings(max_examples=80, deadline=None)
def test_normalize_bounds_and_roundtrip(arr):
    lo, hi = -1.0, 1.0
    ts = TimeSeries(arr)
    out, params = normalize(ts, lo, hi)
    assert np.all(out.values >= lo) and np.all(out.values <= hi)
    # the recorded parameters are enough to undo the map
    frac = (out.values - lo) / (hi - lo)
    back = params.observed_min + frac * (params.observed_max - params.observed_min)
    scale = max(1.0, float(np.abs(arr).max()))
    np.testing.assert_allclose(back, arr, rtol=0, atol=1e-9 * scale)


def test_normalize_constant_series_maps_to_midpoint():
    ts = TimeSeries(np.full(5, 2.5))
    out, params = normalize(ts)
    assert params.degenerate
    np.testing.assert_array_equal(out.values, np.zeros(5))
    assert params.observed_min == params.observed_max == 2.5


def test_estimate_without_applying():
    params = estimate_normalization(TimeSeries([0.0, 10.0]), 0.0, 1.0)
    np.testing.assert_allclose(params.apply(np.array([5.0])), [0.5], atol=1e-15)


def test_normalization_params_validation():
    with pytest.raises(ValueError, match="observed_min"):
        NormalizationParams(2.0, 1.0)
    with pytest.raises(ValueError, match="target_lo"):
        NormalizationParams(0.0, 1.0, target_lo=1.0, target_hi=1.0)


def test_microbatch_validation():
    with pytest.raises(ValueError, match="batch_index"):
        MicroBatch(TimeSeries([1.0]), batch_index=-1)
    with pytest.raises(ValueError, match="at least one sample"):
        MicroBatch(TimeSeries(np.array([])))
    assert len(MicroBatch(TimeSeries([1.0, 2.0]), 3)) == 2


def test_make_microbatches_drops_remainder():
    ts = TimeSeries(np.arange(10.0), start_index=100)
    batches = make_microbatches(ts, 3)
    assert [b.batch_index for b in batches] == [0, 1, 2]
    assert [b.samples.start_index for b in batches] == [100, 103, 106]
    glued = np.concatenate([b.samples.values for b in batches])
    np.testing.assert_array_equal(glued, ts.values[:9])


def test_make_microbatches_errors():
    ts = TimeSeries(np.arange(4.0))
    with pytest.raises(ValueError, match="batch_size"):
        make_microbatches(ts, 0)
    with pytest.raises(ValueError, match="shorter than one batch"):
        make_microbatches(ts, 5)


@given(arr=series_arrays, size=st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_make_microbatches_partition_property(arr, size):
    ts = TimeSeries(arr)
    if len(ts) < size:
        return
    batches = make_microbatches(ts, size)
    assert all(len(b) == size for b in batches)
    glued = np.concatenate([b.samples.values for b in batches])
    np.testing.assert_array_equal(glued, arr[: len(glued)])
    assert len(arr) - len(glued) < size
