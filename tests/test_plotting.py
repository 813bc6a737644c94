"""Smoothing and SVG rendering tests."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import polyline_points
from streamarima.optimizers import OPTIMIZERS
from streamarima.plotting import PALETTE, moving_average, render_svg, smooth_curve


def test_moving_average_trailing():
    np.testing.assert_allclose(
        moving_average([1.0, 2.0, 3.0, 4.0], 2), [1.5, 2.5, 3.5], atol=1e-15
    )
    np.testing.assert_allclose(moving_average([1.0, 2.0, 3.0], 1), [1.0, 2.0, 3.0])
    # window longer than the data clamps to one global mean
    np.testing.assert_allclose(moving_average([1.0, 3.0], 10), [2.0], atol=1e-15)
    with pytest.raises(ValueError, match="window"):
        moving_average([1.0], 0)


def test_smooth_curve_aligns_indices_to_window_ends():
    idx = np.arange(100, 105)
    values = np.arange(5.0)
    out_idx, out_vals = smooth_curve(idx, values, 3)
    np.testing.assert_array_equal(out_idx, [102, 103, 104])
    np.testing.assert_allclose(out_vals, [1.0, 2.0, 3.0], atol=1e-15)


def test_render_svg_structure():
    x = np.arange(10.0)
    svg = render_svg(
        {"one": (x, np.sin(x)), "two": (x, np.cos(x))},
        title="demo",
        x_label="sample",
        y_label="err",
    )
    assert svg.startswith("<svg ")
    assert svg.count("<polyline") == 2
    assert ">one</text>" in svg and ">two</text>" in svg
    assert ">demo</text>" in svg
    assert 'width="960" height="480"' in svg


def test_render_svg_is_deterministic():
    x = np.linspace(0, 1, 50)
    y = np.sqrt(x)
    a = render_svg({"c": (x, y)})
    b = render_svg({"c": (x, y)})
    assert a == b


def test_render_svg_handles_flat_curves():
    flat = render_svg({"c": (np.arange(3.0), np.full(3, 0.5))})
    assert "<polyline" in flat
    assert "nan" not in flat.lower()


def test_render_svg_rejects_empty_input():
    with pytest.raises(ValueError, match="no curves"):
        render_svg({})


def test_render_svg_gives_each_rule_its_colour():
    def strokes(curves):
        svg = render_svg({label: (np.arange(3.0), np.arange(3.0)) for label in curves})
        return re.findall(r'<polyline [^>]*stroke="(#[0-9a-f]+)"', svg)

    # a rule keeps its colour when the rules before it are left out
    rules = ["adagrad", "amsgrad"]
    assert strokes(rules) == [PALETTE[list(OPTIMIZERS).index(name)] for name in rules]
    # a sweep mixes rule names with other labels and colours by position
    assert strokes(["combined_lambda_5", "amsgrad"]) == [PALETTE[0], PALETTE[1]]


coordinates = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def plotted_curves(draw):
    """1-10 curves of 0-300 points, int or float, some flat, labelled by rule or not."""
    count = draw(st.integers(1, 10))
    if draw(st.booleans()):
        rules = draw(st.permutations(list(OPTIMIZERS)))
        labels = rules[: min(count, len(rules))]
    else:
        labels = [f"curve_{k}" for k in range(count)]
    curves = {}
    for label in labels:
        n = draw(st.integers(0, 300))
        dtype = draw(st.sampled_from([np.int64, np.float64]))
        elements = coordinates if dtype is np.float64 else st.integers(-10**6, 10**6)
        x = draw(hnp.arrays(dtype, n, elements=elements))
        if draw(st.booleans()):
            y = np.full(n, draw(coordinates), dtype=dtype)
        else:
            y = draw(hnp.arrays(dtype, n, elements=elements))
        curves[label] = (x, y)
    if sum(x.size for x, _ in curves.values()) == 0:
        curves[labels[0]] = (np.array([draw(coordinates)]), np.array([draw(coordinates)]))
    return curves


@given(curves=plotted_curves())
@settings(max_examples=60, deadline=None)
def test_polyline_points_match_the_per_point_formula(curves):
    svg = render_svg(curves, title="t")
    assert re.findall(r'<polyline points="([^"]*)"', svg) == polyline_points(curves)
