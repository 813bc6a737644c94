"""Smoothing and SVG rendering tests."""

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import polyline_points
from streamarima.optimizers import OPTIMIZERS
from streamarima.plotting import (
    PALETTE,
    _polyline_points,
    moving_average,
    render_svg,
    smooth_curve,
)


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


def test_zero_points_smooth_to_nothing_and_do_not_plot():
    assert moving_average([], 3).size == 0
    idx, vals = smooth_curve([], [], 5)
    assert idx.size == 0 and vals.size == 0
    with pytest.raises(ValueError, match="^curves contain no points$"):
        render_svg({"c": (idx, vals)})


def test_render_svg_escapes_its_text():
    x = np.arange(3.0)
    labels = ["a<b & c", "x > y"]
    svg = render_svg({label: (x, x) for label in labels}, title="x<y",
                     x_label="t & u", y_label="<r>")
    texts = [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "x<y"
    assert "t & u" in texts and "<r>" in texts
    assert texts[-2:] == labels


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


def per_point(x, y):
    """The points attribute written one "%.2f" pair at a time."""
    return " ".join(map("%.2f,%.2f".__mod__, zip(x.tolist(), y.tolist())))


# Kinds of values a polyline can hold: plain plot coordinates, values of
# 1000 and more up past the array path's bound (c = 100 v < 2**31 - 1),
# exact binary ties (k/8), the doubles at and next to x.xx5, and the
# values that send a polyline through the per-point path.
near_x_xx5 = st.tuples(st.integers(0, 10**7), st.sampled_from([-1.0, 0.0, 1.0])).map(
    lambda t: float(np.nextafter((10 * t[0] + 5) / 1000, (10 * t[0] + 5) / 1000 + t[1]))
)
value_kinds = {
    "plain": st.floats(0, 1000),
    "large": st.floats(1000, 3e7),
    "ties": st.integers(0, 3 * 10**6).map(lambda k: k / 8),
    "near_x_xx5": near_x_xx5,
    "signed": st.one_of(st.just(-0.0), st.floats(-1e4, -0.0), st.floats(0, 1000)),
    "non_finite": st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]), st.floats(0, 1000)),
}


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_polyline_encoder_matches_percent_format(data):
    n = data.draw(st.integers(0, 40))
    kinds = st.sampled_from(list(value_kinds.values()))
    x = data.draw(hnp.arrays(np.float64, n, elements=data.draw(kinds)))
    y = data.draw(hnp.arrays(np.float64, n, elements=data.draw(kinds)))
    assert _polyline_points(x, y) == per_point(x, y)


def test_polyline_encoder_writes_near_ties_per_point():
    # 0.005 is a little above 0.005, so "%.2f" writes 0.01, but 100 * 0.005
    # rounds to exactly 0.5, which rint takes to 0: the array path alone
    # would write 0.00. 0.375 and 1.125 are exact ties, rounded half to even.
    x = np.array([0.005, 1.125, 70.0])
    y = np.array([0.375, 2.675, 1234.5])
    assert np.rint(x[0] * 100.0) == 0.0
    assert _polyline_points(x, y) == "0.01,0.38 1.12,2.67 70.00,1234.50"
    # the same points off the ties take the array path
    x, y = x + 0.001, y + 0.001
    assert _polyline_points(x, y) == "0.01,0.38 1.13,2.68 70.00,1234.50"
    assert _polyline_points(x, y) == per_point(x, y)
    assert _polyline_points(np.array([]), np.array([])) == ""
