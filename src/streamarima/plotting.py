"""Minimal deterministic SVG line charts.

The renderer is intentionally tiny: fixed canvas, one polyline per labeled
curve, a legend, and min/mid/max tick labels. Output is a pure function of
the input arrays, with no timestamps or generated ids, so identical runs
produce identical bytes.

Each coordinate is written with two decimals, the bytes ``"%.2f"`` gives.
A curve's pixel coordinates are computed on whole arrays, and its
``points`` attribute is encoded in one numpy pass; a curve that the pass
cannot write exactly is written point by point (see ``_polyline_points``).
"""

from __future__ import annotations

import numpy as np

from .optimizers import OPTIMIZERS

WIDTH = 960
HEIGHT = 480
MARGIN_L = 70
MARGIN_R = 180
MARGIN_T = 40
MARGIN_B = 50

PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#111111",
    "#7f7f7f",
    "#bcbd22",
)


def moving_average(values, window: int) -> np.ndarray:
    """Trailing moving average; a window longer than the data is clamped."""
    values = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    window = min(window, values.size)
    if window <= 1:  # 0 for no data, which gives no points
        return values.copy()
    kernel = np.full(window, 1.0 / window)
    return np.convolve(values, kernel, mode="valid")


def smooth_curve(indices, values, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply a trailing moving average, keeping indices aligned to window ends."""
    indices = np.asarray(indices)
    smoothed = moving_average(values, window)
    return indices[indices.size - smoothed.size :], smoothed


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _text(s: str) -> str:
    """``s`` escaped for the content of an SVG text element."""
    return str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_digits(out: np.ndarray, q: np.ndarray, min_digits: int = 1) -> None:
    """Write the decimal digits of the non-negative integers ``q`` into the rows of ``out``.

    ``out`` is a (len(q), width) uint8 matrix, or a view of one. Row k gets
    the ASCII digits of ``q[k]`` right-aligned; the columns before its
    leading digit get 0, a blank that the caller drops, except the last
    ``min_digits`` columns, which always hold digits (zeros in front). The
    caller makes ``out`` wide enough for the largest value.
    """
    width = out.shape[1]
    for col in range(width - 1, -1, -1):
        tens = q // 10
        digit = q - tens * 10 + ord("0")
        if col < width - min_digits:
            digit *= q != 0
        out[:, col] = digit
        q = tens


# The array path of _polyline_points writes rint(100 v) as an int32.
_FAST_BOUND = float(np.iinfo(np.int32).max)


def _polyline_points(x: np.ndarray, y: np.ndarray) -> str:
    """The ``points`` attribute of a polyline: ``"%.2f,%.2f"`` per point, space-separated.

    ``"%.2f" % v`` writes K / 100, where K is the exact value 100 v rounded
    to the nearest integer, half to even. The array path writes
    ``k = rint(c)`` instead, where ``c = fl(100 v)`` is the product rounded
    to the nearest double and rint also rounds half to even. Below
    c = 2**31 - 1, the bound that keeps k in an int32, every half-integer
    h is a double and rounding is monotone, so c lies on the same side of
    h as 100 v, or on h itself. k and K can therefore differ only where c
    is a half-integer, that is, where ``|c - k| == 0.5``; ``c - k`` is
    exact (Sterbenz's lemma). A polyline with such a value of c, with c at
    or past the bound, with a non-finite value or with a value whose sign
    bit is set (negatives and -0.0) is written point by point with
    ``"%.2f"``, so every byte is the per-point formula's.

    On the array path each value fills one row of a uint8 matrix: the
    digits of ``k // 100`` with blanks (0) before the leading one, ``.``,
    the two digits of ``k % 100``, then ``,`` after x and a space after y.
    The non-blank bytes, less the last space, are decoded once.
    """
    v = np.column_stack((x, y)).ravel()
    if v.size == 0:
        return ""
    c = v * 100.0
    k = np.rint(c)
    if not (np.all(c < _FAST_BOUND) and not np.signbit(v).any()
            and np.all(np.abs(c - k) < 0.5)):
        return " ".join(map("%.2f,%.2f".__mod__, zip(x.tolist(), y.tolist())))
    q = k.astype(np.int32)
    units = q // 100
    cents = q - units * 100
    width = len(str(units.max()))
    text = np.empty((v.size, width + 4), dtype=np.uint8)
    write_digits(text[:, width + 1 : width + 3], cents, 2)
    write_digits(text[:, :width], units)
    text[:, width] = ord(".")
    text[0::2, width + 3] = ord(",")
    text[1::2, width + 3] = ord(" ")
    flat = text.ravel()[:-1]
    return flat[flat != 0].tobytes().decode("ascii")


def render_svg(
    curves: dict[str, tuple[np.ndarray, np.ndarray]],
    title: str = "",
    x_label: str = "t",
    y_label: str = "residual",
) -> str:
    """Render labeled (x, y) curves to an SVG document string.

    When every label is a rule name, each curve takes its rule's colour, the
    palette entry at the rule's place in OPTIMIZERS, so a rule looks the
    same in every comparison. Other plots (a sweep) colour by position.
    """
    if not curves:
        raise ValueError("no curves to plot")
    xs = np.concatenate([np.asarray(x, dtype=np.float64) for x, _ in curves.values()])
    ys = np.concatenate([np.asarray(y, dtype=np.float64) for _, y in curves.values()])
    if xs.size == 0:
        raise ValueError("curves contain no points")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_text(title)}</text>'
        )

    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{_fmt(px(xv))}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.5g}</text>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{_fmt(py(yv) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.5g}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_text(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {MARGIN_T + plot_h // 2})">{_text(y_label)}</text>'
    )

    rules = list(OPTIMIZERS) if all(label in OPTIMIZERS for label in curves) else None
    for k, (label, (x, y)) in enumerate(curves.items()):
        color = PALETTE[(rules.index(label) if rules else k) % len(PALETTE)]
        # px and py take whole arrays, and _polyline_points writes _fmt(v) per value
        pts = _polyline_points(px(np.asarray(x, dtype=np.float64)),
                               py(np.asarray(y, dtype=np.float64)))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
        ly = MARGIN_T + 14 + 18 * k
        lx = WIDTH - MARGIN_R + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_text(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
