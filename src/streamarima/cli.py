"""Command-line front end.

Commands
--------
synth        generate a synthetic preset series to CSV
run          stream one optimizer over a series file or batch directory
sweep-lambda combined-optimizer ramp sweep plus three reference rules
grid-search  pick a learning rate by whole-stream mean residual
reproduce    canned configurations 1-7 matching the documented experiments

Outputs are CSV (always unsmoothed) and optional SVG (smoothed view). A
sweep or grid summary scores each run by the whole-stream mean of its
trial-averaged |residual| curve, in its mean_residual column. All files are
written atomically and identical command lines produce identical CSV bytes.
Relative output paths resolve against $STREAMARIMA_OUT_DIR when it is set.

A curve CSV's t cells are str(int(t)) and its value cells repr(float(v)).
Its text is built in numpy: an exact array encoder finds repr's shortest
digits with integer arithmetic (``_shortest_digits``). Each cell is then
written as three 8-byte words: the 17 digits, some moved down to make room
for the point, with the rest of repr's notation in the gaps. Each cell the
encoder cannot prove is written with repr itself.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from .experiment import (
    DivergedError,
    ResidualCurve,
    RunSpec,
    compare_optimizers,
    grid_search,
    normalize_batches,
    run_data,
    sweep_lambda,
)
from .ingest import FORMATS, load_batch_dir, parse_batch_file
from .model import ModelConfig
from .optimizers import OPTIMIZERS
from .plotting import render_svg, smooth_curve, write_digits
from .series import TimeSeries, normalize
from .synthetic import generate, preset

OUT_DIR_ENV = "STREAMARIMA_OUT_DIR"
ALL_OPTIMIZERS = tuple(OPTIMIZERS)
LAMBDA_GRID = ",".join(f"{g:g}" for g in (100, 500, 1000, 2000, 3000, 5000, 10000))

# Canned configurations, as the flags of the explicit command each stands
# for: `sweep-lambda` when it has a grid, else `run` once per optimizer.
# A preset configuration generates its series with --data-seed; the others
# read the batch directory given as --data.
CONFIGS = {
    1: dict(preset=1, mk=5, lr=5e-2, ramp=2000.0, trials=30),
    2: dict(preset=2, mk=10, lr=5e-2, ramp=2000.0, trials=30),
    3: dict(preset=3, mk=10, lr=5e-2, ramp=2000.0, trials=30),
    4: dict(format="bearing", limit=1, repeat=40, mk=300, lr=5e-3, ramp=102400.0, trials=10),
    5: dict(format="bearing", limit=40, mk=300, lr=5e-3, ramp=102400.0, trials=10),
    6: dict(mk=60, d=1, lr=1e-2, ramp=102400.0, trials=10),
    7: dict(preset=2, mk=10, lr=5e-2, grid=LAMBDA_GRID, trials=30),
}


def _resolve_out(path_str: str) -> Path:
    """The output path ``path_str`` names.

    An existing directory is an error, and so is a path under a file: its
    nearest existing ancestor must be a directory.
    """
    path = Path(path_str)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    if path.is_dir():
        raise ValueError(f"{path}: is a directory")
    ancestor = next(p for p in path.absolute().parents if p.exists())
    if not ancestor.is_dir():
        raise ValueError(f"{path}: {ancestor} is not a directory")
    return path


def write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a fresh temporary file beside ``path``, then rename it over ``path``.

    A missing parent directory is created first. The temporary name is
    unique, so two runs writing the same path never share it, and it is
    removed if anything fails before the rename.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file private; give it the mode a plain open would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# A curve CSV's value cells are the text repr(float(v)) gives: the fewest
# significant digits that read back as v, the nearest to v among those,
# with the point placed as _form shows. _shortest_digits finds them with
# integer arithmetic for the positive doubles in [_ARRAY_LO, _ARRAY_HI);
# the other cells, and the few it cannot prove, are written with repr.
_ARRAY_LO, _ARRAY_HI = 1e-10, 1e15
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
# q = 16 - floor(log10 v) is in [1, 27] for v in [_ARRAY_LO, _ARRAY_HI],
# also where log10 rounds across a power of ten, and 5**27 < 2**64
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(18)], dtype=np.uint64)
# the part of 10**i / 2 below 1, times 2**64
_HALF_FRAC = np.array([1 << 63] + [0] * 17, dtype=np.uint64)
# cells that curve_csv encodes at once; twice as many raised the peak RSS
# of `reproduce 2 --trials 2` by 2 MB
_CELL_CHUNK = 1 << 13


def _scaled(m: np.ndarray, p: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(m p / 2**s), and the fraction it drops times 2**64, for 0 < s < 64.

    The product m p < 2**128 is formed exactly from 32-bit limbs. Every
    operand is uint64: numpy computes uint64 with int64 in float64.
    """
    m0, m1, p0, p1 = m & _LOW32, m >> _U64(32), p & _LOW32, p >> _U64(32)
    cross = m0 * p1 + m1 * p0
    low = m0 * p0
    carry = (low >> _U64(32)) + (cross & _LOW32)
    lo = (carry << _U64(32)) | (low & _LOW32)
    hi = m1 * p1 + (cross >> _U64(32)) + (carry >> _U64(32))
    back = _U64(64) - s
    return (hi << back) | (lo >> s), lo << back


def _midpoints(mid: np.ndarray, mid_frac: np.ndarray, p: np.ndarray, s: np.ndarray,
               narrow: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor((m - k) p / 2**s) and floor((m + 2) p / 2**s), from ``_scaled(m, p, s)``.

    k is 1 where ``narrow`` holds (the gap below is half as wide), else 2.
    With m p = mid 2**s + r and k p = a 2**s + b, for r, b < 2**s, the
    lower floor is mid - a, less 1 where r < b; the upper, with 2p in
    place of k p, is mid + a, plus 1 where r + b >= 2**s. mid_frac is
    r 2**(64 - s), and b 2**(64 - s) is k p shifted left by 64 - s in
    uint64, so both tests compare two uint64s. 2p < 2**64, as 5**27 < 2**63.
    """
    back = _U64(64) - s
    up = p << _U64(1)
    down = up >> narrow
    lo = mid - (down >> s) - (mid_frac < (down << back))
    hi = mid + (up >> s) + (mid_frac > ~(up << back))
    return lo, hi


def _places(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The largest i with a multiple of 10**i in (lo, hi], where 0 < hi - lo < 100.

    10**k has a multiple there when hi mod 10**k < hi - lo. That holds for
    k = 1 and 2 by a test each, and past 2 while hi's digits from the
    hundreds up are 0, which only the few that pass k = 2 go on to check.
    """
    gap = hi - lo
    tens = hi // _U64(10)
    hundreds = tens // _U64(10)
    i = (hi - tens * _U64(10) < gap).astype(np.intp)
    deep = hi - hundreds * _U64(100) < gap
    i += deep
    at = np.flatnonzero(deep)
    # hi >= 10**15 on the array range, so the loop ends
    rest = hundreds[at]
    while at.size:
        tens = rest // _U64(10)
        zero = rest == tens * _U64(10)
        at, rest = at[zero], tens[zero]
        i[at] += 1
    return i


def _shortest_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The digits and point position of repr(float(x)) for each float64 x of ``v``.

    Returns ``(near, i, decpt, exact)``. Where ``exact`` holds, near is in
    [10**16, 10**17) and a multiple of 10**i, repr's digits are the first
    17 - i of its 17 digits, and x rounds to 0.near * 10**decpt.

    x = M 2**E with an integer M < 2**53. With q = 16 - floor(log10 x), the
    value and the midpoints to its neighbours, (4M + {-2, 0, 2}) 2**(E-2)
    (4M - 1 below when M = 2**52, where the gap below is half as wide), are
    scaled by 10**q = 5**q 2**q exactly: the value's product with 5**q is
    shifted right by 2 - E - q, and the midpoints' floors follow from it
    (``_midpoints``). The scaled value lies in [10**16, 10**17), where the
    midpoints are more than 1 and less than 24 apart. A midpoint's
    numerator is odd, so it scales to an integer only when E >= 1, for
    x >= 2**53: on the array range the integers between the midpoints are
    those from the lower one's floor + 1 to the upper one's floor. 10**i is
    the largest power of ten with a multiple among them (``_places``), and
    near is the multiple of 10**i nearest the value.

    Not exact, and so written with repr: x off the array range (which
    takes in zero, negatives, subnormals and non-finite values), x midway
    between two multiples of 10**i, near outside the midpoints, and a
    scale that log10 misjudged near a power of ten (the scaled value off
    [10**16, 10**17), or near = 10**17).
    """
    # a value off the range is clamped into it, computed, and not exact
    w = np.fmax(np.fmin(v, _ARRAY_HI), _ARRAY_LO)
    bits = w.view(np.uint64)
    frac = bits & _U64((1 << 52) - 1)
    m = (frac | _U64(1 << 52)) << _U64(2)
    q = (16.0 - np.floor(np.log10(w))).astype(np.intp)
    p = _POW5.take(q)
    s = _U64(1077) - (bits >> _U64(52)) - q.astype(np.uint64)
    mid, mid_frac = _scaled(m, p, s)
    lo, hi = _midpoints(mid, mid_frac, p, s, frac == 0)
    i = _places(lo, hi)
    # near is the multiple of unit nearest the scaled value, mid + mid_frac /
    # 2**64: the largest at or below total, the value plus unit / 2 rounded
    # down, where unit / 2 is unit >> 1 + half_frac / 2**64. It is a tie where
    # near is total and the fractions are equal.
    unit, half_frac = _POW10.take(i), _HALF_FRAC.take(i)
    total = mid + (unit >> _U64(1)) + (mid_frac > ~half_frac)
    near = total // unit * unit
    tie = (total == near) & (mid_frac == half_frac)
    exact = ((v >= _ARRAY_LO) & (v < _ARRAY_HI) & ~tie & (near > lo) & (near <= hi)
             & (mid >= _POW10[16]) & (mid < _POW10[17]) & (i < 17))
    return near, i, 17 - q, exact


# A cell is little-endian uint64 words whose 0 bytes are blanks that
# curve_csv drops. An exact cell is near's 17 digits D0 ... D16, spelled in
# bytes 7 to 23 of _CELL_WORDS words, then cut to repr's text by its form,
# which _forms() tabulates for each i and decpt: the digits kept stay or
# move down 4 or 5 bytes, to make room for "," and ".", and the form's
# other bytes are written in the gaps. The three forms, blanks left out:
#     0.000DDD    ",0." and -decpt zeros up to byte 6, then D0 ... in place
#     DDD.DDD     "," in byte 1, D0 ... D(decpt-1) 5 bytes down, ".", the rest 4 down
#     D.DDDe-05   "," in byte 1, D0 5 bytes down, ".", the rest 4 down, the exponent
_WORD = np.dtype("<u8")
_CELL_WORDS = 3
_FIRST_DIGIT = 7
# a form's byte "d" keeps its digit, and a byte "a" or "b" takes the digit
# that many bytes above it
_MOVES = {"a": 4, "b": 5}


def _form(n: int, decpt: int) -> str:
    """The bytes of a cell that spell "," and repr's text of n digits at decpt.

    "d", "a" and "b" mark digits (see _MOVES) and "\\0" a blank; any other
    byte is itself.
    """
    if -3 <= decpt <= 0:
        lead = ",0." + "0" * -decpt
        form = "\0" * (_FIRST_DIGIT - len(lead)) + lead + "d" * n
    elif decpt <= -4:
        form = "\0,b" + ("." + "a" * (n - 1) if n > 1 else "") + f"e{decpt - 1:+03d}"
    else:
        # decpt >= n puts D(n) ... D(decpt), all 0, before and after the point
        form = "\0," + "b" * decpt + "." + "a" * (max(n, decpt + 1) - decpt)
    return form + "\0" * (8 * _CELL_WORDS - len(form))


@functools.cache
def _forms() -> tuple[np.ndarray, ...]:
    """The bytes each form spells itself, then the masks of its bytes "d",
    "a" and "b", as (3, 486) word matrices: a row per word and the form of
    i and decpt at column 27 i + decpt + 10.
    """
    text = "".join(_form(max(17 - i, 1), decpt) for i in range(18) for decpt in range(-10, 17))
    forms = np.frombuffer(text.encode(), dtype=np.uint8).reshape(-1, 8 * _CELL_WORDS)
    masks = [forms == ord(mark) for mark in ("d", *_MOVES)]
    fill = np.where(np.logical_or.reduce(masks), 0, forms)
    return tuple(np.ascontiguousarray(table.astype(np.uint8).view(_WORD).T).astype(np.uint64)
                 for table in (fill, *(255 * mask for mask in masks)))


@functools.cache
def _quads() -> np.ndarray:
    """The 4 digits of each k < 10**4, zeros in front, as the low bytes of a word, at [k]."""
    k = np.arange(10**4, dtype=np.uint64)
    return sum((k // _U64(10**(3 - j)) % _U64(10) + _U64(ord("0"))) << _U64(8 * j)
               for j in range(4))


def _ascii_rows(texts: list[str], width: int) -> np.ndarray:
    """The texts as the rows of a uint8 matrix, padded with 0 to ``width``."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


def _digit_words(x: np.ndarray) -> np.ndarray:
    """The 17 digits of each uint64 x < 10**17, zeros in front, as the columns of a (3, n) word matrix.

    D0 is byte 7 of word 0, whose other bytes are 0; words 1 and 2 are
    D1 ... D16, from two uint32 lanes of 8 digits, each spelled by two
    lookups in _quads().
    """
    words = np.empty((_CELL_WORDS, x.size), dtype=_WORD)
    first = x // _U64(10**16)
    rest = x - first * _U64(10**16)
    upper = rest // _U64(10**8)
    lanes = np.empty((2, x.size), dtype=np.uint32)
    lanes[0] = upper
    lanes[1] = rest - upper * _U64(10**8)
    np.left_shift(first + _U64(ord("0")), _U64(56), out=words[0])
    quads = _quads()
    high = lanes // np.uint32(10**4)
    np.bitwise_or(quads.take(high), quads.take(lanes - high * np.uint32(10**4)) << _U64(32),
                  out=words[1:])
    return words


def _cells(v: np.ndarray) -> np.ndarray:
    """The cell of each float64 of ``v``, "," and repr(float(x)), as 0-padded matrix rows.

    Each cell is near's digit words cut to its form; the cells that are not
    exact are then overwritten with repr's text, in a fourth word if one
    needs it.
    """
    near, i, decpt, exact = _shortest_digits(v)
    slow = np.flatnonzero(~exact)
    texts = [f",{x!r}" for x in v[slow].tolist()]
    width = max(_CELL_WORDS, -(-max(map(len, texts), default=0) // 8))
    cells = np.empty((v.size, width), dtype=_WORD)
    cells[:, _CELL_WORDS:] = 0
    fill, *masks = _forms()
    form = i * 27 + decpt + 10
    digits = _digit_words(near)
    words = cells[:, :_CELL_WORDS].T
    np.bitwise_and(digits, masks[0].take(form, axis=1), out=words)
    words |= fill.take(form, axis=1)
    # only the common form, 0.000DDD, keeps its digits in place
    other = np.flatnonzero(exact & ((decpt < -3) | (decpt > 0)))
    if other.size:
        theirs, at = digits.take(other, axis=1), form.take(other)
        placed = fill.take(at, axis=1)
        for shift, mask in zip(_MOVES.values(), masks[1:]):
            moved = theirs >> _U64(8 * shift)
            moved[:-1] |= theirs[1:] << _U64(64 - 8 * shift)
            moved &= mask.take(at, axis=1)
            placed |= moved
        cells[other, :_CELL_WORDS] = placed.T
    if slow.size:
        cells[slow] = _ascii_rows(texts, 8 * width).view(_WORD)
    return cells.view(np.uint8)


def curve_csv(curve: ResidualCurve) -> str:
    """The curve as CSV text: t, r_mean and, for T > 1 trials, r_0 ... r_{T-1}.

    Every t cell is str(int(t)) and every value cell repr(float(v)). About
    _CELL_CHUNK cells at a time, the rows are one uint8 matrix: a newline
    and t's digits, then the row's cells, padded with 0 that one
    ``bytes.translate`` then drops. The header's newline is the first
    row's, and the last row's is added at the end.
    """
    trials = curve.per_trial.shape[0]
    header = ["t", "r_mean"]
    columns = [curve.mean]
    if trials > 1:
        header += [f"r_{i}" for i in range(trials)]
        columns += list(curve.per_trial)
    blocks = [",".join(header)]
    t = curve.indices.astype(np.int64)
    values = np.column_stack(columns).astype(np.float64, copy=False)
    t_width = len(str(t.max())) if t.size else 0
    step = max(1, _CELL_CHUNK // values.shape[1])
    for a in range(0, t.size, step):
        block_t = t[a : a + step]
        text = _cells(values[a : a + step].ravel()).reshape(block_t.size, -1)
        rows = np.empty((block_t.size, 1 + t_width + text.shape[1]), dtype=np.uint8)
        rows[:, 0] = ord("\n")
        write_digits(rows[:, 1 : t_width + 1], block_t)
        rows[:, t_width + 1 :] = text
        blocks.append(rows.tobytes().translate(None, b"\0").decode("ascii"))
    blocks.append("\n")
    return "".join(blocks)


def series_csv(series: TimeSeries) -> str:
    lines = ["value"]
    lines += map(repr, series.values.tolist())
    return "\n".join(lines) + "\n"


def sweep_csv(records) -> str:
    lines = ["label,mean_residual,diverged"]
    for r in records:
        lines.append(f"{r.label},{repr(r.score)},{int(r.diverged)}")
    return "\n".join(lines) + "\n"


def grid_csv(best: float, records) -> str:
    lines = ["rate,mean_residual,diverged,best"]
    for r in records:
        rate = r.spec.learning_rate
        lines.append(f"{repr(rate)},{repr(r.score)},{int(r.diverged)},{int(rate == best)}")
    return "\n".join(lines) + "\n"


def _svg_from_curves(curves: dict[str, ResidualCurve], smooth: int, title: str) -> str:
    plotted = {}
    for label, curve in curves.items():
        window = smooth if curve.granularity == "sample" else 1
        plotted[label] = smooth_curve(curve.indices, curve.mean, window)
    # with no curves (every run diverged) render_svg reports the error
    batched = any(curve.granularity == "batch" for curve in curves.values())
    x_label = "batch" if batched else "sample"
    return render_svg(plotted, title=title, x_label=x_label, y_label="mean |residual|")


def _reject_batch_flags(args) -> None:
    given = [flag for flag, value, default in (
        ("--format", args.format, "csv"), ("--channel", args.channel, 0),
        ("--limit", args.limit, None), ("--repeat", args.repeat, 1),
    ) if value != default]
    if given:
        raise ValueError(f"{', '.join(given)}: valid only when --data is a batch directory")


def _load_data(args):
    """A directory is a batch source; a file is a single-column CSV series."""
    path = Path(args.data)
    if path.is_dir():
        if args.repeat < 1:
            raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
        batches = load_batch_dir(path, args.format, channel=args.channel, limit=args.limit)
        if args.normalize is not False:
            batches = normalize_batches(batches)
        return batches * args.repeat
    if not path.exists():
        raise ValueError(f"{path}: no such file or directory")
    _reject_batch_flags(args)
    series = parse_batch_file(path, "csv").samples
    if args.normalize is True:
        values = series.values
        lo, hi = values.min(), values.max()
        if lo == hi:
            raise ValueError(f"{path} is constant at {lo:g}: it gives no range to normalize by")
        series = TimeSeries(normalize(values, lo, hi))
    return series


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="series CSV file or batch directory")
    p.add_argument("--format", choices=FORMATS, default="csv",
                   help="batch file layout when --data is a directory")
    p.add_argument("--channel", type=int, default=0, help="column for bearing files")
    p.add_argument("--limit", type=int, default=None,
                   help="use only the first N batch files")
    p.add_argument("--repeat", type=int, default=1,
                   help="repeat the loaded batch sequence N times")
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=None,
                   help="rescale to [-1, 1]; defaults on for directories "
                        "(frozen first-batch parameters), off for series files")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mk", type=int, default=10, help="autoregressive window size")
    p.add_argument("--d", type=int, default=0, help="differencing order")
    p.add_argument("--trials", type=int, default=1,
                   help="number of coefficient initializations to average")
    p.add_argument("--seed", type=int, default=0, help="base trial seed")
    p.add_argument("--lr", type=float, default=0.05, help="learning rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamarima",
        description="streaming AR forecasting with online gradient optimizers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic preset series")
    p.add_argument("--preset", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--seed", type=int, default=7, help="generator seed")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("run", help="run one optimizer over a data source")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--optimizer", choices=sorted(OPTIMIZERS), required=True)
    p.add_argument("--lambda", dest="ramp", type=float, default=None,
                   help="ramp length for the combined optimizer")
    p.add_argument("--out", required=True, help="residual curve CSV path")
    p.add_argument("--svg", default=None, help="optional SVG plot path")
    p.add_argument("--smooth", type=int, default=50,
                   help="moving-average window for the SVG view")

    p = sub.add_parser("sweep-lambda", help="combined ramp sweep, scored by whole-stream mean")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--grid", default=LAMBDA_GRID,
                   help="comma-separated ramp lengths")
    p.add_argument("--out", required=True, help="summary CSV: label,mean_residual,diverged")
    p.add_argument("--svg", default=None, help="optional SVG plot path")
    p.add_argument("--smooth", type=int, default=50)

    p = sub.add_parser("grid-search", help="pick the rate with the lowest whole-stream mean")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--optimizer", choices=sorted(OPTIMIZERS), required=True)
    p.add_argument("--lambda", dest="ramp", type=float, default=None)
    p.add_argument("--rates", required=True, help="comma-separated learning rates")
    p.add_argument("--out", default=None, help="optional CSV: rate,mean_residual,diverged,best")

    p = sub.add_parser("reproduce", help="run a canned experiment configuration")
    p.add_argument("figure", type=int, choices=tuple(range(1, 8)))
    p.add_argument("--data", default=None, help="batch directory (configurations 4-6)")
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--limit", type=int, default=None, help="override batch count")
    p.add_argument("--trials", type=int, default=None, help="override trial count")
    p.add_argument("--seed", type=int, default=0, help="base trial seed")
    p.add_argument("--data-seed", type=int, default=7, help="synthetic generator seed")
    p.add_argument("--out-dir", default=".", help="directory for output files")
    p.add_argument("--smooth", type=int, default=50)
    p.add_argument("--no-normalize", action="store_true",
                   help="skip first-batch normalization of real data")

    return parser


def _parse_floats(text: str, what: str) -> list[float]:
    """The comma-separated values of ``text``.

    Two values that print alike under ``%g``, as run labels and reports print
    them, are an error: their runs would share a label.
    """
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"could not parse {what}: {text!r}") from None
    if not values:
        raise ValueError(f"{what} is empty")
    seen = {}
    for tok, value in zip(tokens, values):
        shown = f"{value:g}"
        if shown in seen:
            raise ValueError(f"{what}: {seen[shown]!r} and {tok!r} both print as {shown}")
        seen[shown] = tok
    return values


def _spec_from_args(args, optimizer: str, ramp: float | None) -> RunSpec:
    if ramp is not None and optimizer != "combined":
        raise ValueError(f"--lambda: valid only with --optimizer combined, not {optimizer}")
    if ramp is None and optimizer == "combined":
        raise ValueError("--lambda: required with --optimizer combined")
    return RunSpec(
        model=ModelConfig(mk=args.mk, d=args.d),
        optimizer=optimizer,
        learning_rate=args.lr,
        ramp_length=ramp,
        trial_seeds=tuple(args.seed + i for i in range(args.trials)),
    )


def _write_outputs(args, files: dict, curves: dict[str, ResidualCurve],
                   title: str = "") -> list[Path]:
    """Write ``files`` (path to a function that renders its text) and, when
    ``args.svg`` is set, the plot of ``curves``; return the paths, the plot's last.

    Every path is resolved and checked, and the plot rendered, before the
    first write, so a bad path, a path named for two outputs, or a plot that
    cannot be drawn leaves no file behind. Each file's text is rendered just
    before it is written, so only one is held at a time.
    """
    outputs = list(files.items())
    if args.svg:
        svg = _svg_from_curves(curves, args.smooth, title)
        outputs.append((args.svg, lambda: svg))
    paths = [_resolve_out(p) for p, _ in outputs]
    resolved = [p.resolve() for p in paths]
    for k, path in enumerate(paths):
        if resolved[k] in resolved[:k]:
            raise ValueError(f"{path}: named for two outputs")
    for path, (_, render) in zip(paths, outputs):
        write_text_atomic(path, render())
    return paths


def _cmd_synth(args) -> int:
    series = generate(preset(args.preset, seed=args.seed))
    out = _resolve_out(args.out)
    write_text_atomic(out, series_csv(series))
    print(f"wrote {len(series)} samples to {out}")
    return 0


def _cmd_run(args) -> int:
    spec = _spec_from_args(args, args.optimizer, args.ramp)
    curve = run_data(spec, _load_data(args))
    paths = _write_outputs(args, {args.out: partial(curve_csv, curve)}, {args.optimizer: curve})
    print(f"wrote {curve.indices.size} curve points to {paths[0]}")
    if args.svg:
        print(f"wrote plot to {paths[-1]}")
    return 0


def _cmd_sweep(args) -> int:
    return _sweep(args, _load_data(args), title="")


def _sweep(args, data, title: str) -> int:
    grid = _parse_floats(args.grid, "ramp grid")
    records = sweep_lambda(_spec_from_args(args, "combined", grid[0]), data, grid)
    curves = {r.label: r.curve for r in records if not r.diverged}
    paths = _write_outputs(args, {args.out: partial(sweep_csv, records)}, curves, title)
    print(f"wrote {len(records)} sweep entries to {paths[0]}")
    if args.svg:
        print(f"wrote plot to {paths[-1]}")
    return 0


def _cmd_grid(args) -> int:
    spec = _spec_from_args(args, args.optimizer, args.ramp)
    data = _load_data(args)
    rates = _parse_floats(args.rates, "rate grid")
    best, records = grid_search(spec, data, rates)
    for r in records:
        status = "diverged" if r.diverged else f"mean={r.score:.6g}"
        print(f"rate {r.spec.learning_rate:g}: {status}")
    print(f"best rate: {best:g}")
    if args.out:
        out = _resolve_out(args.out)
        write_text_atomic(out, grid_csv(best, records))
        print(f"wrote grid results to {out}")
    return 0


def _cmd_reproduce(args) -> int:
    """Run a canned configuration as the explicit command it stands for."""
    fid = args.figure
    cfg = {"format": "csv", "repeat": 1, "d": 0, "grid": None, **CONFIGS[fid]}
    for flag in ("limit", "trials"):
        if getattr(args, flag) is not None:
            cfg[flag] = getattr(args, flag)
    base = Path(args.out_dir) / f"config{fid}"
    run = argparse.Namespace(**{**vars(args), **cfg}, svg=f"{base}.svg",
                             normalize=False if args.no_normalize else None)
    if "preset" in cfg:
        _reject_batch_flags(run)
        given = [flag for flag, on in (("--data", args.data is not None),
                                       ("--no-normalize", args.no_normalize)) if on]
        if given:
            raise ValueError(f"{', '.join(given)}: configuration {fid} generates its series")
        data = generate(preset(cfg["preset"], seed=args.data_seed))
    elif args.data is None or not Path(args.data).is_dir():
        raise ValueError(f"configuration {fid} needs --data pointing at a batch directory")
    else:
        data = _load_data(run)
    title = f"configuration {fid}"
    if run.grid:
        run.out = f"{base}_sweep.csv"
        return _sweep(run, data, title)
    records = compare_optimizers(_spec_from_args(run, "combined", run.ramp), data, ALL_OPTIMIZERS)
    curves = {r.label: r.curve for r in records if not r.diverged}
    files = {f"{base}_{name}.csv": partial(curve_csv, curve) for name, curve in curves.items()}
    paths = _write_outputs(run, files, curves, title)
    for r in records:
        if r.diverged:
            print(r.message)
    print(f"wrote {len(curves)} curve files and {paths[-1]}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "run": _cmd_run,
        "sweep-lambda": _cmd_sweep,
        "grid-search": _cmd_grid,
        "reproduce": _cmd_reproduce,
    }
    try:
        # --smooth only shapes the plot, but a bad value fails even without one
        if getattr(args, "smooth", 1) < 1:
            raise ValueError(f"--smooth must be >= 1, got {args.smooth}")
        return handlers[args.command](args)
    except (ValueError, OSError, DivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
