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
digits with integer arithmetic (``_shortest_digits``), one gather per block
of cells spells them in repr's notation, and each cell the encoder cannot
prove is written with repr itself.
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
# with the point placed as _layout shows. _shortest_digits finds them with
# integer arithmetic for the positive doubles in [_ARRAY_LO, _ARRAY_HI);
# the other cells, and the few it cannot prove, are written with repr.
_ARRAY_LO, _ARRAY_HI = 1e-10, 1e15
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
# q = 16 - floor(log10 v) is in [1, 27] for v in [_ARRAY_LO, _ARRAY_HI],
# also where log10 rounds across a power of ten, and 5**27 < 2**64
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(18)], dtype=np.uint64)
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
    return (hi << (_U64(64) - s)) | (lo >> s), lo << (_U64(64) - s)


def _shortest_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The digits and point position of repr(float(x)) for each float64 x of ``v``.

    Returns ``(c, i, decpt, exact)``. Where ``exact`` holds, repr's digits
    are the 17 - i digits of the integer c, and x rounds to 0.c * 10**decpt.

    x = M 2**E with an integer M < 2**53. With q = 16 - floor(log10 x), the
    value and the midpoints to its neighbours, (4M + {-2, 0, 2}) 2**(E-2)
    (4M - 1 below when M = 2**52, where the gap below is half as wide), are
    scaled by 10**q = 5**q 2**q exactly: their products with 5**q are
    shifted right by 2 - E - q. The scaled value lies in [10**16, 10**17),
    where the midpoints are more than 1 apart. A midpoint's numerator is
    odd, so it scales to an integer only when E >= 1, for x >= 2**53: on
    the array range the integers between the midpoints are those from the
    lower one's floor + 1 to the upper one's floor. 10**i is the largest
    power of ten with a multiple among them, and c 10**i is the multiple
    of 10**i nearest the value.

    Not exact, and so written with repr: x off the array range (which
    takes in zero, negatives, subnormals and non-finite values), x midway
    between two multiples of 10**i, c 10**i outside the midpoints, and a
    scale that log10 misjudged near a power of ten (the scaled value off
    [10**16, 10**17), or c 10**i = 10**17).
    """
    # a value off the range is clamped into it, computed, and not exact
    w = np.fmax(np.fmin(v, _ARRAY_HI), _ARRAY_LO)
    bits = w.view(np.uint64)
    frac = bits & _U64((1 << 52) - 1)
    m = (frac | _U64(1 << 52)) << _U64(2)
    q = (16.0 - np.floor(np.log10(w))).astype(np.intp)
    p = _POW5[q]
    s = _U64(1077) - (bits >> _U64(52)) - q.astype(np.uint64)
    mid, mid_frac = _scaled(m, p, s)
    hi = _scaled(m + _U64(2), p, s)[0]
    lo = _scaled(m - _U64(2) + (frac == 0), p, s)[0]
    i = np.zeros(v.size, dtype=np.intp)
    below, top = lo, hi
    while True:
        below = below // _U64(10)
        top = top // _U64(10)
        more = below != top
        if not more.any():
            break
        i += more
    unit = _POW10[i]
    c = mid // unit
    # the scaled value is c unit + rest + mid_frac / 2**64, and unit / 2 is
    # half + half_frac / 2**64
    rest = mid - c * unit
    half, half_frac = unit >> _U64(1), np.left_shift(i == 0, 63, dtype=np.uint64)
    tie = (rest == half) & (mid_frac == half_frac)
    c += (rest > half) | ((rest == half) & (mid_frac > half_frac))
    near = c * unit
    exact = ((v >= _ARRAY_LO) & (v < _ARRAY_HI) & ~tie & (near > lo) & (near <= hi)
             & (mid >= _POW10[16]) & (mid < _POW10[17]) & (i < 17))
    return c, i, 17 - q, exact


# A cell's bytes are gathered from one row per value: the 17 digits of c,
# zeros in front, then _CONSTANTS, whose last byte, 0, is the padding.
_CONSTANTS = b",.0123456789e+-\0"
_PAD = 17 + len(_CONSTANTS) - 1
_CELL_WIDTH = 25  # "," and the longest repr of a float64


def _layout(n: int, decpt: int) -> list[int]:
    """The columns of that row that spell "," and repr's text of n digits at decpt."""
    digits = [17 - n + k for k in range(n)]

    def text(chars: str) -> list[int]:
        return [17 + _CONSTANTS.index(ch) for ch in chars.encode()]

    if decpt <= -4 or decpt > 16:
        mantissa = digits[:1] + (text(".") + digits[1:] if n > 1 else [])
        return text(",") + mantissa + text(f"e{decpt - 1:+03d}")
    if decpt <= 0:
        return text(",0." + "0" * -decpt) + digits
    if decpt < n:
        return text(",") + digits[:decpt] + text(".") + digits[decpt:]
    return text(",") + digits + text("0" * (decpt - n) + ".0")


@functools.cache
def _layouts() -> np.ndarray:
    """Each layout, padded, at [i, decpt + 10] for every i and decpt _shortest_digits returns."""
    table = np.full((18, 27, _CELL_WIDTH), _PAD, dtype=np.intp)
    for i in range(18):
        for decpt in range(-10, 17):
            cols = _layout(max(17 - i, 1), decpt)
            table[i, decpt + 10, : len(cols)] = cols
    return table


def _ascii_rows(texts: list[str], width: int) -> np.ndarray:
    """The texts as the rows of a uint8 matrix, padded with 0 to ``width``."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


def _cells(v: np.ndarray) -> np.ndarray:
    """The cell of each float64 of ``v``, "," and repr(float(x)), as 0-padded matrix rows.

    An exact cell is gathered by its layout, all of them in one call; the
    others are then overwritten with repr's text.
    """
    c, i, decpt, exact = _shortest_digits(v)
    src = np.empty((v.size, 17 + len(_CONSTANTS)), dtype=np.uint8)
    write_digits(src[:, :17], c, 17)
    src[:, 17:] = np.frombuffer(_CONSTANTS, dtype=np.uint8)
    cols = _layouts()[i, decpt + 10]
    cols += np.arange(0, src.size, src.shape[1])[:, None]
    text = src.ravel().take(cols)
    slow = np.flatnonzero(~exact)
    if slow.size:
        text[slow] = _ascii_rows([f",{x!r}" for x in v[slow].tolist()], _CELL_WIDTH)
    return text


def curve_csv(curve: ResidualCurve) -> str:
    """The curve as CSV text: t, r_mean and, for T > 1 trials, r_0 ... r_{T-1}.

    Every t cell is str(int(t)) and every value cell repr(float(v)). About
    _CELL_CHUNK cells at a time, the rows are one uint8 matrix: t's digits,
    the row's cells and a newline per row, padded with 0 that is then
    dropped.
    """
    trials = curve.per_trial.shape[0]
    header = ["t", "r_mean"]
    columns = [curve.mean]
    if trials > 1:
        header += [f"r_{i}" for i in range(trials)]
        columns += list(curve.per_trial)
    blocks = [",".join(header).encode() + b"\n"]
    t = curve.indices.astype(np.int64)
    values = np.column_stack(columns).astype(np.float64, copy=False)
    t_width = max(len(str(t.min())), len(str(t.max()))) if t.size else 0
    step = max(1, _CELL_CHUNK // values.shape[1])
    for a in range(0, t.size, step):
        block_t = t[a : a + step]
        text = _cells(values[a : a + step].ravel()).reshape(block_t.size, -1)
        rows = np.empty((block_t.size, t_width + text.shape[1] + 1), dtype=np.uint8)
        write_digits(rows[:, :t_width], block_t)
        negative = np.flatnonzero(block_t < 0)
        if negative.size:
            rows[negative, :t_width] = _ascii_rows(list(map(str, block_t[negative].tolist())),
                                                   t_width)
        rows[:, t_width:-1] = text
        rows[:, -1] = ord("\n")
        flat = rows.ravel()
        blocks.append(flat[flat != 0].tobytes())
    return b"".join(blocks).decode("ascii")


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


def _add_model_flags(p: argparse.ArgumentParser, trials_default: int) -> None:
    p.add_argument("--mk", type=int, default=10, help="autoregressive window size")
    p.add_argument("--d", type=int, default=0, help="differencing order")
    p.add_argument("--trials", type=int, default=trials_default,
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
    _add_model_flags(p, trials_default=1)
    p.add_argument("--optimizer", choices=sorted(OPTIMIZERS), required=True)
    p.add_argument("--lambda", dest="ramp", type=float, default=None,
                   help="ramp length for the combined optimizer")
    p.add_argument("--out", required=True, help="residual curve CSV path")
    p.add_argument("--svg", default=None, help="optional SVG plot path")
    p.add_argument("--smooth", type=int, default=50,
                   help="moving-average window for the SVG view")

    p = sub.add_parser("sweep-lambda", help="combined ramp sweep, scored by whole-stream mean")
    _add_data_flags(p)
    _add_model_flags(p, trials_default=1)
    p.add_argument("--grid", default=LAMBDA_GRID,
                   help="comma-separated ramp lengths")
    p.add_argument("--out", required=True, help="summary CSV: label,mean_residual,diverged")
    p.add_argument("--svg", default=None, help="optional SVG plot path")
    p.add_argument("--smooth", type=int, default=50)

    p = sub.add_parser("grid-search", help="pick the rate with the lowest whole-stream mean")
    _add_data_flags(p)
    _add_model_flags(p, trials_default=1)
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
