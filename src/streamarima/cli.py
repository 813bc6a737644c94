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
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from functools import partial
from pathlib import Path

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
from .plotting import render_svg, smooth_curve
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


def curve_csv(curve: ResidualCurve) -> str:
    trials = curve.per_trial.shape[0]
    header = ["t", "r_mean"]
    columns = [curve.mean.tolist()]
    if trials > 1:
        header += [f"r_{i}" for i in range(trials)]
        columns += curve.per_trial.tolist()
    rows = zip(map(str, map(int, curve.indices.tolist())), *(map(repr, c) for c in columns))
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


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
        series = TimeSeries(normalize(values, values.min(), values.max()))
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
