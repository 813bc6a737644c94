"""Command-line front end.

Commands
--------
synth        generate a synthetic preset series to CSV
run          stream one optimizer over a series file or batch directory
sweep-lambda combined-optimizer ramp sweep plus fixed baselines
grid-search  pick a learning rate by tail-window residual
reproduce    canned configurations 1-7 matching the documented experiments

Outputs are CSV (always unsmoothed) and optional SVG (smoothed view). All
files are written atomically and identical command lines produce identical
CSV bytes. Relative output paths resolve against $STREAMARIMA_OUT_DIR when
it is set.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
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
from .optimizers import BASELINE_NAMES, OPTIMIZERS
from .plotting import render_svg, smooth_curve
from .series import TimeSeries, normalize
from .synthetic import generate, preset

OUT_DIR_ENV = "STREAMARIMA_OUT_DIR"
ALL_OPTIMIZERS = BASELINE_NAMES + ("combined",)
LAMBDA_GRID = (100.0, 500.0, 1000.0, 2000.0, 3000.0, 5000.0, 10000.0)

SYNTH_FIGURES = {
    1: dict(preset=1, mk=5, d=0, lr=5e-2, ramp=2000.0, trials=30),
    2: dict(preset=2, mk=10, d=0, lr=5e-2, ramp=2000.0, trials=30),
    3: dict(preset=3, mk=10, d=0, lr=5e-2, ramp=2000.0, trials=30),
}
BATCH_FIGURES = {
    4: dict(fmt="bearing", mk=300, d=0, lr=5e-3, ramp=102400.0, trials=10, limit=1, repeat=40),
    5: dict(fmt="bearing", mk=300, d=0, lr=5e-3, ramp=102400.0, trials=10, limit=40, repeat=1),
    6: dict(fmt="csv", mk=60, d=1, lr=1e-2, ramp=102400.0, trials=10, limit=None, repeat=1),
}


def _resolve_out(path_str: str) -> Path:
    path = Path(path_str)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_text_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


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
    lines += [repr(float(x)) for x in series.values]
    return "\n".join(lines) + "\n"


def sweep_csv(entries) -> str:
    lines = ["label,final_residual,diverged"]
    for e in entries:
        lines.append(f"{e.label},{repr(e.final_residual)},{int(e.diverged)}")
    return "\n".join(lines) + "\n"


def grid_csv(best: float, results) -> str:
    lines = ["rate,tail_mean,diverged,best"]
    for r in results:
        lines.append(f"{repr(r.rate)},{repr(r.tail)},{int(r.diverged)},{int(r.rate == best)}")
    return "\n".join(lines) + "\n"


def _svg_from_curves(curves: dict[str, ResidualCurve], smooth: int, title: str) -> str:
    plotted = {}
    for label, curve in curves.items():
        window = smooth if curve.granularity == "sample" else 1
        plotted[label] = smooth_curve(curve.indices, curve.mean, window)
    any_curve = next(iter(curves.values()))
    x_label = "sample" if any_curve.granularity == "sample" else "batch"
    return render_svg(plotted, title=title, x_label=x_label, y_label="mean |residual|")


def _trial_seeds(base: int, trials: int) -> tuple[int, ...]:
    return tuple(base + i for i in range(trials))


def _load_data(args):
    """A directory is a batch source; a file is a single-column CSV series."""
    path = Path(args.data)
    if path.is_dir():
        batches = load_batch_dir(
            path, args.format, channel=args.channel, limit=args.limit
        )
        if args.repeat > 1:
            batches = list(batches) * args.repeat
        if args.normalize is not False:
            batches = normalize_batches(batches)
        return batches
    if not path.exists():
        raise ValueError(f"{path}: no such file or directory")
    series = parse_batch_file(path, "csv").samples
    if args.normalize is True:
        series, _ = normalize(series)
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

    p = sub.add_parser("sweep-lambda", help="ramp sweep for the combined optimizer")
    _add_data_flags(p)
    _add_model_flags(p, trials_default=1)
    p.add_argument("--grid", default=",".join(f"{g:g}" for g in LAMBDA_GRID),
                   help="comma-separated ramp lengths")
    p.add_argument("--out", required=True, help="sweep summary CSV path")
    p.add_argument("--svg", default=None, help="optional SVG plot path")
    p.add_argument("--smooth", type=int, default=50)

    p = sub.add_parser("grid-search", help="pick a learning rate from a grid")
    _add_data_flags(p)
    _add_model_flags(p, trials_default=1)
    p.add_argument("--optimizer", choices=sorted(OPTIMIZERS), required=True)
    p.add_argument("--lambda", dest="ramp", type=float, default=None)
    p.add_argument("--rates", required=True, help="comma-separated learning rates")
    p.add_argument("--out", default=None, help="optional per-rate CSV path")

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
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"could not parse {what}: {text!r}") from None
    if not values:
        raise ValueError(f"{what} is empty")
    return values


def _spec_from_args(args) -> RunSpec:
    cfg = ModelConfig(mk=args.mk, d=args.d)
    return RunSpec(
        model=cfg,
        optimizer=args.optimizer,
        learning_rate=args.lr,
        ramp_length=args.ramp,
        trial_seeds=_trial_seeds(args.seed, args.trials),
    )


def _cmd_synth(args) -> int:
    series = generate(preset(args.preset, seed=args.seed))
    out = _resolve_out(args.out)
    write_text_atomic(out, series_csv(series))
    print(f"wrote {len(series)} samples to {out}")
    return 0


def _cmd_run(args) -> int:
    data = _load_data(args)
    spec = _spec_from_args(args)
    curve = run_data(spec, data)
    out = _resolve_out(args.out)
    write_text_atomic(out, curve_csv(curve))
    print(f"wrote {curve.indices.size} curve points to {out}")
    if args.svg:
        svg_path = _resolve_out(args.svg)
        svg = _svg_from_curves({args.optimizer: curve}, args.smooth, title="")
        write_text_atomic(svg_path, svg)
        print(f"wrote plot to {svg_path}")
    return 0


def _cmd_sweep(args) -> int:
    data = _load_data(args)
    grid = _parse_floats(args.grid, "ramp grid")
    base = RunSpec(
        model=ModelConfig(mk=args.mk, d=args.d),
        optimizer="combined",
        learning_rate=args.lr,
        ramp_length=grid[0],
        trial_seeds=_trial_seeds(args.seed, args.trials),
    )
    entries = sweep_lambda(base, data, grid)
    out = _resolve_out(args.out)
    write_text_atomic(out, sweep_csv(entries))
    print(f"wrote {len(entries)} sweep entries to {out}")
    if args.svg:
        curves = {e.label: e.curve for e in entries if e.curve is not None}
        svg_path = _resolve_out(args.svg)
        write_text_atomic(svg_path, _svg_from_curves(curves, args.smooth, title=""))
        print(f"wrote plot to {svg_path}")
    return 0


def _cmd_grid(args) -> int:
    data = _load_data(args)
    spec = _spec_from_args(args)
    rates = _parse_floats(args.rates, "rate grid")
    best, results = grid_search(spec, data, rates)
    for r in results:
        status = "diverged" if r.diverged else f"tail={r.tail:.6g}"
        print(f"rate {r.rate:g}: {status}")
    print(f"best rate: {best:g}")
    if args.out:
        out = _resolve_out(args.out)
        write_text_atomic(out, grid_csv(best, results))
        print(f"wrote grid results to {out}")
    return 0


def _run_figure(args, fid: int, cfg: dict, data) -> int:
    """Run every optimizer on a canned configuration and write its files."""
    trials = args.trials if args.trials is not None else cfg["trials"]
    spec = RunSpec(
        model=ModelConfig(mk=cfg["mk"], d=cfg["d"]),
        optimizer="combined",
        learning_rate=cfg["lr"],
        ramp_length=cfg["ramp"],
        trial_seeds=_trial_seeds(args.seed, trials),
    )
    curves = compare_optimizers(spec, data, ALL_OPTIMIZERS)
    out_dir = Path(args.out_dir)
    for name, curve in curves.items():
        path = _resolve_out(str(out_dir / f"config{fid}_{name}.csv"))
        write_text_atomic(path, curve_csv(curve))
    svg_path = _resolve_out(str(out_dir / f"config{fid}.svg"))
    write_text_atomic(svg_path, _svg_from_curves(curves, args.smooth, title=f"configuration {fid}"))
    print(f"wrote {len(curves)} curve files and {svg_path}")
    return 0


def _reproduce_synth(args, fid: int) -> int:
    cfg = SYNTH_FIGURES[fid]
    series = generate(preset(cfg["preset"], seed=args.data_seed))
    return _run_figure(args, fid, cfg, series)


def _reproduce_batched(args, fid: int) -> int:
    cfg = BATCH_FIGURES[fid]
    if args.data is None:
        raise ValueError(f"configuration {fid} needs --data pointing at a batch directory")
    limit = args.limit if args.limit is not None else cfg["limit"]
    batches = load_batch_dir(args.data, cfg["fmt"], channel=args.channel, limit=limit)
    if cfg["repeat"] > 1:
        batches = list(batches) * cfg["repeat"]
    if not args.no_normalize:
        batches = normalize_batches(batches)
    return _run_figure(args, fid, cfg, batches)


def _reproduce_sweep(args) -> int:
    trials = args.trials if args.trials is not None else 30
    series = generate(preset(2, seed=args.data_seed))
    base = RunSpec(
        model=ModelConfig(mk=10, d=0),
        optimizer="combined",
        learning_rate=5e-2,
        ramp_length=LAMBDA_GRID[0],
        trial_seeds=_trial_seeds(args.seed, trials),
    )
    entries = sweep_lambda(base, series, LAMBDA_GRID)
    out_dir = Path(args.out_dir)
    out = _resolve_out(str(out_dir / "config7_sweep.csv"))
    write_text_atomic(out, sweep_csv(entries))
    curves = {e.label: e.curve for e in entries if e.curve is not None}
    svg_path = _resolve_out(str(out_dir / "config7.svg"))
    write_text_atomic(svg_path, _svg_from_curves(curves, args.smooth, title="configuration 7"))
    print(f"wrote {out} and {svg_path}")
    return 0


def _cmd_reproduce(args) -> int:
    fid = args.figure
    if fid in SYNTH_FIGURES:
        return _reproduce_synth(args, fid)
    if fid in BATCH_FIGURES:
        return _reproduce_batched(args, fid)
    return _reproduce_sweep(args)


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
        return handlers[args.command](args)
    except (ValueError, OSError, DivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
