"""Experiment harness: streaming runs, batched runs, sweeps and grids.

A run is specified once (model shape, optimizer, rate, trial seeds) and
replayed over a fixed data realization; trials differ only in the model's
coefficient initialization seed, so every curve is an average over inits
on identical data. One kernel call advances every trial of every run of a
comparison, sweep or grid together, over lag features computed once per
series; a batched run is the same kernel over the concatenated batches.
Residual curves are absolute residuals, per sample or per batch, and
divergence (a non-finite residual, or one past DIVERGENCE_FACTOR times the
data's largest magnitude) ends a run cleanly instead of poisoning
downstream aggregation: a diverged run is kept as a record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import ArimaModel, ModelConfig, differences
from .optimizers import OPTIMIZERS, make_optimizer
from .series import MicroBatch, TimeSeries, normalize

TAIL_FRACTION = 0.1
# A scored |residual| past this many times the largest |sample| of the run's
# data is a blow-up, reported like a non-finite one.
DIVERGENCE_FACTOR = 1e6
SWEEP_BASELINES = ("amsgrad", "basic", "momentum")
# The kernel stops the runs that have diverged every this many samples.
DIVERGENCE_CHECK_INTERVAL = 100


class DivergedError(RuntimeError):
    """Raised when a run produces a non-finite or blown-up residual."""


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to replay one experiment deterministically."""

    model: ModelConfig
    optimizer: str
    learning_rate: float
    ramp_length: float | None = None
    trial_seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            known = ", ".join(sorted(OPTIMIZERS))
            raise ValueError(f"unknown optimizer {self.optimizer!r}, expected one of: {known}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if len(self.trial_seeds) == 0:
            raise ValueError("at least one trial seed is required")
        if self.optimizer == "combined" and self.ramp_length is None:
            raise ValueError("combined optimizer requires ramp_length")

    @property
    def trials(self) -> int:
        return len(self.trial_seeds)


@dataclass(frozen=True)
class ResidualCurve:
    """Trial-averaged |residual| against sample or batch position."""

    indices: np.ndarray
    mean: np.ndarray
    per_trial: np.ndarray
    granularity: str

    def __post_init__(self):
        if self.granularity not in ("sample", "batch"):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.indices.shape != self.mean.shape:
            raise ValueError("indices and mean lengths differ")
        if self.per_trial.shape[1:] != self.mean.shape:
            raise ValueError("per_trial width does not match curve length")


def _scoring(values: np.ndarray, starts, window: int):
    """Which forecasts are scored, and the |residual| past which a run has diverged.

    ``starts`` marks batch starts (None for a stream); each batch leaves its
    first mk + d positions unscored.
    """
    scored = np.ones(values.size, dtype=bool)
    for s in () if starts is None else starts:
        scored[s : s + window] = False
    return scored[window:], DIVERGENCE_FACTOR * np.abs(values).max()


def _kernel(specs: list[RunSpec], values: np.ndarray, starts) -> np.ndarray:
    """Forecasts past the first mk + d samples of every trial of every run.

    The runs share one model shape. Each run's trials are a block of rows of
    one (rows, mk) coefficient array: per sample there is one ``gamma @ f``
    and one gradient for all rows, and each run's optimizer updates its own
    block in place. Lag row j holds the d-th differences of
    ``values[j : j + mk + d]``, newest first: a strided view, never an n x mk
    copy.

    Every DIVERGENCE_CHECK_INTERVAL samples, a run whose first trial has
    diverged at a scored position leaves the loop, and its later forecasts
    are nan. ``_residuals`` then names that trial at the same position, so
    what the run reports does not change.
    """
    model = specs[0].model
    window = model.window
    levels = differences(values, model.d)
    feats = sliding_window_view(levels[-1], model.mk)[:-1, ::-1]
    integ = sum(level[window - 1 - i : -1] for i, level in enumerate(levels[:-1]))
    actual = values[window:]
    scored, bound = _scoring(values, starts, window)
    gamma = np.stack([ArimaModel(replace(model, seed=s)).gamma
                      for spec in specs for s in spec.trial_seeds])
    grad = np.empty_like(gamma)
    live, row = [], 0
    for spec in specs:
        hyper = {"ramp_length": spec.ramp_length} if spec.optimizer == "combined" else {}
        opt = make_optimizer(spec.optimizer, model.mk, spec.learning_rate, **hyper)
        block = slice(row, row + spec.trials)
        live.append((opt, gamma[block], grad[block], row))
        row = block.stop
    forecasts = np.empty((row, actual.size))
    with np.errstate(all="ignore"):
        for j, f in enumerate(feats):
            value = gamma @ f
            if model.d:
                value += integ[j]
            forecasts[:, j] = value
            np.multiply((2.0 * (value - actual[j]))[:, None], f, out=grad)
            for opt, coeffs, g, _ in live:
                coeffs -= opt.advance(g)
            if (j + 1) % DIVERGENCE_CHECK_INTERVAL == 0:
                span = slice(j + 1 - DIVERGENCE_CHECK_INTERVAL, j + 1)
                resid = np.abs(forecasts[[first for *_, first in live], span] - actual[span])
                # the same test as _residuals; the negated comparison is also true for nan
                diverged = (~(resid <= bound) & scored[span]).any(axis=1)
                for _, coeffs, _, _ in compress(live, diverged):
                    coeffs[:] = np.nan
                live = list(compress(live, ~diverged))
                if not live:
                    forecasts[:, j + 1 :] = np.nan
                    break
    return forecasts


def _residuals(spec: RunSpec, forecasts: np.ndarray, values: np.ndarray, starts=None):
    """|forecast - actual| in place; raise for the first trial that diverged.

    A trial diverges at the first scored residual that is non-finite or
    larger than DIVERGENCE_FACTOR times the largest |sample| in ``values``;
    ``starts`` marks batch starts, as in ``_scoring``.
    """
    window = spec.model.window
    with np.errstate(all="ignore"):
        resid = np.abs(np.subtract(forecasts, values[window:], out=forecasts), out=forecasts)
    scored, bound = _scoring(values, starts, window)
    # the negated comparison is also true for nan
    bad = ~(resid <= bound) & scored
    if bad.any():
        trial = int(bad.any(axis=1).argmax())
        k = int(bad[trial].argmax()) + window
        where = f"at sample {k}"
        if starts is not None:
            pos = int(np.searchsorted(starts, k, side="right")) - 1
            where = f"in batch {pos} at offset {k - starts[pos]}"
        raise DivergedError(
            f"run diverged {where} (optimizer {spec.optimizer}, "
            f"rate {spec.learning_rate:g}, trial seed {spec.trial_seeds[trial]})"
        )
    return resid


def _source(data, window: int):
    """The samples of a TimeSeries or a batch list, and the batch starts (None for a stream)."""
    if isinstance(data, TimeSeries):
        if len(data) <= window:
            raise ValueError(f"series of length {len(data)} is too short for mk + d = {window}")
        return data.values, None
    data = list(data)
    if not data:
        raise ValueError("no batches to run")
    for b in data:
        if len(b) <= window:
            raise ValueError(
                f"batch {b.batch_index} has {len(b)} samples, need more than mk + d = {window}"
            )
    starts = np.cumsum([0] + [len(b) for b in data[:-1]])
    return np.concatenate([b.samples.values for b in data]), starts


def _curve(spec: RunSpec, forecasts: np.ndarray, values: np.ndarray, starts) -> ResidualCurve:
    """A run's curve from its block of forecasts: per sample for a stream, else per batch.

    Only the residual metric restarts at each batch boundary: the first
    mk + d positions of every batch are fed to the model but not scored.
    """
    window = spec.model.window
    resid = _residuals(spec, forecasts, values, starts)
    if starts is None:
        return ResidualCurve(np.arange(window, values.size), resid.mean(axis=0), resid, "sample")
    ends = np.append(starts[1:], values.size)
    per_trial = np.stack([resid[:, s : e - window].mean(axis=1) for s, e in zip(starts, ends)],
                         axis=1)
    return ResidualCurve(np.arange(starts.size), per_trial.mean(axis=0), per_trial, "batch")


def run_data(spec: RunSpec, data) -> ResidualCurve:
    """One run over a TimeSeries (a point per sample) or a batch list (a point per batch)."""
    values, starts = _source(data, spec.model.window)
    return _curve(spec, _kernel([spec], values, starts), values, starts)


def run_stream(spec: RunSpec, series: TimeSeries) -> ResidualCurve:
    """Per-sample run over one contiguous series, averaged over trials."""
    return run_data(spec, series)


def run_batched(spec: RunSpec, batches: list[MicroBatch]) -> ResidualCurve:
    """Per-batch run; model and optimizer state persist across batches."""
    return run_data(spec, batches)


def tail_mean(values, fraction: float = TAIL_FRACTION) -> float:
    """Mean over the trailing ``fraction`` of a curve (at least one point)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot take the tail of an empty curve")
    if not (0 < fraction <= 1):
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    k = max(1, math.ceil(fraction * values.size))
    return float(values[-k:].mean())


def normalize_batches(batches: list[MicroBatch]) -> list[MicroBatch]:
    """Normalize every batch with parameters fitted on the first batch only.

    Freezing the map keeps later batches on a consistent scale without
    letting future data leak into earlier normalization.
    """
    if not batches:
        raise ValueError("no batches to normalize")
    first = batches[0].samples.values
    lo, hi = first.min(), first.max()
    return [
        MicroBatch(
            samples=TimeSeries(normalize(b.samples.values, lo, hi)),
            batch_index=b.batch_index,
        )
        for b in batches
    ]


@dataclass(frozen=True)
class RunRecord:
    """One run of a comparison, sweep or grid: its score and curve, or why it diverged."""

    label: str
    spec: RunSpec
    score: float  # the curve's score, inf for a diverged run
    curve: ResidualCurve | None = field(repr=False)
    message: str = ""  # the DivergedError text of a diverged run

    @property
    def diverged(self) -> bool:
        return self.curve is None


def _run_all(runs, data, score=tail_mean) -> list[RunRecord]:
    """One kernel call for every ``(label, spec)`` over ``data``; a diverged run stays a record."""
    specs = [spec for _, spec in runs]
    values, starts = _source(data, specs[0].model.window)
    forecasts = _kernel(specs, values, starts)
    records, row = [], 0
    for label, spec in runs:
        block, row = forecasts[row : row + spec.trials], row + spec.trials
        try:
            curve = _curve(spec, block, values, starts)
        except DivergedError as exc:
            records.append(RunRecord(label, spec, math.inf, None, str(exc)))
        else:
            records.append(RunRecord(label, spec, score(curve.mean), curve))
    return records


def compare_optimizers(spec: RunSpec, data, optimizers: tuple[str, ...]) -> list[RunRecord]:
    """Run several optimizers over the same data and seeds, one record each."""
    return _run_all([(name, replace(spec, optimizer=name)) for name in optimizers], data)


def grid_search(spec: RunSpec, data, rate_grid, score=tail_mean) -> tuple[float, list[RunRecord]]:
    """Pick the learning rate whose averaged curve has the lowest score.

    ``score`` maps the trial-averaged curve to a number (default: its
    tail-window mean). Diverged rates score infinity; ties go to the
    smaller rate; a grid where everything diverges is an error.
    """
    rates = [float(r) for r in rate_grid]
    if not rates:
        raise ValueError("rate grid is empty")
    if any(r <= 0 for r in rates):
        raise ValueError("learning rates must be > 0")
    runs = [(f"lr_{r:g}", replace(spec, learning_rate=r)) for r in rates]
    records = _run_all(runs, data, score)
    stable = [r for r in records if not r.diverged]
    if not stable:
        raise ValueError("no stable rate: every candidate in the grid diverged")
    best = min(stable, key=lambda r: (r.score, r.spec.learning_rate))
    return best.spec.learning_rate, records


def sweep_lambda(spec: RunSpec, data, lambda_grid) -> list[RunRecord]:
    """Run the combined optimizer across ramp lengths, plus SWEEP_BASELINES.

    Every record is scored by the tail-window mean of its averaged curve; a
    diverged run is kept in the summary with an infinite score.
    """
    ramps = [float(r) for r in lambda_grid]
    if not ramps:
        raise ValueError("ramp grid is empty")
    runs = [(f"combined_lambda_{r:g}", replace(spec, optimizer="combined", ramp_length=r))
            for r in ramps]
    runs += [(name, replace(spec, optimizer=name, ramp_length=None)) for name in SWEEP_BASELINES]
    return _run_all(runs, data)
