"""Experiment harness: streaming runs, batched runs, sweeps and grids.

A run is specified once (model shape, optimizer, rate, trial seeds) and
replayed over a fixed data realization; trials differ only in the model's
coefficient initialization seed, so every curve is an average over inits
on identical data. One kernel advances every trial of a run together over
lag features computed once per series; a batched run is the same kernel
over the concatenated batches. Residual curves are absolute residuals, per
sample or per batch, and divergence (a non-finite residual) aborts a run
cleanly instead of poisoning downstream aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import ArimaModel, ModelConfig
from .optimizers import OPTIMIZERS, make_optimizer
from .series import MicroBatch, TimeSeries, normalize

TAIL_FRACTION = 0.1


class DivergedError(RuntimeError):
    """Raised when a run produces a non-finite residual."""


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


def _kernel(spec: RunSpec, values: np.ndarray) -> np.ndarray:
    """Forecasts of every trial past the first mk + d samples, all trials at once.

    Coefficients and optimizer state are (trials, mk) arrays. Lag row j holds
    the d-th differences of ``values[j : j + mk + d]``, newest first: a
    strided view, never an n x mk copy. A diverged trial runs on as non-finite.
    """
    model, window = spec.model, spec.model.window
    diffs = np.diff(values, n=model.d) if model.d else values
    feats = sliding_window_view(diffs, model.mk)[:-1, ::-1]
    levels = (np.diff(values, n=i) if i else values for i in range(model.d))
    integ = sum(level[window - 1 - i : -1] for i, level in enumerate(levels))
    actual = values[window:]
    gamma = np.stack([ArimaModel(replace(model, seed=s)).gamma for s in spec.trial_seeds])
    hyper = {"ramp_length": spec.ramp_length} if spec.optimizer == "combined" else {}
    opt = make_optimizer(spec.optimizer, model.mk, spec.learning_rate, **hyper)
    forecasts = np.empty((spec.trials, actual.size))
    with np.errstate(all="ignore"):
        for j, f in enumerate(feats):
            value = gamma @ f
            if model.d:
                value += integ[j]
            forecasts[:, j] = value
            gamma = opt.step(gamma, (2.0 * (value - actual[j]))[:, None] * f)
    return forecasts


def _residuals(spec: RunSpec, forecasts: np.ndarray, values: np.ndarray, starts=None):
    """|forecast - actual| in place; raise for the first trial that diverged.

    ``starts`` marks batch starts (None for a stream); divergence counts only
    at scored positions, and each batch leaves its first mk + d unscored.
    """
    window = spec.model.window
    with np.errstate(all="ignore"):
        resid = np.abs(np.subtract(forecasts, values[window:], out=forecasts), out=forecasts)
    scored = np.ones(values.size, dtype=bool)
    for s in () if starts is None else starts:
        scored[s : s + window] = False
    bad = ~np.isfinite(resid) & scored[window:]
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


def run_stream(spec: RunSpec, series: TimeSeries) -> ResidualCurve:
    """Per-sample run over one contiguous series, averaged over trials."""
    window = spec.model.window
    if len(series) <= window:
        raise ValueError(f"series of length {len(series)} is too short for mk + d = {window}")
    per_trial = _residuals(spec, _kernel(spec, series.values), series.values)
    return ResidualCurve(
        indices=series.start_index + np.arange(window, len(series)),
        mean=per_trial.mean(axis=0),
        per_trial=per_trial,
        granularity="sample",
    )


def run_batched(spec: RunSpec, batches: list[MicroBatch]) -> ResidualCurve:
    """Per-batch run; model and optimizer state persist across batches.

    Only the residual metric restarts at each batch boundary: the first
    mk + d positions of every batch are fed to the model but not scored.
    """
    window = spec.model.window
    if not batches:
        raise ValueError("no batches to run")
    for b in batches:
        if len(b) <= window:
            raise ValueError(
                f"batch {b.batch_index} has {len(b)} samples, need more than mk + d = {window}"
            )
    starts = np.cumsum([0] + [len(b) for b in batches[:-1]])
    values = np.concatenate([b.samples.values for b in batches])
    resid = _residuals(spec, _kernel(spec, values), values, starts)
    per_trial = np.stack(
        [resid[:, s : s + len(b) - window].mean(axis=1) for s, b in zip(starts, batches)], axis=1
    )
    return ResidualCurve(
        indices=np.arange(len(batches)),
        mean=per_trial.mean(axis=0),
        per_trial=per_trial,
        granularity="batch",
    )


def run_data(spec: RunSpec, data) -> ResidualCurve:
    """Dispatch on data shape: a TimeSeries streams, a batch list runs batched."""
    if isinstance(data, TimeSeries):
        return run_stream(spec, data)
    return run_batched(spec, list(data))


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
            samples=TimeSeries(normalize(b.samples.values, lo, hi), b.samples.start_index),
            batch_index=b.batch_index,
        )
        for b in batches
    ]


def compare_optimizers(
    spec: RunSpec, data, optimizers: tuple[str, ...]
) -> dict[str, ResidualCurve]:
    """Run several optimizers over the same data and seeds."""
    return {name: run_data(replace(spec, optimizer=name), data) for name in optimizers}


def _scored_run(spec: RunSpec, data, score=tail_mean) -> tuple[float, ResidualCurve | None]:
    """Score of a run's averaged curve and the curve; a diverged run scores inf."""
    try:
        curve = run_data(spec, data)
    except DivergedError:
        return math.inf, None
    return score(curve.mean), curve


@dataclass(frozen=True)
class RateResult:
    rate: float
    tail: float  # the rate's score, the tail-window mean by default
    diverged: bool


def grid_search(
    spec: RunSpec, data, rate_grid, score=tail_mean
) -> tuple[float, list[RateResult]]:
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
    runs = [_scored_run(replace(spec, learning_rate=r), data, score) for r in rates]
    results = [RateResult(r, value, curve is None) for r, (value, curve) in zip(rates, runs)]
    stable = [r for r in results if not r.diverged]
    if not stable:
        raise ValueError("no stable rate: every candidate in the grid diverged")
    best = min(stable, key=lambda r: (r.tail, r.rate))
    return best.rate, results


@dataclass(frozen=True)
class SweepEntry:
    label: str
    final_residual: float
    diverged: bool
    curve: ResidualCurve | None = field(repr=False, default=None)


def sweep_lambda(
    spec: RunSpec,
    data,
    lambda_grid,
    baselines: tuple[str, ...] = ("amsgrad", "basic", "momentum"),
) -> list[SweepEntry]:
    """Run the combined optimizer across ramp lengths, plus fixed baselines.

    Every entry reports the tail-window mean of its averaged curve; a
    diverged run is kept in the summary with an infinite residual.
    """
    ramps = [float(r) for r in lambda_grid]
    if not ramps:
        raise ValueError("ramp grid is empty")
    runs = [(f"combined_lambda_{r:g}", replace(spec, optimizer="combined", ramp_length=r))
            for r in ramps]
    runs += [(name, replace(spec, optimizer=name, ramp_length=None)) for name in baselines]
    return [_sweep_entry(label, candidate, data) for label, candidate in runs]


def _sweep_entry(label: str, spec: RunSpec, data) -> SweepEntry:
    value, curve = _scored_run(spec, data)
    return SweepEntry(label, value, curve is None, curve)
