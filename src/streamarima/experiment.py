"""Experiment harness: streaming runs, batched runs, sweeps and grids.

A run is specified once, as a RunSpec that states only what runs, and
replayed over a fixed data realization; each trial seed draws one model's
initial coefficients, so every curve is an average over inits on
identical data. One kernel call advances every trial of every run of a
comparison, sweep or grid together, over lag features computed once per
series; a batched run is the same kernel over the concatenated batches,
and a single run, ``run_data``, is the one-run case of the same call. The
kernel returns signed residuals, and residual curves are their absolute
values, per sample or per batch. Every run is scored by one number, the
mean of its trial-averaged curve over the whole stream; comparisons,
sweeps and grid searches rank runs by it. Divergence (a non-finite
residual, or one past DIVERGENCE_FACTOR times the data's largest
magnitude) is judged by one rule, in the kernel, and ends a run cleanly
instead of poisoning downstream aggregation: a diverged run is kept as a
record, scored infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import ArimaModel, ModelConfig, differences
from .optimizers import Optimizer, _check_settings, _rule
from .series import MicroBatch, TimeSeries, _is_int, normalize

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
    """One run, replayable: a ``ramp_length`` given to a rule other than ``combined``
    is checked as ``combined``'s would be, then set to None."""

    model: ModelConfig
    optimizer: str
    learning_rate: float
    ramp_length: float | None = None
    trial_seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        rule = _rule(self.optimizer)
        _check_settings(rule, self.learning_rate, self.ramp_length)
        if rule.delta != "handover":
            object.__setattr__(self, "ramp_length", None)
        if len(self.trial_seeds) == 0:
            raise ValueError("at least one trial seed is required")
        for seed in self.trial_seeds:
            if not (_is_int(seed) and seed >= 0):
                raise ValueError(f"trial seeds must be ints >= 0, got {seed!r}")

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
        if self.indices.size and self.indices.min() < 0:
            raise ValueError(f"indices must be >= 0, got {self.indices.min()}")


def _kernel(specs: list[RunSpec], values: np.ndarray, starts) -> tuple[np.ndarray, list, list]:
    """Residuals past the first mk + d samples of every trial of every run, and each verdict.

    The runs share one model shape. All their trials are the rows of one
    (rows, mk) coefficient array, grouped by rule as ``Optimizer`` orders
    them: per sample there is one ``gamma @ f``, one residual, one gradient
    and one optimizer update for all rows. Lag row j holds the d-th
    differences of ``values[j : j + mk + d]``, newest first: a strided view,
    never an n x mk copy. The view must stay reversed and strided: numpy
    hands ``gamma @ f`` with a contiguous ``f`` to BLAS's matrix-vector
    product, whose per-row sums change with the number of rows, so a run's
    rows would no longer be bitwise those of the run alone. ``starts`` marks
    batch starts (None for a stream); each batch leaves its first mk + d
    positions unscored. Returns the signed residuals in that row order, each
    run's block of rows, and each run's DivergedError text ("" for a run
    that did not diverge).

    At d = 0 a sample is four calls besides ``advance()``: the residual is
    written once, by ``np.subtract(gamma @ f, actual, out=column)`` into the
    sample's column of the interval buffer (at d > 0, an ``np.add`` of the
    integration term comes first); the gradient is that column times the
    lag row of the doubled differences, written into the optimizer's
    ``grad``; and gamma takes the delta. Doubling is exact, so ``r * (2f)``
    and ``(2r) * f`` are one rounding of the same product 2rf, bit for bit,
    for every |r| and |f| below 2**1023.

    The interval buffer holds the live rows' residuals over one
    DIVERGENCE_CHECK_INTERVAL samples, and goes into their rows of the
    residual array, which starts all nan, after each interval. Then each
    buffered residual is tested once, and a row records its first diverged
    column. A run whose first trial has a record leaves the loop: its rows
    leave the coefficient array and the optimizer, and its later residuals
    stay nan. The verdict names the run's lowest trial with a record, at
    that column, so what the run reports does not change.
    """
    model = specs[0].model
    window = model.window
    levels = differences(values, model.d)
    feats = sliding_window_view(levels[-1], model.mk)[:-1, ::-1]
    doubled = sliding_window_view(2.0 * levels[-1], model.mk)[:-1, ::-1]
    integ = sum(level[window - 1 - i : -1] for i, level in enumerate(levels[:-1]))
    actual = values[window:]
    scored = np.ones(values.size, dtype=bool)
    for s in () if starts is None else starts:
        scored[s : s + window] = False
    scored = scored[window:]
    bound = DIVERGENCE_FACTOR * np.abs(values).max()
    opt = Optimizer(model.mk, [
        (spec.optimizer, spec.learning_rate, spec.ramp_length, spec.trials) for spec in specs])
    blocks = opt.blocks
    gamma = np.empty(opt.shape)
    for spec, block in zip(specs, blocks):
        gamma[block] = [ArimaModel(model, s).gamma for s in spec.trial_seeds]
    n = actual.size
    resid = np.full((gamma.shape[0], n), np.nan)
    first = np.full(gamma.shape[0], -1)  # each row's first diverged column, -1 for none
    buf = np.empty((gamma.shape[0], DIVERGENCE_CHECK_INTERVAL))  # one interval of the live rows
    rows = np.arange(gamma.shape[0])  # the residual row of each coefficient row
    d = model.d
    with np.errstate(all="ignore"):
        for lo in range(0, n, DIVERGENCE_CHECK_INTERVAL):
            hi = min(lo + DIVERGENCE_CHECK_INTERVAL, n)
            grad, advance = opt.grad, opt.advance
            for j, f, f2, a, col in zip(range(lo, hi), feats[lo:hi], doubled[lo:hi],
                                        actual[lo:hi], buf.T):
                if d:
                    np.add(gamma @ f, integ[j], out=col)
                    np.subtract(col, a, out=col)
                else:
                    np.subtract(gamma @ f, a, out=col)
                np.multiply(col[:, None], f2, out=grad)
                gamma -= advance()
            resid[rows, lo:hi] = buf[:, : hi - lo]
            bad = ~(np.abs(buf[:, : hi - lo]) <= bound) & scored[lo:hi]  # nan fails <= and counts
            if not bad.any():
                continue
            new = bad.any(axis=1) & (first[rows] < 0)
            first[rows[new]] = lo + bad[new].argmax(axis=1)
            left = new[[block.start for block in opt.blocks]]
            if left.all():
                break
            if left.any():
                opt, kept = opt.without(left)
                gamma, buf, rows = gamma[kept], buf[kept], rows[kept]
    messages = [_verdict(spec, first[block], window, starts) for spec, block in zip(specs, blocks)]
    return resid, blocks, messages


def _verdict(spec: RunSpec, first: np.ndarray, window: int, starts) -> str:
    """The DivergedError text naming a run's lowest trial with a ``first`` column, or ""."""
    if (first < 0).all():
        return ""
    trial = int((first >= 0).argmax())
    k = int(first[trial]) + window
    where = f"at sample {k}"
    if starts is not None:
        pos = int(np.searchsorted(starts, k, side="right")) - 1
        where = f"in batch {pos} at offset {k - starts[pos]}"
    return (f"run diverged {where} (optimizer {spec.optimizer}, "
            f"rate {spec.learning_rate:g}, trial seed {spec.trial_seeds[trial]})")


def _source(data, window: int):
    """The samples of a TimeSeries or a batch list, and the batch starts (None for a stream)."""
    if isinstance(data, TimeSeries):
        if len(data) <= window:
            raise ValueError(f"series of length {len(data)} is too short for mk + d = {window}")
        return data.values, None
    data = list(data)
    if not data:
        raise ValueError("no batches to run")
    for k, b in enumerate(data):
        if len(b) <= window:
            raise ValueError(f"batch {k} has {len(b)} samples, need more than mk + d = {window}")
    starts = np.cumsum([0] + [len(b) for b in data[:-1]])
    return np.concatenate([b.samples.values for b in data]), starts


def _curve(resid: np.ndarray, starts, window: int) -> ResidualCurve:
    """A run's curve from its block of |residuals|: per sample for a stream, else per batch.

    Only the residual metric restarts at each batch boundary: the first
    mk + d positions of every batch are fed to the model but not scored.
    """
    n = window + resid.shape[1]
    if starts is None:
        return ResidualCurve(np.arange(window, n), resid.mean(axis=0), resid, "sample")
    ends = np.append(starts[1:], n)
    per_trial = np.stack([resid[:, s : e - window].mean(axis=1) for s, e in zip(starts, ends)],
                         axis=1)
    return ResidualCurve(np.arange(starts.size), per_trial.mean(axis=0), per_trial, "batch")


def run_data(spec: RunSpec, data) -> ResidualCurve:
    """One run over a TimeSeries (a point per sample) or a batch list (a point per batch).

    Over a batch list, model and optimizer state persist across batches.
    """
    (record,) = _run_all([(spec.optimizer, spec)], data)
    if record.diverged:
        raise DivergedError(record.message)
    return record.curve


def normalize_batches(batches: list[MicroBatch]) -> list[MicroBatch]:
    """Normalize every batch with parameters fitted on the first batch only.

    Freezing the map keeps later batches on a consistent scale without
    letting future data leak into earlier normalization. A constant first
    batch has no range to fit, and would map every later batch to 0, so it
    is an error naming it as batch 0, its position in the list.
    """
    if not batches:
        raise ValueError("no batches to normalize")
    first = batches[0].samples.values
    lo, hi = first.min(), first.max()
    if lo == hi:
        raise ValueError(f"first batch (batch 0) is constant at {lo:g}: "
                         "it gives no range to normalize by")
    return [MicroBatch(TimeSeries(normalize(b.samples.values, lo, hi))) for b in batches]


@dataclass(frozen=True)
class RunRecord:
    """One run of a comparison, sweep or grid: its score and curve, or why it diverged."""

    label: str
    spec: RunSpec
    score: float  # the whole-stream mean of the curve, inf for a diverged run
    curve: ResidualCurve | None = field(repr=False)
    message: str = ""  # the DivergedError text of a diverged run

    @property
    def diverged(self) -> bool:
        return self.curve is None


def _run_all(runs, data) -> list[RunRecord]:
    """One kernel call for every ``(label, spec)`` over ``data``; a diverged run stays a record."""
    window = runs[0][1].model.window
    values, starts = _source(data, window)
    resid, blocks, messages = _kernel([spec for _, spec in runs], values, starts)
    np.abs(resid, out=resid)
    records = []
    for (label, spec), block, message in zip(runs, blocks, messages):
        if message:
            records.append(RunRecord(label, spec, math.inf, None, message))
        else:
            curve = _curve(resid[block], starts, window)
            records.append(RunRecord(label, spec, float(curve.mean.mean()), curve))
    return records


def compare_optimizers(spec: RunSpec, data, optimizers: tuple[str, ...]) -> list[RunRecord]:
    """Run several optimizers over the same data and seeds, one record each."""
    return _run_all([(name, replace(spec, optimizer=name)) for name in optimizers], data)


def grid_search(spec: RunSpec, data, rate_grid) -> tuple[float, list[RunRecord]]:
    """Pick the learning rate whose averaged curve has the lowest whole-stream mean.

    Diverged rates score infinity; ties go to the smaller rate; a grid
    where everything diverges is an error.
    """
    rates = [float(r) for r in rate_grid]
    if not rates:
        raise ValueError("rate grid is empty")
    runs = [(f"lr_{r:g}", replace(spec, learning_rate=r)) for r in rates]
    records = _run_all(runs, data)
    stable = [r for r in records if not r.diverged]
    if not stable:
        raise ValueError("no stable rate: every candidate in the grid diverged")
    best = min(stable, key=lambda r: (r.score, r.spec.learning_rate))
    return best.spec.learning_rate, records


def sweep_lambda(spec: RunSpec, data, lambda_grid) -> list[RunRecord]:
    """Run the combined optimizer across ramp lengths, plus SWEEP_BASELINES.

    Every record is scored by the whole-stream mean of its averaged curve;
    a diverged run is kept in the summary with an infinite score.
    """
    ramps = [float(r) for r in lambda_grid]
    if not ramps:
        raise ValueError("ramp grid is empty")
    runs = [(f"combined_lambda_{r:g}", replace(spec, optimizer="combined", ramp_length=r))
            for r in ramps]
    runs += [(name, replace(spec, optimizer=name)) for name in SWEEP_BASELINES]
    return _run_all(runs, data)
