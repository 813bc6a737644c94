"""Span tracer for the benchmark's traced run.

The tracer wraps the package's public functions at every name a caller
looks up: a function imported with ``from .x import f`` lives on in the
importing module's namespace, so patching only its home module misses
those calls. Each call becomes a span (name, tag, parent span, start,
end) held in flat in-memory arrays; ``save`` writes them out once at exit
and ``layer_metrics`` turns the file into per-layer numbers, computing
self times from the parent links.

A run is cut into phases: phase 0 is set-up and phase k >= 1 is the k-th
timed operation. Per-layer values are the set-up part plus the median
over operations, so they read "one set-up plus one typical operation".
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter_ns

OPTIMIZER_NAMES = (
    "basic", "momentum", "nesterov", "adagrad", "rmsprop", "adam", "amsgrad", "combined",
)

# (span name, home module, attribute); module functions are patched in every
# loaded streamarima namespace that holds them, methods on their class.
FUNCTIONS = (
    ("cli.main", "streamarima.cli", "main"),
    ("cli.curve_csv", "streamarima.cli", "curve_csv"),
    ("cli.write_text_atomic", "streamarima.cli", "write_text_atomic"),
    ("experiment.run_data", "streamarima.experiment", "run_data"),
    ("experiment.normalize_batches", "streamarima.experiment", "normalize_batches"),
    ("ingest.load_batch_dir", "streamarima.ingest", "load_batch_dir"),
    ("ingest.parse_batch_file", "streamarima.ingest", "parse_batch_file"),
    ("synthetic.generate", "streamarima.synthetic", "generate"),
    ("plotting.smooth_curve", "streamarima.plotting", "smooth_curve"),
    ("plotting.render_svg", "streamarima.plotting", "render_svg"),
)
METHODS = (
    ("model.learn_step", "streamarima.model", "ArimaModel", "learn_step"),
    ("optimizers.step", "streamarima.optimizers", "Optimizer", "step"),
)
SPAN_NAMES = tuple(n for n, *_ in FUNCTIONS) + tuple(n for n, *_ in METHODS)


def _data_samples(data) -> int:
    if hasattr(data, "values"):
        return len(data)
    return sum(len(b) for b in data)


def _count_run_data(args, result, exc):
    spec, data = args[0], args[1]
    out = [(f"experiment.trial_samples.{spec.optimizer}", spec.trials * _data_samples(data))]
    if exc is not None and type(exc).__name__ == "DivergedError":
        out.append(("experiment.diverged", 1))
    return out


def _count_text(key):
    def count(args, result, exc):
        return [] if exc else [(key, len(result))]
    return count


def _count_write(args, result, exc):
    return [] if exc else [("cli.files_written", 1), ("cli.bytes_written", len(args[1]))]


def _count_parse(args, result, exc):
    if exc:
        return []
    return [
        ("ingest.files", 1),
        ("ingest.samples", len(result.samples)),
        ("ingest.bytes_read", os.path.getsize(args[0])),
    ]


COUNTERS = {
    "experiment.run_data": _count_run_data,
    "cli.curve_csv": _count_text("cli.curve_csv.bytes"),
    "cli.write_text_atomic": _count_write,
    "ingest.parse_batch_file": _count_parse,
    "plotting.render_svg": _count_text("plotting.svg_bytes"),
}

# How a span is tagged with the optimizer it serves, so times split per rule.
TAGGERS = {
    "experiment.run_data": lambda args: args[0].optimizer,
    "model.learn_step": lambda args: type(args[1]).name,
    "optimizers.step": lambda args: type(args[0]).name,
}


class Tracer:
    def __init__(self):
        self.name = array("b")
        self.tag = array("b")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.phase_first_span = [0]
        self.phase_counts: list[dict[str, int]] = []
        self._tags = {name: i for i, name in enumerate(OPTIMIZER_NAMES)}

    def next_phase(self) -> None:
        """Close the current phase; later spans and counts belong to the next."""
        self.phase_counts.append(dict(self.counts))
        self.counts.clear()
        self.phase_first_span.append(len(self.start))

    def _wrap(self, span_name: str, fn):
        name_id = SPAN_NAMES.index(span_name)
        counter = COUNTERS.get(span_name)
        tagger = TAGGERS.get(span_name)
        tags, counts, stack = self._tags, self.counts, self._stack
        names, tag_arr, parents, starts, ends = (
            self.name, self.tag, self.parent, self.start, self.end,
        )

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            tag_arr.append(tags.get(tagger(args), -1) if tagger else -1)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            result = exc = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
                if counter is not None:
                    for key, value in counter(args, result, exc):
                        counts[key] = counts.get(key, 0) + value

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function and method; call after importing the package."""
        loaded = [m for k, m in sys.modules.items() if k.split(".")[0] == "streamarima"]
        for span_name, home, attr in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            traced = self._wrap(span_name, original)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        for span_name, home, cls_name, attr in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            setattr(cls, attr, self._wrap(span_name, getattr(cls, attr)))

    def save(self, path) -> None:
        import json

        import numpy as np

        self.next_phase()
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int8),
            tag=np.frombuffer(self.tag, dtype=np.int8),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            phase_first_span=np.asarray(self.phase_first_span, dtype=np.int64),
            meta=np.asarray(json.dumps({
                "span_names": SPAN_NAMES,
                "tags": OPTIMIZER_NAMES,
                "phase_counts": self.phase_counts,
            })),
        )


def _phase_sums(spans, lo: int, hi: int, counts: dict) -> dict[str, float]:
    """Busy seconds, self seconds and counts of one phase, keyed by metric."""
    import numpy as np

    name, tag = spans["name"][lo:hi], spans["tag"][lo:hi]
    dur, self_dur = spans["dur"][lo:hi], spans["self"][lo:hi]
    out: dict[str, float] = dict(counts)
    for k, span_name in enumerate(SPAN_NAMES):
        sel = name == k
        out[f"{span_name}.s"] = float(dur[sel].sum()) * 1e-9
        out[f"{span_name}.self_s"] = float(self_dur[sel].sum()) * 1e-9
        out[f"{span_name}.calls"] = float(sel.sum())
        if span_name in TAGGERS:
            for j, rule in enumerate(OPTIMIZER_NAMES):
                both = sel & (tag == j)
                out[f"{span_name}.s.{rule}"] = float(dur[both].sum()) * 1e-9
                out[f"{span_name}.calls.{rule}"] = float(np.count_nonzero(both))
    return out


def layer_metrics(path) -> dict[str, float]:
    """Per-layer numbers for one set-up plus one typical operation."""
    import json
    import statistics

    import numpy as np

    with np.load(path) as z:
        spans = {k: z[k] for k in ("name", "tag", "parent", "start", "end")}
        first = [int(x) for x in z["phase_first_span"]]
        meta = json.loads(str(z["meta"]))
    if tuple(meta["span_names"]) != SPAN_NAMES or tuple(meta["tags"]) != OPTIMIZER_NAMES:
        raise ValueError(f"{path}: spans were written by another tracer version")
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child_time = np.bincount(
        spans["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
    )
    spans["dur"] = dur
    spans["self"] = dur - child_time
    bounds = list(zip(first, first[1:] + [dur.size]))
    phases = [
        _phase_sums(spans, lo, hi, counts)
        for (lo, hi), counts in zip(bounds, meta["phase_counts"])
    ]
    setup, ops = phases[0], phases[1:]
    if not ops:
        raise ValueError(f"{path}: no traced operation completed")
    keys = set().union(*phases)
    raw = {
        k: setup.get(k, 0.0) + statistics.median(op.get(k, 0.0) for op in ops) for k in keys
    }

    def us_per(num: str, den: str) -> float:
        return raw.get(num, 0.0) / raw[den] * 1e6 if raw.get(den) else 0.0

    m = {
        "model.learn_step.s": raw["model.learn_step.s"],
        "model.learn_step.calls": raw["model.learn_step.calls"],
        "model.learn_step.self_s": raw["model.learn_step.self_s"],
        "optimizers.step.s": raw["optimizers.step.s"],
        "experiment.run_data.s": raw["experiment.run_data.s"],
        "experiment.run_data.self_s": raw["experiment.run_data.self_s"],
        "experiment.trial_samples": sum(
            raw.get(f"experiment.trial_samples.{r}", 0.0) for r in OPTIMIZER_NAMES
        ),
        "experiment.diverged": raw.get("experiment.diverged", 0.0),
        "experiment.normalize_batches.s": raw["experiment.normalize_batches.s"],
        "cli.main.s": raw["cli.main.s"],
        "cli.main.self_s": raw["cli.main.self_s"],
        "cli.curve_csv.s": raw["cli.curve_csv.s"],
        "cli.curve_csv.bytes": raw.get("cli.curve_csv.bytes", 0.0),
        "cli.write_text_atomic.s": raw["cli.write_text_atomic.s"],
        "cli.files_written": raw.get("cli.files_written", 0.0),
        "cli.bytes_written": raw.get("cli.bytes_written", 0.0),
        "ingest.load_batch_dir.s": raw["ingest.load_batch_dir.s"],
        "ingest.files": raw.get("ingest.files", 0.0),
        "ingest.samples": raw.get("ingest.samples", 0.0),
        "ingest.bytes_read": raw.get("ingest.bytes_read", 0.0),
        "synthetic.generate.s": raw["synthetic.generate.s"],
        "plotting.smooth_curve.s": raw["plotting.smooth_curve.s"],
        "plotting.render_svg.s": raw["plotting.render_svg.s"],
        "plotting.svg_bytes": raw.get("plotting.svg_bytes", 0.0),
    }
    for r in OPTIMIZER_NAMES:
        m[f"model.learn_step.us_per_step.{r}"] = us_per(
            f"model.learn_step.s.{r}", f"model.learn_step.calls.{r}"
        )
        m[f"optimizers.{r}.us_per_step"] = us_per(
            f"optimizers.step.s.{r}", f"optimizers.step.calls.{r}"
        )
        m[f"experiment.us_per_trial_sample.{r}"] = us_per(
            f"experiment.run_data.s.{r}", f"experiment.trial_samples.{r}"
        )
    return m


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if "us_per_" in name:
        return "us"
    if "bytes" in last:
        return "bytes"
    if last.endswith("_frac"):
        return "fraction"
    return "count"
