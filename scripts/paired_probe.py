#!/usr/bin/env python3
"""Time two copies of the package against each other in one interpreter.

    python3 scripts/paired_probe.py <parent src> <change src>

Loads each ``src/streamarima`` under its own package name and times the two
sides in alternating pairs, parent first in even pairs. A rule timed alone
in its own interpreter does not resolve against a shared host's noise, so
both sides run in this one. Prints one JSON object: a ``what`` for the
whole, the sections ``stream``, ``kernel``, ``generate``, ``render`` and
``curve_csv``, each with a ``what`` that says what its keys hold, and
``sha256``, each side's digest of its streams. ``scripts/bench_pairs.py``
records the object as it comes, so a key is added or described here only.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import json
import statistics
import sys
import time
from array import array
from functools import partial

import make_demo_batches as demo

PAIRED_REPEATS = 6
PAIRED_WARMUP = 50
PAIRED_CHUNK = 500
PAIRED_KERNEL_PAIRS = 40
# a batched_files call lasts about 25 ms, long enough for the host's speed to
# drift within a pair, so that key needs more pairs to resolve a few percent
PAIRED_BATCHED_FILES_PAIRS = 120
PAIRED_KERNEL_SAMPLES = 1000
PAIRED_GENERATE_PAIRS = 20
PAIRED_RENDER_PAIRS = 20
PAIRED_CSV_PAIRS = 24
PAIRED_CSV_TRIALS = (2, 30)
SIDES = ("parent", "change")


def load(name: str, src: str):
    """The package under ``src`` imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/streamarima/__init__.py", submodule_search_locations=[f"{src}/streamarima"])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


def demo_spec(synthetic):
    """The spec of scripts/make_demo_batches.py's default batches, the series of batched-files."""
    return synthetic.GeneratorSpec(alpha=demo.ALPHA, beta=demo.BETA,
                                   length=demo.BATCHES * demo.BATCH_SIZE, seed=0)


def summary(us: dict[str, list[float]]) -> dict:
    ratios = [c / p for p, c in zip(us["parent"], us["change"])]
    return {
        **{f"{side}_us": statistics.median(us[side]) for side in SIDES},
        "change_vs_parent_median": statistics.median(ratios) - 1.0,
        "change_better_in_pairs": sum(r < 1.0 for r in ratios),
        "pairs": len(ratios),
    }


def order(k: int) -> tuple[str, str]:
    return SIDES if k % 2 == 0 else SIDES[::-1]


def _raw(value):
    """An array's bytes, or the value itself."""
    return value.tobytes() if hasattr(value, "tobytes") else value


def time_pairs(calls: dict, pairs: int, args=lambda k: (), per: float = 1.0) -> tuple[dict, bool]:
    """Time ``calls[side](*args(k))`` on both sides in pair k of ``pairs``, parent first in even k.

    Returns the summary of each side's microseconds per call divided by
    ``per``, and whether both sides returned the same value in every pair;
    arrays are compared by their bytes, so nan equals nan and -0.0 is not 0.0.
    """
    clock = time.perf_counter_ns
    us, identical = {side: [] for side in SIDES}, True
    for k in range(pairs):
        arg, out = args(k), {}
        for side in order(k):
            t0 = clock()
            out[side] = calls[side](*arg)
            us[side].append((clock() - t0) * 1e-3 / per)
        identical &= _raw(out["parent"]) == _raw(out["change"])
    return summary(us), identical


def probe_stream(sides: dict, rules: list[str]) -> tuple[dict, dict]:
    """Per rule, chunks of learn_step calls over preset 3, and each side's stream digest."""
    clock = time.perf_counter_ns
    synthetic = sides["change"].synthetic
    values = synthetic.generate(synthetic.preset(3, seed=7)).values
    chunks = [values[a : a + PAIRED_CHUNK]
              for a in range(PAIRED_WARMUP, values.size - PAIRED_CHUNK + 1, PAIRED_CHUNK)]
    stream = {"what": f"ArimaModel.learn_step over preset 3 (data seed 7), mk 10, d 1, lr "
                      f"0.05, lambda 2000, per rule: {PAIRED_REPEATS} streams, each warmed "
                      f"up on {PAIRED_WARMUP} samples, then one pair per "
                      f"{PAIRED_CHUNK}-sample chunk; microseconds per call"}
    digests = {side: hashlib.sha256() for side in sides}
    for name in rules:
        us = {side: [] for side in sides}
        for _ in range(PAIRED_REPEATS):
            models, steps, streamed = {}, {}, {side: array("d") for side in sides}
            for side, package in sides.items():
                model = models[side] = package.ArimaModel(package.ModelConfig(mk=10, d=1))
                opt = package.make_optimizer(name, 10, 0.05, 2000.0 if name == "combined" else None)
                step = steps[side] = lambda x, learn=model.learn_step, opt=opt: learn(opt, x)
                for x in values[:PAIRED_WARMUP]:
                    streamed[side].extend(step(x) or ())
            for k, chunk in enumerate(chunks):
                for side in order(k):
                    step = steps[side]
                    t0 = clock()
                    preds = [step(x) for x in chunk]
                    us[side].append((clock() - t0) * 1e-3 / len(chunk))
                    for pred in preds:
                        streamed[side].extend(pred)
            for side in sides:
                streamed[side].extend(models[side].gamma)
                digests[side].update(streamed[side].tobytes())
        stream[name] = summary(us)
    return stream, {
        "what": "sha256 of every learn_step prediction (value, residual) and each "
                "model's final gamma in the paired probe's streams, as float64 bytes, "
                "rule after rule",
        **{side: digests[side].hexdigest() for side in sides},
    }


def probe_kernel(sides: dict, rules: list[str]) -> dict:
    """Short kernel calls per key, in alternating pairs, and whether both sides agree.

    Pair k times one call per side over the k-th PAIRED_KERNEL_SAMPLES-sample
    segment of the key's series, cycling through the series; every call
    starts from cold optimizer state at step 1.
    """
    package = sides["change"]
    synthetic, experiment = package.synthetic, package.experiment
    preset2 = synthetic.generate(synthetic.preset(2, seed=7)).values
    batched = synthetic.generate(demo_spec(synthetic)).values
    # normalized as batched-files' run normalizes its batches: by the first batch's range
    first = batched[:demo.BATCH_SIZE]
    batched = package.series.normalize(batched, first.min(), first.max())
    # key: (series, mk, runs as (rule, rate, ramp, trials))
    keys = {}
    # T2.all is the bank of synth-reproduce: reproduce 2 at 2 trials
    for trials in (1, 2, 30):
        runs = [(name, 0.05, 2000.0 if name == "combined" else None, trials) for name in rules]
        if trials == 1:
            keys.update({f"T1.{run[0]}": (preset2, 10, [run]) for run in runs})
        keys[f"T{trials}.all"] = (preset2, 10, runs)
    # a run that diverges in the first or second interval of every segment,
    # so the kernel's leave path runs in every call
    keys["T2.leave"] = (preset2, 10, [*keys["T2.all"][2], ("momentum", 1.0, None, 2)])
    # reproduce 7's ramps scaled to the segment, so that its several ramps
    # end one by one and the last runs alone for the second half of each call
    scale = PAIRED_KERNEL_SAMPLES / 10_000
    grid = importlib.import_module(f"{package.__name__}.cli").LAMBDA_GRID.split(",")
    keys["T30.sweep"] = (preset2, 10, [
        *(("combined", 0.05, float(ramp) * scale, 30) for ramp in grid),
        *((name, 0.05, None, 30) for name in experiment.SWEEP_BASELINES)])
    keys["batched_files"] = (batched, 300, [("combined", 5e-3, 102400.0, 3)])
    kernel = {"what": f"experiment._kernel, {PAIRED_KERNEL_PAIRS} pairs of "
                      f"{PAIRED_KERNEL_SAMPLES}-sample calls per key ("
                      f"{PAIRED_BATCHED_FILES_PAIRS} for batched_files), pair k over the k-th "
                      "segment of the series: T1.<rule>, T1.all, T2.all and T30.all on preset 2 "
                      "(data seed 7), mk 10, lr 0.05, lambda 2000; T2.leave, T2.all plus "
                      "momentum at lr 1, 2 trials, which diverges and leaves the loop at the "
                      "first or second check of every segment; T30.sweep, reproduce 7's "
                      "ramps scaled by 1/10 plus its 3 baselines, 30 trials; batched_files, "
                      "combined at mk 300, 3 trials, lr 5e-3, lambda 102400 on the demo "
                      "generator's series; microseconds per sample, each call including the "
                      "abs of its residuals; identical: whether both sides computed bitwise "
                      "the same |residuals|, so that a kernel returning r and one returning "
                      "|r| compare alike"}
    identical = True
    for key, (values, mk, runs) in keys.items():
        calls = {side: lambda segment, kernel=partial(pkg.experiment._kernel, [
            pkg.RunSpec(pkg.ModelConfig(mk=mk), rule, lr, ramp, tuple(range(trials)))
            for rule, lr, ramp, trials in runs]): abs(kernel(segment, None)[0])
            for side, pkg in sides.items()}
        size = PAIRED_KERNEL_SAMPLES + mk
        offsets = range(0, values.size - size + 1, PAIRED_KERNEL_SAMPLES)
        pairs = PAIRED_BATCHED_FILES_PAIRS if key == "batched_files" else PAIRED_KERNEL_PAIRS
        kernel[key], same = time_pairs(
            calls, pairs, lambda k: (values[offsets[k % len(offsets)]:][:size],),
            PAIRED_KERNEL_SAMPLES)
        identical &= same
    kernel["identical"] = identical
    return kernel


def probe_generate(sides: dict) -> dict:
    """Whole synthetic.generate calls per spec, in alternating pairs, and whether both agree.

    The specs are preset 2 at data seed 7, the series of ``reproduce 2``, and
    the demo batch files' spec, the series of batched-files.
    """
    generate = {"what": f"synthetic.generate, {PAIRED_GENERATE_PAIRS} pairs of whole calls per "
                        "spec: preset2, preset 2 at data seed 7; demo, the spec of "
                        "scripts/make_demo_batches.py's 10 default batches; microseconds per "
                        "call; identical: whether both sides generated bitwise the same series"}
    identical = True
    for key, make in (("preset2", lambda synthetic: synthetic.preset(2, seed=7)),
                      ("demo", demo_spec)):
        calls = {side: lambda run=pkg.synthetic.generate, spec=make(pkg.synthetic):
                 run(spec).values for side, pkg in sides.items()}
        generate[key], same = time_pairs(calls, PAIRED_GENERATE_PAIRS)
        identical &= same
    generate["identical"] = identical
    return generate


def probe_writers(sides: dict, rules: list[str]) -> tuple[dict, dict]:
    """render_svg and curve_csv calls over reproduce 2's curves, computed once for both.

    The render plots the 2-trial curves smoothed over 50 samples; for each
    trial count of PAIRED_CSV_TRIALS, pair k of curve_csv writes the
    (k mod 8)-th rule's curve.
    """
    plotting, cli = ({side: importlib.import_module(f"{pkg.__name__}.{module}")
                      for side, pkg in sides.items()} for module in ("plotting", "cli"))
    package = sides["change"]
    series = package.synthetic.generate(package.synthetic.preset(2, seed=7))
    records = {trials: package.compare_optimizers(
        package.RunSpec(package.ModelConfig(mk=10), "combined", 0.05, 2000.0,
                        tuple(range(trials))), series, tuple(rules))
        for trials in PAIRED_CSV_TRIALS}
    plotted = {r.label: plotting["change"].smooth_curve(r.curve.indices, r.curve.mean, 50)
               for r in records[2]}
    calls = {side: partial(plotting[side].render_svg, plotted, title="configuration 2",
                           x_label="sample", y_label="mean |residual|")
             for side in sides}
    timed, identical = time_pairs(calls, PAIRED_RENDER_PAIRS)
    render = {"what": f"plotting.render_svg over reproduce 2's 8 curves (data seed 7, 2 "
                      f"trials, smoothed over 50 samples): {PAIRED_RENDER_PAIRS} pairs of whole "
                      "calls; microseconds per call; identical: whether both sides rendered "
                      "the same SVG bytes",
              **timed, "identical": identical}
    curve_csv = {"what": f"cli.curve_csv over reproduce 2's 8 curves (data seed 7), key "
                         f"T<trials> for trials in {', '.join(map(str, PAIRED_CSV_TRIALS))}: "
                         f"{PAIRED_CSV_PAIRS} pairs per key, pair k writing the (k mod 8)-th "
                         "curve; microseconds per call; identical: whether both sides wrote the "
                         "same text for every call"}
    identical = True
    for trials, runs in records.items():
        curves = [r.curve for r in runs]
        calls = {side: cli[side].curve_csv for side in sides}
        curve_csv[f"T{trials}"], same = time_pairs(
            calls, PAIRED_CSV_PAIRS, lambda k: (curves[k % len(curves)],))
        identical &= same
    curve_csv["identical"] = identical
    return render, curve_csv


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: paired_probe.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    sides = {side: load(f"streamarima_{side}", src) for side, src in zip(SIDES, argv)}
    rules = list(sides["parent"].optimizers.OPTIMIZERS)
    stream, sha256 = probe_stream(sides, rules)
    kernel = probe_kernel(sides, rules)
    generate = probe_generate(sides)
    render, curve_csv = probe_writers(sides, rules)
    print(json.dumps({
        "what": "both sides' packages in one interpreter, timed in alternating pairs, "
                "parent first in even pairs; per key, each side's median microseconds, "
                "the median of the per-pair ratios and the pairs the change won",
        "stream": stream, "kernel": kernel, "generate": generate, "render": render,
        "curve_csv": curve_csv, "sha256": sha256}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
