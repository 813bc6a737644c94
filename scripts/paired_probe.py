#!/usr/bin/env python3
"""Time two copies of the package against each other in one interpreter.

    python3 scripts/paired_probe.py <parent src> <change src>

Loads each ``src/streamarima`` under its own package name and times the two
sides in alternating pairs, parent first in even pairs: chunks of
``learn_step`` calls per rule, short ``experiment._kernel`` calls per rule,
for all rules at 1, 2 and 30 trials, for a lambda sweep and at
batched-files' shape, whole ``synthetic.generate`` calls over preset 2 and
the demo batches' spec, whole ``plotting.render_svg`` calls over
``reproduce 2``'s smoothed curves, and ``cli.curve_csv`` calls over
``reproduce 2``'s curves at 2 and 30 trials. It also hashes each side's
streams.
Prints one JSON object with the keys ``stream``, ``kernel``, ``generate``,
``render``, ``curve_csv`` and ``sha256``;
``scripts/bench_pairs.py`` runs it and describes what each key holds.
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
from dataclasses import replace
from functools import partial

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
# the ARMA coefficients of scripts/make_demo_batches.py, whose files batched-files streams,
# and that workload's count and size of batches
DEMO_ALPHA, DEMO_BETA = (0.9, -0.9, 0.9, -0.4, -0.1), (0.5, 0.1)
DEMO_BATCHES, DEMO_BATCH = 10, 2048


def load(name: str, src: str):
    """The package under ``src`` imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, f"{src}/streamarima/__init__.py", submodule_search_locations=[f"{src}/streamarima"])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


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


def probe_stream(sides: dict, rules: list[str]) -> tuple[dict, dict]:
    """Per rule, chunks of learn_step calls over preset 3, and each side's stream digest."""
    clock = time.perf_counter_ns
    synthetic = sides["change"].synthetic
    values = synthetic.generate(synthetic.preset(3, seed=7)).values
    chunks = [values[a : a + PAIRED_CHUNK]
              for a in range(PAIRED_WARMUP, values.size - PAIRED_CHUNK + 1, PAIRED_CHUNK)]
    stream, digests = {}, {side: hashlib.sha256() for side in sides}
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
    return stream, {side: digests[side].hexdigest() for side in sides}


def probe_kernel(sides: dict, rules: list[str]) -> dict:
    """Short kernel calls per key, in alternating pairs, and whether both sides agree.

    Each key runs PAIRED_KERNEL_PAIRS pairs, batched_files
    PAIRED_BATCHED_FILES_PAIRS. Pair k times one call per side over the k-th
    PAIRED_KERNEL_SAMPLES-sample segment of the key's series, cycling through
    the series; every call starts from cold optimizer state at step 1.
    """
    clock = time.perf_counter_ns
    package = sides["change"]
    synthetic, experiment = package.synthetic, package.experiment
    preset2 = synthetic.generate(synthetic.preset(2, seed=7)).values
    demo = synthetic.generate(synthetic.GeneratorSpec(
        alpha=DEMO_ALPHA, beta=DEMO_BETA, length=DEMO_BATCHES * DEMO_BATCH, seed=0)).values
    # normalized as batched-files' run normalizes its batches: by the first batch's range
    demo = package.series.normalize(demo, demo[:DEMO_BATCH].min(), demo[:DEMO_BATCH].max())
    # key: (series, mk, runs as (rule, rate, ramp, trials))
    keys = {}
    # T2.all is the bank of synth-reproduce: reproduce 2 at 2 trials
    for trials in (1, 2, 30):
        runs = [(name, 0.05, 2000.0 if name == "combined" else None, trials) for name in rules]
        if trials == 1:
            keys.update({f"T1.{run[0]}": (preset2, 10, [run]) for run in runs})
        keys[f"T{trials}.all"] = (preset2, 10, runs)
    # reproduce 7's ramps scaled to the segment, so that its several ramps
    # end one by one and the last runs alone for the second half of each call
    scale = PAIRED_KERNEL_SAMPLES / 10_000
    grid = importlib.import_module(f"{package.__name__}.cli").LAMBDA_GRID.split(",")
    keys["T30.sweep"] = (preset2, 10, [
        *(("combined", 0.05, float(ramp) * scale, 30) for ramp in grid),
        *((name, 0.05, None, 30) for name in experiment.SWEEP_BASELINES)])
    keys["batched_files"] = (demo, 300, [("combined", 5e-3, 102400.0, 3)])
    kernel, identical = {}, True
    for key, (values, mk, runs) in keys.items():
        calls = {side: partial(pkg.experiment._kernel, [
            pkg.RunSpec(pkg.ModelConfig(mk=mk), rule, lr, ramp, tuple(range(trials)))
            for rule, lr, ramp, trials in runs]) for side, pkg in sides.items()}
        size = PAIRED_KERNEL_SAMPLES + mk
        offsets = range(0, values.size - size + 1, PAIRED_KERNEL_SAMPLES)
        us = {side: [] for side in sides}
        pairs = PAIRED_BATCHED_FILES_PAIRS if key == "batched_files" else PAIRED_KERNEL_PAIRS
        for k in range(pairs):
            segment = values[offsets[k % len(offsets)]:][:size]
            resid = {}
            for side in order(k):
                t0 = clock()
                resid[side] = calls[side](segment, None)[0]
                us[side].append((clock() - t0) * 1e-3 / PAIRED_KERNEL_SAMPLES)
            identical &= resid["parent"].tobytes() == resid["change"].tobytes()
        kernel[key] = summary(us)
    kernel["identical"] = identical
    return kernel


def probe_generate(sides: dict) -> dict:
    """Whole synthetic.generate calls per spec, in alternating pairs, and whether both agree.

    The specs are preset 2 at data seed 7, the series of ``reproduce 2``, and
    the demo batch files' spec, the series of batched-files.
    """
    clock = time.perf_counter_ns
    specs = {side: {"preset2": pkg.synthetic.preset(2, seed=7),
                    "demo": pkg.synthetic.GeneratorSpec(alpha=DEMO_ALPHA, beta=DEMO_BETA,
                                                        length=DEMO_BATCHES * DEMO_BATCH, seed=0)}
             for side, pkg in sides.items()}
    out, identical = {}, True
    for key in specs["parent"]:
        us = {side: [] for side in sides}
        for k in range(PAIRED_GENERATE_PAIRS):
            values = {}
            for side in order(k):
                generate, spec = sides[side].synthetic.generate, specs[side][key]
                t0 = clock()
                values[side] = generate(spec).values
                us[side].append((clock() - t0) * 1e-3)
            identical &= values["parent"].tobytes() == values["change"].tobytes()
        out[key] = summary(us)
    out["identical"] = identical
    return out


def probe_render(sides: dict, rules: list[str]) -> dict:
    """Whole render_svg calls over reproduce 2's smoothed curves, and whether both agree."""
    clock = time.perf_counter_ns
    plotting = {side: importlib.import_module(f"{pkg.__name__}.plotting")
                for side, pkg in sides.items()}
    package = sides["change"]
    series = package.synthetic.generate(package.synthetic.preset(2, seed=7))
    spec = package.RunSpec(package.ModelConfig(mk=10), "combined", 0.05, 2000.0, (0, 1))
    plotted = {r.label: plotting["change"].smooth_curve(r.curve.indices, r.curve.mean, 50)
               for r in package.compare_optimizers(spec, series, tuple(rules))}
    calls = {side: partial(plotting[side].render_svg, plotted, title="configuration 2",
                           x_label="sample", y_label="mean |residual|")
             for side in sides}
    us, svg = {side: [] for side in sides}, {}
    for k in range(PAIRED_RENDER_PAIRS):
        for side in order(k):
            t0 = clock()
            svg[side] = calls[side]()
            us[side].append((clock() - t0) * 1e-3)
    return {**summary(us), "identical": svg["parent"] == svg["change"]}


def probe_curve_csv(sides: dict, rules: list[str]) -> dict:
    """cli.curve_csv over reproduce 2's curves per trial count, and whether both agree.

    Pair k writes the (k mod 8)-th rule's curve on each side.
    """
    clock = time.perf_counter_ns
    cli = {side: importlib.import_module(f"{pkg.__name__}.cli") for side, pkg in sides.items()}
    package = sides["change"]
    series = package.synthetic.generate(package.synthetic.preset(2, seed=7))
    out, identical = {}, True
    for trials in PAIRED_CSV_TRIALS:
        spec = package.RunSpec(package.ModelConfig(mk=10), "combined", 0.05, 2000.0,
                               tuple(range(trials)))
        curves = [r.curve for r in package.compare_optimizers(spec, series, tuple(rules))]
        us = {side: [] for side in sides}
        for k in range(PAIRED_CSV_PAIRS):
            text = {}
            for side in order(k):
                t0 = clock()
                text[side] = cli[side].curve_csv(curves[k % len(curves)])
                us[side].append((clock() - t0) * 1e-3)
            identical &= text["parent"] == text["change"]
        out[f"T{trials}"] = summary(us)
    out["identical"] = identical
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: paired_probe.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    sides = {side: load(f"streamarima_{side}", src) for side, src in zip(SIDES, argv)}
    rules = list(sides["parent"].optimizers.OPTIMIZERS)
    stream, sha256 = probe_stream(sides, rules)
    kernel = probe_kernel(sides, rules)
    generate = probe_generate(sides)
    render = probe_render(sides, rules)
    curve_csv = probe_curve_csv(sides, rules)
    print(json.dumps({"stream": stream, "kernel": kernel, "generate": generate,
                      "render": render, "curve_csv": curve_csv, "sha256": sha256}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
