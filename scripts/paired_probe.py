#!/usr/bin/env python3
"""Time two copies of the package against each other in one interpreter.

    python3 scripts/paired_probe.py <parent src> <change src>

Loads each ``src/streamarima`` under its own package name and times the two
sides in alternating pairs, parent first in even pairs: chunks of
``learn_step`` calls per rule, and whole ``experiment._kernel`` calls per
rule and for all rules, and whole ``plotting.render_svg`` calls over
``reproduce 2``'s smoothed curves. It also hashes each side's streams.
Prints one JSON object with the keys ``stream``, ``kernel``, ``render`` and
``sha256``;
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
PAIRED_KERNEL_PAIRS = 8
PAIRED_RENDER_PAIRS = 20
SIDES = ("parent", "change")


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
    """Whole kernel calls over preset 2, per rule and for all rules, and whether both agree."""
    clock = time.perf_counter_ns
    synthetic = sides["change"].synthetic
    values = synthetic.generate(synthetic.preset(2, seed=7)).values
    calls = {}
    for side, package in sides.items():
        for trials in (1, 30):
            base = package.RunSpec(package.ModelConfig(mk=10), "combined", 0.05, 2000.0,
                                   tuple(range(trials)))
            specs = [replace(base, optimizer=name) for name in rules]
            groups = {"all": specs}
            if trials == 1:
                groups = {**{name: [spec] for name, spec in zip(rules, specs)}, **groups}
            for label, group in groups.items():
                calls.setdefault(f"T{trials}.{label}", {})[side] = partial(
                    package.experiment._kernel, group, values, None)
    kernel, identical = {}, True
    for key, call in calls.items():
        us = {side: [] for side in sides}
        for k in range(PAIRED_KERNEL_PAIRS):
            resid = {}
            for side in order(k):
                t0 = clock()
                resid[side] = call[side]()[0]
                us[side].append((clock() - t0) * 1e-3 / (values.size - 10))
            identical &= resid["parent"].tobytes() == resid["change"].tobytes()
        kernel[key] = summary(us)
    kernel["identical"] = identical
    return kernel


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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: paired_probe.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    sides = {side: load(f"streamarima_{side}", src) for side, src in zip(SIDES, argv)}
    rules = list(sides["parent"].optimizers.OPTIMIZERS)
    stream, sha256 = probe_stream(sides, rules)
    kernel = probe_kernel(sides, rules)
    render = probe_render(sides, rules)
    print(json.dumps({"stream": stream, "kernel": kernel, "render": render, "sha256": sha256}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
