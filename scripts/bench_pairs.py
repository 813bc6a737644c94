#!/usr/bin/env python3
"""Benchmark a parent revision against the working tree in alternating pairs.

    python3 scripts/bench_pairs.py --parent HEAD --seed 60 --out BENCH_11.json

Run from anywhere inside the repository. Both sides run from fresh copies
made with ``git archive`` in two sibling temporary directories: the parent
revision, and the working tree's tracked files (``git stash create``, or
``HEAD`` when nothing is modified). Untracked files are not copied; the
script names any that ``.gitignore`` does not cover. Pair k of 10 runs
``perfbench/run.py --workload all --trace 0 --seed <seed + k>`` on both
sides for ``BENCHMARK.json``'s ``run_seconds`` per workload, parent first
in even pairs and the working tree first in odd ones. One ``--trace 1`` run
per side, on the first seed, then gives the per-layer metrics. Each side
runs the benchmark code of its own copy; this script only calls
``perfbench/run.py`` and changes nothing there.

One probe times single layers per rule, without perfbench's tracer. A rule
timed alone in its own interpreter does not resolve against this host's
noise, so the probe times both sides in one interpreter. It imports each
side's ``src/streamarima`` under its own package name, and runs the two
sides in alternating pairs, parent first in even pairs:

* the stream: for each rule, preset 3 (data seed 7) at online-step's
  settings (mk 10, d 1, lr 0.05, lambda 2000) through one model per side,
  PAIRED_REPEATS times. Each stream is warmed up on PAIRED_WARMUP samples,
  then timed in PAIRED_CHUNK-sample chunks of ``learn_step`` calls, one
  pair per chunk.
* the kernel: ``experiment._kernel`` over preset 2 (data seed 7) at
  ``reproduce 2``'s settings, each rule alone and all rules in one call at
  1 trial, and all rules at 30 trials, PAIRED_KERNEL_PAIRS pairs each.

Each pair gives one ratio of the change's time to the parent's. Per key,
the JSON records each side's median time, the median ratio and the number
of pairs the change won, and whether both sides' kernels computed bitwise
the same residuals. Each side's stream is also hashed: the sha256 of every
prediction (value, residual) it streamed and each model's final gamma, as
float64 bytes, rule after rule. ``reproduce`` never calls ``learn_step``,
so this is the one digest of that path.

Each side also runs ``reproduce 1 2 3 7 --trials 2`` into a temporary
directory, one command per configuration, and keeps the output files and a
log of each command's stdout, stderr and exit status. The JSON records the
sha256 of each side's ``<sha256>  <name>`` listing of those files, sorted
by name, and whether the two digests are equal, and the same for the
streams' digests. These are records of the outputs' bytes, not gates: the
script writes the JSON either way.

The JSON written holds every run's metrics and, for each workload and
end-to-end metric, each side's median and quartiles, the parent's
interquartile range, the change in the medians, the number of pairs the
working tree won (ties count for neither side) and the failed operations
of each side, the probe's per-key summaries, and the output digests.
Which direction is better is read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
PAIRED_REPEATS = 6
PAIRED_WARMUP = 50
PAIRED_CHUNK = 500
PAIRED_KERNEL_PAIRS = 8
# Loads both sides' packages (``src`` directories in argv) under their own names in one
# interpreter and times them in alternating pairs: chunks of learn_step calls per rule, and
# whole kernel calls per rule and for all rules, and hashes each side's streams, as JSON.
PAIRED_PROBE = f"""
import hashlib, importlib.util, json, statistics, sys, time
from array import array
from dataclasses import replace
from functools import partial

def load(name, src):
    spec = importlib.util.spec_from_file_location(
        name, f"{{src}}/streamarima/__init__.py", submodule_search_locations=[f"{{src}}/streamarima"])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package

def summary(us):
    ratios = [c / p for p, c in zip(us["parent"], us["change"])]
    return {{
        **{{f"{{side}}_us": statistics.median(us[side]) for side in sides}},
        "change_vs_parent_median": statistics.median(ratios) - 1.0,
        "change_better_in_pairs": sum(r < 1.0 for r in ratios),
        "pairs": len(ratios),
    }}

def order(k):
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")

sides = {{"parent": load("streamarima_parent", sys.argv[1]),
         "change": load("streamarima_change", sys.argv[2])}}
synthetic = sides["change"].synthetic
rules = list(sides["parent"].optimizers.OPTIMIZERS)
clock = time.perf_counter_ns

values = synthetic.generate(synthetic.preset(3, seed=7)).values
chunks = [values[a : a + {PAIRED_CHUNK}]
          for a in range({PAIRED_WARMUP}, values.size - {PAIRED_CHUNK} + 1, {PAIRED_CHUNK})]
stream, digests = {{}}, {{side: hashlib.sha256() for side in sides}}
for name in rules:
    us = {{side: [] for side in sides}}
    for repeat in range({PAIRED_REPEATS}):
        models, steps, streamed = {{}}, {{}}, {{side: array("d") for side in sides}}
        for side, package in sides.items():
            model = models[side] = package.ArimaModel(package.ModelConfig(mk=10, d=1))
            opt = package.make_optimizer(name, 10, 0.05, 2000.0 if name == "combined" else None)
            step = steps[side] = lambda x, learn=model.learn_step, opt=opt: learn(opt, x)
            for x in values[:{PAIRED_WARMUP}]:
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

values = synthetic.generate(synthetic.preset(2, seed=7)).values
calls = {{}}
for side, package in sides.items():
    for trials in (1, 30):
        base = package.RunSpec(package.ModelConfig(mk=10), "combined", 0.05, 2000.0,
                               tuple(range(trials)))
        specs = [replace(base, optimizer=name) for name in rules]
        groups = {{"all": specs}}
        if trials == 1:
            groups = {{**{{name: [spec] for name, spec in zip(rules, specs)}}, **groups}}
        for label, group in groups.items():
            calls.setdefault(f"T{{trials}}.{{label}}", {{}})[side] = partial(
                package.experiment._kernel, group, values, None)
kernel, identical = {{}}, True
for key, call in calls.items():
    us = {{side: [] for side in sides}}
    for k in range({PAIRED_KERNEL_PAIRS}):
        resid = {{}}
        for side in order(k):
            t0 = clock()
            resid[side] = call[side]()[0]
            us[side].append((clock() - t0) * 1e-3 / (values.size - 10))
        identical &= resid["parent"].tobytes() == resid["change"].tobytes()
    kernel[key] = summary(us)
kernel["identical"] = identical
print(json.dumps({{"stream": stream, "kernel": kernel,
                  "sha256": {{side: digests[side].hexdigest() for side in sides}}}}))
"""
OUTPUT_CONFIGS = ("1", "2", "3", "7")
OUTPUT_TRIALS = "2"


def run_bench(tree: Path, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py --workload all`` run in ``tree``: its results and machine line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{tail}")
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(next(x for x in lines if x.startswith("machine "))[len("machine "):])
    return json.loads(lines[-1]), machine


def paired(trees: dict[str, Path]) -> dict:
    """The paired in-process probe over both sides' packages."""
    argv = [str(trees[side] / "src") for side in SIDES]
    proc = subprocess.run([sys.executable, "-c", PAIRED_PROBE, *argv],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"paired probe exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def output_digest(tree: Path) -> str:
    """sha256 of the sorted listing of the files and logs that ``reproduce`` writes from ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory(prefix="bench_outputs-") as tmp:
        out = Path(tmp) / "out"
        for config in OUTPUT_CONFIGS:
            # relative to the temporary directory, so that stdout names the same path on both sides
            cmd = [sys.executable, "-m", "streamarima", "reproduce", config,
                   "--trials", OUTPUT_TRIALS, "--out-dir", "out"]
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
            (out / f"reproduce{config}.log").write_text(
                f"{proc.stdout}{proc.stderr}exit {proc.returncode}\n", encoding="utf-8")
        listing = "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
                          for path in sorted(out.iterdir()))
    return hashlib.sha256(listing.encode()).hexdigest()


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: both sides' spread, the change in medians and pairs won."""
    summary = {}
    for workload in runs[0]["parent"]:
        out = summary[workload] = {}
        for metric, direction in better.items():
            sides = {s: [r[s][workload]["metrics"][metric]["value"] for r in runs] for s in SIDES}
            sign = 1.0 if direction == "lower" else -1.0
            won = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
            parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
            out[metric] = {
                "parent": parent,
                "change": change,
                "change_vs_parent_median": change["median"] / parent["median"] - 1.0,
                "change_better_in_pairs": won,
                "parent_iqr": parent["q3"] - parent["q1"],
            }
        out["operations"] = {
            s: {
                "attempted": sum(r[s][workload]["attempted"] for r in runs),
                "failed": sum(r[s][workload]["failed"] for r in runs),
                "all_correct": all(r[s][workload]["correct"] for r in runs),
            }
            for s in SIDES
        }
    return summary


def values(results: dict) -> dict:
    """A run's metrics as plain values, with its operation counts."""
    return {
        workload: {
            "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            **{name: m["value"] for name, m in res["metrics"].items()},
        }
        for workload, res in results.items()
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    git = ["git", "-C", str(ROOT)]

    def git_out(*cmd: str) -> str:
        return subprocess.run(git + list(cmd), capture_output=True, text=True,
                              check=True).stdout.strip()

    parent_rev = git_out("rev-parse", args.parent)
    stash = git_out("stash", "create")
    change_rev = stash or git_out("rev-parse", "HEAD")
    untracked = git_out("ls-files", "--others", "--exclude-standard")
    if untracked:
        print("untracked files, not benchmarked:", *untracked.splitlines(), sep="\n  ",
              file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (parent_rev, change_rev)):
            trees[side].mkdir()
            archive = subprocess.run(git + ["archive", rev], capture_output=True, check=True)
            subprocess.run(["tar", "-x", "-C", str(trees[side])], input=archive.stdout,
                           check=True)

        digests = {side: output_digest(trees[side]) for side in SIDES}
        runs, host = [], None
        for k in range(PAIRS):
            seed = args.seed + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            run = {"seed": seed, "first": order[0]}
            for side in order:
                results, machine = run_bench(trees[side], seed, seconds, 0)
                run[side] = results
                host = host or {key: machine[key] for key in ("nproc", "cpu", "python", "numpy")}
            runs.append(run)
            wall = {s: run[s]["synth-reproduce"]["metrics"]["wall_s"]["value"] for s in SIDES}
            print(f"pair {k + 1}/{PAIRS} seed {seed}: synth-reproduce wall_s "
                  f"parent {wall['parent']:.4f} change {wall['change']:.4f}", file=sys.stderr)
        traced = {side: values(run_bench(trees[side], args.seed, seconds, 1)[0])
                  for side in SIDES}
        in_process = paired(trees)

    doc = {
        "what": f"perfbench/run.py --workload all --seconds {seconds:g}, parent "
                f"{parent_rev[:12]} against the working tree on the same host, each run "
                "from its own git archive copy; timings are perfbench's calibrated values",
        "parent": parent_rev,
        "change": change_rev + (" (HEAD with uncommitted changes)" if stash else " (HEAD)"),
        "host": host,
        "trace0": {
            "command": f"python3 perfbench/run.py --workload all --seed <seed> "
                       f"--seconds {seconds:g} --trace 0",
            "pairs_run": PAIRS,
            "order": "alternating: parent first in even pairs, change first in odd pairs",
            "summary": summarize(runs, better),
            "runs": [{"seed": r["seed"], "first": r["first"],
                      **{s: values(r[s]) for s in SIDES}} for r in runs],
        },
        "paired": {
            "what": "both sides' packages in one interpreter, timed in alternating pairs, "
                    "parent first in even pairs; per key, each side's median microseconds, "
                    "the median of the per-pair ratios and the pairs the change won",
            "stream": {
                "what": f"ArimaModel.learn_step over preset 3 (data seed 7), mk 10, d 1, lr "
                        f"0.05, lambda 2000, per rule: {PAIRED_REPEATS} streams, each warmed "
                        f"up on {PAIRED_WARMUP} samples, then one pair per "
                        f"{PAIRED_CHUNK}-sample chunk; microseconds per call",
                **in_process["stream"],
            },
            "kernel": {
                "what": f"experiment._kernel on preset 2 (data seed 7), mk 10, lr 0.05, lambda "
                        f"2000, each rule alone and all rules in one call at 1 trial, and all "
                        f"rules at 30 trials: {PAIRED_KERNEL_PAIRS} pairs of whole calls; "
                        "microseconds per sample; identical: whether both sides computed "
                        "bitwise the same residuals",
                **in_process["kernel"],
            },
        },
        "outputs": {
            "command": f"python3 -m streamarima reproduce <config> --trials {OUTPUT_TRIALS} "
                       f"--out-dir out, for config in {' '.join(OUTPUT_CONFIGS)}",
            "digest": "sha256 of the '<sha256>  <name>' lines of the output files and of a "
                      "log per command (stdout, stderr, exit status), sorted by name",
            **digests,
            "outputs_identical": digests["parent"] == digests["change"],
            "stream": {
                "what": "sha256 of every learn_step prediction (value, residual) and each "
                        "model's final gamma in the paired probe's streams, as float64 bytes, "
                        "rule after rule",
                **in_process["sha256"],
            },
            "stream_identical": in_process["sha256"]["parent"] == in_process["sha256"]["change"],
        },
        "trace1": {
            "command": f"python3 perfbench/run.py --workload all --seed {args.seed} "
                       f"--seconds {seconds:g} --trace 1",
            **traced,
        },
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
