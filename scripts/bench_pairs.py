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

One probe, ``scripts/paired_probe.py``, times single layers per rule in
both sides' packages in one interpreter, without perfbench's tracer, and
hashes each side's stream of ``learn_step`` predictions: ``reproduce``
never calls ``learn_step``, so that is the one digest of that path. The JSON
records the probe's sections as the probe prints them, each with its own
``what``.

Each side also runs ``reproduce 1 2 3 7 --trials 2`` into a temporary
directory, one command per configuration, ``reproduce 4 5 --trials 2``
on the 40 bearing batch files that its own ``scripts/make_demo_batches.py
--batches 40`` writes, and ``reproduce 6 --trials 2`` on the 40 csv batch
files of ``--format csv``, so that both layouts' reader and the d = 1 path
over batches are byte-checked, and ``synth --preset <k> --seed 7`` for
k = 1, 2, 3. It keeps the output files, the demo batch files (named
``<dir>/<file>``) and a log of each command's stdout, stderr and exit
status, so that the generator's bytes are checked too. The JSON records the
sha256 of each of those files per side, by name, whether the two sides
wrote the same files with the same bytes, and the names that differ, so
that a deliberate change to one file does not hide whether the others
held; and the same for the streams' digests. These are records of the
outputs' bytes, not gates: the script writes the JSON either way.

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

from paired_probe import SIDES

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().with_name("paired_probe.py")
PAIRS = 10
OUTPUT_CONFIGS = ("1", "2", "3", "7")
# batched configuration: the demo directory it reads
BATCHED_CONFIGS = {"4": "demo", "5": "demo", "6": "demo_csv"}
DEMO_FORMATS = {"demo": "bearing", "demo_csv": "csv"}
DEMO_BATCHES = "40"
OUTPUT_TRIALS = "2"
SYNTH_PRESETS = ("1", "2", "3")
SYNTH_SEED = "7"


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
    proc = subprocess.run([sys.executable, str(PROBE), *argv],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"paired probe exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def output_digests(tree: Path) -> dict[str, str]:
    """The sha256 of each file and log that ``reproduce`` and ``synth`` write from ``tree``.

    Also of each demo batch file, named ``<dir>/<file>``.
    """
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory(prefix="bench_outputs-") as tmp:
        out = Path(tmp) / "out"
        # paths are relative to the temporary directory, so that stdout names
        # the same paths on both sides
        for demo, fmt in DEMO_FORMATS.items():
            subprocess.run([sys.executable, str(tree / "scripts" / "make_demo_batches.py"),
                            "--batches", DEMO_BATCHES, "--format", fmt, "--out-dir", demo],
                           cwd=tmp, env=env, capture_output=True, check=True)
        for config in OUTPUT_CONFIGS + tuple(BATCHED_CONFIGS):
            data = ("--data", BATCHED_CONFIGS[config]) if config in BATCHED_CONFIGS else ()
            cmd = [sys.executable, "-m", "streamarima", "reproduce", config,
                   "--trials", OUTPUT_TRIALS, *data, "--out-dir", "out"]
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
            (out / f"reproduce{config}.log").write_text(
                f"{proc.stdout}{proc.stderr}exit {proc.returncode}\n", encoding="utf-8")
        for k in SYNTH_PRESETS:
            cmd = [sys.executable, "-m", "streamarima", "synth", "--preset", k,
                   "--seed", SYNTH_SEED, "--out", f"out/synth{k}.csv"]
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
            (out / f"synth{k}.log").write_text(
                f"{proc.stdout}{proc.stderr}exit {proc.returncode}\n", encoding="utf-8")
        files = [(path.name, path) for path in sorted(out.iterdir())]
        files += [(f"{demo}/{path.name}", path) for demo in DEMO_FORMATS
                  for path in sorted((Path(tmp) / demo).iterdir())]
        return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files}


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

        digests = {side: output_digests(trees[side]) for side in SIDES}
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
        sha256 = in_process.pop("sha256")

    demo_dirs = ", ".join(f"{c} ({d})" for c, d in BATCHED_CONFIGS.items())
    demo_formats = ", ".join(f"{f} ({d})" for d, f in DEMO_FORMATS.items())
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
        "paired": in_process,
        "outputs": {
            "command": f"python3 -m streamarima reproduce <config> --trials {OUTPUT_TRIALS} "
                       f"--out-dir out, for config in {' '.join(OUTPUT_CONFIGS)}; and with "
                       f"--data <dir> for config (dir) in {demo_dirs}, after python3 "
                       f"scripts/make_demo_batches.py --batches {DEMO_BATCHES} --format <format> "
                       f"--out-dir <dir> for format (dir) in {demo_formats}; and "
                       f"python3 -m streamarima synth --preset <k> --seed {SYNTH_SEED} --out "
                       f"out/synth<k>.csv for k in {' '.join(SYNTH_PRESETS)}",
            "digest": "per side, the sha256 of each output file, each demo batch file (as "
                      "<dir>/<file>) and a log per command (stdout, stderr, exit status), by "
                      "name; differing: the names whose bytes differ or that only one side "
                      "wrote",
            **digests,
            "outputs_identical": digests["parent"] == digests["change"],
            "differing": sorted(name for name in digests["parent"].keys() | digests["change"]
                                if digests["parent"].get(name) != digests["change"].get(name)),
            "stream": sha256,
            "stream_identical": sha256["parent"] == sha256["change"],
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
