#!/usr/bin/env python3
"""Benchmark a parent revision against the working tree in alternating pairs.

    python3 scripts/bench_pairs.py --parent HEAD --seed 60 --out BENCH_9.json

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

The JSON written holds every run's metrics and, for each workload and
end-to-end metric, each side's median and quartiles, the parent's
interquartile range, the change in the medians, the number of pairs the
working tree won (ties count for neither side) and the failed operations
of each side. Which direction is better is read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


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
