#!/usr/bin/env python3
"""streamarima benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload synth-reproduce --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run from the repository root; the package is imported from ``src``. Each
workload runs in fresh worker processes (worker.py), so interpreter start,
import cost and peak memory belong to it. Every output is checked; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it name each metric with its unit, the failed fraction and the machine.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth-reproduce", "batched-files", "online-step")
SETUP_PROBES = 5
WORKER_GRACE_S = 100

E2E_UNITS = {
    "wall_s": "s",
    "step_us_p50": "us",
    "step_us_p99": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def spawn(workload: str, seed: int, mode: str, seconds: float, tmp: Path) -> dict:
    """Run one worker process to completion and return its result."""
    work = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=tmp))
    result = work / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
        "--tmp", str(work), "--result", str(result),
    ]
    env = {k: v for k, v in os.environ.items() if k != "STREAMARIMA_OUT_DIR"}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=seconds + WORKER_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} timed out") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{tail}")
    out = json.loads(result.read_text(encoding="utf-8"))
    if mode != "setup" and not out["op_walls"]:
        raise BenchError(f"{mode} worker for {workload}: every operation raised:\n"
                         + "\n".join(out["errors"]))
    out["setup_s"] = out["setup_done"] - t_spawn
    out["work_dir"] = work
    return out


def pooled(values: list[float], speed: list[float]) -> float:
    """Scaled value of a run's operations: total time over total calibration time.

    ``speed`` holds each operation's factor to reference host speed (see
    CALIB_REF_S in worker.py). Weighting operations by their calibration
    time is steadier than the median of per-operation ratios when the
    host's speed drifts.
    """
    return sum(values) / sum(1.0 / f for f in speed)


def end_to_end(run: dict, setups: list[float]) -> dict[str, float]:
    speed = run["op_speed"]
    wall = pooled(run["op_walls"], speed)
    if run["step_p50_us"]:
        p50 = pooled(run["step_p50_us"], speed)
        p99 = pooled(run["step_p99_us"], speed)
    else:
        # A CLI call is timed as a whole, so it has no per-step distribution:
        # both percentiles report its mean cost per model step.
        p50 = p99 = wall * 1e6 / run["steps_per_op"]
    return {
        "wall_s": wall,
        "step_us_p50": p50,
        "step_us_p99": p99,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    if trace:
        from tracer import layer_metrics, layer_unit

        plain = spawn(workload, seed, "plain", seconds / 2, tmp)
        traced = spawn(workload, seed, "traced", seconds / 2, tmp)
        runs = [plain, traced]
        units = {}
        metrics = {}
        speed = pooled([1.0] * len(traced["op_speed"]), traced["op_speed"])
        for name, value in layer_metrics(traced["work_dir"] / "spans.npz").items():
            units[name] = layer_unit(name)
            metrics[name] = value * speed if units[name] in ("s", "us") else value
        metrics["trace.overhead_frac"] = (
            pooled(traced["op_walls"], traced["op_speed"])
            / pooled(plain["op_walls"], plain["op_speed"]) - 1.0
        )
        units["trace.overhead_frac"] = layer_unit("trace.overhead_frac")
        notes = {}
    else:
        probes = [spawn(workload, seed, "setup", 0.0, tmp) for _ in range(SETUP_PROBES)]
        measured = spawn(workload, seed, "plain", seconds, tmp)
        runs = [measured]
        setups = [p["setup_s"] * p["setup_speed"] for p in probes + [measured]]
        metrics = end_to_end(measured, setups)
        units = E2E_UNITS
        ops = len(measured["op_walls"])
        steps = measured["steps_per_op"] * ops
        how = "timed one by one" if measured["step_p50_us"] else "mean cost per step of the calls"
        notes = {
            "wall_s": f"{ops} operations, unscaled median "
                      f"{statistics.median(measured['op_walls']):.4g} s",
            "step_us_p50": f"{steps} model steps, {how}",
            "step_us_p99": f"{steps} model steps, {how}",
            "setup_s": f"median of {len(setups)} fresh processes",
        }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "metrics": metrics, "units": units, "notes": notes,
        "attempted": attempted, "failed": failed,
        "errors": [e for r in runs for e in r["errors"]],
        "reference_checked": all(r["reference_checked"] for r in runs),
        "trials": runs[0]["trials"], "numpy": runs[0]["numpy"],
    }


def report(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    load_before = os.getloadavg()
    res = bench(workload, seed, seconds, trace, tmp)
    machine = {
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": sys.version.split()[0], "numpy": res["numpy"],
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
        "commit": git_commit(), "workload": workload, "seed": seed,
        "trials": res["trials"], "seconds": seconds, "trace": int(trace),
        "reference_checked": res["reference_checked"],
    }
    print("machine " + json.dumps(machine))
    for name, value in res["metrics"].items():
        note = res["notes"].get(name)
        print(f"{workload:16} {name:40} {value:14.6g} {res['units'][name]}"
              + (f"  ({note})" if note else ""))
    frac = res["failed"] / res["attempted"]
    print(f"{workload:16} {'failed_frac':40} {frac:14.6g} fraction"
          f"  ({res['failed']} of {res['attempted']} operations)")
    for err in res["errors"]:
        print(f"{workload}: check failed: {err}", file=sys.stderr)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "streamarima").is_dir():
        print(f"perfbench: no package at {ROOT / 'src' / 'streamarima'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: report(w, args.seed, args.seconds, bool(args.trace), tmp) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
