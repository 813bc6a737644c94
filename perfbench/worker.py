#!/usr/bin/env python3
"""One benchmark process: set up one workload, run it, check every output.

run.py starts this in a fresh interpreter, so interpreter start-up, the
import of the package and peak memory belong to the workload. The process
never sees the benchmark seed as anything but program input: the CLI
workloads get it as argv, online-step as the generated series.

    python3 perfbench/worker.py --workload online-step --seed 0 --mode plain \
        --seconds 5 --tmp <dir> --result <file.json>

Modes: ``setup`` stops once set-up is done, ``plain`` runs timed operations,
``traced`` runs them with every layer wrapped by tracer.Tracer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import runpy
import shutil
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# Outputs go to absolute paths under the run's temp dir; the package's
# output-directory override must not move them.
os.environ.pop("STREAMARIMA_OUT_DIR", None)

import numpy as np  # noqa: E402

# Package functions are looked up through their modules at call time, so
# the traced run's wrappers see the calls.
import streamarima.cli as cli  # noqa: E402
import streamarima.synthetic as synthetic  # noqa: E402
from streamarima.model import ArimaModel, ModelConfig  # noqa: E402
from streamarima.optimizers import make_optimizer  # noqa: E402
from tracer import OPTIMIZER_NAMES, Tracer  # noqa: E402

MIN_OPS = 3
# The shared host's speed drifts by up to 2x over tens of seconds. Every
# timing is scaled by CALIB_REF_S[mk] over the time of the calibration loop
# at the workload's width, run on either side of it: timings read as if the
# width-10 loop took 0.275 s, about its time on the 2-vCPU Xeon host when
# quiet. The width-300 value is 0.275 s times the 1.3 ratio of the two
# loops measured back to back there.
CALIB_ITERS = 50_000
CALIB_REF_S = {10: 0.275, 300: 0.36}
TAIL_FRACTION = 0.1
TAIL_RTOL = 1e-9
MEAN_ATOL = 1e-12
SYNTH_LENGTH = 10_000
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def calibrate(width: int) -> float:
    """Seconds for a fixed loop of numpy ops on ``width``-long vectors.

    It uses nothing of the package, so it measures only the host. The
    vectors are as wide as the workload's model, because the host's
    slowdowns hit call overhead harder than arithmetic.
    """
    x = np.linspace(-1.0, 1.0, width)
    g = np.zeros(width)
    v = np.zeros(width)
    t0 = time.perf_counter()
    for _ in range(CALIB_ITERS):
        v = 0.9 * v + 0.1 * x
        g = g - 0.01 * v / (np.sqrt(v * v) + 1e-8)
        float(np.dot(g, x))
    return time.perf_counter() - t0


def tail_mean(values) -> float:
    k = max(1, math.ceil(TAIL_FRACTION * len(values)))
    return math.fsum(values[-k:]) / k


def check_tail(tail: float, ref: float | None) -> str | None:
    if ref is not None and abs(tail - ref) > TAIL_RTOL * abs(ref):
        return f"tail mean {tail!r} differs from recorded {ref!r}"
    return None


def check_curve_csv(path: Path, trials: int, first_t: int, rows: int):
    """Return (error or None, tail mean of r_mean) for one curve CSV."""
    lines = path.read_text(encoding="ascii").splitlines()
    want = ["t", "r_mean"] + ([f"r_{i}" for i in range(trials)] if trials > 1 else [])
    if not lines or lines[0].split(",") != want:
        return f"{path.name}: header {lines[:1]!r}, expected {','.join(want)!r}", None
    if len(lines) - 1 != rows:
        return f"{path.name}: {len(lines) - 1} rows, expected {rows}", None
    means = []
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != len(want) or int(fields[0]) != first_t + k:
            return f"{path.name}: row {k + 2} is {line[:60]!r}", None
        vals = [float(x) for x in fields[1:]]
        if not all(math.isfinite(v) for v in vals):
            return f"{path.name}: non-finite value in row {k + 2}", None
        if trials > 1 and abs(math.fsum(vals[1:]) / trials - vals[0]) > MEAN_ATOL:
            return f"{path.name}: r_mean is not the mean of r_i in row {k + 2}", None
        means.append(vals[0])
    return None, tail_mean(means)


def check_svg(path: Path, curves: int) -> str | None:
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if len(lines) != curves or not all(p.get("points") for p in lines):
        return f"{path.name}: {len(lines)} plotted curves, expected {curves}"
    return None


class CliWorkload:
    """A workload whose operation is one ``cli.main(argv)`` call."""

    trials: int
    outputs: int

    def argv(self, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out_dir: Path, ref: dict | None):
        """Return one error or None per output, and the tail mean of each curve."""
        raise NotImplementedError

    def op(self, out_dir: Path, ref: dict | None):
        """Return wall seconds, one error or None per output, tail means, step percentiles."""
        t0 = time.perf_counter()
        rc = cli.main(self.argv(out_dir))
        wall = time.perf_counter() - t0
        if rc != 0:
            return wall, [f"cli.main returned {rc}"] * self.outputs, {}, None
        errors, tails = self.check(out_dir, ref)
        return wall, errors, tails, None


class SynthReproduce(CliWorkload):
    trials = 2
    mk = 10  # configuration 2 of the CLI: preset 2, mk=10, d=0, all 8 rules
    rules = OPTIMIZER_NAMES
    outputs = len(OPTIMIZER_NAMES) + 1

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.steps_per_op = len(self.rules) * self.trials * SYNTH_LENGTH

    def argv(self, out_dir):
        return ["reproduce", "2", "--data-seed", str(self.seed), "--trials",
                str(self.trials), "--out-dir", str(out_dir)]

    def check(self, out_dir, ref):
        errors, tails = [], {}
        for rule in self.rules:
            err, tails[rule] = check_curve_csv(
                out_dir / f"config2_{rule}.csv", self.trials, self.mk, SYNTH_LENGTH - self.mk
            )
            if err is None and ref:
                err = check_tail(tails[rule], ref[rule])
            errors.append(err)
        errors.append(check_svg(out_dir / "config2.svg", len(self.rules)))
        return errors, tails


class BatchedFiles(CliWorkload):
    trials = 3
    mk = 300
    batches = 10
    batch_size = 2048
    outputs = 2

    def __init__(self, seed: int, tmp: Path):
        self.data = tmp / "batches"
        script = ROOT / "scripts" / "make_demo_batches.py"
        saved = sys.argv
        sys.argv = [str(script), "--out-dir", str(self.data), "--seed", str(seed),
                    "--batches", str(self.batches), "--batch-size", str(self.batch_size)]
        try:
            rc = runpy.run_path(str(script))["main"]()
        finally:
            sys.argv = saved
        if rc != 0:
            raise RuntimeError(f"{script.name} exited with {rc}")
        self.steps_per_op = self.trials * self.batches * self.batch_size

    def argv(self, out_dir):
        return ["run", "--data", str(self.data), "--format", "bearing",
                "--optimizer", "combined", "--lambda", "102400", "--mk", str(self.mk),
                "--lr", "5e-3", "--trials", str(self.trials),
                "--out", str(out_dir / "curve.csv"), "--svg", str(out_dir / "curve.svg")]

    def check(self, out_dir, ref):
        err, tail = check_curve_csv(out_dir / "curve.csv", self.trials, 0, self.batches)
        if err is None and ref:
            err = check_tail(tail, ref["combined"])
        return [err, check_svg(out_dir / "curve.svg", 1)], {"combined": tail}


class OnlineStep:
    """Stream preset 3 through learn_step once per rule, timing every call."""

    mk, d, lr, ramp = 10, 1, 0.05, 2000.0
    trials = 1
    rules = OPTIMIZER_NAMES
    outputs = len(OPTIMIZER_NAMES)

    def __init__(self, seed: int, tmp: Path):
        self.values = synthetic.generate(synthetic.preset(3, seed=seed)).values
        scored = self.values.size - (self.mk + self.d)
        self.times = array("q", bytes(8 * scored * len(self.rules)))
        self.residuals = {r: array("d", bytes(8 * scored)) for r in self.rules}
        self.steps_per_op = len(self.times)

    def op(self, out_dir: Path, ref: dict | None):
        times, clock, k = self.times, time.perf_counter_ns, 0
        t_pass = time.perf_counter()
        for rule in self.rules:
            model = ArimaModel(ModelConfig(mk=self.mk, d=self.d))
            hyper = {"ramp_length": self.ramp} if rule == "combined" else {}
            opt = make_optimizer(rule, self.mk, self.lr, **hyper)
            resid, j = self.residuals[rule], 0
            for x in self.values:
                t0 = clock()
                pred = model.learn_step(opt, x)
                t1 = clock()
                if pred is not None:
                    times[k] = t1 - t0
                    resid[j] = pred.residual
                    k += 1
                    j += 1
        wall = time.perf_counter() - t_pass
        errors, tails = [], {}
        for rule in self.rules:
            r = np.abs(np.frombuffer(self.residuals[rule]))
            if not np.all(np.isfinite(r)):
                errors.append(f"{rule}: non-finite residual at step {int(np.argmin(np.isfinite(r)))}")
                continue
            tails[rule] = tail_mean(r.tolist())
            errors.append(check_tail(tails[rule], ref[rule]) if ref else None)
        steps_us = np.frombuffer(times, dtype=np.int64) * 1e-3
        return wall, errors, tails, np.percentile(steps_us, [50, 99]).tolist()


WORKLOADS = {
    "synth-reproduce": SynthReproduce,
    "batched-files": BatchedFiles,
    "online-step": OnlineStep,
}


def reference_tails(workload: str, seed: int) -> dict | None:
    """Tail means recorded for this seed, or None if none were recorded."""
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def run(args) -> dict:
    tmp = Path(args.tmp)
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed, tmp)
    result = {"setup_done": time.monotonic(), "numpy": np.__version__,
              "trials": wl.trials, "steps_per_op": wl.steps_per_op}
    calib_ref = CALIB_REF_S[wl.mk]
    calib_before = calibrate(wl.mk)
    result["setup_speed"] = calib_ref / calib_before
    if args.mode == "setup":
        return result
    ref = reference_tails(args.workload, args.seed)
    walls, speeds, step_p50, step_p99, errors = [], [], [], [], []
    attempted = failed = ops = 0
    start = time.monotonic()
    while True:
        t_cycle = time.monotonic()
        out_dir = tmp / f"op{ops}"
        out_dir.mkdir()
        if tracer:
            tracer.next_phase()
        try:
            wall, op_errors, _, steps = wl.op(out_dir, ref)
        except Exception:
            wall, op_errors = None, [traceback.format_exc()] * wl.outputs
        shutil.rmtree(out_dir)
        calib_after = calibrate(wl.mk)
        if wall is not None:
            walls.append(wall)
            speeds.append(2 * calib_ref / (calib_before + calib_after))
            if steps:
                step_p50.append(steps[0])
                step_p99.append(steps[1])
        calib_before = calib_after
        ops += 1
        attempted += len(op_errors)
        bad = [e for e in op_errors if e]
        failed += len(bad)
        errors += bad[:3 - len(errors)]
        now = time.monotonic()
        if ops >= MIN_OPS and now - start + (now - t_cycle) > args.seconds:
            break
    if tracer:
        tracer.save(tmp / "spans.npz")
    result.update(
        op_walls=walls, op_speed=speeds,
        step_p50_us=step_p50, step_p99_us=step_p99,
        attempted=attempted, failed=failed, errors=errors,
        reference_checked=ref is not None,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tmp", required=True, help="private scratch directory")
    ap.add_argument("--result", required=True, help="JSON result file to write")
    args = ap.parse_args()
    result = run(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
