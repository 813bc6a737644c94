#!/usr/bin/env python3
"""Record the curve tail means that the benchmark's output checks compare against.

    python3 perfbench/record_reference.py

Runs one operation of every workload at each recorded seed and writes
perfbench/reference.json. Record on a commit whose outputs are trusted;
the benchmark then requires each tail mean to match within 1e-9 relative,
which allows last-ulp changes from reordered arithmetic.
"""

import json
import shutil
import tempfile

import worker

SEEDS = range(16)


def main() -> int:
    scratch = worker.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    table = {}
    for name, cls in worker.WORKLOADS.items():
        table[name] = {}
        for seed in SEEDS:
            tmp = worker.Path(tempfile.mkdtemp(dir=scratch))
            try:
                out_dir = tmp / "out"
                out_dir.mkdir()
                _, errors, tails, _ = cls(seed, tmp).op(out_dir, None)
            finally:
                shutil.rmtree(tmp)
            if any(errors):
                raise SystemExit(f"{name} seed {seed}: {[e for e in errors if e]}")
            table[name][str(seed)] = tails
            print(f"{name} seed {seed}: {tails}")
    worker.REFERENCE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
