#!/usr/bin/env python3
"""Write a directory of demo batch files in the sensor or the one-column csv format.

The batched experiment configurations expect a directory of files, one
batch per file. Real vibration dumps are not shipped with the package, so
this script fakes a drive-of-files from the synthetic generator. In the
default ``bearing`` format each file has two whitespace separated columns:
channel 0 is the series, channel 1 is a noisy copy, which is enough to
exercise channel selection and the batched pipeline end to end. In the
``csv`` format each file holds the series alone under the header ``value``,
the layout that configuration 6 reads.

    python3 scripts/make_demo_batches.py --out-dir demo_batches
    python3 -m streamarima run --data demo_batches --format bearing \
        --optimizer combined --lambda 1000 --mk 30 --trials 2 --out demo.csv
    python3 scripts/make_demo_batches.py --format csv --out-dir demo_csv
    python3 -m streamarima reproduce 6 --data demo_csv --trials 2
"""

import argparse
from pathlib import Path

import numpy as np

# the ARMA coefficients of the demo series, and the default count and size of batches
ALPHA = (0.9, -0.9, 0.9, -0.4, -0.1)
BETA = (0.5, 0.1)
BATCHES = 10
BATCH_SIZE = 2048


def main() -> int:
    # imported here, so that scripts/paired_probe.py reads the constants above without it
    from streamarima.synthetic import GeneratorSpec, generate

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="demo_batches")
    ap.add_argument("--batches", type=int, default=BATCHES)
    ap.add_argument("--batch-size", type=int, default=BATCH_SIZE)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", choices=("bearing", "csv"), default="bearing")
    args = ap.parse_args()

    total = args.batches * args.batch_size
    spec = GeneratorSpec(
        alpha=ALPHA,
        beta=BETA,
        length=total,
        seed=args.seed,
    )
    values = generate(spec).values
    shadow = values + 0.05 * np.random.default_rng(args.seed + 1).normal(size=total)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k in range(args.batches):
        sl = slice(k * args.batch_size, (k + 1) * args.batch_size)
        if args.format == "csv":
            rows = "\n".join(["value", *(f"{a:.8f}" for a in values[sl])])
        else:
            rows = "\n".join(f"{a:.8f}\t{b:.8f}" for a, b in zip(values[sl], shadow[sl]))
        (out / f"batch_{k:04d}.txt").write_text(rows + "\n", encoding="ascii")
    print(f"wrote {args.batches} files of {args.batch_size} samples to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
