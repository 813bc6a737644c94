"""Micro-batch file readers.

Two on-disk layouts are supported, both one file per batch:

* ``bearing``: whitespace-separated numeric columns, no header, one row per
  sample; ``channel`` selects the column.
* ``csv``: a single column with the literal header ``value`` and one
  decimal per row; a ``channel`` other than 0 is an error.

Directories are read in lexicographic filename order, which is assumed to
be chronological order for these layouts.
"""

from __future__ import annotations

import math
from pathlib import Path

from .series import MicroBatch, TimeSeries

FORMATS = ("bearing", "csv")


def _sample(path: Path, text: str, lineno: int) -> float:
    """One finite sample, or an error naming the file and the row."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}: malformed value {text!r} in row {lineno}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}: non-finite value {text!r} in row {lineno}")
    return value


def _parse_bearing(path: Path, channel: int) -> list[float]:
    if channel < 0:
        raise ValueError(f"channel must be >= 0, got {channel}")
    values = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if channel >= len(fields):
                raise ValueError(
                    f"{path}: row {lineno} has {len(fields)} columns, "
                    f"channel {channel} is out of range"
                )
            values.append(_sample(path, fields[channel], lineno))
    if not values:
        raise ValueError(f"{path}: file contains no samples")
    return values


def _parse_csv_column(path: Path) -> list[float]:
    values = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if header.strip() != "value":
            raise ValueError(
                f"{path}: expected header 'value' on row 1, got {header.strip()!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            text = line.strip()
            if not text:
                continue
            values.append(_sample(path, text, lineno))
    if not values:
        raise ValueError(f"{path}: file contains no samples")
    return values


def parse_batch_file(
    path, fmt: str, channel: int = 0, batch_index: int = 0
) -> MicroBatch:
    """Read one batch file into a MicroBatch."""
    path = Path(path)
    if fmt == "bearing":
        values = _parse_bearing(path, channel)
    elif fmt == "csv":
        if channel != 0:
            raise ValueError(f"channel {channel}: csv batch files have one column")
        values = _parse_csv_column(path)
    else:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    return MicroBatch(samples=TimeSeries(values), batch_index=batch_index)


def load_batch_dir(
    directory, fmt: str, channel: int = 0, limit: int | None = None
) -> list[MicroBatch]:
    """Read a directory of batch files, sorted by filename.

    ``limit`` keeps only the first ``limit`` files after sorting; asking for
    zero batches is an error rather than a silently empty run.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"{directory}: not a directory")
    paths = sorted(p for p in directory.iterdir() if p.is_file())
    if not paths:
        raise ValueError(f"{directory}: no batch files found")
    if limit is not None:
        if limit < 1:
            raise ValueError(f"limit {limit} selects an empty set of batches")
        paths = paths[:limit]
    return [
        parse_batch_file(p, fmt, channel=channel, batch_index=k)
        for k, p in enumerate(paths)
    ]
