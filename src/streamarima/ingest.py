"""Micro-batch file readers.

Two on-disk layouts are supported, both one file of ASCII text per batch:

* ``bearing``: whitespace-separated numeric columns, no header, one row per
  sample; ``channel`` selects the column.
* ``csv``: a single column with the literal header ``value`` and one
  decimal per row; a ``channel`` other than 0 is an error.

One row loop reads both; the format decides only whether row 1 is the
``value`` header and whether a row's fields are its columns or the whole
stripped row. Errors name the file and the row, blank rows counted; a
byte that is not ASCII names only the file, as it is decoded in chunks.

Directories are read in lexicographic filename order, which is assumed to
be chronological order for these layouts.
"""

from __future__ import annotations

import math
from pathlib import Path

from .series import MicroBatch, TimeSeries, _is_int

FORMATS = ("bearing", "csv")


def _whole_row(line: str) -> list[str]:
    """A csv row's one field, the stripped row; none for a blank row."""
    text = line.strip()
    return [text] if text else []


def parse_batch_file(
    path, fmt: str, channel: int = 0, batch_index: int = 0
) -> MicroBatch:
    """Read one batch file into a MicroBatch."""
    path = Path(path)
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    if not _is_int(channel):
        raise ValueError(f"channel must be an int, got {channel!r}")
    if fmt == "bearing" and channel < 0:
        raise ValueError(f"channel must be >= 0, got {channel}")
    if fmt == "csv" and channel != 0:
        raise ValueError(f"channel {channel}: csv batch files have one column")
    split = str.split if fmt == "bearing" else _whole_row
    values, first = [], 1
    try:
        with open(path, "r", encoding="ascii") as fh:
            if fmt == "csv":
                header, first = fh.readline().strip(), 2
                if header != "value":
                    raise ValueError(f"{path}: expected header 'value' on row 1, got {header!r}")
            for lineno, line in enumerate(fh, start=first):
                fields = split(line)
                if not fields:
                    continue
                if channel >= len(fields):
                    raise ValueError(f"{path}: row {lineno} has {len(fields)} columns, "
                                     f"channel {channel} is out of range")
                text = fields[channel]
                try:
                    value = float(text)
                except ValueError:
                    raise ValueError(
                        f"{path}: malformed value {text!r} in row {lineno}") from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}: non-finite value {text!r} in row {lineno}")
                values.append(value)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not ASCII text (byte 0x{exc.object[exc.start]:02x})") from None
    if not values:
        raise ValueError(f"{path}: file contains no samples")
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
        if not _is_int(limit):
            raise ValueError(f"limit must be an int, got {limit!r}")
        if limit < 1:
            raise ValueError(f"limit {limit} selects an empty set of batches")
        paths = paths[:limit]
    return [
        parse_batch_file(p, fmt, channel=channel, batch_index=k)
        for k, p in enumerate(paths)
    ]
