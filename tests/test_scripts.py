"""Tests of the measuring scripts, ``scripts/paired_probe.py`` and ``scripts/bench_pairs.py``.

Both are loaded by path with ``scripts/`` first on ``sys.path``, where
``bench_pairs`` finds ``paired_probe``; nothing here times real work or
starts a process.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def scripts():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(SCRIPTS))
        yield load("paired_probe"), load("bench_pairs")


@pytest.fixture
def clock(scripts, monkeypatch):
    """The probe's clock in ns, standing still but for what a test adds to ``clock[0]``."""
    now = [0]
    monkeypatch.setattr(scripts[0], "time", SimpleNamespace(perf_counter_ns=lambda: now[0]))
    return now


def test_the_pair_helper_alternates_sides_parent_first_in_even_pairs(scripts, clock):
    probe, log = scripts[0], []

    def call(side):
        def run(k):
            log.append((k, side))
            clock[0] += 1000
            return k
        return run

    summary, identical = probe.time_pairs({s: call(s) for s in probe.SIDES}, 4, lambda k: (k,))
    assert log == [(0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
                   (2, "parent"), (2, "change"), (3, "change"), (3, "parent")]
    assert identical


def test_the_pair_helper_reports_medians_and_pairs_won(scripts, clock):
    probe = scripts[0]
    # microseconds per call, pair by pair: the change is faster in pairs 0, 1 and 3,
    # and pair 2, a tie, counts for neither side
    times = {"parent": [4.0, 6.0, 5.0, 8.0], "change": [2.0, 3.0, 5.0, 4.0]}

    def call(side):
        def run(k):
            clock[0] += int(times[side][k] * 1000)
        return run

    summary, identical = probe.time_pairs(
        {s: call(s) for s in probe.SIDES}, 4, lambda k: (k,), per=2.0)
    assert summary == {
        "parent_us": 2.75,  # the median of 2, 3, 2.5 and 4, each per 2 units
        "change_us": 1.75,
        "change_vs_parent_median": -0.5,  # the median of the ratios .5, .5, 1 and .5, less 1
        "change_better_in_pairs": 3,
        "pairs": 4,
    }
    assert identical


def test_the_pair_helper_compares_arrays_by_their_bytes(scripts):
    probe = scripts[0]
    nan = np.full(3, np.nan)
    flipped = nan.copy()
    flipped.view(np.uint64)[1] ^= 1
    assert np.isnan(flipped).all()

    def same(parent, change):
        calls = {"parent": lambda: parent, "change": lambda: change}
        return probe.time_pairs(calls, 2)[1]

    assert same(nan, nan.copy())
    assert not same(nan, flipped)
    assert not same(np.zeros(2), np.array([0.0, -0.0]))
    assert same("text", "text") and not same("text", "text ")


def test_bench_pairs_summarize_gives_medians_quartiles_and_pairs_won(scripts):
    probe, bench = scripts
    assert bench.SIDES == probe.SIDES

    def result(wall, rss, failed):
        return {"w": {"metrics": {"wall_s": {"value": wall}, "rss": {"value": rss}},
                      "attempted": 10, "failed": failed, "correct": failed == 0}}

    runs = [{"parent": result(2.0, 100.0, 0), "change": result(1.0, 90.0, 0)},
            {"parent": result(4.0, 100.0, 0), "change": result(5.0, 120.0, 1)}]
    summary = bench.summarize(runs, {"wall_s": "lower", "rss": "higher"})["w"]
    assert summary["wall_s"] == {
        "parent": {"median": 3.0, "q1": 2.5, "q3": 3.5},
        "change": {"median": 3.0, "q1": 2.0, "q3": 4.0},
        "change_vs_parent_median": 0.0,
        "change_better_in_pairs": 1,
        "parent_iqr": 1.0,
    }
    # higher is better for rss: the change wins the second pair only
    assert summary["rss"]["change_better_in_pairs"] == 1
    assert summary["rss"]["change_vs_parent_median"] == pytest.approx(0.05)
    assert summary["operations"] == {
        "parent": {"attempted": 20, "failed": 0, "all_correct": True},
        "change": {"attempted": 20, "failed": 1, "all_correct": False},
    }
