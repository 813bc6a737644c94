#!/usr/bin/env python3
"""Choose each rule's learning rate for acceptance checks 04-07.

The constants below are the one source of the search settings. Every rule
(the seven baselines and `combined` at RAMP_LENGTH) runs on each synthetic
preset at every rate in RATE_GRID, with TRIAL_SEEDS and the preset's
reference window PRESET_MK. The data is an independent realization of the
preset, TUNING_SEED, so the checks score a different one. A rate's score is
the mean of the trial-averaged |residual| curve over the whole stream, the
same score the checks use and the one experiment.grid_search ranks by, so
a diverged rate scores inf and ties go to the smaller rate.

stdout gets the settings as comment lines followed by the RATES table, in
the form tests/test_acceptance.py holds them, so a diff against the test
shows any change in either. stderr gets every rate's score, one rule at a
time. A full search is 264 runs of 30 trials, one kernel call per rule and
preset, and takes about 10 s on one core of a shared 2-vCPU Xeon host
(26 s with one optimizer per rate in that call, 63 s with one kernel call
per rate, on the same host).

    PYTHONPATH=src python3 scripts/acceptance_rates.py
"""

import sys
from dataclasses import replace

from streamarima.experiment import RunSpec, grid_search
from streamarima.model import ModelConfig
from streamarima.optimizers import OPTIMIZERS
from streamarima.synthetic import generate, preset

TUNING_SEED = 8
TRIAL_SEEDS = tuple(range(30))
RAMP_LENGTH = 2000.0
RATE_GRID = (5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1.0)
PRESET_MK = {1: 5, 2: 10, 3: 10}
ALL_NAMES = tuple(OPTIMIZERS)


def best_rates(setting: int) -> dict[str, float]:
    series = generate(preset(setting, seed=TUNING_SEED))
    base = RunSpec(
        model=ModelConfig(mk=PRESET_MK[setting], d=0),
        optimizer="combined",
        learning_rate=RATE_GRID[0],
        ramp_length=RAMP_LENGTH,
        trial_seeds=TRIAL_SEEDS,
    )
    chosen = {}
    for name in ALL_NAMES:
        spec = replace(base, optimizer=name)
        chosen[name], records = grid_search(spec, series, RATE_GRID)
        for r in records:
            rate = r.spec.learning_rate
            print(f"preset {setting} {name:9s} lr {rate:<7g} {r.score:.6f}", file=sys.stderr)
    return chosen


def settings_lines() -> list[str]:
    seeds = f"{TRIAL_SEEDS[0]}-{TRIAL_SEEDS[-1]}"
    return [
        "# Chosen by scripts/acceptance_rates.py with these settings:",
        f"#   tuning data seed {TUNING_SEED}, trial seeds {seeds}, combined at lambda {RAMP_LENGTH:g}",
        f"#   mk per preset {PRESET_MK}",
        f"#   grid {RATE_GRID}",
        "#   score: whole-stream mean of the trial-averaged |residual|;",
        "#   a diverged rate scores inf, ties go to the smaller rate",
    ]


def format_table(table: dict[int, dict[str, float]]) -> str:
    lines = settings_lines() + ["RATES = {"]
    for setting, rates in table.items():
        lines.append(f"    {setting}: {{")
        lines.extend(f'        "{name}": {rate!r},' for name, rate in rates.items())
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


def main() -> int:
    print(format_table({s: best_rates(s) for s in PRESET_MK}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
