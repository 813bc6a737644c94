"""Streaming AR forecasting with online gradient optimizers.

The package covers the full loop: synthetic or file-based data, an online
AR model over differenced history, seven gradient-descent update rules
plus a combined AMSGrad-to-Momentum optimizer, and an experiment harness
with residual curves, sweeps and deterministic CSV/SVG output.

The names below are the entry points; everything else is importable from
its submodule.
"""

from .experiment import (
    DivergedError,
    RunSpec,
    compare_optimizers,
    grid_search,
    run_batched,
    run_stream,
    sweep_lambda,
    tail_mean,
)
from .ingest import load_batch_dir
from .model import ArimaModel, ModelConfig
from .optimizers import make_optimizer
from .synthetic import generate, preset

__version__ = "0.1.0"

__all__ = [
    "ArimaModel",
    "DivergedError",
    "ModelConfig",
    "RunSpec",
    "compare_optimizers",
    "generate",
    "grid_search",
    "load_batch_dir",
    "make_optimizer",
    "preset",
    "run_batched",
    "run_stream",
    "sweep_lambda",
    "tail_mean",
]
