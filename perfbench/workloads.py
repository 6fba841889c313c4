"""Benchmark workloads: which shipped config each one runs, how it differs
from the shipped file, and how a seed moves its inputs.

This module uses only the standard library, so the orchestrating process
never imports numpy or the package it measures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The seed that reproduces the shipped grid exactly; its artifacts are stored
# under reference/ and compared value by value.
DEFAULT_SEED = 0

# A seed scales grid.min by 10**u with u uniform in [-SEED_SPAN, SEED_SPAN].
# grid.max, cutoffs, orders and point counts never move, so the ledger and
# the automatic slice count (solved at grid.max) are the same for every seed.
SEED_SPAN = 0.2


@dataclass(frozen=True)
class Workload:
    """A shipped config and the fields the workload changes in it. Why each
    workload exists is stated in BENCHMARK.json and perfbench/README.md."""

    name: str
    config: str
    overrides: dict = field(default_factory=dict)

    @property
    def config_path(self) -> Path:
        return ROOT / self.config


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hom-450", "configs/hom-beam-splitter.yaml"),
        Workload("hom-578", "configs/hom-beam-splitter.yaml", {"cutoff": 16, "points": 4}),
        Workload("kerr-deep", "configs/nonlinear-timeslice.yaml", {"bch_order": 3}),
    )
}


def t_min_factor(seed: int) -> float:
    """Factor applied to the shipped grid.min for this seed."""
    if seed == DEFAULT_SEED:
        return 1.0
    return 10.0 ** random.Random(seed).uniform(-SEED_SPAN, SEED_SPAN)


def grid(t_min: float, t_max: float, points: int) -> list[float]:
    """Log-spaced grid, as the runner builds it for log_spaced configs."""
    ratio = math.log(t_max / t_min)
    return [t_min * math.exp(ratio * i / (points - 1)) for i in range(points)]
