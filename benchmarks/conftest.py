"""Shared fixtures for the benchmark harness.

Scale selection: set ``REPRO_BENCH_SCALE`` to ``smoke`` / ``small``
(default) / ``paper``.  Every bench writes its regenerated table to
``benchmarks/results/`` so EXPERIMENTS.md can reference concrete runs.
Speed is measured by ``perfbench/``, not here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make the sibling `benchmarks` modules importable when pytest is invoked
# from the repository root.
sys.path.insert(0, str(Path(__file__).parent))

from repro.experiments.workload_cache import benchmark_functions, scale_settings

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale():
    """The resolved scale settings for this run."""
    return scale_settings(None)


@pytest.fixture(scope="session")
def workload(scale):
    """The per-n EPFL-like cut-function sets (built once per session)."""
    return benchmark_functions(scale.name)


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR

