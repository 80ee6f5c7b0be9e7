"""Shared machinery for the benchmark suite.

Each benchmark regenerates one table/figure of the paper at a scaled
grid (the artifact map in README.md lists them), times the regeneration
via pytest-benchmark, asserts the paper's qualitative shape, and writes
the regenerated numbers to ``results/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def run_once(benchmark, fn, *args, **kwargs):
    """Time exactly one execution of an expensive experiment."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, iterations=1, rounds=1)
