"""Shared utilities: seeding, statistics, tables, serialization."""

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.stats import ConfidenceInterval, mean_confidence_interval
from repro.utils.tables import format_table, series_to_csv
from repro.utils.serialization import load_npz_checkpoint, save_npz_checkpoint

__all__ = [
    "as_generator",
    "spawn_generators",
    "ConfidenceInterval",
    "mean_confidence_interval",
    "format_table",
    "series_to_csv",
    "load_npz_checkpoint",
    "save_npz_checkpoint",
]
