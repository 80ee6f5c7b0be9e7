"""Tests for utilities: rng, stats, tables, serialization, logging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.serialization import load_npz_checkpoint, save_npz_checkpoint
from repro.utils.stats import (
    WelfordAccumulator,
    mean_confidence_interval,
)
from repro.utils.tables import format_table, series_to_csv


class TestRng:
    def test_as_generator_idempotent(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_as_generator_from_int(self):
        a = as_generator(5).random(3)
        b = as_generator(5).random(3)
        assert np.allclose(a, b)

    def test_spawn_independence_and_determinism(self):
        gens_a = spawn_generators(7, 3)
        gens_b = spawn_generators(7, 3)
        for ga, gb in zip(gens_a, gens_b):
            assert np.allclose(ga.random(5), gb.random(5))
        # different children differ
        x = spawn_generators(7, 2)
        assert not np.allclose(x[0].random(5), x[1].random(5))

    def test_spawn_from_generator(self):
        gens = spawn_generators(np.random.default_rng(3), 2)
        assert len(gens) == 2

    def test_spawn_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)


class TestWelford:
    def test_matches_numpy(self, rng):
        data = rng.standard_normal(500)
        acc = WelfordAccumulator()
        acc.extend(data)
        assert acc.count == 500
        assert acc.mean == pytest.approx(data.mean())
        assert acc.variance == pytest.approx(data.var(ddof=1))
        assert acc.standard_error() == pytest.approx(
            data.std(ddof=1) / math.sqrt(500)
        )

    def test_needs_samples(self):
        acc = WelfordAccumulator()
        with pytest.raises(ValueError):
            _ = acc.mean
        acc.add(1.0)
        with pytest.raises(ValueError):
            _ = acc.variance

    def test_rejects_nan(self):
        acc = WelfordAccumulator()
        with pytest.raises(ValueError):
            acc.add(float("nan"))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_streaming_equals_batch(self, values):
        acc = WelfordAccumulator()
        acc.extend(values)
        arr = np.asarray(values)
        assert acc.mean == pytest.approx(arr.mean(), rel=1e-9, abs=1e-9)
        assert acc.variance == pytest.approx(arr.var(ddof=1), rel=1e-6, abs=1e-6)


class TestConfidenceIntervals:
    def test_basic_interval(self, rng):
        data = rng.standard_normal(100) + 5
        ci = mean_confidence_interval(data)
        assert ci.lower < ci.mean < ci.upper
        assert ci.contains(ci.mean)
        assert ci.n == 100

    def test_single_sample_degenerates(self):
        ci = mean_confidence_interval([3.0])
        assert ci.lower == ci.upper == 3.0

    def test_constant_samples(self):
        ci = mean_confidence_interval([2.0, 2.0, 2.0])
        assert ci.half_width == 0.0

    def test_coverage_monte_carlo(self, rng):
        """~95% of intervals should cover the true mean."""
        hits = 0
        for _ in range(300):
            data = rng.standard_normal(15)
            ci = mean_confidence_interval(data, level=0.95)
            hits += ci.contains(0.0)
        assert 0.90 <= hits / 300 <= 0.99

    def test_rejects_empty_and_bad_level(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], level=1.5)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["A", "Blong"], [[1, 2.5], ["xx", 3.14159]])
        lines = text.splitlines()
        assert lines[0].startswith("A")
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["A", "B"], [[1]])

    def test_csv_output(self):
        csv = series_to_csv(["x", "y"], [[1, 2.0], [3, 4.5]])
        assert csv.splitlines() == ["x,y", "1,2", "3,4.5"]

    def test_csv_rejects_commas_in_cells(self):
        with pytest.raises(ValueError):
            series_to_csv(["a"], [["1,2"]])


class TestSerialization:
    def test_roundtrip_arrays_and_meta(self, tmp_path, rng):
        arrays = {"w": rng.random((3, 4)), "b": rng.random(4)}
        meta = {"name": "test", "value": 1.5, "nested": {"a": [1, 2]}}
        path = save_npz_checkpoint(tmp_path / "x.npz", arrays, meta)
        loaded_arrays, loaded_meta = load_npz_checkpoint(path)
        assert set(loaded_arrays) == {"w", "b"}
        assert np.allclose(loaded_arrays["w"], arrays["w"])
        assert loaded_meta == meta

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_npz_checkpoint(tmp_path / "missing.npz")

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_npz_checkpoint(tmp_path / "x.npz", {"__meta__": np.zeros(1)})

    def test_empty_meta_ok(self, tmp_path):
        path = save_npz_checkpoint(tmp_path / "y.npz", {"a": np.ones(2)})
        _, meta = load_npz_checkpoint(path)
        assert meta == {}

    def test_creates_parent_dirs(self, tmp_path):
        path = save_npz_checkpoint(
            tmp_path / "deep" / "dir" / "z.npz", {"a": np.ones(1)}
        )
        assert path.exists()
