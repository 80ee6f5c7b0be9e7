"""Tests for the sparse dispatcher→server topology specs."""

import pickle

import numpy as np
import pytest

from repro.queueing.topology import TopologySpec


class TestValidation:
    def test_rejects_empty_neighbors(self):
        with pytest.raises(ValueError, match="non-empty"):
            TopologySpec("bad", 4, np.empty((0, 2), dtype=np.int64))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="num_dispatchers, degree"):
            TopologySpec("bad", 4, np.arange(4))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError, match="lie in"):
            TopologySpec("bad", 4, np.array([[0, 4]]))
        with pytest.raises(ValueError, match="lie in"):
            TopologySpec("bad", 4, np.array([[-1, 2]]))

    def test_rejects_duplicate_neighbors(self):
        with pytest.raises(ValueError, match="repeat"):
            TopologySpec("bad", 4, np.array([[1, 1, 2]]))

    def test_neighbors_coerced_to_int64(self):
        top = TopologySpec("ok", 4, np.array([[0, 1], [2, 3]], dtype=np.int32))
        assert top.neighbors.dtype == np.int64


class TestFamilies:
    def test_full_mesh_is_identity_row(self):
        top = TopologySpec.full_mesh(7)
        assert top.num_dispatchers == 1
        assert top.degree == 7
        assert np.array_equal(top.neighbors[0], np.arange(7))
        assert top.is_full_mesh()

    def test_ring_geometry(self):
        top = TopologySpec.ring(6, radius=1)
        assert top.num_dispatchers == 6
        assert top.degree == 3
        assert set(top.neighbors[0]) == {5, 0, 1}
        assert set(top.neighbors[5]) == {4, 5, 0}
        assert np.array_equal(top.in_degrees(), np.full(6, 3))
        assert not top.is_full_mesh()

    def test_ring_radius_zero_is_self_only(self):
        top = TopologySpec.ring(5, radius=0)
        assert np.array_equal(top.neighbors, np.arange(5)[:, None])

    def test_ring_rejects_wrapping_radius(self):
        with pytest.raises(ValueError, match="wraps"):
            TopologySpec.ring(5, radius=3)

    def test_torus_geometry(self):
        top = TopologySpec.torus(3, 4, radius=1)
        assert top.num_queues == 12
        assert top.num_dispatchers == 12
        assert top.degree == 9
        # Dispatcher at grid (0, 0) sees the full Moore neighborhood:
        # rows {2, 0, 1}, cols {3, 0, 1} of the wrapped 3 x 4 grid.
        assert set(top.neighbors[0]) == {0, 1, 3, 4, 5, 7, 8, 9, 11}
        assert np.array_equal(top.in_degrees(), np.full(12, 9))

    def test_torus_auto_factorization(self):
        top = TopologySpec.torus(12, radius=1)  # 3 x 4 split
        assert top.num_queues == 12
        assert top.degree == 9

    def test_torus_rejects_wrapping_radius(self):
        with pytest.raises(ValueError, match="wraps"):
            TopologySpec.torus(3, 3, radius=2)

    def test_torus_per_axis_radius(self):
        """Narrow grids keep a long-axis neighborhood via (r_r, r_c)."""
        top = TopologySpec.torus(2, 5, radius=(0, 1))
        assert top.degree == 3
        assert top.num_queues == 10
        # Dispatcher (0, 0) sees columns {4, 0, 1} of its own row only.
        assert set(top.neighbors[0]) == {4, 0, 1}
        with pytest.raises(ValueError, match="wraps"):
            TopologySpec.torus(2, 5, radius=(1, 1))

    def test_random_regular_is_seeded_and_duplicate_free(self):
        a = TopologySpec.random_regular(10, 4, seed=3)
        b = TopologySpec.random_regular(10, 4, seed=3)
        c = TopologySpec.random_regular(10, 4, seed=4)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert not np.array_equal(a.neighbors, c.neighbors)
        assert a.degree == 4 and a.num_dispatchers == 10
        # Without-replacement rows: construction enforces distinctness.
        assert all(len(set(row)) == 4 for row in a.neighbors)

    def test_random_regular_full_degree_is_full_mesh(self):
        top = TopologySpec.random_regular(6, 6, seed=0)
        assert top.is_full_mesh()

    def test_random_regular_covers_every_queue(self):
        """The coverage repair leaves no queue with in-degree 0 whenever
        there are at least M edges (distinctness and degree preserved)."""
        for m in range(4, 40):
            top = TopologySpec.random_regular(m, min(3, m), seed=0)
            assert (top.in_degrees() > 0).all()
            assert all(len(set(row)) == top.degree for row in top.neighbors)

    def test_random_regular_rejects_bad_degree(self):
        with pytest.raises(ValueError, match="degree"):
            TopologySpec.random_regular(5, 6)
        with pytest.raises(ValueError, match="degree"):
            TopologySpec.random_regular(5, 0)

    def test_bipartite_decouples_dispatcher_count(self):
        top = TopologySpec.bipartite(20, 8, 3, seed=1)
        assert top.num_dispatchers == 20
        assert top.num_queues == 8
        assert top.degree == 3
        assert top.kind == "bipartite"


class TestClientAssignment:
    def test_round_robin_balanced(self):
        top = TopologySpec.ring(4, radius=1)
        disp = top.client_dispatchers(10)
        assert disp.shape == (10,)
        counts = np.bincount(disp, minlength=4)
        assert counts.max() - counts.min() <= 1
        for n in (10, 3, 4):
            assert np.array_equal(
                top.dispatcher_loads(n),
                np.bincount(top.client_dispatchers(n), minlength=4),
            )

    def test_deterministic(self):
        top = TopologySpec.ring(4, radius=1)
        assert np.array_equal(
            top.client_dispatchers(9), top.client_dispatchers(9)
        )

    def test_rejects_zero_clients(self):
        with pytest.raises(ValueError):
            TopologySpec.full_mesh(4).client_dispatchers(0)
        with pytest.raises(ValueError):
            TopologySpec.full_mesh(4).dispatcher_loads(0)


class TestPlumbing:
    def test_pickle_round_trip(self):
        top = TopologySpec.random_regular(8, 3, seed=2)
        clone = pickle.loads(pickle.dumps(top))
        assert clone.kind == top.kind
        assert clone.num_queues == top.num_queues
        assert np.array_equal(clone.neighbors, top.neighbors)

    def test_memory_bytes(self):
        top = TopologySpec.ring(10, radius=2)
        assert top.memory_bytes() == 10 * 5 * 8
