"""Tests for the local (per-node) mean-field propagator."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import epoch_update
from repro.meanfield.local import (
    local_arrival_rates,
    local_epoch_update,
    neighborhood_mixtures,
    observed_distributions,
)
from repro.policies.static import JoinShortestQueuePolicy, RandomPolicy
from repro.queueing.heterogeneous import ServerClassSpec, sed_rule
from repro.queueing.topology import TopologySpec

S, D, M = 6, 2, 12


@dataclass
class LocalMeanFieldTrajectory:
    """Deterministic per-node trajectory on a sparse topology."""

    nus: np.ndarray  # (T+1, M, S) per-queue laws
    drops: np.ndarray  # (T, M) expected per-queue drops per epoch

    @property
    def mean_nus(self) -> np.ndarray:
        """Population-averaged laws ``(T+1, S)``."""
        return self.nus.mean(axis=1)

    @property
    def total_drops_per_queue(self) -> float:
        """Cumulative expected drops averaged over queues."""
        return float(self.drops.sum(axis=0).mean())


def local_mean_field_trajectory(
    topology,
    policy,
    mode_sequence,
    arrival_levels,
    service_rates,
    delta_t,
    num_states,
    initial_state=0,
    classes=None,
    num_classes=1,
) -> LocalMeanFieldTrajectory:
    """Replay a scripted arrival-mode sequence through the local model.

    The per-node counterpart of
    :func:`repro.meanfield.convergence.mean_field_trajectory`: the
    policy is queried once per epoch on the population mixture and the
    emitted rule drives every node.
    """
    mode_sequence = np.asarray(mode_sequence, dtype=np.intp)
    levels = np.asarray(arrival_levels, dtype=np.float64)
    m = topology.num_queues
    if not 0 <= initial_state < num_states:
        raise ValueError(f"initial_state must lie in [0, {num_states - 1}]")
    nus = np.zeros((m, num_states))
    nus[:, initial_state] = 1.0
    out_nus = np.empty((mode_sequence.size + 1, m, num_states))
    out_drops = np.empty((mode_sequence.size, m))
    out_nus[0] = nus
    for t, mode in enumerate(mode_sequence):
        mixture = observed_distributions(nus, classes, num_classes).mean(axis=0)
        rule = policy.decision_rule(mixture, int(mode), None)
        nus, drops = local_epoch_update(
            nus,
            topology,
            rule,
            float(levels[mode]),
            service_rates,
            delta_t,
            classes=classes,
            num_classes=num_classes,
        )
        out_nus[t + 1] = nus
        out_drops[t] = drops
    return LocalMeanFieldTrajectory(nus=out_nus, drops=out_drops)


@pytest.fixture
def nus(rng) -> np.ndarray:
    return rng.dirichlet(np.ones(S), size=M)


class TestObservedDistributions:
    def test_none_classes_is_identity(self, nus):
        assert np.array_equal(observed_distributions(nus, None), nus)

    def test_class_lift_scatters_mass(self, nus):
        classes = np.array([0, 1] * (M // 2))
        obs = observed_distributions(nus, classes, num_classes=2)
        assert obs.shape == (M, 2 * S)
        assert np.allclose(obs.sum(axis=1), 1.0)
        # Queue 0 (class 0) only occupies even observed columns.
        assert np.array_equal(obs[0, 0::2], nus[0])
        assert np.all(obs[0, 1::2] == 0)
        assert np.array_equal(obs[1, 1::2], nus[1])

    def test_rejects_wrong_class_shape(self, nus):
        with pytest.raises(ValueError, match="classes"):
            observed_distributions(nus, np.zeros(3, dtype=int), 2)


class TestNeighborhoodMixtures:
    def test_full_mesh_mixture_is_population_mean(self, nus):
        mixtures = neighborhood_mixtures(nus, TopologySpec.full_mesh(M))
        assert mixtures.shape == (1, S)
        assert np.allclose(mixtures[0], nus.mean(axis=0))

    def test_ring_mixture_averages_the_window(self, nus):
        top = TopologySpec.ring(M, radius=1)
        mixtures = neighborhood_mixtures(nus, top)
        assert np.allclose(
            mixtures[0], (nus[M - 1] + nus[0] + nus[1]) / 3.0
        )

    def test_rejects_wrong_queue_count(self, nus):
        with pytest.raises(ValueError, match="obs_nus"):
            neighborhood_mixtures(nus[:5], TopologySpec.ring(M, 1))


class TestLocalArrivalRates:
    @pytest.mark.parametrize(
        "top_factory",
        [
            lambda: TopologySpec.full_mesh(M),
            lambda: TopologySpec.ring(M, radius=2),
            lambda: TopologySpec.torus(M, radius=1),
            lambda: TopologySpec.random_regular(M, 4, seed=7),
            lambda: TopologySpec.random_regular(
                M, 3, seed=11, num_dispatchers=30
            ),
        ],
    )
    def test_arrival_mass_conserved(self, nus, top_factory):
        """Σ_j ν_j · λ_j = M·λ on every topology (no mass leaks)."""
        rule = DecisionRule.join_shortest(S, D)
        lam = 0.8
        rates = local_arrival_rates(nus, top_factory(), rule, lam)
        assert rates.shape == (M, S)
        assert rates.min() >= -1e-12
        assert np.einsum("ms,ms->", nus, rates) == pytest.approx(
            M * lam, rel=1e-10
        )

    def test_mass_conserved_with_classes(self, nus):
        spec = ServerClassSpec(service_rates=(0.5, 2.0), fractions=(0.5, 0.5))
        classes = spec.assign_classes(M)
        rule = sed_rule(spec, S - 1, D)
        rates = local_arrival_rates(
            nus, TopologySpec.ring(M, 2), rule, 0.7,
            classes=classes, num_classes=2,
        )
        assert np.einsum("ms,ms->", nus, rates) == pytest.approx(
            M * 0.7, rel=1e-10
        )

    def test_rejects_negative_intensity(self, nus):
        with pytest.raises(ValueError, match="intensity"):
            local_arrival_rates(
                nus, TopologySpec.ring(M, 1),
                DecisionRule.uniform(S, D), -0.1,
            )


class TestLocalEpochUpdate:
    def test_full_mesh_reduces_to_global_propagator(self, rng):
        """Shared ν on the complete graph: every node follows exactly the
        dense epoch_update trajectory (the ISSUE's reduction criterion)."""
        rule = DecisionRule.join_shortest(S, D)
        nu = rng.dirichlet(np.ones(S))
        nus0 = np.tile(nu, (M, 1))
        top = TopologySpec.full_mesh(M)
        lam, service, dt = 0.85, 1.0, 3.0
        nus_next, drops = local_epoch_update(nus0, top, rule, lam, service, dt)
        nu_next, d = epoch_update(nu, rule, lam, service, dt)
        assert np.abs(nus_next - nu_next[None, :]).max() < 1e-12
        assert np.abs(drops - d).max() < 1e-12

    def test_stays_on_simplex(self, nus):
        nus_next, drops = local_epoch_update(
            nus, TopologySpec.random_regular(M, 4, seed=0),
            DecisionRule.uniform(S, D), 0.9, 1.0, 2.0,
        )
        assert nus_next.min() >= 0
        assert np.allclose(nus_next.sum(axis=1), 1.0)
        assert drops.min() >= 0

    def test_per_queue_service_rates(self, nus):
        """A slower queue accumulates more mass at high fillings."""
        service = np.ones(M)
        service[0] = 0.25
        top = TopologySpec.ring(M, radius=1)
        rule = DecisionRule.uniform(S, D)
        cur = nus.copy()
        for _ in range(30):
            cur, _ = local_epoch_update(cur, top, rule, 0.8, service, 2.0)
        mean_fill = cur @ np.arange(S)
        assert mean_fill[0] > mean_fill[6]

    def test_ring_differs_from_full_mesh_for_heterogeneous_nus(self, nus):
        rule = DecisionRule.join_shortest(S, D)
        a, _ = local_epoch_update(
            nus, TopologySpec.ring(M, 1), rule, 0.8, 1.0, 2.0
        )
        b, _ = local_epoch_update(
            nus, TopologySpec.full_mesh(M), rule, 0.8, 1.0, 2.0
        )
        assert np.abs(a - b).max() > 1e-4

    def test_validates_inputs(self, nus):
        top = TopologySpec.ring(M, 1)
        rule = DecisionRule.uniform(S, D)
        with pytest.raises(ValueError, match="queues"):
            local_epoch_update(nus[:4], top, rule, 0.8, 1.0, 1.0)
        with pytest.raises(ValueError, match="delta_t"):
            local_epoch_update(nus, top, rule, 0.8, 1.0, 0.0)
        with pytest.raises(ValueError, match="service"):
            local_epoch_update(nus, top, rule, 0.8, 0.0, 1.0)


class TestTrajectory:
    def test_shapes_and_bookkeeping(self):
        top = TopologySpec.ring(M, radius=1)
        traj = local_mean_field_trajectory(
            top,
            JoinShortestQueuePolicy(S, D),
            mode_sequence=np.zeros(8, dtype=int),
            arrival_levels=np.array([0.9, 0.6]),
            service_rates=1.0,
            delta_t=2.0,
            num_states=S,
        )
        assert traj.nus.shape == (9, M, S)
        assert traj.drops.shape == (8, M)
        assert traj.mean_nus.shape == (9, S)
        assert traj.total_drops_per_queue >= 0

    def test_full_mesh_matches_global_trajectory(self):
        """On the complete graph the per-node trajectory collapses onto
        the dense mean-field recursion for the same mode script."""
        from repro.config import SystemConfig
        from repro.meanfield.convergence import mean_field_trajectory

        config = SystemConfig(
            num_clients=100, num_queues=M, buffer_size=S - 1, delta_t=2.0
        )
        policy = JoinShortestQueuePolicy(S, D)
        modes = np.array([0, 1, 1, 0, 0, 1], dtype=int)
        dense_nus, dense_drops = mean_field_trajectory(config, policy, modes)
        traj = local_mean_field_trajectory(
            TopologySpec.full_mesh(M),
            policy,
            modes,
            arrival_levels=np.array(config.arrival_levels),
            service_rates=config.service_rate,
            delta_t=config.delta_t,
            num_states=S,
            initial_state=config.initial_state,
        )
        assert np.abs(traj.mean_nus - dense_nus).max() < 1e-10
        assert np.abs(traj.drops.mean(axis=1) - dense_drops).max() < 1e-10

    def test_policy_ranking_under_locality(self):
        """JSQ(d) should still beat RND on a sparse graph at short delay
        (the limit model preserves the qualitative ordering)."""
        top = TopologySpec.random_regular(M, 4, seed=0)
        modes = np.zeros(25, dtype=int)
        kwargs = dict(
            mode_sequence=modes,
            arrival_levels=np.array([0.95, 0.6]),
            service_rates=1.0,
            delta_t=1.0,
            num_states=S,
        )
        jsq = local_mean_field_trajectory(
            top, JoinShortestQueuePolicy(S, D), **kwargs
        )
        rnd = local_mean_field_trajectory(top, RandomPolicy(S, D), **kwargs)
        assert jsq.total_drops_per_queue < rnd.total_drops_per_queue

    def test_sed_on_sparse_graph(self):
        """SED(d) runs on the Z x C observed states over a sparse graph
        and outperforms class-blind uniform routing."""
        spec = ServerClassSpec(service_rates=(0.5, 2.0), fractions=(0.5, 0.5))
        classes = spec.assign_classes(M)
        service = np.asarray(spec.service_rates)[classes]
        top = TopologySpec.ring(M, radius=2)
        modes = np.zeros(20, dtype=int)
        s_obs = spec.num_observed_states(S - 1)
        from repro.policies.static import ConstantRulePolicy

        sed = ConstantRulePolicy(sed_rule(spec, S - 1, D), name="SED")
        rnd = ConstantRulePolicy(
            DecisionRule.uniform(s_obs, D), name="RND-obs"
        )
        kwargs = dict(
            mode_sequence=modes,
            arrival_levels=np.array([1.0, 0.6]),
            service_rates=service,
            delta_t=1.0,
            num_states=S,
            classes=classes,
            num_classes=spec.num_classes,
        )
        t_sed = local_mean_field_trajectory(top, sed, **kwargs)
        t_rnd = local_mean_field_trajectory(top, rnd, **kwargs)
        assert t_sed.total_drops_per_queue < t_rnd.total_drops_per_queue

    def test_rejects_bad_initial_state(self):
        with pytest.raises(ValueError, match="initial_state"):
            local_mean_field_trajectory(
                TopologySpec.ring(M, 1),
                RandomPolicy(S, D),
                np.zeros(2, dtype=int),
                np.array([0.9, 0.6]),
                1.0,
                1.0,
                num_states=S,
                initial_state=S,
            )
