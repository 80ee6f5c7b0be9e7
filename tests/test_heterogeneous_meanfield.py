"""Tests for the heterogeneous mean-field model (class-extended states)."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.discretization import epoch_update
from repro.meanfield.heterogeneous import HeterogeneousMeanFieldModel
from repro.policies.static import ConstantRulePolicy
from repro.queueing.arrivals import ScriptedRate
from repro.queueing.batched_env import run_episodes_batched
from repro.queueing.heterogeneous import (
    BatchedHeterogeneousFiniteEnv,
    ServerClassSpec,
    jsq_rule_heterogeneous,
    rnd_rule_heterogeneous,
    sed_rule,
)


@pytest.fixture
def mixed_spec():
    return ServerClassSpec(service_rates=(0.5, 2.0), fractions=(0.5, 0.5))


@pytest.fixture
def config():
    return SystemConfig(delta_t=2.0, num_queues=40, num_clients=1600)


class TestModelBasics:
    def test_initial_distribution(self, config, mixed_spec):
        model = HeterogeneousMeanFieldModel(config, mixed_spec)
        nu0 = model.initial_distribution()
        assert nu0.sum() == pytest.approx(1.0)
        assert np.allclose(model.class_masses(nu0), [0.5, 0.5])
        assert model.filling_marginal(nu0)[0] == pytest.approx(1.0)

    def test_class_masses_conserved(self, config, mixed_spec):
        model = HeterogeneousMeanFieldModel(config, mixed_spec)
        rule = sed_rule(mixed_spec, config.buffer_size, config.d)
        nu = model.initial_distribution()
        for _ in range(20):
            nu, drops = model.epoch_update(nu, rule, 0.9)
            assert np.allclose(model.class_masses(nu), [0.5, 0.5], atol=1e-12)
            assert nu.sum() == pytest.approx(1.0)
            assert drops >= 0

    def test_rule_geometry_validated(self, config, mixed_spec):
        model = HeterogeneousMeanFieldModel(config, mixed_spec)
        with pytest.raises(ValueError):
            model.epoch_update(
                model.initial_distribution(),
                DecisionRule.uniform(6, 2),  # homogeneous rule
                0.9,
            )

    def test_nu_shape_validated(self, config, mixed_spec):
        model = HeterogeneousMeanFieldModel(config, mixed_spec)
        rule = sed_rule(mixed_spec, config.buffer_size, config.d)
        with pytest.raises(ValueError):
            model.epoch_update(np.ones(6) / 6, rule, 0.9)


class TestReductionToHomogeneous:
    def test_equal_rates_reduce_to_homogeneous_model(self, config):
        """With identical class rates and a class-blind rule, the filling
        marginal follows the homogeneous exact dynamics."""
        spec = ServerClassSpec(service_rates=(1.0, 1.0), fractions=(0.3, 0.7))
        model = HeterogeneousMeanFieldModel(config, spec)
        rule_het = jsq_rule_heterogeneous(spec, config.buffer_size, config.d)
        rule_hom = DecisionRule.join_shortest(config.num_queue_states, config.d)

        nu_het = model.initial_distribution()
        nu_hom = np.zeros(config.num_queue_states)
        nu_hom[config.initial_state] = 1.0
        for _ in range(8):
            nu_het, d_het = model.epoch_update(nu_het, rule_het, 0.9)
            nu_hom, d_hom = epoch_update(
                nu_hom, rule_hom, 0.9, 1.0, config.delta_t
            )
            assert np.allclose(model.filling_marginal(nu_het), nu_hom, atol=1e-10)
            assert d_het == pytest.approx(d_hom, abs=1e-10)


class TestSteadyStateOrdering:
    def test_sed_beats_jsq_in_mean_field(self, config, mixed_spec):
        """The mean-field model shows the SED advantage analytically."""
        model = HeterogeneousMeanFieldModel(config, mixed_spec)
        sed = sed_rule(mixed_spec, config.buffer_size, config.d)
        jsq = jsq_rule_heterogeneous(mixed_spec, config.buffer_size, config.d)
        rnd = rnd_rule_heterogeneous(mixed_spec, config.buffer_size, config.d)
        _, d_sed = model.stationary_distribution(sed, 0.9, tol=1e-10)
        _, d_jsq = model.stationary_distribution(jsq, 0.9, tol=1e-10)
        _, d_rnd = model.stationary_distribution(rnd, 0.9, tol=1e-10)
        assert d_sed < d_jsq < d_rnd

    def test_fast_class_carries_more_load_under_sed(self, config, mixed_spec):
        model = HeterogeneousMeanFieldModel(config, mixed_spec)
        sed = sed_rule(mixed_spec, config.buffer_size, config.d)
        nu_star, _ = model.stationary_distribution(sed, 0.9, tol=1e-10)
        grid = nu_star.reshape(model.num_fillings, model.num_classes)
        # conditional mean filling per class
        mean_slow = (grid[:, 0] @ np.arange(6)) / grid[:, 0].sum()
        mean_fast = (grid[:, 1] @ np.arange(6)) / grid[:, 1].sum()
        # slow servers still end up fuller (they drain 4x slower), but
        # SED keeps them strictly less congested than class-blind JSQ does
        jsq = jsq_rule_heterogeneous(mixed_spec, config.buffer_size, config.d)
        nu_jsq, _ = model.stationary_distribution(jsq, 0.9, tol=1e-10)
        grid_jsq = nu_jsq.reshape(model.num_fillings, model.num_classes)
        mean_slow_jsq = (grid_jsq[:, 0] @ np.arange(6)) / grid_jsq[:, 0].sum()
        assert mean_slow < mean_slow_jsq
        assert mean_fast < mean_slow


class TestFiniteSystemConvergence:
    def test_finite_env_tracks_mean_field(self, mixed_spec):
        """Theorem-1 analogue for the extension: the finite heterogeneous
        system's cumulative drops approach the mean-field prediction."""
        epochs = 15
        lam_script = np.full(epochs, 0.9)

        def finite_drops(m, seeds=3):
            cfg = SystemConfig(
                delta_t=2.0, num_queues=m, num_clients=m * m
            )
            totals = []
            for seed in range(seeds):
                env = BatchedHeterogeneousFiniteEnv(
                    cfg,
                    mixed_spec,
                    num_replicas=1,
                    arrival_process=ScriptedRate([0.9, 0.6], [0] * epochs),
                    seed=seed,
                )
                rule = sed_rule(mixed_spec, cfg.buffer_size, cfg.d)
                totals.append(
                    run_episodes_batched(
                        env, ConstantRulePolicy(rule), epochs, seed=seed
                    ).mean_total_drops
                )
            return float(np.mean(totals))

        cfg = SystemConfig(delta_t=2.0, num_queues=40, num_clients=1600)
        model = HeterogeneousMeanFieldModel(cfg, mixed_spec)
        mf_total = model.rollout_drops(
            sed_rule(mixed_spec, cfg.buffer_size, cfg.d), lam_script
        )
        gap_small = abs(finite_drops(16) - mf_total)
        gap_large = abs(finite_drops(100) - mf_total)
        assert gap_large < gap_small + 0.2
        assert gap_large / max(mf_total, 0.1) < 0.35
