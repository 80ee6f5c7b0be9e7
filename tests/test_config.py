"""Tests for the configuration layer (Table 1 / Table 2 semantics)."""

import dataclasses

import pytest

from repro.config import (
    PPOConfig,
    SystemConfig,
    paper_ppo_config,
    paper_system_config,
)
from repro.store.keys import fingerprint


class TestSystemConfigValidation:
    def test_default_constructs(self):
        cfg = SystemConfig()
        assert cfg.num_queue_states == cfg.buffer_size + 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_clients", 0),
            ("num_queues", 0),
            ("buffer_size", 0),
            ("d", 0),
            ("service_rate", 0.0),
            ("service_rate", -1.0),
            ("arrival_rate_high", 0.0),
            ("arrival_rate_low", -0.5),
            ("p_high_to_low", 1.5),
            ("p_low_to_high", -0.1),
            ("delta_t", 0.0),
            ("episode_length", 0),
            ("monte_carlo_runs", 0),
            ("drop_penalty", -1.0),
            ("initial_state", -1),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            SystemConfig(**{field: value})

    def test_d_cannot_exceed_num_queues(self):
        with pytest.raises(ValueError):
            SystemConfig(num_queues=3, d=4)

    def test_initial_state_must_fit_buffer(self):
        with pytest.raises(ValueError):
            SystemConfig(buffer_size=3, initial_state=4)
        cfg = SystemConfig(buffer_size=3, initial_state=3)
        assert cfg.initial_state == 3

    def test_frozen(self):
        cfg = SystemConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.delta_t = 2.0  # type: ignore[misc]


class TestSystemConfigDerived:
    def test_arrival_levels_order(self):
        cfg = SystemConfig(arrival_rate_high=0.9, arrival_rate_low=0.6)
        assert cfg.arrival_levels == (0.9, 0.6)

    @pytest.mark.parametrize(
        "delta_t,expected", [(1.0, 500), (2.0, 250), (5.0, 100), (10.0, 50), (3.0, 167)]
    )
    def test_eval_length_rule(self, delta_t, expected):
        cfg = SystemConfig(delta_t=delta_t)
        assert cfg.resolved_eval_length() == expected

    def test_eval_length_explicit_override(self):
        cfg = SystemConfig(delta_t=5.0, eval_episode_length=42)
        assert cfg.resolved_eval_length() == 42

    def test_total_eval_time_near_500(self):
        for dt in (1.0, 2.0, 5.0, 10.0):
            cfg = SystemConfig(delta_t=dt)
            assert abs(cfg.total_eval_time() - 500.0) <= dt / 2 + 1e-9

    def test_with_updates_revalidates(self):
        cfg = SystemConfig()
        assert cfg.with_updates(delta_t=3.0).delta_t == 3.0
        with pytest.raises(ValueError):
            cfg.with_updates(delta_t=-1.0)

    def test_dict_roundtrip(self):
        cfg = SystemConfig(delta_t=7.0, num_queues=123)
        assert SystemConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            SystemConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize("field", ["delta_t", "service_rate"])
    def test_int_and_float_values_share_a_fingerprint(self, field):
        """``delta_t=1`` and ``delta_t=1.0`` are one experiment, so they
        must share a store key rather than simulate and cache twice."""
        as_int = SystemConfig(**{field: 1})
        assert type(getattr(as_int, field)) is float
        assert as_int == SystemConfig(**{field: 1.0})
        assert fingerprint(as_int) == fingerprint(SystemConfig(**{field: 1.0}))


class TestPaperConfigs:
    def test_paper_system_values_match_table1(self):
        cfg = paper_system_config(delta_t=5.0, num_queues=1000)
        assert cfg.service_rate == 1.0
        assert cfg.arrival_levels == (0.9, 0.6)
        assert cfg.p_high_to_low == 0.2
        assert cfg.p_low_to_high == 0.5
        assert cfg.d == 2
        assert cfg.buffer_size == 5
        assert cfg.episode_length == 500
        assert cfg.monte_carlo_runs == 100
        assert cfg.drop_penalty == 1.0
        assert cfg.initial_state == 0
        assert cfg.num_clients == 1000**2

    def test_paper_client_default_is_m_squared(self):
        cfg = paper_system_config(num_queues=100)
        assert cfg.num_clients == 10_000

    def test_paper_ppo_values_match_table2(self):
        ppo = paper_ppo_config()
        assert ppo.gamma == 0.99
        assert ppo.gae_lambda == 1.0
        assert ppo.kl_coeff == 0.2
        assert ppo.clip_param == 0.3
        assert ppo.learning_rate == 5e-5
        assert ppo.train_batch_size == 4000
        assert ppo.minibatch_size == 128
        assert ppo.num_epochs == 30
        assert ppo.hidden_sizes == (256, 256)


class TestPPOConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("gamma", 0.0),
            ("gamma", 1.0),
            ("gae_lambda", 1.2),
            ("kl_coeff", -0.1),
            ("clip_param", 0.0),
            ("learning_rate", 0.0),
            ("train_batch_size", 0),
            ("num_epochs", 0),
            ("grad_clip", 0.0),
            ("hidden_sizes", ()),
            ("hidden_sizes", (0,)),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            PPOConfig(**{field: value})

    def test_minibatch_cannot_exceed_batch(self):
        with pytest.raises(ValueError):
            PPOConfig(train_batch_size=100, minibatch_size=200)

    def test_dict_roundtrip_restores_tuple(self):
        ppo = PPOConfig(hidden_sizes=(64, 32))
        restored = PPOConfig.from_dict(ppo.to_dict())
        assert restored.hidden_sizes == (64, 32)
        assert restored == ppo

    def test_with_updates(self):
        ppo = PPOConfig()
        assert ppo.with_updates(learning_rate=1e-3).learning_rate == 1e-3


class TestVersionSync:
    """`repro.__version__` salts the experiment store (CODE_SALT), so it
    must track the packaging version — a silent mismatch would either
    replay stale shards or needlessly invalidate the cache."""

    def test_package_version_matches_pyproject(self):
        from pathlib import Path

        import repro
        from repro.store.manifest import tomllib  # 3.10-safe import

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        payload = tomllib.loads(pyproject.read_text())
        assert payload["project"]["version"] == repro.__version__

    def test_version_salts_store_keys(self):
        import repro
        from repro.store.keys import CODE_SALT

        assert repro.__version__ in CODE_SALT
