"""Learned neural MFC policy (the paper's "MF" policy).

Wraps the trained Gaussian policy network: given the (empirical or
limiting) queue-state distribution and the arrival mode, the network's
*mean* action (evaluation is deterministic, matching RLlib's
``explore=False``) is mapped through the manual normalization of
:meth:`repro.meanfield.decision_rule.DecisionRule.from_raw` into the
epoch's decision rule. The same object drives the MFC MDP and the finite
``N, M`` system (Figure 2 / Algorithm 1).

:class:`DirichletMeanPolicy` is the deterministic policy of the paper's
Dirichlet ablation head, for comparing the two heads.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.meanfield.decision_rule import DecisionRule
from repro.meanfield.features import ObservationFeatures
from repro.policies.base import UpperLevelPolicy
from repro.rl.nn import DirichletPolicyNetwork, GaussianPolicyNetwork
from repro.utils.serialization import load_npz_checkpoint, save_npz_checkpoint

__all__ = ["NeuralPolicy", "DirichletMeanPolicy"]


class NeuralPolicy(UpperLevelPolicy):
    """Upper-level policy backed by a trained Gaussian network.

    Parameters
    ----------
    network:
        Trained :class:`repro.rl.nn.GaussianPolicyNetwork` whose input is
        ``[ν, one_hot(λ mode)]`` — plus the optional context features of
        :class:`repro.meanfield.features.ObservationFeatures` — and whose
        output parameterizes the raw decision-rule table. Evaluation is
        float64: a float64 network is held as is, any other (such as a
        trainer's float32 network) is copied to float64 here, so later
        training does not reach the policy.
    num_states, d, num_modes:
        Rule/observation geometry; must match the network dimensions.
    deterministic:
        Use the Gaussian mean (default) or sample the raw action.
    features:
        Context features the network was trained with (default: none,
        the paper's input). Occupancy is recomputed from the queried
        law; age features use the frozen ``age_context`` unless the
        caller supplies live per-replica contexts (``features.live_age``
        policies queried through delay-aware plumbing).
    age_context:
        Frozen ``(mean age / K, stale fraction)`` of the deployment
        delay regime (see :func:`repro.meanfield.features.age_context`).
        Required iff ``features.age`` is set; persisted in checkpoints.
    """

    def __init__(
        self,
        network: GaussianPolicyNetwork,
        num_states: int,
        d: int,
        num_modes: int = 2,
        deterministic: bool = True,
        label: str = "MF",
        features: ObservationFeatures | None = None,
        age_context: tuple[float, float] | None = None,
    ) -> None:
        self.features = features if features is not None else ObservationFeatures()
        if self.features.age:
            if age_context is None:
                raise ValueError(
                    "features.age requires an age_context (mean age, "
                    "stale fraction) for the deployment regime"
                )
            self.age_context: tuple[float, float] | None = (
                float(age_context[0]),
                float(age_context[1]),
            )
        else:
            self.age_context = None
        expected_obs = num_states + num_modes + self.features.extra_dims
        expected_act = num_states**d * d
        if network.obs_dim != expected_obs:
            raise ValueError(
                f"network obs_dim {network.obs_dim} != S + modes + features "
                f"= {expected_obs}"
            )
        if network.action_dim != expected_act:
            raise ValueError(
                f"network action_dim {network.action_dim} != S^d*d = {expected_act}"
            )
        self.network = (
            network if network.dtype == np.float64 else network.astype(np.float64)
        )
        self.num_states = num_states
        self.d = d
        self.num_modes = num_modes
        self.deterministic = deterministic
        self._label = label

    @property
    def name(self) -> str:
        return self._label

    def observation(self, nu: np.ndarray, lam_mode: int) -> np.ndarray:
        nu = np.asarray(nu, dtype=np.float64)
        if nu.shape != (self.num_states,):
            raise ValueError(f"nu must have shape ({self.num_states},)")
        if not 0 <= lam_mode < self.num_modes:
            raise ValueError(f"lam_mode {lam_mode} out of range")
        one_hot = np.zeros(self.num_modes)
        one_hot[lam_mode] = 1.0
        base = np.concatenate([nu, one_hot])
        extra = self.features.vector(nu, age=self.age_context)
        if extra.size == 0:
            return base
        return np.concatenate([base, extra])

    def decision_rule(
        self,
        nu: np.ndarray,
        lam_mode: int,
        rng: np.random.Generator | None = None,
    ) -> DecisionRule:
        obs = self.observation(nu, lam_mode)
        mu, log_std, _ = self.network.forward(obs[None, :])
        if self.deterministic or rng is None:
            raw = mu[0]
        else:
            raw = mu[0] + np.exp(log_std[0]) * rng.standard_normal(mu.shape[1])
        return DecisionRule.from_raw(raw, self.num_states, self.d)

    def decision_rules_batch(
        self,
        nus: np.ndarray,
        lam_modes: np.ndarray,
        rng: np.random.Generator | None = None,
        age_contexts: np.ndarray | None = None,
    ) -> list[DecisionRule]:
        """One network forward pass for all ``E`` replica states.

        ``age_contexts`` (shape ``(E, 2)``) is the optional live-age
        channel: per-replica ``(mean age / K, stale fraction)`` of the
        delay regime each replica is in *right now*, supplied by
        delay-aware environments for ``features.live_age`` policies.
        Without it the frozen ``age_context`` is used for every row.
        """
        nus = np.asarray(nus, dtype=np.float64)
        lam_modes = np.asarray(lam_modes)
        if nus.ndim != 2 or nus.shape[1] != self.num_states:
            raise ValueError(f"nus must have shape (E, {self.num_states})")
        if lam_modes.shape != (nus.shape[0],):
            raise ValueError("need one lam_mode per replica")
        if age_contexts is not None:
            if not self.features.age:
                raise ValueError(
                    "age_contexts given but this policy has no age features"
                )
            age_contexts = np.asarray(age_contexts, dtype=np.float64)
            if age_contexts.shape != (nus.shape[0], 2):
                raise ValueError(
                    f"age_contexts must have shape ({nus.shape[0]}, 2)"
                )
        one_hot = np.zeros((nus.shape[0], self.num_modes))
        one_hot[np.arange(nus.shape[0]), lam_modes] = 1.0
        obs = np.concatenate([nus, one_hot], axis=1)
        if self.features.extra_dims:
            extra = np.stack(
                [
                    self.features.vector(
                        row,
                        age=(
                            tuple(age_contexts[i])
                            if age_contexts is not None
                            else self.age_context
                        ),
                    )
                    for i, row in enumerate(nus)
                ]
            )
            obs = np.concatenate([obs, extra], axis=1)
        mu, log_std, _ = self.network.forward(obs)
        if self.deterministic or rng is None:
            raw = mu
        else:
            raw = mu + np.exp(log_std) * rng.standard_normal(mu.shape)
        return [
            DecisionRule.from_raw(row, self.num_states, self.d) for row in raw
        ]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path, extra_meta: dict | None = None) -> Path:
        arrays = {f"policy/{k}": v for k, v in self.network.state_dict().items()}
        meta = {
            "num_states": self.num_states,
            "d": self.d,
            "num_modes": self.num_modes,
            "hidden_sizes": list(self.network.trunk.hidden_sizes),
            "label": self._label,
            "features": self.features.to_dict(),
            "age_context": (
                list(self.age_context) if self.age_context is not None else None
            ),
        }
        if extra_meta:
            meta.update(extra_meta)
        return save_npz_checkpoint(path, arrays, meta)

    @classmethod
    def load(cls, path: str | Path, deterministic: bool = True) -> "NeuralPolicy":
        arrays, meta = load_npz_checkpoint(path)
        required = {"num_states", "d", "num_modes", "hidden_sizes"}
        missing = required - set(meta)
        if missing:
            raise ValueError(f"checkpoint missing metadata: {sorted(missing)}")
        num_states = int(meta["num_states"])
        d = int(meta["d"])
        num_modes = int(meta["num_modes"])
        # Pre-campaign checkpoints carry no feature metadata: default off.
        features = ObservationFeatures.from_dict(meta.get("features"))
        raw_context = meta.get("age_context")
        age_context = (
            (float(raw_context[0]), float(raw_context[1]))
            if raw_context is not None
            else None
        )
        network = GaussianPolicyNetwork(
            obs_dim=num_states + num_modes + features.extra_dims,
            action_dim=num_states**d * d,
            hidden_sizes=tuple(int(h) for h in meta["hidden_sizes"]),
        )
        state = {
            k[len("policy/") :]: v
            for k, v in arrays.items()
            if k.startswith("policy/")
        }
        network.load_state_dict(state)
        return cls(
            network,
            num_states=num_states,
            d=d,
            num_modes=num_modes,
            deterministic=deterministic,
            label=str(meta.get("label", "MF")),
            features=features,
            age_context=age_context,
        )


class DirichletMeanPolicy(UpperLevelPolicy):
    """Deterministic policy of a Dirichlet-head network: every block of
    the decision rule is that block's Dirichlet mean.

    Evaluation is float64: the policy holds a float64 copy of
    ``network`` made here, so later training does not reach it.
    """

    def __init__(
        self,
        network: DirichletPolicyNetwork,
        num_states: int,
        d: int,
        num_modes: int = 2,
    ) -> None:
        self.network = network.astype(np.float64)
        self.num_states = num_states
        self.d = d
        self.num_modes = num_modes

    @property
    def name(self) -> str:
        return "MF-Dirichlet"

    def decision_rule(
        self,
        nu: np.ndarray,
        lam_mode: int,
        rng: np.random.Generator | None = None,
    ) -> DecisionRule:
        one_hot = np.zeros(self.num_modes)
        one_hot[lam_mode] = 1.0
        obs = np.concatenate([np.asarray(nu), one_hot])
        logits = self.network(obs[None, :])
        mean = self.network.distribution.mean_action(logits)[0]
        return DecisionRule.from_flat(mean, self.num_states, self.d)
