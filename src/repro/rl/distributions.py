"""Action distributions with analytic gradients.

:class:`DiagGaussian` implements the diagonal Gaussian used by the
paper's PPO policy (mean from the network, free log-std).
:class:`DirichletBlocks` implements the paper's *negative ablation*: an
upper-level policy that outputs simplex-valued actions directly through
per-state Dirichlet distributions ("we found that performance was
significantly worse"). The action vector is a concatenation of ``S^d``
independent Dirichlet(d) blocks, one per sampled-state combination.

Both take the parameters a policy network's ``forward`` returns ahead of
its cache — ``(mu, log_std)`` for the Gaussian, ``(logits,)`` for the
Dirichlet blocks — as ``sample(*params, rng)``, ``log_prob(a, *params)``
and ``kl(*old, *new)``. Log-probability and KL gradients come back as one
array per parameter, in that order, ready for the network's
``backward(cache, *grads)``, so :class:`repro.rl.ppo.PPOTrainer` chains
either head through the same code.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["DiagGaussian", "DirichletBlocks"]

_LOG_2PI = float(np.log(2.0 * np.pi))


class DiagGaussian:
    """Stateless helpers for factorized Gaussian policies.

    All methods take batched parameters ``mu, log_std`` of shape
    ``(n, A)`` and return per-sample values of shape ``(n,)`` (or
    parameter-shaped gradients).
    """

    @staticmethod
    def sample(
        mu: np.ndarray, log_std: np.ndarray, rng=None
    ) -> np.ndarray:
        rng = as_generator(rng)
        eps = rng.standard_normal(mu.shape)
        return mu + np.exp(log_std) * eps

    @staticmethod
    def log_prob(
        actions: np.ndarray, mu: np.ndarray, log_std: np.ndarray
    ) -> np.ndarray:
        z = (actions - mu) / np.exp(log_std)
        return -0.5 * (z**2 + _LOG_2PI).sum(axis=-1) - log_std.sum(axis=-1)

    @staticmethod
    def log_prob_grads(
        actions: np.ndarray, mu: np.ndarray, log_std: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(d logp / d mu, d logp / d log_std)``, each ``(n, A)``."""
        inv_var = np.exp(-2.0 * log_std)
        diff = actions - mu
        d_mu = diff * inv_var
        d_log_std = diff**2 * inv_var - 1.0
        return d_mu, d_log_std

    @staticmethod
    def entropy(mu: np.ndarray, log_std: np.ndarray) -> np.ndarray:
        """Per-sample entropy; it does not depend on ``mu``."""
        return (log_std + 0.5 * (_LOG_2PI + 1.0)).sum(axis=-1)

    @staticmethod
    def entropy_grads(
        mu: np.ndarray, log_std: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(d entropy / d mu, d entropy / d log_std)`` — zero and one."""
        return np.zeros_like(mu), np.ones_like(log_std)

    @staticmethod
    def kl(
        mu_old: np.ndarray,
        log_std_old: np.ndarray,
        mu_new: np.ndarray,
        log_std_new: np.ndarray,
    ) -> np.ndarray:
        """``KL(old || new)`` per sample (the direction RLlib penalizes)."""
        var_old = np.exp(2.0 * log_std_old)
        var_new = np.exp(2.0 * log_std_new)
        term = (
            log_std_new
            - log_std_old
            + (var_old + (mu_old - mu_new) ** 2) / (2.0 * var_new)
            - 0.5
        )
        return term.sum(axis=-1)

    @staticmethod
    def kl_grads_new(
        mu_old: np.ndarray,
        log_std_old: np.ndarray,
        mu_new: np.ndarray,
        log_std_new: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradients of ``KL(old || new)`` w.r.t. the *new* parameters."""
        var_old = np.exp(2.0 * log_std_old)
        var_new = np.exp(2.0 * log_std_new)
        d_mu_new = (mu_new - mu_old) / var_new
        d_log_std_new = 1.0 - (var_old + (mu_old - mu_new) ** 2) / var_new
        return d_mu_new, d_log_std_new


class DirichletBlocks:
    """Concatenated independent Dirichlet blocks (paper's ablation head).

    The network emits one concentration logit per action component; the
    concentrations are ``alpha = softplus(logit) + 1`` (the ``+1`` keeps
    the density bounded, mirroring common practice and RLlib's Dirichlet
    action distribution). The action is the concatenation of
    ``num_blocks`` independent draws ``x_b ~ Dir(alpha_b)``, each of size
    ``block_size`` — i.e. already a valid decision-rule table. There is
    no entropy gradient, so PPO with this head takes no entropy bonus.

    The methods that need ``digamma`` or ``gammaln`` import
    ``scipy.special`` themselves, so only a process that trains or scores
    this head loads it.
    """

    def __init__(self, num_blocks: int, block_size: int) -> None:
        if num_blocks < 1 or block_size < 2:
            raise ValueError("need num_blocks >= 1 and block_size >= 2")
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.flat_dim = num_blocks * block_size

    # -- parameterization ------------------------------------------------
    @staticmethod
    def softplus(x: np.ndarray) -> np.ndarray:
        # Numerically stable softplus.
        return np.logaddexp(x, 0.0)

    def concentrations(self, logits: np.ndarray) -> np.ndarray:
        if logits.shape[-1] != self.flat_dim:
            raise ValueError(
                f"logits must end with dim {self.flat_dim}, got {logits.shape}"
            )
        return self.softplus(logits) + 1.0

    def _blocked(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(*flat.shape[:-1], self.num_blocks, self.block_size)

    # -- sampling / densities ---------------------------------------------
    def sample(self, logits: np.ndarray, rng=None, floor: float = 1e-8) -> np.ndarray:
        rng = as_generator(rng)
        alpha = self._blocked(self.concentrations(logits))
        gamma_draws = rng.gamma(shape=alpha)
        gamma_draws = np.maximum(gamma_draws, floor)
        x = gamma_draws / gamma_draws.sum(axis=-1, keepdims=True)
        return x.reshape(*logits.shape[:-1], self.flat_dim)

    def log_prob(self, actions: np.ndarray, logits: np.ndarray) -> np.ndarray:
        from scipy.special import gammaln

        alpha = self._blocked(self.concentrations(logits))
        x = np.clip(self._blocked(actions), 1e-12, 1.0)
        per_block = (
            gammaln(alpha.sum(axis=-1))
            - gammaln(alpha).sum(axis=-1)
            + ((alpha - 1.0) * np.log(x)).sum(axis=-1)
        )
        return per_block.sum(axis=-1)

    def log_prob_grads(
        self, actions: np.ndarray, logits: np.ndarray
    ) -> tuple[np.ndarray]:
        """``(d logp / d logits,)`` (chain rule through softplus)."""
        from scipy.special import digamma

        alpha = self._blocked(self.concentrations(logits))
        x = np.clip(self._blocked(actions), 1e-12, 1.0)
        alpha0 = alpha.sum(axis=-1, keepdims=True)
        d_alpha = digamma(alpha0) - digamma(alpha) + np.log(x)
        # softplus'(logit) = sigmoid(logit)
        sig = 1.0 / (1.0 + np.exp(-self._blocked(logits)))
        grad = d_alpha * sig
        return (grad.reshape(*logits.shape[:-1], self.flat_dim),)

    def entropy(self, logits: np.ndarray) -> np.ndarray:
        from scipy.special import digamma, gammaln

        alpha = self._blocked(self.concentrations(logits))
        alpha0 = alpha.sum(axis=-1)
        k = self.block_size
        log_beta = gammaln(alpha).sum(axis=-1) - gammaln(alpha0)
        ent = (
            log_beta
            + (alpha0 - k) * digamma(alpha0)
            - ((alpha - 1.0) * digamma(alpha)).sum(axis=-1)
        )
        return ent.sum(axis=-1)

    def kl(self, logits_old: np.ndarray, logits_new: np.ndarray) -> np.ndarray:
        """``KL(old || new)`` summed over blocks."""
        from scipy.special import digamma, gammaln

        a = self._blocked(self.concentrations(logits_old))
        b = self._blocked(self.concentrations(logits_new))
        a0 = a.sum(axis=-1, keepdims=True)
        term = (
            gammaln(a0[..., 0])
            - gammaln(a).sum(axis=-1)
            - gammaln(b.sum(axis=-1))
            + gammaln(b).sum(axis=-1)
            + ((a - b) * (digamma(a) - digamma(a0))).sum(axis=-1)
        )
        return term.sum(axis=-1)

    def kl_grads_new(
        self, logits_old: np.ndarray, logits_new: np.ndarray
    ) -> tuple[np.ndarray]:
        """``(d KL(old || new) / d logits_new,)``."""
        from scipy.special import digamma

        a = self._blocked(self.concentrations(logits_old))
        b = self._blocked(self.concentrations(logits_new))
        a0 = a.sum(axis=-1, keepdims=True)
        b0 = b.sum(axis=-1, keepdims=True)
        # d/db_i [ -lgamma(b0) + sum lgamma(b_j) - (a_i - b_i)(psi(a_i)-psi(a0)) ]
        d_b = -digamma(b0) + digamma(b) - (digamma(a) - digamma(a0))
        sig = 1.0 / (1.0 + np.exp(-self._blocked(logits_new)))
        grad = d_b * sig
        return (grad.reshape(*logits_new.shape[:-1], self.flat_dim),)

    def mean_action(self, logits: np.ndarray) -> np.ndarray:
        """Deterministic action: per-block Dirichlet mean ``alpha / alpha0``."""
        alpha = self._blocked(self.concentrations(logits))
        mean = alpha / alpha.sum(axis=-1, keepdims=True)
        return mean.reshape(*logits.shape[:-1], self.flat_dim)
