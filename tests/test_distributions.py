"""Tests for action distributions: values vs scipy, gradients vs FD."""

import numpy as np
import pytest
from scipy import stats as sp_stats

from repro.rl.distributions import DiagGaussian, DirichletBlocks


class TestDiagGaussianValues:
    def test_log_prob_matches_scipy(self, rng):
        mu = rng.standard_normal((6, 3))
        log_std = rng.uniform(-1, 0.5, size=(6, 3))
        actions = rng.standard_normal((6, 3))
        ours = DiagGaussian.log_prob(actions, mu, log_std)
        ref = np.array([
            sp_stats.multivariate_normal(
                mean=mu[i], cov=np.diag(np.exp(2 * log_std[i]))
            ).logpdf(actions[i])
            for i in range(6)
        ])
        assert np.allclose(ours, ref)

    def test_entropy_matches_scipy(self, rng):
        log_std = rng.uniform(-1, 1, size=(4, 3))
        ours = DiagGaussian.entropy(rng.standard_normal((4, 3)), log_std)
        ref = np.array([
            sp_stats.multivariate_normal(
                mean=np.zeros(3), cov=np.diag(np.exp(2 * log_std[i]))
            ).entropy()
            for i in range(4)
        ])
        assert np.allclose(ours, ref)

    def test_kl_self_is_zero(self, rng):
        mu = rng.standard_normal((5, 3))
        log_std = rng.uniform(-1, 1, size=(5, 3))
        assert np.allclose(DiagGaussian.kl(mu, log_std, mu, log_std), 0.0)

    def test_kl_nonnegative(self, rng):
        a = rng.standard_normal((20, 4)), rng.uniform(-1, 1, (20, 4))
        b = rng.standard_normal((20, 4)), rng.uniform(-1, 1, (20, 4))
        assert np.all(DiagGaussian.kl(a[0], a[1], b[0], b[1]) >= 0)

    def test_kl_closed_form_univariate(self):
        """Check against the scalar formula for a hand-picked case."""
        mu_old, ls_old = np.array([[0.0]]), np.array([[0.0]])
        mu_new, ls_new = np.array([[1.0]]), np.array([[np.log(2.0)]])
        expected = np.log(2) + (1 + 1) / (2 * 4) - 0.5
        assert DiagGaussian.kl(mu_old, ls_old, mu_new, ls_new)[0] == pytest.approx(
            expected
        )

    def test_sampling_moments(self, rng):
        mu = np.array([[1.0, -2.0]])
        log_std = np.array([[np.log(0.5), np.log(2.0)]])
        samples = np.concatenate(
            [DiagGaussian.sample(mu, log_std, rng) for _ in range(20000)]
        )
        assert np.allclose(samples.mean(axis=0), [1.0, -2.0], atol=0.05)
        assert np.allclose(samples.std(axis=0), [0.5, 2.0], atol=0.05)


class TestDiagGaussianGrads:
    def _fd(self, f, x, eps=1e-6):
        grad = np.zeros_like(x)
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            old = x[idx]
            x[idx] = old + eps
            up = f()
            x[idx] = old - eps
            down = f()
            x[idx] = old
            grad[idx] = (up - down) / (2 * eps)
            it.iternext()
        return grad

    def test_log_prob_grads(self, rng):
        mu = rng.standard_normal((3, 2))
        log_std = rng.uniform(-1, 0.5, (3, 2))
        actions = rng.standard_normal((3, 2))
        d_mu, d_ls = DiagGaussian.log_prob_grads(actions, mu, log_std)
        num_mu = self._fd(
            lambda: DiagGaussian.log_prob(actions, mu, log_std).sum(), mu
        )
        num_ls = self._fd(
            lambda: DiagGaussian.log_prob(actions, mu, log_std).sum(), log_std
        )
        assert np.allclose(d_mu, num_mu, atol=1e-5)
        assert np.allclose(d_ls, num_ls, atol=1e-5)

    def test_kl_grads_new(self, rng):
        mu_old = rng.standard_normal((3, 2))
        ls_old = rng.uniform(-1, 0.5, (3, 2))
        mu_new = rng.standard_normal((3, 2))
        ls_new = rng.uniform(-1, 0.5, (3, 2))
        d_mu, d_ls = DiagGaussian.kl_grads_new(mu_old, ls_old, mu_new, ls_new)
        num_mu = self._fd(
            lambda: DiagGaussian.kl(mu_old, ls_old, mu_new, ls_new).sum(), mu_new
        )
        num_ls = self._fd(
            lambda: DiagGaussian.kl(mu_old, ls_old, mu_new, ls_new).sum(), ls_new
        )
        assert np.allclose(d_mu, num_mu, atol=1e-5)
        assert np.allclose(d_ls, num_ls, atol=1e-5)

    def test_entropy_grad(self, rng):
        mu = rng.standard_normal((4, 3))
        log_std = rng.uniform(-1, 1, (4, 3))
        d_mu, d_ls = DiagGaussian.entropy_grads(mu, log_std)
        num_mu = self._fd(lambda: DiagGaussian.entropy(mu, log_std).sum(), mu)
        num_ls = self._fd(
            lambda: DiagGaussian.entropy(mu, log_std).sum(), log_std
        )
        assert np.allclose(d_mu, num_mu, atol=1e-5)
        assert np.allclose(d_ls, num_ls, atol=1e-5)
        assert np.allclose(d_ls, 1.0)


class TestDirichletBlocks:
    def test_sample_lands_on_block_simplices(self, rng):
        head = DirichletBlocks(num_blocks=4, block_size=3)
        logits = rng.standard_normal((5, 12))
        x = head.sample(logits, rng)
        blocks = x.reshape(5, 4, 3)
        assert np.allclose(blocks.sum(axis=-1), 1.0)
        assert np.all(blocks > 0)

    def test_log_prob_matches_scipy(self, rng):
        head = DirichletBlocks(num_blocks=2, block_size=3)
        logits = rng.standard_normal(6)
        alpha = head.concentrations(logits).reshape(2, 3)
        x = np.stack([rng.dirichlet(alpha[0]), rng.dirichlet(alpha[1])])
        ours = head.log_prob(x.ravel()[None, :], logits[None, :])[0]
        ref = sp_stats.dirichlet(alpha[0]).logpdf(x[0]) + sp_stats.dirichlet(
            alpha[1]
        ).logpdf(x[1])
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_entropy_matches_scipy(self, rng):
        head = DirichletBlocks(num_blocks=2, block_size=4)
        logits = rng.standard_normal(8)
        alpha = head.concentrations(logits).reshape(2, 4)
        ours = head.entropy(logits[None, :])[0]
        ref = sum(sp_stats.dirichlet(a).entropy() for a in alpha)
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_kl_self_zero_and_nonnegative(self, rng):
        head = DirichletBlocks(num_blocks=3, block_size=2)
        a = rng.standard_normal((5, 6))
        b = rng.standard_normal((5, 6))
        assert np.allclose(head.kl(a, a), 0.0, atol=1e-12)
        assert np.all(head.kl(a, b) >= -1e-12)

    def test_log_prob_grad_matches_fd(self, rng):
        head = DirichletBlocks(num_blocks=2, block_size=3)
        logits = rng.standard_normal((1, 6))
        x = head.sample(logits, rng)
        (analytic,) = head.log_prob_grads(x, logits)
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for j in range(6):
            up = logits.copy()
            up[0, j] += eps
            down = logits.copy()
            down[0, j] -= eps
            numeric[0, j] = (
                head.log_prob(x, up)[0] - head.log_prob(x, down)[0]
            ) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_kl_grad_matches_fd(self, rng):
        head = DirichletBlocks(num_blocks=2, block_size=2)
        old = rng.standard_normal((1, 4))
        new = rng.standard_normal((1, 4))
        (analytic,) = head.kl_grads_new(old, new)
        eps = 1e-6
        numeric = np.zeros_like(new)
        for j in range(4):
            up = new.copy()
            up[0, j] += eps
            down = new.copy()
            down[0, j] -= eps
            numeric[0, j] = (head.kl(old, up)[0] - head.kl(old, down)[0]) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_mean_action_is_block_mean(self, rng):
        head = DirichletBlocks(num_blocks=2, block_size=3)
        logits = rng.standard_normal((1, 6))
        mean = head.mean_action(logits).reshape(2, 3)
        alpha = head.concentrations(logits).reshape(2, 3)
        assert np.allclose(mean, alpha / alpha.sum(axis=-1, keepdims=True))
        assert np.allclose(mean.sum(axis=-1), 1.0)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            DirichletBlocks(0, 3)
        with pytest.raises(ValueError):
            DirichletBlocks(2, 1)
        head = DirichletBlocks(2, 3)
        with pytest.raises(ValueError):
            head.concentrations(np.zeros(5))
