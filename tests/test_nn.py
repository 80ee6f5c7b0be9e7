"""Neural-network tests, including finite-difference gradient checks."""

import pickle

import numpy as np
import pytest

from repro.rl.nn import MLP, GaussianPolicyNetwork, ValueNetwork
from repro.rl.optim import Adam

EPS32 = float(np.finfo(np.float32).eps)
U32 = EPS32 / 2
# np.tanh at float32 is accurate to a few ulps; 4 is a generous ceiling.
TANH_ULPS = 4


def finite_difference_grads(mlp: MLP, x: np.ndarray, weights: np.ndarray, eps=1e-6):
    """Numerical gradient of L = sum(weights * mlp(x)) wrt every parameter."""
    grads = {}
    for key in mlp.params:
        param = mlp.params[key]
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            old = param[idx]
            param[idx] = old + eps
            up = float((mlp(x) * weights).sum())
            param[idx] = old - eps
            down = float((mlp(x) * weights).sum())
            param[idx] = old
            grad[idx] = (up - down) / (2 * eps)
            it.iternext()
        grads[key] = grad
    return grads


def _gamma(k: int) -> float:
    """Higham's γ_k: a k-term float32 sum of products errs by at most
    γ_k times the sum of absolute products, in any order."""
    return k * U32 / (1 - k * U32)


def float32_error_bounds(mlp: MLP, x: np.ndarray, grad_out: np.ndarray):
    """First-order bounds on |float32 - exact| for a tanh MLP's output and
    parameter gradients, from the standard model of float32 arithmetic.

    ``mlp`` is float64 and holds float32-representable parameters; ``x``
    and ``grad_out`` are float32-representable. Each matmul adds γ_k
    times the product of absolute values, each elementwise operation u
    relative, np.tanh ``TANH_ULPS`` ulps; propagated errors pass through
    |W| and tanh's Lipschitz constant 1. Returns
    ``(output_bound, {key: gradient_bound})``.
    """
    p = mlp.params
    hs, errs = [x], [np.zeros_like(x)]
    for layer in range(mlp.num_layers):
        w, b = p[f"W{layer}"], p[f"b{layer}"]
        h, e = hs[-1], errs[-1]
        z = h @ w + b
        ez = e @ np.abs(w) + _gamma(w.shape[0] + 1) * (
            np.abs(h) @ np.abs(w) + np.abs(b)
        )
        if layer == mlp.num_layers - 1:
            out_bound = ez
            break
        y = np.tanh(z)
        hs.append(y)
        errs.append(ez + TANH_ULPS * EPS32 * np.abs(y))
    bounds = {}
    delta, ed = grad_out, np.zeros_like(grad_out)
    n = x.shape[0]
    for layer in range(mlp.num_layers - 1, -1, -1):
        w = p[f"W{layer}"]
        h, eh = hs[layer], errs[layer]
        bounds[f"W{layer}"] = (
            np.abs(h).T @ ed + eh.T @ np.abs(delta)
            + _gamma(n) * (np.abs(h).T @ np.abs(delta))
        )
        bounds[f"b{layer}"] = ed.sum(axis=0) + _gamma(n) * np.abs(delta).sum(axis=0)
        if layer > 0:
            t = delta @ w.T
            et = ed @ np.abs(w).T + _gamma(w.shape[1]) * (np.abs(delta) @ np.abs(w).T)
            s = 1.0 - h**2
            es = 2.0 * np.abs(h) * eh + U32 * (h**2 + np.abs(s))
            delta = t * s
            ed = et * np.abs(s) + np.abs(t) * es + U32 * np.abs(delta)
    return out_bound, bounds


def _float32_pair(net64):
    """``net64`` cast to float32, and ``net64`` reloaded from the cast's
    state: the same parameters at both dtypes."""
    net32 = net64.astype(np.float32)
    net64.load_state_dict(net32.state_dict())
    return net32, net64


class TestMLP:
    def test_shapes(self, rng):
        mlp = MLP(4, (8, 6), 3, rng=rng)
        out, cache = mlp.forward(rng.random((10, 4)))
        assert out.shape == (10, 3)
        assert len(cache) == 3  # input + 2 hidden activations

    def test_single_sample_promoted(self, rng):
        mlp = MLP(4, (8,), 2, rng=rng)
        out, _ = mlp.forward(rng.random(4))
        assert out.shape == (1, 2)

    def test_rejects_wrong_input_dim(self, rng):
        mlp = MLP(4, (8,), 2, rng=rng)
        with pytest.raises(ValueError):
            mlp.forward(rng.random((3, 5)))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP(4, (8,), 2, activation="sigmoidish")

    def test_normc_initialization_column_norms(self, rng):
        mlp = MLP(10, (16,), 4, rng=rng, out_std=0.01)
        w0 = mlp.params["W0"]
        assert np.allclose(np.linalg.norm(w0, axis=0), 1.0)
        w1 = mlp.params["W1"]
        assert np.allclose(np.linalg.norm(w1, axis=0), 0.01)
        assert np.all(mlp.params["b0"] == 0)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_backward_matches_finite_differences(self, activation, rng):
        mlp = MLP(3, (5, 4), 2, activation=activation, rng=rng, out_std=0.5)
        x = rng.random((7, 3))
        weights = rng.standard_normal((7, 2))
        out, cache = mlp.forward(x)
        assert mlp.backward(cache, weights) is mlp.grad
        numeric = finite_difference_grads(mlp, x, weights)
        for key, analytic in mlp.grads.items():
            assert np.allclose(analytic, numeric[key], atol=1e-5), key

    def test_flat_roundtrip(self, rng):
        mlp = MLP(3, (5,), 2, rng=rng)
        flat = mlp.get_flat()
        mlp2 = MLP(3, (5,), 2, rng=np.random.default_rng(99))
        mlp2.set_flat(flat)
        x = rng.random((4, 3))
        assert np.allclose(mlp(x), mlp2(x))

    def test_set_flat_validates_size(self, rng):
        mlp = MLP(3, (5,), 2, rng=rng)
        with pytest.raises(ValueError):
            mlp.set_flat(np.zeros(3))

    def test_flat_accessors_copy(self, rng):
        """get_flat and set_flat copy; neither aliases the buffer."""
        mlp = MLP(3, (5,), 2, rng=rng)
        flat = mlp.get_flat()
        flat += 1.0
        assert not np.array_equal(mlp.get_flat(), flat)
        expected = flat.copy()
        mlp.set_flat(flat)
        flat[:] = 0.0
        assert np.array_equal(mlp.get_flat(), expected)
        # At float32 both copy through the dtype: out exact, in rounded.
        mlp32 = mlp.astype(np.float32)
        assert mlp32.get_flat().dtype == np.float64
        mlp32.set_flat(expected)
        assert np.array_equal(mlp32.buffer, expected.astype(np.float32))

    def test_num_parameters(self):
        mlp = MLP(3, (5,), 2, rng=0)
        assert mlp.num_parameters() == 3 * 5 + 5 + 5 * 2 + 2

    def test_params_are_views_of_one_buffer(self, rng):
        mlp = MLP(3, (5, 4), 2, rng=rng)
        assert mlp.buffer.ndim == 1 and mlp.buffer.size == mlp.num_parameters()
        # Evaluation networks hold no gradient; the first backward makes it.
        assert mlp.grad is None
        out, cache = mlp.forward(rng.random((4, 3)))
        assert mlp.backward(cache, np.ones_like(out)) is mlp.grad
        assert mlp.grad.shape == mlp.buffer.shape
        offset = 0
        for key in ("W0", "b0", "W1", "b1", "W2", "b2"):
            view = mlp.params[key]
            assert np.shares_memory(view, mlp.buffer), key
            assert np.array_equal(view.ravel(), mlp.buffer[offset : offset + view.size])
            assert np.shares_memory(mlp.grads[key], mlp.grad), key
            offset += view.size
        with pytest.raises(TypeError):
            mlp.params["W0"] = np.zeros((3, 5))


class TestGaussianPolicyNetwork:
    def test_forward_shapes(self, rng):
        net = GaussianPolicyNetwork(4, 6, (8,), rng=rng)
        mu, log_std, _ = net.forward(rng.random((5, 4)))
        assert mu.shape == (5, 6)
        assert log_std.shape == (5, 6)

    def test_initial_log_std(self, rng):
        net = GaussianPolicyNetwork(4, 6, (8,), initial_log_std=-1.5, rng=rng)
        assert np.allclose(net.log_std, -1.5)

    def test_backward_includes_log_std(self, rng):
        net = GaussianPolicyNetwork(4, 3, (8,), rng=rng)
        obs = rng.random((5, 4))
        _, _, cache = net.forward(obs)
        grad = net.backward(cache, np.ones((5, 3)), 2 * np.ones((5, 3)))
        assert grad.shape == net.buffer.shape
        assert np.allclose(net.grads["log_std"], 10.0)  # summed over batch
        assert np.array_equal(grad[-3:], net.grads["log_std"])

    def test_apply_update(self, rng):
        """An update added to the buffer reaches log_std, its tail."""
        net = GaussianPolicyNetwork(4, 3, (8,), rng=rng)
        before = net.log_std.copy()
        net.buffer[-3:] += 0.25
        assert np.allclose(net.log_std, before + 0.25)
        assert np.shares_memory(net.trunk.buffer, net.buffer)

    def test_state_dict_roundtrip(self, rng):
        net = GaussianPolicyNetwork(4, 3, (8, 8), rng=rng)
        state = net.state_dict()
        net2 = GaussianPolicyNetwork(4, 3, (8, 8), rng=np.random.default_rng(1))
        net2.load_state_dict(state)
        obs = rng.random((6, 4))
        mu1, ls1, _ = net.forward(obs)
        mu2, ls2, _ = net2.forward(obs)
        assert np.allclose(mu1, mu2)
        assert np.allclose(ls1, ls2)

    def test_load_rejects_unknown_keys(self, rng):
        net = GaussianPolicyNetwork(4, 3, (8,), rng=rng)
        with pytest.raises(ValueError):
            net.load_state_dict({"bogus": np.zeros(3)})

    def test_load_rejects_shape_mismatch(self, rng):
        net = GaussianPolicyNetwork(4, 3, (8,), rng=rng)
        state = net.state_dict()
        state["log_std"] = np.zeros(5)
        before = net.buffer.copy()
        with pytest.raises(ValueError, match="shape mismatch for 'log_std'"):
            net.load_state_dict(state)
        assert np.array_equal(net.buffer, before)

    def test_load_rejects_incomplete_state(self, rng):
        """A state without one layer must not load: the layer would keep
        its random initialization."""
        net = GaussianPolicyNetwork(4, 3, (8, 8), rng=rng)
        state = GaussianPolicyNetwork(4, 3, (8, 8), rng=1).state_dict()
        del state["trunk/W1"]
        before = net.buffer.copy()
        missing = r"missing keys \['trunk/W1'\], unknown keys \[\]"
        with pytest.raises(ValueError, match=missing):
            net.load_state_dict(state)
        assert np.array_equal(net.buffer, before)
        state["trunk/W1"] = np.zeros((8, 8))
        state["trunk/W9"] = np.zeros((8, 8))
        unknown = r"missing keys \[\], unknown keys \['trunk/W9'\]"
        with pytest.raises(ValueError, match=unknown):
            net.load_state_dict(state)
        assert np.array_equal(net.buffer, before)

    def test_float32_state_dict_is_exact_float64(self, rng):
        net = GaussianPolicyNetwork(4, 3, (8,), rng=rng)
        net32 = net.astype(np.float32)
        assert net32.dtype == np.float32 and net.dtype == np.float64
        for key, value in net32.state_dict().items():
            assert value.dtype == np.float64
            assert np.array_equal(value, net.state_dict()[key].astype(np.float32)), key
        # Loading rounds into the buffer dtype.
        net32.load_state_dict(net.state_dict())
        assert np.array_equal(net32.buffer, net.buffer.astype(np.float32))

    def test_float32_forward_backward_match_float64(self, rng):
        """The float32 network against the float64 network loaded from its
        state: every output and gradient entry within the float32 rounding
        bound of :func:`float32_error_bounds`."""
        net32, net64 = _float32_pair(
            GaussianPolicyNetwork(10, 8, (64, 64), initial_log_std=-0.5, rng=rng)
        )
        obs = rng.random((32, 10)).astype(np.float32).astype(np.float64)
        g_mu = rng.standard_normal((32, 8)).astype(np.float32).astype(np.float64)
        g_ls = rng.standard_normal((32, 8)).astype(np.float32).astype(np.float64)
        mu64, ls64, cache64 = net64.forward(obs)
        mu32, ls32, cache32 = net32.forward(obs)
        assert mu32.dtype == np.float32
        out_bound, grad_bounds = float32_error_bounds(net64.trunk, obs, g_mu)
        assert np.all(np.abs(mu32 - mu64) <= out_bound)
        assert np.array_equal(ls32, ls64)
        net64.backward(cache64, g_mu, g_ls)
        grad32 = net32.backward(cache32, g_mu, g_ls)
        assert grad32.dtype == np.float32
        for key, bound in grad_bounds.items():
            diff = np.abs(net32.trunk.grads[key] - net64.trunk.grads[key])
            assert np.all(diff <= bound), key
        ls_bound = _gamma(32) * np.abs(g_ls).sum(axis=0)
        ls_diff = np.abs(net32.grads["log_std"] - net64.grads["log_std"])
        assert np.all(ls_diff <= ls_bound)

    def test_pickle_keeps_params_views_of_the_buffer(self, rng):
        """The sweep executor pickles policies to workers; an unpickled
        network must still train through its buffer."""
        net = GaussianPolicyNetwork(4, 3, (8,), rng=rng).astype(np.float32)
        clone = pickle.loads(pickle.dumps(net))
        assert clone.dtype == np.float32
        assert np.array_equal(clone.buffer, net.buffer)
        for key, view in clone.params.items():
            assert np.shares_memory(view, clone.buffer), key
        assert np.shares_memory(clone.trunk.buffer, clone.buffer)
        obs = rng.random((5, 4))
        mu, _, cache = clone.forward(obs)
        grad = clone.backward(cache, np.ones_like(mu), np.ones_like(mu))
        Adam(clone.buffer, learning_rate=0.1).step(grad)
        mu_after, ls_after, _ = clone.forward(obs)
        assert not np.array_equal(mu_after, mu)
        assert not np.array_equal(ls_after[0], net.log_std)
        assert np.array_equal(net.forward(obs)[0], mu)


class TestValueNetwork:
    def test_scalar_output(self, rng):
        net = ValueNetwork(4, (8,), rng=rng)
        values = net(rng.random((9, 4)))
        assert values.shape == (9,)

    def test_backward_matches_finite_differences(self, rng):
        net = ValueNetwork(3, (6,), rng=rng)
        obs = rng.random((5, 3))
        weights = rng.standard_normal(5)
        _, cache = net.forward(obs)
        net.backward(cache, weights)
        numeric = finite_difference_grads(net.trunk, obs, weights[:, None])
        for key, analytic in net.grads.items():
            assert np.allclose(analytic, numeric[key], atol=1e-5), key

    def test_state_dict_roundtrip(self, rng):
        net = ValueNetwork(4, (8,), rng=rng)
        net2 = ValueNetwork(4, (8,), rng=np.random.default_rng(5))
        net2.load_state_dict(net.state_dict())
        obs = rng.random((3, 4))
        assert np.allclose(net(obs), net2(obs))

    def test_load_rejects_incomplete_state(self, rng):
        net = ValueNetwork(4, (8,), rng=rng)
        state = ValueNetwork(4, (8,), rng=1).state_dict()
        del state["trunk/b0"]
        before = net.buffer.copy()
        missing = r"missing keys \['trunk/b0'\], unknown keys \[\]"
        with pytest.raises(ValueError, match=missing):
            net.load_state_dict(state)
        assert np.array_equal(net.buffer, before)

    def test_float32_forward_backward_match_float64(self, rng):
        net32, net64 = _float32_pair(ValueNetwork(10, (64, 64), rng=rng))
        obs = rng.random((32, 10)).astype(np.float32).astype(np.float64)
        g_v = rng.standard_normal(32).astype(np.float32).astype(np.float64)
        v64, cache64 = net64.forward(obs)
        v32, cache32 = net32.forward(obs)
        out_bound, grad_bounds = float32_error_bounds(net64.trunk, obs, g_v[:, None])
        assert np.all(np.abs(v32 - v64) <= out_bound[:, 0])
        net64.backward(cache64, g_v)
        net32.backward(cache32, g_v)
        for key, bound in grad_bounds.items():
            assert np.all(np.abs(net32.grads[key] - net64.grads[key]) <= bound), key

    def test_pickle_keeps_params_views_of_the_buffer(self, rng):
        net = ValueNetwork(4, (8,), rng=rng)
        clone = pickle.loads(pickle.dumps(net))
        for key, view in clone.params.items():
            assert np.shares_memory(view, clone.buffer), key
        obs = rng.random((5, 4))
        values, cache = clone.forward(obs)
        Adam(clone.buffer, learning_rate=0.1).step(clone.backward(cache, np.ones(5)))
        assert not np.array_equal(clone(obs), values)
        assert np.array_equal(net(obs), values)
