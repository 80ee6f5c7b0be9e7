"""Optimizer tests: Adam convergence and bit-identity, global-norm clipping."""

import numpy as np
import pytest

from repro.rl.optim import Adam, clip_grads_by_global_norm, global_norm

EPS32 = float(np.finfo(np.float32).eps)


class ReferenceAdam:
    """The textbook per-array Adam the flat :class:`Adam` must equal bit
    for bit: per-key moments, one update dict per step, applied by the
    caller (``params[k] += update[k]``)."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-7):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}
        self._t = 0

    def step(self, grads):
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        updates = {}
        for key, grad in grads.items():
            m = self._m[key]
            v = self._v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            m_hat = m / bias1
            v_hat = v / bias2
            updates[key] = -self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        return updates


_SHAPES = {"W0": (7, 5), "b0": (5,), "W1": (5, 3), "b1": (3,), "log_std": (3,)}


def _split(flat, shapes=_SHAPES):
    out, offset = {}, 0
    for key, shape in shapes.items():
        size = int(np.prod(shape))
        out[key] = flat[offset : offset + size].reshape(shape)
        offset += size
    return out


class TestGlobalNorm:
    def test_norm_of_known_vectors(self):
        assert global_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_clip_no_op_below_threshold(self):
        grad = np.array([0.3, 0.4])
        norm = clip_grads_by_global_norm(grad, 1.0)
        assert norm == pytest.approx(0.5)
        assert np.array_equal(grad, [0.3, 0.4])

    def test_clip_scales_to_max_norm(self):
        grad = np.array([30.0, 40.0])
        norm = clip_grads_by_global_norm(grad, 5.0)
        assert norm == pytest.approx(50.0)
        assert global_norm(grad) == pytest.approx(5.0)
        # direction preserved
        assert grad[0] / grad[1] == pytest.approx(3 / 4)

    def test_clip_rejects_bad_max(self):
        with pytest.raises(ValueError):
            clip_grads_by_global_norm(np.ones(1), 0.0)

    def test_zero_gradient_untouched(self):
        grad = np.zeros(3)
        norm = clip_grads_by_global_norm(grad, 1.0)
        assert norm == 0.0
        assert np.all(grad == 0)

    def test_float32_clip_matches_per_key_norm(self):
        """One float32 dot product vs the per-key norm of the same
        entries in float64. A sum of n non-negative float32 terms errs by
        at most (n-1)·u relative (u = eps/2) in any order, each square by
        u, and the square root halves the relative error: n·eps bounds
        the norm, and one more eps the scaled entries."""
        rng = np.random.default_rng(3)
        grad = rng.standard_normal(4_000).astype(np.float32)
        per_key = _split(grad.astype(np.float64), {"a": (1_000, 3), "b": (1_000,)})
        ref_norm = np.sqrt(sum(float(np.square(g).sum()) for g in per_key.values()))
        max_norm = 0.25 * ref_norm
        ref_clipped = grad.astype(np.float64) * (max_norm / ref_norm)
        n = grad.size
        norm = clip_grads_by_global_norm(grad, max_norm)
        assert grad.dtype == np.float32
        assert abs(norm - ref_norm) <= n * EPS32 * ref_norm
        np.testing.assert_allclose(grad, ref_clipped, rtol=(n + 1) * EPS32, atol=0)


class TestAdam:
    def test_minimizes_quadratic(self):
        x = np.array([5.0, -3.0])
        adam = Adam(x, learning_rate=0.1)
        for _ in range(500):
            adam.step(2 * x)
        assert np.allclose(x, 0.0, atol=1e-3)

    def test_minimizes_rosenbrock_slowly(self):
        p = np.array([-1.0, 1.0])
        adam = Adam(p, learning_rate=0.02)

        def grad(p):
            x, y = p
            return np.array([
                -2 * (1 - x) - 400 * x * (y - x**2),
                200 * (y - x**2),
            ])

        for _ in range(5000):
            adam.step(grad(p))
        assert np.allclose(p, [1.0, 1.0], atol=0.05)

    def test_first_step_magnitude_is_lr(self):
        """Bias correction makes the very first Adam step ≈ lr·sign(g)."""
        x = np.zeros(1)
        Adam(x, learning_rate=0.5).step(np.array([123.0]))
        assert x[0] == pytest.approx(-0.5, rel=1e-4)

    def test_rejects_shape_mismatch(self):
        adam = Adam(np.zeros(2), learning_rate=0.1)
        with pytest.raises(ValueError):
            adam.step(np.zeros(3))
        with pytest.raises(ValueError):
            Adam(np.zeros((2, 2)), learning_rate=0.1)

    def test_for_params_constructor(self, rng):
        """Adam is built over a parameter buffer and updates it in place."""
        params = rng.random(7)
        before = params.copy()
        adam = Adam(params, learning_rate=0.1)
        adam.step(np.ones(7))
        assert adam.params is params
        assert np.all(params < before)
        assert adam.step_count == 1

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            Adam(np.zeros(1), learning_rate=0.0)
        with pytest.raises(ValueError):
            Adam(np.zeros(1), learning_rate=0.1, beta1=1.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_flat_step_equals_per_key_reference_bitwise(self, dtype):
        """60 random steps with gradients of varied scale: every entry of
        the flat buffer equals the per-key reference, bit for bit."""
        rng = np.random.default_rng(11)
        size = sum(int(np.prod(s)) for s in _SHAPES.values())
        flat = rng.standard_normal(size).astype(dtype)
        ref_params = {k: v.copy() for k, v in _split(flat).items()}
        adam = Adam(flat, learning_rate=3e-3)
        ref = ReferenceAdam(ref_params, learning_rate=3e-3)
        for _ in range(60):
            grad = (
                rng.standard_normal(size) * 10.0 ** rng.uniform(-4, 2)
            ).astype(dtype)
            adam.step(grad)
            for key, delta in ref.step(_split(grad)).items():
                ref_params[key] += delta
            assert flat.dtype == dtype
            for key, view in _split(flat).items():
                assert view.tobytes() == ref_params[key].tobytes(), key
