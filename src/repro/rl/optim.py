"""Adam and global-norm gradient clipping over flat parameter buffers.

The networks in :mod:`repro.rl.nn` keep every parameter in one 1-D
buffer and write every gradient into one buffer with the same layout.
:class:`Adam` updates such a buffer in place in one pass of elementwise
operations at the buffer's dtype, and :func:`clip_grads_by_global_norm`
(RLlib's ``grad_clip`` semantics) is one dot product over the gradient.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Adam", "global_norm", "clip_grads_by_global_norm"]


def global_norm(grad: np.ndarray) -> float:
    """L2 norm of a flat gradient."""
    return math.sqrt(float(np.dot(grad, grad)))


def clip_grads_by_global_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale ``grad`` in place so its L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    norm = global_norm(grad)
    if norm > max_norm:
        grad *= max_norm / norm
    return norm


class Adam:
    """Adam (Kingma & Ba 2015) over one flat parameter buffer.

    ``step(grad)`` adds ``-lr * m_hat / (sqrt(v_hat) + eps)`` to
    ``params`` in place. The moments and two scratch arrays have the
    buffer's shape and dtype, and every elementwise operation happens in
    the order of the textbook per-array update, so each entry equals
    that update bit for bit at either dtype (tested against a per-key
    reference).
    """

    def __init__(
        self,
        params: np.ndarray,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-7,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError("betas must lie in [0, 1)")
        if params.ndim != 1:
            raise ValueError(f"params must be a 1-D buffer, got shape {params.shape}")
        # Python floats: a NumPy float64 scalar would promote a float32
        # buffer's arithmetic to float64.
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.params = params
        self._m = np.zeros_like(params)
        self._v = np.zeros_like(params)
        self._scratch = (np.empty_like(params), np.empty_like(params))
        self._t = 0

    def step(self, grad: np.ndarray) -> None:
        if grad.shape != self.params.shape:
            raise ValueError(
                f"gradient shape {grad.shape} != parameter shape "
                f"{self.params.shape}"
            )
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        m, v = self._m, self._v
        a, b = self._scratch
        # m = β1·m + (1-β1)·g
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=a)
        m += a
        # v = β2·v + (1-β2)·g²
        v *= self.beta2
        np.square(grad, out=a)
        a *= 1.0 - self.beta2
        v += a
        # params += (-lr · m/bias1) / (sqrt(v/bias2) + ε)
        np.divide(m, bias1, out=a)
        a *= -self.learning_rate
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += self.epsilon
        a /= b
        self.params += a

    @property
    def step_count(self) -> int:
        return self._t
