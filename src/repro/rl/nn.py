"""Multi-layer perceptrons with manual backpropagation (NumPy only).

The paper's policy network (Figure 2) is a 2x256 tanh MLP with a
Gaussian head (mean + log standard deviation); the value function uses
the same trunk architecture. Since no autodiff framework is available
offline we implement forward/backward passes by hand; the gradients are
verified against central finite differences in the test suite.

Initialization follows RLlib's ``normc`` scheme: weights are sampled
standard normal and rescaled so each output column has a fixed L2 norm
(1.0 for hidden layers, 0.01 for output heads), biases start at zero.

Every network keeps all its parameters, ``log_std`` included, as views
into one contiguous 1-D :attr:`~MLP.buffer`, and ``backward`` writes
into one gradient buffer :attr:`~MLP.grad` with the same layout (made
by the first ``backward``, so evaluation networks never hold one), so
:class:`repro.rl.optim.Adam` updates a whole network in a handful of
elementwise passes. A network's dtype is its buffer's. The PPO trainer
trains float32 copies (:meth:`~MLP.astype`); :meth:`~MLP.state_dict`
always returns float64 (an exact upcast) and :meth:`~MLP.load_state_dict`
rounds into the buffer's dtype, so checkpoints are float64 whatever
dtype a network trained at.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from repro.rl.distributions import DiagGaussian, DirichletBlocks
from repro.utils.rng import as_generator

__all__ = [
    "MLP",
    "GaussianPolicyNetwork",
    "DirichletPolicyNetwork",
    "ValueNetwork",
    "widen_input_weights",
]

# Module-level named functions (not lambdas) so that networks — and the
# policies wrapping them — stay picklable across process boundaries
# (the sharded sweep executor ships policies to worker processes).
def _tanh_grad(y: np.ndarray) -> np.ndarray:
    # Derivative expressed through the activation output: 1 - tanh².
    return 1.0 - y**2


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_grad(y: np.ndarray) -> np.ndarray:
    return (y > 0).astype(y.dtype)


_ACTIVATIONS = {
    "tanh": (np.tanh, _tanh_grad),
    "relu": (_relu, _relu_grad),
}


def _normc_init(
    rng: np.random.Generator, fan_in: int, fan_out: int, std: float
) -> np.ndarray:
    w = rng.standard_normal((fan_in, fan_out))
    w *= std / np.sqrt(np.square(w).sum(axis=0, keepdims=True))
    return w


def _views(
    flat: np.ndarray, shapes: Mapping[str, tuple[int, ...]]
) -> Mapping[str, np.ndarray]:
    """Read-only mapping of consecutive views of ``flat``, one per shape.

    The mapping refuses item assignment: rebinding an entry would
    silently detach that parameter from the buffer the optimizer
    updates. Write through the views instead (``params[k][...] = x``).
    """
    views = {}
    offset = 0
    for key, shape in shapes.items():
        size = math.prod(shape)
        views[key] = flat[offset : offset + size].reshape(shape)
        offset += size
    return MappingProxyType(views)


class _FlatNetwork:
    """What every network shares: one buffer, its dtype and float64
    checkpoints.

    Subclasses set :attr:`buffer` and :attr:`grad` (``None`` until the
    first backward) in ``_bind`` and map checkpoint keys to parameter
    views in ``_state_views``.
    """

    buffer: np.ndarray
    grad: np.ndarray | None

    def _bind(self, buffer: np.ndarray) -> None:  # pragma: no cover
        raise NotImplementedError

    def _state_views(self) -> Mapping[str, np.ndarray]:  # pragma: no cover
        raise NotImplementedError

    @property
    def dtype(self) -> np.dtype:
        return self.buffer.dtype

    def num_parameters(self) -> int:
        return self.buffer.size

    def astype(self, dtype) -> "_FlatNetwork":
        """A copy of this network whose buffer is cast to ``dtype``."""
        clone = copy.deepcopy(self)
        clone._bind(self.buffer.astype(dtype))
        return clone

    def state_dict(self) -> dict[str, np.ndarray]:
        """Float64 copies of every parameter (exact at any buffer dtype)."""
        return {k: v.astype(np.float64) for k, v in self._state_views().items()}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Write ``state`` into the buffer, rounding to its dtype.

        ``state`` must hold exactly this network's keys with matching
        shapes; anything else raises before a single value is written.
        """
        views = self._state_views()
        missing = sorted(set(views) - set(state))
        unknown = sorted(set(state) - set(views))
        if missing or unknown:
            raise ValueError(
                "state dict does not match the network: "
                f"missing keys {missing}, unknown keys {unknown}"
            )
        for key, view in views.items():
            shape = np.shape(state[key])
            if shape != view.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: {shape} != {view.shape}"
                )
        for key, view in views.items():
            view[...] = state[key]


class MLP(_FlatNetwork):
    """Fully connected network ``in_dim -> hidden_sizes -> out_dim``.

    Parameters ``W0, b0, W1, b1, ...`` are views into one 1-D
    :attr:`buffer`, in that order; :attr:`params` maps their names to the
    views and :attr:`grads` does the same for the gradient buffer
    :attr:`grad` once a backward pass has made it.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_sizes: tuple[int, ...],
        out_dim: int,
        activation: str = "tanh",
        out_std: float = 0.01,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if in_dim < 1 or out_dim < 1:
            raise ValueError("in_dim and out_dim must be >= 1")
        if activation not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; have {sorted(_ACTIVATIONS)}"
            )
        rng = as_generator(rng)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden_sizes = tuple(hidden_sizes)
        self.activation = activation
        self._act, self._act_grad = _ACTIVATIONS[activation]
        sizes = [in_dim, *self.hidden_sizes, out_dim]
        self.num_layers = len(sizes) - 1
        self._shapes: dict[str, tuple[int, ...]] = {}
        for layer in range(self.num_layers):
            self._shapes[f"W{layer}"] = (sizes[layer], sizes[layer + 1])
            self._shapes[f"b{layer}"] = (sizes[layer + 1],)
        self._bind(np.zeros(sum(math.prod(s) for s in self._shapes.values())))
        for layer in range(self.num_layers):
            is_output = layer == self.num_layers - 1
            std = out_std if is_output else 1.0
            self.params[f"W{layer}"][...] = _normc_init(
                rng, sizes[layer], sizes[layer + 1], std
            )

    def _bind(self, buffer: np.ndarray, grad: np.ndarray | None = None) -> None:
        """Make every parameter a view of ``buffer`` and every gradient a
        view of ``grad`` (``None``: the next backward makes one)."""
        self.buffer = buffer
        self.params = _views(buffer, self._shapes)
        self._layers = [
            (self.params[f"W{i}"], self.params[f"b{i}"])
            for i in range(self.num_layers)
        ]
        self.grad = grad
        self.grads = None if grad is None else _views(grad, self._shapes)

    def _state_views(self) -> Mapping[str, np.ndarray]:
        return self.params

    # Views do not survive pickling (each would come back as an array of
    # its own), so only the buffer is pickled and the views are rebuilt.
    _DERIVED = ("grad", "params", "grads", "_layers")

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in self._DERIVED}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind(self.buffer)

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass at the network's dtype; returns ``(output, cache)``.

        ``x`` has shape ``(n, in_dim)`` and is cast to :attr:`dtype`; the
        cache holds the input and every post-activation hidden output.
        """
        x = np.asarray(x, dtype=self.buffer.dtype)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input dim {x.shape[1]} != {self.in_dim}")
        cache = [x]
        h = x
        for w, b in self._layers[:-1]:
            h = self._act(h @ w + b)
            cache.append(h)
        w, b = self._layers[-1]
        return h @ w + b, cache

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache: list[np.ndarray], grad_out: np.ndarray) -> np.ndarray:
        """Gradients of ``sum(grad_out * output)`` w.r.t. all parameters.

        ``grad_out`` has shape ``(n, out_dim)`` — the upstream gradient.
        Writes every parameter's gradient (summed over the batch; divide
        upstream by ``n`` for a mean loss) into :attr:`grad` and returns
        that buffer; the next call overwrites it.
        """
        grad_out = np.asarray(grad_out, dtype=self.buffer.dtype)
        if grad_out.ndim == 1:
            grad_out = grad_out[None, :]
        if self.grad is None:
            # Every entry is written below.
            self._bind(self.buffer, np.empty_like(self.buffer))
        delta = grad_out
        for layer in range(self.num_layers - 1, -1, -1):
            np.matmul(cache[layer].T, delta, out=self.grads[f"W{layer}"])
            np.sum(delta, axis=0, out=self.grads[f"b{layer}"])
            if layer > 0:
                delta = delta @ self._layers[layer][0].T
                delta = delta * self._act_grad(cache[layer])
        return self.grad

    # ------------------------------------------------------------------
    def get_flat(self) -> np.ndarray:
        """A float64 copy of :attr:`buffer`."""
        return self.buffer.astype(np.float64)

    def set_flat(self, flat: np.ndarray) -> None:
        """Copy ``flat`` into :attr:`buffer` (rounding to its dtype)."""
        flat = np.asarray(flat)
        if flat.shape != self.buffer.shape:
            raise ValueError(
                f"flat vector has shape {flat.shape}, need {self.buffer.shape}"
            )
        self.buffer[...] = flat


def widen_input_weights(
    state: dict[str, np.ndarray], extra_dims: int
) -> dict[str, np.ndarray]:
    """Adapt a network state dict to ``extra_dims`` appended inputs.

    Pads the first-layer weight matrix (``trunk/W0`` for the networks in
    this module) with zero rows for the new trailing observation
    dimensions. A network loaded from the widened state is *functionally
    identical* to the original on any observation whose appended
    features it ignores — which makes this the exact warm start for
    fine-tuning a paper-input checkpoint on a feature-augmented
    observation: training starts from the transplanted policy and can
    only move away from it where the new context helps.
    """
    if extra_dims < 0:
        raise ValueError(f"extra_dims must be >= 0, got {extra_dims}")
    out = {k: np.asarray(v, dtype=np.float64).copy() for k, v in state.items()}
    if extra_dims == 0:
        return out
    for key in ("trunk/W0", "W0"):
        if key in out:
            w0 = out[key]
            out[key] = np.vstack(
                [w0, np.zeros((extra_dims, w0.shape[1]))]
            )
            return out
    raise ValueError("state dict has no first-layer weights (trunk/W0 or W0)")


class GaussianPolicyNetwork(_FlatNetwork):
    """Diagonal-Gaussian policy: MLP mean head + free (state-independent)
    log standard deviation, as in RLlib's default continuous-action
    model. Parameter keys are the trunk's plus ``log_std``, which sits
    at the tail of the buffer, after the trunk's parameters."""

    distribution = DiagGaussian

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        hidden_sizes: tuple[int, ...] = (256, 256),
        initial_log_std: float = 0.0,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        rng = as_generator(rng)
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.trunk = MLP(obs_dim, hidden_sizes, action_dim, rng=rng)
        self._bind(
            np.concatenate(
                [self.trunk.buffer, np.full(action_dim, float(initial_log_std))]
            )
        )

    def _bind(self, buffer: np.ndarray, grad: np.ndarray | None = None) -> None:
        n = buffer.size - self.action_dim
        self.buffer = buffer
        self.grad = grad
        self.trunk._bind(buffer[:n], None if grad is None else grad[:n])
        self.params = MappingProxyType(
            {**self.trunk.params, "log_std": buffer[n:]}
        )
        self.grads = (
            None
            if grad is None
            else MappingProxyType({**self.trunk.grads, "log_std": grad[n:]})
        )

    def _state_views(self) -> Mapping[str, np.ndarray]:
        views = {f"trunk/{k}": v for k, v in self.trunk.params.items()}
        views["log_std"] = self.log_std
        return views

    def __getstate__(self) -> dict:
        # The trunk pickles its own slice of the buffer; keep the tail.
        state = {
            k: v
            for k, v in self.__dict__.items()
            if k not in ("buffer", "grad", "params", "grads")
        }
        state["log_std"] = self.log_std
        return state

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        tail = state.pop("log_std")
        self.__dict__.update(state)
        self._bind(np.concatenate([self.trunk.buffer, tail]))

    @property
    def log_std(self) -> np.ndarray:
        return self.params["log_std"]

    def forward(
        self, obs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Returns ``(mu, log_std_batch, cache)`` with shapes
        ``(n, A)``, ``(n, A)``."""
        mu, cache = self.trunk.forward(obs)
        log_std = np.broadcast_to(self.log_std, mu.shape)
        return mu, log_std, cache

    def backward(
        self,
        cache: list[np.ndarray],
        grad_mu: np.ndarray,
        grad_log_std: np.ndarray,
    ) -> np.ndarray:
        """Writes the trunk's and ``log_std``'s gradients into
        :attr:`grad` and returns it (see :meth:`MLP.backward`)."""
        if self.grad is None:
            self._bind(self.buffer, np.empty_like(self.buffer))
        self.trunk.backward(cache, grad_mu)
        np.sum(
            np.asarray(grad_log_std, dtype=self.buffer.dtype),
            axis=0,
            out=self.grads["log_std"],
        )
        return self.grad


class DirichletPolicyNetwork(MLP):
    """Dirichlet-block policy (the paper's ablation head): an MLP whose
    output is one concentration logit per action component of its
    :attr:`distribution`. ``forward`` returns ``(logits, cache)``."""

    def __init__(
        self,
        obs_dim: int,
        head: DirichletBlocks,
        hidden_sizes: tuple[int, ...] = (256, 256),
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(obs_dim, hidden_sizes, head.flat_dim, rng=rng)
        self.distribution = head
        self.obs_dim = obs_dim
        self.action_dim = head.flat_dim


class ValueNetwork(_FlatNetwork):
    """State-value function: MLP with a scalar output head. Its buffer is
    the trunk's."""

    def __init__(
        self,
        obs_dim: int,
        hidden_sizes: tuple[int, ...] = (256, 256),
        rng: int | np.random.Generator | None = None,
    ) -> None:
        rng = as_generator(rng)
        self.obs_dim = obs_dim
        self.trunk = MLP(obs_dim, hidden_sizes, 1, rng=rng)

    def _bind(self, buffer: np.ndarray) -> None:
        self.trunk._bind(buffer)

    def _state_views(self) -> Mapping[str, np.ndarray]:
        return {f"trunk/{k}": v for k, v in self.trunk.params.items()}

    @property
    def buffer(self) -> np.ndarray:
        return self.trunk.buffer

    @property
    def grad(self) -> np.ndarray | None:
        return self.trunk.grad

    @property
    def params(self) -> Mapping[str, np.ndarray]:
        return self.trunk.params

    @property
    def grads(self) -> Mapping[str, np.ndarray] | None:
        return self.trunk.grads

    def forward(self, obs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        out, cache = self.trunk.forward(obs)
        return out[:, 0], cache

    def __call__(self, obs: np.ndarray) -> np.ndarray:
        return self.forward(obs)[0]

    def backward(
        self, cache: list[np.ndarray], grad_value: np.ndarray
    ) -> np.ndarray:
        return self.trunk.backward(cache, np.asarray(grad_value)[:, None])
