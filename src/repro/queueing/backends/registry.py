"""Backend registry: name → epoch kernel, with availability fallbacks.

``get_backend`` is the single resolution point used by environment
constructors, the experiment runner's ``sim_backend=`` threading and the
CLI ``--sim-backend`` flags. Registering a backend here also enrolls it
in the conformance gauntlet of ``tests/test_backend_conformance.py``,
which parametrizes over :func:`available_backends`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.queueing.backends.protocol import EpochKernel

__all__ = [
    "BackendSpec",
    "register_backend",
    "get_backend",
    "available_backends",
    "check_sim_backend",
    "preserves_rng_contract",
]

#: Pseudo-name resolving to the fastest runnable registered backend.
AUTO = "auto"


@dataclass(frozen=True)
class BackendSpec:
    """One registered simulation backend.

    Parameters
    ----------
    name : str
        Registry key (also the kernel's ``name`` attribute).
    factory : callable
        Zero-argument constructor of the kernel.
    preserves_rng_contract : bool
        See :class:`repro.queueing.backends.protocol.EpochKernel`.
    runnable : callable
        Zero-argument availability probe; when false,
        :func:`get_backend` falls back to ``fallback`` with a
        ``RuntimeWarning`` instead of raising.
    fallback : str or None
        Name of the backend substituted when not runnable.
    priority : int
        ``"auto"`` resolves to the runnable backend with the highest
        priority.
    """

    name: str
    factory: "Callable[[], EpochKernel]"
    preserves_rng_contract: bool = True
    runnable: Callable[[], bool] = lambda: True
    fallback: str | None = None
    priority: int = 0


_REGISTRY: "dict[str, BackendSpec]" = {}
_INSTANCES: "dict[str, EpochKernel]" = {}


def register_backend(spec: BackendSpec) -> None:
    """Register (or replace) a backend under ``spec.name``."""
    if spec.name == AUTO:
        raise ValueError(f"{AUTO!r} is reserved")
    _REGISTRY[spec.name] = spec
    _INSTANCES.pop(spec.name, None)


def available_backends() -> tuple[str, ...]:
    """All registered backend names, in registration order.

    Every name is *resolvable* by :func:`get_backend` (unavailable ones
    resolve to their fallback with a warning).
    """
    return tuple(_REGISTRY)


def check_sim_backend(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is registered or ``"auto"``.

    The one check behind every request's and context's ``sim_backend``
    field, so a typo fails where it is written, not inside a worker.
    """
    if name != AUTO and name not in _REGISTRY:
        raise ValueError(
            f"unknown sim_backend {name!r}; registered "
            f"kernels: {available_backends()} (or 'auto')"
        )


def preserves_rng_contract(name: str) -> bool:
    """Whether ``name`` is held to bit identity with the NumPy kernel.

    ``"auto"`` and unavailable-but-falling-back names count as
    contract-preserving whenever every backend they can resolve to is;
    used by :func:`repro.store.keys.shard_key` to decide whether two
    backends may share cached shards.
    """
    if name == AUTO:
        return all(
            spec.preserves_rng_contract
            for spec in _REGISTRY.values()
            if spec.runnable()
        )
    spec = _REGISTRY.get(name)
    if spec is None:
        raise KeyError(
            f"unknown simulation backend {name!r}; "
            f"registered: {sorted(_REGISTRY)}"
        )
    return spec.preserves_rng_contract


def _instance(spec: BackendSpec) -> "EpochKernel":
    kernel = _INSTANCES.get(spec.name)
    if kernel is None:
        kernel = spec.factory()
        _INSTANCES[spec.name] = kernel
    return kernel


def get_backend(backend: "str | EpochKernel | None" = None) -> "EpochKernel":
    """Resolve a backend name (or pass through a kernel instance).

    Parameters
    ----------
    backend : str or EpochKernel or None
        ``None`` defaults to ``"numpy"``; ``"auto"`` picks the fastest
        backend runnable on this host; a kernel instance is returned
        unchanged. A registered but unrunnable name (e.g. ``"numba"``
        without numba installed) resolves to its declared fallback with
        a ``RuntimeWarning`` — the stream-preserving degradation that
        keeps sweeps reproducible on minimal hosts.

    Raises
    ------
    KeyError
        Unknown name (the message lists the registry).
    """
    if backend is None:
        backend = "numpy"
    if not isinstance(backend, str):
        return backend
    if backend == AUTO:
        candidates = [s for s in _REGISTRY.values() if s.runnable()]
        if not candidates:  # pragma: no cover - numpy is always runnable
            raise RuntimeError("no runnable simulation backend registered")
        return _instance(max(candidates, key=lambda s: s.priority))
    spec = _REGISTRY.get(backend)
    if spec is None:
        raise KeyError(
            f"unknown simulation backend {backend!r}; "
            f"registered: {sorted(_REGISTRY)}"
        )
    if not spec.runnable():
        if spec.fallback is None:  # pragma: no cover - not used today
            raise RuntimeError(f"backend {backend!r} is not runnable here")
        warnings.warn(
            f"simulation backend {backend!r} is unavailable "
            f"(missing optional dependency); falling back to "
            f"{spec.fallback!r} — identical streams, uncompiled speed",
            RuntimeWarning,
            stacklevel=2,
        )
        return get_backend(spec.fallback)
    return _instance(spec)


def _register_builtin_backends() -> None:
    from repro.queueing.backends.numba_backend import (
        NumbaEpochKernel,
        numba_available,
    )
    from repro.queueing.backends.numpy_backend import NumpyEpochKernel

    register_backend(BackendSpec(name="numpy", factory=NumpyEpochKernel))
    register_backend(
        BackendSpec(
            name="numba",
            factory=NumbaEpochKernel,
            runnable=numba_available,
            fallback="numpy",
            priority=10,
        )
    )


_register_builtin_backends()
