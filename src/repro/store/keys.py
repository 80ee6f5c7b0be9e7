"""Stable content hashes for Monte-Carlo shards.

A shard's random streams — and therefore its result — are a pure
function of

* the :class:`~repro.config.SystemConfig` dataclass,
* the policy object (its parameter arrays, not its identity),
* the environment class and construction kwargs,
* the episode length,
* the shard's replica count and its ``SeedSequence`` material.

:func:`shard_key` feeds exactly those inputs — plus :data:`CODE_SALT`,
a code-version salt that invalidates every entry when the simulation
kernels change — through one canonical SHA-256 and returns the hex
digest used as the store key.

Canonicalization rules (:func:`fingerprint`):

* scalars are hashed with an explicit type tag (``1`` and ``1.0`` and
  ``"1"`` all differ; floats use ``float.hex`` so the hash is exact),
* ``numpy`` arrays hash dtype, shape and raw bytes,
* mappings are order-insensitive (entries sorted by key), sequences are
  order-sensitive,
* ``SeedSequence`` hashes its entropy/spawn-key/pool-size — the fields
  that determine the generated stream — and ignores mutable spawn
  counters,
* dataclasses and plain objects hash their qualified name plus field
  dict, recursively (cycles are detected and hashed by back-reference);
  a class may declare ``__fingerprint_exclude__`` (a tuple of attribute
  names) to keep *replay-irrelevant mutable state* — e.g. an arrival
  profile's playback cursor, which every environment resets before
  use — out of its hash, so a shared object mutated by one run still
  resolves the same shards on the next,
* classes and functions hash their qualified name only. Closures are
  **not** captured — keep stream-relevant state in attributes, not in
  lambdas (true for every policy/environment in this repository).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

import repro

if TYPE_CHECKING:
    from repro.config import PPOConfig
    from repro.experiments.campaign import RegimeSpec, TrainingBudget
    from repro.experiments.parallel import EvalRequest, _Shard
    from repro.serving.engine import StreamRequest

__all__ = [
    "CODE_SALT",
    "fingerprint",
    "shard_key",
    "stream_shard_key",
    "train_shard_key",
]

#: Store-format generation; bump to invalidate all entries on layout
#: changes that keep the package version (rare — prefer version bumps).
STORE_SCHEMA_VERSION = 1

#: Every key is salted with the package version: a release that touches
#: the simulation kernels moves every shard to a fresh key space instead
#: of silently replaying stale results.
CODE_SALT = f"repro/{repro.__version__}/store-v{STORE_SCHEMA_VERSION}"


def _seen(h: "hashlib._Hash", obj: Any, memo: "dict[int, tuple[int, Any]]") -> bool:
    """Cycle guard for mutable containers and objects.

    On first visit the object is registered (content gets hashed by the
    caller); on revisit a back-reference index is hashed instead, so
    self-referential structures terminate with equal-structure inputs
    hashing equally.

    The memo entry keeps a strong reference to the object: ``id`` is
    only unique among *live* objects, and the traversal creates
    temporaries (``vars()`` field dicts, filtered copies) whose ids
    could otherwise be reused by later temporaries — which would then
    hash as spurious back-references, silently skipping their content
    and making the digest depend on allocator state.
    """
    entry = memo.get(id(obj))
    if entry is not None:
        h.update(b"\x00c" + str(entry[0]).encode())
        return True
    memo[id(obj)] = (len(memo), obj)
    return False


def _feed(h: "hashlib._Hash", obj: Any, memo: "dict[int, tuple[int, Any]]") -> None:
    """Feed one canonicalized object into the running hash."""
    if obj is None:
        h.update(b"\x00N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"\x00b1" if obj else b"\x00b0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"\x00i" + str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"\x00f" + float(obj).hex().encode())
    elif isinstance(obj, str):
        h.update(b"\x00s" + obj.encode("utf-8") + b"\x00")
    elif isinstance(obj, bytes):
        h.update(b"\x00y" + obj + b"\x00")
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"\x00a" + arr.dtype.str.encode() + repr(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, np.random.SeedSequence):
        h.update(b"\x00q")
        _feed(h, obj.entropy, memo)
        _feed(h, tuple(obj.spawn_key), memo)
        _feed(h, int(obj.pool_size), memo)
    elif isinstance(obj, Mapping):
        if _seen(h, obj, memo):
            return
        h.update(b"\x00d" + str(len(obj)).encode())
        for key, value in sorted(obj.items(), key=lambda kv: repr(kv[0])):
            _feed(h, key, memo)
            _feed(h, value, memo)
    elif isinstance(obj, (list, tuple)):
        if isinstance(obj, list) and _seen(h, obj, memo):
            return
        h.update(b"\x00l" + str(len(obj)).encode())
        for item in obj:
            _feed(h, item, memo)
    elif isinstance(obj, (set, frozenset)):
        if isinstance(obj, set) and _seen(h, obj, memo):
            return
        h.update(b"\x00e" + str(len(obj)).encode())
        for item in sorted(obj, key=repr):
            _feed(h, item, memo)
    elif isinstance(obj, type):
        h.update(b"\x00T" + f"{obj.__module__}.{obj.__qualname__}".encode())
    elif callable(obj) and hasattr(obj, "__qualname__"):
        h.update(b"\x00F" + f"{obj.__module__}.{obj.__qualname__}".encode())
    else:
        # Compound object: hash its type identity plus field dict.
        if _seen(h, obj, memo):
            return
        cls = type(obj)
        h.update(b"\x00O" + f"{cls.__module__}.{cls.__qualname__}".encode())
        if dataclasses.is_dataclass(obj):
            fields = {
                f.name: getattr(obj, f.name)
                for f in dataclasses.fields(obj)
            }
        elif hasattr(obj, "__dict__"):
            fields = vars(obj)
        elif hasattr(cls, "__slots__"):
            fields = {
                name: getattr(obj, name)
                for name in cls.__slots__
                if hasattr(obj, name)
            }
        else:
            raise TypeError(
                f"cannot fingerprint {cls.__module__}.{cls.__qualname__}: "
                "no dataclass fields, __dict__ or __slots__"
            )
        excluded = getattr(cls, "__fingerprint_exclude__", ())
        if excluded:
            fields = {
                name: value
                for name, value in fields.items()
                if name not in excluded
            }
        _feed(h, fields, memo)


def fingerprint(obj: Any) -> str:
    """Canonical SHA-256 hex digest of ``obj`` (see module docstring)."""
    h = hashlib.sha256()
    _feed(h, obj, {})
    return h.hexdigest()


def shard_key(request: "EvalRequest", shard: "_Shard") -> str:
    """Content hash identifying one shard's result.

    Deliberately *excludes* the shard's merge offset and the request's
    total replica count: a chunk's streams depend only on its own seed
    material and size, so a 5-run request and a 100-run request with the
    same seed and chunk layout share their common prefix of shards —
    the property that lets overlapping figure grids reuse each other's
    work.

    It also excludes the simulation kernel (``sim_backend``) whenever
    that kernel preserves the RNG-draw contract: such kernels are
    bit-identical by construction (conformance-tested), so shards
    computed under NumPy are legitimately replayed for numba sweeps and
    vice versa. A contract-breaking kernel registered by downstream code
    gets its own key space.
    """
    payload = {
        "salt": CODE_SALT,
        "config": request.config.to_dict(),
        "policy": request.policy,
        "policy_name": request.policy.name,
        "num_epochs": request.num_epochs,
        "env_cls": request.env_cls,
        "env_kwargs": request.env_kwargs,
        "shard_runs": shard.num_runs,
        "shard_seeds": shard.seeds,
    }
    _feed_sim_backend(payload, getattr(request, "sim_backend", "numpy"))
    return fingerprint(payload)


def _feed_sim_backend(payload: dict, sim_backend: str) -> None:
    """Key the kernel choice only when it can change the result.

    Contract-preserving kernels (every built-in) share one key space;
    a kernel whose registration declares
    ``preserves_rng_contract=False`` produces different streams, so its
    name becomes part of the key.
    """
    from repro.queueing.backends import preserves_rng_contract

    if not preserves_rng_contract(sim_backend):
        payload["sim_backend"] = sim_backend


def stream_shard_key(
    request: "StreamRequest", num_runs: int, seed_material
) -> str:
    """Content hash identifying one *streaming* shard's result.

    Streaming shards fingerprint exactly like finite-sweep shards —
    same canonicalization, same code salt, same exclusion of the merge
    offset and total replica count (a chunk's streams depend only on
    its own seed material and size). The windowing parameters *are*
    part of the key because the cached payload carries the retained
    window series at that resolution; the per-replica summaries it also
    carries are window-invariant regardless.
    """
    payload = {
        "salt": CODE_SALT,
        "kind": "stream",
        "config": request.config.to_dict(),
        "policy": request.policy,
        "policy_name": request.policy.name,
        "horizon": int(request.horizon),
        "window": int(request.window),
        "max_windows": int(request.max_windows),
        "env_cls": request.env_cls,
        "env_kwargs": request.env_kwargs,
        "shard_runs": int(num_runs),
        "shard_seeds": (seed_material,),
    }
    if request.controller is not None:
        # Closed-loop streams: the controller's *construction
        # parameters* and the switchable policy suite shape the
        # trajectory, so they enter the key; mutable run state is
        # excluded via each controller's ``__fingerprint_exclude__``
        # (and cleared by ``Controller.reset`` before every shard).
        # Uncontrolled requests omit these entries entirely, keeping
        # every pre-existing cache key byte-identical.
        payload["controller"] = request.controller
        payload["control_policies"] = dict(request.policies or {})
    _feed_sim_backend(payload, getattr(request, "sim_backend", "numpy"))
    return fingerprint(payload)


def train_shard_key(
    regime: "RegimeSpec",
    ppo: "PPOConfig",
    budget: "TrainingBudget",
    seed: int,
) -> str:
    """Content hash identifying one *training* shard's result.

    A training shard is one regime's finished policy (network state dict
    plus learning curve). With ``independent_streams`` collection the
    trained parameters are a pure function of the regime definition, the
    PPO configuration, the training budget and the seed — exactly the
    fields hashed here — so an interrupted campaign resumes from the
    store bit-identically, on any worker count.
    """
    payload = {
        "salt": CODE_SALT,
        "kind": "train",
        "regime": regime,
        "ppo": ppo.to_dict(),
        "budget": budget,
        "seed": int(seed),
    }
    return fingerprint(payload)
