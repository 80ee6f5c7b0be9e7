"""Atomic, content-addressed persistence of completed shard results.

One entry per shard key: a small ``.npz`` archive holding the shard's
per-replica drop array plus a JSON metadata blob (schema version, key,
replica count, free-form provenance). Entries live under
``root/<key[:2]>/<key>.npz`` so directories stay small even for very
large sweeps.

Durability discipline:

* **Atomic writes** — every entry is written to a temporary file in the
  same directory and published with :func:`os.replace`, so a killed
  process never leaves a half-written entry behind; re-running the sweep
  simply recomputes the missing shards.
* **Corrupted-entry recovery** — any entry that fails to load or
  validate (truncated archive, wrong schema, key/shape mismatch) is
  quarantined (removed) and reported as a cache miss, never an error:
  the worst case of a damaged store is recomputation, not a crash or a
  wrong result.
* **Write-failure tolerance** — the mirror rule on the write path: an
  entry that cannot be written (disk full, store turned read-only) is
  a ``RuntimeWarning`` counted on ``write_errors``, never an error, so
  no sweep, stream or campaign loses the result it just computed.

The store keeps running :class:`StoreStats` counters; callers that need
per-phase numbers (e.g. the reproduction pipeline's per-artifact cache
hit-rate) snapshot the counters before and after and diff them.

For multi-node sweeps the store doubles as the coordination medium:
:meth:`ExperimentStore.try_claim` atomically marks a shard as being
computed by one worker (``O_CREAT|O_EXCL`` claim files, stale takeover
via :func:`os.replace`, no coordinator process), so independent hosts
sharing a store directory partition a sweep between them — see
``docs/scaling.md``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.store.keys import STORE_SCHEMA_VERSION
from repro.utils.serialization import (
    load_npz_checkpoint,
    save_npz_checkpoint,
)

__all__ = ["ExperimentStore", "StoreStats"]

_DROPS_KEY = "drops"


@dataclass
class StoreStats:
    """Running cache counters (``invalid`` entries also count as misses;
    ``write_errors`` counts writes that failed and were skipped)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0
    write_errors: int = 0
    claims: int = 0
    claim_conflicts: int = 0
    claims_stolen: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "StoreStats":
        return StoreStats(
            self.hits,
            self.misses,
            self.writes,
            self.invalid,
            self.write_errors,
            self.claims,
            self.claim_conflicts,
            self.claims_stolen,
        )

    def since(self, earlier: "StoreStats") -> "StoreStats":
        """Counter delta relative to an earlier :meth:`snapshot`."""
        return StoreStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            writes=self.writes - earlier.writes,
            invalid=self.invalid - earlier.invalid,
            write_errors=self.write_errors - earlier.write_errors,
            claims=self.claims - earlier.claims,
            claim_conflicts=self.claim_conflicts - earlier.claim_conflicts,
            claims_stolen=self.claims_stolen - earlier.claims_stolen,
        )


class ExperimentStore:
    """Content-addressed shard cache rooted at a directory.

    Parameters
    ----------
    root:
        Cache directory (created, with parents, if missing). Safe to
        share between figure runs and scenarios — keys are content
        hashes, so distinct experiments never collide and identical
        sub-sweeps deduplicate automatically.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()

    def path_for(self, key: str) -> Path:
        """Entry location for ``key`` (two-level fan-out)."""
        if len(key) < 3:
            raise ValueError(f"store key too short: {key!r}")
        return self.root / key[:2] / f"{key}.npz"

    def get_shard(
        self, key: str, expected_runs: int | None = None
    ) -> np.ndarray | None:
        """Cached per-replica drops for ``key``, or ``None`` on a miss.

        A present-but-invalid entry (corruption, schema or shape
        mismatch) is quarantined and reported as a miss.
        """

        def drops_of(arrays: dict[str, np.ndarray], meta: dict) -> np.ndarray:
            drops = np.asarray(arrays[_DROPS_KEY], dtype=np.float64)
            if drops.ndim != 1 or not np.all(np.isfinite(drops)):
                raise ValueError(f"malformed drops array: {drops.shape}")
            if expected_runs is not None and drops.shape != (expected_runs,):
                raise ValueError(
                    f"entry holds {drops.shape[0]} runs, expected "
                    f"{expected_runs}"
                )
            return drops

        return self._read(key, drops_of)

    def put_shard(
        self,
        key: str,
        drops: np.ndarray,
        meta: Mapping[str, Any] | None = None,
    ) -> Path | None:
        """Persist one shard result atomically; returns the entry path
        (``None`` when the write failed, see :meth:`put_entry`)."""
        drops = np.asarray(drops, dtype=np.float64)
        if drops.ndim != 1:
            raise ValueError(f"drops must be 1-D, got shape {drops.shape}")
        payload = {"num_runs": int(drops.shape[0]), **dict(meta or {})}
        return self.put_entry(key, {_DROPS_KEY: drops}, meta=payload)

    # -- generic entries -------------------------------------------------
    # Shard results are one flavor of entry (a single 1-D drops array);
    # training shards persist whole network state dicts plus a learning
    # curve through the same atomic-publish / quarantine-on-invalid
    # machinery below.

    def get_entry(
        self, key: str
    ) -> tuple[dict[str, np.ndarray], dict[str, Any]] | None:
        """Cached arrays and metadata for ``key``, or ``None`` on a miss.

        A present-but-invalid entry (corruption, schema or key mismatch,
        non-finite floats) is quarantined and reported as a miss.
        """

        def finite_entry(
            arrays: dict[str, np.ndarray], meta: dict
        ) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
            for name, arr in arrays.items():
                if np.issubdtype(arr.dtype, np.floating) and not np.all(
                    np.isfinite(arr)
                ):
                    raise ValueError(f"non-finite values in array {name!r}")
            return dict(arrays), meta

        return self._read(key, finite_entry)

    def _read(
        self,
        key: str,
        check: Callable[[dict[str, np.ndarray], dict[str, Any]], Any],
    ) -> Any:
        """``check(arrays, meta)`` of ``key``'s entry, or ``None`` on a miss.

        The one read path of both entry kinds: it loads the entry and
        checks its schema and key; ``check`` validates the arrays and
        returns what the caller gets. An entry that fails any of these
        is quarantined and reported as a miss.
        """
        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            arrays, meta = load_npz_checkpoint(path)
            if meta.get("schema") != STORE_SCHEMA_VERSION:
                raise ValueError(f"schema mismatch: {meta.get('schema')!r}")
            if meta.get("key") != key:
                raise ValueError("stored key does not match file name")
            value = check(arrays, meta)
        except Exception:
            # Corrupted or stale entry: recover by quarantining it and
            # recomputing the shard (a cache can always afford a miss).
            self._quarantine(path)
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put_entry(
        self,
        key: str,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, Any] | None = None,
    ) -> Path | None:
        """Persist a multi-array entry atomically; returns the entry path.

        A write that fails with :class:`OSError` (disk full, store turned
        read-only, ...) leaves no entry behind, warns, counts on
        ``stats.write_errors`` and returns ``None``: the caller's result
        is already correct without the cache, so the worst case of an
        unwritable store is recomputation next run.
        """
        if not arrays:
            raise ValueError("entry must hold at least one array")
        path = self.path_for(key)
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "key": key,
            **dict(meta or {}),
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".npz"
            )
            os.close(fd)
            tmp_path = Path(tmp_name)
            try:
                save_npz_checkpoint(tmp_path, dict(arrays), meta=payload)
                os.replace(tmp_path, path)  # atomic publish
            except BaseException:
                tmp_path.unlink(missing_ok=True)
                raise
        except OSError as exc:
            self.stats.write_errors += 1
            warnings.warn(
                f"experiment store write failed ({exc}); continuing "
                f"without persisting entry {key}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        self.stats.writes += 1
        return path

    # -- multi-node work claiming ---------------------------------------
    # Claims are tiny JSON files under root/claims/<key[:2]>/<key>.claim.
    # The ``claims/`` subtree is invisible to iter_keys (which globs
    # ``??/*.npz``), so claim bookkeeping never pollutes the cache view.
    # Acquisition is O_CREAT|O_EXCL — atomic on every POSIX filesystem,
    # including NFS since v3 — and stale takeover republishes the claim
    # via os.replace, so there is no coordinator and no lock server.

    def claim_path_for(self, key: str) -> Path:
        """Claim-file location for ``key`` (two-level fan-out)."""
        if len(key) < 3:
            raise ValueError(f"store key too short: {key!r}")
        return self.root / "claims" / key[:2] / f"{key}.claim"

    def try_claim(
        self,
        key: str,
        owner: str,
        stale_after: float | None = None,
    ) -> bool:
        """Atomically claim ``key`` for ``owner``; ``True`` if acquired.

        A claim marks a shard as being computed by one worker so
        independent hosts sharing the store partition a sweep without a
        coordinator. When ``stale_after`` (seconds) is given, a claim
        whose file has not been refreshed for longer than that is
        considered abandoned (e.g. a killed worker) and taken over —
        takeover republishes the claim file via :func:`os.replace`, so
        at most the shard is computed twice (at-least-once semantics),
        never lost.
        """
        path = self.claim_path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"owner": owner, "key": key}).encode()
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if stale_after is not None and self._claim_is_stale(
                path, stale_after
            ):
                fd, tmp_name = tempfile.mkstemp(
                    dir=path.parent, prefix=".tmp-", suffix=".claim"
                )
                try:
                    os.write(fd, payload)
                finally:
                    os.close(fd)
                os.replace(tmp_name, path)  # atomic takeover
                self.stats.claims += 1
                self.stats.claims_stolen += 1
                return True
            self.stats.claim_conflicts += 1
            return False
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        self.stats.claims += 1
        return True

    def release_claim(self, key: str) -> None:
        """Drop the claim on ``key`` (missing claims are a no-op)."""
        try:
            self.claim_path_for(key).unlink(missing_ok=True)
        except OSError:  # pragma: no cover - e.g. read-only stores
            pass

    def claim_owner(self, key: str) -> str | None:
        """Owner recorded in ``key``'s claim file, or ``None``.

        Damaged claim files (a worker killed mid-write on a filesystem
        without atomic O_EXCL content) read as owned-by-unknown rather
        than raising.
        """
        path = self.claim_path_for(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return "<unreadable>"
        owner = payload.get("owner") if isinstance(payload, dict) else None
        return owner if isinstance(owner, str) else "<unreadable>"

    @staticmethod
    def _claim_is_stale(path: Path, stale_after: float) -> bool:
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:  # claim vanished: owner finished or released it
            return False
        return age > stale_after

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_keys())

    def iter_keys(self) -> Iterator[str]:
        """All entry keys currently on disk (unordered)."""
        for path in self.root.glob("??/*.npz"):
            if not path.name.startswith(".tmp-"):
                yield path.stem

    @staticmethod
    def _quarantine(path: Path) -> None:
        try:
            path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - e.g. read-only stores
            pass
