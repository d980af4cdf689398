"""Persistent on-disk cache of simulation results.

Every point of a figure sweep is a pure function of its frozen
:class:`~repro.core.config.SimulationConfig` (seed included), so a
finished simulation never needs to run again: the result is stored as
one JSON file under the cache directory, keyed by a stable SHA-256
content hash of the configuration tree plus a schema version stamp.

Key properties:

* **Stable keys across processes.**  The digest is computed from a
  canonical JSON rendering of the config dataclasses (sorted dict keys,
  enums by value), not from Python ``hash()``, so it is identical
  across interpreter invocations and machines.
* **Incremental invalidation.**  The digest composes
  :data:`SCHEMA_VERSION` with :func:`source_fingerprint`, a content
  hash of the simulation-relevant source packages
  (:data:`SIM_SOURCE_PACKAGES`: ``sim/``, ``cc/``, ``core/``,
  ``router/`` and ``faults/``).  Editing any of those files dirties
  every entry automatically — no manual version bump needed — while
  an edit to a package that only consumes results (``experiments/``,
  ``analysis/``, ``lint/``) leaves the whole cache warm.
  ``SCHEMA_VERSION`` remains for changes the fingerprint cannot see
  (entry codec shape).
  ``python -m repro.experiments cache prune`` drops entries whose
  fingerprint component went stale; ``cache clear`` removes
  everything.
* **Corruption tolerance.**  Unreadable or truncated entries are
  treated as misses and deleted; the point is simply recomputed.
* **Atomic writes.**  Entries are written to a temp file and
  ``os.replace``-d into place, so parallel writers and interrupted
  runs never leave half-written entries behind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from enum import Enum
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.config import SimulationConfig
from repro.core.metrics import SimulationResult

__all__ = [
    "SCHEMA_VERSION",
    "SIM_SOURCE_PACKAGES",
    "CacheStats",
    "ResultCache",
    "config_digest",
    "decode_result",
    "default_cache_dir",
    "encode_result",
    "source_fingerprint",
]

#: Bump only for changes the source fingerprint cannot observe — the
#: shape of the entry/digest payload itself.  Behavioural changes to
#: the simulator dirty the cache automatically through
#: :func:`source_fingerprint`.
#: 3: lock release order made explicitly deterministic (sorted PageId
#:    grant passes) instead of set-iteration order.
#: 4: digest composes the source fingerprint; entries record it.
#: 5: router subsystem — SimulationResult gained router_* fields and
#:    the fingerprint now covers ``router/`` (new key shape either
#:    way, so old entries must not round-trip into new results).
SCHEMA_VERSION = 5

#: Packages (under ``src/repro/``) whose source content determines
#: simulation output, and therefore participates in every cache key.
#: ``faults`` builds the injector and schedule of every faulted run.
#: Experiment/analysis/lint code only *consumes* results, so
#: edits there never invalidate entries.
SIM_SOURCE_PACKAGES = ("sim", "cc", "core", "router", "faults")

#: Memoized per process; every config_digest call reuses it.
_FINGERPRINT: Optional[str] = None


def source_fingerprint(root: Optional[Path] = None) -> str:
    """Content hash of the simulation-relevant source tree.

    Hashes every ``*.py`` file under :data:`SIM_SOURCE_PACKAGES`
    (sorted by relative path, so the digest is directory-order
    independent) below ``root`` — by default the installed ``repro``
    package directory.  The default result is memoized for the life of
    the process: sources do not change under a running sweep, and pool
    workers inherit or recompute the same value.
    """
    global _FINGERPRINT
    if root is None and _FINGERPRINT is not None:
        return _FINGERPRINT
    base = root
    if base is None:
        import repro

        base = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for package in SIM_SOURCE_PACKAGES:
        package_dir = base / package
        if not package_dir.is_dir():
            continue
        for path in sorted(package_dir.rglob("*.py")):
            relative = path.relative_to(base).as_posix()
            digest.update(relative.encode("utf-8"))
            digest.update(b"\0")
            try:
                digest.update(path.read_bytes())
            except OSError:
                continue
            digest.update(b"\0")
    fingerprint = digest.hexdigest()[:16]
    if root is None:
        _FINGERPRINT = fingerprint
    return fingerprint

#: Default location, relative to the current working directory, used by
#: the CLI and benchmarks; overridable via ``$REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = Path("results") / ".cache"


def default_cache_dir() -> Path:
    """The cache directory named by ``$REPRO_CACHE_DIR`` or the default."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return DEFAULT_CACHE_DIR


def _jsonable(value: Any) -> Any:
    """Canonical JSON-ready rendering of a config value tree."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # None-valued fields are omitted: an absent optional subsystem
        # (e.g. ``faults=None``) must hash identically whether the
        # field predates the subsystem or not, so adding such a field
        # never invalidates existing failure-free cache entries.
        return {
            field.name: _jsonable(item)
            for field in dataclasses.fields(value)
            if (item := getattr(value, field.name)) is not None
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(value[key]) for key in sorted(value)}
    return value


def config_digest(config: SimulationConfig) -> str:
    """Stable SHA-256 content hash of ``config`` plus the composed
    invalidation key (schema stamp + source fingerprint)."""
    payload = {
        "schema": SCHEMA_VERSION,
        "source": source_fingerprint(),
        "type": type(config).__name__,
        "config": _jsonable(config),
    }
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def encode_result(result: SimulationResult) -> str:
    """Render a result through the cache codec (compact JSON).

    This doubles as the executor's IPC transport format: pool workers
    return these strings instead of pickled ``SimulationResult``
    object graphs, so the parent never unpickles anything deeper than
    ``str``.
    """
    return json.dumps(
        dataclasses.asdict(result),
        sort_keys=True,
        separators=(",", ":"),
    )


def decode_result(text: str) -> SimulationResult:
    """Inverse of :func:`encode_result`; raises on shape mismatch."""
    return _result_from_payload(json.loads(text))


@dataclasses.dataclass
class CacheStats:
    """Counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0  # corrupted/stale entries dropped

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class ResultCache:
    """A directory of ``<digest>.json`` simulation-result entries."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.stats = CacheStats()

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def get(self, config: SimulationConfig) -> Optional[SimulationResult]:
        """The cached result for ``config``, or ``None`` on a miss.

        Corrupted, unreadable, or schema-stale entries count as misses
        and are deleted so they are rewritten on the next store.
        """
        path = self._path(config_digest(config))
        try:
            raw = path.read_text(encoding="utf-8")
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if entry.get("schema") != SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            if entry.get("source") != source_fingerprint():
                raise ValueError("source fingerprint mismatch")
            result = _result_from_payload(entry["result"])
        except (KeyError, TypeError, ValueError):
            self._evict(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, config: SimulationConfig, result: SimulationResult) -> None:
        """Store ``result`` for ``config`` (atomic; last writer wins)."""
        digest = config_digest(config)
        entry = {
            "schema": SCHEMA_VERSION,
            "source": source_fingerprint(),
            "digest": digest,
            "label": config.label(),
            "result": dataclasses.asdict(result),
        }
        path = self._path(digest)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            temp = path.with_name(f".{digest}.{os.getpid()}.tmp")
            temp.write_text(
                json.dumps(entry, sort_keys=True), encoding="utf-8"
            )
            os.replace(temp, path)
        except OSError:
            # A read-only or full disk degrades to a cold cache, never
            # to a failed sweep.
            return
        self.stats.stores += 1

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        self.stats.evictions += 1

    def prune(self) -> int:
        """Drop entries with a stale invalidation key; returns count.

        Incremental invalidation never *overwrites* stale entries —
        their digests simply stop matching — so a long-lived cache
        directory accumulates dead files across code changes.  Prune
        removes every entry whose schema stamp or source-fingerprint
        component no longer matches the running code (unreadable
        entries are removed too).
        """
        current = source_fingerprint()
        removed = 0
        for path in self._entry_paths():
            stale = False
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                stale = (
                    entry.get("schema") != SCHEMA_VERSION
                    or entry.get("source") != current
                )
            except (OSError, ValueError):
                stale = True
            if stale:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def source_census(self) -> Dict[str, int]:
        """Entry counts by freshness: how much did the last edit dirty?

        ``{"fresh": n, "stale": m}`` — fresh entries match the running
        code's composed key; stale ones (old fingerprint, old schema,
        or unreadable) would be recomputed by the next sweep and can
        be reclaimed with :meth:`prune`.
        """
        current = source_fingerprint()
        census = {"fresh": 0, "stale": 0}
        for path in self._entry_paths():
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                fresh = (
                    entry.get("schema") == SCHEMA_VERSION
                    and entry.get("source") == current
                )
            except (OSError, ValueError):
                fresh = False
            census["fresh" if fresh else "stale"] += 1
        return census

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _entry_paths(self):
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.json"))

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        return len(self._entry_paths())

    def size_bytes(self) -> int:
        """Total on-disk size of all entries."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total


def _result_from_payload(payload: Dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult`; raises on shape mismatch."""
    if not isinstance(payload, dict):
        raise TypeError(f"result payload is {type(payload).__name__}")
    field_names = {
        field.name for field in dataclasses.fields(SimulationResult)
    }
    if set(payload) - field_names:
        raise ValueError("unknown result fields")
    return SimulationResult(**payload)
