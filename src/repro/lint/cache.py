"""Per-file lint result cache, keyed on content hash.

Linting is a pure function of ``(file bytes, rule set)``: suppressions
live in the file, rule scoping is part of the rules signature, and
nothing else feeds a verdict.  So results are cached in one JSON file
keyed by ``sha256(file bytes)`` plus the
:func:`~repro.lint.registry.rules_signature` of the active rules —
editing a file, a rule, or a rule's scope invalidates exactly the
entries it could change.  The same discipline as
:mod:`repro.experiments.result_cache`, scaled down to one flat file.

Corrupt or unreadable caches are treated as empty; writes go through a
temp file + ``os.replace`` so interrupted runs never leave a truncated
cache behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.lint.violations import Violation

__all__ = ["LintCache", "default_cache_path"]

#: Bump when the cache entry layout changes (2: violations carry
#: severity/baselined fields; 3: keys hashed the removed flow engine;
#: 4: violations drop the baselined field).
CACHE_FORMAT = 4


def default_cache_path() -> Path:
    """``$REPRO_LINT_CACHE`` or ``results/.cache/simlint.json``."""
    override = os.environ.get("REPRO_LINT_CACHE")
    if override:
        return Path(override)
    return Path("results") / ".cache" / "simlint.json"


class LintCache:
    """Content-addressed store of per-file violation lists."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._entries: Dict[str, List[dict]] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text("utf-8"))
        except (OSError, ValueError):
            return
        if (
            not isinstance(raw, dict)
            or raw.get("format") != CACHE_FORMAT
            or not isinstance(raw.get("entries"), dict)
        ):
            return
        self._entries = raw["entries"]

    @staticmethod
    def key(content_hash: str, rules_signature: str) -> str:
        """Cache key for one file under one rule set."""
        return f"{content_hash}:{rules_signature}"

    def get(self, key: str) -> Optional[List[Violation]]:
        """Cached violations for ``key``, or None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        try:
            return [Violation.from_dict(item) for item in entry]
        except (KeyError, TypeError, ValueError):
            # Corrupt entry: drop it and recompute.
            del self._entries[key]
            self._dirty = True
            return None

    def put(self, key: str, violations: List[Violation]) -> None:
        """Record the violations for ``key``."""
        self._entries[key] = [v.as_dict() for v in violations]
        self._dirty = True

    def save(self) -> None:
        """Persist atomically; silently skips unwritable locations."""
        if not self._dirty:
            return
        payload = {"format": CACHE_FORMAT, "entries": self._entries}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            temp = self.path.with_name(self.path.name + ".tmp")
            temp.write_text(
                json.dumps(payload, sort_keys=True), "utf-8"
            )
            os.replace(temp, self.path)
            self._dirty = False
        except OSError:
            # A read-only checkout must not break linting.
            pass

    def __len__(self) -> int:
        return len(self._entries)
