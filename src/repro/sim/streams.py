"""Independent, named random-number streams.

The paper's DeNet simulator drew each stochastic workload dimension
(think times, page counts, write coin flips, instruction counts, disk
service times, ...) from its own pseudo-random stream.  Keeping streams
independent means that, for example, changing the concurrency control
algorithm does not perturb the sequence of think times — the classic
common-random-numbers variance-reduction discipline used when comparing
alternatives.

:class:`RandomStreams` derives one :class:`random.Random` per stream name
from a master seed, via SHA-256, so streams are reproducible and
uncorrelated regardless of creation order.

Stream names are **registered**: every canonical stream the simulator
draws from is declared below via :func:`register_stream`, with
``{placeholder}`` segments for per-entity families
(``"disk-service-{node}"`` covers ``disk-service-0``,
``disk-service-1``, ...).  The registry exists because a typo'd stream
name does not fail — it silently forks a fresh stream and perturbs
every common-random-numbers comparison — so the name set must be
introspectable: the ``stream-registry`` lint rule statically checks
every draw site against these registrations, and simsan's
``stream-discipline`` check (:mod:`repro.sanitizer`) checks every
runtime lookup against them.
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import Dict

__all__ = [
    "RandomStreams",
    "derive_seed",
    "is_registered",
    "register_stream",
    "stream_owner",
]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and ``name``."""
    digest = hashlib.sha256(
        f"{master_seed}:{name}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# Stream-name registry
# ----------------------------------------------------------------------

#: Registered name/pattern -> one-line description.
STREAM_REGISTRY: Dict[str, str] = {}

#: Registered name/pattern -> owning component ("" = unowned).  The
#: runtime sanitizer checks each draw's declared component against this
#: ownership; a draw from a stream another component owns entangles
#: sequences that the common-random-numbers discipline needs
#: independent.
STREAM_OWNERS: Dict[str, str] = {}

_PLACEHOLDER_RE = re.compile(r"\{[^{}]*\}")
_PATTERN_CACHE: Dict[str, "re.Pattern[str]"] = {}


def register_stream(name: str, description: str = "", owner: str = "") -> str:
    """Declare a canonical stream name (or ``{placeholder}`` family).

    Returns ``name`` so call sites can register and use in one
    expression.  Re-registering the same name overwrites the
    description (idempotent for module re-imports).  ``owner`` names
    the component allowed to draw from the stream (enforced at runtime
    by the sanitizer's stream-discipline checker; empty = any).
    """
    STREAM_REGISTRY[name] = description
    STREAM_OWNERS[name] = owner
    return name


def _compile(pattern: str) -> "re.Pattern[str]":
    compiled = _PATTERN_CACHE.get(pattern)
    if compiled is None:
        parts = []
        last = 0
        for match in _PLACEHOLDER_RE.finditer(pattern):
            parts.append(re.escape(pattern[last : match.start()]))
            parts.append(".+")
            last = match.end()
        parts.append(re.escape(pattern[last:]))
        compiled = re.compile("".join(parts))
        _PATTERN_CACHE[pattern] = compiled
    return compiled


def is_registered(name: str) -> bool:
    """Whether a concrete stream name matches some registration."""
    return any(
        _compile(pattern).fullmatch(name) is not None
        for pattern in STREAM_REGISTRY
    )


def stream_owner(name: str) -> str:
    """Declared owning component for a concrete stream name ("" = any).

    Exact registrations win; otherwise the first matching
    ``{placeholder}`` family (in sorted pattern order, for stability)
    provides the owner.
    """
    owner = STREAM_OWNERS.get(name)
    if owner is not None:
        return owner
    for pattern in sorted(STREAM_OWNERS):
        if _compile(pattern).fullmatch(name) is not None:
            return STREAM_OWNERS[pattern]
    return ""


class RandomStreams:
    """A family of independent named random streams.

    Any name can be drawn from; a runtime sanitizer, when attached,
    reports names that no :func:`register_stream` call declares.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> page_count = streams.get("page-count")
    >>> page_count.expovariate(1.0)  # doctest: +SKIP
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}
        # Runtime sanitizer; None on the clean path (zero-cost hooks).
        self._san = None

    def attach_sanitizer(self, sanitizer) -> None:
        """Check every later stream lookup with a runtime sanitizer.

        Must be called before any stream is created: call sites cache
        stream handles, so a stream handed out before attachment might
        never be looked up, and so checked, again.
        """
        if self._streams:
            raise ValueError(
                "attach_sanitizer must precede the first stream draw"
            )
        self._san = sanitizer

    def get(self, name: str, owner: str = None) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        ``owner`` declares the drawing component; under the sanitizer
        it is checked against the registration's declared ownership
        (the stream-discipline checker).  Clean runs ignore it.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = self.fresh(name, owner)
        elif self._san is not None:
            self._san.check_stream(name, owner)
        return stream

    def fresh(self, name: str, owner: str = None) -> random.Random:
        """Build a new stream for ``name`` without caching it.

        Each call returns a new object that yields the sequence
        :meth:`get` hands out for ``name``, so a caller can drop a
        stream it rarely draws from and build it again later (the
        workload's per-terminal think streams).  The sanitizer checks
        it exactly as in :meth:`get`, which builds its streams here.
        """
        if self._san is not None:
            self._san.check_stream(name, owner)
        return random.Random(derive_seed(self.seed, name))

    def exponential(self, name: str, mean: float, owner: str = None) -> float:
        """Draw from Exp(mean); returns 0.0 when ``mean`` is 0."""
        if mean <= 0.0:
            return 0.0
        return self.get(name, owner).expovariate(1.0 / mean)

    def uniform(
        self, name: str, low: float, high: float, owner: str = None
    ) -> float:
        """Draw uniformly from [low, high]."""
        return self.get(name, owner).uniform(low, high)

    def uniform_int(
        self, name: str, low: int, high: int, owner: str = None
    ) -> int:
        """Draw an integer uniformly from [low, high] inclusive."""
        return self.get(name, owner).randint(low, high)

    def bernoulli(
        self, name: str, probability: float, owner: str = None
    ) -> bool:
        """Flip a coin that lands True with ``probability``."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.get(name, owner).random() < probability

    def sample_without_replacement(
        self, name: str, population: int, k: int, owner: str = None
    ) -> list[int]:
        """Sample ``k`` distinct integers from ``range(population)``."""
        if k > population:
            raise ValueError(
                f"cannot sample {k} distinct items from {population}"
            )
        return self.get(name, owner).sample(range(population), k)


# ----------------------------------------------------------------------
# Canonical stream registrations
# ----------------------------------------------------------------------
# Workload generation (core/workload.py).
register_stream("page-count", "pages touched per transaction", owner="workload")
register_stream("page-choice", "which pages a transaction touches", owner="workload")
register_stream("write-coin", "read vs. update coin per access", owner="workload")
register_stream("inst-per-page", "CPU instructions per page access", owner="workload")
register_stream("copy-choice", "which replica serves a read", owner="workload")
register_stream("file-choice", "which partitions FileCount selects", owner="workload")
register_stream("think-{terminal}", "per-terminal think times", owner="workload")
register_stream(
    "page-skew",
    "Zipf-skewed page choice within a partition (access_skew > 0)",
    owner="workload",
)
# Transaction router (router/classifier.py) — isolated router-* streams
# so routing decisions never perturb workload or resource sequences.
register_stream(
    "router-explore",
    "epsilon-greedy exploration coin per routed class",
    owner="router",
)
register_stream(
    "router-choice",
    "which candidate algorithm an exploration picks",
    owner="router",
)
# Resource model (core/simulation.py).
register_stream("disk-service-{node}", "per-node disk service times", owner="resources")
register_stream("disk-choice-{node}", "per-node disk selection", owner="resources")
# Transaction restarts (core/transaction_manager.py).
register_stream("restart-delay", "post-abort restart delay", owner="transaction-manager")
register_stream(
    "fault-retry-backoff",
    "2PC retry backoff under faults",
    owner="transaction-manager",
)
# Fault injection (faults/schedule.py) — isolated fault-* streams so
# disabling faults leaves every other sequence bit-identical.
register_stream("fault-crash-{node}", "per-node crash inter-arrivals", owner="faults")
register_stream("fault-repair-{node}", "per-node repair durations", owner="faults")
register_stream("fault-msg-loss", "per-message loss coin", owner="faults")
register_stream("fault-msg-delay", "per-message delay coin", owner="faults")
register_stream("fault-msg-delay-time", "extra delay when delayed", owner="faults")
