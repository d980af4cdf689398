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
``disk-service-1``, ...), and the component that owns it.  A typo'd
stream name would not fail on its own: it would silently fork a fresh
stream and perturb every common-random-numbers comparison.  So
:class:`RandomStreams` refuses, with a :class:`ValueError` naming the
stream, to create a stream whose name matches no registration, and to
hand a stream to a caller that names a component other than its
registered owner.  The ``stream-registry`` lint rule checks the
statically known draw sites against the same registrations.
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["RandomStreams", "derive_seed", "register_stream"]


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

#: Registered name/pattern -> owning component ("" = any component).
#: A draw from a stream another component owns entangles sequences
#: that the common-random-numbers discipline needs independent.
STREAM_OWNERS: Dict[str, str] = {}

_PLACEHOLDER_RE = re.compile(r"\{[^{}]*\}")

#: Every registration as one compiled alternation, ``(fullmatch,
#: owners)``: group ``i + 1`` is registration ``i``, so a match's
#: owner is ``owners[match.lastindex - 1]``.  Built on first use and
#: dropped by each :func:`register_stream`.
_matcher: Optional[Tuple[Callable, List[str]]] = None


def register_stream(name: str, description: str = "", owner: str = "") -> str:
    """Declare a canonical stream name (or ``{placeholder}`` family).

    Returns ``name`` so call sites can register and use in one
    expression.  Re-registering the same name overwrites the
    description (idempotent for module re-imports).  ``owner`` names
    the component allowed to draw from the stream (empty = any).
    """
    global _matcher
    STREAM_REGISTRY[name] = description
    STREAM_OWNERS[name] = owner
    _matcher = None
    return name


def _pattern_source(pattern: str) -> str:
    """Regex source of one registration: each placeholder stands for
    any non-empty text, everything else for itself."""
    parts = []
    last = 0
    for match in _PLACEHOLDER_RE.finditer(pattern):
        parts.append(re.escape(pattern[last : match.start()]))
        parts.append(".+")
        last = match.end()
    parts.append(re.escape(pattern[last:]))
    return "".join(parts)


def _build_matcher() -> Tuple[Callable, List[str]]:
    """Compile the registry into one alternation, one group per
    registration: exact names first, so they win over a family, then
    the families in sorted order."""
    global _matcher
    patterns = sorted(
        STREAM_OWNERS,
        key=lambda p: (_PLACEHOLDER_RE.search(p) is not None, p),
    )
    regex = re.compile(
        "|".join(f"({_pattern_source(p)})" for p in patterns)
    )
    _matcher = (regex.fullmatch, [STREAM_OWNERS[p] for p in patterns])
    return _matcher


def _check_owner(name: str, declared: str, owner: Optional[str]) -> None:
    """Refuse a draw by a component other than the stream's owner."""
    if owner is not None and declared and owner != declared:
        raise ValueError(
            f"stream {name!r} is owned by {declared!r} but was drawn "
            f"by {owner!r}: cross-component draws entangle sequences "
            "that must stay independent"
        )


def _resolve(name: str, owner: Optional[str]) -> str:
    """The owner registered for ``name``, checked against ``owner``.

    Refuses a name that matches no registration: an undeclared stream
    silently forks a fresh sequence and breaks common-random-numbers
    comparisons.
    """
    fullmatch, owners = _matcher or _build_matcher()
    match = fullmatch(name)
    if match is None:
        raise ValueError(
            f"stream {name!r} matches no register_stream entry; "
            "declare it with register_stream"
        )
    declared = owners[match.lastindex - 1]
    _check_owner(name, declared, owner)
    return declared


class RandomStreams:
    """A family of independent named random streams.

    Only registered names can be drawn from, and only by their owner
    when the caller names its component (see the module docstring).

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> page_count = streams.get("page-count")
    >>> page_count.expovariate(1.0)  # doctest: +SKIP
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}
        # Each cached stream's registered owner, resolved at creation.
        self._owners: Dict[str, str] = {}

    def get(self, name: str, owner: str = None) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        ``owner`` declares the drawing component; a name no
        registration matches, or an ``owner`` other than the
        registered one, raises :class:`ValueError`.  ``owner=None``
        skips the owner check.
        """
        stream = self._streams.get(name)
        if stream is None:
            self._owners[name] = _resolve(name, owner)
            stream = self._streams[name] = random.Random(
                derive_seed(self.seed, name)
            )
        elif owner is not None:
            _check_owner(name, self._owners[name], owner)
        return stream

    def fresh(self, name: str, owner: str = None) -> random.Random:
        """Build a new stream for ``name`` without caching it.

        Each call returns a new object that yields the sequence
        :meth:`get` hands out for ``name``, so a caller can drop a
        stream it rarely draws from and build it again later (the
        workload's per-terminal think streams).  ``name`` and
        ``owner`` are checked as in :meth:`get`, on every call.
        """
        _resolve(name, owner)
        return random.Random(derive_seed(self.seed, name))

    def exponential(self, name: str, mean: float, owner: str = None) -> float:
        """Draw from Exp(mean); returns 0.0 when ``mean`` is 0."""
        if mean <= 0.0:
            return 0.0
        return self.get(name, owner).expovariate(1.0 / mean)

    def bernoulli(
        self, name: str, probability: float, owner: str = None
    ) -> bool:
        """Flip a coin that lands True with ``probability``."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.get(name, owner).random() < probability


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
