"""Structured event tracing for transaction lifecycles.

Attach a :class:`Tracer` to a :class:`~repro.core.simulation.Simulation`
to capture a timestamped record of everything that happens to each
transaction: origination, cohort loads, blocks and wakeups, commit
protocol phases, aborts with reasons, restart delays.  Intended for
debugging concurrency control behaviour and for the test suite's
protocol assertions; the default simulation runs with no tracer and
pays nothing.

Example::

    tracer = Tracer(capacity=50_000)
    result = Simulation(config, tracer=tracer).run()
    for event in tracer.for_transaction(tid=7):
        print(event)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Deque, Iterator, List, Optional

__all__ = ["EventKind", "TraceEvent", "Tracer"]


class EventKind(Enum):
    """The transaction lifecycle events the tracer records."""

    ORIGINATED = "originated"
    ATTEMPT_STARTED = "attempt_started"
    COHORT_LOADED = "cohort_loaded"
    COHORT_STARTED = "cohort_started"
    BLOCKED = "blocked"
    UNBLOCKED = "unblocked"
    COHORT_DONE = "cohort_done"
    PREPARE_SENT = "prepare_sent"
    VOTED = "voted"
    COMMITTED = "committed"
    ABORT_REQUESTED = "abort_requested"
    ABORTED = "aborted"
    RESTART_SCHEDULED = "restart_scheduled"


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped lifecycle event."""

    time: float
    kind: EventKind
    tid: int
    attempt: int
    node: Optional[int] = None
    detail: Any = None

    def __str__(self) -> str:
        location = "" if self.node is None else f"@{self.node}"
        extra = "" if self.detail is None else f" {self.detail}"
        return (
            f"[{self.time:10.4f}] txn {self.tid}.{self.attempt}"
            f"{location} {self.kind.value}{extra}"
        )


class Tracer:
    """Bounded in-memory trace buffer.

    ``capacity`` bounds memory: the oldest events are dropped first
    (a full-fidelity run generates millions of events).
    """

    def __init__(self, capacity: int = 100_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.recorded = 0

    def emit(
        self,
        time: float,
        kind: EventKind,
        tid: int,
        attempt: int,
        node: Optional[int] = None,
        detail: Any = None,
    ) -> None:
        """Record one event (dropping the oldest if at capacity)."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(
            TraceEvent(time, kind, tid, attempt, node, detail)
        )
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        """All buffered events, oldest first."""
        return list(self._events)

    def for_transaction(self, tid: int) -> List[TraceEvent]:
        """Buffered events of one transaction, oldest first."""
        return [event for event in self._events if event.tid == tid]

    def of_kind(self, kind: EventKind) -> List[TraceEvent]:
        """Buffered events of one kind, oldest first."""
        return [
            event for event in self._events if event.kind is kind
        ]

    def count(self, kind: EventKind) -> int:
        """Number of buffered events of one kind."""
        return sum(
            1 for event in self._events if event.kind is kind
        )

    def clear(self) -> None:
        """Drop all buffered events (counters keep accumulating)."""
        self._events.clear()

    def format(self, limit: Optional[int] = None) -> str:
        """Human-readable dump of the newest ``limit`` events."""
        events = self.events
        if limit is not None:
            events = events[-limit:]
        return "\n".join(str(event) for event in events)
