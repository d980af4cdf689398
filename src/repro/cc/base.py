"""Abstract interface every concurrency control algorithm implements.

The concurrency control manager is *"the only module that must change
from algorithm to algorithm"* (paper §3.6).  This module pins down that
boundary:

* :class:`NodeCCManager` — one instance per processing node, handling
  the read/write access requests, commit permission (prepare vote),
  commit, and abort cleanup for the cohorts running at that node.
* :class:`CCAlgorithm` — the per-simulation factory.  It creates node
  managers, owns algorithm-global machinery (2PL's Snoop detector), and
  encodes the algorithm's *timestamp policy* across restarts.
* :class:`CCContext` — what managers may see and do: the simulation
  clock and the transaction manager's abort-request entry point.

Access requests resolve to one of three outcomes
(:class:`RequestResult`): granted immediately, blocked (the cohort must
wait on the returned event, which later fires with GRANTED or REJECTED),
or rejected (the transaction must abort and restart).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core.database import PageId
from repro.core.transaction import Cohort, Timestamp, Transaction, \
    make_timestamp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Environment, Event

__all__ = [
    "CCAlgorithm",
    "CCContext",
    "CCResponse",
    "NodeCCManager",
    "RequestResult",
]


class RequestResult(Enum):
    """Outcome of a concurrency control access request."""

    GRANTED = "granted"
    BLOCKED = "blocked"
    REJECTED = "rejected"


@dataclass(frozen=True)
class CCResponse:
    """Response to a read/write request.

    When ``result`` is BLOCKED, ``event`` fires later with a
    :class:`RequestResult` value of GRANTED or REJECTED.
    """

    result: RequestResult
    event: Optional["Event"] = None

    @staticmethod
    def granted() -> "CCResponse":
        """An immediately granted request (one shared instance)."""
        return _GRANTED

    @classmethod
    def rejected(cls) -> "CCResponse":
        """An immediately rejected request (transaction must abort)."""
        return cls(RequestResult.REJECTED)

    @classmethod
    def blocked(cls, event: "Event") -> "CCResponse":
        """A blocked request; ``event`` resolves it later."""
        return cls(RequestResult.BLOCKED, event)


_GRANTED = CCResponse(RequestResult.GRANTED)


class CCContext:
    """Hooks the CC managers get from the rest of the simulation.

    ``request_abort(transaction, reason, from_node)`` asks the
    transaction manager to abort a transaction; the notification travels
    as a message from ``from_node`` to the transaction's coordinator at
    the host, so wounds and deadlock-victim kills pay realistic
    communication costs.
    """

    def __init__(
        self,
        env: "Environment",
        request_abort: Callable[[Transaction, str, int], None],
        detection_interval: float = 1.0,
    ):
        self.env = env
        self.request_abort = request_abort
        self.detection_interval = detection_interval

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.env.now


class NodeCCManager(ABC):
    """Per-node concurrency control manager."""

    def __init__(self, node_id: int, context: CCContext):
        self.node_id = node_id
        self.context = context

    @abstractmethod
    def read_request(self, cohort: Cohort, page: PageId) -> CCResponse:
        """Request permission to read ``page``."""

    @abstractmethod
    def write_request(self, cohort: Cohort, page: PageId) -> CCResponse:
        """Request permission to (later) write ``page``.

        The cohort has always read the page first, so locking
        algorithms treat this as a read-to-write upgrade.
        """

    @abstractmethod
    def prepare(self, cohort: Cohort) -> bool:
        """Phase-one vote: may this cohort's work commit?"""

    @abstractmethod
    def commit(self, cohort: Cohort) -> List[PageId]:
        """Phase-two commit: make writes visible, release resources.

        Returns the pages whose updates were actually *installed* —
        these are the pages written back to disk afterwards.  Usually
        all of the cohort's updated pages; BTO excludes writes the
        Thomas write rule discarded (at request time or at install
        time), since they never become the current version.
        """

    @abstractmethod
    def abort(self, cohort: Cohort) -> None:
        """Abort cleanup: drop queued requests, locks, and workspaces.

        Must be idempotent — the abort protocol may race with a cohort
        that already failed locally.
        """

    def register_cohort(self, cohort: Cohort) -> None:
        """Called when a cohort starts executing at this node."""

    @abstractmethod
    def crash_reset(self) -> None:
        """Discard all volatile CC state after a node crash.

        Fail-stop semantics: lock tables, timestamp tables, and
        pending certification workspaces do not survive a crash; the
        fault injector calls this after interrupting every resident
        cohort.  Every manager defines it, so a new algorithm cannot
        be built without deciding what a crash erases; a stateless
        manager says so with an explicit no-op.
        """

    def waits_for_edges(
        self,
    ) -> List[Tuple[Transaction, Transaction]]:
        """(waiter, holder) edges for global deadlock detection."""
        return []


class CCAlgorithm(ABC):
    """Factory and algorithm-global behaviour."""

    #: Registry key, e.g. "2pl".
    name: str = ""

    @abstractmethod
    def make_node_manager(
        self, node_id: int, context: CCContext
    ) -> NodeCCManager:
        """Create the manager for one processing node."""

    def assign_timestamps(
        self, transaction: Transaction, now: float
    ) -> None:
        """Set the transaction's timestamps for a (re)start.

        Default policy: the *initial startup timestamp* is minted once
        and survives restarts (2PL uses it to pick deadlock victims,
        wound-wait orders by it), while ``timestamp`` simply mirrors it.
        BTO overrides this to draw a fresh ordering timestamp per
        attempt, since an aborted BTO transaction's old timestamp is
        stale by construction.
        """
        if transaction.startup_timestamp is None:
            transaction.startup_timestamp = make_timestamp(now)
        transaction.timestamp = transaction.startup_timestamp

    def assign_commit_timestamp(
        self, transaction: Transaction, now: float
    ) -> Timestamp:
        """Mint the globally unique timestamp used during commit (OPT)."""
        stamp = make_timestamp(now)
        transaction.commit_timestamp = stamp
        return stamp

    def start_global(self, simulation) -> None:
        """Start algorithm-global processes (e.g. 2PL's Snoop)."""

    def bind(self, config, streams) -> None:
        """Late-bind the simulation's config and random streams.

        Called once by ``Simulation.__init__`` right after the
        algorithm is constructed, before any node manager exists.
        Composite algorithms (the transaction router) use this to
        build their children and seed their decision streams; the
        paper's algorithms inherit this no-op.
        """

    def on_commit(
        self, transaction: Transaction, response_time: float, now: float
    ) -> None:
        """Observe a commit (router reward feedback; default no-op)."""

    def on_abort(
        self, transaction: Transaction, reason: str, now: float
    ) -> None:
        """Observe an abort (router reward feedback; default no-op)."""

    def __repr__(self) -> str:
        return f"<CCAlgorithm {self.name}>"
