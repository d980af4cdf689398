"""Transaction, cohort, and access-specification records (paper §2.1, §3.3).

A transaction is created at a terminal with a fixed *access
specification*: which partitions of its relation it touches, which pages
it reads in each, and which of those it updates.  The specification is
immutable across restarts — the paper models an aborted transaction
re-running the same work.

At run time each attempt instantiates a coordinator (implicit in the
transaction-manager process) plus one :class:`Cohort` per processing
node holding data the transaction accesses.  Timestamps are
``(time, sequence)`` pairs, unique and totally ordered; "older" means
smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import count
from typing import TYPE_CHECKING, Any, List, NamedTuple, Optional, \
    Tuple

from repro.core.config import ExecutionPattern, TransactionClassConfig
from repro.core.database import PageId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Event, Process

__all__ = [
    "AccessSpec",
    "Cohort",
    "CohortSpec",
    "PageAccess",
    "Timestamp",
    "Transaction",
    "TransactionState",
    "make_timestamp",
]

#: A globally unique, totally ordered timestamp.
Timestamp = Tuple[float, int]

_timestamp_sequence = count()


def make_timestamp(now: float) -> Timestamp:
    """Mint a fresh timestamp at simulated time ``now``."""
    return (now, next(_timestamp_sequence))


class TransactionState(Enum):
    """Lifecycle of one transaction *attempt*."""

    PENDING = "pending"
    RUNNING = "running"
    PREPARING = "preparing"  # first phase of two-phase commit
    COMMITTING = "committing"  # second phase: wounds no longer fatal
    ABORTING = "aborting"
    COMMITTED = "committed"
    ABORTED = "aborted"


class PageAccess(NamedTuple):
    """One page touched by a cohort; updated pages are read first.

    ``install_only`` marks the write-all legs of a replicated update
    (extension): the cohort writes this node's copy without reading it
    first — a concurrency control write request and a processing burst,
    but no read request and no disk read.
    """

    page: PageId
    is_update: bool
    install_only: bool = False


@dataclass(frozen=True)
class CohortSpec:
    """The work one cohort performs at one processing node."""

    node: int
    accesses: Tuple[PageAccess, ...]

    @property
    def num_reads(self) -> int:
        """Accesses that read (install-only legs do not)."""
        return sum(
            1 for access in self.accesses if not access.install_only
        )

    @property
    def num_updates(self) -> int:
        """Accesses that perform a write (including install legs)."""
        return sum(1 for access in self.accesses if access.is_update)


@dataclass(frozen=True)
class AccessSpec:
    """Everything a transaction will access, fixed at origination."""

    relation: int
    cohorts: Tuple[CohortSpec, ...]

    @property
    def num_reads(self) -> int:
        """Total pages read across all cohorts."""
        return sum(cohort.num_reads for cohort in self.cohorts)

    @property
    def num_updates(self) -> int:
        """Total pages updated across all cohorts."""
        return sum(cohort.num_updates for cohort in self.cohorts)

    @property
    def nodes(self) -> Tuple[int, ...]:
        """Processing nodes touched, in cohort order."""
        return tuple(cohort.node for cohort in self.cohorts)


class Cohort:
    """Run-time state of one cohort during one attempt."""

    __slots__ = (
        "transaction",
        "spec",
        "index",
        "attempt",
        "process",
        "load_posted",
        "crashed",
        "done_event",
        "vote_event",
        "commit_ack_event",
        "abort_ack_event",
        "mailbox",
        "cc_state",
    )

    def __init__(self, transaction: "Transaction", spec: CohortSpec,
                 index: int):
        self.transaction = transaction
        self.spec = spec
        self.index = index
        #: The transaction attempt this cohort belongs to; fault-mode
        #: delivery guards drop messages addressed to a stale attempt.
        self.attempt = transaction.attempt
        self.process: Optional["Process"] = None
        self.load_posted = False
        #: Set when the cohort's node crashed while it was resident.
        self.crashed = False
        self.done_event: Optional["Event"] = None
        self.vote_event: Optional["Event"] = None
        self.commit_ack_event: Optional["Event"] = None
        self.abort_ack_event: Optional["Event"] = None
        self.mailbox: Any = None
        #: Scratch area owned by the node's concurrency control manager.
        self.cc_state: Any = None

    @property
    def node(self) -> int:
        """The processing node this cohort runs at."""
        return self.spec.node

    @property
    def updated_pages(self) -> List[PageId]:
        """Pages this cohort updates (written back after commit)."""
        return [a.page for a in self.spec.accesses if a.is_update]

    def __repr__(self) -> str:
        return (
            f"<Cohort txn={self.transaction.tid} node={self.node}"
            f" accesses={len(self.spec.accesses)}>"
        )


class Transaction:
    """A transaction across all of its attempts."""

    __slots__ = (
        "tid",
        "terminal",
        "class_config",
        "spec",
        "origination_time",
        "startup_timestamp",
        "timestamp",
        "commit_timestamp",
        "state",
        "attempt",
        "abort_event",
        "abort_pending",
        "abort_reason",
        "num_aborts",
        "fault_retries",
        "routed_class",
        "routed_algorithm",
    )

    _tid_sequence = count()

    def __init__(
        self,
        terminal: int,
        class_config: TransactionClassConfig,
        spec: AccessSpec,
        origination_time: float,
    ):
        self.tid = next(Transaction._tid_sequence)
        self.terminal = terminal
        self.class_config = class_config
        self.spec = spec
        self.origination_time = origination_time
        #: Initial startup timestamp: never changes across restarts.
        #: Used by 2PL victim selection and kept by wound-wait.
        self.startup_timestamp: Optional[Timestamp] = None
        #: The timestamp the CC algorithm currently orders this
        #: transaction by (BTO renews it on restart).
        self.timestamp: Optional[Timestamp] = None
        #: OPT certification timestamp, assigned when 2PC starts.
        self.commit_timestamp: Optional[Timestamp] = None
        self.state = TransactionState.PENDING
        self.attempt = 0
        self.abort_event: Optional["Event"] = None
        self.abort_pending = False
        self.abort_reason: Optional[str] = None
        self.num_aborts = 0
        #: Consecutive failure-induced aborts, driving the terminal's
        #: exponential retry backoff (fault mode only).
        self.fault_retries = 0
        #: Router classification, fixed at first BEGIN and kept across
        #: restarts so every attempt runs under the same algorithm
        #: (None when no router is active).
        self.routed_class: Optional[str] = None
        self.routed_algorithm: Optional[str] = None

    @property
    def parallel(self) -> bool:
        """Whether cohorts run in parallel (vs one after another)."""
        return (
            self.class_config.execution_pattern
            is ExecutionPattern.PARALLEL
        )

    def begin_attempt(self) -> List[Cohort]:
        """Reset per-attempt state and return fresh cohort records.

        The caller (the attempt's coordinator) owns the list: a
        transaction keeps no reference to its cohorts, so the only
        edge between the two runs cohort → transaction, and a finished
        attempt's cohorts are freed by reference counting.
        """
        self.attempt += 1
        self.state = TransactionState.RUNNING
        self.abort_pending = False
        self.abort_reason = None
        self.commit_timestamp = None
        return [
            Cohort(self, spec, index)
            for index, spec in enumerate(self.spec.cohorts)
        ]

    def mark_abort(self, reason: str) -> None:
        """Record that this attempt must abort (idempotent)."""
        if not self.abort_pending:
            self.abort_pending = True
            self.abort_reason = reason

    @property
    def in_second_commit_phase(self) -> bool:
        """True once the commit decision is final (wounds ignored)."""
        return self.state in (
            TransactionState.COMMITTING,
            TransactionState.COMMITTED,
        )

    @property
    def abortable(self) -> bool:
        """Whether an external abort request can still take effect."""
        return self.state in (
            TransactionState.RUNNING,
            TransactionState.PREPARING,
        )

    def __repr__(self) -> str:
        return (
            f"<Txn {self.tid} attempt={self.attempt}"
            f" state={self.state.value}>"
        )
