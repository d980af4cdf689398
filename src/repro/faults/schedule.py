"""Deterministic fault schedules: what fails, when, for how long.

A :class:`FaultSchedule` is built once per simulation, before the
clock starts, from a frozen :class:`FaultConfig` plus the simulation's
:class:`~repro.sim.streams.RandomStreams`.  Every stochastic decision
is drawn from a dedicated ``fault-*`` named stream:

* ``fault-crash-{node}`` / ``fault-repair-{node}`` — per-node
  exponential time-to-failure and time-to-repair draws, materialised
  eagerly into a sorted crash/recover timeline up to the simulation
  horizon.
* ``fault-msg-loss`` — the Bernoulli coin for each candidate message.
* ``fault-msg-delay`` / ``fault-msg-delay-time`` — whether and by how
  much a message is delayed on the wire.

Because streams are independent by *name* (see ``repro.sim.streams``),
fault draws never perturb the workload or CC draw sequences: the same
seed produces the same transaction arrivals with and without faults,
which keeps common-random-numbers comparisons honest.  Drawing fault
decisions from any non-``fault-*`` stream is a determinism hazard and
is flagged by the ``stream-registry`` simlint rule.

Crash semantics are fail-stop with volatile-state loss: a crashed node
loses its in-memory CC state (lock tables, timestamp tables, pending
certifications) but not its committed data — recovery is modelled as
an instantaneous REDO from the log at the end of the repair interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.streams import RandomStreams

__all__ = ["FaultConfig", "FaultEvent", "FaultSchedule"]

#: The two timeline event kinds.
CRASH = "crash"
RECOVER = "recover"

#: Recover-before-crash at equal times, so an explicit zero-length
#: outage is a no-op rather than a stuck-down node.
_KIND_ORDER = {RECOVER: 0, CRASH: 1}


@dataclass(frozen=True)
class FaultEvent:
    """One explicit timeline entry: ``node`` crashes or recovers."""

    time: float
    kind: str  # CRASH or RECOVER
    node: int


@dataclass(frozen=True)
class FaultConfig:
    """Frozen description of every fault the simulation may inject.

    All fields default to "no fault", so ``FaultConfig()`` attaches
    the hardening machinery (timeouts, resend loops, leak checks)
    without scheduling any actual failure.  Hashable, so faulty
    configurations stay sweepable and result-cacheable.
    """

    # -- stochastic node crashes (per processing node) -----------------
    #: Mean time between failures; 0 disables drawn crashes.
    node_mtbf: float = 0.0
    #: Mean time to repair; required > 0 when node_mtbf > 0.
    node_mttr: float = 0.0
    #: Restrict drawn crashes to these nodes (None = every node).
    crashable_nodes: Optional[Tuple[int, ...]] = None

    # -- message faults ------------------------------------------------
    #: Probability an inter-node message is silently dropped.
    message_loss_probability: float = 0.0
    #: Probability an inter-node message is delayed on the wire.
    message_delay_probability: float = 0.0
    #: Mean of the exponential extra wire delay (seconds).
    mean_message_delay: float = 0.0

    # -- explicit timeline (merged with drawn events) ------------------
    events: Tuple[FaultEvent, ...] = ()

    # -- 2PC hardening knobs (seconds) ---------------------------------
    #: Coordinator abandons the execution phase after this long.
    execution_timeout: float = 60.0
    #: Coordinator presumes abort when votes take longer than this.
    prepare_timeout: float = 10.0
    #: Participant blocking-detection interval while awaiting the
    #: commit/abort decision after voting yes.
    decision_timeout: float = 10.0
    #: Coordinator resends the phase-two decision at this interval.
    ack_timeout: float = 10.0

    # -- terminal retry backoff for failure-induced aborts -------------
    #: First-retry mean delay (seconds).
    retry_backoff_base: float = 0.25
    #: Mean-delay growth factor per consecutive failure abort.
    retry_backoff_multiplier: float = 2.0
    #: Ceiling on the mean retry delay.
    retry_backoff_cap: float = 8.0

    def validate(self) -> None:
        """Raise ``ValueError`` on an unusable fault description."""
        if self.node_mtbf < 0.0:
            raise ValueError("node_mtbf must be >= 0")
        if self.node_mtbf > 0.0 and self.node_mttr <= 0.0:
            raise ValueError(
                "node_mttr must be > 0 when node_mtbf > 0 "
                "(a crashed node must eventually repair)"
            )
        for name in (
            "message_loss_probability", "message_delay_probability",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.message_delay_probability > 0.0 \
                and self.mean_message_delay <= 0.0:
            raise ValueError(
                "mean_message_delay must be > 0 when messages "
                "can be delayed"
            )
        for name in (
            "execution_timeout", "prepare_timeout",
            "decision_timeout", "ack_timeout",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.retry_backoff_base < 0.0:
            raise ValueError("retry_backoff_base must be >= 0")
        if self.retry_backoff_multiplier < 1.0:
            raise ValueError("retry_backoff_multiplier must be >= 1")
        if self.retry_backoff_cap < self.retry_backoff_base:
            raise ValueError(
                "retry_backoff_cap must be >= retry_backoff_base"
            )
        if self.crashable_nodes is not None:
            for node in self.crashable_nodes:
                if node < 0:
                    raise ValueError(
                        "crashable_nodes entries must be processing "
                        f"node ids >= 0, got {node}"
                    )
        for event in self.events:
            if event.kind not in (CRASH, RECOVER):
                raise ValueError(
                    f"unknown fault event kind {event.kind!r}"
                )
            if event.time < 0.0:
                raise ValueError("fault event times must be >= 0")
            if event.node < 0:
                raise ValueError(
                    "fault events target processing node ids >= 0 "
                    "(the host node never crashes)"
                )


class FaultSchedule:
    """A materialised, fully deterministic fault timeline.

    The crash/recover timeline is drawn eagerly at construction (one
    alternating failure/repair walk per crashable node, merged with
    any explicit events and sorted), so replaying the same config and
    seed replays the identical fault history regardless of what the
    workload does.  Message-level decisions are drawn lazily, one per
    candidate message, from their own streams.
    """

    def __init__(
        self,
        config: FaultConfig,
        streams: RandomStreams,
        num_proc_nodes: int,
        horizon: float,
    ):
        config.validate()
        self.config = config
        self.horizon = horizon
        self._streams = streams
        self._loss_p = config.message_loss_probability
        self._delay_p = config.message_delay_probability
        self._delay_mean = config.mean_message_delay
        self.events: List[FaultEvent] = self._materialise(
            config, streams, num_proc_nodes, horizon
        )

    @staticmethod
    def _materialise(
        config: FaultConfig,
        streams: RandomStreams,
        num_proc_nodes: int,
        horizon: float,
    ) -> List[FaultEvent]:
        events = [
            event for event in config.events if event.time < horizon
        ]
        if config.node_mtbf > 0.0:
            nodes = range(num_proc_nodes)
            if config.crashable_nodes is not None:
                nodes = sorted(
                    node for node in set(config.crashable_nodes)
                    if node < num_proc_nodes
                )
            for node in nodes:
                clock = 0.0
                while True:
                    clock += streams.exponential(
                        f"fault-crash-{node}", config.node_mtbf,
                        owner="faults",
                    )
                    if clock >= horizon:
                        break
                    events.append(FaultEvent(clock, CRASH, node))
                    clock += streams.exponential(
                        f"fault-repair-{node}", config.node_mttr,
                        owner="faults",
                    )
                    if clock >= horizon:
                        break
                    events.append(FaultEvent(clock, RECOVER, node))
        events.sort(
            key=lambda e: (e.time, _KIND_ORDER[e.kind], e.node)
        )
        return events

    # ------------------------------------------------------------------
    # Per-message decisions
    # ------------------------------------------------------------------

    def drop_message(self) -> bool:
        """One Bernoulli loss decision for a candidate message."""
        return self._streams.bernoulli(
            "fault-msg-loss", self._loss_p, owner="faults"
        )

    def message_delay(self) -> float:
        """Extra wire delay for a candidate message (0.0 = none)."""
        if not self._streams.bernoulli(
            "fault-msg-delay", self._delay_p, owner="faults"
        ):
            return 0.0
        return self._streams.exponential(
            "fault-msg-delay-time", self._delay_mean, owner="faults"
        )
