"""The network manager (paper §3.5).

The network is modeled as a switch: wire time is negligible (the paper's
fast-local-network assumption), but the CPU cost of message protocol
processing — ``InstPerMsg`` instructions — is charged at *both* the
sending and the receiving node, in the high-priority FIFO message class
of each CPU.

Delivery is asynchronous: :meth:`NetworkManager.post` returns
immediately and the payload handler runs once both CPU charges have been
served.  Messages between the same (source, destination) pair are
delivered in posting order, because both CPUs serve their message class
FIFO.

Each in-flight message is tracked by a :class:`_Courier` — a tiny
two-stage state machine that hands each CPU charge its own bound
continuation, so no event is built per charge.  Earlier versions
spawned a kernel :class:`Process` (a full generator) per message; with
tens of thousands of messages per simulated second that allocation
showed up at the top of every profile.

Fault injection (``repro.faults``) hooks in through
:meth:`NetworkManager.attach_faults`: with an injector attached, every
inter-node message first passes the fault filter (drop when either
endpoint is down or the loss coin says so, optionally delay), and
in-flight couriers touching a crashing node are discarded.  Without an
injector the filter is a single ``is None`` check and the failure-free
delivery schedule is untouched.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim.kernel import Environment
from repro.sim.resources import CPU
from repro.sim.stats import Counter

__all__ = ["HOST_NODE", "NetworkManager"]

#: Node id of the (single) host node; processing nodes are 0..N-1.
HOST_NODE = -1


class _Courier:
    """In-flight message: charge source CPU, charge destination, deliver.

    Runs in the exact step order of the generator-based courier it
    replaced: the source-CPU charge is submitted on the courier's first
    scheduler step, not at post time, so the CPU's message FIFO sees the
    same arrival order relative to other same-instant work.  Each charge
    gets the bound :meth:`_charged` as its continuation, which the CPU
    schedules in the lane slot an event's delivery to the courier took
    (DESIGN §16); a courier killed in between is not advanced.
    """

    __slots__ = (
        "net",
        "source",
        "destination",
        "handler",
        "payload",
        "on_drop",
        "_stage",
        "_alive",
    )

    def __init__(
        self,
        net: "NetworkManager",
        source: int,
        destination: int,
        handler: Callable[[Any], None],
        payload: Any,
        on_drop: Optional[Callable[[Any], None]] = None,
    ):
        self.net = net
        self.source = source
        self.destination = destination
        self.handler = handler
        self.payload = payload
        self.on_drop = on_drop
        self._stage = 0
        self._alive = True
        if net._inflight is not None:
            net._inflight[self] = None
        # The pair ``schedule_now(self._start)`` appends, appended here.
        net.env._fast.append((self._start, ()))

    @property
    def name(self) -> str:
        """Crash-report identity: sending→receiving node and the
        message class (the handler that would have run on delivery)."""
        handler = getattr(
            self.handler, "__qualname__", None
        ) or repr(self.handler)
        return f"msg-{self.source}->{self.destination}:{handler}"

    def _charge(self, node: int) -> None:
        net = self.net
        net._cpus[node].execute_message(net.inst_per_msg, self._charged)

    def _start(self) -> None:
        if not self._alive:  # killed before the first scheduler step
            return
        self._charge(self.source)

    def _charged(self) -> None:
        if not self._alive:  # killed while its charge was served
            return
        if self._stage == 0:
            self._stage = 1
            self._charge(self.destination)
            return
        self._alive = False
        inflight = self.net._inflight
        if inflight is not None:
            inflight.pop(self, None)
        try:
            self.handler(self.payload)
        except BaseException as exc:  # noqa: BLE001 - surfaced like a crash
            self.net.env._record_crash(self, exc)

    def kill(self) -> None:
        """Discard this message mid-flight; it is never delivered.

        A charge already queued at a CPU is still served (message work
        cannot be cancelled); its continuation then finds the courier
        dead and stops.
        """
        self._alive = False


class NetworkManager:
    """Routes messages between nodes, charging per-end CPU costs."""

    def __init__(
        self,
        env: Environment,
        cpus: Dict[int, CPU],
        inst_per_msg: float,
    ):
        self.env = env
        self._cpus = cpus
        self.inst_per_msg = inst_per_msg
        self.messages_sent = Counter()
        self.messages_dropped = Counter()
        # Fault hooks: None until an injector attaches (failure-free
        # runs never pay for courier tracking).
        self._faults = None
        self._inflight: Optional[Dict[_Courier, None]] = None

    def attach_faults(self, injector) -> None:
        """Route every message through ``injector``'s fault filter and
        start tracking in-flight couriers so crashes can discard them."""
        self._faults = injector
        self._inflight = {}

    def post(
        self,
        source: int,
        destination: int,
        handler: Callable[[Any], None],
        payload: Any = None,
        on_drop: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Send a message; ``handler(payload)`` runs on delivery.

        Intra-node hand-offs are free and delivered on the next
        scheduler step (still asynchronous, so callers never reenter).

        ``on_drop(payload)`` runs (asynchronously) instead if fault
        injection discards the message; without an injector attached
        messages are never dropped and the hook is inert.

        Protocol contract: both hooks are invoked with exactly one
        positional argument (the payload), never more, never fewer —
        a bound method, local function, or lambda must accept that
        shape.  A hook of another shape raises ``TypeError`` when it
        runs: a courier's delivery records it as a crash, which
        :meth:`~repro.sim.kernel.Environment.check_crashes` raises
        after the run, and a hand-off or drop hook run from the fast
        lane raises it straight out of ``Environment.run``.
        """
        if source == destination:
            self.env.schedule_now(handler, payload)
            return
        if self._faults is not None and self._intercept(
            source, destination, handler, payload, on_drop
        ):
            return
        self._transmit(source, destination, handler, payload, on_drop)

    def _transmit(
        self,
        source: int,
        destination: int,
        handler: Callable[[Any], None],
        payload: Any,
        on_drop: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.messages_sent.increment()
        if self.inst_per_msg <= 0.0:
            # No CPU cost: deliver on the next step, preserving order.
            self.env.schedule_now(handler, payload)
            return
        _Courier(self, source, destination, handler, payload, on_drop)

    # ------------------------------------------------------------------
    # Fault filter (active only with an injector attached)
    # ------------------------------------------------------------------

    def _intercept(
        self, source, destination, handler, payload, on_drop
    ) -> bool:
        """Apply the fault filter; True when the message was consumed
        (dropped, or rescheduled after a wire delay)."""
        faults = self._faults
        if faults.node_down(source) or faults.node_down(destination):
            self._drop(payload, on_drop)
            return True
        schedule = faults.schedule
        if schedule.drop_message():
            self._drop(payload, on_drop)
            return True
        delay = schedule.message_delay()
        if delay > 0.0:
            self.env.schedule(
                delay, self._deliver_delayed,
                source, destination, handler, payload, on_drop,
            )
            return True
        return False

    def _deliver_delayed(
        self, source, destination, handler, payload, on_drop
    ) -> None:
        # Either endpoint may have crashed while the message sat on
        # the wire; the loss/delay coins are never re-flipped.
        faults = self._faults
        if faults.node_down(source) or faults.node_down(destination):
            self._drop(payload, on_drop)
            return
        self._transmit(source, destination, handler, payload, on_drop)

    def _drop(self, payload, on_drop) -> None:
        self.messages_dropped.increment()
        if on_drop is not None:
            self.env.schedule_now(on_drop, payload)

    def kill_inflight(self, node: int) -> None:
        """Discard every in-flight courier to or from ``node``."""
        if not self._inflight:
            return
        doomed = [
            courier for courier in self._inflight
            if courier.source == node or courier.destination == node
        ]
        for courier in doomed:
            del self._inflight[courier]
            courier.kill()
            self._drop(courier.payload, courier.on_drop)

    def __repr__(self) -> str:
        return (
            f"<NetworkManager nodes={len(self._cpus)}"
            f" sent={self.messages_sent.count}>"
        )
