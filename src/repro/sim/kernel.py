"""A generator-coroutine discrete-event simulation kernel.

This is the substrate standing in for DeNet, the Modula-2 simulation
language the paper used.  The model is deliberately SimPy-like:

* An :class:`Environment` owns the simulation clock and the event heap.
* A *process* is a Python generator.  It advances by ``yield``-ing
  *waitables* — :class:`Timeout`, :class:`Event`, another
  :class:`Process`, or the combinators :class:`AllOf` / :class:`AnyOf` —
  and is resumed when the waitable fires.
* A process can be interrupted: :meth:`Process.interrupt` throws
  :class:`Interrupt` into the generator at its current yield point.  The
  transaction manager uses this to abort cohorts that are blocked inside
  the concurrency control manager or busy at a resource.

The kernel is intentionally small, but it is exact: events at equal
simulated times fire in schedule order (FIFO tie-breaking), canceled
timers never fire, and waitable bookkeeping is cleaned up on interrupt so
that no process is ever resumed twice.

Hot-path design (the per-event cost caps every figure replication):

* **One pending-event heap.**  Future callbacks wait on a ``heapq`` of
  ``[time, seq, callback, args]`` lists, where ``seq`` is the global
  schedule counter.  Lists compare element by element, as tuples do,
  so equal times break FIFO, and because ``seq`` is unique the
  comparison never reaches the callback: ordering stays inside C.  A
  calendar queue and a heap of handles ordered by a Python ``__lt__``
  both measured slower end to end (DESIGN §9).
* **Same-time fast lane.**  Zero-delay work — deferred event
  deliveries, process-termination notifications, pending interrupts —
  is about half of all dispatches, and none of it needs a priority
  queue: it always runs at the current timestamp.  It goes onto a FIFO
  ``deque`` instead of the heap, as pairs of three shapes told apart
  by their second element: :meth:`Environment.schedule_now` appends
  ``(callback, args)`` — no entry, no seq; :meth:`Environment.schedule`
  sends an entry due at ``now`` (a zero or sub-ulp delay) there as
  ``(entry, None)``, so it stays cancellable; and a fired
  :class:`Event` appends ``(waiter, event)``, a *delivery* that the
  loop itself hands to the waiter if it still waits on the event, so
  no bound method, argument tuple or frame is built per hop
  (DESIGN §16).  The dispatch loop runs, at each instant, the heap
  entries due then and after them the lane.  That is exact global
  ``(time, seq)`` order: a heap entry due at ``now`` was scheduled
  while the clock was earlier, so its seq precedes every lane entry,
  and nothing scheduled at ``now`` enters the heap (DESIGN §15).
* **The entry is the handle.**  :meth:`Environment.schedule` returns
  the list it queued, and :meth:`Environment.cancel` clears its
  callback slot; the loop skips an entry whose slot is ``None``.  The
  kernel never reuses an entry, so a cancel after the callback ran,
  or a second cancel, only clears a slot that will never be read
  again (DESIGN §17).  A timeout is built fresh too: the model
  makes few of them (136 against 133,983 ``schedule`` calls at the
  saturated fig. 2 point), so :meth:`Environment.timeout` builds a
  fresh :class:`Timeout`, and a fired one may be yielded again.
* **GC paused during dispatch.**  ``run()`` disables the cyclic
  collector for the duration of the loop (see :meth:`Environment.run`),
  so model objects must not form reference cycles.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Mailbox",
    "Process",
    "SimulationError",
    "Timeout",
    "Waitable",
]

#: The generator type driven by the kernel.  The values sent back into the
#: generator are whatever the waitable resolved to.
ProcessGenerator = Generator["Waitable", Any, Any]


class SimulationError(Exception):
    """Raised for kernel misuse (e.g. waiting on a consumed event twice)."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (the transaction manager passes the abort reason).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Waitable:
    """Base class for things a process may ``yield``."""

    __slots__ = ()

    def _subscribe(self, process: "Process") -> None:
        raise NotImplementedError

    def _unsubscribe(self, process: "Process") -> None:
        raise NotImplementedError


class Event(Waitable):
    """A one-shot event that processes can wait on.

    The event starts pending; :meth:`succeed` fires it with a value and
    wakes every waiter.  Waiting on an already-fired event resumes the
    waiter immediately (on the next scheduler step at the current time).
    """

    __slots__ = ("env", "_fired", "_value", "_waiters")

    def __init__(self, env: "Environment"):
        self.env = env
        self._fired = False
        self._value: Any = None
        # None (no waiter) | a single waiter | a list of waiters.  The
        # single-waiter case is the overwhelming majority, so no list is
        # allocated for it.
        self._waiters: Any = None

    @property
    def fired(self) -> bool:
        """Whether :meth:`succeed` has been called."""
        return self._fired

    @property
    def value(self) -> Any:
        """The value the event fired with (``None`` while pending)."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, waking all current waiters with ``value``.

        Delivery is *deferred* to the next scheduler step at the current
        time: firing an event never reenters the caller, so resource and
        concurrency control managers can fire grant events while
        iterating over their own state.  Each waiter, in subscription
        order, gets a ``(waiter, event)`` delivery on the fast lane;
        the dispatch loop resumes it with ``value`` only if it is still
        alive and still waits on this event (it may have been
        interrupted in between).
        """
        if self._fired:
            raise SimulationError("event already fired")
        self._fired = True
        self._value = value
        waiters = self._waiters
        if waiters is not None:
            self._waiters = None
            if type(waiters) is list:
                append = self.env._fast.append
                for process in waiters:
                    append((process, self))
            else:
                self.env._fast.append((waiters, self))
        return self

    def _subscribe(self, process: "Process") -> None:
        if self._fired:
            self.env._fast.append((process, self))
            return
        waiters = self._waiters
        if waiters is None:
            self._waiters = process
        elif type(waiters) is list:
            waiters.append(process)
        else:
            self._waiters = [waiters, process]

    def _unsubscribe(self, process: "Process") -> None:
        waiters = self._waiters
        if waiters is process:
            self._waiters = None
        elif type(waiters) is list:
            try:
                waiters.remove(process)
            except ValueError:
                pass


class Timeout(Waitable):
    """Delay waitable; resumes its waiting process after ``delay``.

    A timeout has one waiter at a time: a second subscription while
    one is pending raises :class:`SimulationError`.  The waiter's
    scheduled entry is kept beside it, so cancellation never depends
    on ``id(process)`` keys, which could collide after garbage
    collection reuses an id.  Once fired, a timeout can be yielded
    again and waits its own ``delay`` anew.
    """

    __slots__ = ("env", "delay", "value", "_waiter", "_entry")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Written so that a NaN delay fails too.
        if not delay >= 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.env = env
        self.delay = delay
        self.value = value
        self._waiter: Optional[Process] = None
        self._entry: Optional[list] = None

    def _subscribe(self, process: "Process") -> None:
        if self._waiter is not None:
            raise SimulationError("a timeout has one waiter at a time")
        self._waiter = process
        self._entry = self.env.schedule(self.delay, self._fire, process)

    def _fire(self, process: "Process") -> None:
        self._waiter = None
        self._entry = None
        if process._alive and process._waiting_on is self:
            process._resume(self.value)

    def _unsubscribe(self, process: "Process") -> None:
        if self._waiter is process:
            assert self._entry is not None
            self.env.cancel(self._entry)
            self._waiter = None
            self._entry = None


class Process(Waitable):
    """A running generator, driven by the environment.

    A process is itself waitable: yielding a process waits for its
    termination and resolves to its return value.  If the awaited process
    died with an unhandled exception, that exception is re-raised in the
    waiter.
    """

    __slots__ = (
        "env",
        "name",
        "_generator",
        "_alive",
        "_result",
        "_exception",
        "_waiting_on",
        "_watchers",
        "_resuming",
    )

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: str = "",
    ):
        self.env = env
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._alive = True
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._waiting_on: Optional[Waitable] = None
        self._watchers: list[Process] = []
        self._resuming = False
        env.schedule_now(self._start)

    def _start(self) -> None:
        self._step(self._generator.send, None)

    @property
    def alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the generator (``None`` while alive)."""
        return self._result

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        Interrupting a dead process is a no-op; that makes races between
        a cohort finishing and the coordinator aborting it harmless.
        """
        if not self._alive:
            return
        if self._waiting_on is not None:
            self._waiting_on._unsubscribe(self)
            self._throw(Interrupt(cause))
        else:
            # Not yet started (or mid-schedule): deliver the interrupt on
            # the next step at the current time.
            self.env.schedule_now(
                self._deliver_pending_interrupt, cause
            )

    def _deliver_pending_interrupt(self, cause: Any) -> None:
        if not self._alive:
            return
        if self._waiting_on is not None:
            self._waiting_on._unsubscribe(self)
        self._throw(Interrupt(cause))

    def _resume(self, value: Any) -> None:
        self._waiting_on = None
        self._step(self._generator.send, value)

    def _throw(self, exception: BaseException) -> None:
        self._waiting_on = None
        self._step(self._generator.throw, exception)

    def _step(
        self, advance: Callable[[Any], Any], argument: Any
    ) -> None:
        if not self._alive:
            return
        try:
            target = advance(argument)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except Interrupt:
            # The process let the interrupt escape: treat as termination.
            self._finish(result=None)
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced to waiters
            self._finish(exception=exc)
            return
        try:
            subscribe = target._subscribe
        except AttributeError:
            self._finish(
                exception=SimulationError(
                    f"process {self.name!r} yielded a non-waitable: "
                    f"{target!r}"
                )
            )
            return
        self._waiting_on = target
        subscribe(self)

    def _finish(
        self,
        result: Any = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        self._alive = False
        self._result = result
        self._exception = exception
        # Drop the generator: it closes the reference cycle through its
        # own frame (frame locals -> model objects -> this process), so
        # finished-transaction machinery is freed by reference counting
        # instead of waiting for the cyclic collector.
        self._generator = None  # type: ignore[assignment]
        watchers, self._watchers = self._watchers, []
        for watcher in watchers:
            self._notify(watcher)
        if exception is not None and not watchers:
            # Nobody is waiting: surface the failure loudly rather than
            # silently losing it.
            self.env._record_crash(self, exception)

    def _notify(self, watcher: "Process") -> None:
        self.env.schedule_now(self._notify_step, watcher)

    def _notify_step(self, watcher: "Process") -> None:
        if not (watcher._alive and watcher._waiting_on is self):
            return
        if self._exception is not None:
            watcher._throw(self._exception)
        else:
            watcher._resume(self._result)

    def _subscribe(self, process: "Process") -> None:
        if self._alive:
            self._watchers.append(process)
        else:
            self._notify(process)

    def _unsubscribe(self, process: "Process") -> None:
        try:
            self._watchers.remove(process)
        except ValueError:
            pass

    def __repr__(self) -> str:
        state = "alive" if self._alive else "done"
        return f"<Process {self.name} {state}>"


class _JoinWatcher:
    """Lightweight per-child subscriber used by :class:`AllOf`/:class:`AnyOf`.

    Earlier versions of the kernel spawned a collector :class:`Process`
    (a full generator) per combinator child; a sweep-heavy simulation
    allocates millions of those.  This shim implements just enough of
    the process protocol — ``_alive``/``_waiting_on`` for the deferred
    delivery checks, ``_resume`` for values, and ``_throw`` for a
    :class:`Process` child that died with an exception — to subscribe
    to a child directly.
    """

    __slots__ = ("owner", "index", "_alive", "_waiting_on")

    def __init__(self, owner: "Waitable", index: int, child: Waitable):
        self.owner = owner
        self.index = index
        self._alive = True
        self._waiting_on: Optional[Waitable] = child
        child._subscribe(self)

    @property
    def name(self) -> str:
        """Crash-report identity, built only when a crash is reported."""
        return f"{type(self.owner).__name__.lower()}-watcher"

    def _resume(self, value: Any) -> None:
        self._alive = False
        self._waiting_on = None
        self.owner._child_fired(self.index, value)

    def _throw(self, exception: BaseException) -> None:
        self._alive = False
        self._waiting_on = None
        self.owner._child_failed(self, exception)

    def detach(self) -> None:
        """Stop watching the child (used when another child won)."""
        if not self._alive:
            return
        self._alive = False
        child = self._waiting_on
        self._waiting_on = None
        if child is not None:
            child._unsubscribe(self)


class AllOf(Waitable):
    """Waits until every child waitable has fired; resolves to a list.

    Results are ordered as the children were given.  Children are
    watched inline via :class:`_JoinWatcher` — no collector process is
    spawned per child.
    """

    __slots__ = ("env", "_children", "_pending", "_results", "_proxy")

    def __init__(self, env: "Environment", children: Iterable[Waitable]):
        self.env = env
        self._children = list(children)
        self._pending = len(self._children)
        self._results: list[Any] = [None] * len(self._children)
        self._proxy = Event(env)
        if self._pending == 0:
            self._proxy.succeed([])
            return
        for index, child in enumerate(self._children):
            _JoinWatcher(self, index, child)

    def _child_fired(self, index: int, value: Any) -> None:
        self._results[index] = value
        self._pending -= 1
        if self._pending == 0 and not self._proxy.fired:
            self._proxy.succeed(list(self._results))

    def _child_failed(
        self, watcher: _JoinWatcher, exception: BaseException
    ) -> None:
        # Matches the old collector-process behaviour: the failure is
        # recorded as an unobserved crash and the join never fires.
        self.env._record_crash(watcher, exception)

    def _subscribe(self, process: "Process") -> None:
        self._proxy._subscribe(process)
        # Deferred deliveries check ``process._waiting_on is event``;
        # point the waiter at the proxy so the check matches.
        process._waiting_on = self._proxy

    def _unsubscribe(self, process: "Process") -> None:
        self._proxy._unsubscribe(process)


class AnyOf(Waitable):
    """Waits until the first child fires; resolves to ``(index, value)``.

    When the first child fires, the watchers on the remaining children
    are detached (their subscriptions cancelled), so losing children
    never accumulate dead subscribers and a losing timer's heap entry is
    cancelled rather than left to fire as a no-op.
    """

    __slots__ = ("env", "_proxy", "_watchers")

    def __init__(self, env: "Environment", children: Iterable[Waitable]):
        self.env = env
        self._proxy = Event(env)
        # Child firings are always delivered via the scheduler (never
        # synchronously during _subscribe), so the full watcher list is
        # in place before any _child_fired can run.
        self._watchers = [
            _JoinWatcher(self, index, child)
            for index, child in enumerate(children)
        ]

    def _child_fired(self, index: int, value: Any) -> None:
        if not self._proxy.fired:
            self._proxy.succeed((index, value))
            watchers, self._watchers = self._watchers, []
            for watcher in watchers:
                watcher.detach()

    def _child_failed(
        self, watcher: _JoinWatcher, exception: BaseException
    ) -> None:
        self.env._record_crash(watcher, exception)

    def _subscribe(self, process: "Process") -> None:
        self._proxy._subscribe(process)
        # See AllOf._subscribe: align the waiter with the proxy event.
        process._waiting_on = self._proxy

    def _unsubscribe(self, process: "Process") -> None:
        self._proxy._unsubscribe(process)


class Mailbox:
    """An unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns an :class:`Event` that fires
    with the next item (immediately, via deferred delivery, if one is
    already queued).  The transaction manager uses one mailbox per
    cohort for two-phase-commit control messages.
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: "Environment"):
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest pending getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)


class Environment:
    """Simulation clock, event heap + fast lane, and process factory.

    ``now`` is a plain attribute (read-hot); treat it as read-only from
    model code.  ``dispatch_count`` counts callbacks actually run — the
    events/second benchmarks divide it by wall-clock time.

    A scheduled entry is a list ``[time, seq, callback, args]``;
    :meth:`cancel` sets its ``callback`` slot to ``None``.  Fast-lane
    entries are pairs, told apart by their second element:
    ``(callback, args)`` from :meth:`schedule_now` (a tuple),
    ``(entry, None)`` for a ``schedule`` entry due at the current
    instant, and ``(waiter, event)`` for a fired :class:`Event`'s
    delivery to one waiter.  Each counts as one dispatch, a dropped
    delivery included; a cancelled entry does not.
    """

    __slots__ = (
        "now",
        "_heap",
        "_fast",
        "_seq",
        "_crashes",
        "_running",
        "dispatch_count",
    )

    def __init__(self):
        self.now = 0.0
        self._heap: list[list] = []
        # Three entry shapes, told apart by the second slot (see the
        # class docstring): args tuple, None, or the fired Event.
        self._fast: deque[tuple[Any, Any]] = deque()
        self._seq = 0
        self._crashes: list[tuple[Process, BaseException]] = []
        self._running = False
        self.dispatch_count = 0

    @property
    def crashes(self) -> list[tuple["Process", BaseException]]:
        """Processes that died with unobserved exceptions."""
        return list(self._crashes)

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> list:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        Returns the entry, ``[time, seq, callback, args]``, for
        :meth:`cancel`.  An entry due at the current instant (a zero or
        sub-ulp delay) joins the fast lane, so it stays cancellable.
        """
        # Written so that a NaN delay fails too.
        if not delay >= 0:
            raise SimulationError(f"negative delay: {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        now = self.now
        time = now + delay
        entry = [time, seq, callback, args]
        # The delay is not negative, so the entry is due now or later.
        if time > now:
            heapq.heappush(self._heap, entry)
        else:
            self._fast.append((entry, None))
        return entry

    @staticmethod
    def cancel(entry: list) -> None:
        """Keep a :meth:`schedule` entry's callback from running.

        The loop reaps the entry without counting it.  Entries are
        never reused, so cancelling one that already ran, or cancelling
        twice, is harmless.
        """
        entry[2] = None

    def schedule_now(
        self, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` on the next step at the current time.

        The path of every deferred delivery.  It cannot be cancelled
        (use ``schedule(0.0, ...)`` for that): it appends a plain
        ``(callback, args)`` pair to the fast lane and builds no
        entry.
        """
        self._fast.append((callback, args))

    def process(
        self, generator: ProcessGenerator, name: str = ""
    ) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a delay waitable that resolves to ``value``."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Create a fresh one-shot event."""
        return Event(self)

    def all_of(self, children: Iterable[Waitable]) -> AllOf:
        """Create a join waitable over ``children``."""
        return AllOf(self, children)

    def any_of(self, children: Iterable[Waitable]) -> AnyOf:
        """Create a first-of waitable over ``children``."""
        return AnyOf(self, children)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues drain or the clock reaches ``until``.

        When stopped by ``until``, the clock is advanced exactly to
        ``until`` so that time-weighted statistics close their intervals
        at the requested horizon.  ``until`` must not lie in the past;
        a past ``until`` raises :class:`SimulationError`.

        The loop is not reentrant: calling ``run`` while it runs, from
        a callback or a process, raises :class:`SimulationError`.  The
        error propagates out of a callback and out of the outer
        ``run``; a process that calls it dies with it, like any other
        process error (a crash for :meth:`check_crashes` when nobody
        watches the process).

        Each instant runs in two phases: the heap entries due at ``now``
        in seq order, then the fast lane until it is empty.  A heap
        entry due at ``now`` was scheduled while the clock was earlier,
        so its seq precedes every lane entry, and everything scheduled
        at ``now`` joins the lane: the two phases are exact global
        ``(time, seq)`` order.  The clock then moves to the earliest
        live heap entry; reaping a cancelled one never moves it.
        A lane delivery ``(waiter, event)`` resumes the waiter with the
        event's value if ``waiter._alive and waiter._waiting_on is
        event``, and is dropped otherwise.  An entry whose callback
        slot is ``None`` was cancelled: it is reaped and not counted.

        The cyclic collector is paused for the duration of the loop.
        The loop allocates at a steady rate, and letting the collector
        interrupt it every few hundred allocations costs ~10-15% of
        wall time on event-dense workloads.  While it is paused,
        anything left in a reference cycle stays resident until the
        run ends.  Finished processes drop their generator frames, and
        the model keeps its references one-way (a transaction does not
        reference its cohorts), so reference counting frees a
        committed transaction's records at commit.  The one cycle that
        remains is an :class:`AllOf` abandoned before all its children
        fire (the abort path), with its watchers and events; it is
        reclaimed after the run.
        """
        if self._running:
            raise SimulationError(
                "run() called while the dispatch loop is running"
            )
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until!r}) lies before now={self.now!r}"
            )
        pause_gc = gc.isenabled()
        if pause_gc:
            gc.disable()
        heap = self._heap
        fast = self._fast
        popleft = fast.popleft
        heappop = heapq.heappop
        now = self.now
        dispatched = self.dispatch_count
        self._running = True
        try:
            while True:
                # A heap top never precedes ``now``.
                while heap and not heap[0][0] > now:
                    _time, _seq, callback, args = heappop(heap)
                    if callback is not None:
                        dispatched += 1
                        callback(*args)
                while fast:
                    first, second = popleft()
                    if type(second) is tuple:
                        dispatched += 1
                        first(*second)
                    elif second is None:
                        _time, _seq, callback, args = first
                        if callback is not None:
                            dispatched += 1
                            callback(*args)
                    else:
                        # A delivery: the waiter may have been
                        # interrupted (and moved on) since the fire.
                        dispatched += 1
                        if first._alive and first._waiting_on is second:
                            first._resume(second._value)
                while heap:
                    time, _seq, callback, _args = heap[0]
                    if until is not None and time > until:
                        self.now = until
                        return
                    if callback is not None:
                        break
                    heappop(heap)
                else:
                    break
                now = time
                self.now = time
        finally:
            self.dispatch_count = dispatched
            self._running = False
            if pause_gc:
                gc.enable()
        if until is not None and until > self.now:
            self.now = until

    def _record_crash(
        self, process: Process, exception: BaseException
    ) -> None:
        self._crashes.append((process, exception))

    def check_crashes(self) -> None:
        """Raise the first unobserved process failure, if any.

        The simulation driver calls this after :meth:`run` so that bugs
        in model code fail tests instead of silently skewing statistics.
        """
        if self._crashes:
            process, exception = self._crashes[0]
            raise SimulationError(
                f"process {process.name!r} crashed: {exception!r}"
            ) from exception
