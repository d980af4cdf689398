"""Resource disciplines used by the paper's resource manager (§3.4).

Two physical resources are modeled:

* :class:`CPU` — one per node.  The paper specifies the service
  discipline exactly: *"first-come, first-served (FIFO) for message
  service and processor sharing for all other services, with message
  processing being higher priority."*  We implement processor sharing
  with the classic virtual-time construction, so every state transition
  costs O(log n) rather than O(n): the PS virtual clock ``V`` advances at
  rate ``1/n`` while ``n`` jobs share the processor, and a job arriving
  with ``s`` dedicated-seconds of work completes when ``V`` reaches its
  arrival value plus ``s``.  While a message is in service the PS clock
  freezes (messages have strict priority).

* :class:`Disk` — several per node.  Each disk serves its own queue
  FIFO, with *"disk writes given priority over disk reads"* so that the
  asynchronous post-commit write-back keeps up.  Access times are
  sampled uniformly from [MinDiskTime, MaxDiskTime].

A request is its own kernel :class:`~repro.sim.kernel.Event`: it fires
on completion, and its state says in O(1) whether it can still be
cancelled.  When the last waiter of a pending request stops waiting
(a cohort interrupted by an abort mid-request, or a losing
:class:`~repro.sim.kernel.AnyOf` child), the request cancels itself, so
no resource is spent on a dead cohort.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from enum import Enum
from itertools import count
from typing import Callable, Optional

from repro.sim.kernel import Environment, Event
from repro.sim.stats import TimeWeighted

__all__ = ["CPU", "Disk", "DiskRequestKind"]

# Jobs whose PS target lies within this many virtual seconds of the
# current virtual clock are considered complete (floating-point slack).
_V_EPSILON = 1e-9


class _PsJob(Event):
    """A processor-sharing job, itself the event its completion fires.

    It completes when the CPU's virtual clock reaches the target it is
    keyed by in the PS heap.  A cancelled job stays in the heap until
    it reaches the top.
    """

    __slots__ = ("cpu", "cancelled")

    def __init__(self, env: Environment, cpu: "CPU"):
        # Event.__init__ written out: one frame fewer per job.
        self.env = env
        self._fired = False
        self._value = None
        self._waiters = None
        self.cpu = cpu
        self.cancelled = False

    def _unsubscribe(self, process) -> None:
        Event._unsubscribe(self, process)
        if not self._waiters:
            # Nobody waits for the residual work any more.
            self.cpu.cancel(self)


class CPU:
    """Processor with PS service and priority FIFO message service.

    Work is expressed in *instructions*; the CPU converts to seconds via
    its MIPS rating.  :meth:`execute` enters the processor-sharing class
    (transaction page processing, I/O initiation, process startup);
    :meth:`execute_message` enters the high-priority FIFO class (message
    protocol processing), whose work nothing waits on as an event: the
    caller passes the continuation to run once it has been served.
    """

    def __init__(self, env: Environment, mips: float, name: str = "cpu"):
        if mips <= 0:
            raise ValueError(f"CPU rate must be positive, got {mips}")
        self.env = env
        self.mips = mips
        self.name = name
        self._instructions_per_second = mips * 1e6
        # Processor-sharing state.
        self._v = 0.0
        self._v_updated_at = env.now
        self._ps_heap: list[tuple[float, int, _PsJob]] = []
        self._ps_active = 0
        # The kernel entry of the armed completion timer.
        self._ps_timer: Optional[list] = None
        # Message (FIFO, high-priority) state: (seconds, continuation).
        self._msg_queue: deque[tuple[float, Callable[[], None]]] = deque()
        self._msg_busy = False
        self._seq = count()
        # Statistics: time-weighted busy indicator (any class in
        # service).
        self.busy_time = TimeWeighted(env.now, 0.0)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    #
    # Each state change does its bookkeeping in one pass: advance the
    # PS virtual clock to now (it stands still while a message is in
    # service), apply the change, record the busy indicator, re-arm the
    # completion timer.  The float expressions and the order of timer
    # and statistics updates are part of the model's results.

    def execute(self, instructions: float) -> Event:
        """Submit processor-sharing work; the event fires on completion.

        The event is the job itself; an interrupted last waiter cancels
        it (see :meth:`cancel`).
        """
        env = self.env
        seconds = instructions / self._instructions_per_second
        if seconds <= 0.0:
            event = Event(env)
            env.schedule_now(event.succeed)
            return event
        now = env.now
        active = self._ps_active
        if active > 0 and not self._msg_busy:
            elapsed = now - self._v_updated_at
            if elapsed > 0.0:
                self._v += elapsed / active
        self._v_updated_at = now
        job = _PsJob(env, self)
        heapq.heappush(
            self._ps_heap, (self._v + seconds, next(self._seq), job)
        )
        self._ps_active = active + 1
        self.busy_time.update(now, 1.0)
        self._reschedule_ps()
        return job

    def execute_message(
        self, instructions: float, done: Callable[[], None]
    ) -> None:
        """Submit high-priority FIFO message-processing work.

        ``done()`` runs on the fast lane once the work has been served,
        in the slot an event's delivery to its waiter would take; no
        event is built.  Work that costs nothing still takes two
        same-instant hops before ``done`` runs, as a fired event's
        delivery did.  Message work cannot be cancelled.
        """
        seconds = instructions / self._instructions_per_second
        if seconds <= 0.0:
            env = self.env
            env.schedule_now(env.schedule_now, done)
            return
        self._msg_queue.append((seconds, done))
        if not self._msg_busy:
            self._start_next_message()

    def cancel(self, job: Event) -> bool:
        """Cancel a pending PS job; returns True if it was still pending.

        Anything else — another event, another CPU's job, a finished or
        already cancelled job — is left alone and yields False.
        In-service message work cannot be cancelled (messages are tiny
        and non-preemptive); queued message work is not cancellable
        either, because nothing in the model ever abandons a message.
        """
        if (
            type(job) is not _PsJob
            or job.cpu is not self
            or job._fired
            or job.cancelled
        ):
            return False
        now = self.env.now
        active = self._ps_active
        msg_busy = self._msg_busy
        if not msg_busy:
            elapsed = now - self._v_updated_at
            if elapsed > 0.0:
                self._v += elapsed / active
        self._v_updated_at = now
        job.cancelled = True
        active -= 1
        self._ps_active = active
        self.busy_time.update(
            now, 1.0 if (msg_busy or active > 0) else 0.0
        )
        self._reschedule_ps()
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _reschedule_ps(self) -> None:
        """Arm the timer for the next PS completion (if any)."""
        timer = self._ps_timer
        if timer is not None:
            # Environment.cancel written out: one frame fewer per re-arm.
            timer[2] = None
            self._ps_timer = None
        if self._msg_busy:
            return
        heap = self._ps_heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return
        remaining_v = heap[0][0] - self._v
        # max(0.0, remaining_v), also for -0.0 and NaN.
        if not remaining_v > 0.0:
            remaining_v = 0.0
        delay = remaining_v * self._ps_active
        self._ps_timer = self.env.schedule(delay, self._complete_ps)

    def _complete_ps(self) -> None:
        # The timer is disarmed while a message is in service, so the
        # PS clock is running here.
        self._ps_timer = None
        now = self.env.now
        active = self._ps_active
        if active > 0:
            elapsed = now - self._v_updated_at
            if elapsed > 0.0:
                self._v += elapsed / active
        self._v_updated_at = now
        heap = self._ps_heap
        heappop = heapq.heappop
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if heap:
            # Snap the virtual clock so equal-target jobs finish together
            # despite floating-point drift.
            front_target = heap[0][0]
            if front_target > self._v:
                self._v = front_target
        threshold = self._v + _V_EPSILON
        while heap and heap[0][0] <= threshold:
            _target, _seq, job = heappop(heap)
            if job.cancelled:
                continue
            active -= 1
            job.succeed()
        self._ps_active = active
        self.busy_time.update(now, 1.0 if active > 0 else 0.0)
        self._reschedule_ps()

    def _start_next_message(self) -> None:
        # Freeze the PS clock before message service begins.
        now = self.env.now
        if self._ps_active > 0 and not self._msg_busy:
            elapsed = now - self._v_updated_at
            if elapsed > 0.0:
                self._v += elapsed / self._ps_active
        self._v_updated_at = now
        self._msg_busy = True
        self.busy_time.update(now, 1.0)
        timer = self._ps_timer
        if timer is not None:
            timer[2] = None  # Environment.cancel, as in _reschedule_ps
            self._ps_timer = None
        seconds, done = self._msg_queue.popleft()
        self.env.schedule(seconds, self._finish_message, done)

    def _finish_message(self, done: Callable[[], None]) -> None:
        # The pair ``schedule_now(done)`` appends, appended here.
        self.env._fast.append((done, ()))
        if self._msg_queue:
            # Still busy: the PS clock stays frozen.
            self._start_next_message()
            return
        now = self.env.now
        self._v_updated_at = now
        self._msg_busy = False
        self.busy_time.update(now, 1.0 if self._ps_active > 0 else 0.0)
        self._reschedule_ps()

    def __repr__(self) -> str:
        return (
            f"<CPU {self.name} mips={self.mips} active={self._ps_active}"
            f" msg_busy={self._msg_busy}>"
        )


class DiskRequestKind(Enum):
    """Disk request class; writes have non-preemptive priority."""

    READ = "read"
    WRITE = "write"


# A module constant is a cheaper lookup than an Enum member.
_WRITE = DiskRequestKind.WRITE


class _DiskRequest(Event):
    """One disk access, itself the event its completion fires.

    ``queued`` holds until the request enters service or is cancelled;
    a cancelled request stays in its queue until it reaches the head.
    """

    __slots__ = ("disk", "kind", "queued")

    def __init__(
        self, env: Environment, disk: "Disk", kind: DiskRequestKind
    ):
        # Event.__init__ written out: one frame fewer per request.
        self.env = env
        self._fired = False
        self._value = None
        self._waiters = None
        self.disk = disk
        self.kind = kind
        self.queued = True

    def _unsubscribe(self, process) -> None:
        Event._unsubscribe(self, process)
        if not self._waiters:
            # Nobody waits for the read any more; an in-service
            # transfer still completes.
            self.disk.cancel(self)


class Disk:
    """A single disk with FIFO service and write-over-read priority.

    Access times are sampled uniformly from ``[min_time, max_time]``
    using the supplied random stream, matching Table 3's
    MinDiskTime/MaxDiskTime parameters.
    """

    def __init__(
        self,
        env: Environment,
        min_time: float,
        max_time: float,
        stream: random.Random,
        name: str = "disk",
    ):
        if min_time < 0 or max_time < min_time:
            raise ValueError(
                f"invalid disk time range [{min_time}, {max_time}]"
            )
        self.env = env
        self.min_time = min_time
        self.max_time = max_time
        self.name = name
        # Service times are drawn as ``random.Random.uniform`` draws
        # them, without its frame.
        self._random = stream.random
        self._read_queue: deque[_DiskRequest] = deque()
        self._write_queue: deque[_DiskRequest] = deque()
        self._busy = False
        self.busy_time = TimeWeighted(env.now, 0.0)
        self.reads_served = 0
        self.writes_served = 0

    def access(self, kind: DiskRequestKind) -> Event:
        """Queue an access; the event fires when the transfer completes."""
        request = _DiskRequest(self.env, self, kind)
        if kind is _WRITE:
            self._write_queue.append(request)
        else:
            self._read_queue.append(request)
        if not self._busy:
            self._start_next()
        return request

    def cancel(self, request: Event) -> bool:
        """Cancel a *queued* request; in-service transfers complete.

        Returns True if ``request`` was queued here and now is not.
        """
        if (
            type(request) is not _DiskRequest
            or request.disk is not self
            or not request.queued
        ):
            return False
        request.queued = False
        return True

    @property
    def queue_length(self) -> int:
        """Number of requests waiting (not counting one in service)."""
        pending = sum(
            1 for r in self._write_queue if r.queued
        ) + sum(1 for r in self._read_queue if r.queued)
        return pending

    def _pop_next(self) -> Optional[_DiskRequest]:
        for queue in (self._write_queue, self._read_queue):
            while queue:
                request = queue.popleft()
                if request.queued:
                    request.queued = False
                    return request
        return None

    def _start_next(self) -> None:
        request = self._pop_next()
        if request is None:
            return
        self._busy = True
        self.busy_time.update(self.env.now, 1.0)
        low = self.min_time
        service = low + (self.max_time - low) * self._random()
        self.env.schedule(service, self._finish, request)

    def _finish(self, request: _DiskRequest) -> None:
        if request.kind is _WRITE:
            self.writes_served += 1
        else:
            self.reads_served += 1
        request.succeed()
        self._busy = False
        self.busy_time.update(self.env.now, 0.0)
        self._start_next()

    def __repr__(self) -> str:
        return (
            f"<Disk {self.name} busy={self._busy}"
            f" queued={self.queue_length}>"
        )
