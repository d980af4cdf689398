"""Tests for the kernel hot-path machinery.

Covers the same-time fast lane (interleaving with equal-time heap
entries in exact sequence order, checked against a reference queue
that applies the global ``(time, seq)`` rule directly), the loop's
event deliveries (subscription order, the still-waiting check, one
dispatch each), the scheduled-entry contract (every entry distinct, a
cancel that touches only its own entry), unpooled and single-waiter
timeouts, AnyOf loser cleanup, and the interrupt-vs-deferred-delivery
races the transaction manager depends on.
"""

import heapq
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import paper_default_config
from repro.core.simulation import Simulation
from repro.sim.kernel import (
    Environment,
    Interrupt,
    Mailbox,
    SimulationError,
    Timeout,
)


@pytest.fixture
def env():
    return Environment()


def tiny_config(algorithm="2pl", seed=11, think_time=1.0, terminals=6):
    """A sub-second run: by default six terminals thinking 1 s."""
    return paper_default_config(
        algorithm, think_time=think_time, seed=seed
    ).with_(duration=4.0, warmup=1.0).with_workload(num_terminals=terminals)


class _ReferenceEntry:
    """A reference queue entry; :meth:`_ReferenceEnv.cancel` flags it."""

    __slots__ = ("callback", "args", "cancelled")

    def __init__(self, callback, args):
        self.callback = callback
        self.args = args
        self.cancelled = False


class _ReferenceEvent:
    """An event whose delivery is a ``schedule_now`` of the
    check-and-resume, one per waiter in subscription order."""

    def __init__(self, env):
        self.env = env
        self.fired = False
        self.value = None
        self._waiters = []

    def succeed(self, value=None):
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.env.schedule_now(self._deliver, waiter)

    def _deliver(self, waiter):
        if waiter._alive and waiter._waiting_on is self:
            waiter._resume(self.value)

    def _subscribe(self, waiter):
        if self.fired:
            self.env.schedule_now(self._deliver, waiter)
        else:
            self._waiters.append(waiter)

    def _unsubscribe(self, waiter):
        if waiter in self._waiters:
            self._waiters.remove(waiter)


class _ReferenceEnv:
    """The kernel's dispatch rule written out directly (DESIGN §15).

    One ``heapq`` holds every entry keyed by ``(time, seq)``;
    ``schedule_now`` is a zero delay; a cancelled entry is reaped
    without moving the clock; ``run(until)`` runs every entry due by
    ``until`` and then sets the clock to ``until``, as
    ``Environment.run`` does.  An event's delivery to a waiter is a
    ``schedule_now`` of the check-and-resume (DESIGN §16).
    """

    def __init__(self):
        self.now = 0.0
        self.dispatch_count = 0
        self._queue = []
        self._seq = 0

    def schedule(self, delay, callback, *args):
        entry = _ReferenceEntry(callback, args)
        heapq.heappush(self._queue, (self.now + delay, self._seq, entry))
        self._seq += 1
        return entry

    def schedule_now(self, callback, *args):
        self.schedule(0.0, callback, *args)

    @staticmethod
    def cancel(entry):
        entry.cancelled = True

    def event(self):
        return _ReferenceEvent(self)

    def run(self, until=None):
        queue = self._queue
        while queue and (until is None or not queue[0][0] > until):
            time, _seq, entry = heapq.heappop(queue)
            if entry.cancelled:
                continue
            self.now = time
            self.dispatch_count += 1
            entry.callback(*entry.args)
        if until is not None and until > self.now:
            self.now = until


class TestFastLaneOrdering:
    def test_zero_delay_goes_to_fast_lane(self, env):
        env.schedule(0.0, lambda: None)
        env.schedule_now(lambda: None)
        env.schedule(1.0, lambda: None)
        assert len(env._fast) == 2
        assert len(env._heap) == 1

    def test_same_time_heap_entry_precedes_later_fast_entry(self, env):
        # Two heap entries due at t=1.0; the first one's callback pushes
        # fast-lane work.  That work was scheduled *after* the second
        # heap entry, so FIFO tie-breaking requires the heap entry to
        # run first even though the fast lane is non-empty.
        order = []

        def first():
            order.append("h1")
            env.schedule_now(lambda: order.append("f1"))
            env.schedule_now(lambda: order.append("f2"))

        env.schedule(1.0, first)
        env.schedule(1.0, lambda: order.append("h2"))
        env.run()
        assert order == ["h1", "h2", "f1", "f2"]

    def test_fast_entry_precedes_same_time_heap_entry_by_seq(self, env):
        # Here the fast-lane entry is scheduled *before* the equal-time
        # heap entry, so it must win the tie.
        order = []

        def first():
            order.append("h1")
            env.schedule_now(lambda: order.append("f1"))
            env.schedule(0.5, lambda: order.append("h2"))
            # h2 sits in the heap at the same timestamp it will share
            # with nothing: advance via an exact-time collision instead.

        env.schedule(1.0, first)
        env.run()
        assert order == ["h1", "f1", "h2"]

    def test_schedule_order_preserved_across_lanes(self, env):
        # Interleave zero-delay (fast lane) and strictly-positive-delay
        # (heap) entries that all come due at the same instant and check
        # global schedule order is preserved exactly.
        order = []

        def at_one():
            order.append(0)
            env.schedule(0.0, order.append, 1)
            env.schedule(0.0, order.append, 2)
            env.schedule_now(order.append, 3)

        env.schedule(1.0, at_one)
        env.run()
        assert order == [0, 1, 2, 3]

    def test_matches_reference(self):
        # The same scripted scenario must produce the same execution
        # order through the kernel and the reference queue.
        def scenario(env):
            order = []

            def tick(tag):
                order.append((env.now, tag))
                if tag < 3:
                    env.schedule_now(tick, tag + 1)
                    env.schedule(0.0, tick, tag + 10)

            env.schedule(1.0, tick, 0)
            env.schedule(1.0, tick, 100)
            env.schedule(2.0, tick, 200)
            env.run()
            return order

        kernel = scenario(Environment())
        assert kernel == scenario(_ReferenceEnv())
        assert [tag for _, tag in kernel[:3]] == [0, 100, 1]

    def test_until_with_pending_fast_work_drains_current_time(self, env):
        seen = []
        env.schedule(1.0, lambda: env.schedule_now(seen.append, "z"))
        env.run(until=1.0)
        assert seen == ["z"]
        assert env.now == 1.0


#: Step kinds of a generated script: a nested ``schedule_now``, a
#: cancel, a ``schedule`` delay, or an action on the script's one
#: event: a waiter subscribing ("wait"), the fire, and a waiter that
#: stops waiting, as an interrupt makes it ("leave").  The delays are
#: dyadic, so entries scheduled from different instants collide
#: exactly, and ``1e-18`` is below one ulp of every clock value the
#: scripts reach (they start at 1.0), so it is due at the current
#: instant.
_STEP_KINDS = (
    "now", "cancel", 0.0, 1e-18, 0.5, 1.0, 2.0, "wait", "fire", "leave"
)


class _Waiter:
    """The slice of the process protocol a delivery uses."""

    def __init__(self, on_resume):
        self._alive = True
        self._waiting_on = None
        self._on_resume = on_resume

    def _resume(self, value):
        self._waiting_on = None
        self._on_resume(value)


@st.composite
def _scripts(draw):
    """Steps ``(parent, kind, target)``: each runs when its parent
    fires or is resumed (parent -1 is the root, at t=1.0); a cancel
    step cancels ``target``'s entry if it is still pending, and a
    leave step takes ``target``'s waiter off the event if it still
    waits."""
    count = draw(st.integers(min_value=1, max_value=16))
    steps = [
        (
            draw(st.integers(min_value=-1, max_value=index - 1)),
            draw(st.sampled_from(_STEP_KINDS)),
            draw(st.integers(min_value=0, max_value=count - 1)),
        )
        for index in range(count)
    ]
    split = draw(st.sampled_from((None, 1.0, 1.5, 2.0, 3.0)))
    return steps, split


def _play(env, script):
    """Run ``script``; the ``(now, tag)`` order of what fired."""
    steps, split = script
    children = {}
    for index, (parent, _kind, _target) in enumerate(steps):
        children.setdefault(parent, []).append(index)
    pending = {}
    order = []
    event = env.event()
    waiters = {}

    def fire(index):
        pending.pop(index, None)
        order.append((env.now, index))
        spawn(index)

    def resume(index, value):
        order.append((env.now, index, value))
        spawn(index)

    def spawn(parent):
        for index in children.get(parent, ()):
            _parent, kind, target = steps[index]
            if kind == "now":
                env.schedule_now(fire, index)
            elif kind == "cancel":
                entry = pending.pop(target, None)
                if entry is not None:
                    env.cancel(entry)
                    order.append((env.now, f"cancel-{target}"))
            elif kind == "wait":
                waiter = waiters[index] = _Waiter(partial(resume, index))
                waiter._waiting_on = event
                event._subscribe(waiter)
            elif kind == "fire":
                if not event.fired:
                    event.succeed(f"fired-{index}")
                    order.append((env.now, f"fire-{index}"))
                spawn(index)
            elif kind == "leave":
                waiter = waiters.get(target)
                if waiter is not None and waiter._waiting_on is event:
                    event._unsubscribe(waiter)
                    waiter._waiting_on = None
                    order.append((env.now, f"leave-{target}"))
            else:
                pending[index] = env.schedule(kind, fire, index)

    env.schedule(1.0, spawn, -1)
    if split is not None:
        env.run(until=split)
        order.append((env.now, "split"))
    env.run()
    order.append((env.now, env.dispatch_count))
    return order


class TestDispatchRuleDifferential:
    @given(_scripts())
    @settings(max_examples=300, deadline=None)
    # One script per broken loop of DESIGN §15, which generated
    # scripts reach only by chance: a lane entry left behind when the
    # lane is drained before the heap entries due now, a sub-ulp entry
    # run after a later lane entry when sent to the heap, and the
    # clock left at a cancelled entry's time.
    @example(([(-1, "now", 0)], None))
    @example(([(-1, "now", 0), (0, 1e-18, 0), (0, "now", 0)], None))
    @example(([(-1, 2.0, 0), (-1, "cancel", 0)], None))
    # And per broken delivery rule of DESIGN §16: a delivery made at
    # the fire instead of from the lane, a waiter resumed although it
    # left between the fire and the delivery, a dropped delivery not
    # counted, and a late subscriber to a fired event resumed at once.
    @example((
        [(-1, "wait", 0), (-1, "now", 0), (-1, "wait", 0),
         (-1, "fire", 0), (3, "now", 0), (0, "now", 0)],
        None,
    ))
    @example(([(-1, "wait", 0), (-1, "fire", 0), (-1, "leave", 0)], None))
    @example(([(-1, "fire", 0), (-1, "now", 0), (-1, "wait", 0)], None))
    def test_generated_scripts_match_reference(self, script):
        """The loop's two phases per instant (heap entries due now,
        then the fast lane) give the reference queue's global
        ``(time, seq)`` order on scripts mixing zero and sub-ulp
        delays, equal-time heap entries from different instants,
        cancels of heap and lane entries, nested ``schedule_now``, a
        ``run(until)`` split, and an event fired with waiters
        subscribed before and after it, some of which stop waiting."""
        assert _play(Environment(), script) == _play(
            _ReferenceEnv(), script
        )


class TestDeliveryOrder:
    def test_waiters_resume_in_subscription_order(self, env):
        """A fire appends one delivery per waiter, in subscription
        order, behind the lane entries appended before it and ahead
        of those appended after it, including the ones the resumed
        waiters append."""
        event = env.event()
        order = []

        def subscribe(tag):
            def resumed(value):
                order.append((tag, value))
                env.schedule_now(order.append, f"{tag}-next")

            waiter = _Waiter(resumed)
            waiter._waiting_on = event
            event._subscribe(waiter)

        def script():
            env.schedule_now(order.append, "x0")
            subscribe("a")
            env.schedule_now(order.append, "x1")
            subscribe("b")
            env.schedule_now(order.append, "x2")
            subscribe("c")
            event.succeed("v")
            env.schedule_now(order.append, "after")

        env.schedule(1.0, script)
        env.run()
        assert order == [
            "x0", "x1", "x2", ("a", "v"), ("b", "v"), ("c", "v"),
            "after", "a-next", "b-next", "c-next",
        ]
        # The script, three schedule_now entries before the fire,
        # three deliveries, "after" and three "-next" entries.
        assert env.dispatch_count == 11

    def test_late_subscribers_interleave_with_lane_entries(self, env):
        """Subscribing to a fired event appends its delivery at once,
        so deliveries and schedule_now entries run in append order."""
        event = env.event()
        event.succeed("v")
        order = []

        def subscribe(tag):
            waiter = _Waiter(lambda value: order.append((tag, value)))
            waiter._waiting_on = event
            event._subscribe(waiter)

        def script():
            env.schedule_now(order.append, "x0")
            subscribe("a")
            env.schedule_now(order.append, "x1")
            subscribe("b")
            env.schedule_now(order.append, "x2")

        env.schedule(1.0, script)
        env.run()
        assert order == ["x0", ("a", "v"), "x1", ("b", "v"), "x2"]
        assert env.dispatch_count == 6

    def test_hop_structure_of_a_small_run_is_pinned(self):
        """The dispatch count of a committed 2PL run with lock waits
        and 2,002 messages is pinned: a change that adds or drops a
        hop anywhere (an event's delivery, a message charge's
        continuation, a concurrency control request) moves it, and
        with it the ``(time, seq)`` order the goldens depend on."""
        simulation = Simulation(tiny_config(think_time=0.0, terminals=16))
        result = simulation.run()
        assert (result.messages_sent, result.blocking_count) == (2002, 8)
        assert simulation.env.dispatch_count == 28603


class TestScheduledEntries:
    """``schedule`` returns the entry it queued, ``cancel`` clears the
    entry's callback slot, and the kernel never reuses an entry
    (DESIGN §17)."""

    def test_every_schedule_returns_a_distinct_entry(self, env):
        """No entry is handed out twice, on the heap or the lane, so a
        cancel can only ever reach the entry it was given."""
        entries = []
        for _ in range(100):
            for delay in (1.0, 0.0):
                entry = env.schedule(delay, lambda: None)
                assert not any(entry is earlier for earlier in entries)
                entries.append(entry)
            env.run()
        assert env.dispatch_count == 200

    def test_cancel_after_dispatch_leaves_later_entries_alone(self):
        """Cancelling an entry whose callback already ran changes no
        later entry's dispatch: the run is the one without the cancel."""

        def script(stale_cancel):
            env = Environment()
            order = []
            ran = env.schedule(1.0, order.append, "ran")
            env.run()
            for tag in ("a", "b", "c"):
                env.schedule(1.0, order.append, tag)
            env.schedule(0.0, order.append, "now")
            if stale_cancel:
                env.cancel(ran)
            env.run()
            return order, env.now, env.dispatch_count

        expected = (["ran", "now", "a", "b", "c"], 2.0, 5)
        assert script(True) == script(False) == expected

    def test_double_cancel_is_harmless(self, env):
        """A second cancel, before or after the entry is reaped, only
        clears the slot again."""
        order = []
        dead = env.schedule(1.0, order.append, "dead")
        env.cancel(dead)
        env.cancel(dead)
        env.run()
        env.schedule(1.0, order.append, "a")
        env.schedule(0.0, order.append, "now")
        env.cancel(dead)
        env.run()
        assert order == ["now", "a"]
        assert env.dispatch_count == 2
        assert env.now == 1.0

    def test_cancelled_lane_entry_neither_runs_nor_counts(self, env):
        """A zero-delay entry waits on the fast lane, and cancelling it
        there drops it without a dispatch."""
        order = []

        def at_one():
            dead = env.schedule(0.0, order.append, "dead")
            env.schedule_now(order.append, "after")
            env.cancel(dead)
            assert len(env._fast) == 2 and not env._heap

        env.schedule(1.0, at_one)
        env.run()
        assert order == ["after"]
        assert env.dispatch_count == 2
        assert env.now == 1.0

    def test_cancelled_timer_never_fires_after_reuse(self, env):
        # A process abandons its timeout (interrupt); the timer's entry
        # is cancelled and reaped while later entries are scheduled.
        # The old timeout must never resume anyone.
        resumed = []

        def sleeper():
            try:
                yield env.timeout(5.0)
                resumed.append("timer")
            except Interrupt:
                resumed.append("interrupt")

        process = env.process(sleeper())
        env.schedule(1.0, process.interrupt)
        # Plenty of churn after the cancellation, before t=5.0 passes.
        for step in range(50):
            env.schedule(1.0 + step * 0.1, lambda: None)
        env.run()
        assert resumed == ["interrupt"]
        assert env.now == 5.9

    def test_dispatch_count_counts_real_callbacks_only(self, env):
        entry = env.schedule(1.0, lambda: None)
        env.cancel(entry)
        env.schedule(2.0, lambda: None)
        env.run()
        assert env.dispatch_count == 1


class TestTimeoutPooling:
    """Timeouts are not pooled: each ``env.timeout()`` is a new object,
    and a fired one can be waited on again."""

    def test_fired_timeout_is_not_handed_out_again(self, env):
        made = []

        def sleeper():
            first = env.timeout(1.0)
            yield first
            # A later wait, so the kernel is done with ``first`` before
            # the next timeout is created.
            yield env.timeout(1.0)
            made.extend([first, env.timeout(5.0)])
            yield first

        env.process(sleeper())
        env.run()
        first, second = made
        assert second is not first
        # The second wait on ``first`` lasts its own delay again.
        assert env.now == 3.0

    def test_second_waiter_is_refused(self, env):
        # A timeout has one waiter: a second process yielding it while
        # the first still waits fails out of run(), as a second
        # Event.succeed does.
        timeout = Timeout(env, 2.0)
        woke = []

        def waiter(tag):
            yield timeout
            woke.append(tag)

        env.process(waiter("a"))
        env.process(waiter("b"))
        with pytest.raises(SimulationError, match="one waiter"):
            env.run()
        assert woke == []


class TestAnyOfLoserCleanup:
    def test_losing_timer_is_cancelled(self, env):
        event = env.event()
        fired = []

        def racer():
            index, value = yield env.any_of(
                [env.timeout(100.0), event]
            )
            fired.append((index, value))

        env.process(racer())
        env.schedule(1.0, event.succeed, "won")
        env.run()
        assert fired == [(1, "won")]
        # The losing timer's heap entry was cancelled, so the run ended
        # at the event's time rather than the timer's horizon.
        assert env.now == 1.0

    def test_losing_event_drops_subscription(self, env):
        winner = env.event()
        loser = env.event()

        def racer():
            yield env.any_of([winner, loser])

        env.process(racer())
        env.schedule(1.0, winner.succeed)
        env.run()
        assert loser._waiters is None

    def test_watchers_list_emptied_on_first_fire(self, env):
        winner = env.event()
        combo = env.any_of([winner, env.event(), env.event()])

        def racer():
            yield combo

        env.process(racer())
        env.schedule(1.0, winner.succeed)
        env.run()
        assert combo._watchers == []


class TestInterruptDeliveryRaces:
    def test_dropped_delivery_counts_one_dispatch(self, env):
        # The waiter is interrupted between the fire and the delivery
        # and then waits on a timeout: the delivery must be dropped
        # (not resume it with the stale value) and still count as one
        # dispatch.
        event = env.event()
        log = []

        def waiter():
            try:
                yield event
                log.append(("value", env.now))
            except Interrupt:
                log.append(("interrupt", env.now))
            log.append(("woke", (yield env.timeout(5.0, "timer")), env.now))

        process = env.process(waiter())

        def fire_then_interrupt():
            event.succeed("payload")
            process.interrupt("abort")

        env.schedule(1.0, fire_then_interrupt)
        env.run()
        env.check_crashes()
        assert log == [("interrupt", 1.0), ("woke", "timer", 6.0)]
        # The start, the scripted callback, the dropped delivery and
        # the timeout.
        assert env.dispatch_count == 4

    def test_interrupt_between_fire_and_delivery(self, env):
        # The event fires (delivery deferred to the next step) and the
        # waiter is interrupted at the same timestamp before delivery
        # runs.  The interrupt must win and the stale delivery must not
        # resume the process a second time.
        event = env.event()
        log = []

        def waiter():
            try:
                log.append(("value", (yield event)))
            except Interrupt as interrupt:
                log.append(("interrupt", interrupt.cause))
            return "done"

        process = env.process(waiter())

        def fire_then_interrupt():
            event.succeed("payload")
            process.interrupt("abort")

        env.schedule(1.0, fire_then_interrupt)
        env.run()
        env.check_crashes()
        assert log == [("interrupt", "abort")]
        assert not process.alive

    def test_interrupt_before_first_step(self, env):
        # Interrupting a process that has not started yet defers the
        # interrupt to the process's first step.
        log = []

        def body():
            try:
                yield env.timeout(1.0)
                log.append("timed out")
            except Interrupt:
                log.append("interrupted")

        process = env.process(body())
        process.interrupt("early")
        env.run()
        assert log == ["interrupted"]


class TestMailboxWithFastLane:
    def test_fifo_under_mixed_put_get(self, env):
        # Items must come out in put order no matter how gets and puts
        # interleave.
        mailbox = Mailbox(env)
        received = []

        def consumer():
            for _ in range(6):
                received.append((yield mailbox.get()))

        def producer():
            mailbox.put(1)  # queued: no getter yet
            mailbox.put(2)
            yield env.timeout(1.0)
            mailbox.put(3)  # consumer now blocked on a getter
            mailbox.put(4)  # no getter (one get at a time): queued
            yield env.timeout(1.0)
            mailbox.put(5)
            mailbox.put(6)

        env.process(consumer())
        env.process(producer())
        env.run()
        env.check_crashes()
        assert received == [1, 2, 3, 4, 5, 6]

    def test_get_before_put_resolves_on_put(self, env):
        mailbox = Mailbox(env)
        received = []

        def consumer():
            received.append((yield mailbox.get()))

        env.process(consumer())
        env.schedule(1.0, mailbox.put, "late")
        env.run()
        assert received == ["late"]
