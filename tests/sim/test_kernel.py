"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import (
    Environment,
    Interrupt,
    Mailbox,
    SimulationError,
)


@pytest.fixture
def env():
    return Environment()


def run_all(env):
    env.run()


class TestScheduling:
    def test_clock_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_callback_runs_at_scheduled_time(self, env):
        seen = []
        env.schedule(5.0, lambda: seen.append(env.now))
        env.run()
        assert seen == [5.0]

    def test_callbacks_run_in_time_order(self, env):
        seen = []
        env.schedule(3.0, lambda: seen.append("c"))
        env.schedule(1.0, lambda: seen.append("a"))
        env.schedule(2.0, lambda: seen.append("b"))
        env.run()
        assert seen == ["a", "b", "c"]

    def test_equal_times_run_in_schedule_order(self, env):
        seen = []
        for tag in "abcde":
            env.schedule(1.0, lambda tag=tag: seen.append(tag))
        env.run()
        assert seen == list("abcde")

    def test_cancelled_callback_never_runs(self, env):
        seen = []
        handle = env.schedule(1.0, lambda: seen.append("x"))
        handle.cancel()
        env.run()
        assert seen == []

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.schedule(-0.1, lambda: None)

    def test_run_until_advances_clock_exactly(self, env):
        env.schedule(10.0, lambda: None)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_beyond_heap_advances_clock(self, env):
        env.schedule(1.0, lambda: None)
        env.run(until=100.0)
        assert env.now == 100.0

    def test_callback_at_until_boundary_runs(self, env):
        seen = []
        env.schedule(5.0, lambda: seen.append(1))
        env.run(until=5.0)
        assert seen == [1]

    @pytest.mark.parametrize("pending", [True, False])
    def test_run_until_in_the_past_raises(self, env, pending):
        if pending:
            env.schedule(10.0, lambda: None)
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=3.0)
        assert env.now == 5.0
        env.run()
        assert env.now == (10.0 if pending else 5.0)

    def test_cancellation_is_lazy_and_exact(self, env):
        """Cancelled handles are reaped at pop time, never eagerly."""
        fired = []
        keep = env.schedule(2.0, fired.append, "keep")
        dead = env.schedule(1.0, fired.append, "dead")
        env.schedule(3.0, fired.append, "tail")
        dead.cancel()
        assert keep is not dead
        env.run()
        assert fired == ["keep", "tail"]
        assert env.now == 3.0

    def test_reschedule_after_cancel_reuses_handle_safely(self, env):
        fired = []
        dead = env.schedule(5.0, fired.append, "dead")
        dead.cancel()

        def chain(label, left):
            fired.append(label)
            if left:
                env.schedule(1.0, chain, label, left - 1)

        env.schedule(1.0, chain, "tick", 3)
        env.run()
        assert fired == ["tick"] * 4
        # Reaping a cancelled entry never advances the clock.
        assert env.now == 4.0


class TestProcesses:
    def test_process_runs_to_completion(self, env):
        seen = []

        def body():
            seen.append(env.now)
            yield env.timeout(2.0)
            seen.append(env.now)

        env.process(body())
        env.run()
        assert seen == [0.0, 2.0]

    def test_process_result_available_after_finish(self, env):
        def body():
            yield env.timeout(1.0)
            return 42

        process = env.process(body())
        env.run()
        assert not process.alive
        assert process.result == 42

    def test_waiting_on_process_gets_return_value(self, env):
        def child():
            yield env.timeout(3.0)
            return "payload"

        def parent():
            value = yield env.process(child())
            return (env.now, value)

        parent_process = env.process(parent())
        env.run()
        assert parent_process.result == (3.0, "payload")

    def test_waiting_on_finished_process_resumes_immediately(self, env):
        def child():
            yield env.timeout(1.0)
            return "done"

        child_process = env.process(child())

        def parent():
            yield env.timeout(5.0)
            value = yield child_process
            return (env.now, value)

        parent_process = env.process(parent())
        env.run()
        assert parent_process.result == (5.0, "done")

    def test_exception_propagates_to_waiter(self, env):
        def child():
            yield env.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield env.process(child())
            except ValueError as error:
                return str(error)

        parent_process = env.process(parent())
        env.run()
        assert parent_process.result == "boom"

    def test_unobserved_crash_is_recorded(self, env):
        def body():
            yield env.timeout(1.0)
            raise RuntimeError("unseen")

        env.process(body())
        env.run()
        assert len(env.crashes) == 1
        with pytest.raises(SimulationError):
            env.check_crashes()

    def test_yielding_non_waitable_crashes_process(self, env):
        def body():
            yield 17

        env.process(body())
        env.run()
        assert len(env.crashes) == 1

    def test_timeout_value_passthrough(self, env):
        def body():
            value = yield env.timeout(1.0, value="hello")
            return value

        process = env.process(body())
        env.run()
        assert process.result == "hello"


class TestEvents:
    def test_event_wakes_waiter_with_value(self, env):
        event = env.event()

        def waiter():
            value = yield event
            return (env.now, value)

        process = env.process(waiter())
        env.schedule(4.0, lambda: event.succeed("v"))
        env.run()
        assert process.result == (4.0, "v")

    def test_multiple_waiters_all_wake(self, env):
        event = env.event()
        results = []

        def waiter(tag):
            value = yield event
            results.append((tag, value))

        for tag in range(3):
            env.process(waiter(tag))
        env.schedule(1.0, lambda: event.succeed("x"))
        env.run()
        assert sorted(results) == [(0, "x"), (1, "x"), (2, "x")]

    def test_waiting_on_fired_event_resumes(self, env):
        event = env.event()
        event.succeed(99)

        def waiter():
            value = yield event
            return value

        process = env.process(waiter())
        env.run()
        assert process.result == 99

    def test_double_succeed_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_succeed_does_not_reenter_caller(self, env):
        """Firing an event must defer delivery (no reentrancy)."""
        event = env.event()
        order = []

        def waiter():
            yield event
            order.append("woken")

        env.process(waiter())

        def firer():
            yield env.timeout(1.0)
            event.succeed()
            order.append("after-fire")

        env.process(firer())
        env.run()
        assert order == ["after-fire", "woken"]


class TestInterrupts:
    def test_interrupt_blocked_on_event(self, env):
        event = env.event()

        def body():
            try:
                yield event
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, env.now)

        process = env.process(body())
        env.schedule(2.0, lambda: process.interrupt("why"))
        env.run()
        assert process.result == ("interrupted", "why", 2.0)

    def test_interrupt_cancels_timeout(self, env):
        def body():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                return env.now

        process = env.process(body())
        env.schedule(1.0, lambda: process.interrupt())
        env.run()
        assert process.result == 1.0
        assert env.now == 1.0  # the 100s timer was cancelled

    def test_interrupt_dead_process_is_noop(self, env):
        def body():
            yield env.timeout(1.0)

        process = env.process(body())
        env.run()
        process.interrupt()  # must not raise
        assert not process.alive

    def test_interrupted_process_stops_waiting_on_event(self, env):
        event = env.event()

        def body():
            try:
                yield event
            except Interrupt:
                yield env.timeout(1.0)
                return "moved-on"

        process = env.process(body())
        env.schedule(1.0, lambda: process.interrupt())
        # Fire the event after the interrupt: must not double-resume.
        env.schedule(1.5, lambda: event.succeed("stale"))
        env.run()
        assert process.result == "moved-on"

    def test_interrupt_before_first_step(self, env):
        def body():
            try:
                yield env.timeout(10.0)
            except Interrupt:
                return "early"

        process = env.process(body())
        process.interrupt()
        env.run()
        assert process.result == "early"

    def test_escaped_interrupt_terminates_quietly(self, env):
        def body():
            yield env.timeout(10.0)

        process = env.process(body())
        env.schedule(1.0, lambda: process.interrupt())
        env.run()
        assert not process.alive
        assert env.crashes == []


class TestCombinators:
    def test_all_of_collects_in_order(self, env):
        first, second = env.event(), env.event()

        def waiter():
            values = yield env.all_of([first, second])
            return (env.now, values)

        process = env.process(waiter())
        env.schedule(2.0, lambda: second.succeed("b"))
        env.schedule(5.0, lambda: first.succeed("a"))
        env.run()
        assert process.result == (5.0, ["a", "b"])

    def test_all_of_empty_resolves_immediately(self, env):
        def waiter():
            values = yield env.all_of([])
            return values

        process = env.process(waiter())
        env.run()
        assert process.result == []

    def test_any_of_returns_first(self, env):
        first, second = env.event(), env.event()

        def waiter():
            index, value = yield env.any_of([first, second])
            return (env.now, index, value)

        process = env.process(waiter())
        env.schedule(3.0, lambda: second.succeed("fast"))
        env.schedule(7.0, lambda: first.succeed("slow"))
        env.run()
        assert process.result == (3.0, 1, "fast")

    def test_any_of_with_processes(self, env):
        def quick():
            yield env.timeout(1.0)
            return "q"

        def slow():
            yield env.timeout(9.0)
            return "s"

        def waiter():
            index, value = yield env.any_of(
                [env.process(slow()), env.process(quick())]
            )
            return (index, value)

        process = env.process(waiter())
        env.run()
        assert process.result == (1, "q")

    def test_interrupt_while_waiting_on_all_of(self, env):
        pending = env.event()

        def body():
            try:
                yield env.all_of([pending])
            except Interrupt:
                return "out"

        process = env.process(body())
        env.schedule(1.0, lambda: process.interrupt())
        env.run()
        assert process.result == "out"


class TestMailbox:
    def test_put_then_get(self, env):
        mailbox = Mailbox(env)
        mailbox.put("m1")

        def reader():
            value = yield mailbox.get()
            return value

        process = env.process(reader())
        env.run()
        assert process.result == "m1"

    def test_get_then_put(self, env):
        mailbox = Mailbox(env)

        def reader():
            value = yield mailbox.get()
            return (env.now, value)

        process = env.process(reader())
        env.schedule(3.0, lambda: mailbox.put("late"))
        env.run()
        assert process.result == (3.0, "late")

    def test_fifo_ordering(self, env):
        mailbox = Mailbox(env)
        seen = []

        def reader():
            for _ in range(3):
                value = yield mailbox.get()
                seen.append(value)

        env.process(reader())
        for index in range(3):
            mailbox.put(index)
        env.run()
        assert seen == [0, 1, 2]

    def test_len_counts_pending_items(self, env):
        mailbox = Mailbox(env)
        mailbox.put("a")
        mailbox.put("b")
        assert len(mailbox) == 2
