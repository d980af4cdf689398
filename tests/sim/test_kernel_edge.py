"""Edge-case kernel tests: races the transaction manager relies on."""

import pytest

from repro.sim.kernel import Environment, Interrupt, SimulationError


@pytest.fixture
def env():
    return Environment()


class TestSameInstantRaces:
    def test_fire_and_interrupt_same_instant_interrupt_first(
        self, env
    ):
        """Event fires and interrupt lands at the same timestamp with
        the interrupt scheduled first: the interrupt wins and the
        stale delivery is dropped."""
        event = env.event()
        outcome = []

        def body():
            try:
                yield event
                outcome.append("value")
            except Interrupt:
                outcome.append("interrupt")

        process = env.process(body())
        env.schedule(1.0, lambda: process.interrupt())
        env.schedule(1.0, lambda: event.succeed("v"))
        env.run()
        assert outcome == ["interrupt"]

    def test_fire_then_interrupt_same_instant_fire_first(self, env):
        """With the fire scheduled first, delivery is deferred — the
        interrupt still arrives before the deferred resume runs, so
        the interrupt wins.  This mirrors a cohort aborted in the same
        instant its lock is granted."""
        event = env.event()
        outcome = []

        def body():
            try:
                yield event
                outcome.append("value")
            except Interrupt:
                outcome.append("interrupt")

        process = env.process(body())
        env.schedule(1.0, lambda: event.succeed("v"))
        env.schedule(1.0, lambda: process.interrupt())
        env.run()
        assert outcome == ["interrupt"]

    def test_double_interrupt_second_is_noop(self, env):
        event = env.event()
        outcome = []

        def body():
            try:
                yield event
            except Interrupt:
                outcome.append("first")
                try:
                    yield env.timeout(5.0)
                except Interrupt:
                    outcome.append("second")
                return

        process = env.process(body())

        def both():
            process.interrupt()
            process.interrupt()  # delivered while not waiting

        env.schedule(1.0, both)
        env.run()
        # The second interrupt lands at the next wait point.
        assert outcome == ["first", "second"]

    def test_callbacks_scheduled_from_callbacks_run_same_instant(
        self, env
    ):
        order = []

        def outer():
            order.append("outer")
            env.schedule(0.0, lambda: order.append("inner"))

        env.schedule(1.0, outer)
        env.schedule(1.0, lambda: order.append("sibling"))
        env.run()
        assert order == ["outer", "sibling", "inner"]


class TestProcessComposition:
    def test_deep_process_chain(self, env):
        def leaf():
            yield env.timeout(1.0)
            return 1

        def make_level(child_factory):
            def level():
                value = yield env.process(child_factory())
                return value + 1

            return level

        factory = leaf
        for _ in range(50):
            factory = make_level(factory)
        top = env.process(factory())
        env.run()
        assert top.result == 51

    def test_two_waiters_on_one_process(self, env):
        def child():
            yield env.timeout(2.0)
            return "r"

        child_process = env.process(child())
        results = []

        def waiter(tag):
            value = yield child_process
            results.append((tag, value, env.now))

        env.process(waiter("a"))
        env.process(waiter("b"))
        env.run()
        assert sorted(results) == [("a", "r", 2.0), ("b", "r", 2.0)]

    def test_exception_reaches_all_waiters(self, env):
        def child():
            yield env.timeout(1.0)
            raise ValueError("x")

        child_process = env.process(child())
        caught = []

        def waiter(tag):
            try:
                yield child_process
            except ValueError:
                caught.append(tag)

        env.process(waiter("a"))
        env.process(waiter("b"))
        env.run()
        assert sorted(caught) == ["a", "b"]
        assert env.crashes == []  # observed by waiters

    def test_all_of_mixed_children(self, env):
        event = env.event()

        def child():
            yield env.timeout(3.0)
            return "proc"

        def waiter():
            values = yield env.all_of([event, env.process(child())])
            return (env.now, values)

        process = env.process(waiter())
        env.schedule(5.0, lambda: event.succeed("ev"))
        env.run()
        assert process.result == (5.0, ["ev", "proc"])

    def test_any_of_all_already_fired(self, env):
        first = env.event()
        first.succeed("early")
        second = env.event()
        second.succeed("later")

        def waiter():
            index, value = yield env.any_of([first, second])
            return (index, value)

        process = env.process(waiter())
        env.run()
        assert process.result == (0, "early")


class TestErrorHandling:
    def test_succeed_twice_detected(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_negative_timeout_rejected(self, env):
        def body():
            yield env.timeout(-1.0)

        env.process(body())
        env.run()
        assert len(env.crashes) == 1

    def test_nan_timeout_rejected(self, env):
        # NaN passes a ``delay < 0`` test; a NaN timeout would leave
        # the clock at NaN once it fired.
        with pytest.raises(
            SimulationError, match="negative timeout delay: nan"
        ):
            env.timeout(float("nan"))
        env.run()
        assert env.now == 0.0

    def test_check_crashes_chains_cause(self, env):
        def body():
            yield env.timeout(1.0)
            raise KeyError("inner")

        env.process(body())
        env.run()
        with pytest.raises(SimulationError) as info:
            env.check_crashes()
        assert isinstance(info.value.__cause__, KeyError)

    def test_run_twice_continues(self, env):
        seen = []
        env.schedule(1.0, lambda: seen.append(1))
        env.schedule(5.0, lambda: seen.append(5))
        env.run(until=2.0)
        assert seen == [1]
        env.run(until=10.0)
        assert seen == [1, 5]

    def test_process_reentering_run_crashes(self, env):
        """The dispatch loop is not reentrant: a process that calls
        ``run`` dies with SimulationError, which ``check_crashes``
        raises."""

        def body():
            yield env.timeout(1.0)
            env.run(until=5.0)
            yield env.timeout(1.0)

        process = env.process(body(), name="reenters")
        env.run()
        assert not process.alive
        assert env.now == 1.0
        with pytest.raises(SimulationError, match="reenters") as info:
            env.check_crashes()
        assert isinstance(info.value.__cause__, SimulationError)
        assert "dispatch loop is running" in str(info.value.__cause__)

    def test_callback_reentering_run_raises_out_of_run(self, env):
        seen = []
        env.schedule(1.0, lambda: env.run(until=3.0))
        env.schedule(2.0, lambda: seen.append(2))
        with pytest.raises(
            SimulationError, match="dispatch loop is running"
        ):
            env.run()
        assert env.now == 1.0
        assert seen == []
        # The refusal leaves the loop runnable.
        env.run()
        assert seen == [2]
