"""Tests for the wait-die extension algorithm."""

import pytest

from repro.cc.base import RequestResult
from repro.cc.wait_die import WaitDie, WaitDieNodeManager

from tests.cc.conftest import page


@pytest.fixture
def manager(context):
    return WaitDieNodeManager(0, context)


def cohort_of(txn):
    return txn.cohort


class TestWaitDieRules:
    def test_older_waits_for_younger_never(self, manager, new_txn):
        """Mirror of wound-wait: older requesters WAIT."""
        young = new_txn(1.0)
        old = new_txn(0.0)
        manager.read_request(cohort_of(young), page(1))
        manager.write_request(cohort_of(young), page(1))
        response = manager.read_request(cohort_of(old), page(1))
        assert response.result is RequestResult.BLOCKED

    def test_younger_dies_on_conflict_with_older(self, manager,
                                                 new_txn, aborts):
        old = new_txn(0.0)
        young = new_txn(1.0)
        manager.read_request(cohort_of(old), page(1))
        manager.write_request(cohort_of(old), page(1))
        response = manager.read_request(cohort_of(young), page(1))
        assert response.result is RequestResult.REJECTED
        # The death is synchronous: no remote abort request needed.
        assert aborts.requests == []

    def test_died_request_not_left_in_queue(self, env, manager,
                                            new_txn):
        old = new_txn(0.0)
        young = new_txn(1.0)
        manager.read_request(cohort_of(old), page(1))
        manager.write_request(cohort_of(old), page(1))
        manager.read_request(cohort_of(young), page(1))  # dies
        assert not manager.locks.is_waiting(young)
        # Held locks release only via the abort protocol, and the old
        # transaction keeps running normally.
        installed = manager.commit(cohort_of(old))
        assert installed == cohort_of(old).updated_pages

    def test_death_keeps_already_held_locks(self, manager, new_txn):
        """Dying withdraws only the new request; previously granted
        locks stay held until the abort protocol runs."""
        old = new_txn(0.0)
        young = new_txn(1.0)
        manager.read_request(cohort_of(young), page(2))
        manager.read_request(cohort_of(old), page(1))
        manager.write_request(cohort_of(old), page(1))
        response = manager.read_request(cohort_of(young), page(1))
        assert response.result is RequestResult.REJECTED
        assert manager.locks.holds_any(young)  # page 2 still held
        manager.abort(cohort_of(young))
        assert not manager.locks.holds_any(young)

    def test_compatible_access_granted_regardless_of_age(self,
                                                         manager,
                                                         new_txn):
        old = new_txn(0.0)
        young = new_txn(1.0)
        manager.read_request(cohort_of(old), page(1))
        response = manager.read_request(cohort_of(young), page(1))
        assert response.result is RequestResult.GRANTED

    def test_mixed_conflict_set_dies(self, manager, new_txn):
        """If any member of the conflict set is younger, the requester
        dies (it may not wait for a younger transaction)."""
        oldest = new_txn(0.0)
        middle = new_txn(1.0)
        young = new_txn(2.0)
        manager.read_request(cohort_of(oldest), page(1))
        manager.read_request(cohort_of(young), page(1))
        response = manager.write_request(cohort_of(middle), page(1))
        # middle holds nothing on page(1): this is a fresh exclusive
        # request conflicting with both holders; young is younger.
        assert response.result is RequestResult.REJECTED


class TestAbortCleanup:
    """Forced-abort cleanup: lock release and waiter wakeup order."""

    def _blocked_waiters(self, env, manager, new_txn):
        """A young exclusive holder with three older blocked readers.

        Arrival order (middle, youngest-of-the-three, oldest) is
        deliberately different from age order so the tests can tell
        FIFO wakeup apart from age-ordered wakeup.
        """
        holder = new_txn(3.0)
        manager.read_request(cohort_of(holder), page(1))
        manager.write_request(cohort_of(holder), page(1))
        waiters = [new_txn(1.0), new_txn(2.0), new_txn(0.0)]
        events = []
        for waiter in waiters:
            response = manager.read_request(
                cohort_of(waiter), page(1)
            )
            assert response.result is RequestResult.BLOCKED
            events.append(response.event)
        return holder, waiters, events

    @staticmethod
    def _record_wakeups(env, events, labels):
        woke = []

        def watcher(event, label):
            outcome = yield event
            woke.append((label, outcome))

        for event, label in zip(events, labels):
            env.process(watcher(event, label))
        # Let the watchers subscribe before anything fires.
        env.run(until=0.5)
        return woke

    def test_holder_abort_wakes_waiters_in_arrival_order(
        self, env, manager, new_txn
    ):
        holder, waiters, events = self._blocked_waiters(
            env, manager, new_txn
        )
        woke = self._record_wakeups(env, events, ["a", "b", "c"])
        manager.abort(cohort_of(holder))
        env.run(until=1.0)
        # FIFO queue order (arrival), not timestamp order.
        assert woke == [
            ("a", RequestResult.GRANTED),
            ("b", RequestResult.GRANTED),
            ("c", RequestResult.GRANTED),
        ]

    def test_release_order_reproducible_across_runs(self, context):
        from repro.cc.base import CCContext
        from repro.sim.kernel import Environment

        def one_run():
            env = Environment()
            ctx = CCContext(
                env,
                request_abort=lambda *args: None,
                detection_interval=1.0,
            )
            manager = WaitDieNodeManager(0, ctx)

            def txn(time):
                from tests.cc.conftest import make_transaction
                from repro.core.transaction import make_timestamp

                transaction = make_transaction(env)
                transaction.startup_timestamp = make_timestamp(time)
                transaction.timestamp = transaction.startup_timestamp
                return transaction

            holder = txn(3.0)
            manager.read_request(cohort_of(holder), page(1))
            manager.write_request(cohort_of(holder), page(1))
            waiters = [txn(1.0), txn(2.0), txn(0.0)]
            woke = []

            def watcher(event, label):
                outcome = yield event
                woke.append((label, outcome))

            for index, waiter in enumerate(waiters):
                response = manager.read_request(
                    cohort_of(waiter), page(1)
                )
                env.process(watcher(response.event, index))
            env.run(until=0.5)
            manager.abort(cohort_of(holder))
            env.run(until=1.0)
            return woke

        assert one_run() == one_run()

    def test_aborted_waiter_is_skipped_on_release(
        self, env, manager, new_txn
    ):
        """A waiter force-aborted while queued must not be granted
        when the holder's locks release; the others still wake."""
        holder, waiters, events = self._blocked_waiters(
            env, manager, new_txn
        )
        woke = self._record_wakeups(env, events, ["a", "b", "c"])
        manager.abort(cohort_of(waiters[1]))  # drop "b" from queue
        assert not manager.locks.is_waiting(waiters[1])
        manager.abort(cohort_of(holder))
        env.run(until=1.0)
        assert woke == [
            ("a", RequestResult.GRANTED),
            ("c", RequestResult.GRANTED),
        ]

    def test_abort_is_idempotent(self, env, manager, new_txn):
        holder, waiters, _events = self._blocked_waiters(
            env, manager, new_txn
        )
        manager.abort(cohort_of(holder))
        manager.abort(cohort_of(holder))
        assert not manager.locks.holds_any(holder)
        # The released page is now shared among the woken readers.
        for waiter in waiters:
            assert manager.locks.holds_any(waiter)

    def test_crash_reset_drops_all_lock_state(
        self, env, manager, new_txn
    ):
        holder, waiters, _events = self._blocked_waiters(
            env, manager, new_txn
        )
        manager.crash_reset()
        assert not manager.locks.holds_any(holder)
        assert manager.waits_for_edges() == []
        # The fresh table grants immediately, even to a young txn.
        fresh = new_txn(9.0)
        response = manager.write_request(cohort_of(fresh), page(1))
        assert response.result is RequestResult.GRANTED


class TestTimestampPolicy:
    def test_restart_keeps_original_timestamp(self, new_txn):
        algorithm = WaitDie()
        txn = new_txn()
        txn.startup_timestamp = None
        txn.timestamp = None
        algorithm.assign_timestamps(txn, 1.0)
        original = txn.timestamp
        algorithm.assign_timestamps(txn, 50.0)
        assert txn.timestamp == original

    def test_name(self):
        assert WaitDie.name == "wd"
