"""Tests for MVCC snapshot isolation (first-committer-wins)."""

import pytest

from repro.cc.base import RequestResult
from repro.cc.mvcc import MultiVersionCC, MvccNodeManager
from repro.core.transaction import make_timestamp

from tests.cc.conftest import page


@pytest.fixture
def manager(context):
    return MvccNodeManager(0, context)


def cohort_of(txn):
    return txn.cohort


def setup_cohort(manager, txn):
    manager.register_cohort(cohort_of(txn))
    return cohort_of(txn)


def certify(manager, txn, now=10.0):
    txn.commit_timestamp = make_timestamp(now)
    return manager.prepare(cohort_of(txn))


def committed_write(manager, new_txn, target, now=5.0,
                    snapshot_time=None):
    """Commit one writer of ``target``; returns its commit stamp."""
    writer = new_txn(timestamp_time=snapshot_time)
    cohort = setup_cohort(manager, writer)
    assert (
        manager.write_request(cohort, target).result
        is RequestResult.GRANTED
    )
    assert certify(manager, writer, now=now) is True
    manager.commit(cohort)
    return writer.commit_timestamp


class TestSnapshotReads:
    def test_reads_always_granted(self, manager, new_txn):
        cohort = setup_cohort(manager, new_txn())
        assert (
            manager.read_request(cohort, page(1)).result
            is RequestResult.GRANTED
        )

    def test_read_granted_even_after_newer_commit(self, manager,
                                                  new_txn):
        """The defining MVCC property: a newer committed version does
        not block or kill a snapshot reader — it reads the older
        version."""
        reader = new_txn(timestamp_time=1.0)
        reader_cohort = setup_cohort(manager, reader)
        committed_write(manager, new_txn, page(1), now=5.0)
        assert (
            manager.read_request(reader_cohort, page(1)).result
            is RequestResult.GRANTED
        )

    def test_read_only_certifies_trivially(self, manager, new_txn):
        reader = new_txn(timestamp_time=1.0)
        cohort = setup_cohort(manager, reader)
        manager.read_request(cohort, page(1))
        committed_write(manager, new_txn, page(1), now=5.0)
        # No writes buffered: nothing to validate, vote is yes.
        assert certify(manager, reader, now=6.0) is True


class TestFirstCommitterWins:
    def test_write_rejected_when_snapshot_stale(self, manager,
                                                new_txn):
        committed_write(manager, new_txn, page(1), now=5.0)
        late = new_txn(timestamp_time=1.0)  # snapshot predates commit
        cohort = setup_cohort(manager, late)
        assert (
            manager.write_request(cohort, page(1)).result
            is RequestResult.REJECTED
        )

    def test_write_granted_on_fresh_snapshot(self, manager, new_txn):
        committed_write(manager, new_txn, page(1), now=5.0)
        fresh = new_txn(timestamp_time=9.0)
        cohort = setup_cohort(manager, fresh)
        assert (
            manager.write_request(cohort, page(1)).result
            is RequestResult.GRANTED
        )

    def test_prepare_fails_if_commit_raced_in(self, manager, new_txn):
        """Early check passed, but a first committer landed before
        certification: the vote must be no."""
        racer = new_txn(timestamp_time=1.0)
        racer_cohort = setup_cohort(manager, racer)
        assert (
            manager.write_request(racer_cohort, page(1)).result
            is RequestResult.GRANTED
        )
        committed_write(manager, new_txn, page(1), now=5.0)
        assert certify(manager, racer, now=6.0) is False

    def test_prepare_fails_against_pending_intent(self, manager,
                                                  new_txn):
        first = new_txn(timestamp_time=1.0)
        first_cohort = setup_cohort(manager, first)
        manager.write_request(first_cohort, page(1))
        assert certify(manager, first, now=5.0) is True  # pending
        second = new_txn(timestamp_time=2.0)
        second_cohort = setup_cohort(manager, second)
        manager.write_request(second_cohort, page(1))
        assert certify(manager, second, now=6.0) is False

    def test_prepare_ok_after_pending_writer_aborts(self, manager,
                                                    new_txn):
        first = new_txn(timestamp_time=1.0)
        first_cohort = setup_cohort(manager, first)
        manager.write_request(first_cohort, page(1))
        assert certify(manager, first, now=5.0) is True
        manager.abort(first_cohort)
        assert manager.pending_intents(page(1)) == 0
        second = new_txn(timestamp_time=2.0)
        second_cohort = setup_cohort(manager, second)
        manager.write_request(second_cohort, page(1))
        assert certify(manager, second, now=6.0) is True

    def test_disjoint_writers_both_certify(self, manager, new_txn):
        first = new_txn(timestamp_time=1.0)
        first_cohort = setup_cohort(manager, first)
        manager.write_request(first_cohort, page(1))
        second = new_txn(timestamp_time=1.0)
        second_cohort = setup_cohort(manager, second)
        manager.write_request(second_cohort, page(2))
        assert certify(manager, first, now=5.0) is True
        assert certify(manager, second, now=6.0) is True


class TestVersionChains:
    def test_commit_installs_versions(self, manager, new_txn):
        stamp = committed_write(manager, new_txn, page(1), now=5.0)
        assert manager.version_chain(page(1)) == (stamp,)
        assert manager.store.latest(page(1)) == stamp

    def test_out_of_order_installs_stay_sorted(self, manager, new_txn):
        late = new_txn(timestamp_time=1.0)
        late_cohort = setup_cohort(manager, late)
        manager.write_request(late_cohort, page(1))
        assert certify(manager, late, now=9.0) is True
        early = new_txn(timestamp_time=1.0)
        early_cohort = setup_cohort(manager, early)
        manager.write_request(early_cohort, page(2))
        assert certify(manager, early, now=5.0) is True
        # Phase-two decisions arrive out of timestamp order.
        manager.commit(late_cohort)
        manager.commit(early_cohort)
        chain_1 = manager.version_chain(page(1))
        chain_2 = manager.version_chain(page(2))
        assert chain_1 == (late.commit_timestamp,)
        assert chain_2 == (early.commit_timestamp,)

    def test_chains_are_bounded(self, manager, new_txn):
        keep = manager.store.max_versions
        stamps = [
            committed_write(
                manager, new_txn, page(1),
                now=float(i + 1), snapshot_time=float(i),
            )
            for i in range(keep + 3)
        ]
        chain = manager.version_chain(page(1))
        assert len(chain) == keep
        assert chain == tuple(stamps[-keep:])

    def test_abort_is_idempotent(self, manager, new_txn):
        txn = new_txn()
        cohort = setup_cohort(manager, txn)
        manager.write_request(cohort, page(1))
        manager.abort(cohort)
        manager.abort(cohort)
        assert manager.version_chain(page(1)) == ()


class TestCrashReset:
    def test_crash_reset_wipes_chains_and_intents(self, manager,
                                                  new_txn):
        committed_write(manager, new_txn, page(1), now=5.0)
        pending = new_txn(timestamp_time=6.0)
        pending_cohort = setup_cohort(manager, pending)
        manager.write_request(pending_cohort, page(2))
        assert certify(manager, pending, now=7.0) is True
        manager.crash_reset()
        assert manager.version_chain(page(1)) == ()
        assert manager.pending_intents(page(2)) == 0
        assert len(manager.store) == 0

    def test_post_crash_writes_start_from_zero(self, manager,
                                               new_txn):
        committed_write(manager, new_txn, page(1), now=5.0)
        manager.crash_reset()
        # A snapshot older than the wiped commit can write again: the
        # volatile version bookkeeping restarted from the zero stamp.
        old = new_txn(timestamp_time=1.0)
        cohort = setup_cohort(manager, old)
        assert (
            manager.write_request(cohort, page(1)).result
            is RequestResult.GRANTED
        )
        assert certify(manager, old, now=6.0) is True


class TestAlgorithm:
    def test_name(self):
        assert MultiVersionCC.name == "mvcc"

    def test_fresh_snapshot_per_attempt(self, new_txn):
        algorithm = MultiVersionCC()
        txn = new_txn()
        txn.startup_timestamp = None
        txn.timestamp = None
        algorithm.assign_timestamps(txn, 4.0)
        first_snapshot = txn.timestamp
        assert txn.startup_timestamp == first_snapshot
        algorithm.assign_timestamps(txn, 6.0)
        assert txn.timestamp > first_snapshot
        assert txn.startup_timestamp == first_snapshot

    def test_registry_integration(self, context):
        from repro.cc.registry import make_algorithm

        algorithm = make_algorithm("mvcc")
        manager = algorithm.make_node_manager(0, context)
        assert isinstance(manager, MvccNodeManager)
