"""Tests for distributed optimistic certification."""

import pytest

from repro.cc.base import RequestResult
from repro.cc.optimistic import (
    DistributedCertification,
    OptimisticNodeManager,
)
from repro.core.transaction import make_timestamp

from tests.cc.conftest import page


@pytest.fixture
def manager(context):
    return OptimisticNodeManager(0, context)


def cohort_of(txn):
    return txn.cohort


def setup_cohort(manager, txn):
    manager.register_cohort(cohort_of(txn))
    return cohort_of(txn)


def certify(manager, txn, now=10.0):
    txn.commit_timestamp = make_timestamp(now)
    return manager.prepare(cohort_of(txn))


class TestAccess:
    def test_reads_always_granted(self, manager, new_txn):
        cohort = setup_cohort(manager, new_txn())
        assert (
            manager.read_request(cohort, page(1)).result
            is RequestResult.GRANTED
        )

    def test_writes_always_granted(self, manager, new_txn):
        cohort = setup_cohort(manager, new_txn())
        assert (
            manager.write_request(cohort, page(1)).result
            is RequestResult.GRANTED
        )


class TestCertification:
    def test_unchallenged_transaction_certifies(self, manager,
                                                new_txn):
        txn = new_txn()
        cohort = setup_cohort(manager, txn)
        manager.read_request(cohort, page(1))
        manager.write_request(cohort, page(1))
        assert certify(manager, txn) is True

    def test_read_fails_if_version_changed(self, manager, new_txn):
        reader = new_txn()
        reader_cohort = setup_cohort(manager, reader)
        manager.read_request(reader_cohort, page(1))
        # A writer sneaks in, certifies and commits.
        writer = new_txn()
        writer_cohort = setup_cohort(manager, writer)
        manager.write_request(writer_cohort, page(1))
        assert certify(manager, writer, now=5.0) is True
        manager.commit(writer_cohort)
        assert certify(manager, reader, now=6.0) is False

    def test_read_fails_against_pending_certified_write(
        self, manager, new_txn
    ):
        writer = new_txn()
        writer_cohort = setup_cohort(manager, writer)
        manager.write_request(writer_cohort, page(1))
        assert certify(manager, writer, now=5.0) is True
        # Writer has certified but not yet committed: a reader of the
        # same page must not certify.
        reader = new_txn()
        reader_cohort = setup_cohort(manager, reader)
        manager.read_request(reader_cohort, page(1))
        assert certify(manager, reader, now=6.0) is False

    def test_read_ok_after_pending_writer_aborts(self, manager,
                                                 new_txn):
        writer = new_txn()
        writer_cohort = setup_cohort(manager, writer)
        manager.write_request(writer_cohort, page(1))
        assert certify(manager, writer, now=5.0) is True
        manager.abort(writer_cohort)
        reader = new_txn()
        reader_cohort = setup_cohort(manager, reader)
        manager.read_request(reader_cohort, page(1))
        assert certify(manager, reader, now=6.0) is True

    def test_write_fails_if_later_read_committed(self, manager,
                                                 new_txn):
        reader = new_txn()
        reader_cohort = setup_cohort(manager, reader)
        manager.read_request(reader_cohort, page(1))
        assert certify(manager, reader, now=9.0) is True
        manager.commit(reader_cohort)  # rts(page) = ts(9.0)
        writer = new_txn()
        writer_cohort = setup_cohort(manager, writer)
        manager.write_request(writer_cohort, page(1))
        # Writer's certification timestamp is *earlier* than the
        # committed read: certification must fail.
        writer.commit_timestamp = make_timestamp(5.0)
        # make_timestamp sequences are monotone; build an older stamp
        # directly to force the comparison.
        writer.commit_timestamp = (5.0, -1)
        assert manager.prepare(cohort_of(writer)) is False

    def test_write_fails_against_pending_later_read(self, manager,
                                                    new_txn):
        reader = new_txn()
        reader_cohort = setup_cohort(manager, reader)
        manager.read_request(reader_cohort, page(1))
        reader.commit_timestamp = (9.0, 100)
        assert manager.prepare(reader_cohort) is True  # pending
        writer = new_txn()
        writer_cohort = setup_cohort(manager, writer)
        manager.write_request(writer_cohort, page(1))
        writer.commit_timestamp = (5.0, 99)
        assert manager.prepare(writer_cohort) is False

    def test_write_ok_against_pending_earlier_read(self, manager,
                                                   new_txn):
        reader = new_txn()
        reader_cohort = setup_cohort(manager, reader)
        manager.read_request(reader_cohort, page(1))
        reader.commit_timestamp = (5.0, 99)
        assert manager.prepare(reader_cohort) is True
        writer = new_txn()
        writer_cohort = setup_cohort(manager, writer)
        manager.write_request(writer_cohort, page(1))
        writer.commit_timestamp = (9.0, 100)
        assert manager.prepare(writer_cohort) is True


class TestInstall:
    def test_commit_advances_timestamps(self, manager, new_txn):
        txn = new_txn()
        cohort = setup_cohort(manager, txn)
        manager.read_request(cohort, page(1))
        manager.write_request(cohort, page(2))
        assert certify(manager, txn, now=7.0)
        installed = manager.commit(cohort)
        assert installed == cohort.updated_pages
        rts, _ = manager.page_timestamps(page(1))
        _, wts = manager.page_timestamps(page(2))
        assert rts == txn.commit_timestamp
        assert wts == txn.commit_timestamp

    def test_commit_clears_pending(self, manager, new_txn):
        first = new_txn()
        first_cohort = setup_cohort(manager, first)
        manager.write_request(first_cohort, page(1))
        assert certify(manager, first, now=5.0)
        manager.commit(first_cohort)
        # A later reader sees no pending write (only the version
        # check applies).
        reader = new_txn()
        reader_cohort = setup_cohort(manager, reader)
        manager.read_request(reader_cohort, page(1))
        assert certify(manager, reader, now=8.0) is True

    def test_abort_without_certification_safe(self, manager, new_txn):
        txn = new_txn()
        cohort = setup_cohort(manager, txn)
        manager.read_request(cohort, page(1))
        manager.abort(cohort)
        manager.abort(cohort)  # idempotent


class TestAlgorithm:
    def test_name(self):
        assert DistributedCertification.name == "opt"

    def test_commit_timestamp_minted_fresh(self, new_txn):
        algorithm = DistributedCertification()
        txn = new_txn()
        first = algorithm.assign_commit_timestamp(txn, 4.0)
        second = algorithm.assign_commit_timestamp(txn, 4.0)
        assert second > first
        assert txn.commit_timestamp == second
