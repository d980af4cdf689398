"""Tests for the serializability auditor."""

from repro.core.audit import Auditor
from repro.core.config import TransactionClassConfig
from repro.core.database import PageId
from repro.core.transaction import (
    AccessSpec,
    Cohort,
    CohortSpec,
    PageAccess,
    Transaction,
)

PAGE_X = PageId(0, 0, 1)
PAGE_Y = PageId(0, 0, 2)


def make_cohort():
    cls = TransactionClassConfig()
    spec = AccessSpec(
        relation=0,
        cohorts=(
            CohortSpec(
                node=0,
                accesses=(PageAccess(PAGE_X, is_update=True),),
            ),
        ),
    )
    txn = Transaction(0, cls, spec, 0.0)
    (cohort,) = txn.begin_attempt()
    return cohort


class TestAuditorBookkeeping:
    def test_serial_history_is_serializable(self):
        auditor = Auditor()
        writer = make_cohort()
        auditor.on_read_granted(writer, PAGE_X)
        auditor.on_installed(writer, [PAGE_X])
        auditor.on_committed(writer.transaction)

        reader = make_cohort()
        auditor.on_read_granted(reader, PAGE_X)
        auditor.on_committed(reader.transaction)

        assert auditor.is_serializable()
        edges = auditor.serialization_edges()
        writer_key = (writer.transaction.tid, 1)
        reader_key = (reader.transaction.tid, 1)
        assert (writer_key, reader_key) in edges

    def test_write_write_order_edges(self):
        auditor = Auditor()
        first, second = make_cohort(), make_cohort()
        auditor.on_installed(first, [PAGE_X])
        auditor.on_committed(first.transaction)
        auditor.on_installed(second, [PAGE_X])
        auditor.on_committed(second.transaction)
        edges = auditor.serialization_edges()
        assert (
            (first.transaction.tid, 1),
            (second.transaction.tid, 1),
        ) in edges
        assert auditor.is_serializable()

    def test_nonserializable_cycle_detected(self):
        """Classic lost-version anomaly: each reads the version the
        other overwrites."""
        auditor = Auditor()
        a, b = make_cohort(), make_cohort()
        # Both read initial versions of X and Y.
        auditor.on_read_granted(a, PAGE_X)
        auditor.on_read_granted(b, PAGE_Y)
        # a writes Y (so b's read precedes a's write: b -> a)
        auditor.on_installed(a, [PAGE_Y])
        auditor.on_committed(a.transaction)
        # b writes X (so a's read precedes b's write: a -> b)
        auditor.on_installed(b, [PAGE_X])
        auditor.on_committed(b.transaction)
        cycle = auditor.find_cycle()
        assert cycle is not None
        assert not auditor.is_serializable()

    def test_aborted_attempt_reads_dropped(self):
        auditor = Auditor()
        cohort = make_cohort()
        auditor.on_read_granted(cohort, PAGE_X)
        auditor.on_aborted(cohort.transaction)
        assert auditor.committed_reads == {}
        assert auditor.is_serializable()

    def test_read_of_initial_version_before_first_writer(self):
        auditor = Auditor()
        reader = make_cohort()
        auditor.on_read_granted(reader, PAGE_X)
        auditor.on_committed(reader.transaction)
        writer = make_cohort()
        auditor.on_installed(writer, [PAGE_X])
        auditor.on_committed(writer.transaction)
        edges = auditor.serialization_edges()
        assert (
            (reader.transaction.tid, 1),
            (writer.transaction.tid, 1),
        ) in edges

    def test_attempts_distinguished(self):
        auditor = Auditor()
        cohort = make_cohort()
        txn = cohort.transaction
        auditor.on_read_granted(cohort, PAGE_X)
        auditor.on_aborted(txn)
        (retry,) = txn.begin_attempt()
        auditor.on_read_granted(retry, PAGE_X)
        auditor.on_installed(retry, [PAGE_X])
        auditor.on_committed(txn)
        assert (txn.tid, 2) in auditor.committed
        assert auditor.is_serializable()
