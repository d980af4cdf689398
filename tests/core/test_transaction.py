"""Tests for transaction/cohort records and timestamps."""

import gc

from repro.core.config import (
    ExecutionPattern,
    TransactionClassConfig,
)
from repro.core.database import PageId
from repro.core.transaction import (
    AccessSpec,
    CohortSpec,
    PageAccess,
    Transaction,
    TransactionState,
    make_timestamp,
)


def make_spec():
    cohort_a = CohortSpec(
        node=0,
        accesses=(
            PageAccess(PageId(0, 0, 1), is_update=False),
            PageAccess(PageId(0, 0, 2), is_update=True),
        ),
    )
    cohort_b = CohortSpec(
        node=3,
        accesses=(PageAccess(PageId(0, 3, 9), is_update=True),),
    )
    return AccessSpec(relation=0, cohorts=(cohort_a, cohort_b))


def make_txn(pattern=ExecutionPattern.PARALLEL):
    cls = TransactionClassConfig(execution_pattern=pattern)
    return Transaction(0, cls, make_spec(), origination_time=1.0)


class TestTimestamps:
    def test_unique_and_monotone_sequence(self):
        stamps = [make_timestamp(5.0) for _ in range(100)]
        assert len(set(stamps)) == 100
        assert stamps == sorted(stamps)

    def test_time_component_dominates(self):
        early = make_timestamp(1.0)
        late = make_timestamp(2.0)
        assert early < late


class TestAccessSpec:
    def test_counts(self):
        spec = make_spec()
        assert spec.num_reads == 3
        assert spec.num_updates == 2
        assert spec.nodes == (0, 3)

    def test_cohort_counts(self):
        spec = make_spec()
        assert spec.cohorts[0].num_reads == 2
        assert spec.cohorts[0].num_updates == 1


class TestTransactionLifecycle:
    def test_initial_state(self):
        txn = make_txn()
        assert txn.state is TransactionState.PENDING
        assert txn.attempt == 0
        assert txn.startup_timestamp is None

    def test_begin_attempt_builds_cohorts(self):
        txn = make_txn()
        cohorts = txn.begin_attempt()
        assert txn.attempt == 1
        assert txn.state is TransactionState.RUNNING
        assert [c.node for c in cohorts] == [0, 3]
        assert all(c.transaction is txn for c in cohorts)

    def test_restart_builds_fresh_cohorts(self):
        txn = make_txn()
        first = txn.begin_attempt()
        second = txn.begin_attempt()
        assert txn.attempt == 2
        assert second is not first
        assert [c.attempt for c in second] == [2, 2]

    def test_transaction_does_not_reference_its_cohorts(self):
        """Only the coordinator holds an attempt's cohorts, so a
        finished attempt is freed by reference counting."""
        txn = make_txn()
        cohorts = txn.begin_attempt()
        assert not hasattr(txn, "cohorts")
        assert all(
            referent is not cohorts and referent not in cohorts
            for referent in gc.get_referents(txn)
        )

    def test_restart_clears_abort_state(self):
        txn = make_txn()
        txn.begin_attempt()
        txn.mark_abort("wound")
        txn.begin_attempt()
        assert not txn.abort_pending
        assert txn.abort_reason is None

    def test_mark_abort_first_reason_wins(self):
        txn = make_txn()
        txn.begin_attempt()
        txn.mark_abort("first")
        txn.mark_abort("second")
        assert txn.abort_reason == "first"

    def test_abortable_states(self):
        txn = make_txn()
        txn.begin_attempt()
        assert txn.abortable
        txn.state = TransactionState.PREPARING
        assert txn.abortable
        txn.state = TransactionState.COMMITTING
        assert not txn.abortable
        assert txn.in_second_commit_phase
        txn.state = TransactionState.ABORTING
        assert not txn.abortable

    def test_parallel_flag(self):
        assert make_txn(ExecutionPattern.PARALLEL).parallel
        assert not make_txn(ExecutionPattern.SEQUENTIAL).parallel

    def test_updated_pages(self):
        txn = make_txn()
        first, second = txn.begin_attempt()
        assert first.updated_pages == [PageId(0, 0, 2)]
        assert second.updated_pages == [PageId(0, 3, 9)]

    def test_tids_unique(self):
        tids = {make_txn().tid for _ in range(10)}
        assert len(tids) == 10
