"""Adversarial random-schedule testing of every CC algorithm.

A miniature transaction harness (no disks, no messages — just the
kernel, one node manager, and randomized delays) drives a batch of
conflicting transactions through random interleavings, retrying on
aborts exactly like the real transaction manager.  The committed
history is then checked for serializability with the auditor, and the
system for liveness (the workload must finish; progress must be made).

This attacks the algorithms from a different angle than the full
simulation: delays are arbitrary (not disk-shaped), conflict density is
extreme, and thousands of interleavings are explored across seeds.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import make_algorithm
from repro.cc.base import CCContext, RequestResult
from repro.core.audit import Auditor
from repro.core.config import TransactionClassConfig
from repro.core.database import PageId
from repro.core.transaction import (
    AccessSpec,
    CohortSpec,
    PageAccess,
    Transaction,
)
from repro.sim.kernel import Environment, Interrupt

#: Algorithms that must produce serializable histories.  NO_DC is
#: excluded: it is the paper's no-contention *baseline* and performs no
#: concurrency control at all, so its conflicting histories are
#: (deliberately) not serializable.
SERIALIZABLE_ALGORITHMS = ("2pl", "ww", "bto", "opt", "wd", "ir")
ALGORITHMS = SERIALIZABLE_ALGORITHMS + ("no_dc",)
MAX_ATTEMPTS = 60


class MiniHarness:
    """Single-node transaction driver over one CC manager."""

    def __init__(self, algorithm_name, seed, num_txns, num_pages,
                 write_fraction=0.5):
        self.env = Environment()
        self.rng = random.Random(seed)
        self.algorithm = make_algorithm(algorithm_name)
        self.context = CCContext(
            self.env, request_abort=self._request_abort
        )
        self.manager = self.algorithm.make_node_manager(
            0, self.context
        )
        self.auditor = Auditor()
        self.committed = 0
        self.failed = []
        self._processes = {}
        self.transactions = [
            self._make_transaction(index, num_pages, write_fraction)
            for index in range(num_txns)
        ]

    def _make_transaction(self, index, num_pages, write_fraction):
        count = self.rng.randint(1, min(4, num_pages))
        pages = self.rng.sample(range(num_pages), count)
        accesses = tuple(
            PageAccess(
                PageId(0, 0, page),
                is_update=self.rng.random() < write_fraction,
            )
            for page in pages
        )
        spec = AccessSpec(
            relation=0,
            cohorts=(CohortSpec(node=0, accesses=accesses),),
        )
        return Transaction(
            index, TransactionClassConfig(), spec, 0.0
        )

    def _request_abort(self, transaction, reason, _from_node):
        if transaction.abort_pending or not transaction.abortable:
            return
        transaction.mark_abort(reason)
        process = self._processes.get(transaction.tid)
        if process is not None and process.alive:
            process.interrupt(reason)

    def _delay(self):
        return self.env.timeout(self.rng.random() * 0.01)

    def _transaction_body(self, transaction):
        for _attempt in range(MAX_ATTEMPTS):
            self.algorithm.assign_timestamps(
                transaction, self.env.now
            )
            (cohort,) = transaction.begin_attempt()
            committed = yield from self._run_attempt(
                transaction, cohort
            )
            if committed:
                self.committed += 1
                self.auditor.on_committed(transaction)
                return
            self.auditor.on_aborted(transaction)
            self.manager.abort(cohort)
            yield self.env.timeout(self.rng.random() * 0.05)
        self.failed.append(transaction.tid)

    def _run_attempt(self, transaction, cohort):
        from repro.core.transaction import TransactionState

        try:
            self.manager.register_cohort(cohort)
            for access in cohort.spec.accesses:
                yield self._delay()
                ok = yield from self._access(
                    cohort, access.page, write=False
                )
                if not ok:
                    return False
                if access.is_update:
                    ok = yield from self._access(
                        cohort, access.page, write=True
                    )
                    if not ok:
                        return False
            yield self._delay()
            if transaction.abort_pending:
                return False
            transaction.state = TransactionState.PREPARING
            self.algorithm.assign_commit_timestamp(
                transaction, self.env.now
            )
            if not self.manager.prepare(cohort):
                return False
            if transaction.abort_pending:
                return False
            transaction.state = TransactionState.COMMITTING
            installed = self.manager.commit(cohort)
            self.auditor.on_installed(cohort, installed)
            transaction.state = TransactionState.COMMITTED
            return True
        except Interrupt:
            return False

    def _access(self, cohort, page, write):
        if write:
            response = self.manager.write_request(cohort, page)
        else:
            response = self.manager.read_request(cohort, page)
        if response.result is RequestResult.REJECTED:
            return False
        if response.result is RequestResult.BLOCKED:
            outcome = yield response.event
            if outcome is not RequestResult.GRANTED:
                return False
        if cohort.transaction.abort_pending:
            return False
        if not write:
            self.auditor.on_read_granted(cohort, page)
        return True

    def run(self):
        for transaction in self.transactions:
            process = self.env.process(
                self._transaction_body(transaction),
                name=f"mini-txn-{transaction.tid}",
            )
            self._processes[transaction.tid] = process
        self.env.run(until=1_000.0)
        self.env.check_crashes()
        return self


@pytest.mark.parametrize("algorithm", SERIALIZABLE_ALGORITHMS)
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_random_schedule_serializable(algorithm, seed):
    harness = MiniHarness(
        algorithm, seed, num_txns=10, num_pages=5
    ).run()
    cycle = harness.auditor.find_cycle()
    assert cycle is None, (
        f"{algorithm} seed {seed} produced cycle {cycle}"
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_schedule_liveness(algorithm, seed):
    """Every transaction must eventually commit — no livelock, no lost
    wakeups, within the generous attempt budget."""
    harness = MiniHarness(
        algorithm, seed, num_txns=8, num_pages=4
    ).run()
    assert harness.failed == []
    assert harness.committed == 8


@given(
    algorithm=st.sampled_from(SERIALIZABLE_ALGORITHMS),
    seed=st.integers(min_value=0, max_value=100_000),
)
@settings(max_examples=60, deadline=None)
def test_property_random_schedules(algorithm, seed):
    harness = MiniHarness(
        algorithm, seed, num_txns=8, num_pages=4
    ).run()
    assert harness.auditor.find_cycle() is None
    # Progress: at least half the batch commits even under the
    # nastiest interleavings (all of them should, but the property
    # keeps a margin for extreme abort storms within the attempt cap).
    assert harness.committed >= 4
