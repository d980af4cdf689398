"""The lock table against its pre-change reference, step by step.

``reference_locks.LockManager`` is the table as it was before requests
were settled with one lookup and ``release_all`` grant-passed only the
pages with waiters.  Seeded random histories of shared, exclusive and
upgrade requests, ``release_all`` and ``cancel_request`` run through
both tables, each on its own kernel, with the same transactions.  A
conflict is blocked, or withdrawn and rejected as wait-die and
immediate restart do.  After every step the two must agree on the
response, the conflict set, the order in which request events fired,
every transaction's ``waits_for``, ``waits_for_edges``, each page's
holders and queue, and the table's key order.
"""

import random

import pytest

from repro.cc.base import CCResponse, RequestResult
from repro.cc.locks import LockManager, LockMode
from repro.core.database import PageId
from repro.sim.kernel import Environment
from tests.cc import reference_locks
from tests.cc.conftest import make_transaction

NUM_TRANSACTIONS = 8
NUM_PAGES = 6
STEPS = 400


class Side:
    """One lock table, its kernel, and what its requests did."""

    def __init__(self, table_class, upgrades_jump_queue, reject):
        self.env = Environment()
        self.reject = reject
        self.conflicts = []
        self.fired = []
        self.table = table_class(
            self.env, upgrades_jump_queue, self.on_conflict
        )

    def on_conflict(self, request, conflict_set):
        self.conflicts.append(
            (request.transaction, request.page, list(conflict_set))
        )
        if self.reject[0]:
            self.table.cancel_request(request)
            return CCResponse.rejected()
        self.env.process(self._watch(request))
        return CCResponse.blocked(request.event)

    def _watch(self, request):
        value = yield request.event
        self.fired.append(
            (request.transaction, request.page, request.mode, value)
        )

    def request(self, txn, page, mode):
        response = self.table.acquire(txn.cohort, page, mode)
        self.env.run()
        return response.result

    def state(self, transactions):
        table = self.table
        return {
            "keys": list(table._table),
            "entries": [
                (
                    list(entry.holders.items()),
                    [
                        (r.transaction, r.mode, r.is_upgrade)
                        for r in entry.queue
                    ],
                )
                for entry in table._table.values()
            ],
            "held": [sorted(table._held.get(t, ())) for t in transactions],
            "waiting": [table.is_waiting(t) for t in transactions],
            "waits_for": [table.waits_for(t) for t in transactions],
            "edges": table.waits_for_edges(),
            "conflicts": list(self.conflicts),
            "fired": list(self.fired),
        }


def held_shared(side, txn):
    return sorted(
        page
        for page, entry in side.table._held.get(txn, {}).items()
        if entry.holders[txn] is LockMode.SHARED
    )


def run_history(seed, upgrades_jump_queue):
    rng = random.Random(seed)
    reject = [False]
    new = Side(LockManager, upgrades_jump_queue, reject)
    old = Side(reference_locks.LockManager, upgrades_jump_queue, reject)
    transactions = [
        make_transaction(new.env) for _ in range(NUM_TRANSACTIONS)
    ]
    pages = [PageId(0, index % 2, index) for index in range(NUM_PAGES)]
    # How often a conflict is rejected varies by history, from never
    # (pure blocking) to always (immediate restart).
    reject_share = rng.choice((0.0, 0.25, 1.0))
    counts = {
        "grant": 0, "block": 0, "reject": 0, "fire": 0, "multi-page": 0
    }
    for _ in range(STEPS):
        op = rng.random()
        idle = [t for t in transactions if not new.table.is_waiting(t)]
        if op < 0.6 and idle:
            txn = rng.choice(idle)
            upgradable = held_shared(new, txn)
            if upgradable and rng.random() < 0.5:
                page, mode = rng.choice(upgradable), LockMode.EXCLUSIVE
            else:
                page = rng.choice(pages)
                mode = rng.choice((LockMode.SHARED, LockMode.EXCLUSIVE))
            reject[0] = rng.random() < reject_share
            result = new.request(txn, page, mode)
            assert old.request(txn, page, mode) is result
            counts[
                {
                    RequestResult.GRANTED: "grant",
                    RequestResult.BLOCKED: "block",
                    RequestResult.REJECTED: "reject",
                }[result]
            ] += 1
        elif op < 0.9:
            txn = rng.choice(transactions)
            before = len(new.fired)
            new.table.release_all(txn)
            old.table.release_all(txn)
            new.env.run()
            woken = {page for _, page, _, _ in new.fired[before:]}
            # A release that wakes waiters on two or more pages is
            # where the grant passes' page order shows.
            counts["multi-page"] += len(woken) > 1
        else:
            waiting = [t for t in transactions if new.table.is_waiting(t)]
            if not waiting:
                continue
            txn = rng.choice(waiting)
            new.table.cancel_request(new.table._waiting[txn])
            old.table.cancel_request(old.table._waiting[txn])
        new.env.run()
        old.env.run()
        new.table.assert_consistent()
        assert new.state(transactions) == old.state(transactions)
    counts["fire"] = len(new.fired)
    return counts


@pytest.mark.parametrize("upgrades_jump_queue", [True, False])
@pytest.mark.parametrize("seed", range(12))
def test_tables_agree_on_every_step(seed, upgrades_jump_queue):
    counts = run_history(seed, upgrades_jump_queue)
    # The history reached the paths under test.
    assert counts["grant"] > 0
    assert counts["block"] + counts["reject"] > 0


def test_histories_cover_every_outcome():
    totals = dict.fromkeys(run_history(0, True), 0)
    for seed in range(12):
        for jump in (True, False):
            for key, value in run_history(seed, jump).items():
                totals[key] += value
    assert all(value > 50 for value in totals.values()), totals
