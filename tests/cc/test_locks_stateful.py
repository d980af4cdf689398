"""Stateful property testing of the lock table (hypothesis).

Random interleavings of acquire/release operations, with the lock
table's core invariants checked after every step:

* an exclusive holder is always alone on its page;
* a transaction never both holds and queues a non-upgrade request on
  the same page;
* every blocked request's event fires at most once, and only with
  GRANTED (the table itself never rejects);
* 2PL's local deadlock search, which walks out from a waiter along
  the lock table's per-transaction wait edges, finds the same cycle
  (same members, same order) as a search over the node's whole
  rebuilt waits-for graph, for every waiting transaction and any
  doomed / already-aborting subset;
* after releasing everything, the table is empty.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.cc.base import CCResponse, RequestResult
from repro.cc.locks import LockManager, LockMode
from repro.cc.two_phase_locking import local_deadlock_cycle
from repro.cc.wfg import build_adjacency, youngest
from repro.core.database import PageId
from repro.sim.kernel import Environment
from tests.cc.conftest import make_transaction


def reference_cycle(locks, start, doomed):
    """The full-graph local search, kept as the reference.

    Rebuilds the node's whole waits-for graph, drops every edge with a
    doomed or aborting end, and runs an index-based DFS over the
    adjacency map from ``start``.
    """
    adjacency = build_adjacency(
        (waiter, holder)
        for waiter, holder in locks.waits_for_edges()
        if waiter not in doomed
        and holder not in doomed
        and not waiter.abort_pending
        and not holder.abort_pending
    )
    stack = [(start, 0)]
    path = [start]
    on_path = {start}
    visited = {start}
    while stack:
        node, edge_index = stack[-1]
        neighbors = adjacency.get(node, [])
        if edge_index >= len(neighbors):
            stack.pop()
            path.pop()
            on_path.discard(node)
            continue
        stack[-1] = (node, edge_index + 1)
        neighbor = neighbors[edge_index]
        if neighbor is start:
            return list(path)
        if neighbor in on_path or neighbor in visited:
            continue
        visited.add(neighbor)
        on_path.add(neighbor)
        path.append(neighbor)
        stack.append((neighbor, 0))
    return None


class LockTableMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.env = Environment()
        self.queued = []

        def block(request, conflict_set):
            self.queued.append(request)
            return CCResponse.blocked(request.event)

        self.locks = LockManager(
            self.env, upgrades_jump_queue=True, on_conflict=block
        )
        self.pages = [PageId(0, 0, index) for index in range(4)]
        self.grant_log = []
        self.transactions = []
        self.doomed = set()

    def _idle(self):
        """Transactions free to request: a cohort blocks on its
        pending request and cannot issue another until it resolves."""
        return [
            txn for txn in self.transactions
            if not self.locks.is_waiting(txn)
        ]

    @precondition(lambda self: len(self.transactions) < 5)
    @rule()
    def new_transaction(self):
        # A few transactions over four pages keep the table contended
        # enough for waits-for chains and cycles to form.
        self.transactions.append(make_transaction(self.env))

    @precondition(lambda self: self._idle())
    @rule(
        data=st.data(),
        page_index=st.integers(min_value=0, max_value=3),
        exclusive=st.booleans(),
    )
    def acquire(self, data, page_index, exclusive):
        txn = data.draw(st.sampled_from(self._idle()))
        self._request(txn, self.pages[page_index], exclusive)

    def _request(self, txn, page, exclusive):
        mode = (
            LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
        )
        queued = len(self.queued)
        response = self.locks.acquire(txn.cohort, page, mode)
        if response.result is RequestResult.GRANTED:
            assert len(self.queued) == queued
        else:
            (request,) = self.queued[queued:]
            assert response.event is request.event
            log = self.grant_log

            def watch(request=request):
                value = yield request.event
                log.append((request, value))

            self.env.process(watch())

    def _readers(self):
        return [
            (txn, page)
            for txn in self._idle()
            for page in sorted(self.locks._held.get(txn, ()))
            if self.locks._table[page].holders[txn] is LockMode.SHARED
        ]

    @precondition(lambda self: self._readers())
    @rule(data=st.data())
    def upgrade(self, data):
        """Convert a held read lock: 2PL's conversions jump the queue,
        so readers upgrading one page deadlock."""
        txn, page = data.draw(st.sampled_from(self._readers()))
        self._request(txn, page, exclusive=True)

    @precondition(lambda self: self.transactions)
    @rule(data=st.data())
    def release(self, data):
        self.locks.release_all(
            data.draw(st.sampled_from(self.transactions))
        )
        self.env.run()

    @precondition(lambda self: self.transactions)
    @rule(data=st.data())
    def toggle_doomed(self, data):
        self.doomed ^= {data.draw(st.sampled_from(self.transactions))}

    @precondition(lambda self: self.transactions)
    @rule(data=st.data())
    def toggle_abort_pending(self, data):
        txn = data.draw(st.sampled_from(self.transactions))
        txn.abort_pending = not txn.abort_pending

    @invariant()
    def table_consistent(self):
        if hasattr(self, "locks"):
            self.env.run()
            self.locks.assert_consistent()

    @invariant()
    def local_search_matches_full_graph(self):
        if not hasattr(self, "locks"):
            return
        # Each waiter in turn, as if it had just blocked: 2PL dooms
        # the youngest member of each cycle found and searches again.
        for txn in sorted(self.locks._waiting, key=lambda t: t.tid):
            doomed = set(self.doomed)
            while txn not in doomed:
                cycle = local_deadlock_cycle(self.locks, txn, doomed)
                assert cycle == reference_cycle(self.locks, txn, doomed)
                if cycle is None:
                    break
                doomed.add(youngest(cycle))

    @invariant()
    def grants_unique_per_request(self):
        if not hasattr(self, "grant_log"):
            return
        requests = [id(request) for request, _value in self.grant_log]
        assert len(requests) == len(set(requests))

    def teardown(self):
        if not hasattr(self, "locks"):
            return
        # Release everything: the table must drain completely.
        seen = set()
        for request, _value in self.grant_log:
            seen.add(request.transaction)
        for txn in list(self.locks._held) + list(
            self.locks._waiting
        ):
            seen.add(txn)
        for txn in seen:
            self.locks.release_all(txn)
        self.env.run()
        assert self.locks._table == {}


TestLockTableStateful = LockTableMachine.TestCase
TestLockTableStateful.settings = settings(
    max_examples=80, stateful_step_count=60, deadline=None
)
