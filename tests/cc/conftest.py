"""Shared fixtures for concurrency control unit tests."""

import pytest

from repro.cc.base import CCContext
from repro.core.config import TransactionClassConfig
from repro.core.database import PageId
from repro.core.transaction import (
    AccessSpec,
    CohortSpec,
    PageAccess,
    Transaction,
)
from repro.sim.kernel import Environment


class AbortRecorder:
    """Captures abort requests issued by CC managers."""

    def __init__(self):
        self.requests = []

    def __call__(self, transaction, reason, from_node):
        self.requests.append((transaction, reason, from_node))

    @property
    def victims(self):
        return [transaction for transaction, _, _ in self.requests]


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def aborts():
    return AbortRecorder()


@pytest.fixture
def context(env, aborts):
    return CCContext(env, request_abort=aborts, detection_interval=1.0)


def page(index, partition=0, relation=0):
    """Shorthand page constructor for CC tests."""
    return PageId(relation, partition, index)


class OneCohortTransaction(Transaction):
    """A transaction that keeps its one cohort for the test.

    In a simulation the coordinator owns an attempt's cohorts and the
    transaction does not reference them; these tests drive the CC
    managers without a coordinator.
    """

    __slots__ = ("cohort",)


def make_transaction(env, pages=(), node=0):
    """A one-cohort transaction touching ``pages`` at ``node``."""
    accesses = tuple(
        PageAccess(p, is_update=False) for p in pages
    )
    spec = AccessSpec(
        relation=0, cohorts=(CohortSpec(node=node, accesses=accesses),)
    )
    transaction = OneCohortTransaction(
        0, TransactionClassConfig(), spec, env.now
    )
    (transaction.cohort,) = transaction.begin_attempt()
    return transaction


@pytest.fixture
def new_txn(env):
    """Factory: fresh single-cohort transactions with timestamps."""

    def factory(timestamp_time=None, node=0):
        transaction = make_transaction(env, node=node)
        time = env.now if timestamp_time is None else timestamp_time
        from repro.core.transaction import make_timestamp

        transaction.startup_timestamp = make_timestamp(time)
        transaction.timestamp = transaction.startup_timestamp
        return transaction

    return factory
