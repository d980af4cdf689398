"""Tests for the NO_DC baseline."""

import pytest

from repro.cc.base import RequestResult
from repro.cc.no_dc import NoDataContention, NoDcNodeManager

from tests.cc.conftest import page


@pytest.fixture
def manager(context):
    return NoDcNodeManager(0, context)


def cohort_of(txn):
    return txn.cohort


def test_everything_granted(manager, new_txn):
    a, b = new_txn(), new_txn()
    for txn in (a, b):
        assert (
            manager.read_request(cohort_of(txn), page(1)).result
            is RequestResult.GRANTED
        )
        assert (
            manager.write_request(cohort_of(txn), page(1)).result
            is RequestResult.GRANTED
        )


def test_prepare_always_yes(manager, new_txn):
    assert manager.prepare(cohort_of(new_txn())) is True


def test_commit_installs_all_updates(manager, new_txn):
    txn = new_txn()
    assert manager.commit(cohort_of(txn)) == cohort_of(txn).updated_pages


def test_abort_noop(manager, new_txn):
    manager.abort(cohort_of(new_txn()))


def test_no_edges_reported(manager):
    assert manager.waits_for_edges() == []


def test_name():
    assert NoDataContention.name == "no_dc"
