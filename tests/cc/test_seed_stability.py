"""Seed-stability for the tie-break-sensitive locking algorithms.

The explicit ordering fixes (sorted grant passes in the lock table,
tid tie-breaks in victim selection) exist so that schedules are a pure
function of the seed.  These tests pin that property specifically for
the algorithms whose wakeup/victim choices the tie-breaks feed —
deliberately at high contention (zero think time, writes, declustered
placement), where grant order and victim choice actually decide the
schedule.
"""

import hashlib
import json

import pytest

from repro.core.config import (
    PlacementKind,
    TransactionClassConfig,
    WorkloadConfig,
    paper_default_config,
)
from repro.core.simulation import run_simulation


def contended_config(algorithm, seed):
    config = paper_default_config(
        algorithm,
        think_time=0.0,
        placement=PlacementKind.DECLUSTERED,
        placement_degree=8,
        seed=seed,
    )
    workload = WorkloadConfig(
        num_terminals=24,
        think_time=0.0,
        classes=(
            TransactionClassConfig(write_probability=0.25),
        ),
    )
    return config.with_(duration=6.0, warmup=2.0, workload=workload)


@pytest.mark.parametrize("algorithm", ["2pl", "ww", "wd", "mvcc"])
@pytest.mark.parametrize("seed", [7, 1234])
def test_contended_runs_are_bit_identical(algorithm, seed):
    first = run_simulation(contended_config(algorithm, seed))
    second = run_simulation(contended_config(algorithm, seed))
    assert first.as_dict() == second.as_dict()
    # Contention sanity: the run actually exercised conflicts, so the
    # tie-break paths (grant passes, victim selection) were hit.
    assert first.aborts > 0 or first.blocking_count > 0


def test_seed_changes_the_schedule():
    """Guard against accidentally comparing constants: different
    seeds must produce different measurements."""
    a = run_simulation(contended_config("2pl", seed=7))
    b = run_simulation(contended_config("2pl", seed=8))
    assert a.as_dict() != b.as_dict()


#: sha256 of ``json.dumps(result.as_dict(), sort_keys=True)`` for
#: ``contended_config(algorithm, seed)``, recorded before wait-die and
#: immediate restart moved onto the lock table's shared request path.
#: No golden figure or benchmark digest runs either algorithm, so
#: these pin their schedules.
PINNED_DIGESTS = {
    ("wd", 7): (
        "4b336a03c13b1f930174233ee0fe2307981542818956738e7772e54d15759a4f"
    ),
    ("wd", 1234): (
        "edb1d63ce170dd8d27c40ea6c91f78bfe8d5935e07dc418443e5ccab23776757"
    ),
    ("ir", 7): (
        "7ac91dd54f4bdfb548d7892926c7314f37bce81b08f552284ec1002d0aba15b0"
    ),
    ("ir", 1234): (
        "52f17a9b60dadbd573aa0480b82922d2558bb7a8372d8c5b45589c389643eaf1"
    ),
}


@pytest.mark.parametrize("algorithm, seed", sorted(PINNED_DIGESTS))
def test_wait_die_and_immediate_restart_digests(algorithm, seed):
    result = run_simulation(contended_config(algorithm, seed))
    text = json.dumps(result.as_dict(), sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINNED_DIGESTS[(algorithm, seed)]
