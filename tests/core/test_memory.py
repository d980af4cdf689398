"""A run leaves no transaction records to the cyclic collector.

``Environment.run`` pauses the collector, so anything that lives in a
reference cycle stays resident until the run ends.  A transaction does
not reference its cohorts (the coordinator owns them), so reference
counting frees a committed transaction, its cohorts, their mailboxes
and its access specification at commit.  This census runs each
algorithm with the collector off and then lists what the collector
reclaims: no transaction record may be in it.  (Joins abandoned on the
abort path remain; DESIGN §14 counts them.)
"""

import gc
from collections import Counter

import pytest

from repro.core.simulation import Simulation
from repro.experiments.fidelity import Fidelity
from repro.experiments.router import mixed_config
from repro.experiments.scaling import scaling_config

#: Per-transaction records that must be freed by reference counting.
TRANSACTION_RECORDS = ("Transaction", "Cohort", "Mailbox", "PageAccess")


def cyclic_garbage(simulation: Simulation) -> Counter:
    """Run with the collector off; count by type what it then reclaims."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        simulation.run()
    finally:
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            census = Counter(type(obj).__name__ for obj in gc.garbage)
            gc.garbage.clear()
        finally:
            gc.set_debug(flags)
            if enabled:
                gc.enable()
    return census


@pytest.mark.parametrize(
    "algorithm", ["2pl", "ww", "bto", "opt", "no_dc", "router"]
)
def test_no_transaction_record_is_cyclic_garbage(algorithm):
    fidelity = Fidelity.smoke()
    if algorithm == "router":
        config = mixed_config(fidelity, "router", 0.0)
    else:
        config = scaling_config(fidelity, algorithm, 0.0, 8)
    census = cyclic_garbage(Simulation(config))
    leaked = {
        name: census[name] for name in TRANSACTION_RECORDS if census[name]
    }
    assert leaked == {}
