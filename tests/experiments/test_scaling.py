"""The §4.2 scaling configurations."""

import pytest

from repro.core.config import PlacementKind
from repro.experiments.fidelity import Fidelity
from repro.experiments.scaling import _sixteen_node_config, scaling_config


@pytest.mark.parametrize("algorithm", ["2pl", "no_dc"])
def test_sixteen_node_config_is_footnote_7_machine(algorithm):
    """Footnote 7's point: 16 partitions per relation, transactions
    that read all 16, declustered over all 16 nodes, and otherwise the
    plain scaling point."""
    fidelity = Fidelity.smoke()
    config = _sixteen_node_config(fidelity, algorithm, 24.0, 16)
    database = config.database
    assert database.partitions_per_relation == 16
    assert database.placement is PlacementKind.DECLUSTERED
    assert database.placement_degree == 16
    assert [c.file_count for c in config.workload.classes] == [16]
    plain = scaling_config(fidelity, algorithm, 24.0, 16)
    assert config.with_database(
        partitions_per_relation=plain.database.partitions_per_relation
    ).with_workload(classes=plain.workload.classes) == plain
