"""Tests for the CC algorithm registry."""

import pytest

from repro.cc.base import NodeCCManager
from repro.cc.mvcc import MultiVersionCC
from repro.cc.no_dc import NoDataContention
from repro.cc.optimistic import DistributedCertification
from repro.cc.registry import (
    ALGORITHM_NAMES,
    EXTENSION_NAMES,
    MODERN_NAMES,
    make_algorithm,
    register_algorithm,
)
from repro.cc.timestamp_ordering import BasicTimestampOrdering
from repro.cc.two_phase_locking import TwoPhaseLocking
from repro.cc.wound_wait import WoundWait
from repro.router.dispatch import RoutedCC


def _bound(name):
    """Instantiate and late-bind like Simulation.__init__ does."""
    from repro.core.config import paper_default_config
    from repro.sim.streams import RandomStreams

    algorithm = make_algorithm(name)
    algorithm.bind(paper_default_config(name), RandomStreams(0))
    return algorithm


@pytest.mark.parametrize(
    ("name", "cls"),
    [
        ("2pl", TwoPhaseLocking),
        ("ww", WoundWait),
        ("bto", BasicTimestampOrdering),
        ("opt", DistributedCertification),
        ("no_dc", NoDataContention),
        ("mvcc", MultiVersionCC),
        ("router", RoutedCC),
    ],
)
def test_lookup_by_name(name, cls):
    assert isinstance(make_algorithm(name), cls)


@pytest.mark.parametrize(
    "spelling", ["2PL", " ww ", "NO_DC", "NODC", "no-dc", "Opt", "MVCC"]
)
def test_tolerant_spellings(spelling):
    make_algorithm(spelling)  # must not raise


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown"):
        make_algorithm("mv2pl")


def test_all_names_resolvable():
    for name in ALGORITHM_NAMES + MODERN_NAMES:
        assert make_algorithm(name).name == name


def test_every_algorithm_defines_crash_reset(context):
    """Every algorithm's node manager defines ``crash_reset`` itself (a
    deliberate no-op is fine — it has to be a stated decision).  NO_DC
    once inherited a base-class no-op; the method is abstract now, so
    building each manager is the check."""
    for name in ALGORITHM_NAMES + EXTENSION_NAMES + MODERN_NAMES:
        manager = _bound(name).make_node_manager(0, context)
        assert (
            type(manager).crash_reset is not NodeCCManager.crash_reset
        ), f"{name}: crash_reset inherited from NodeCCManager"


def test_manager_without_crash_reset_cannot_be_built(context):
    """A manager that implements the rest of the interface but never
    says what a crash erases is refused when it is built."""

    class ForgetfulManager(NodeCCManager):
        def read_request(self, cohort, page):
            raise NotImplementedError

        def write_request(self, cohort, page):
            raise NotImplementedError

        def prepare(self, cohort):
            return True

        def commit(self, cohort):
            return []

        def abort(self, cohort):
            pass

    with pytest.raises(TypeError, match="crash_reset"):
        ForgetfulManager(0, context)


def test_register_custom_algorithm():
    class Custom(NoDataContention):
        name = "custom-test-algo"

    register_algorithm("custom-test-algo", Custom)
    assert isinstance(make_algorithm("custom-test-algo"), Custom)
    with pytest.raises(ValueError, match="already registered"):
        register_algorithm("custom-test-algo", Custom)
