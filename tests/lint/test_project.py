"""Whole-program layer: symbol table, call resolution, project rules.

Fixture packages are built under ``tmp_path`` with a real ``repro/``
package directory so the project rules' path scoping applies to them
exactly as it does to the shipped tree, and so
:func:`~repro.lint.project.module_name_for` derives the same dotted
module names.
"""

import ast
import textwrap

import pytest

from repro.lint.engine import discover_files, lint_paths
from repro.lint.project import (
    CCInterfaceRule,
    MessageHandlerRule,
    ProcessProtocolRule,
    ProjectModel,
    StreamRegistryRule,
    module_name_for,
)


def build_package(tmp_path, files):
    """Write ``files`` (relative path -> source) under a fixture root,
    auto-creating ``__init__.py`` so every directory is a package."""
    root = tmp_path / "pkg"
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), "utf-8")
        parent = path.parent
        while parent != root:  # the root itself stays a plain dir
            marker = parent / "__init__.py"
            if not marker.exists():
                marker.write_text("", "utf-8")
            parent = parent.parent
    return root


def model_of(tmp_path, files):
    root = build_package(tmp_path, files)
    parsed = []
    for path in discover_files([root]):
        source = path.read_text("utf-8")
        parsed.append((path, ast.parse(source), source))
    return ProjectModel.build(parsed)


def run_rule(tmp_path, rule, files):
    root = build_package(tmp_path, files)
    report = lint_paths([root], rules=[], project_rules=[rule])
    return report.violations


# ======================================================================
# Symbol table & call resolution
# ======================================================================


class TestSymbolTable:
    def test_module_names_follow_package_layout(self, tmp_path):
        model = model_of(
            tmp_path,
            {
                "repro/core/network.py": "x = 1\n",
                "repro/__init__.py": "",
            },
        )
        assert "repro.core.network" in model.modules
        assert "repro.core" in model.modules  # the __init__.py
        assert "repro" in model.modules

    def test_module_name_for_stops_outside_packages(self, tmp_path):
        root = build_package(
            tmp_path, {"repro/sim/streams.py": "x = 1\n"}
        )
        path = root / "repro" / "sim" / "streams.py"
        assert module_name_for(path) == "repro.sim.streams"

    def test_classes_methods_and_cross_module_bases(self, tmp_path):
        model = model_of(
            tmp_path,
            {
                "repro/base.py": """
                    class Base:
                        def ping(self):
                            return 1
                """,
                "repro/leaf.py": """
                    from repro.base import Base

                    class Leaf(Base):
                        def pong(self):
                            self.state = {}
                            return 2
                """,
            },
        )
        leaf = model.classes["repro.leaf.Leaf"]
        assert leaf.bases == ("Base",)
        base = model.base_classes(leaf)
        assert [c.qualname for c in base] == ["repro.base.Base"]
        # Inherited method resolves through the chain.
        ping = model.resolve_method(leaf, "ping")
        assert ping is not None
        assert ping.qualname == "repro.base.Base.ping"
        # Instance attributes are collected from method bodies.
        assert "state" in leaf.instance_attrs

    def test_mro_chain_survives_base_cycles(self, tmp_path):
        model = model_of(
            tmp_path,
            {
                "repro/cycle.py": """
                    class A(B):
                        pass

                    class B(A):
                        pass
                """,
            },
        )
        a = model.classes["repro.cycle.A"]
        chain = model.mro_chain(a)  # must terminate
        assert {c.name for c in chain} == {"A", "B"}

    def test_call_graph_resolves_names_and_self_methods(
        self, tmp_path
    ):
        """``resolve_call`` names bare-name and ``self.method`` callees
        and stays silent on receivers it cannot type."""
        model = model_of(
            tmp_path,
            {
                "repro/calls.py": """
                    def helper():
                        return 1

                    class Worker:
                        def run(self):
                            helper()
                            self.step()
                            mystery.call()

                        def step(self):
                            pass
                """,
            },
        )
        run = model.functions["repro.calls.Worker.run"]
        resolved = [
            model.resolve_call(run, node)
            for node in ast.walk(run.node)
            if isinstance(node, ast.Call)
        ]
        assert sorted(
            fn.qualname for fn in resolved if fn is not None
        ) == ["repro.calls.Worker.step", "repro.calls.helper"]
        assert resolved.count(None) == 1  # mystery.call()

    def test_stream_registry_extracted_statically(self, tmp_path):
        model = model_of(
            tmp_path,
            {
                "repro/sim/streams.py": """
                    def register_stream(name, description=""):
                        return name

                    register_stream("page-count", "pages per txn")
                    register_stream("think-{terminal}")
                """,
            },
        )
        assert model.stream_registry() == [
            "page-count",
            "think-{terminal}",
        ]


# ======================================================================
# stream-registry
# ======================================================================

_STREAMS_MODULE = """
    def register_stream(name, description=""):
        return name

    register_stream("page-count")
    register_stream("think-{terminal}")
"""

_ROUTER_STREAMS_MODULE = """
    def register_stream(name, description=""):
        return name

    register_stream("page-skew")
    register_stream("router-explore")
    register_stream("router-choice")
"""


class TestStreamRegistry:
    def test_misspelled_stream_name_is_one_error(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def setup(streams):
                        return streams.get("page-cuont")
                """,
            },
        )
        assert len(violations) == 1
        (violation,) = violations
        assert violation.rule_id == "stream-registry"
        assert violation.severity == "error"
        assert "page-cuont" in violation.message

    def test_registered_exact_and_prefixed_draws_pass(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def setup(streams, terminal):
                        a = streams.get("page-count")
                        b = streams.get(f"think-{terminal}")
                        return a, b
                """,
            },
        )
        assert violations == []

    def test_typoed_fstring_head_is_flagged(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def setup(streams, terminal):
                        return streams.get(f"thinkk-{terminal}")
                """,
            },
        )
        assert [v.rule_id for v in violations] == ["stream-registry"]

    def test_misspelled_fresh_stream_is_one_error(self, tmp_path):
        """``fresh`` builds a stream from its name just as ``get``
        does, so a typo there forks a sequence all the same."""
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def think(streams, t):
                        return streams.fresh(f"thnk-{t}")
                """,
            },
        )
        assert len(violations) == 1
        (violation,) = violations
        assert violation.rule_id == "stream-registry"
        assert "thnk-" in violation.message

    def test_registered_fresh_stream_passes(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def think(streams, t):
                        return streams.fresh(f"think-{t}")
                """,
            },
        )
        assert violations == []

    def test_unregistered_router_stream_is_one_error(self, tmp_path):
        """The ``router-*`` family is a set of discrete registered
        names, not a pattern: a draw from an uninvented sibling
        (``router-tiebreak``) is the seeded violation."""
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _ROUTER_STREAMS_MODULE,
                "repro/router/classifier.py": """
                    def choose(streams):
                        return streams.get("router-tiebreak")
                """,
            },
        )
        assert len(violations) == 1
        (violation,) = violations
        assert violation.rule_id == "stream-registry"
        assert "router-tiebreak" in violation.message
        assert violation.path.endswith("repro/router/classifier.py")

    def test_registered_router_streams_pass(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _ROUTER_STREAMS_MODULE,
                "repro/router/classifier.py": """
                    def choose(streams):
                        coin = streams.get("router-explore")
                        pick = streams.get("router-choice")
                        return coin, pick
                """,
            },
        )
        assert violations == []

    def test_dynamic_names_are_never_flagged(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def setup(streams, name):
                        return streams.get(name)
                """,
            },
        )
        assert violations == []

    def test_no_registry_in_model_means_no_findings(self, tmp_path):
        violations = run_rule(
            tmp_path,
            StreamRegistryRule(),
            {
                "repro/core/workload.py": """
                    def setup(streams):
                        return streams.get("anything-goes")
                """,
            },
        )
        assert violations == []


# ======================================================================
# message-handler-protocol
# ======================================================================


class TestMessageHandler:
    def test_bad_post_handler_is_one_error(self, tmp_path):
        violations = run_rule(
            tmp_path,
            MessageHandlerRule(),
            {
                "repro/core/manager.py": """
                    class Manager:
                        def send(self, network):
                            network.post(0, 1, self._deliver, "msg")

                        def _deliver(self, payload, extra):
                            pass
                """,
            },
        )
        assert len(violations) == 1
        (violation,) = violations
        assert violation.rule_id == "message-handler-protocol"
        assert violation.severity == "error"
        assert "_deliver" in violation.message

    def test_unary_method_lambda_and_none_pass(self, tmp_path):
        violations = run_rule(
            tmp_path,
            MessageHandlerRule(),
            {
                "repro/core/manager.py": """
                    class Manager:
                        def send(self, network):
                            network.post(0, 1, self._deliver, "m")
                            network.post(
                                0, 1, lambda payload: None, "m",
                                on_drop=None,
                            )

                        def _deliver(self, payload):
                            pass
                """,
            },
        )
        assert violations == []

    def test_inherited_handler_resolves_through_chain(self, tmp_path):
        violations = run_rule(
            tmp_path,
            MessageHandlerRule(),
            {
                "repro/core/base.py": """
                    class Base:
                        def _deliver(self, payload):
                            pass
                """,
                "repro/core/manager.py": """
                    from repro.core.base import Base

                    class Manager(Base):
                        def send(self, network):
                            network.post(0, 1, self._deliver, "m")
                """,
            },
        )
        assert violations == []

    def test_unresolvable_self_handler_is_flagged(self, tmp_path):
        violations = run_rule(
            tmp_path,
            MessageHandlerRule(),
            {
                "repro/core/manager.py": """
                    class Manager:
                        def send(self, network):
                            network.post(0, 1, self._nope, "m")
                """,
            },
        )
        assert [v.rule_id for v in violations] == [
            "message-handler-protocol"
        ]
        assert "_nope" in violations[0].message

    def test_instance_attribute_handler_is_trusted(self, tmp_path):
        violations = run_rule(
            tmp_path,
            MessageHandlerRule(),
            {
                "repro/core/manager.py": """
                    class Manager:
                        def __init__(self, callback):
                            self._callback = callback

                        def send(self, network):
                            network.post(0, 1, self._callback, "m")
                """,
            },
        )
        assert violations == []

    def test_local_function_handler_arity_checked(self, tmp_path):
        violations = run_rule(
            tmp_path,
            MessageHandlerRule(),
            {
                "repro/cc/locks.py": """
                    class Manager:
                        def send(self, network):
                            def deliver(payload, who):
                                pass

                            network.post(0, 1, deliver, "m")
                """,
            },
        )
        assert [v.rule_id for v in violations] == [
            "message-handler-protocol"
        ]

    def test_bad_on_drop_lambda_is_flagged(self, tmp_path):
        violations = run_rule(
            tmp_path,
            MessageHandlerRule(),
            {
                "repro/core/manager.py": """
                    class Manager:
                        def send(self, network):
                            network.post(
                                0, 1, lambda p: None, "m",
                                on_drop=lambda: None,
                            )
                """,
            },
        )
        assert len(violations) == 1
        assert "on_drop" in violations[0].message

    def test_non_network_post_receivers_ignored(self, tmp_path):
        violations = run_rule(
            tmp_path,
            MessageHandlerRule(),
            {
                "repro/core/manager.py": """
                    class Manager:
                        def send(self, queue):
                            queue.post(0, 1, self._nope, "m")
                """,
            },
        )
        assert violations == []


# ======================================================================
# cc-interface
# ======================================================================

_CC_BASE = """
    from abc import abstractmethod

    class NodeCCManager:
        @abstractmethod
        def read_request(self, cohort, page):
            ...

        @abstractmethod
        def commit(self, cohort):
            ...

        def crash_reset(self):
            pass
"""


class TestCCInterface:
    def test_missing_crash_reset_is_one_error(self, tmp_path):
        violations = run_rule(
            tmp_path,
            CCInterfaceRule(),
            {
                "repro/cc/base.py": _CC_BASE,
                "repro/cc/algo.py": """
                    from repro.cc.base import NodeCCManager

                    class ShinyManager(NodeCCManager):
                        def read_request(self, cohort, page):
                            return 1

                        def commit(self, cohort):
                            return ()
                """,
            },
        )
        assert len(violations) == 1
        (violation,) = violations
        assert violation.rule_id == "cc-interface"
        assert violation.severity == "error"
        assert "crash_reset" in violation.message
        assert violation.path.endswith("repro/cc/algo.py")

    def test_full_surface_passes(self, tmp_path):
        violations = run_rule(
            tmp_path,
            CCInterfaceRule(),
            {
                "repro/cc/base.py": _CC_BASE,
                "repro/cc/algo.py": """
                    from repro.cc.base import NodeCCManager

                    class ShinyManager(NodeCCManager):
                        def read_request(self, cohort, page):
                            return 1

                        def commit(self, cohort):
                            return ()

                        def crash_reset(self):
                            pass
                """,
            },
        )
        assert violations == []

    def test_only_leaves_are_checked(self, tmp_path):
        violations = run_rule(
            tmp_path,
            CCInterfaceRule(),
            {
                "repro/cc/base.py": _CC_BASE,
                "repro/cc/locking.py": """
                    from repro.cc.base import NodeCCManager

                    class LockingBase(NodeCCManager):
                        def read_request(self, cohort, page):
                            return 1

                        def crash_reset(self):
                            pass
                """,
                "repro/cc/leaf.py": """
                    from repro.cc.locking import LockingBase

                    class LeafManager(LockingBase):
                        def commit(self, cohort):
                            return ()
                """,
            },
        )
        # The intermediate LockingBase misses commit but is not a
        # leaf; the leaf completes the surface through the chain.
        assert violations == []

    def test_abstract_subclass_is_skipped(self, tmp_path):
        violations = run_rule(
            tmp_path,
            CCInterfaceRule(),
            {
                "repro/cc/base.py": _CC_BASE,
                "repro/cc/partial.py": """
                    from abc import abstractmethod
                    from repro.cc.base import NodeCCManager

                    class StillAbstract(NodeCCManager):
                        @abstractmethod
                        def validate(self, cohort):
                            ...
                """,
            },
        )
        assert violations == []

    def test_router_package_manager_missing_crash_reset(
        self, tmp_path
    ):
        """v2: CC classes living in ``repro/router/`` are covered too —
        a composite manager without an explicit crash_reset is the
        seeded violation for the extended include."""
        violations = run_rule(
            tmp_path,
            CCInterfaceRule(),
            {
                "repro/cc/base.py": _CC_BASE,
                "repro/router/dispatch.py": """
                    from repro.cc.base import NodeCCManager

                    class RoutedManager(NodeCCManager):
                        def read_request(self, cohort, page):
                            return 1

                        def commit(self, cohort):
                            return ()
                """,
            },
        )
        assert len(violations) == 1
        (violation,) = violations
        assert violation.rule_id == "cc-interface"
        assert "crash_reset" in violation.message
        assert violation.path.endswith("repro/router/dispatch.py")

    def test_router_package_full_surface_passes(self, tmp_path):
        violations = run_rule(
            tmp_path,
            CCInterfaceRule(),
            {
                "repro/cc/base.py": _CC_BASE,
                "repro/router/dispatch.py": """
                    from repro.cc.base import NodeCCManager

                    class RoutedManager(NodeCCManager):
                        def read_request(self, cohort, page):
                            return 1

                        def commit(self, cohort):
                            return ()

                        def crash_reset(self):
                            pass
                """,
            },
        )
        assert violations == []


# ======================================================================
# process-protocol: yields resolved through the model
# ======================================================================


class TestWaitableLeak:
    def test_non_waitable_yield_is_one_error(self, tmp_path):
        violations = run_rule(
            tmp_path,
            ProcessProtocolRule(),
            {
                "repro/core/server.py": """
                    class Server:
                        def body(self):
                            yield self.env.timeout(1.0)
                            yield self._service_time()

                        def _service_time(self):
                            return 4.2
                """,
            },
        )
        assert len(violations) == 1
        (violation,) = violations
        assert violation.rule_id == "process-protocol"
        assert violation.severity == "error"
        assert "_service_time" in violation.message

    def test_yielding_generator_call_is_flagged(self, tmp_path):
        violations = run_rule(
            tmp_path,
            ProcessProtocolRule(),
            {
                "repro/core/server.py": """
                    class Server:
                        def body(self):
                            yield self.env.timeout(1.0)
                            yield self._sub_protocol()

                        def _sub_protocol(self):
                            yield self.env.timeout(2.0)
                """,
            },
        )
        assert len(violations) == 1
        assert "yield from" in violations[0].message

    def test_yield_from_and_unresolvable_calls_pass(self, tmp_path):
        violations = run_rule(
            tmp_path,
            ProcessProtocolRule(),
            {
                "repro/core/server.py": """
                    class Server:
                        def body(self, mailbox):
                            yield self.env.timeout(1.0)
                            yield from self._sub_protocol()
                            yield mailbox.get()

                        def _sub_protocol(self):
                            yield self.env.timeout(2.0)
                """,
            },
        )
        assert violations == []

    def test_plain_generators_are_not_processes(self, tmp_path):
        violations = run_rule(
            tmp_path,
            ProcessProtocolRule(),
            {
                "repro/core/util.py": """
                    def chunks(items):
                        for item in items:
                            yield transform(item)

                    def transform(item):
                        return item * 2
                """,
            },
        )
        assert violations == []

    def test_waitable_returning_helper_passes(self, tmp_path):
        violations = run_rule(
            tmp_path,
            ProcessProtocolRule(),
            {
                "repro/core/server.py": """
                    class Server:
                        def body(self):
                            yield self.env.timeout(1.0)
                            yield self._request()

                        def _request(self):
                            event = self.env.event()
                            return event
                """,
            },
        )
        assert violations == []


# ======================================================================
# Engine integration
# ======================================================================


class TestEngineIntegration:
    def test_default_lint_paths_runs_project_rules(self, tmp_path):
        root = build_package(
            tmp_path,
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def setup(streams):
                        return streams.get("page-cuont")
                """,
            },
        )
        report = lint_paths([root])  # rules=None: everything runs
        assert "stream-registry" in {
            v.rule_id for v in report.violations
        }
        assert not report.ok

    def test_explicit_file_rules_skip_project_pass(self, tmp_path):
        root = build_package(
            tmp_path,
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": """
                    def setup(streams):
                        return streams.get("page-cuont")
                """,
            },
        )
        report = lint_paths([root], rules=[])
        assert report.violations == []

    def test_inline_suppression_waives_project_finding(
        self, tmp_path
    ):
        root = build_package(
            tmp_path,
            {
                "repro/sim/streams.py": _STREAMS_MODULE,
                "repro/core/workload.py": (
                    "def setup(streams):\n"
                    "    return streams.get('page-cuont')"
                    "  # simlint: ignore[stream-registry]\n"
                ),
            },
        )
        report = lint_paths([root])
        assert report.ok
        assert [v.rule_id for v in report.suppressed] == [
            "stream-registry"
        ]


@pytest.mark.parametrize(
    "rule_id",
    [
        "stream-registry",
        "message-handler-protocol",
        "cc-interface",
        "process-protocol",
    ],
)
def test_project_rules_are_registered(rule_id):
    from repro.lint.registry import all_project_rules

    assert rule_id in {r.rule_id for r in all_project_rules()}
