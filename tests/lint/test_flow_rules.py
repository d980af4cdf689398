"""Seeded fixtures for the flow-sensitive checks.

Each check gets (a) a fixture that must fire *exactly once*, (b) a
near-miss that must stay clean, and (c) the uniformity checks: inline
suppression, ``--select``, and the parallel file pass treat flow rules
exactly like every other rule.  The arithmetic-time checks belong to
the ``float-time-equality`` project rule and the draw-escape checks to
``stream-registry``; the fixture classes keep their original names.
"""

import textwrap

import pytest

from repro.lint.engine import lint_paths, lint_source
from repro.lint.registry import get_rule

from tests.lint.test_project import build_package

SIM_PATH = "repro/sim/fixture.py"
CC_PATH = "repro/cc/fixture.py"


def rule_hits(source, path, rule_id):
    source = textwrap.dedent(source)
    return [
        v
        for v in lint_source(source, path)
        if v.rule_id == rule_id and not v.suppressed
    ]


def project_hits(tmp_path, rule_id, files):
    root = build_package(tmp_path, files)
    report = lint_paths(
        [root],
        rules=[],
        project_rules=[get_rule(rule_id)],
    )
    return [
        v
        for v in report.violations
        if v.rule_id == rule_id and not v.suppressed
    ]


# ======================================================================
# waitable-escape (file rule)
# ======================================================================


class TestWaitableEscape:
    RULE = "waitable-escape"

    def test_fires_exactly_once_on_leaky_branch(self):
        snippet = """
        def proc(env, fast):
            t = env.timeout(1.0)
            if fast:
                yield t
        """
        hits = rule_hits(snippet, SIM_PATH, self.RULE)
        assert len(hits) == 1
        assert hits[0].line == 3  # the creating assignment

    def test_near_miss_every_path_consumes(self):
        snippet = """
        def proc(env, fast):
            t = env.timeout(1.0)
            if fast:
                yield t
            else:
                t.cancel()
        """
        assert not rule_hits(snippet, SIM_PATH, self.RULE)

    def test_never_consumed_fires(self):
        snippet = """
        def proc(env):
            done = env.event()
            return None
        """
        assert len(rule_hits(snippet, SIM_PATH, self.RULE)) == 1

    def test_handed_off_waitables_are_exempt(self):
        # Escaping uses (returns, call arguments, container stores)
        # leave the waitable's fate to the receiver.
        for snippet in (
            "def proc(env):\n"
            "    done = env.event()\n"
            "    return done\n",
            "def proc(env, tm):\n"
            "    done = env.event()\n"
            "    tm.watch(done)\n",
            "def proc(env, table, tid):\n"
            "    done = env.event()\n"
            "    table[tid] = done\n",
        ):
            assert not rule_hits(snippet, SIM_PATH, self.RULE)

    def test_suppression(self):
        snippet = (
            "def proc(env):\n"
            "    t = env.timeout(1.0)"
            "  # simlint: ignore[waitable-escape]\n"
            "    return None\n"
        )
        violations = lint_source(snippet, SIM_PATH)
        mine = [v for v in violations if v.rule_id == self.RULE]
        assert mine and all(v.suppressed for v in mine)


# ======================================================================
# lock-path-discipline (file rule)
# ======================================================================


class TestLockPathDiscipline:
    RULE = "lock-path-discipline"

    def test_fires_exactly_once_on_unchecked_path(self):
        snippet = """
        def grab(self, lock_table, txn):
            granted = lock_table.acquire(txn)
            if txn.priority:
                return granted
            return None
        """
        hits = rule_hits(snippet, CC_PATH, self.RULE)
        assert len(hits) == 1
        assert hits[0].line == 3

    def test_near_miss_every_path_inspects_the_grant(self):
        snippet = """
        def grab(self, lock_table, txn):
            granted, request = lock_table.acquire(txn)
            if granted:
                return request
            self.block(request)
            return None
        """
        assert not rule_hits(snippet, CC_PATH, self.RULE)

    def test_discarded_result_fires(self):
        snippet = """
        def grab(self, lock_table, txn):
            lock_table.acquire(txn)
            return True
        """
        assert len(rule_hits(snippet, CC_PATH, self.RULE)) == 1

    def test_exception_edge_escaping_the_check_fires(self):
        snippet = """
        def grab(self, lock_table, txn):
            try:
                granted = lock_table.acquire(txn)
                self.audit(granted)
            finally:
                self.done()
        """
        # An exception between acquire and audit leaves via the
        # finally without the grant ever being inspected.
        assert len(rule_hits(snippet, CC_PATH, self.RULE)) == 1

    def test_consuming_in_the_finally_is_clean(self):
        snippet = """
        def grab(self, lock_table, txn):
            try:
                granted = lock_table.acquire(txn)
            finally:
                self.settle(granted)
        """
        assert not rule_hits(snippet, CC_PATH, self.RULE)

    def test_out_of_scope_path_is_ignored(self):
        snippet = """
        def grab(lock_table, txn):
            lock_table.acquire(txn)
        """
        assert not rule_hits(snippet, SIM_PATH, self.RULE)


# ======================================================================
# float-time-equality (project rule): arithmetic-derived times
# ======================================================================


class TestTimeTaint:
    RULE = "float-time-equality"

    def test_fires_exactly_once_on_derived_equality(self, tmp_path):
        hits = project_hits(
            tmp_path,
            self.RULE,
            {
                "repro/sim/sched.py": """
                def due(env, delay):
                    deadline = env.now + delay
                    return deadline == env.now
                """
            },
        )
        assert len(hits) == 1
        assert hits[0].line == 4  # the comparison

    def test_fires_across_a_call_boundary(self, tmp_path):
        hits = project_hits(
            tmp_path,
            self.RULE,
            {
                "repro/sim/sched.py": """
                def _advance(now, step):
                    return now + step

                def poll(env, step):
                    target = _advance(env.now, step)
                    return target == env.now
                """
            },
        )
        assert len(hits) == 1
        assert hits[0].line == 7  # the comparison in poll()

    def test_fires_on_dict_key(self, tmp_path):
        hits = project_hits(
            tmp_path,
            self.RULE,
            {
                "repro/sim/sched.py": """
                def bucket(env, width, table, item):
                    key = env.now + width
                    table[key] = item
                """
            },
        )
        assert len(hits) == 1

    def test_near_miss_pure_copy_is_clean(self, tmp_path):
        hits = project_hits(
            tmp_path,
            self.RULE,
            {
                "repro/sim/sched.py": """
                def snapshot(env, table, item):
                    stamp = env.now
                    table[stamp] = item
                    return stamp
                """
            },
        )
        assert not hits


# ======================================================================
# stream-registry (project rule): draws escaping their context
# ======================================================================


class TestDrawEscape:
    RULE = "stream-registry"

    def test_fires_exactly_once_on_posted_draw(self, tmp_path):
        hits = project_hits(
            tmp_path,
            self.RULE,
            {
                "repro/core/traffic.py": """
                def send(network, streams, node, handler):
                    delay = streams.exponential("ext-think", 1.0)
                    network.post(node, node, handler, delay)
                """
            },
        )
        assert len(hits) == 1
        assert hits[0].line == 4

    def test_fires_on_set_storage(self, tmp_path):
        hits = project_hits(
            tmp_path,
            self.RULE,
            {
                "repro/core/traffic.py": """
                def pick(streams, chosen):
                    page = streams.uniform_int("page", 1, 100)
                    chosen.add(page)
                """
            },
        )
        assert len(hits) == 1

    def test_near_miss_draw_consumed_locally(self, tmp_path):
        hits = project_hits(
            tmp_path,
            self.RULE,
            {
                "repro/core/traffic.py": """
                def send(network, streams, node, handler, wait):
                    delay = streams.exponential("ext-think", 1.0)
                    wait(delay)
                    network.post(node, node, handler, "payload")
                """
            },
        )
        assert not hits


# ======================================================================
# Uniformity: suppression, --select, parallel file pass
# ======================================================================


class TestUniformity:
    def test_select_scopes_flow_rules_like_any_other(self):
        from repro.lint.cli import _select_rules

        file_rules, project_rules = _select_rules(
            "waitable-escape,float-time-equality", None
        )
        assert [r.rule_id for r in file_rules] == ["waitable-escape"]
        assert [r.rule_id for r in project_rules] == [
            "float-time-equality"
        ]

    def test_ignore_glob_drops_flow_rules(self):
        from repro.lint.cli import _select_rules

        file_rules, project_rules = _select_rules(
            None, "float-time-equality,stream-*"
        )
        ids = [r.rule_id for r in file_rules] + [
            r.rule_id for r in project_rules
        ]
        assert "float-time-equality" not in ids
        assert "stream-registry" not in ids
        assert "waitable-escape" in ids  # untouched

    def test_flow_findings_survive_the_parallel_pass(self, tmp_path):
        root = build_package(
            tmp_path,
            {
                "repro/sim/leaky.py": """
                def proc(env):
                    t = env.timeout(1.0)
                    return None
                """
            },
        )
        report = lint_paths([root], jobs=2)
        assert [
            v.rule_id
            for v in report.active
            if v.rule_id == "waitable-escape"
        ] == ["waitable-escape"]

    def test_flow_rules_declare_engine_hash_modules(self):
        # Only cached (file) rules need the engine in their signature:
        # project findings are recomputed on every run.
        for rule_id in ("waitable-escape", "lock-path-discipline"):
            rule = get_rule(rule_id)
            assert rule.extra_hash_modules == (
                "repro.lint.flow.cfg",
                "repro.lint.flow.dataflow",
                "repro.lint.flow.taint",
            )
            assert rule.severity == "error"

    def test_engine_edit_changes_rule_source_hash(self, monkeypatch):
        # The composite hash must cover the engine modules: hashing
        # the same rule with a different digest for cfg.py must change
        # the signature the file cache keys on.
        import repro.lint.registry as registry

        rule = get_rule("waitable-escape")
        before = rule.source_hash
        original = registry.module_source_hash

        def tweaked(module_file):
            digest = original(module_file)
            if module_file.endswith("flow/cfg.py"):
                return "0" * 16
            return digest

        monkeypatch.setattr(
            registry, "module_source_hash", tweaked
        )
        assert rule.source_hash != before
