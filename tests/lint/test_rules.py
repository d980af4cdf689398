"""Fixture tests for every shipped simlint rule.

Each rule gets three kinds of fixture: snippets that must flag,
snippets that must not, and a suppression-comment check.  Fixtures are
linted from strings with scoped fake paths (rule scoping is by path
fragment), so nothing here touches the filesystem; ``lint_source``
runs the project rule over a one-module model of the snippet.  The
fixture classes keep the names of the rules that were merged into
``unordered-iteration`` and ``stream-registry``.
"""

import textwrap

import pytest

from repro.lint.engine import lint_source
from repro.lint.registry import all_project_rules, all_rules, get_rule

#: Paths inside / outside each scoped rule's domain.
SIM_PATH = "repro/sim/fixture.py"
CC_PATH = "repro/cc/fixture.py"
CORE_PATH = "repro/core/fixture.py"
NEUTRAL_PATH = "somepkg/fixture.py"


def rule_hits(source, path, rule_id):
    """Ids of unsuppressed findings of ``rule_id`` in the snippet."""
    source = textwrap.dedent(source)
    return [
        v
        for v in lint_source(source, path)
        if v.rule_id == rule_id and not v.suppressed
    ]


SIM_CORE_CC = ("repro/sim/", "repro/core/", "repro/cc/")


def test_rule_set_is_one_rule_per_property():
    """Every shipped rule with its kind, severity, and path scope."""
    table = [
        (rule.rule_id, kind, rule.severity, rule.include, rule.exclude)
        for kind, rules in (
            ("file", all_rules()),
            ("project", all_project_rules()),
        )
        for rule in rules
    ]
    assert table == [
        (
            "float-time-equality", "file", "error",
            SIM_CORE_CC + ("repro/router/",), (),
        ),
        ("id-keyed-container", "file", "error", (), ()),
        (
            "unordered-iteration", "file", "error",
            ("repro/cc/", "repro/sim/", "repro/core/"), (),
        ),
        ("unseeded-global-random", "file", "error", SIM_CORE_CC, ()),
        (
            "wall-clock", "file", "error", (),
            ("experiments/", "benchmarks/"),
        ),
        ("stream-registry", "project", "error", ("repro/",), ()),
    ]


class TestIdKeyedContainer:
    RULE = "id-keyed-container"

    @pytest.mark.parametrize(
        "snippet",
        [
            "jobs[id(event)] = job\n",
            "job = jobs.pop(id(event), None)\n",
            "job = jobs.get(id(event))\n",
            "del jobs[id(event)]\n",
            "seen.add(id(event))\n",
            "table = {id(event): job}\n",
            "found = id(event) in jobs\n",
        ],
    )
    def test_flags(self, snippet):
        assert rule_hits(snippet, NEUTRAL_PATH, self.RULE)

    @pytest.mark.parametrize(
        "snippet",
        [
            "jobs[event] = job\n",
            "print(id(event))\n",
            "label = f'event {id(event)}'\n",
            "jobs[event.key] = job\n",
        ],
    )
    def test_does_not_flag(self, snippet):
        assert not rule_hits(snippet, NEUTRAL_PATH, self.RULE)

    def test_suppression(self):
        snippet = (
            "jobs[id(event)] = job"
            "  # simlint: ignore[id-keyed-container]\n"
        )
        violations = lint_source(snippet, NEUTRAL_PATH)
        assert [v for v in violations if v.suppressed]
        assert not [v for v in violations if not v.suppressed]


class TestUnseededGlobalRandom:
    RULE = "unseeded-global-random"

    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nx = random.random()\n",
            "import random\nx = random.randint(0, 7)\n",
            "import random\nrandom.shuffle(items)\n",
            "import random\nrandom.seed(42)\n",
            "import numpy as np\nx = np.random.uniform(0, 1)\n",
            "import numpy\nx = numpy.random.choice(items)\n",
            "from random import randint\nx = randint(0, 7)\n",
            "from random import uniform as u\nx = u(0.0, 1.0)\n",
        ],
    )
    def test_flags_in_sim_scope(self, snippet):
        assert rule_hits(snippet, SIM_PATH, self.RULE)

    @pytest.mark.parametrize(
        "snippet",
        [
            # Injected streams are the sanctioned pattern.
            "import random\nstream = random.Random(42)\n"
            "x = stream.random()\n",
            "x = self._stream.uniform(lo, hi)\n",
            "from random import Random\nstream = Random(7)\n",
        ],
    )
    def test_does_not_flag_streams(self, snippet):
        assert not rule_hits(snippet, SIM_PATH, self.RULE)

    def test_out_of_scope_path_not_flagged(self):
        snippet = "import random\nx = random.random()\n"
        assert not rule_hits(snippet, NEUTRAL_PATH, self.RULE)

    def test_suppression(self):
        snippet = (
            "import random\n"
            "x = random.random()"
            "  # simlint: ignore[unseeded-global-random]\n"
        )
        violations = lint_source(snippet, SIM_PATH)
        assert [v for v in violations if v.suppressed]
        assert not [v for v in violations if not v.suppressed]


class TestWallClock:
    RULE = "wall-clock"

    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nstarted = time.time()\n",
            "import time\nstarted = time.monotonic()\n",
            "import time\nstarted = time.perf_counter()\n",
            "from datetime import datetime\nnow = datetime.now()\n",
            "import datetime\nnow = datetime.datetime.now()\n",
            "from datetime import date\ntoday = date.today()\n",
            "from time import time\nstarted = time()\n",
        ],
    )
    def test_flags(self, snippet):
        assert rule_hits(snippet, SIM_PATH, self.RULE)

    @pytest.mark.parametrize(
        "snippet",
        [
            "now = env.now\n",
            "deadline = self.env.now + delay\n",
            "import time\ntime.sleep(0)\n",
        ],
    )
    def test_does_not_flag(self, snippet):
        assert not rule_hits(snippet, SIM_PATH, self.RULE)

    @pytest.mark.parametrize(
        "path",
        [
            "repro/experiments/cli.py",
            "benchmarks/bench_kernel.py",
        ],
    )
    def test_timing_code_exempt(self, path):
        snippet = "import time\nstarted = time.time()\n"
        assert not rule_hits(snippet, path, self.RULE)

    def test_suppression(self):
        snippet = (
            "import time\n"
            "started = time.time()  # simlint: ignore[wall-clock]\n"
        )
        violations = lint_source(snippet, SIM_PATH)
        assert [v for v in violations if v.suppressed]
        assert not [v for v in violations if not v.suppressed]


class TestUnorderedSetIteration:
    RULE = "unordered-iteration"

    @pytest.mark.parametrize(
        "snippet",
        [
            "for page in set(pages):\n    release(page)\n",
            "for page in held.pop(txn, set()):\n    release(page)\n",
            "for page in held.get(txn, set()):\n    release(page)\n",
            "for item in {1, 2, 3}:\n    use(item)\n",
            "order = [use(x) for x in frozenset(items)]\n",
            """
            def release_all(txn):
                pages = set()
                pages.add(txn)
                for page in pages:
                    release(page)
            """,
            """
            def victims(cycle):
                doomed = {t for t in cycle}
                return [abort(t) for t in doomed]
            """,
        ],
    )
    def test_flags_in_cc_scope(self, snippet):
        hits = rule_hits(snippet, CC_PATH, self.RULE)
        assert hits and all(v.severity == "error" for v in hits)

    @pytest.mark.parametrize(
        "snippet",
        [
            "for page in sorted(set(pages)):\n    release(page)\n",
            "for page in sorted(held.pop(txn, set())):\n"
            "    release(page)\n",
            "for page in pages_list:\n    release(page)\n",
            "if page in pages:\n    release(page)\n",  # membership only
            """
            def release_all(txn):
                pages = list(queue)
                for page in pages:
                    release(page)
            """,
        ],
    )
    def test_does_not_flag(self, snippet):
        assert not rule_hits(snippet, CC_PATH, self.RULE)

    def test_out_of_scope_path_not_flagged(self):
        snippet = "for item in {1, 2}:\n    use(item)\n"
        assert not rule_hits(snippet, NEUTRAL_PATH, self.RULE)

    def test_suppression(self):
        snippet = (
            "for page in set(pages):"
            "  # simlint: ignore[unordered-iteration]\n"
            "    release(page)\n"
        )
        violations = lint_source(snippet, CC_PATH)
        assert [v for v in violations if v.suppressed]
        assert not [v for v in violations if not v.suppressed]


class TestUnorderedDictIteration:
    RULE = "unordered-iteration"

    @pytest.mark.parametrize(
        "snippet",
        [
            "for txn, mode in holders.items():\n    wound(txn)\n",
            "for txn in waiting.keys():\n    wake(txn)\n",
            "for entry in table.values():\n    grant(entry)\n",
            "order = [wake(t) for t in holders.items()]\n",
            "for txn in held.keys() - released:\n    drop(txn)\n",
            "for page in {1: 'a'}:\n    release(page)\n",
            """
            def release_all(txn):
                held = {}
                held[txn] = 1
                for page in held:
                    release(page)
            """,
            """
            def victims(cycle):
                doomed = {t: 1 for t in cycle}
                return [abort(t) for t in doomed]
            """,
        ],
    )
    def test_flags_in_cc_scope(self, snippet):
        hits = rule_hits(snippet, CC_PATH, self.RULE)
        assert hits and all(v.severity == "warning" for v in hits)

    @pytest.mark.parametrize(
        "snippet",
        [
            "for txn in sorted(holders.items()):\n    wound(txn)\n",
            "for txn in waiter_list:\n    wake(txn)\n",
            "if txn in holders:\n    wound(txn)\n",  # membership only
            # Order-insensitive reducers cannot leak iteration order.
            "busy = all(m == 1 for m in holders.values())\n",
            "count = sum(1 for t in holders.keys())\n",
            "worst = max(t.tid for t in holders.values())\n",
            """
            def snapshot(table):
                pages = list(queue)
                for page in pages:
                    release(page)
            """,
        ],
    )
    def test_does_not_flag(self, snippet):
        assert not rule_hits(snippet, CC_PATH, self.RULE)

    def test_out_of_scope_path_not_flagged(self):
        snippet = "for k, v in table.items():\n    use(k)\n"
        assert not rule_hits(snippet, NEUTRAL_PATH, self.RULE)

    def test_reports_as_warning(self):
        snippet = "for k, v in table.items():\n    use(k)\n"
        hits = rule_hits(snippet, CC_PATH, self.RULE)
        assert hits and all(v.severity == "warning" for v in hits)

    def test_suppression(self):
        snippet = (
            "for t, m in holders.items():"
            "  # simlint: ignore[unordered-iteration]\n"
            "    wound(t)\n"
        )
        violations = lint_source(snippet, CC_PATH)
        assert [v for v in violations if v.suppressed]
        assert not [v for v in violations if not v.suppressed]


class TestFloatTimeEquality:
    RULE = "float-time-equality"

    @pytest.mark.parametrize(
        "snippet",
        [
            "if env.now == deadline:\n    fire()\n",
            "if deadline == env.now:\n    fire()\n",
            "done = handle.time == now\n",
            "if now != horizon:\n    advance()\n",
            # Defined, but by arithmetic: not a pure copy.
            "now = self.now + 1.0\nif handle.time == now:\n    pass\n",
            # Parameters are unprovable: callers may pass anything.
            """
            def fire_due(self, now):
                if self.deadline.time == now:
                    self.fire()
            """,
            # Even two stored schedule times, or a pure copy of one:
            # the check is syntactic, so sound sites carry a waiver.
            "if self.time != other.time:\n    pass\n",
            "now = handle.time\nif handle.time == now:\n    pass\n",
            # The kernel dispatch-loop shape its waivers cover.
            """
            def drain(self, top):
                now = self.now
                if top.time != now:
                    return
                self.fire(top)
            """,
        ],
    )
    def test_flags_in_sim_scope(self, snippet):
        assert rule_hits(snippet, SIM_PATH, self.RULE)

    @pytest.mark.parametrize(
        "snippet",
        [
            "if env.now >= deadline:\n    fire()\n",
            "if count == 3:\n    pass\n",
            "if name == 'now':\n    pass\n",
            "if a.seq == b.seq:\n    pass\n",
        ],
    )
    def test_does_not_flag(self, snippet):
        assert not rule_hits(snippet, SIM_PATH, self.RULE)

    def test_tests_are_out_of_scope(self):
        # Test code asserts exact clock values the kernel guarantees.
        snippet = "assert env.now == 5.0\n"
        assert not rule_hits(
            snippet, "tests/sim/test_clock.py", self.RULE
        )

    def test_suppression(self):
        snippet = (
            "if top.time == now:"
            "  # simlint: ignore[float-time-equality]\n"
            "    pass\n"
        )
        violations = lint_source(snippet, SIM_PATH)
        assert [v for v in violations if v.suppressed]
        assert not [v for v in violations if not v.suppressed]


class TestFaultStreamMisuse:
    RULE = "stream-registry"
    FAULTS_PATH = "repro/faults/fixture.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            # Shared-stream names inside the fault subsystem.
            "x = streams.exponential('restart-delay', mean)\n",
            "x = self.streams.bernoulli('write-coin', 0.5)\n",
            "stream = streams.get('page-choice')\n",
            "x = self._streams.exponential('think-0', mean)\n",
            "stream = streams.fresh('copy-choice')\n",
            # f-string whose head is not the fault- prefix.
            "x = streams.exponential(f'disk-{node}', mean)\n",
            # f-string starting with an interpolation: unprovable.
            "x = streams.exponential(f'{kind}-crash', mean)\n",
            # Name argument: cannot prove the prefix either.
            "x = streams.exponential(name, mean)\n",
        ],
    )
    def test_flags_in_faults_scope(self, snippet):
        assert rule_hits(snippet, self.FAULTS_PATH, self.RULE)

    @pytest.mark.parametrize(
        "snippet",
        [
            "x = streams.exponential('fault-crash-3', mtbf)\n",
            "x = self.streams.bernoulli('fault-msg-loss', p)\n",
            "stream = streams.get('fault-retry-backoff')\n",
            "x = streams.exponential(f'fault-crash-{node}', mtbf)\n",
            # Not a streams receiver.
            "x = stream.expovariate(1.0 / mean)\n",
            "x = rng.exponential('restart-delay', mean)\n",
        ],
    )
    def test_does_not_flag(self, snippet):
        assert not rule_hits(snippet, self.FAULTS_PATH, self.RULE)

    @pytest.mark.parametrize(
        "path", [SIM_PATH, CORE_PATH, NEUTRAL_PATH]
    )
    def test_out_of_scope_path_not_flagged(self, path):
        snippet = "x = streams.exponential('restart-delay', mean)\n"
        assert not rule_hits(snippet, path, self.RULE)

    def test_suppression(self):
        snippet = (
            "x = streams.get('page-choice')"
            "  # simlint: ignore[stream-registry]\n"
        )
        violations = lint_source(snippet, self.FAULTS_PATH)
        assert [v for v in violations if v.suppressed]
        assert not [v for v in violations if not v.suppressed]


class TestSuppressionSemantics:
    def test_suppression_is_per_rule(self):
        # A waiver for one rule must not silence another on the line.
        snippet = (
            "jobs[id(event)] = job"
            "  # simlint: ignore[wall-clock]\n"
        )
        hits = rule_hits(snippet, NEUTRAL_PATH, "id-keyed-container")
        assert hits

    def test_comma_separated_list(self):
        snippet = (
            "import time\n"
            "jobs[id(time.time())] = 1"
            "  # simlint: ignore[id-keyed-container, wall-clock]\n"
        )
        violations = lint_source(snippet, SIM_PATH)
        assert violations
        assert all(v.suppressed for v in violations)

    def test_suppression_only_applies_to_its_line(self):
        snippet = (
            "# simlint: ignore[id-keyed-container]\n"
            "jobs[id(event)] = job\n"
        )
        assert rule_hits(snippet, NEUTRAL_PATH, "id-keyed-container")


def test_parse_error_reported_as_violation():
    violations = lint_source("def broken(:\n", NEUTRAL_PATH)
    assert [v.rule_id for v in violations] == ["parse-error"]


def test_rule_lookup_and_metadata():
    rule = get_rule("unordered-iteration")
    assert rule.include
    assert rule.summary
    with pytest.raises(KeyError):
        get_rule("no-such-rule")
