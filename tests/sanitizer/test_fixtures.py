"""Every checker fires on its seeded fixture — exactly once — and
stays silent on the matching near-miss.

This is the detection-coverage contract from the sanitizer's spec: a
checker that cannot demonstrably fire is not a checker, and a checker
that fires on the near-miss would drown real findings in noise.
"""

from repro.sanitizer import checks

from tests.sanitizer import fixtures


def by_check(sanitizer, check_id):
    return [
        violation
        for violation in sanitizer.finalize()
        if violation.rule_id == check_id
    ]


class TestSameTimeRace:
    def test_independent_writes_flag_exactly_once(self):
        sanitizer = fixtures.race_independent_writes()
        races = by_check(sanitizer, checks.SAME_TIME_RACE)
        assert len(races) == 1
        assert len(sanitizer.finalize()) == 1
        finding = races[0]
        assert "write/write" in finding.message
        assert "mailbox" in finding.message
        # No confirmer at kernel level: unclassified, check default.
        assert "[unconfirmed]" in finding.message
        assert finding.severity == "warning"
        # Anchored at the model-level call site, not inside kernel.py.
        assert finding.path.endswith("tests/sanitizer/fixtures/__init__.py")

    def test_repeated_pair_dedups_to_one_finding(self):
        sanitizer = fixtures.race_repeated_pair_still_one_finding()
        assert len(by_check(sanitizer, checks.SAME_TIME_RACE)) == 1

    def test_parent_child_same_time_is_causally_ordered(self):
        sanitizer = fixtures.race_near_miss_parent_child()
        assert sanitizer.finalize() == []

    def test_distinct_timestamps_do_not_race(self):
        sanitizer = fixtures.race_near_miss_distinct_timestamps()
        assert sanitizer.finalize() == []

    def test_read_read_does_not_race(self):
        sanitizer = fixtures.race_near_miss_read_read()
        assert sanitizer.finalize() == []


class TestStreamDiscipline:
    def test_unregistered_draw_flags_exactly_once(self):
        sanitizer = fixtures.stream_unregistered_draw()
        findings = by_check(sanitizer, checks.STREAM_DISCIPLINE)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        assert "mystery-stream" in findings[0].message
        assert "register_stream" in findings[0].message
        assert findings[0].severity == "error"

    def test_cross_owner_draw_flags_exactly_once(self):
        sanitizer = fixtures.stream_cross_owner_draw()
        findings = by_check(sanitizer, checks.STREAM_DISCIPLINE)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        message = findings[0].message
        assert "'workload'" in message and "'resources'" in message

    def test_owned_and_dynamic_family_draws_stay_clean(self):
        sanitizer = fixtures.stream_near_miss_owned_draws()
        assert sanitizer.finalize() == []


class TestHandleLifecycle:
    def test_stale_cancel_flags_exactly_once(self):
        sanitizer = fixtures.handle_stale_cancel()
        findings = by_check(sanitizer, checks.HANDLE_LIFECYCLE)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        assert "already" in findings[0].message
        assert findings[0].severity == "error"

    def test_double_cancel_flags_exactly_once(self):
        sanitizer = fixtures.handle_double_cancel()
        findings = by_check(sanitizer, checks.HANDLE_LIFECYCLE)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        assert "double cancel" in findings[0].message
        assert findings[0].severity == "warning"

    def test_single_cancel_before_dispatch_is_clean(self):
        sanitizer = fixtures.handle_near_miss_single_cancel()
        assert sanitizer.finalize() == []


class TestLeakAudit:
    def test_orphaned_process_flags_exactly_once(self):
        sanitizer = fixtures.leak_orphaned_process()
        findings = by_check(sanitizer, checks.LEAK_AUDIT)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        assert "stuck-waiter" in findings[0].message
        assert findings[0].severity == "error"

    def test_unreaped_cancelled_handle_flags_exactly_once(self):
        sanitizer = fixtures.leak_unreaped_cancelled_handle()
        findings = by_check(sanitizer, checks.LEAK_AUDIT)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        assert "never reaped" in findings[0].message

    def test_completed_process_is_clean(self):
        sanitizer = fixtures.leak_near_miss_completed_process()
        assert sanitizer.finalize() == []
