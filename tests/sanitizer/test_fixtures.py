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


class TestLeakAudit:
    def test_orphaned_process_flags_exactly_once(self):
        sanitizer = fixtures.leak_orphaned_process()
        findings = by_check(sanitizer, checks.LEAK_AUDIT)
        assert len(findings) == 1
        assert len(sanitizer.finalize()) == 1
        assert "stuck-waiter" in findings[0].message
        assert findings[0].severity == "error"

    def test_completed_process_is_clean(self):
        sanitizer = fixtures.leak_near_miss_completed_process()
        assert sanitizer.finalize() == []
