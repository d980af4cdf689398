"""Tests for the tracing module (unit + wired into a simulation)."""

import pytest

from repro.core.config import paper_default_config
from repro.core.simulation import Simulation
from repro.core.tracing import EventKind, TraceEvent, Tracer


class TestTracerUnit:
    def test_emit_and_read_back(self):
        tracer = Tracer()
        tracer.emit(1.0, EventKind.ORIGINATED, tid=7, attempt=1)
        tracer.emit(
            2.0, EventKind.BLOCKED, tid=7, attempt=1, node=3
        )
        assert len(tracer) == 2
        assert tracer.events[0].kind is EventKind.ORIGINATED
        assert tracer.events[1].node == 3

    def test_capacity_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            tracer.emit(
                float(index), EventKind.ORIGINATED, index, 1
            )
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert tracer.recorded == 5
        assert tracer.events[0].tid == 2

    def test_per_transaction_view(self):
        tracer = Tracer()
        tracer.emit(1.0, EventKind.ORIGINATED, 1, 1)
        tracer.emit(2.0, EventKind.ORIGINATED, 2, 1)
        tracer.emit(3.0, EventKind.COMMITTED, 1, 1)
        events = tracer.for_transaction(1)
        assert [event.kind for event in events] == [
            EventKind.ORIGINATED,
            EventKind.COMMITTED,
        ]

    def test_count_and_of_kind(self):
        tracer = Tracer()
        for _ in range(3):
            tracer.emit(0.0, EventKind.ABORTED, 1, 1)
        tracer.emit(0.0, EventKind.COMMITTED, 1, 2)
        assert tracer.count(EventKind.ABORTED) == 3
        assert len(tracer.of_kind(EventKind.COMMITTED)) == 1

    def test_format_limits(self):
        tracer = Tracer()
        for index in range(5):
            tracer.emit(
                float(index), EventKind.ORIGINATED, index, 1
            )
        text = tracer.format(limit=2)
        assert len(text.splitlines()) == 2
        assert "txn 4" in text

    def test_event_str(self):
        event = TraceEvent(
            1.5, EventKind.BLOCKED, 9, 2, node=4, detail="page"
        )
        text = str(event)
        assert "txn 9.2" in text
        assert "@4" in text
        assert "blocked" in text

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(0.0, EventKind.ORIGINATED, 1, 1)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.recorded == 1


class TestTracerWired:
    @pytest.fixture(scope="class")
    def traced_run(self):
        tracer = Tracer()
        config = paper_default_config("2pl", think_time=1.0).with_(
            duration=8.0, warmup=0.0
        ).with_workload(num_terminals=16)
        result = Simulation(config, tracer=tracer).run()
        return tracer, result

    def test_commits_traced(self, traced_run):
        tracer, result = traced_run
        assert tracer.count(EventKind.COMMITTED) == result.commits

    def test_aborts_traced(self, traced_run):
        tracer, result = traced_run
        assert tracer.count(EventKind.ABORTED) == result.aborts
        assert (
            tracer.count(EventKind.RESTART_SCHEDULED)
            == result.aborts
        )

    def test_lifecycle_ordering(self, traced_run):
        tracer, result = traced_run
        committed = tracer.of_kind(EventKind.COMMITTED)
        assert committed, "need at least one committed transaction"
        tid = committed[0].tid
        kinds = [
            event.kind for event in tracer.for_transaction(tid)
        ]
        assert kinds[0] is EventKind.ORIGINATED
        assert kinds[-1] is EventKind.COMMITTED
        assert kinds.index(
            EventKind.ATTEMPT_STARTED
        ) < kinds.index(EventKind.COHORT_LOADED)
        assert kinds.index(EventKind.COHORT_DONE) < kinds.index(
            EventKind.PREPARE_SENT
        )

    def test_votes_match_prepares_for_committed(self, traced_run):
        tracer, result = traced_run
        committed_tids = {
            event.tid
            for event in tracer.of_kind(EventKind.COMMITTED)
        }
        for tid in list(committed_tids)[:5]:
            events = tracer.for_transaction(tid)
            final_attempt = max(event.attempt for event in events)
            prepares = [
                e for e in events
                if e.kind is EventKind.PREPARE_SENT
                and e.attempt == final_attempt
            ]
            votes = [
                e for e in events
                if e.kind is EventKind.VOTED
                and e.attempt == final_attempt
            ]
            assert len(prepares) == len(votes) == 8
            assert all(vote.detail is True for vote in votes)

    def test_blocked_unblocked_balance(self, traced_run):
        tracer, _result = traced_run
        blocked = tracer.count(EventKind.BLOCKED)
        unblocked = tracer.count(EventKind.UNBLOCKED)
        # Every wait resolves unless the cohort was aborted mid-wait.
        assert unblocked <= blocked
        aborted = tracer.count(EventKind.ABORTED)
        assert blocked - unblocked <= aborted * 8 + 8
