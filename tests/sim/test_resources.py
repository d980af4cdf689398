"""Unit tests for the CPU and disk resource disciplines."""

import random

import pytest

from repro.sim.kernel import Environment, Event
from repro.sim.resources import (
    CPU,
    Disk,
    DiskRequestKind,
    _DiskRequest,
    _PsJob,
)


@pytest.fixture
def env():
    return Environment()


def finish_times(env, cpu, jobs):
    """Run jobs (instruction counts) started at time 0; return finish
    times in job order."""
    times = [None] * len(jobs)

    def worker(index, instructions):
        yield cpu.execute(instructions)
        times[index] = env.now

    for index, instructions in enumerate(jobs):
        env.process(worker(index, instructions))
    env.run()
    return times


class TestCpuProcessorSharing:
    def test_single_job_takes_nominal_time(self, env):
        cpu = CPU(env, mips=1.0)
        (t,) = finish_times(env, cpu, [1_000_000])
        assert t == pytest.approx(1.0)

    def test_two_equal_jobs_share_equally(self, env):
        cpu = CPU(env, mips=1.0)
        times = finish_times(env, cpu, [500_000, 500_000])
        # Each gets half the CPU: both finish at 1.0s.
        assert times[0] == pytest.approx(1.0)
        assert times[1] == pytest.approx(1.0)

    def test_short_job_finishes_first_under_sharing(self, env):
        cpu = CPU(env, mips=1.0)
        times = finish_times(env, cpu, [100_000, 1_000_000])
        # Short job: shares until it has 0.1s of service => at 0.2s.
        assert times[0] == pytest.approx(0.2)
        # Long job: 0.1s served by then, 0.9s alone => 1.1s total.
        assert times[1] == pytest.approx(1.1)

    def test_late_arrival_shares_remaining(self, env):
        cpu = CPU(env, mips=1.0)
        times = [None, None]

        def first():
            yield cpu.execute(1_000_000)
            times[0] = env.now

        def second():
            yield env.timeout(0.5)
            yield cpu.execute(250_000)
            times[1] = env.now

        env.process(first())
        env.process(second())
        env.run()
        # First runs alone 0.5s (0.5 done), shares 0.5s with second
        # (0.25 each): second done at t=1.0, first alone for the
        # remaining 0.25 => t=1.25.
        assert times[1] == pytest.approx(1.0)
        assert times[0] == pytest.approx(1.25)

    def test_mips_scales_service(self, env):
        cpu = CPU(env, mips=10.0)
        (t,) = finish_times(env, cpu, [1_000_000])
        assert t == pytest.approx(0.1)

    def test_zero_instruction_job_completes_immediately(self, env):
        cpu = CPU(env, mips=1.0)
        (t,) = finish_times(env, cpu, [0])
        assert t == pytest.approx(0.0)

    def test_work_conservation_many_jobs(self, env):
        cpu = CPU(env, mips=1.0)
        jobs = [100_000] * 10  # 1.0s of total work
        times = finish_times(env, cpu, jobs)
        assert max(times) == pytest.approx(1.0)

    def test_invalid_rate_rejected(self, env):
        with pytest.raises(ValueError):
            CPU(env, mips=0.0)


def message_done(env, cpu, instructions):
    """Message work, as an event that its continuation succeeds."""
    served = env.event()
    cpu.execute_message(instructions, served.succeed)
    return served


class TestCpuMessagePriority:
    def test_message_served_fifo_at_full_rate(self, env):
        cpu = CPU(env, mips=1.0)
        times = {}

        def messenger(tag, instructions):
            yield message_done(env, cpu, instructions)
            times[tag] = env.now

        env.process(messenger("a", 1_000))
        env.process(messenger("b", 1_000))
        env.run()
        assert times["a"] == pytest.approx(0.001)
        assert times["b"] == pytest.approx(0.002)

    def test_message_preempts_ps_progress(self, env):
        cpu = CPU(env, mips=1.0)
        times = {}

        def ps_worker():
            yield cpu.execute(10_000)  # 10ms alone
            times["ps"] = env.now

        def messenger():
            yield env.timeout(0.005)
            yield message_done(env, cpu, 5_000)  # 5ms, priority
            times["msg"] = env.now

        env.process(ps_worker())
        env.process(messenger())
        env.run()
        assert times["msg"] == pytest.approx(0.010)
        # PS job: 5ms before the message + 5ms after = done at 15ms.
        assert times["ps"] == pytest.approx(0.015)

    def test_ps_completion_not_missed_during_message_burst(self, env):
        cpu = CPU(env, mips=1.0)
        done = []

        def ps_worker():
            yield cpu.execute(1_000)
            done.append(env.now)

        def messenger():
            yield message_done(env, cpu, 4_000)

        env.process(ps_worker())
        env.process(messenger())
        env.run()
        # Message runs 0..4ms; PS job then needs its 1ms => 5ms.
        assert done[0] == pytest.approx(0.005)


class TestCpuCancel:
    def test_cancel_pending_job(self, env):
        cpu = CPU(env, mips=1.0)
        finished = []

        def worker():
            yield cpu.execute(1_000_000)
            finished.append(env.now)

        def canceller():
            yield env.timeout(0.1)
            # Cancel the other job via its event: emulate by accessing
            # the CPU's own bookkeeping through a fresh job.
            return

        process = env.process(worker())
        env.run(until=0.1)
        # The worker waits on the CPU event; cancel it directly.
        event = process._waiting_on
        assert cpu.cancel(event) is True
        process.interrupt()
        env.run()
        assert finished == []

    def test_cancel_speeds_up_survivors(self, env):
        cpu = CPU(env, mips=1.0)
        times = {}
        events = {}

        def worker(tag):
            event = cpu.execute(1_000_000)
            events[tag] = event
            yield event
            times[tag] = env.now

        env.process(worker("a"))
        env.process(worker("b"))

        def killer():
            yield env.timeout(0.5)
            cpu.cancel(events["b"])

        env.process(killer())
        env.run()
        # a: 0.5s shared (0.25 done) + 0.75 alone = 1.25s total.
        assert times["a"] == pytest.approx(1.25)
        assert "b" not in times

    def test_cancel_unknown_event_returns_false(self, env):
        cpu = CPU(env, mips=1.0)
        assert cpu.cancel(env.event()) is False


class TestCpuUtilization:
    def test_busy_fraction_tracked(self, env):
        cpu = CPU(env, mips=1.0)

        def worker():
            yield cpu.execute(500_000)

        env.process(worker())
        env.run(until=1.0)
        assert cpu.busy_time.mean(1.0) == pytest.approx(0.5)

    def test_idle_cpu_reports_zero(self, env):
        cpu = CPU(env, mips=1.0)
        env.run(until=2.0)
        assert cpu.busy_time.mean(2.0) == 0.0


class TestDisk:
    def make_disk(self, env, lo=0.01, hi=0.01):
        return Disk(env, lo, hi, random.Random(7))

    def test_single_access_takes_service_time(self, env):
        disk = self.make_disk(env)
        done = []

        def reader():
            yield disk.access(DiskRequestKind.READ)
            done.append(env.now)

        env.process(reader())
        env.run()
        assert done[0] == pytest.approx(0.01)

    def test_fifo_within_class(self, env):
        disk = self.make_disk(env)
        order = []

        def reader(tag):
            yield disk.access(DiskRequestKind.READ)
            order.append(tag)

        for tag in range(4):
            env.process(reader(tag))
        env.run()
        assert order == [0, 1, 2, 3]

    def test_writes_jump_ahead_of_queued_reads(self, env):
        disk = self.make_disk(env)
        order = []

        def access(tag, kind):
            yield disk.access(kind)
            order.append(tag)

        # First read enters service; then two reads queue; a write
        # arriving later must be served before the queued reads.
        env.process(access("r0", DiskRequestKind.READ))
        env.process(access("r1", DiskRequestKind.READ))
        env.process(access("r2", DiskRequestKind.READ))

        def late_writer():
            yield env.timeout(0.005)
            yield disk.access(DiskRequestKind.WRITE)
            order.append("w")

        env.process(late_writer())
        env.run()
        assert order == ["r0", "w", "r1", "r2"]

    def test_in_service_request_not_cancellable(self, env):
        disk = self.make_disk(env)
        event = disk.access(DiskRequestKind.READ)
        assert disk.cancel(event) is False

    def test_queued_request_cancellable(self, env):
        disk = self.make_disk(env)
        disk.access(DiskRequestKind.READ)  # in service
        queued = disk.access(DiskRequestKind.READ)
        assert disk.cancel(queued) is True
        env.run()
        assert disk.reads_served == 1

    def test_service_time_within_bounds(self, env):
        disk = Disk(env, 0.010, 0.030, random.Random(3))
        done = []

        def reader():
            start = env.now
            yield disk.access(DiskRequestKind.READ)
            done.append(env.now - start)

        for _ in range(50):
            env.process(reader())
        env.run()
        # Serial FIFO service: each gap is one service time.
        assert all(0.0 <= t for t in done)
        assert max(done) <= 50 * 0.030 + 1e-9

    def test_utilization_full_when_backlogged(self, env):
        disk = self.make_disk(env)
        for _ in range(10):
            disk.access(DiskRequestKind.READ)
        env.run(until=0.05)
        assert disk.busy_time.mean(0.05) == pytest.approx(1.0)

    def test_invalid_time_range_rejected(self, env):
        with pytest.raises(ValueError):
            Disk(env, 0.03, 0.01, random.Random(1))

    def test_counts_by_kind(self, env):
        disk = self.make_disk(env)
        disk.access(DiskRequestKind.READ)
        disk.access(DiskRequestKind.WRITE)
        disk.access(DiskRequestKind.WRITE)
        env.run()
        assert disk.reads_served == 1
        assert disk.writes_served == 2


class TestExactRequests:
    """The resource path's inlined steps keep their draws and their
    event state exactly (DESIGN §17)."""

    def test_service_times_are_uniform_draws(self, env):
        """Each service time is the value ``random.Random.uniform``
        draws from the same stream, draw for draw."""
        disk = Disk(env, 0.010, 0.030, random.Random(3))
        done = []

        def reader():
            yield disk.access(DiskRequestKind.READ)
            done.append(env.now)

        for _ in range(50):
            env.process(reader())
        env.run()
        # Serial FIFO service from t=0: each completion is the last
        # one plus one service time, added as the kernel adds it.
        reference = random.Random(3)
        expected = []
        clock = 0.0
        for _ in range(50):
            clock = clock + reference.uniform(0.010, 0.030)
            expected.append(clock)
        assert done == expected

    def test_fresh_requests_have_event_state(self, env):
        """A new CPU job and disk request read as ``Event(env)`` does."""
        cpu = CPU(env, mips=1.0)
        disk = Disk(env, 0.01, 0.01, random.Random(7))
        job = cpu.execute(1_000)
        request = disk.access(DiskRequestKind.READ)
        assert (type(job), type(request)) == (_PsJob, _DiskRequest)

        def state(event):
            return (
                [getattr(event, slot) for slot in Event.__slots__],
                event.fired,
                event.value,
            )

        assert state(job) == state(request) == state(Event(env))


class TestCancelState:
    """A request is its own event, and cancel reads its state in O(1)."""

    def test_cpu_cancel_pending_job(self, env):
        cpu = CPU(env, mips=1.0)
        job = cpu.execute(1_000_000)
        assert cpu.cancel(job) is True
        env.run()
        assert not job.fired
        assert cpu.busy_time.mean(env.now) == 0.0

    def test_cpu_cancel_foreign_event(self, env):
        cpu = CPU(env, mips=1.0)
        cpu.execute(1_000_000)
        assert cpu.cancel(env.event()) is False
        env.run()
        assert env.now == pytest.approx(1.0)

    def test_cpu_cancel_other_cpus_job(self, env):
        cpu = CPU(env, mips=1.0)
        other = CPU(env, mips=1.0)
        job = other.execute(1_000_000)
        assert cpu.cancel(job) is False
        env.run()
        assert job.fired

    def test_cpu_cancel_finished_job(self, env):
        cpu = CPU(env, mips=1.0)
        job = cpu.execute(1_000_000)
        env.run()
        assert job.fired
        assert cpu.cancel(job) is False

    def test_cpu_second_cancel(self, env):
        cpu = CPU(env, mips=1.0)
        job = cpu.execute(1_000_000)
        survivor = cpu.execute(1_000_000)
        assert cpu.cancel(job) is True
        assert cpu.cancel(job) is False
        env.run()
        # The second cancel left the survivor's share alone.
        assert survivor.fired
        assert env.now == pytest.approx(1.0)

    def test_disk_cancel_in_service_request(self, env):
        disk = Disk(env, 0.01, 0.01, random.Random(7))
        request = disk.access(DiskRequestKind.READ)
        assert disk.cancel(request) is False
        env.run()
        assert request.fired

    def test_disk_cancel_queued_request_once(self, env):
        disk = Disk(env, 0.01, 0.01, random.Random(7))
        disk.access(DiskRequestKind.READ)  # in service
        queued = disk.access(DiskRequestKind.READ)
        assert disk.queue_length == 1
        assert disk.cancel(queued) is True
        assert disk.cancel(queued) is False
        assert disk.queue_length == 0
        env.run()
        assert not queued.fired
        assert disk.reads_served == 1
