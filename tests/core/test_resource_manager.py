"""Tests for the per-node resource manager."""

import pytest

from repro.core.resource_manager import ResourceManager
from repro.sim.kernel import Environment, Interrupt
from repro.sim.streams import RandomStreams


@pytest.fixture
def env():
    return Environment()


def make_rm(env, mips=1.0, disks=2, lo=0.01, hi=0.01):
    streams = RandomStreams(3)
    return ResourceManager(
        env,
        node_id=0,
        cpu_mips=mips,
        num_disks=disks,
        min_disk_time=lo,
        max_disk_time=hi,
        disk_stream=streams.get("disk-service-0"),
        disk_choice_stream=streams.get("disk-choice-0"),
        inst_per_update=2_000.0,
    )


class TestExecute:
    def test_execute_takes_scaled_time(self, env):
        rm = make_rm(env, mips=2.0)
        done = []

        def worker():
            yield rm.cpu.execute(1_000_000)
            done.append(env.now)

        env.process(worker())
        env.run()
        assert done[0] == pytest.approx(0.5)

    def test_interrupt_cancels_residual_work(self, env):
        # The victim waits inside a sub-generator it delegates to, as
        # TransactionManager._cc_access yields its CPU request.
        rm = make_rm(env)
        outcome = []

        def work():
            yield rm.cpu.execute(1_000_000)  # 1s

        def victim():
            try:
                yield from work()
            except Interrupt:
                outcome.append(env.now)

        def bystander():
            yield rm.cpu.execute(1_000_000)
            outcome.append(("done", env.now))

        victim_process = env.process(victim())
        env.process(bystander())
        env.schedule(0.2, lambda: victim_process.interrupt())
        env.run()
        # Victim interrupted at 0.2 (0.1s of service each so far);
        # bystander then runs alone: 0.9s more => 1.1s total.
        assert outcome[0] == pytest.approx(0.2)
        assert outcome[1][1] == pytest.approx(1.1)

    def test_interrupt_cancels_job_yielded_directly(self, env):
        # The same case as above, waiting on the CPU job itself.
        rm = make_rm(env)
        outcome = []

        def victim():
            try:
                yield rm.cpu.execute(1_000_000)  # 1s
            except Interrupt:
                outcome.append(env.now)

        def bystander():
            yield rm.cpu.execute(1_000_000)
            outcome.append(("done", env.now))

        victim_process = env.process(victim())
        env.process(bystander())
        env.schedule(0.2, lambda: victim_process.interrupt())
        env.run()
        assert outcome[0] == pytest.approx(0.2)
        assert outcome[1][1] == pytest.approx(1.1)


class TestDisks:
    def test_disk_read_blocks_for_service(self, env):
        rm = make_rm(env)
        done = []

        def reader():
            yield rm.read_page()
            done.append(env.now)

        env.process(reader())
        env.run()
        assert done[0] == pytest.approx(0.01)

    def test_requests_spread_over_disks(self, env):
        rm = make_rm(env, disks=2)
        done = []

        def reader():
            yield rm.read_page()
            done.append(env.now)

        for _ in range(20):
            env.process(reader())
        env.run()
        served = [disk.reads_served for disk in rm.disks]
        assert sum(served) == 20
        assert min(served) >= 4  # roughly balanced random choice

    def test_disk_choice_is_one_randrange_draw(self, env):
        """Reads and write-backs pick the disk a ``randrange`` over the
        disk count draws from the choice stream, draw for draw."""
        rm = make_rm(env, disks=3)
        reads = []
        for step in range(40):
            if step % 3 == 2:
                rm.initiate_async_write()
            else:
                reads.append(rm.read_page().disk)
        env.run()
        reference = RandomStreams(3).get("disk-choice-0")
        expected_reads = []
        expected_writes = [0, 0, 0]
        for step in range(40):
            index = reference.randrange(3)
            if step % 3 == 2:
                expected_writes[index] += 1
            else:
                expected_reads.append(rm.disks[index])
        assert reads == expected_reads
        assert [disk.writes_served for disk in rm.disks] == expected_writes

    def test_interrupt_cancels_queued_read(self, env):
        # The victim waits inside a sub-generator it delegates to, so
        # the interrupt is thrown through the ``yield from``.
        rm = make_rm(env, disks=1)
        outcome = []

        def holder():
            yield rm.read_page()

        def read():
            yield rm.read_page()

        def victim():
            try:
                yield from read()
            except Interrupt:
                outcome.append("interrupted")

        env.process(holder())
        victim_process = env.process(victim())
        env.schedule(0.005, lambda: victim_process.interrupt())
        env.run()
        assert outcome == ["interrupted"]
        assert rm.disks[0].reads_served == 1  # victim's read gone
        assert env.now == pytest.approx(0.01)

    def test_interrupt_cancels_queued_read_yielded_directly(self, env):
        # The same case as above, waiting on read_page's request itself.
        rm = make_rm(env, disks=1)
        outcome = []

        def holder():
            yield rm.read_page()

        def victim():
            try:
                yield rm.read_page()
            except Interrupt:
                outcome.append("interrupted")

        env.process(holder())
        victim_process = env.process(victim())
        env.schedule(0.005, lambda: victim_process.interrupt())
        env.run()
        assert outcome == ["interrupted"]
        assert rm.disks[0].reads_served == 1  # victim's read gone
        assert env.now == pytest.approx(0.01)

    def test_async_write_needs_no_waiter(self, env):
        rm = make_rm(env, disks=1)
        rm.initiate_async_write()
        env.run()
        assert rm.disks[0].writes_served == 1

    def test_async_writes_prioritized_over_reads(self, env):
        rm = make_rm(env, disks=1)
        order = []

        def reader(tag):
            yield rm.read_page()
            order.append(tag)

        env.process(reader("r0"))  # enters service
        env.process(reader("r1"))  # queued

        def writer():
            yield env.timeout(0.005)
            rm.initiate_async_write()

        env.process(writer())
        env.run()
        # The write (queued after r1) is served before r1.
        assert order == ["r0", "r1"]
        assert rm.disks[0].writes_served == 1
        # Verify via busy windows: total time = 3 services serialized.
        assert env.now == pytest.approx(0.03)


class TestStatistics:
    def test_utilizations_and_reset(self, env):
        rm = make_rm(env, disks=1)

        def load():
            yield rm.cpu.execute(500_000)

        env.process(load())
        env.process(iter_disk(rm))
        env.run(until=1.0)
        assert rm.cpu_utilization(1.0) == pytest.approx(0.5)
        assert rm.disk_utilization(1.0) == pytest.approx(
            0.01, abs=0.005
        )
        rm.reset_statistics(1.0)
        env.run(until=2.0)
        assert rm.cpu_utilization(2.0) == 0.0
        assert rm.disk_utilization(2.0) == 0.0


def iter_disk(rm):
    yield rm.read_page()
