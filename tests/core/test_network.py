"""Tests for the network manager."""

import pytest

from repro.core.network import HOST_NODE, NetworkManager
from repro.sim.kernel import Environment
from repro.sim.resources import CPU


@pytest.fixture
def env():
    return Environment()


def make_network(env, inst_per_msg=1_000.0):
    cpus = {
        HOST_NODE: CPU(env, 10.0, name="host"),
        0: CPU(env, 1.0, name="n0"),
        1: CPU(env, 1.0, name="n1"),
    }
    return NetworkManager(env, cpus, inst_per_msg), cpus


class TestDelivery:
    def test_message_delivered_with_payload(self, env):
        network, _ = make_network(env)
        received = []
        network.post(HOST_NODE, 0, received.append, "hello")
        env.run()
        assert received == ["hello"]

    def test_delivery_is_asynchronous(self, env):
        network, _ = make_network(env)
        order = []
        network.post(HOST_NODE, 0, lambda _p: order.append("deliver"))
        order.append("after-post")
        env.run()
        assert order == ["after-post", "deliver"]

    def test_per_end_cpu_charges(self, env):
        network, cpus = make_network(env, inst_per_msg=1_000.0)
        times = []
        network.post(0, 1, lambda _p: times.append(env.now))
        env.run()
        # 1K at 1 MIPS on each end: 1ms + 1ms.
        assert times[0] == pytest.approx(0.002)

    def test_host_end_is_faster(self, env):
        network, _ = make_network(env, inst_per_msg=1_000.0)
        times = []
        network.post(HOST_NODE, 0, lambda _p: times.append(env.now))
        env.run()
        # 1K at 10 MIPS = 0.1ms, then 1K at 1 MIPS = 1ms.
        assert times[0] == pytest.approx(0.0011)

    def test_zero_cost_messages_still_asynchronous(self, env):
        network, _ = make_network(env, inst_per_msg=0.0)
        order = []
        network.post(HOST_NODE, 0, lambda _p: order.append("d"))
        order.append("p")
        env.run()
        assert order == ["p", "d"]

    def test_fifo_between_same_endpoints(self, env):
        network, _ = make_network(env)
        received = []
        for index in range(5):
            network.post(HOST_NODE, 0, received.append, index)
        env.run()
        assert received == [0, 1, 2, 3, 4]

    def test_fifo_with_zero_cost(self, env):
        network, _ = make_network(env, inst_per_msg=0.0)
        received = []
        for index in range(5):
            network.post(HOST_NODE, 0, received.append, index)
        env.run()
        assert received == [0, 1, 2, 3, 4]


class TestAccounting:
    def test_messages_counted(self, env):
        network, _ = make_network(env)
        network.post(HOST_NODE, 0, lambda _p: None)
        network.post(0, HOST_NODE, lambda _p: None)
        env.run()
        assert network.messages_sent.count == 2

    def test_intra_node_messages_free_and_uncounted(self, env):
        network, cpus = make_network(env)
        received = []
        network.post(0, 0, received.append, "local")
        env.run()
        assert received == ["local"]
        assert network.messages_sent.count == 0
        assert cpus[0].busy_time.mean(env.now or 1.0) == 0.0

    def test_message_cpu_time_visible_in_utilization(self, env):
        network, cpus = make_network(env, inst_per_msg=10_000.0)
        network.post(0, 1, lambda _p: None)
        env.run(until=1.0)
        assert cpus[0].busy_time.mean(1.0) == pytest.approx(
            0.01, rel=0.01
        )


class TestKilledCourier:
    @pytest.mark.parametrize("stage", ["source", "destination"])
    def test_killed_between_charge_and_continuation(self, stage):
        """A courier killed after a CPU has served its charge, but
        before the continuation the CPU scheduled runs, never runs its
        handler and never submits another charge."""
        env = Environment()
        network, cpus = make_network(env, inst_per_msg=1_000.0)
        # Track in-flight couriers, which kill_inflight needs, as
        # attach_faults does (without its fault filter).
        network._inflight = {}
        received, dropped = [], []
        network.post(
            HOST_NODE, 0, received.append, "lost", on_drop=dropped.append
        )
        host_seconds = 1_000 / (10.0 * 1e6)
        node_seconds = 1_000 / (1.0 * 1e6)
        killed_at = []

        def kill():
            killed_at.append(env.now)
            network.kill_inflight(0)

        def arm(seconds):
            # Due with the charge's completion and scheduled after it,
            # so it runs between that completion and the continuation.
            env.schedule(seconds, kill)

        if stage == "source":
            env.schedule_now(arm, host_seconds)
        else:
            # Runs after the continuation that submits the destination
            # charge, at the source charge's completion.
            env.schedule_now(
                env.schedule, host_seconds, env.schedule_now, arm,
                node_seconds,
            )
        env.run()
        assert received == []
        assert dropped == ["lost"]
        end = env.now
        if stage == "source":
            assert killed_at == [host_seconds]
            # The destination charge was never submitted.
            assert cpus[0].busy_time.mean(end) == 0.0
        else:
            assert killed_at == [host_seconds + node_seconds]
            assert cpus[0].busy_time.mean(end) > 0.0

