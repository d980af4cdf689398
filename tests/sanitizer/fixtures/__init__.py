"""Seeded violation fixtures for the runtime sanitizer.

Each checker gets at least one minimal simulation that triggers
*exactly one* finding, plus a near-miss that exercises the same code
path but stays clean.

A kernel-level fixture builds its own
:class:`~repro.sim.kernel.Environment` with a
:class:`~repro.sanitizer.core.Sanitizer`, drives it, runs the
end-of-env audit, and returns the sanitizer; callers inspect
``sanitizer.finalize()``.  :func:`draw_unregistered` seeds the same
``stream-discipline`` finding into a whole simulation.
"""

from repro.core.config import paper_default_config
from repro.sanitizer.core import Sanitizer
from repro.sim.kernel import Environment
from repro.sim.streams import RandomStreams

#: A stream name no ``register_stream`` call declares.
UNREGISTERED_STREAM = "mystery-stream"


def tiny_config(algorithm="2pl", seed=11, think_time=1.0, terminals=6):
    """A sub-second run: by default six terminals thinking 1 s."""
    return paper_default_config(
        algorithm, think_time=think_time, seed=seed
    ).with_(duration=4.0, warmup=1.0).with_workload(num_terminals=terminals)


def draw_unregistered(simulation):
    """Draw once from an unregistered stream through the simulation's
    streams: under a sanitizer, one ``stream-discipline`` finding,
    anchored here whichever run it comes from."""
    simulation.streams.get(UNREGISTERED_STREAM).random()


def make_env():
    sanitizer = Sanitizer()
    env = Environment(sanitizer=sanitizer)
    return env, sanitizer


# ----------------------------------------------------------------------
# stream-discipline
# ----------------------------------------------------------------------


def stream_unregistered_draw():
    """A dynamically named draw that never went through
    register_stream — the hole the static rule must exempt."""
    env, sanitizer = make_env()
    streams = RandomStreams(7)
    streams.attach_sanitizer(sanitizer)

    def draw():
        streams.uniform(UNREGISTERED_STREAM, 0.0, 1.0)
        streams.uniform(UNREGISTERED_STREAM, 0.0, 1.0)  # still one finding

    env.schedule(1.0, draw)
    env.run()
    sanitizer.finish_env(env)
    return sanitizer


def stream_cross_owner_draw():
    """'page-count' belongs to the workload generator; a draw declared
    by the resource model entangles the two sequences."""
    env, sanitizer = make_env()
    streams = RandomStreams(7)
    streams.attach_sanitizer(sanitizer)

    def draw():
        streams.uniform_int("page-count", 1, 4, owner="resources")

    env.schedule(1.0, draw)
    env.run()
    sanitizer.finish_env(env)
    return sanitizer


def stream_near_miss_owned_draws():
    """Registered draws by their declared owners stay clean, including
    a dynamic per-terminal name matched via its {placeholder} family."""
    env, sanitizer = make_env()
    streams = RandomStreams(7)
    streams.attach_sanitizer(sanitizer)

    def draw():
        streams.uniform_int("page-count", 1, 4, owner="workload")
        streams.exponential("think-3", 1.0, owner="workload")
        streams.exponential("disk-service-0", 0.02, owner="resources")
        streams.get("write-coin").random()  # owner-less draw: unchecked

    env.schedule(1.0, draw)
    env.run()
    sanitizer.finish_env(env)
    return sanitizer


# ----------------------------------------------------------------------
# leak-audit
# ----------------------------------------------------------------------


def leak_orphaned_process():
    """A process parked on an event nobody will ever succeed survives
    the drained event queues."""
    env, sanitizer = make_env()
    never = env.event()

    def waiter():
        yield never

    env.process(waiter(), name="stuck-waiter")
    env.run()
    sanitizer.finish_env(env)
    return sanitizer


def leak_near_miss_completed_process():
    """The same waiter shape, but the event is succeeded — the process
    finishes and the audit stays clean."""
    env, sanitizer = make_env()
    eventually = env.event()

    def waiter():
        yield eventually

    env.process(waiter(), name="served-waiter")
    env.schedule(1.0, eventually.succeed, "payload")
    env.run()
    sanitizer.finish_env(env)
    return sanitizer
