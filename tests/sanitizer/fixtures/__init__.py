"""Seeded violation fixtures for the runtime sanitizer.

Each checker gets at least one minimal simulation that triggers
*exactly one* finding, plus a near-miss that exercises the same code
path but stays clean.

A fixture builds its own :class:`~repro.sim.kernel.Environment` with a
confirmer-less :class:`~repro.sanitizer.core.Sanitizer` (there is no
``SimulationConfig`` to re-run at kernel level), drives it, runs the
end-of-env audit, and returns the sanitizer; callers inspect
``sanitizer.finalize()``.
"""

from repro.sanitizer.core import Sanitizer
from repro.sim.kernel import Environment, Mailbox
from repro.sim.streams import RandomStreams


def _noop():
    pass


def make_env():
    sanitizer = Sanitizer(confirm=False)
    env = Environment(sanitizer=sanitizer)
    return env, sanitizer


# ----------------------------------------------------------------------
# same-time-race
# ----------------------------------------------------------------------


def race_independent_writes():
    """Two independently scheduled events write the same mailbox at the
    same timestamp: their order is pure seq tie-break — one race."""
    env, sanitizer = make_env()
    mailbox = Mailbox(env)

    def first_writer():
        mailbox.put("a")

    def second_writer():
        mailbox.put("b")

    env.schedule(1.0, first_writer)
    env.schedule(1.0, second_writer)
    env.run()
    sanitizer.finish_env(env)
    return sanitizer


def race_repeated_pair_still_one_finding():
    """The same callback pair racing on many timestamps dedups to one
    finding (per-run reports must not scale with the event count)."""
    env, sanitizer = make_env()
    mailbox = Mailbox(env)

    def first_writer():
        mailbox.put("a")

    def second_writer():
        mailbox.put("b")

    for time in (1.0, 2.0, 3.0):
        env.schedule(time, first_writer)
        env.schedule(time, second_writer)
    env.run()
    sanitizer.finish_env(env)
    return sanitizer


def race_near_miss_parent_child():
    """A same-time child is causally ordered after its scheduling
    parent — touching the same mailbox is not a race."""
    env, sanitizer = make_env()
    mailbox = Mailbox(env)

    def child():
        mailbox.put("b")

    def parent():
        mailbox.put("a")
        env.schedule_now(child)

    env.schedule(1.0, parent)
    env.run()
    sanitizer.finish_env(env)
    return sanitizer


def race_near_miss_distinct_timestamps():
    """The same conflicting pair separated by the clock is ordered by
    time, not seq — not a race."""
    env, sanitizer = make_env()
    mailbox = Mailbox(env)

    def first_writer():
        mailbox.put("a")

    def second_writer():
        mailbox.put("b")

    env.schedule(1.0, first_writer)
    env.schedule(2.0, second_writer)
    env.run()
    sanitizer.finish_env(env)
    return sanitizer


def race_near_miss_read_read():
    """Two same-time reads of the same state commute by definition."""
    env, sanitizer = make_env()
    table = object()  # stands in for a node's lock table

    def first_reader():
        sanitizer.read(("lock", table))

    def second_reader():
        sanitizer.read(("lock", table))

    env.schedule(1.0, first_reader)
    env.schedule(1.0, second_reader)
    env.run()
    sanitizer.finish_env(env)
    return sanitizer


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
        streams.uniform("mystery-stream", 0.0, 1.0)
        streams.uniform("mystery-stream", 0.0, 1.0)  # still one finding

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
# handle-lifecycle
# ----------------------------------------------------------------------


def handle_stale_cancel():
    """cancel() after the callback already dispatched: under pooling
    this would cancel whatever unrelated event recycled the handle."""
    env, sanitizer = make_env()
    handle = env.schedule(1.0, _noop)
    env.run(until=2.0)
    handle.cancel()
    sanitizer.finish_env(env)
    return sanitizer


def handle_double_cancel():
    """A second cancel() before the loop reaps the first."""
    env, sanitizer = make_env()
    handle = env.schedule(1.0, _noop)
    handle.cancel()
    handle.cancel()
    env.run(until=2.0)  # reaps the cancelled handle: no leak on top
    sanitizer.finish_env(env)
    return sanitizer


def handle_near_miss_single_cancel():
    """One cancel before dispatch, reaped by the loop — the sanctioned
    pattern (timeouts losing an AnyOf race) stays clean."""
    env, sanitizer = make_env()
    handle = env.schedule(1.0, _noop)
    handle.cancel()
    env.run(until=2.0)
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


def leak_unreaped_cancelled_handle():
    """A cancelled future callback still pinned in the scheduler when
    the run stops short of its timestamp."""
    env, sanitizer = make_env()
    handle = env.schedule(5.0, _noop)
    handle.cancel()
    env.run(until=1.0)
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
