"""simsan: a runtime determinism sanitizer for the simulation kernel.

simlint (:mod:`repro.lint`) guards the bit-reproducibility property
statically; simsan guards what only a live run shows.  An opt-in
instrumented execution mode — ``Environment(sanitizer=...)`` /
``Simulation(config, sanitizer=...)`` — routes hook points in the
kernel (process creation), the stream registry, the network's
in-flight couriers, and the fault injector into a
:class:`~repro.sanitizer.core.Sanitizer`, which runs two checkers.
A sanitized run takes the kernel's one dispatch loop, like a clean
run; the loop itself calls no hook.

``stream-discipline``
    Every runtime stream lookup is checked against the
    :func:`~repro.sim.streams.register_stream` registry and the drawing
    component's declared ownership — closing the dynamic-name hole the
    static ``stream-registry`` rule must exempt.
``leak-audit``
    End-of-run audit generalizing ``faults.assert_no_leaks``: orphaned
    processes and undelivered couriers when both event queues drained
    (on a closed-loop run, only when every process is stuck), and
    cohorts or couriers stranded on crashed nodes (every faulted run).

Findings are ordinary :class:`~repro.lint.violations.Violation`
objects rendered by the shared text/JSON/SARIF reporters.  There are
two entry points: ``Simulation(config, sanitizer=Sanitizer())``
sanitizes one run, and ``python -m repro.sanitizer <ids>`` sanitizes
whole experiments by running them on a
:class:`~repro.sanitizer.executor.SanitizingExecutor`.
"""

from repro.sanitizer.checks import CHECKS, get_check
from repro.sanitizer.core import Sanitizer

__all__ = ["CHECKS", "Sanitizer", "get_check"]
