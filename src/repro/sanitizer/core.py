"""The runtime sanitizer: hook sink, checkers, and finding factory.

A :class:`Sanitizer` is attached to one :class:`~repro.sim.kernel.Environment`
(``Environment(sanitizer=...)``).  The kernel and the instrumented model
modules call tiny guarded hooks::

    san = self.env._san
    if san is not None:
        san.write(("lock", self))

so the clean path pays one attribute load and a predictable branch, and
the instrumented path funnels everything here.

Footprint model
---------------
Kernel-visible mutable state is named by small hashable *tokens* keyed
on the live owning object: ``("lock", manager)`` for a node's lock
table and wait-for edges, ``("mailbox", mailbox)``, ``("cpu", cpu)``
and ``("disk", disk)`` for resource queues, ``("net", src, dst)`` for a
directed network channel, ``("stream", name)`` for a named RNG
sequence.  During one timestamp the sanitizer remembers, per token, the
*most recent* event that touched it (an adjacent-witness model: each
access is compared against the previous access of the same token, which
is O(1) per hook and still witnesses every unordered conflicting pair
as a chain of adjacent conflicts).  Two accesses race when they come
from different same-timestamp events, at least one is a write, and
neither event is a same-timestamp scheduling ancestor of the other —
ancestry is the one tie-break the kernel *guarantees* (a child
scheduled via ``schedule_now`` always gets a larger seq than its
parent), so parent/child pairs are ordered by causality, not by the
tie-break policy.  Everything else at equal timestamps is ordered only
by the FIFO seq counter, which is exactly the order a different
tie-break policy would permute.

Findings are deduplicated by (token kind, first event's code site,
second event's code site), so a hot pair of callbacks produces one
finding per run no matter how many pages or timestamps it races on,
and messages carry qualified callback names — never seq numbers,
timestamps, or ``id()`` values — so reports are bit-stable across runs
and machines.
"""

from __future__ import annotations

import os
import re
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.violations import Violation
from repro.sanitizer import checks
from repro.sim.kernel import Environment, Process, ScheduledCallback
from repro.sim.streams import is_registered, stream_owner

__all__ = ["Sanitizer", "relative_path"]

# _SanHandle lifecycle states.
_PENDING = 0
_CANCELLED = 1
_REAPED = 2

_REPO_SRC_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def relative_path(path: str) -> str:
    """Repo-relative rendering of a source path, for stable reports."""
    abspath = os.path.abspath(path)
    for root in (_REPO_SRC_ROOT, os.getcwd()):
        if abspath.startswith(root + os.sep):
            return abspath[len(root) + 1 :].replace(os.sep, "/")
    return path.replace(os.sep, "/")


def _code_of(callback: Any):
    """The code object behind a callback, or None for builtins."""
    func = getattr(callback, "__func__", callback)
    return getattr(func, "__code__", None)


def _label(callback: Any) -> str:
    """Stable human name for an event callback."""
    if callback is None:
        return "<no event>"
    name = getattr(callback, "__qualname__", None)
    if name is None:
        func = getattr(callback, "__func__", None)
        name = getattr(func, "__qualname__", None)
    if name is None:
        name = type(callback).__name__
    return name


def _code_key(callback: Any) -> Tuple[str, int]:
    code = _code_of(callback)
    if code is None:
        return (_label(callback), 0)
    return (code.co_filename, code.co_firstlineno)


def _generic_stream(name: str) -> str:
    """Collapse per-instance numbering (``disk-choice-3``,
    ``think-812``) to its pattern form so one logical hazard yields one
    finding regardless of node count or terminal id."""
    return re.sub(r"\d+", "{n}", name)


def _token_desc(token: tuple) -> str:
    kind = token[0]
    if kind == "stream":
        return f"random stream '{_generic_stream(token[1])}'"
    if kind == "net":
        # Endpoint ids are elided: the dedup key ignores them, so the
        # message must not depend on which pair happened to race first.
        return "network channel"
    names = {
        "lock": "lock table / wait-for edges",
        "mailbox": "mailbox",
        "cpu": "CPU queue",
        "disk": "disk queue",
    }
    return names.get(kind, kind)


class _SanHandle(ScheduledCallback):
    """A scheduled-callback handle with lifecycle tracking.

    Under the sanitizer, handles are never pooled, so object identity is
    stable for the whole run and ``cancel()`` can distinguish a live
    pending handle from one whose callback already dispatched — the
    exact confusion that, under pooling, silently cancels an unrelated
    recycled event.
    """

    __slots__ = ("san", "state")

    def __init__(self, time: float, seq: int, callback, args):
        super().__init__(time, seq, callback, args)
        self.state = _PENDING

    def cancel(self) -> None:
        self.san.note_cancel(self)


class _SanStream:
    """Per-draw instrumentation proxy around a ``random.Random`` stream.

    Call sites cache stream handles (and bound methods such as
    ``stream.expovariate``) at construction time, so wrapping the stream
    object once at :meth:`RandomStreams.get` time instruments every
    later draw, including draws through cached bound methods.
    """

    __slots__ = ("_san", "_token", "_raw")

    def __init__(self, san: "Sanitizer", name: str, raw):
        self._san = san
        self._token = ("stream", name)
        self._raw = raw

    def _draw(self):
        self._san.write(self._token)

    # The draw methods the model uses, delegated explicitly.
    def random(self):
        self._san.write(self._token)
        return self._raw.random()

    def uniform(self, a, b):
        self._san.write(self._token)
        return self._raw.uniform(a, b)

    def randint(self, a, b):
        self._san.write(self._token)
        return self._raw.randint(a, b)

    def expovariate(self, lambd):
        self._san.write(self._token)
        return self._raw.expovariate(lambd)

    def sample(self, population, k):
        self._san.write(self._token)
        return self._raw.sample(population, k)

    def choice(self, seq):
        self._san.write(self._token)
        return self._raw.choice(seq)

    def shuffle(self, x):
        self._san.write(self._token)
        return self._raw.shuffle(x)

    def gauss(self, mu, sigma):
        self._san.write(self._token)
        return self._raw.gauss(mu, sigma)

    def getrandbits(self, k):
        self._san.write(self._token)
        return self._raw.getrandbits(k)

    def __getattr__(self, name):
        # Non-draw attributes (seed, getstate, ...) pass through
        # unwrapped; unknown draw methods still get instrumented.
        attr = getattr(self._raw, name)
        if callable(attr):
            san = self._san
            token = self._token

            def wrapped(*args, **kwargs):
                san.write(token)
                return attr(*args, **kwargs)

            return wrapped
        return attr


class Sanitizer:
    """Collects hook events for one sanitized run and emits findings.

    Parameters
    ----------
    confirm:
        Whether :meth:`finish_run` may re-run the configuration under a
        perturbed tie-break order to classify race candidates.  Leave
        enabled for simulation-level runs; kernel-level fixtures (no
        ``SimulationConfig`` to re-run) are unaffected.
    """

    def __init__(self, confirm: bool = True):
        self.confirm = confirm
        self.env: Optional[Environment] = None
        self.events_observed = 0
        self.findings: List[Violation] = []
        self._finding_keys: set = set()
        # Same-timestamp state, cleared on every clock advance.
        self._parents: Dict[int, int] = {}
        self._last_access: Dict[tuple, Tuple[int, bool, Any]] = {}
        # Executing event.
        self._cur_seq: Optional[int] = None
        self._cur_cb: Any = None
        # Race candidates, materialized by finalize()/the confirmer.
        self._races: List[dict] = []
        self._race_keys: set = set()
        self._race_verdict: Optional[bool] = None  # True = outcome-changing
        self._race_detail = ""
        # Stream names whose registration has been validated.
        self._streams_checked: set = set()
        # Lifecycle / leak bookkeeping.
        self._cancelled_pending = 0
        self._processes: Dict[Process, None] = {}
        self._finalized: Optional[List[Violation]] = None
        # Hook-bearing runtime modules whose frames are skipped when
        # anchoring a finding: the interesting line is the model-level
        # call site where a waiver comment can meaningfully live.
        skip = {os.path.abspath(__file__)}
        for module_name in (
            "repro.sim.kernel",
            "repro.sim.resources",
            "repro.sim.streams",
            "repro.core.network",
            "repro.cc.locks",
        ):
            module = sys.modules.get(module_name)
            if module is not None and getattr(module, "__file__", None):
                skip.add(os.path.abspath(module.__file__))
        self._skip_files = skip

    # ------------------------------------------------------------------
    # Attachment / handle factory (called by the kernel)
    # ------------------------------------------------------------------

    def attach_env(self, env: Environment) -> None:
        self.env = env

    def new_handle(self, time: float, seq: int, callback, args) -> _SanHandle:
        handle = _SanHandle(time, seq, callback, args)
        handle.san = self
        env = self.env
        # Same-timestamp causality: a child scheduled *at the current
        # time* from inside an event is ordered after its parent by
        # construction, so parent/child conflicts are not races.
        if (
            self._cur_seq is not None
            and env is not None
            and time == env.now  # exact same-timestamp identity, not tolerance math
        ):
            self._parents[seq] = self._cur_seq
        return handle

    # ------------------------------------------------------------------
    # Event loop hooks
    # ------------------------------------------------------------------

    def advance_time(self, now: float) -> None:
        """The clock moved: same-timestamp state resets."""
        self._parents.clear()
        self._last_access.clear()

    def begin_event(self, handle: ScheduledCallback) -> None:
        self._cur_seq = handle.seq
        self._cur_cb = handle.callback
        self.events_observed += 1

    def end_event(self, handle: _SanHandle) -> None:
        handle.state = _REAPED
        self._cur_seq = None
        self._cur_cb = None

    def note_reaped(self, handle: _SanHandle) -> None:
        """A cancelled handle was popped (and discarded) by the loop."""
        if handle.state == _CANCELLED:
            self._cancelled_pending -= 1
        handle.state = _REAPED

    def note_process(self, process: Process) -> None:
        self._processes[process] = None

    # ------------------------------------------------------------------
    # handle-lifecycle checker
    # ------------------------------------------------------------------

    def note_cancel(self, handle: _SanHandle) -> None:
        state = handle.state
        if state == _PENDING:
            handle.state = _CANCELLED
            handle.cancelled = True
            self._cancelled_pending += 1
            return
        if state == _CANCELLED:
            path, line = self._call_site()
            self._add(
                checks.HANDLE_LIFECYCLE,
                path,
                line,
                "double cancel() on an already-cancelled handle — under "
                "pooling the second call can hit a recycled handle "
                "belonging to an unrelated event",
                severity="warning",
            )
            return
        # _REAPED: the callback already dispatched (or the cancelled
        # handle was already reaped and recycled).
        path, line = self._call_site()
        self._add(
            checks.HANDLE_LIFECYCLE,
            path,
            line,
            "cancel() on a stale handle whose callback already "
            "dispatched — under pooling this cancels whatever unrelated "
            "event now owns the recycled handle",
            severity="error",
        )

    # ------------------------------------------------------------------
    # same-time-race checker
    # ------------------------------------------------------------------

    def read(self, token: tuple) -> None:
        self._access(token, False)

    def write(self, token: tuple) -> None:
        self._access(token, True)

    def _access(self, token: tuple, is_write: bool) -> None:
        seq = self._cur_seq
        if seq is None:
            # Outside event dispatch (model construction, teardown):
            # ordering is program order, not scheduler order.
            return
        last = self._last_access.get(token)
        self._last_access[token] = (seq, is_write, self._cur_cb)
        if last is None:
            return
        last_seq, last_write, last_cb = last
        if last_seq == seq or not (is_write or last_write):
            return
        if self._is_ancestor(last_seq, seq):
            return
        self._note_race(token, last_cb, last_write, self._cur_cb, is_write)

    def _is_ancestor(self, ancestor_seq: int, seq: int) -> bool:
        parents = self._parents
        while True:
            parent = parents.get(seq)
            if parent is None:
                return False
            if parent == ancestor_seq:
                return True
            seq = parent

    def _note_race(self, token, first_cb, first_write, second_cb, second_write) -> None:
        kind = token[0]
        extra = _generic_stream(token[1]) if kind == "stream" else ""
        key = (kind, extra, _code_key(first_cb), _code_key(second_cb))
        if key in self._race_keys:
            return
        self._race_keys.add(key)
        path, line = self._call_site()
        mode = "write/write" if (first_write and second_write) else "read/write"
        self._races.append(
            {
                "path": path,
                "line": line,
                "message": (
                    f"same-timestamp {mode} conflict on "
                    f"{_token_desc(token)}: '{_label(first_cb)}' then "
                    f"'{_label(second_cb)}' — relative order decided "
                    "only by the scheduling sequence number"
                ),
            }
        )

    @property
    def race_candidates(self) -> int:
        return len(self._races)

    # ------------------------------------------------------------------
    # stream-discipline checker
    # ------------------------------------------------------------------

    def check_stream(self, name: str, owner: Optional[str]) -> None:
        """Validate one runtime stream lookup (called on every get)."""
        if name not in self._streams_checked:
            self._streams_checked.add(name)
            if not is_registered(name):
                path, line = self._call_site()
                self._add(
                    checks.STREAM_DISCIPLINE,
                    path,
                    line,
                    f"runtime draw from unregistered stream '{name}' — "
                    "an undeclared stream silently forks a fresh "
                    "sequence and breaks common-random-numbers "
                    "comparisons; declare it with register_stream",
                )
                return
        if owner is None:
            return
        declared = stream_owner(name)
        if declared and declared != owner:
            path, line = self._call_site()
            self._add(
                checks.STREAM_DISCIPLINE,
                path,
                line,
                f"stream '{name}' is owned by component '{declared}' "
                f"but was drawn by '{owner}' — cross-component draws "
                "entangle sequences that must stay independent",
            )

    def wrap_stream(self, name: str, raw) -> _SanStream:
        return _SanStream(self, name, raw)

    # ------------------------------------------------------------------
    # leak-audit checker
    # ------------------------------------------------------------------

    def _queues_drained(self, env: Environment) -> bool:
        return not env._fast and not env._heap

    def _audit_orphans(self, env: Environment) -> None:
        for process in self._processes:
            if not process._alive:
                continue
            generator = process._generator
            code = getattr(generator, "gi_code", None)
            if code is not None:
                path, line = relative_path(code.co_filename), code.co_firstlineno
            else:
                path, line = "<process>", 0
            self._add(
                checks.LEAK_AUDIT,
                path,
                line,
                f"orphaned process '{_label_process(process)}' is still "
                "alive but the event queues drained — it is waiting on "
                "an event nobody will ever succeed",
            )

    def _audit_couriers(self, network) -> None:
        inflight = getattr(network, "_inflight", None)
        if not inflight:
            return
        for courier in inflight:
            path, line = _courier_site(courier)
            self._add(
                checks.LEAK_AUDIT,
                path,
                line,
                f"undelivered courier '{getattr(courier, 'name', '?')}' "
                "still in flight after the run — its message will never "
                "reach its handler",
            )

    def _audit_cancelled(self) -> None:
        if self._cancelled_pending > 0:
            self._add(
                checks.LEAK_AUDIT,
                "<scheduler>",
                0,
                f"{self._cancelled_pending} cancelled handle(s) were "
                "never reaped from the scheduler — cancelled work is "
                "pinned in the queue past the end of the run",
            )

    def finish_env(self, env: Environment) -> None:
        """Kernel-level end-of-run audit (no simulation context)."""
        if self._queues_drained(env):
            self._audit_orphans(env)
        self._audit_cancelled()

    def finish_run(self, sim, result) -> None:
        """Simulation-level end-of-run audit plus the confirmer.

        Afterwards the sanitizer keeps only its findings: it drops the
        environment and the processes, so a sweep that sanitizes many
        runs never holds every finished simulation at once.
        """
        env = sim.env
        drained = self._queues_drained(env)
        if drained:
            self._audit_orphans(env)
            self._audit_couriers(sim.network)
        injector = getattr(sim, "fault_injector", None)
        if injector is not None:
            for kind, name, node, path, line in injector.iter_stranded():
                self._add(
                    checks.LEAK_AUDIT,
                    relative_path(path),
                    line,
                    f"{kind} '{name}' stranded on crashed node {node} "
                    "at simulation end",
                )
        if self._races and self.confirm:
            self._confirm_races(sim, result)
        self.env = None
        self._processes.clear()
        self._last_access.clear()

    # ------------------------------------------------------------------
    # Differential confirmer
    # ------------------------------------------------------------------

    def _confirm_races(self, sim, result) -> None:
        """Classify race candidates by perturbing the tie-break order.

        Re-runs the same configuration with ``tiebreak="reverse-batch"``
        (same-timestamp batches execute in *descending* seq order) and
        diffs the ``SimulationResult``.  The perturbed run is a
        finite-horizon deterministic simulation of the same config, so
        it terminates exactly like the primary run did; one extra run
        per sanitized config bounds the confirmer's cost.
        """
        from repro.core.simulation import Simulation

        try:
            perturbed = Simulation(
                sim.config, tiebreak="reverse-batch"
            ).run()
        except Exception as exc:  # noqa: BLE001 - any divergence is a verdict
            self._race_verdict = True
            self._race_detail = (
                f"perturbed tie-break run failed outright: {type(exc).__name__}: {exc}"
            )
            return
        diff = diff_results(result, perturbed)
        if diff:
            self._race_verdict = True
            self._race_detail = "perturbed tie-break changed " + diff
        else:
            self._race_verdict = False

    # ------------------------------------------------------------------
    # Finding assembly
    # ------------------------------------------------------------------

    def _call_site(self) -> Tuple[str, int]:
        frame = sys._getframe(2)
        skip = self._skip_files
        while frame is not None and frame.f_code.co_filename in skip:
            frame = frame.f_back
        if frame is None:
            return ("<unknown>", 0)
        return (relative_path(frame.f_code.co_filename), frame.f_lineno)

    def _add(self, check_id: str, path: str, line: int, message: str, severity: Optional[str] = None) -> None:
        if severity is None:
            severity = checks.get_check(check_id).severity
        key = (check_id, path, line, message)
        if key in self._finding_keys:
            return
        self._finding_keys.add(key)
        self.findings.append(
            Violation(
                rule_id=check_id,
                path=path,
                line=line,
                col=0,
                message=message,
                severity=severity,
            )
        )

    def finalize(self) -> List[Violation]:
        """All findings for this run, races classified, stably sorted."""
        if self._finalized is not None:
            return self._finalized
        findings = list(self.findings)
        if self._race_verdict is None:
            race_severity = checks.get_check(checks.SAME_TIME_RACE).severity
            suffix = " [unconfirmed]"
        elif self._race_verdict:
            race_severity = "error"
            # The changed-field list (self._race_detail) is run-specific
            # and must stay out of the message: findings dedup and
            # baseline-match on their text, which has to be stable
            # across grid points and seeds.
            suffix = (
                " [outcome-changing: a perturbed tie-break order "
                "produced a different SimulationResult]"
            )
        else:
            race_severity = "warning"
            suffix = " [benign-commutative: perturbed tie-break run produced an identical SimulationResult]"
        for race in self._races:
            findings.append(
                Violation(
                    rule_id=checks.SAME_TIME_RACE,
                    path=race["path"],
                    line=race["line"],
                    col=0,
                    message=race["message"] + suffix,
                    severity=race_severity,
                )
            )
        findings.sort(key=lambda v: v.sort_key)
        self._finalized = findings
        return findings


def _label_process(process: Process) -> str:
    name = getattr(process, "name", None)
    if name:
        return str(name)
    generator = process._generator
    code = getattr(generator, "gi_code", None)
    if code is not None:
        return code.co_qualname if hasattr(code, "co_qualname") else code.co_name
    return type(process).__name__


def _courier_site(courier) -> Tuple[str, int]:
    handler = getattr(courier, "handler", None)
    code = _code_of(handler) if handler is not None else None
    if code is not None:
        return (relative_path(code.co_filename), code.co_firstlineno)
    return ("<network>", 0)


def diff_results(primary, perturbed) -> str:
    """One-line summary of how two SimulationResults differ ('' if not)."""
    first = primary.as_dict()
    second = perturbed.as_dict()
    changed = []
    for field in sorted(set(first) | set(second)):
        if first.get(field) != second.get(field):
            changed.append(field)
    if not changed:
        return ""
    shown = ", ".join(changed[:4])
    if len(changed) > 4:
        shown += f", ... ({len(changed)} fields)"
    return shown
