"""The runtime sanitizer: hook sink, checkers, and finding factory.

A :class:`Sanitizer` is attached to one :class:`~repro.sim.kernel.Environment`
(``Environment(sanitizer=...)``).  The kernel and the stream registry
call tiny guarded hooks::

    san = env._san
    if san is not None:
        san.note_process(self)

so a clean run pays one attribute load and a predictable branch, and a
sanitized run funnels everything here.  The dispatch loop is the same
either way and calls no hook: the processes it registers and the
queues it audits at the end tell it all it needs.
Findings carry no seq numbers, timestamps or ``id()`` values, so
reports are bit-stable across runs and machines.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.violations import Violation
from repro.sanitizer import checks
from repro.sim.kernel import Environment, Process
from repro.sim.streams import is_registered, stream_owner

__all__ = ["Sanitizer", "relative_path"]

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


class Sanitizer:
    """Collects hook events for one sanitized run and emits findings."""

    def __init__(self):
        self.findings: List[Violation] = []
        self._finding_keys: set = set()
        # Stream names whose registration has been validated.
        self._streams_checked: set = set()
        # Processes to audit for orphans at the end of the run.
        self._processes: Dict[Process, None] = {}
        # Runtime modules whose frames are skipped when anchoring a
        # finding: the interesting line is the model-level call site.
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
    # Process registration (called by the kernel)
    # ------------------------------------------------------------------

    def note_process(self, process: Process) -> None:
        self._processes[process] = None

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

    def finish_env(self, env: Environment) -> None:
        """Kernel-level end-of-run audit (no simulation context):
        orphaned processes, when both queues drained."""
        if self._queues_drained(env):
            self._audit_orphans(env)

    def finish_run(self, sim) -> None:
        """Simulation-level end-of-run audit.

        Orphaned processes and undelivered couriers are audited only
        when both queues drained.  A closed-loop simulation stopped at
        its horizon still has work queued (terminals thinking, disks
        serving), so those two audits fire only when every process is
        stuck; the stranded-work audit of a fault injector runs on
        every faulted run.  Afterwards the sanitizer keeps only its
        findings: it drops the processes, so a sweep that sanitizes
        many runs never holds every finished simulation at once.
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
        self._processes.clear()

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

    def _add(self, check_id: str, path: str, line: int, message: str) -> None:
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
                severity=checks.get_check(check_id).severity,
            )
        )

    def finalize(self) -> List[Violation]:
        """All findings for this run, stably sorted."""
        return sorted(self.findings, key=lambda v: v.sort_key)


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
