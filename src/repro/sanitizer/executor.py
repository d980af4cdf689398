"""The sweep executor that ``python -m repro.sanitizer`` runs experiments on.

Experiments reach their simulations through the runner's process-wide
:class:`~repro.experiments.executor.SweepExecutor`.  The CLI swaps a
:class:`SanitizingExecutor` in for the command
(:func:`repro.experiments.runner.using_executor`), so every simulation
an experiment asks for is built with a fresh
:class:`~repro.sanitizer.core.Sanitizer` and really runs under the
hooks.  It differs from the default executor in three ways:

* it is serial and in-process: no run goes to a pool worker, whose
  findings would die with it;
* it has no disk cache, in either direction: a cache hit would skip
  the instrumented run, and cache keys hash the config and the
  sources, not the execution mode, so a sanitized entry would look
  like a clean one to every later run;
* its memo starts empty, so a config requested twice in one command
  is sanitized once and its findings are counted once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.config import SimulationConfig
from repro.core.metrics import SimulationResult
from repro.core.simulation import Simulation
from repro.experiments.executor import SweepExecutor
from repro.lint.violations import Violation
from repro.sanitizer.core import Sanitizer

__all__ = ["SanitizingExecutor"]


class SanitizingExecutor(SweepExecutor):
    """Serial, cache-free executor that sanitizes each simulation."""

    def __init__(self):
        super().__init__(jobs=1)
        self._sanitizers: List[Sanitizer] = []

    def simulation(self, config: SimulationConfig) -> Simulation:
        sanitizer = Sanitizer()
        self._sanitizers.append(sanitizer)
        return Simulation(config, sanitizer=sanitizer)

    def run_many(
        self,
        configs: Sequence[SimulationConfig],
        jobs: Optional[int] = None,
    ) -> List[SimulationResult]:
        """As the base class, but never on the pool, whatever ``jobs``."""
        return super().run_many(configs, jobs=1)

    @property
    def runs(self) -> int:
        """Simulations built so far, each with its own sanitizer."""
        return len(self._sanitizers)

    def findings(self) -> List[Violation]:
        """Every run's findings, each distinct one once, first seen first.

        Two findings are the same when their check, path, line and
        message agree, so a hazard every grid point hits is one row.
        """
        seen = set()
        merged: List[Violation] = []
        for sanitizer in self._sanitizers:
            for violation in sanitizer.finalize():
                key = (
                    violation.rule_id,
                    violation.path,
                    violation.line,
                    violation.message,
                )
                if key not in seen:
                    seen.add(key)
                    merged.append(violation)
        return merged
