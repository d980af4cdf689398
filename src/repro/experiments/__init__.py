"""Experiment harness regenerating every table and figure (paper §4).

Each experiment module exposes functions named after the paper's
figures (``figure2`` ... ``figure17``) plus the textual ablations; all
of them take a :class:`~repro.experiments.fidelity.Fidelity` and return
:class:`~repro.analysis.series.FigureSeries` ready for printing.

The :mod:`~repro.experiments.runner` memoizes simulation runs within the
process, so the figures that share a sweep (2-7 share one, 8-13 share
another) pay for it once.  Independent grid points additionally fan out
longest first, one point per task, over a session-persistent worker
pool (``--jobs N`` / ``$REPRO_JOBS``, default ``os.cpu_count()``), and
an optional on-disk result cache (:mod:`~repro.experiments.result_cache`)
persists finished
points across sessions, keyed so only sim-relevant source changes
invalidate them.  Importing this package does not load simlint
(:mod:`repro.lint`).

Command line::

    python -m repro.experiments list
    python -m repro.experiments run fig2 fig4 --fidelity quick --jobs 4
    python -m repro.experiments run all --fidelity full
    python -m repro.experiments cache stats
    python -m repro.experiments cache clear
"""

from repro.experiments.fidelity import Fidelity
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.runner import (
    SweepExecutionError,
    cache_stats,
    clear_cache,
    configure,
    resolve_jobs,
    run_config,
    run_many,
    sweep,
)

__all__ = [
    "EXPERIMENTS",
    "Fidelity",
    "SweepExecutionError",
    "cache_stats",
    "clear_cache",
    "configure",
    "get_experiment",
    "resolve_jobs",
    "run_config",
    "run_many",
    "sweep",
]
