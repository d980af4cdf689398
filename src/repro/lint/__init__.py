"""simlint — determinism static analysis.

The simulator must be a pure function of its configuration: identical
configs (seed included) give bit-identical schedules and metrics.  That
property is easy to break with ordinary-looking Python — an ``id()``
-keyed dict, a module-level ``random.random()`` call, iterating a
``set`` to pick a deadlock victim — and such breaks are invisible to
the type checker and usually to the test suite (they only show up as
rare cross-run flakes).  simlint rejects those bug classes at review
time.  It parses every source file once, runs the file rules on each
tree, and then runs one project pass (:mod:`repro.lint.project`) over
the same trees: the random-stream discipline, which checks every draw
site against the ``register_stream`` calls of every module; the
running simulator refuses the same hazard on every stream it creates,
dynamically named ones included.  What a sim process may yield,
whether it re-enters ``env.run()``, a ``post`` handler's arity and a
CC manager's ``crash_reset`` are refused by the running simulator
only.

Usage::

    python -m repro.lint src benchmarks tests
    python -m repro.lint src --format=json
    python -m repro.lint --format=sarif
    python -m repro.lint --select 'stream-*' --list-rules

The one waiver is an inline, per-rule comment on the flagged line::

    if top.time == now:  # simlint: ignore[float-time-equality]

Only live ``error``-severity findings fail a run.

This package module imports nothing.  See :mod:`repro.lint.rules`
for the file rules, :mod:`repro.lint.project` for the project rule, and
:mod:`repro.lint.engine` for file discovery and the one-pass run.
"""
