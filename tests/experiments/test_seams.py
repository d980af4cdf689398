"""Where the experiments layer meets the simulator and the tooling.

Simulation runs never load simlint, and every simulation an
experiment runs is built by the sweep executor, so the executor's
``simulation`` method reaches every run.
"""

import ast
import subprocess
import sys
from pathlib import Path

import repro.experiments

EXPERIMENTS_DIR = Path(repro.experiments.__file__).parent


def test_clean_imports_load_no_analysis_tooling():
    """Importing the simulator and the experiments does not load the
    linter; the simulator alone also stays clear of process pools and
    logging."""
    probe = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "        if m.startswith('repro.lint'))\n"
        "import repro.core.simulation\n"
        "print(loaded(), 'concurrent.futures' in sys.modules,"
        " 'logging' in sys.modules)\n"
        "import repro, repro.experiments\n"
        "print(loaded())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    assert out == ["[] False False", "[]"]


def _direct_builds(path: Path):
    """Yield ``(function, line)`` for each ``Simulation(...)`` or
    ``run_simulation(...)`` call in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                if name in ("Simulation", "run_simulation"):
                    yield function, child.lineno
            yield from visit(child, function)

    yield from visit(tree, None)


def test_only_the_executor_builds_simulations():
    """Besides the executor, only the CLI's one-off ``simulate`` verb
    builds a ``Simulation`` directly."""
    offenders = [
        f"{path.name}:{line} in {function}"
        for path in sorted(EXPERIMENTS_DIR.glob("*.py"))
        if path.name != "executor.py"
        for function, line in _direct_builds(path)
        if (path.name, function) != ("cli.py", "_run_single")
    ]
    assert offenders == []


def test_the_scan_sees_a_direct_build(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "def timed(config):\n"
        "    return Simulation(config).run()\n",
        encoding="utf-8",
    )
    assert list(_direct_builds(source)) == [("timed", 2)]
