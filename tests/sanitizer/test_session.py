"""The process-global sanitizer session: activation, env-var wiring,
and cross-run finding dedup."""

from repro.lint.violations import Violation
from repro.sanitizer import session


def finding(message="m", path="p.py", line=1, rule="leak-audit"):
    return Violation(
        rule_id=rule,
        path=path,
        line=line,
        col=0,
        message=message,
        severity="error",
    )


class TestActivation:
    def test_inactive_by_default(self):
        assert not session.sanitizing_active()

    def test_activate_deactivate(self):
        session.activate()
        assert session.sanitizing_active()
        session.deactivate()
        assert not session.sanitizing_active()

    def test_env_var_truthy_forms(self, monkeypatch):
        for value in ("1", "true", "YES", " on "):
            monkeypatch.setenv("REPRO_SIMSAN", value)
            assert session.sanitizing_active(), value
        for value in ("", "0", "false", "off"):
            monkeypatch.setenv("REPRO_SIMSAN", value)
            assert not session.sanitizing_active(), value

    def test_confirm_flag_follows_activation(self, monkeypatch):
        session.activate(confirm=False)
        assert not session.confirm_enabled()
        session.activate(confirm=True)
        assert session.confirm_enabled()
        monkeypatch.setenv("REPRO_SIMSAN_CONFIRM", "0")
        assert not session.confirm_enabled()


class TestRecording:
    def test_record_run_counts_and_collects(self):
        session.record_run([finding("a"), finding("b")])
        assert session.session_runs() == 1
        assert len(session.session_findings()) == 2

    def test_cross_run_dedup_by_identity_key(self):
        """The same stable finding from every grid point collapses to
        one row; distinct messages stay distinct."""
        session.record_run([finding("same")])
        session.record_run([finding("same"), finding("other")])
        session.record_run([finding("same")])
        assert session.session_runs() == 3
        messages = [v.message for v in session.session_findings()]
        assert messages == ["same", "other"]

    def test_reset_clears_both(self):
        session.record_run([finding()])
        session.reset_findings()
        assert session.session_runs() == 0
        assert session.session_findings() == []


def test_simulator_import_stays_clear_of_the_linter():
    """Simulation and sweep-worker processes import the sanitizer,
    which reaches ``repro.lint.violations``; that must not load the
    linter, its process pool, or logging."""
    import subprocess
    import sys

    probe = (
        "import sys\n"
        "import repro.core.simulation\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('repro.lint')))\n"
        "print('concurrent.futures' in sys.modules,"
        " 'logging' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.splitlines()
    assert out == [
        "['repro.lint', 'repro.lint.violations']",
        "False False",
    ]
