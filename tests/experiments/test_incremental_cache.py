"""Incremental invalidation: source-fingerprinted cache keys.

The contract under test: the cache key composes the schema version
with a content hash of the sim-relevant source packages
(``SIM_SOURCE_PACKAGES``), so

* an experiment-layer-only edit recomputes **zero** cached points,
* a ``sim/kernel.py`` edit dirties **all** of them,
* ``prune`` reclaims exactly the entries a code change stranded,
* ``source_census`` reports how much of the cache an edit dirtied.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import paper_default_config
from repro.experiments import result_cache
from repro.experiments.cli import main as cli_main
from repro.experiments.executor import SweepExecutor
from repro.experiments.result_cache import (
    SIM_SOURCE_PACKAGES,
    ResultCache,
    config_digest,
    source_fingerprint,
)

#: Packages under ``src/repro/`` that only build configs from, or read,
#: simulation results; edits there must leave the cache warm.
RESULT_CONSUMERS = ("experiments", "analysis", "lint")


def tiny_config(algorithm="no_dc", think_time=30.0, seed=7):
    return paper_default_config(
        algorithm, think_time=think_time, seed=seed
    ).with_(duration=2.0, warmup=0.5).with_workload(num_terminals=4)


def fake_tree(root: Path) -> None:
    """A miniature src/repro layout with sim-relevant and
    experiment-layer files."""
    for name, body in {
        "sim/kernel.py": "EVENT = 1\n",
        "sim/stats.py": "BINS = 10\n",
        "cc/locks.py": "MODES = ('S', 'X')\n",
        "core/config.py": "SEED = 42\n",
        "faults/injectors.py": "MTBF = 3600.0\n",
        "experiments/runner.py": "JOBS = 4\n",
        "analysis/series.py": "AXES = 2\n",
    }.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")


class TestSourceFingerprint:
    def test_stable_for_identical_trees(self, tmp_path):
        fake_tree(tmp_path / "a")
        fake_tree(tmp_path / "b")
        assert source_fingerprint(
            tmp_path / "a"
        ) == source_fingerprint(tmp_path / "b")

    def test_experiment_layer_edit_keeps_fingerprint(self, tmp_path):
        fake_tree(tmp_path)
        before = source_fingerprint(tmp_path)
        (tmp_path / "experiments/runner.py").write_text(
            "JOBS = 8\n", encoding="utf-8"
        )
        (tmp_path / "analysis/series.py").write_text(
            "AXES = 3\n", encoding="utf-8"
        )
        assert source_fingerprint(tmp_path) == before

    @pytest.mark.parametrize(
        "edited",
        [
            "sim/kernel.py",
            "cc/locks.py",
            "core/config.py",
            "faults/injectors.py",
        ],
    )
    def test_sim_relevant_edit_changes_fingerprint(
        self, tmp_path, edited
    ):
        fake_tree(tmp_path)
        before = source_fingerprint(tmp_path)
        (tmp_path / edited).write_text(
            "# changed\n", encoding="utf-8"
        )
        assert source_fingerprint(tmp_path) != before

    def test_new_sim_file_changes_fingerprint(self, tmp_path):
        fake_tree(tmp_path)
        before = source_fingerprint(tmp_path)
        (tmp_path / "sim/wheel.py").write_text(
            "SLOTS = 256\n", encoding="utf-8"
        )
        assert source_fingerprint(tmp_path) != before

    def test_every_package_is_fingerprinted_or_a_consumer(self):
        """A new package under ``src/repro/`` must be classified: its
        edits either dirty the cache or, for a package that only
        consumes results, leave every entry valid."""
        import repro

        root = Path(repro.__file__).resolve().parent
        packages = sorted(
            path.name
            for path in root.iterdir()
            if (path / "__init__.py").is_file()
        )
        assert not set(SIM_SOURCE_PACKAGES) & set(RESULT_CONSUMERS)
        assert packages == sorted(SIM_SOURCE_PACKAGES + RESULT_CONSUMERS)

    def test_default_is_memoized(self):
        assert source_fingerprint() == source_fingerprint()
        assert len(source_fingerprint()) == 16

    def test_digest_composes_fingerprint(self, monkeypatch):
        before = config_digest(tiny_config())
        monkeypatch.setattr(
            result_cache, "_FINGERPRINT", "0" * 16
        )
        assert config_digest(tiny_config()) != before


class TestIncrementalInvalidation:
    @pytest.fixture
    def warm_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        executor = SweepExecutor(jobs=1, cache=cache)
        for seed in (1, 2, 3):
            executor.run_one(tiny_config(seed=seed))
        assert cache.entry_count() == 3
        return cache

    def test_same_source_recomputes_zero(self, warm_cache):
        """An experiment-layer-only edit leaves the fingerprint, and
        therefore every entry, untouched."""
        executor = SweepExecutor(
            jobs=1, cache=ResultCache(warm_cache.directory)
        )
        for seed in (1, 2, 3):
            executor.run_one(tiny_config(seed=seed))
        assert executor.stats.simulated == 0
        assert executor.stats.disk_hits == 3

    def test_sim_source_change_dirties_everything(
        self, warm_cache, monkeypatch
    ):
        """A sim-relevant edit (simulated by a changed fingerprint)
        makes every stored entry unreachable."""
        monkeypatch.setattr(result_cache, "_FINGERPRINT", "f" * 16)
        executor = SweepExecutor(
            jobs=1, cache=ResultCache(warm_cache.directory)
        )
        for seed in (1, 2, 3):
            executor.run_one(tiny_config(seed=seed))
        assert executor.stats.simulated == 3
        assert executor.stats.disk_hits == 0

    def test_census_reports_dirtied_fraction(
        self, warm_cache, monkeypatch
    ):
        assert warm_cache.source_census() == {
            "fresh": 3, "stale": 0,
        }
        monkeypatch.setattr(result_cache, "_FINGERPRINT", "f" * 16)
        cache = ResultCache(warm_cache.directory)
        SweepExecutor(jobs=1, cache=cache).run_one(
            tiny_config(seed=9)
        )
        assert cache.source_census() == {"fresh": 1, "stale": 3}

    def test_prune_reclaims_only_stale_entries(
        self, warm_cache, monkeypatch
    ):
        monkeypatch.setattr(result_cache, "_FINGERPRINT", "f" * 16)
        cache = ResultCache(warm_cache.directory)
        fresh_config = tiny_config(seed=9)
        result = SweepExecutor(jobs=1, cache=cache).run_one(
            fresh_config
        )
        assert cache.entry_count() == 4
        assert cache.prune() == 3
        assert cache.entry_count() == 1
        assert cache.get(fresh_config) == result

    def test_prune_drops_corrupt_entries(self, warm_cache):
        (warm_cache.directory / "bogus.json").write_text(
            "{ not json", encoding="utf-8"
        )
        assert warm_cache.prune() == 1
        assert warm_cache.entry_count() == 3

    def test_stale_schema_is_pruned(self, warm_cache):
        entry = next(iter(warm_cache.directory.glob("*.json")))
        payload = json.loads(entry.read_text(encoding="utf-8"))
        payload["schema"] = -1
        entry.write_text(json.dumps(payload), encoding="utf-8")
        assert warm_cache.prune() == 1


class TestCacheCli:
    @pytest.fixture
    def cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path / "cache")
        )
        cache = ResultCache(tmp_path / "cache")
        SweepExecutor(jobs=1, cache=cache).run_one(tiny_config())
        return cache

    def test_stats_reports_freshness(self, cache_env, capsys):
        assert cli_main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries        1" in out
        assert f"source         {source_fingerprint()}" in out
        assert "fresh          1" in out
        assert "stale          0" in out

    def test_prune_verb(self, cache_env, capsys, monkeypatch):
        monkeypatch.setattr(result_cache, "_FINGERPRINT", "f" * 16)
        assert cli_main(["cache", "prune"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 stale entries" in out
        assert cache_env.entry_count() == 0

    def test_prune_keeps_fresh_entries(self, cache_env, capsys):
        assert cli_main(["cache", "prune"]) == 0
        out = capsys.readouterr().out
        assert "removed 0 stale entries" in out
        assert cache_env.entry_count() == 1
