"""Executor tests for the persistent pool, dispatch, and transport.

The contracts under test:

* the worker pool is spawned once per session and reused by every
  subsequent batch (no new pool, no new worker processes);
* longest-first dispatch, one point per task, still assembles results
  bit-identical to the serial path, in input order, for any ``jobs``;
* the memo/disk/simulated counters and the task/IPC counters account
  for every grid point exactly once;
* a poisoned grid point aborts the sweep promptly, cancelling the
  tasks that have not started instead of letting the batch drain.
"""

import pytest

from repro.core.config import paper_default_config
from repro.experiments import worker_pool
from repro.experiments.executor import (
    SweepExecutionError,
    SweepExecutor,
)
from repro.experiments.fidelity import Fidelity
from repro.experiments.result_cache import ResultCache
from repro.experiments.scaling import ALGORITHMS, scaling_config


def tiny_config(algorithm="no_dc", think_time=30.0, seed=7):
    return paper_default_config(
        algorithm, think_time=think_time, seed=seed
    ).with_(duration=2.0, warmup=0.5).with_workload(
        num_terminals=4, think_time=think_time
    )


def small_grid(seed=7):
    return [
        tiny_config(algorithm, think_time, seed=seed)
        for algorithm in ("no_dc", "opt", "2pl")
        for think_time in (0.0, 30.0)
    ]


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts and ends without a live pool, so pool-size and
    generation observations cannot leak between tests."""
    worker_pool.shutdown_pool()
    yield
    worker_pool.shutdown_pool()


class TestPoolReuse:
    def test_two_batches_spawn_no_new_workers(self):
        """The acceptance check: consecutive ``run_many`` batches run
        on the same pool generation and the same worker processes."""
        executor = SweepExecutor(jobs=2)
        executor.run_many(small_grid(seed=7))
        generation = worker_pool.pool_generation()
        first_pids = set(executor.worker_pids)
        assert executor.stats.pool_batches == 1
        assert first_pids  # the pool really ran the chunks

        executor.run_many(small_grid(seed=8))
        assert worker_pool.pool_generation() == generation
        assert executor.stats.pool_batches == 2
        assert set(executor.worker_pids) == first_pids

    def test_pool_shared_across_executors(self):
        first = SweepExecutor(jobs=2)
        first.run_many(small_grid(seed=7)[:3])
        generation = worker_pool.pool_generation()
        second = SweepExecutor(jobs=2)
        second.run_many(small_grid(seed=9)[:3])
        assert worker_pool.pool_generation() == generation

    def test_pool_grows_but_never_shrinks(self):
        SweepExecutor(jobs=2).run_many(small_grid(seed=7)[:3])
        generation = worker_pool.pool_generation()
        assert worker_pool.pool_workers() == 2
        # More workers: one respawn.
        SweepExecutor(jobs=3).run_many(small_grid(seed=8)[:4])
        assert worker_pool.pool_generation() == generation + 1
        assert worker_pool.pool_workers() == 3
        # Fewer workers: the larger pool is reused as-is.
        SweepExecutor(jobs=2).run_many(small_grid(seed=9)[:3])
        assert worker_pool.pool_generation() == generation + 1
        assert worker_pool.pool_workers() == 3

    def test_shutdown_is_idempotent(self):
        worker_pool.shutdown_pool()
        worker_pool.shutdown_pool()
        assert worker_pool.pool_workers() == 0


class TestStatsUnderPool:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_bit_identical_and_fully_accounted(self, jobs, tmp_path):
        """Work-stealing completion order must not leak into results
        (input-order assembly) or the counters."""
        configs = small_grid()
        serial = SweepExecutor(jobs=1).run_many(configs)

        executor = SweepExecutor(
            jobs=jobs, cache=ResultCache(tmp_path / "cache")
        )
        results = executor.run_many(configs)
        assert [r.as_dict() for r in results] == [
            r.as_dict() for r in serial
        ]
        assert executor.stats.simulated == len(configs)
        assert executor.stats.memo_hits == 0
        assert executor.stats.disk_hits == 0
        if jobs > 1:
            assert executor.stats.pool_batches == 1
            assert executor.stats.chunks_dispatched > 0
            assert executor.stats.ipc_bytes > 0
            assert executor.stats.pool_wall_seconds > 0
            assert executor.stats.worker_compute_seconds > 0
        else:
            assert executor.stats.pool_batches == 0
            assert executor.stats.chunks_dispatched == 0
            assert executor.stats.ipc_bytes == 0
        # Workers wrote the disk entries either way.
        assert executor.cache.entry_count() == len(configs)

        # A repeat batch is all memo hits — no new chunks, no IPC.
        chunks_before = executor.stats.chunks_dispatched
        ipc_before = executor.stats.ipc_bytes
        again = executor.run_many(configs)
        assert [r.as_dict() for r in again] == [
            r.as_dict() for r in serial
        ]
        assert executor.stats.memo_hits == len(configs)
        assert executor.stats.chunks_dispatched == chunks_before
        assert executor.stats.ipc_bytes == ipc_before

    def test_chunk_accounting_matches_grid(self):
        configs = small_grid() + small_grid(seed=8)  # 12 distinct points
        executor = SweepExecutor(jobs=2)
        executor.run_many(configs)
        # One point per task.
        assert executor.stats.chunks_dispatched == 12
        assert executor.stats.chunks_cancelled == 0

    def test_duplicate_configs_deduplicated(self):
        config = tiny_config()
        executor = SweepExecutor(jobs=2)
        results = executor.run_many([config] * 50)
        assert executor.stats.simulated == 1
        assert len(results) == 50
        assert all(r == results[0] for r in results)


class TestLongestFirst:
    def test_fig_sweep_grid_dispatches_eight_node_points_first(
        self, monkeypatch
    ):
        """Figure 4's think-0 column (five algorithms on 1 and 8
        nodes, as perfbench's ``fig-sweep`` runs it, over a shorter
        horizon): the 8-node points go out first, one per task, in
        input order among themselves, and the results come back in
        input order, bit-identical to a serial run."""
        fidelity = Fidelity(
            name="longest-first",
            duration=2.0,
            warmup=1.0,
            target_commits=0,
            max_duration=2.0,
            think_times=(0.0,),
        )
        configs = [
            scaling_config(fidelity, algorithm, 0.0, nodes)
            for nodes in (1, 8)
            for algorithm in ALGORITHMS
        ]
        serial = SweepExecutor(jobs=1).run_many(configs)

        pool = worker_pool.get_pool(2)
        submitted = []
        submit = pool.submit

        def recording_submit(function, index, chunk, cache_dir):
            submitted.append(list(chunk))
            return submit(function, index, chunk, cache_dir)

        monkeypatch.setattr(pool, "submit", recording_submit)
        executor = SweepExecutor(jobs=2)
        results = executor.run_many(configs)
        assert [len(chunk) for chunk in submitted] == [1] * len(configs)
        assert [chunk[0] for chunk in submitted] == (
            configs[5:] + configs[:5]
        )
        assert executor.stats.chunks_dispatched == len(configs)
        assert [r.as_dict() for r in results] == [
            r.as_dict() for r in serial
        ]


class TestFailureSemantics:
    def test_poisoned_point_aborts_promptly(self):
        """The first failure cancels the tasks that never started —
        the sweep must not drain the whole grid behind a dead point.

        The poison passes ``validate()`` but fails at simulation
        setup, so it dies in a worker almost instantly while the other
        tasks are real simulations; seven points at jobs=2, one point
        per task and at most two in flight, leave the rest
        cancellable.
        """
        poison = tiny_config().with_(cc_algorithm="bogus")
        grid = [poison] + [
            tiny_config("opt", think_time, seed=seed)
            for seed in (1, 2, 3)
            for think_time in (0.0, 30.0)
        ]
        executor = SweepExecutor(jobs=2)
        with pytest.raises(SweepExecutionError) as excinfo:
            executor.run_many(grid)
        assert excinfo.value.config.cc_algorithm == "bogus"
        assert executor.stats.chunks_cancelled >= 1
        assert executor.stats.simulated < len(grid) - 1

    def test_serial_failure_still_carries_config(self):
        poison = tiny_config().with_(cc_algorithm="bogus")
        with pytest.raises(SweepExecutionError) as excinfo:
            SweepExecutor(jobs=1).run_many([tiny_config(), poison])
        assert excinfo.value.config.cc_algorithm == "bogus"
