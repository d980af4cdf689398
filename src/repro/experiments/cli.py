"""Command-line front end for the experiment harness.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run fig2 --fidelity smoke
    python -m repro.experiments run all --fidelity full --out results/
    python -m repro.experiments run fig9 --jobs 4
    python -m repro.experiments cache stats
    python -m repro.experiments cache prune
    python -m repro.experiments cache clear

``run`` fans independent sweep points out longest first, one point per
task, over ``--jobs`` persistent worker processes (default
``$REPRO_JOBS``, else all cores) and persists finished simulations
under ``results/.cache/`` (``$REPRO_CACHE_DIR`` overrides the
location; ``--no-cache`` or
``REPRO_CACHE=off`` disables persistence), so a re-run only simulates
missing points.  Cache keys track the sim-relevant source content, so
only code changes that can affect results invalidate entries;
``cache prune`` reclaims the invalidated ones.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.ascii_chart import render_chart
from repro.analysis.series import format_table
from repro.experiments import runner
from repro.experiments.export import write_figures
from repro.experiments.fidelity import Fidelity
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.result_cache import (
    ResultCache,
    default_cache_dir,
    source_fingerprint,
)

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of Carey & Livny "
            "(SIGMOD 1989)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list experiment ids")
    run_parser = subparsers.add_parser(
        "run", help="run one or more experiments"
    )
    run_parser.add_argument(
        "ids",
        nargs="+",
        help="experiment ids (e.g. fig2 fig9), or 'all'",
    )
    run_parser.add_argument(
        "--fidelity",
        choices=("smoke", "quick", "full"),
        default=None,
        help="run length preset (default: $REPRO_FIDELITY or quick)",
    )
    run_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write each experiment's tables to this directory",
    )
    run_parser.add_argument(
        "--chart",
        action="store_true",
        help="render ASCII charts after each table",
    )
    run_parser.add_argument(
        "--csv",
        action="store_true",
        help="with --out: also write per-figure CSV files",
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="with --out: also write a JSON file per experiment",
    )
    run_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help=(
            "worker processes for sweep points "
            "(default: $REPRO_JOBS or all cores; 1 = serial)"
        ),
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the persistent result cache",
    )
    cache_parser = subparsers.add_parser(
        "cache", help="inspect or maintain the persistent result cache"
    )
    cache_parser.add_argument(
        "verb",
        choices=("stats", "prune", "clear"),
        help=(
            "'stats' reports entries/bytes/freshness; 'prune' deletes "
            "entries invalidated by code changes; 'clear' deletes all"
        ),
    )
    simulate_parser = subparsers.add_parser(
        "simulate",
        help="run a single ad-hoc configuration and print the result",
    )
    simulate_parser.add_argument(
        "--algorithm", default="2pl",
        help="cc algorithm (2pl, ww, bto, opt, no_dc, wd, ir)",
    )
    simulate_parser.add_argument(
        "--think", type=float, default=8.0,
        help="mean terminal think time in seconds",
    )
    simulate_parser.add_argument(
        "--nodes", type=int, default=8,
        help="number of processing nodes",
    )
    simulate_parser.add_argument(
        "--degree", type=int, default=None,
        help="degree of partitioning (default: all nodes)",
    )
    simulate_parser.add_argument(
        "--file-size", type=int, default=300,
        help="pages per partition (Table 4 uses 300 or 1200)",
    )
    simulate_parser.add_argument(
        "--copies", type=int, default=1,
        help="replication factor (extension; read-one/write-all)",
    )
    simulate_parser.add_argument(
        "--terminals", type=int, default=128,
        help="number of terminals",
    )
    simulate_parser.add_argument(
        "--duration", type=float, default=60.0,
        help="measurement window in simulated seconds",
    )
    simulate_parser.add_argument(
        "--warmup", type=float, default=20.0,
        help="warmup in simulated seconds",
    )
    simulate_parser.add_argument(
        "--seed", type=int, default=42, help="random seed"
    )
    return parser


def _resolve_fidelity(name: Optional[str]) -> Fidelity:
    if name is None:
        return Fidelity.from_env()
    return {
        "smoke": Fidelity.smoke,
        "quick": Fidelity.quick,
        "full": Fidelity.full,
    }[name]()


def _run_single(arguments) -> int:
    """The ``simulate`` subcommand: one ad-hoc configuration."""
    from repro.core.config import (
        PlacementKind,
        paper_default_config,
    )
    from repro.core.simulation import run_simulation

    degree = (
        arguments.degree
        if arguments.degree is not None
        else arguments.nodes
    )
    placement = (
        PlacementKind.COLOCATED
        if degree == 1
        else PlacementKind.DECLUSTERED
    )
    config = paper_default_config(
        arguments.algorithm,
        think_time=arguments.think,
        num_proc_nodes=arguments.nodes,
        pages_per_partition=arguments.file_size,
        placement=placement,
        placement_degree=degree,
        seed=arguments.seed,
    ).with_database(copies=arguments.copies).with_workload(
        num_terminals=arguments.terminals,
        think_time=arguments.think,
    ).with_(duration=arguments.duration, warmup=arguments.warmup)
    started = time.time()
    result = run_simulation(config)
    elapsed = time.time() - started
    print(f"# {result.label}  ({elapsed:.1f}s wall)")
    for key, value in result.as_dict().items():
        if isinstance(value, float):
            print(f"{key:16s} {value:.4f}")
        else:
            print(f"{key:16s} {value}")
    if result.abort_reasons:
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(
                result.abort_reasons.items()
            )
        )
        print(f"{'abort_reasons':16s} {reasons}")
    return 0


def _cache_enabled(arguments) -> bool:
    if getattr(arguments, "no_cache", False):
        return False
    return os.environ.get("REPRO_CACHE", "on").lower() not in (
        "off", "0", "no", "false",
    )


def _run_cache_command(verb: str) -> int:
    """The ``cache`` subcommand: inspect or maintain the disk cache."""
    cache = ResultCache(default_cache_dir())
    if verb == "clear":
        removed = cache.clear()
        print(f"cache clear: removed {removed} entries "
              f"from {cache.directory}")
        return 0
    if verb == "prune":
        removed = cache.prune()
        print(f"cache prune: removed {removed} stale entries "
              f"from {cache.directory}")
        return 0
    census = cache.source_census()
    print(f"cache dir      {cache.directory}")
    print(f"entries        {cache.entry_count()}")
    print(f"size           {cache.size_bytes()} bytes")
    print(f"source         {source_fingerprint()}")
    print(f"fresh          {census['fresh']}")
    print(f"stale          {census['stale']}  (reclaim: cache prune)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    arguments = _build_parser().parse_args(argv)
    if arguments.command == "list":
        for experiment in EXPERIMENTS.values():
            print(f"{experiment.id:20s} {experiment.description}")
        return 0
    if arguments.command == "cache":
        return _run_cache_command(arguments.verb)
    if arguments.command == "simulate":
        return _run_single(arguments)
    try:
        runner.configure(
            jobs=arguments.jobs,
            cache_dir=(
                default_cache_dir() if _cache_enabled(arguments)
                else None
            ),
        )
    except ValueError as error:
        print(f"repro-experiments run: error: {error}", file=sys.stderr)
        return 2
    fidelity = _resolve_fidelity(arguments.fidelity)
    ids = list(arguments.ids)
    if ids == ["all"]:
        ids = list(EXPERIMENTS)
    exit_code = 0
    for experiment_id in ids:
        try:
            experiment = get_experiment(experiment_id)
        except KeyError as error:
            print(error, file=sys.stderr)
            exit_code = 2
            continue
        started = time.time()
        figures = experiment.run(fidelity)
        elapsed = time.time() - started
        chunks = [format_table(figure) for figure in figures]
        if arguments.chart:
            chunks.extend(render_chart(figure) for figure in figures)
        body = "\n\n".join(chunks)
        print(f"=== {experiment.id} ({elapsed:.1f}s wall, "
              f"fidelity={fidelity.name}) ===")
        print(body)
        print()
        if arguments.out is not None:
            arguments.out.mkdir(parents=True, exist_ok=True)
            path = arguments.out / f"{experiment.id}.txt"
            path.write_text(body + "\n", encoding="utf-8")
            write_figures(
                figures,
                arguments.out,
                experiment.id,
                csv_output=arguments.csv,
                json_output=arguments.json,
            )
    stats = runner.cache_stats()
    summary = (
        f"cache: {stats['simulated']} simulated, "
        f"{stats['disk_hits']} disk hits, "
        f"{stats['memo_hits']} memo hits"
    )
    if "disk_entries" in stats:
        summary += f" ({stats['disk_entries']} entries on disk)"
    print(summary)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
