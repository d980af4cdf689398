"""Rewrite ``expected_digests.json`` from the current simulator.

Usage::

    python3 perfbench/record_digests.py

Records every workload's per-point digests at the default seed (42)
and the held-out seed (1989) at bench length, and at seed 42 at smoke
length for the benchmark's own tests.  Run it only for a change that
is meant to alter simulated results; a speed-up must leave the file
as it is.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED_PATH, SRC, run_point

RECORDED = {"bench": (42, 1989), "smoke": (42,)}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    table = {
        length: {
            str(seed): {
                name: run_point(name, seed, length, False)["digests"]
                for name in WORKLOADS
            }
            for seed in seeds
        }
        for length, seeds in RECORDED.items()
    }
    EXPECTED_PATH.write_text(
        json.dumps(table, indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
