"""Per-node resource manager (paper §3.4, Table 3).

Wraps one CPU and ``NumDisks`` disks, offering the services the
transaction and concurrency control managers consume.  Each request
is an event a process yields directly:

* ``cpu.execute(instructions)`` — processor-sharing CPU work on the
  node's :class:`~repro.sim.resources.CPU`, interruptible: when the
  waiting process is aborted mid-service the residual work is cancelled
  so the CPU is not burned on a dead cohort.
* :meth:`read_page` — a synchronous page read on a randomly chosen disk
  (the paper assumes files are balanced over a node's disks, so each
  request picks a disk uniformly at random).  Queued reads are
  cancelled on interrupt; an in-service transfer completes (a seek
  cannot be abandoned) but the waiter stops waiting for it.
* :meth:`initiate_async_write` — the post-commit write-back: queues a
  high-priority disk write that nobody waits for (the caller charges
  ``InstPerUpdate`` CPU first).

A request cancels itself when its interrupted waiter unsubscribes.
Callers skip non-positive CPU work themselves
(``if instructions > 0.0: yield cpu.execute(instructions)``).
"""

from __future__ import annotations

import random
from typing import List

from repro.sim.kernel import Environment, Event
from repro.sim.resources import CPU, Disk, DiskRequestKind

__all__ = ["ResourceManager"]

# Module constants are cheaper lookups than Enum members.
_READ = DiskRequestKind.READ
_WRITE = DiskRequestKind.WRITE


class ResourceManager:
    """CPU and disk services for one node."""

    def __init__(
        self,
        env: Environment,
        node_id: int,
        cpu_mips: float,
        num_disks: int,
        min_disk_time: float,
        max_disk_time: float,
        disk_stream: random.Random,
        disk_choice_stream: random.Random,
        inst_per_update: float,
    ):
        self.env = env
        self.node_id = node_id
        self.cpu = CPU(env, cpu_mips, name=f"cpu[{node_id}]")
        self.disks: List[Disk] = [
            Disk(
                env,
                min_disk_time,
                max_disk_time,
                disk_stream,
                name=f"disk[{node_id}.{index}]",
            )
            for index in range(num_disks)
        ]
        self._disk_choice = disk_choice_stream
        self.inst_per_update = inst_per_update

    # ------------------------------------------------------------------
    # Disks
    # ------------------------------------------------------------------

    def read_page(self) -> Event:
        """Read one page from a random disk; fires when it is read.

        An interrupted waiter cancels the read if it is still queued.
        """
        disks = self.disks
        return disks[self._disk_choice.randrange(len(disks))].access(_READ)

    def initiate_async_write(self) -> None:
        """Queue a post-commit page write-back that nobody waits on."""
        disks = self.disks
        disks[self._disk_choice.randrange(len(disks))].access(_WRITE)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def cpu_utilization(self, now: float) -> float:
        """Time-average CPU busy fraction since the last stats reset."""
        return self.cpu.busy_time.mean(now)

    def disk_utilization(self, now: float) -> float:
        """Time-average busy fraction over this node's disks."""
        if not self.disks:
            return 0.0
        return sum(
            disk.busy_time.mean(now) for disk in self.disks
        ) / len(self.disks)

    def reset_statistics(self, now: float) -> None:
        """Restart utilization windows (end of warmup)."""
        self.cpu.busy_time.reset(now)
        for disk in self.disks:
            disk.busy_time.reset(now)

    def __repr__(self) -> str:
        return (
            f"<ResourceManager node={self.node_id}"
            f" mips={self.cpu.mips} disks={len(self.disks)}>"
        )
