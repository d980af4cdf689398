"""Deterministic online classifier: per-class algorithm selection.

One epsilon-greedy bandit per routing class, with the candidate
algorithms as arms.  The reward signal combines the two costs the
paper's experiments trade off — response time and wasted work:

    cost(arm) = mean_commit_latency * (1 + abort_penalty * abort_ratio)

Arms with fewer than ``min_samples`` completed transactions are filled
first, in candidate order, so every candidate gets a reward estimate
before exploitation starts.  After that, each decision flips an
exploration coin from the dedicated ``router-explore`` stream (epsilon
rate); exploration picks uniformly among the candidates via
``router-choice``, exploitation takes the lowest-cost arm with ties
broken by candidate order.

Determinism discipline (the same rules the workload streams follow):

* All randomness comes from the two registered ``router-*`` streams —
  routing never perturbs workload, resource, or fault sequences.
* Degenerate cases consume **no** draw: a single candidate, an
  undersampled arm, or ``epsilon == 0`` all decide without touching a
  stream, so configurations that cannot explore are bit-identical to
  ones where the streams were never created.
* Decisions happen in the coordinator's deterministic event order and
  depend only on previously *completed* transactions, so the sequence
  of (class, arm) decisions is identical across ``--jobs`` settings
  and between clean and sanitized runs.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.sim.streams import RandomStreams

__all__ = ["RoutingPolicy"]


class _ArmStats:
    __slots__ = ("commits", "aborts", "latency_sum")

    def __init__(self):
        self.commits = 0
        self.aborts = 0
        self.latency_sum = 0.0

    @property
    def samples(self) -> int:
        return self.commits + self.aborts


class RoutingPolicy:
    """Epsilon-greedy per-class choice among candidate algorithms."""

    def __init__(
        self,
        candidates: Sequence[str],
        epsilon: float,
        min_samples: int,
        abort_penalty: float,
        streams: RandomStreams,
    ):
        self.candidates = tuple(candidates)
        self.epsilon = epsilon
        self.min_samples = min_samples
        self.abort_penalty = abort_penalty
        self._streams = streams
        #: class key -> arm name -> statistics.
        self._stats: Dict[str, Dict[str, _ArmStats]] = {}
        # Stream handles, created lazily on the first real coin flip so
        # a policy that never explores leaves the streams uncreated.
        self._explore_draw = None
        self._choice_stream = None

    def _arms(self, class_key: str) -> Dict[str, _ArmStats]:
        arms = self._stats.get(class_key)
        if arms is None:
            arms = {name: _ArmStats() for name in self.candidates}
            self._stats[class_key] = arms
        return arms

    def _cost(self, stats: _ArmStats) -> float:
        mean_latency = stats.latency_sum / stats.commits
        abort_ratio = stats.aborts / stats.samples
        return mean_latency * (1.0 + self.abort_penalty * abort_ratio)

    def choose(self, class_key: str) -> str:
        """Pick the algorithm for one transaction of ``class_key``."""
        if len(self.candidates) == 1:
            return self.candidates[0]
        arms = self._arms(class_key)
        for name in self.candidates:
            if arms[name].samples < self.min_samples:
                return name
        if self.epsilon > 0.0:
            if self._explore_draw is None:
                self._explore_draw = self._streams.get(
                    "router-explore", owner="router"
                ).random
            if self._explore_draw() < self.epsilon:
                if self._choice_stream is None:
                    self._choice_stream = self._streams.get(
                        "router-choice", owner="router"
                    )
                index = self._choice_stream.randrange(
                    len(self.candidates)
                )
                return self.candidates[index]
        best = self.candidates[0]
        # An arm can be all-aborts (commits == 0) after the fill-in
        # phase under faults; treat it as infinitely costly.
        best_cost = None
        for name in self.candidates:
            stats = arms[name]
            cost = (
                self._cost(stats) if stats.commits > 0 else float("inf")
            )
            if best_cost is None or cost < best_cost:
                best = name
                best_cost = cost
        return best

    def record_commit(
        self, class_key: str, arm: str, response_time: float
    ) -> None:
        """Feed one commit's response time back into the arm."""
        stats = self._arms(class_key).get(arm)
        if stats is not None:
            stats.commits += 1
            stats.latency_sum += response_time

    def record_abort(self, class_key: str, arm: str) -> None:
        """Feed one aborted attempt back into the arm."""
        stats = self._arms(class_key).get(arm)
        if stats is not None:
            stats.aborts += 1

    def snapshot(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-class, per-arm statistics (test/metrics support)."""
        return {
            class_key: {
                name: {
                    "commits": stats.commits,
                    "aborts": stats.aborts,
                    "latency_sum": stats.latency_sum,
                }
                for name, stats in arms.items()
            }
            for class_key, arms in self._stats.items()
        }
