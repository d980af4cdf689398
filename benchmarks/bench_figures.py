"""Every registered figure, scaling variant, ablation, extension, and
sensitivity sweep, as one benchmark parametrized by registry id.

Each case regenerates one experiment via the experiment registry and
prints its tables; the benchmark time is the wall-clock cost of the
underlying simulation sweep (shared sweeps are memoized, so the first
figure of a group carries the cost).  The case then checks the shape
the paper (or the extension's design) predicts.  Set
REPRO_FIDELITY=full for the EXPERIMENTS.md-quality run::

    pytest benchmarks/bench_figures.py --benchmark-only
    pytest "benchmarks/bench_figures.py::test_figure[fig10]"
"""

import pytest

#: Registry id -> shape check taking ``(figures, fidelity)``.
SHAPES = {}


def shape(experiment_id):
    """Register the decorated function as ``experiment_id``'s check."""

    def register(check):
        SHAPES[experiment_id] = check
        return check

    return register


@shape("fig2")
def fig02_throughput(figures, fidelity):
    (figure_1node, figure_8node) = figures
    # Sanity of shape: every algorithm produces positive throughput at
    # the heaviest load, and the 8-node machine out-produces the
    # 1-node machine there.
    for figure in figures:
        for name, curve in figure.curves.items():
            assert curve[0] is not None and curve[0] > 0, name
    assert (
        figure_8node.value_at("no_dc", 0.0)
        > figure_1node.value_at("no_dc", 0.0)
    )


@shape("fig3")
def fig03_response_time(figures, fidelity):
    (figure_1node, figure_8node) = figures
    # Response times fall as load lightens, for every algorithm.
    for figure in figures:
        for name, curve in figure.curves.items():
            assert curve[0] > curve[-1], name


@shape("fig4")
def fig04_throughput_speedup(figures, fidelity):
    (figure,) = figures
    # Near-linear speedup under heavy load, approaching 1 when idle.
    assert figure.curve("no_dc")[0] > 5.0
    assert figure.curve("no_dc")[-1] < 2.0


@shape("fig5")
def fig05_response_speedup(figures, fidelity):
    (figure,) = figures
    curve = figure.curve("no_dc")
    # The hallmark hump: mid-load speedups far exceed the machine-size
    # ratio of 8 (the paper reports over 100 for NO_DC).
    assert max(v for v in curve if v is not None) > 8.0


@shape("fig6")
def fig06_disk_utilization(figures, fidelity):
    for figure in figures:
        for curve in figure.curves.values():
            assert all(0.0 <= v <= 1.0 for v in curve)
    # Heaviest load saturates the disks on the small machine.
    assert figures[0].curve("no_dc")[0] > 0.9


@shape("fig7")
def fig07_cpu_utilization(figures, fidelity):
    for figure in figures:
        for curve in figure.curves.values():
            assert all(0.0 <= v <= 1.0 for v in curve)
    # Slightly I/O bound: CPUs run hot but below saturation at think 0.
    assert 0.5 < figures[1].curve("no_dc")[0] <= 1.0


@shape("fig8")
def fig08_partition_speedup_large(figures, fidelity):
    (figure,) = figures
    # Roughly fivefold parallelism gain at the lightest loads.
    assert figure.curve("no_dc")[-1] > 3.0


@shape("fig9")
def fig09_partition_speedup_small(figures, fidelity):
    (figure,) = figures
    assert figure.curve("no_dc")[-1] > 3.0
    # Little to gain at think 0 where the machine is saturated.
    assert figure.curve("no_dc")[0] < 2.0


@shape("fig10")
def fig10_degradation_8way(figures, fidelity):
    (figure,) = figures
    assert "no_dc" not in figure.curves
    # OPT suffers the largest degradation under heavy load.
    heavy = {n: c[0] for n, c in figure.curves.items()}
    assert heavy["opt"] >= heavy["2pl"]


@shape("fig11")
def fig11_degradation_1way(figures, fidelity):
    (figure,) = figures
    heavy = {n: c[0] for n, c in figure.curves.items()}
    assert heavy["opt"] >= heavy["2pl"]


@shape("fig12")
def fig12_abort_ratio_8way(figures, fidelity):
    (figure,) = figures
    heavy = {n: c[0] for n, c in figure.curves.items()}
    # The paper's ordering: OPT > WW > BTO > 2PL.
    assert heavy["opt"] > heavy["2pl"]
    assert heavy["ww"] > heavy["bto"]


@shape("fig13")
def fig13_abort_ratio_1way(figures, fidelity):
    (figure,) = figures
    heavy = {n: c[0] for n, c in figure.curves.items()}
    assert heavy["opt"] > heavy["2pl"]


@shape("fig14")
def fig14_overhead_free_tt0(figures, fidelity):
    (figure,) = figures
    # NO_DC gains almost nothing from partitioning at think 0.
    no_dc = [v for v in figure.curve("no_dc") if v is not None]
    assert max(no_dc) < 1.5


@shape("fig15")
def fig15_overhead_free_tt8(figures, fidelity):
    (figure,) = figures
    # With the load lightened, partitioning starts paying off.
    assert figure.curve("no_dc")[-1] > 1.1


@shape("fig16")
def fig16_msg4k_tt0(figures, fidelity):
    (figure,) = figures
    # Expensive messages flatten the NO_DC curve relative to Fig 14.
    no_dc = [v for v in figure.curve("no_dc") if v is not None]
    assert max(no_dc) < 1.6


@shape("fig17")
def fig17_msg4k_tt8(figures, fidelity):
    (figure,) = figures
    # The paper's crossover: with 4K messages, 8-way no longer beats
    # 4-way for the abort-heavy algorithms (OPT in particular).
    opt = figure.curve("opt")
    assert opt[-1] <= opt[-2] * 1.15


@shape("scaling4")
def scaling_4node(figures, fidelity):
    throughput_figure, response_figure = figures
    # Throughput speedup approaches 4 under heavy load.
    assert throughput_figure.curve("no_dc")[0] > 2.5


@shape("scaling16")
def scaling_16node(figures, fidelity):
    throughput, response = figures
    if fidelity.name == "smoke":
        return
    # Near-linear throughput speedup at heavy load, like the 8-node
    # trend, but against the 16x larger machine.
    assert throughput.curve("no_dc")[0] > 8.0
    # Response-time speedup exceeds the parallelism-only limit at
    # moderate loads (the same hump as Figure 5).
    best = max(
        v for v in response.curve("no_dc") if v is not None
    )
    assert best > 10.0


@shape("overheads-baseline")
def ablation_overheads_baseline(figures, fidelity):
    assert len(figures) == 2


@shape("startup20k")
def ablation_startup20k(figures, fidelity):
    assert len(figures) == 2


@shape("txn32")
def ablation_txn32(figures, fidelity):
    (figure,) = figures
    assert figure.curve("no_dc")[-1] > 2.0


@shape("seq-vs-par")
def ablation_seq_vs_par(figures, fidelity):
    (figure,) = figures
    # At the lightest load, parallel cohorts beat sequential chains.
    seq = figure.curve("no_dc-seq")[-1]
    par = figure.curve("no_dc-par")[-1]
    assert par < seq


@shape("writeprob")
def ablation_writeprob(figures, fidelity):
    eighth, quarter = figures
    # More writes, more aborts: the 1/4 setting aborts more for every
    # algorithm at the heaviest load.
    assert quarter.curve("opt")[0] > eighth.curve("opt")[0]


@shape("spectrum")
def extension_spectrum(figures, fidelity):
    throughput, abort_ratio = figures
    heavy_tput = {
        name: curve[0] for name, curve in throughput.curves.items()
    }
    # The pure-abort extreme pays the highest abort bill under load.
    heavy_aborts = {
        name: curve[0] for name, curve in abort_ratio.curves.items()
    }
    assert heavy_aborts["ir"] >= heavy_aborts["2pl"]
    assert heavy_tput["no_dc"] >= heavy_tput["ir"]


@shape("replication")
def extension_replication(figures, fidelity):
    cheap_messages, costly_messages = figures
    if fidelity.name == "smoke":
        return
    # Replication is never free: every algorithm loses throughput
    # going from 1 to 4 copies at either message cost.
    for figure in (cheap_messages, costly_messages):
        for name, curve in figure.curves.items():
            assert curve[-1] < curve[0], (name, curve)


@shape("faults")
def extension_faults(figures, fidelity):
    (
        crash_tput, availability, crash_abort, crash_blocked,
        loss_tput, loss_abort, loss_blocked,
    ) = figures
    if fidelity.name == "smoke":
        return
    for name, curve in crash_tput.curves.items():
        # Rarer crashes can only help: the MTBF sweep is ordered
        # harshest-first, so throughput must improve end to end.
        assert curve[-1] > curve[0], (name, curve)
    for name, curve in loss_tput.curves.items():
        # Message loss is never free at the 5% corner.
        assert curve[-1] < curve[0], (name, curve)
    for name, curve in loss_abort.curves.items():
        # The loss sweep starts at probability 0: no failure-induced
        # aborts at the armed-but-idle baseline.
        assert curve[0] == 0.0, (name, curve)


@shape("host-speed")
def sensitivity_host_speed(figures, fidelity):
    throughput, host_util = figures
    no_dc = throughput.curve("no_dc")
    # At 10 MIPS the host must not be the bottleneck: throughput within
    # a whisker of the 20 MIPS point, and host utilization comfortably
    # below saturation.
    assert no_dc[-2] > 0.9 * no_dc[-1]
    ten_mips_util = host_util.value_at("no_dc", 10.0)
    assert ten_mips_util < 0.5


@shape("detection-interval")
def sensitivity_detection_interval(figures, fidelity):
    response, aborts = figures
    curve = response.curve("2pl")
    # Slower detection leaves global deadlocks blocking longer: the
    # 10 s point must not beat the 0.1 s point.
    assert curve[-1] >= curve[0] * 0.9


@shape("terminals")
def sensitivity_terminals(figures, fidelity):
    (series,) = figures
    if fidelity.name == "smoke":
        return  # smoke windows truncate multi-minute response times
    no_dc = series.curve("no_dc")
    opt = series.curve("opt")
    # NO_DC saturates: its last point stays near its peak.
    assert no_dc[-1] > 0.8 * max(no_dc)
    # OPT thrashes: well below its own peak at the highest MPL.
    assert opt[-1] < 0.9 * max(opt)


@pytest.mark.parametrize("experiment_id", list(SHAPES))
def test_figure(run_experiment, fidelity, experiment_id):
    SHAPES[experiment_id](run_experiment(experiment_id), fidelity)
