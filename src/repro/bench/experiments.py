"""The paper's evaluation as one list of experiments.

Each :class:`Experiment` is one runner with its quick and full-size
arguments, plus one table function.  ``python -m repro.bench [--full]``
prints :meth:`Experiment.text` for the experiments it is given.  The
matching ``benchmarks/bench_*.py`` asserts the paper anchors on the
full-size points and writes the same table to
``benchmarks/results/<result>.txt``, so ``--full`` prints exactly the
committed results file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional

from ..util.units import KiB, MiB, fmt_bytes
from .ablation import run_ber_sweep, run_ordering_ablation, run_wc_ablation
from .anatomy import run_latency_anatomy
from .app_bench import run_halo_comparison
from .boot_bench import prototype_stage_times, run_boot_scaling
from .coherence_bench import run_coherence_scaling
from .compare_bench import run_baseline_comparison
from .futures import run_link_speed_sweep
from .microbench import run_bandwidth_sweep, run_latency_sweep, run_multihop
from .mpi_bench import run_mpi_overhead
from .msglib_bench import (
    endpoint_footprint_table,
    run_fan_in,
    run_msglib_latency,
)
from .reporting import series_plot, table

__all__ = ["Experiment", "EXPERIMENTS"]


@dataclass(frozen=True)
class Experiment:
    """``runner(**quick_args)`` or ``runner(**full_args)`` returns the
    points; ``table(points)`` renders them."""

    runner: Callable[..., Any]
    quick_args: Mapping[str, Any]
    full_args: Mapping[str, Any]
    table: Callable[[Any], str]
    #: ``benchmarks/results/<result>.txt`` holds ``text(full=True)``.
    result: Optional[str] = None

    def points(self, full: bool) -> Any:
        return self.runner(**(self.full_args if full else self.quick_args))

    def text(self, full: bool) -> str:
        return self.table(self.points(full))


def _size(n: int) -> str:
    return f"{n // MiB} MiB" if n % MiB == 0 else f"{n // KiB} KiB"


def _fig6_table(points) -> str:
    weak = {p.size: p.mbps for p in points if p.mode == "weak"}
    strict = {p.size: p.mbps for p in points if p.mode == "strict"}
    sizes = sorted(weak)
    rows = [(fmt_bytes(s), round(weak[s]), round(strict[s])) for s in sizes]
    return (table(["size", "weak MB/s", "strict MB/s"], rows,
                  title="Figure 6: TCCluster bandwidth (reproduced)")
            + "\n\n" + series_plot([fmt_bytes(s) for s in sizes],
                                   [weak[s] for s in sizes],
                                   label="weakly ordered (MB/s)"))


def _latency(slot_counts, iters):
    """msglib ping-pong per slot count, plus the raw remote-store
    ping-pong (no library) at 64 B and 1 KiB."""
    return (run_msglib_latency(slot_counts=slot_counts, iters=iters),
            run_latency_sweep(sizes=(64, 1024), iters=iters))


def _fig7_table(res) -> str:
    points, raw = res
    rows = [(p.wire_bytes, p.payload_bytes, round(p.hrt_ns, 1))
            for p in points]
    return (table(["wire bytes", "payload", "HRT ns"], rows,
                  title="Figure 7: TCCluster latency "
                        "(reproduced, msglib ping-pong)")
            + "\n\n" + series_plot([p.wire_bytes for p in points],
                                   [p.hrt_ns for p in points],
                                   label="half round trip (ns)")
            + "\n\nraw remote-store ping-pong: "
            + ", ".join(f"{p.size}B={p.hrt_ns:.0f}ns" for p in raw))


def _hops_table(points) -> str:
    base = points[0].hrt_ns
    increments = [b.hrt_ns - a.hrt_ns for a, b in zip(points, points[1:])]
    rows = [(p.extra_hops, round(p.hrt_ns, 1), round(p.hrt_ns - base, 1))
            for p in points]
    return (table(["extra hops", "HRT ns", "delta vs 0 hops"], rows,
                  title="Multi-hop latency via numactl binding (reproduced)")
            + f"\nper-hop increments: {[round(i, 1) for i in increments]} ns")


def _ib_table(comp) -> str:
    bw = [(r.baseline, r.size, round(r.tcc_mbps), round(r.baseline_mbps),
           f"{r.ratio:.1f}x") for r in comp["bandwidth"]]
    lat = [(r.baseline, round(r.tcc_mbps), round(r.baseline_mbps),
            f"{r.ratio:.1f}x") for r in comp["latency"]]
    return (table(["baseline", "size B", "TCC MB/s", "base MB/s", "TCC adv"],
                  bw, title="TCCluster vs NIC interconnects: bandwidth")
            + "\n\n" + table(["baseline", "TCC ns", "base ns", "TCC adv"],
                             lat, title="64 B half-round-trip latency"))


def _coherence_table(points) -> str:
    by = {(p.protocol, p.nodes): p for p in points}
    rows = [(n, round(by["broadcast", n].avg_op_ns, 1),
             round(by["broadcast", n].probes_per_op, 1),
             round(by["directory", n].avg_op_ns, 1),
             round(by["tccluster", n].avg_op_ns, 1))
            for n in sorted({p.nodes for p in points})]
    return table(["nodes", "broadcast ns/op", "probes/op", "directory ns/op",
                  "tccluster ns/op"], rows,
                 title="Coherence scaling: why TCCluster abandons cache coherence")


def _boot(sizes, mesh_sizes):
    return (prototype_stage_times(),
            run_boot_scaling(sizes=sizes, mesh_sizes=mesh_sizes))


def _boot_table(res) -> str:
    stages, points = res
    rows = [(k, f"{v / 1000:.1f}") for k, v in stages.items()]
    rows2 = [(p.topology, p.supernodes, f"{p.boot_ns / 1000:.1f}",
              p.tcc_links_verified) for p in points]
    return (table(["stage", "completed at (us)"], rows,
                  title="Two-board prototype: firmware stage timeline")
            + "\n\n" + table(["topology", "supernodes", "boot us",
                              "TCC link ends verified"], rows2,
                             title="Boot scaling"))


def _endpoints(endpoint_counts, sender_counts, messages):
    return (endpoint_footprint_table(endpoint_counts),
            run_fan_in(sender_counts=sender_counts, messages=messages))


def _endpoints_table(res) -> str:
    foot, points = res
    rows = [(f.endpoints, f.ring_bytes, f.feedback_bytes, f.heap_bytes,
             f.total_bytes) for f in foot]
    rows2 = [(p.senders, p.messages, round(p.aggregate_mbps)) for p in points]
    return (table(["endpoints", "rings B", "feedback B", "heaps B", "total B"],
                  rows, title="Per-node footprint vs endpoint count")
            + "\n\n" + table(["senders", "messages", "aggregate MB/s"], rows2,
                             title="Fan-in throughput into one node"))


def _wc_table(points) -> str:
    rows = [(p.mapping, p.size, p.packets, round(p.mbps)) for p in points]
    return table(["mapping", "bytes", "link packets", "MB/s"], rows,
                 title=f"Write-combining ablation ({_size(points[0].size)} stream)")


def _ordering_table(points) -> str:
    rows = [("every line" if p.fence_interval == 1 else
             "never" if p.fence_interval is None else
             f"every {p.fence_interval}", round(p.mbps)) for p in points]
    return table(["sfence interval", "MB/s"], rows,
                 title="Ordering ablation: sfence frequency vs bandwidth")


def _reliability_table(points) -> str:
    rows = [(f"{p.error_rate:.2f}", round(p.mbps), p.retries,
             "yes" if p.delivered_ok else "NO") for p in points]
    return table(["pkt error rate", f"MB/s ({_size(points[0].size)})",
                  "retries", "lossless"], rows,
                 title="HT3 retry under injected link errors")


def _futures_table(points) -> str:
    rows = [(p.label, p.gbit_per_lane, round(p.sustained_mbps),
             round(p.small_mbps), round(p.latency_ns, 1)) for p in points]
    return (table(["configuration", "Gbit/s/lane", "sustained MB/s",
                   "64B MB/s", "64B HRT ns"], rows,
                  title="Future link speeds (paper Section VI outlook)")
            + "\nnote: past ~3.6 Gbit/s/lane the northbridge command rate "
              "(~20 ns per 64 B posted write) caps sustained bandwidth.")


def _app_table(results) -> str:
    tcc = results[0].per_iter_ns  # run_halo_comparison lists TCCluster first
    rows = [(r.fabric, r.iterations, f"{r.makespan_ns / 1000:.1f}",
             f"{r.per_iter_ns / 1000:.2f}", f"{r.per_iter_ns / tcc:.1f}x")
            for r in results]
    return table(["fabric", "iters", "makespan us", "per-iter us", "vs TCC"],
                 rows, title="2-D Jacobi halo exchange (2x2 ranks), identical MPI code")


def _mpi_table(points) -> str:
    rows = [(p.payload, round(p.msglib_hrt_ns, 1), round(p.mpi_hrt_ns, 1),
             round(p.overhead_ns, 1), f"{p.overhead_pct:.0f}%") for p in points]
    return table(["payload B", "msglib HRT ns", "MPI HRT ns", "overhead ns",
                  "rel"], rows,
                 title="MPI middleware overhead over the raw message library")


def _anatomy_table(a) -> str:
    return (table(["stage", "start ns", "end ns", "duration ns"], a.as_rows(),
                  title="Anatomy of one 64-byte message (one way)")
            + f"\ntotal: {a.total_ns:.1f} ns store-entry to detection")


EXPERIMENTS: Dict[str, Experiment] = {
    "fig6": Experiment(run_bandwidth_sweep,
                       dict(sizes=tuple(64 << i for i in range(0, 13, 2))),
                       dict(sizes=tuple(64 << i for i in range(17))),
                       _fig6_table, "fig6_bandwidth"),
    "fig7": Experiment(_latency, dict(slot_counts=(1, 2, 8, 16), iters=15),
                       dict(slot_counts=(1, 2, 4, 8, 16, 32, 64), iters=40),
                       _fig7_table, "fig7_latency"),
    "hops": Experiment(run_multihop, dict(iters=10), dict(iters=40),
                       _hops_table, "multihop_latency"),
    "ib": Experiment(run_baseline_comparison, dict(sizes=(64, 1024, MiB)),
                     dict(sizes=(64, 1024, 64 * KiB, MiB)),
                     _ib_table, "baseline_ib"),
    "coherence": Experiment(run_coherence_scaling,
                            dict(node_counts=(2, 8, 32), ops_per_node=20),
                            dict(node_counts=(2, 4, 8, 16, 32, 64),
                                 ops_per_node=40),
                            _coherence_table, "coherence_scaling"),
    "boot": Experiment(_boot, dict(sizes=(2, 4), mesh_sizes=(2,)),
                       dict(sizes=(2, 4, 8), mesh_sizes=(2, 3)),
                       _boot_table, "boot"),
    "endpoints": Experiment(_endpoints,
                            dict(endpoint_counts=(2, 32, 256, 512),
                                 sender_counts=(1, 2, 4), messages=16),
                            dict(endpoint_counts=(2, 8, 32, 128, 256, 512),
                                 sender_counts=(1, 2, 4, 7), messages=32),
                            _endpoints_table, "endpoints"),
    "wc": Experiment(run_wc_ablation, dict(size=32 * KiB),
                     dict(size=256 * KiB), _wc_table, "ablation_wc"),
    "ordering": Experiment(run_ordering_ablation, dict(size=32 * KiB),
                           dict(size=256 * KiB), _ordering_table,
                           "ablation_ordering"),
    "reliability": Experiment(run_ber_sweep,
                              dict(error_rates=(0.0, 0.05, 0.2),
                                   size=256 * KiB),
                              dict(error_rates=(0.0, 0.01, 0.05, 0.2),
                                   size=MiB),
                              _reliability_table, "reliability"),
    "futures": Experiment(run_link_speed_sweep, {}, {}, _futures_table,
                          "futures_link_speed"),
    "app": Experiment(run_halo_comparison, dict(iters=3), dict(iters=5),
                      _app_table, "app_halo"),
    "mpi": Experiment(run_mpi_overhead,
                      dict(payloads=(48, 512, 4096), iters=10),
                      dict(payloads=(48, 512, 4096), iters=30),
                      _mpi_table, "mpi_overhead"),
    "anatomy": Experiment(run_latency_anatomy, {}, {}, _anatomy_table),
}
