"""Canonical, deterministic runs behind the golden regression files.

Two producers, both reused by ``tests/`` and by
``python -m repro.obs.regen_goldens``:

* :func:`run_canonical_2node` -- a fixed message workload on the paper's
  two-board prototype with metrics enabled; its key-metric snapshot
  (message counts, per-TCC-link packets/bytes/busy time, latency
  percentiles, stall counters, final simulation time) is compared against
  ``tests/golden/canonical_2node.json``.  Any PR that perturbs timing or
  routing -- even by a few percent -- moves ``busy_ns``/latency/clock
  beyond tolerance and fails loudly instead of silently skewing the
  reproduced figures.

* :func:`run_golden_figures` -- the Figure 6 bandwidth and Figure 7
  latency models at a few representative points each, for
  ``tests/golden/fig6_bandwidth.json`` / ``fig7_latency.json``.

Everything here must stay deterministic: fixed sizes, fixed iteration
counts, no wall-clock or RNG inputs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ..util.calibration import TimingModel, DEFAULT_TIMING
from ..util.units import KiB, MiB

__all__ = [
    "run_canonical_2node",
    "run_golden_figures",
    "FIG6_GOLDEN_SIZES",
    "FIG6_SUSTAINED_SIZES",
    "FIG7_GOLDEN_SLOTS",
    "CANONICAL_TOLERANCES",
    "FIGURE_TOLERANCES",
]

#: Fast representative Figure 6 points: small-message regime, the knee,
#: and the buffering peak (256 KiB is the paper's quoted peak point).
FIG6_GOLDEN_SIZES = (64, 64 * KiB, 256 * KiB)
#: The sustained regime.  Figure 6's loop stores one line per call, and
#: one open-ended WC train carries each 4 MiB stream, so these points take
#: a few seconds; they run on a fresh prototype of their own.
FIG6_SUSTAINED_SIZES = (4 * MiB,)
#: Figure 7 points: single slot (the 227 ns anchor), a medium eager
#: message, and a full-ring-wrap 64-slot message.
FIG7_GOLDEN_SLOTS = (1, 8, 64)

#: Default tolerances for the canonical-trace golden.  Deterministic
#: counters must match exactly; timing-derived values get a tight band
#: (a +10% link-latency perturbation moves them far outside it).
CANONICAL_TOLERANCES: Dict[str, Any] = {
    "default_rel": 0.02,
    "keys": {
        "endpoints.*": {"rel": 0.0},
        "links.*": {"rel": 0.0},
        "links_busy.*": {"rel": 0.02},
        "latency.*": {"rel": 0.02},
        "time_ns": {"rel": 0.02},
        "stalls.*": {"abs": 2},
    },
}

#: Figure goldens allow a slightly wider band: they guard the headline
#: numbers, not exact event counts.
FIGURE_TOLERANCES: Dict[str, Any] = {"default_rel": 0.03}


def run_canonical_2node(
    timing: TimingModel = DEFAULT_TIMING,
    system=None,
) -> Dict[str, Any]:
    """Boot the two-board prototype, drive a fixed bidirectional message
    mix, and distill the metrics snapshot into golden-comparable keys.

    ``system``: an already-constructed (un-booted, metrics-enabled or not)
    :class:`TCClusterSystem` to run on instead of building one -- lets the
    wall-clock benchmark keep a handle on the simulator for its
    event/heap-push counters.  Metrics are enabled and the system booted
    here either way, so the golden snapshot is identical.
    """
    from ..core import TCClusterSystem  # full stack; import on use

    sys_ = system if system is not None else TCClusterSystem.two_board_prototype(timing=timing)
    sys_.enable_metrics()
    sys_.boot()
    cl = sys_.cluster
    a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
    tx, rx = sys_.connect(a, b)
    sim = sys_.sim

    # Deterministic mix spanning every protocol regime: single-slot eager,
    # multi-slot eager (with ring wrap), rendezvous, both ordering modes.
    fwd = (
        [bytes([i % 251 + 1]) * 48 for i in range(24)]           # 1 slot
        + [bytes([i % 7 + 1]) * 300 for i in range(12)]          # 6 slots
        + [bytes([i % 5 + 1]) * 5000 for i in range(4)]          # rendezvous
    )
    back = [bytes([i % 11 + 1]) * 200 for i in range(10)]

    def forward():
        for i, m in enumerate(fwd):
            yield from tx.send(m, mode="strict" if i % 4 == 0 else "weak")
        yield from tx.flush()
        for _ in back:
            yield from tx.recv()

    def backward():
        for _ in fwd:
            yield from rx.recv()
        for m in back:
            yield from rx.send(m)
        yield from rx.flush()

    pa = sim.process(forward())
    pb = sim.process(backward())
    sim.run_until_event(sim.all_of([pa, pb]))
    sim.run()  # drain in-flight fabric traffic

    snap = cl.metrics()
    tcc_name = snap["tcc_links"][0]
    tcc = snap["links"][tcc_name]
    lat = snap["message_latency_ns"]
    ab = snap["endpoints"][f"r{a}->r{b}"]
    ba = snap["endpoints"][f"r{b}->r{a}"]
    return {
        "time_ns": snap["time_ns"],
        "endpoints": {
            "fwd_sent": ab["msgs_sent"],
            "fwd_bytes": ab["bytes_sent"],
            "fwd_eager": ab["eager_sent"],
            "fwd_rendezvous": ab["rendezvous_sent"],
            "back_sent": ba["msgs_sent"],
            "back_bytes": ba["bytes_sent"],
            "fwd_max_inflight": ab["max_inflight_slots"],
        },
        "links": {
            "tcc_a_packets": tcc["A"]["packets"],
            "tcc_a_wire_bytes": tcc["A"]["wire_bytes"],
            "tcc_b_packets": tcc["B"]["packets"],
            "tcc_b_wire_bytes": tcc["B"]["wire_bytes"],
        },
        "links_busy": {
            "tcc_a_busy_ns": tcc["A"]["busy_ns"],
            "tcc_b_busy_ns": tcc["B"]["busy_ns"],
        },
        "latency": {
            "count": lat["count"],
            "p50_ns": lat["p50"],
            "p99_ns": lat["p99"],
            "mean_ns": lat["mean"],
        },
        "stalls": {
            "fwd_tx_stalls": ab["tx_stalls"],
            "back_tx_stalls": ba["tx_stalls"],
        },
    }


def run_golden_figures(
    fig6_sizes: Sequence[int] = FIG6_GOLDEN_SIZES,
    fig7_slots: Sequence[int] = FIG7_GOLDEN_SLOTS,
    timing: TimingModel = DEFAULT_TIMING,
    system=None,
) -> Dict[str, Any]:
    """Headline Figure 6 / Figure 7 numbers at representative points."""
    from ..bench import make_prototype, run_bandwidth_sweep, run_msglib_latency

    sys_ = system or make_prototype(timing)
    out: Dict[str, Any] = {"fig6": {}, "fig7": {}}
    if fig6_sizes:
        for p in run_bandwidth_sweep(sizes=tuple(fig6_sizes),
                                     modes=("weak", "strict"), system=sys_):
            out["fig6"][f"{p.mode}.{p.size}"] = {"mbps": p.mbps}
    if fig7_slots:
        for p in run_msglib_latency(slot_counts=tuple(fig7_slots),
                                    iters=20, system=sys_):
            out["fig7"][f"slots{p.slots}"] = {
                "wire_bytes": p.wire_bytes,
                "hrt_ns": p.hrt_ns,
            }
    return out
