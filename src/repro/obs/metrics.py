"""Metrics registry: named counters, gauges, log-bucketed histograms.

The registry is the instrumentation backbone of the simulator.  Hardware
and library models record into it from their hot paths, so it follows the
same contract :class:`~repro.sim.trace.Tracer` documents: **near-zero
cost when disabled**.  Every instrumentation site is guarded by a single
attribute read (``if registry.enabled:``), and a registry starts
disabled; the Figure 6/7 sweeps therefore pay nothing unless a caller
opts in via :func:`enable_metrics`.

One registry exists per :class:`~repro.sim.engine.Simulator` (attached
lazily by :func:`metrics_for`), so every component of one simulated
cluster -- links, northbridges, endpoints -- shares a namespace and a
single snapshot covers the whole machine.

Metric kinds:

* **counter** -- monotonically increasing int/float (packets, stalls),
* **gauge** -- last-value (queue depth) with an optional tracked max,
* **histogram** -- :class:`LogHistogram`, power-of-two bucketed samples
  with percentile estimation (latency distributions),
* **accumulator** -- re-exported :class:`IntervalAccumulator` for
  time-weighted averages (occupancy, utilization).

The registry also provides the cross-process *message latency pairing*
used by the message library: the sending endpoint stamps
``note_send(src, dst)``, the receiving endpoint pops the stamp with
``pop_send(src, dst)`` (delivery is FIFO per directed pair, so a deque
per pair is exact).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Deque, Dict, Optional, Tuple

from ..sim.engine import SimulationError
from ..sim.trace import IntervalAccumulator

__all__ = [
    "LogHistogram",
    "MetricsRegistry",
    "metrics_for",
    "enable_metrics",
    "datapath_counters",
    "FaultCounters",
    "fault_counters",
    "FlowCounters",
    "flow_counters",
    "CollectiveCounters",
    "collective_counters",
]


class LogHistogram:
    """Histogram with power-of-two buckets, built for latency in ns.

    Bucket ``i`` covers ``[2**i, 2**(i+1))``; values below 1 land in
    bucket 0.  Percentiles interpolate linearly inside the bucket, which
    is accurate enough for regression detection (the golden harness
    compares p50/p99 under a relative tolerance).
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = defaultdict(int)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    @staticmethod
    def bucket_of(value: float) -> int:
        if value < 1.0:
            return 0
        return max(0, int(value).bit_length() - 1)

    def add(self, value: float) -> None:
        self.buckets[self.bucket_of(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "LogHistogram") -> None:
        for b, n in other.buckets.items():
            self.buckets[b] += n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0..100)."""
        if not self.count:
            return float("nan")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} out of range")
        target = p / 100.0 * self.count
        seen = 0
        for b in sorted(self.buckets):
            n = self.buckets[b]
            if seen + n >= target:
                lo, hi = float(1 << b), float(1 << (b + 1))
                frac = (target - seen) / n
                est = lo + frac * (hi - lo)
                # Clamp to the observed range: a single-bucket histogram
                # must not report beyond its true min/max.
                return max(self.min, min(self.max, est))
            seen += n
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (sparse buckets, keyed by lower bound)."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "buckets": {str(1 << b): n for b, n in sorted(self.buckets.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<LogHistogram n={self.count} p50={self.percentile(50):.1f}>"


class MetricsRegistry:
    """Shared, named metrics for one simulator.  Starts disabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.counters: Dict[str, float] = defaultdict(int)
        self.gauges: Dict[str, float] = {}
        self.gauge_max: Dict[str, float] = {}
        self.histograms: Dict[str, LogHistogram] = {}
        self.accumulators: Dict[str, IntervalAccumulator] = {}
        self._inflight: Dict[Tuple[int, int], Deque[float]] = defaultdict(deque)

    # -- recording (call sites guard on .enabled themselves) -------------
    def inc(self, name: str, amount: float = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] += amount

    def set_gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.gauges[name] = value
        if value > self.gauge_max.get(name, float("-inf")):
            self.gauge_max[name] = value

    def histogram(self, name: str) -> LogHistogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = LogHistogram()
        return h

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.histogram(name).add(value)

    def accumulator(self, name: str) -> IntervalAccumulator:
        a = self.accumulators.get(name)
        if a is None:
            a = self.accumulators[name] = IntervalAccumulator()
        return a

    def track(self, name: str, time: float, value: float) -> None:
        """Time-weighted sample (occupancy-style) plus max gauge."""
        if not self.enabled:
            return
        a = self.accumulators.get(name)
        if a is None:
            a = self.accumulators[name] = IntervalAccumulator()
        a.update(time, value)
        gm = self.gauge_max
        prev = gm.get(name)
        if prev is None or value > prev:
            gm[name] = value

    # -- message latency pairing -----------------------------------------
    def note_send(self, src: int, dst: int, time: float) -> None:
        if not self.enabled:
            return
        self._inflight[(src, dst)].append(time)

    def pop_send(self, src: int, dst: int) -> Optional[float]:
        q = self._inflight.get((src, dst))
        if not q:
            return None
        return q.popleft()

    def inflight(self, src: int, dst: int) -> int:
        return len(self._inflight.get((src, dst), ()))

    # -- snapshot / diff ---------------------------------------------------
    def snapshot(self, now: float) -> Dict[str, Any]:
        """One JSON-ready view of everything recorded so far."""
        return {
            "time_ns": now,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "gauge_max": dict(self.gauge_max),
            "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
            "accumulators": {
                k: {"avg": a.average(now), "samples": a.samples}
                for k, a in self.accumulators.items()
            },
        }

    @staticmethod
    def diff(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
        """Counter deltas between two snapshots (new keys count from 0)."""
        b = before.get("counters", {})
        a = after.get("counters", {})
        out = {k: v - b.get(k, 0) for k, v in a.items() if v != b.get(k, 0)}
        return {
            "time_ns": after.get("time_ns", 0) - before.get("time_ns", 0),
            "counters": out,
        }

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.gauge_max.clear()
        self.histograms.clear()
        self.accumulators.clear()
        self._inflight.clear()


def metrics_for(sim) -> MetricsRegistry:
    """The (lazily created) registry of one simulator."""
    reg = getattr(sim, "_obs_metrics", None)
    if reg is None:
        reg = MetricsRegistry()
        sim._obs_metrics = reg
    return reg


def enable_metrics(sim) -> MetricsRegistry:
    """Turn on metrics collection for ``sim``; returns the registry.

    Raises :class:`~repro.sim.engine.SimulationError` while a macro
    window is open (``run(until=)`` stopped inside one): what a window
    replays is fixed when it opens -- a train's posted-queue depth
    samples, and a slot span's per-slot ring-occupancy samples, taken at
    accept instants its store call asks for only under metrics -- so the
    samples due after the enable would be missing.  Enable before the
    traffic, or once the run has drained."""
    if sim._windows:
        raise SimulationError(
            f"cannot enable metrics at t={sim.now}: {len(sim._windows)} "
            "macro window(s) open; enable before the traffic or after the "
            "run drains")
    reg = metrics_for(sim)
    reg.enabled = True
    return reg


class FaultCounters:
    """Always-on fault/recovery counter family of one simulator.

    Mirrors the :func:`datapath_counters` contract: plain integer
    attributes bumped directly by the recovery machinery (link pumps,
    init FSM retrains, endpoints, route manager, injector), so the cost
    is one attribute increment per *recovery* action and exactly zero
    when no faults occur.  Not part of the golden distilled metrics.
    """

    __slots__ = (
        "faults_injected",
        "retrains",
        "retransmits",
        "backoff_ns_total",
        "reroutes",
        "messages_expired",
        "session_resets",
        "link_naks",
        "link_fail_downs",
        "packets_dropped",
        "packets_salvaged",
        "fatal_broadcasts",
        "pressure_floods",
        "node_crashes",
        "node_rejoins",
        "crash_lines_discarded",
        "crash_wc_bytes_discarded",
        "crash_slots_discarded",
        "crash_packets_discarded",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover
        hot = {k: v for k, v in self.as_dict().items() if v}
        return f"<FaultCounters {hot or 'clean'}>"


def fault_counters(sim) -> "FaultCounters":
    """The (lazily created) fault-recovery counters of one simulator."""
    fc = getattr(sim, "_fault_counters", None)
    if fc is None:
        fc = FaultCounters()
        sim._fault_counters = fc
    return fc


class FlowCounters:
    """Always-on flow-level macro-event counter family.

    Covers the flow-level layer (:mod:`repro.sim.flows`): msglib slot
    spans and remote read chains.  Multi-hop forwarding runs per packet;
    its ``forward_*`` fields stay 0 and are kept because
    ``benchmarks/perf`` reads every field.  The WC store
    trains (:mod:`repro.opteron.train`) count in their northbridge's
    ``nb.counters`` instead (``train_windows``, ``train_lines``,
    ``train_demotions``).  Like
    :class:`FaultCounters` these are plain attributes bumped directly by
    the fast paths -- one increment per *window*, not per packet -- and
    are not part of the golden distilled metrics: they describe how much
    of the workload rode a fast path (the macro-event hit rate published
    per scenario by ``benchmarks/bench_wallclock.py``), not the model.
    """

    __slots__ = (
        "slot_windows",
        "slot_slots",
        "read_windows",
        "read_reads",
        "read_demotions",
        "forward_windows",
        "forward_packets",
        "forward_demotions",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover
        hot = {k: v for k, v in self.as_dict().items() if v}
        return f"<FlowCounters {hot or 'idle'}>"


def flow_counters(sim) -> "FlowCounters":
    """The (lazily created) macro-event counters of one simulator."""
    fl = getattr(sim, "_flow_counters", None)
    if fl is None:
        fl = FlowCounters()
        sim._flow_counters = fl
    return fl


class CollectiveCounters:
    """Always-on collective-operation counter family.

    Bumped once per rank per collective entered through the middleware
    dispatchers (``allreduce``/``bcast``/``alltoall``/``reduce``/
    ``reduce_scatter``); nested constituent calls (e.g. the binomial
    allreduce's internal reduce+bcast) are not double-counted.  Like
    :class:`FaultCounters`/:class:`FlowCounters` these are not part of
    the golden distilled metrics -- they record which algorithm the
    size-adaptive selector actually picked and how many payload bytes
    each collective carried, the evidence the collectives benchmark and
    tests read back.
    """

    __slots__ = ("ops", "payload_bytes", "algorithms")

    def __init__(self) -> None:
        self.ops = 0
        self.payload_bytes = 0
        #: ``"op.algorithm" -> count``, e.g. ``{"allreduce.ring": 3}``.
        self.algorithms: Dict[str, int] = {}

    def record(self, op: str, algorithm: str, nbytes: int) -> None:
        self.ops += 1
        self.payload_bytes += nbytes
        key = f"{op}.{algorithm}"
        self.algorithms[key] = self.algorithms.get(key, 0) + 1

    def as_dict(self) -> Dict:
        return {
            "ops": self.ops,
            "payload_bytes": self.payload_bytes,
            "algorithms": dict(sorted(self.algorithms.items())),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CollectiveCounters {self.as_dict() if self.ops else 'idle'}>"


def collective_counters(sim) -> "CollectiveCounters":
    """The (lazily created) collective counters of one simulator."""
    cc = getattr(sim, "_collective_counters", None)
    if cc is None:
        cc = CollectiveCounters()
        sim._collective_counters = cc
    return cc


def datapath_counters(sim, memories=()) -> Dict[str, int]:
    """Zero-copy data-plane counter family (always-on, registry-free).

    ``packets_alloc`` counts the posted writes the simulator's
    :class:`~repro.ht.packet.PacketFactory` built (zero before the first
    posted write); ``packets_pooled`` is always 0, kept for readers that
    predate the factory.  ``bytes_copied`` sums the page-commit copy
    accounting of the given :class:`~repro.opteron.memory.Memory`
    objects.  These are *not* part of the golden distilled metrics --
    they describe the simulator's execution cost, not the model -- and
    are published by ``benchmarks/bench_wallclock.py``.
    """
    factory = sim._packet_factory
    return {
        "packets_alloc": factory.built if factory is not None else 0,
        "packets_pooled": 0,
        "bytes_copied": sum(m.bytes_copied for m in memories),
    }
