"""Recovery benchmarks: fail-down calibration and the recovery figure.

Two instruments live here, both feeding ``BENCH_reliability.json``:

* **Retry-storm calibration** (:func:`run_fail_down_calibration`).  A raw
  HT link is streamed through a high-BER storm window with a small retry
  budget, sweeping ``fail_down_threshold`` against the storm error rate.
  Failing down narrows the link (halving throughput) but recovers signal
  margin (:data:`repro.ht.link.FAIL_DOWN_BER_RELIEF`), so a threshold
  trades storm-window losses against a post-storm window spent stranded
  narrow until the next retrain -- the hysteresis
  :func:`run_hysteresis_study` measures directly.  The calibrated winner
  is frozen into :data:`repro.ht.link.FAIL_DOWN_THRESHOLD_DEFAULT`; the
  bench asserts the frozen value stays weakly optimal on the grid.

* **Recovery scenarios** (:func:`run_recovery_scenario`).  The
  end-to-end stall a pairwise message stream suffers across a fault --
  link flap, BER storm, credit stall, node crash + warm-reset rejoin, or
  a seeded random plan -- on a small booted cluster.  Each call is a
  fresh deterministic system, so the points are picklable units for the
  parallel sweep runner (see :func:`run_recovery_figure`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

from ..ht import Link, LinkSide, make_posted_write
from ..sim import Simulator
from ..sim.parallel import SweepPoint, sweep_values
from ..util.units import MiB

__all__ = [
    "FailDownPoint",
    "HysteresisPoint",
    "RecoveryPoint",
    "fail_down_point",
    "run_fail_down_calibration",
    "calibrate_fail_down",
    "run_hysteresis_study",
    "run_recovery_scenario",
    "run_recovery_figure",
    "RECOVERY_FIGURE_SPECS",
]


# ---------------------------------------------------------------------------
# Retry-storm calibration (raw link level)
# ---------------------------------------------------------------------------

@dataclass
class FailDownPoint:
    """One (threshold, storm BER) cell of the calibration grid."""

    threshold: Optional[int]
    ber: float
    packets: int          # offered
    payload: int          # bytes per packet
    delivered: int
    drops: int
    retries: int
    fail_downs: int
    final_width: int
    final_gbit: float
    completion_ns: float  # last delivery/drop timestamp
    goodput_mbps: float   # delivered payload over the completion window

    def as_dict(self) -> dict:
        return asdict(self)


def fail_down_point(
    threshold: Optional[int],
    ber: float,
    n_packets: int = 600,
    payload: int = 64,
    max_retries: int = 4,
    storm_ns: float = 8_000.0,
    retrain_after_storm: bool = False,
) -> FailDownPoint:
    """Stream ``n_packets`` posted writes across a ``storm_ns`` window
    of ``ber``, then a clean tail.

    The stream deliberately outlives the storm: a fail-down buys margin
    (fewer retries and drops) *inside* the window but leaves the link
    stranded at the narrow width for the whole tail -- nothing retrains
    it automatically, which is precisely the hysteresis a threshold must
    price in (``retrain_after_storm=True`` models an operator-driven
    warm retrain at storm end and removes the tail cost).  The retry
    budget is deliberately small: with the stock 16 retries a drop needs
    seventeen consecutive CRC failures and no realistic storm ever
    reaches the threshold.
    """
    sim = Simulator()
    link = Link(sim, "cal", ber=ber, seed=0xCA1 + n_packets)
    link.activate("noncoherent")
    link.max_retries = max_retries
    link.fail_down_threshold = threshold
    w0, g0 = link.width_bits, link.gbit_per_lane

    def _calm() -> None:
        link.ber = 0.0
        if retrain_after_storm:
            # What LinkInitFSM.retrain applies: the programmed persona
            # rate (and with it a reset of the fail-down margin relief).
            link.set_rate(w0, g0)

    sim.schedule(storm_ns, _calm)
    last_delivery = [0.0]

    def rx():
        while True:
            yield link.receive(LinkSide.B)
            last_delivery[0] = sim.now

    def tx():
        for i in range(n_packets):
            pkt = make_posted_write(0x1000 + payload * i, b"\xA5" * payload)
            yield link.send(LinkSide.A, pkt)

    sim.process(rx(), name="cal-rx")
    sim.process(tx(), name="cal-tx")
    sim.run()
    s = link.stats(LinkSide.A)
    done = last_delivery[0]
    goodput = (s.payload_bytes / done * 1e3) if done > 0 else 0.0  # MB/s
    return FailDownPoint(
        threshold, ber, n_packets, payload, s.packets, s.drops, s.retries,
        link.fail_downs, link.width_bits, link.gbit_per_lane,
        round(done, 1), round(goodput, 2),
    )


def run_fail_down_calibration(
    thresholds: Sequence[Optional[int]] = (None, 1, 2, 3, 4, 8),
    bers: Sequence[float] = (0.3, 0.45, 0.6, 0.8),
    **kwargs,
) -> List[FailDownPoint]:
    """The full calibration grid, row-major (threshold-major) order."""
    return [fail_down_point(th, ber, **kwargs)
            for th in thresholds for ber in bers]


#: End-to-end price of one link-level drop: the message layer only
#: recovers a lost ring write through its retransmit timer, so every
#: drop costs (at least) one base backoff window -- the msglib default
#: ``retransmit_base_ns``.  Raw wire goodput alone would always favour
#: staying wide and dropping; this is the term that makes the trade real.
DROP_PENALTY_NS = 100_000.0


def calibrate_fail_down(
    points: Sequence[FailDownPoint],
    drop_penalty_ns: float = DROP_PENALTY_NS,
) -> Tuple[Optional[int], dict]:
    """Pick the threshold maximizing summed *effective* goodput across
    the BER grid: delivered payload over the completion window plus one
    retransmit backoff per drop (what the stream actually experiences
    end-to-end).  Thresholds that deliver less than the no-fail-down
    baseline anywhere on the grid are disqualified.

    Returns ``(best_threshold, scores)`` where ``scores`` maps each
    threshold (as a JSON-safe string) to its summed effective goodput.
    """
    def effective_mbps(p: FailDownPoint) -> float:
        window = p.completion_ns + drop_penalty_ns * p.drops
        return (p.delivered * p.payload / window * 1e3) if window > 0 else 0.0

    by_th: dict = {}
    for p in points:
        by_th.setdefault(p.threshold, []).append(p)
    baseline_delivered = {
        p.ber: p.delivered for p in by_th.get(None, [])
    }
    scores = {}
    best, best_score = None, -1.0
    for th, pts in by_th.items():
        score = sum(effective_mbps(p) for p in pts)
        scores[str(th)] = round(score, 2)
        if th is None:
            continue
        if any(p.delivered < baseline_delivered.get(p.ber, 0) for p in pts):
            continue  # a threshold must not lose packets the baseline kept
        if score > best_score:
            best, best_score = th, score
    return best, scores


# ---------------------------------------------------------------------------
# Throughput-vs-width hysteresis
# ---------------------------------------------------------------------------

@dataclass
class HysteresisPoint:
    """Goodput through the three storm phases for one retrain policy."""

    retrain_after_storm: bool
    threshold: Optional[int]
    width_after_storm: int
    fail_downs: int
    pre_mbps: float       # clean link, full width
    storm_mbps: float     # inside the storm window
    post_mbps: float      # after the storm cleared

    def as_dict(self) -> dict:
        return asdict(self)


def _phase_goodput(link: Link, sim: Simulator, n_packets: int,
                   payload: int) -> float:
    """Deliver ``n_packets`` and return payload goodput (MB/s) for the
    phase; the caller mutates BER/width between phases."""
    s = link.stats(LinkSide.A)
    b0, t0 = s.payload_bytes, sim.now

    def tx():
        for i in range(n_packets):
            pkt = make_posted_write(0x9000 + payload * i, b"\x5A" * payload)
            yield link.send(LinkSide.A, pkt)

    sim.process(tx(), name="hys-tx")
    sim.run()
    dt = sim.now - t0
    return round((s.payload_bytes - b0) / dt * 1e3, 2) if dt > 0 else 0.0


def run_hysteresis_study(
    threshold: Optional[int] = None,
    ber: float = 0.75,
    n_packets: int = 300,
    payload: int = 64,
    max_retries: int = 3,
) -> List[HysteresisPoint]:
    """Three-phase goodput (clean / storm / after), with and without a
    warm retrain once the storm clears.

    Without the retrain the link that failed down stays stranded at the
    narrow width -- the post-storm goodput gap between the two rows *is*
    the hysteresis loop the calibrated threshold must price in.
    """
    from ..ht.link import FAIL_DOWN_THRESHOLD_DEFAULT

    th = FAIL_DOWN_THRESHOLD_DEFAULT if threshold is None else threshold
    out: List[HysteresisPoint] = []
    for retrain in (True, False):
        sim = Simulator()
        link = Link(sim, "hys", seed=0x4457)
        link.activate("noncoherent")
        link.max_retries = max_retries
        link.fail_down_threshold = th
        w0, g0 = link.width_bits, link.gbit_per_lane

        def rx():
            while True:
                yield link.receive(LinkSide.B)

        sim.process(rx(), name="hys-rx")
        pre = _phase_goodput(link, sim, n_packets, payload)
        link.ber = ber
        storm = _phase_goodput(link, sim, n_packets, payload)
        link.ber = 0.0
        if retrain:
            link.set_rate(w0, g0)
        post = _phase_goodput(link, sim, n_packets, payload)
        out.append(HysteresisPoint(retrain, th, link.width_bits,
                                   link.fail_downs, pre, storm, post))
    return out


# ---------------------------------------------------------------------------
# End-to-end recovery scenarios (cluster level)
# ---------------------------------------------------------------------------

@dataclass
class RecoveryPoint:
    """One end-to-end recovery measurement (picklable sweep payload)."""

    topo: str             # "chain2" | "ring3"
    kind: str             # "flap" | "storm" | "stall" | "crash" | "seeded"
    at_ns: float
    duration_ns: float    # crash: the crash->rejoin gap
    magnitude: float      # storm BER (0 otherwise)
    seed: int             # seeded plans only
    messages: int
    delivered: int
    errors: int
    completion_ns: Optional[float]
    stall_ns: float       # longest delivery gap bracketing a fault firing
    session_resets: int
    retransmits: int
    node_crashes: int
    retrains: int

    def as_dict(self) -> dict:
        return asdict(self)


def _make_topo(topo: str):
    from ..topology import chain, ring

    if topo == "chain2":
        return chain(2)
    if topo == "ring3":
        return ring(3)
    raise ValueError(f"unknown recovery topology {topo!r}")


def _make_plan(kind: str, at_ns: float, duration_ns: float,
               magnitude: float, seed: int):
    from ..faults import FaultKind, FaultPlan

    plan = FaultPlan()
    if kind == "flap":
        plan.add(at_ns, FaultKind.LINK_FLAP, 0, duration_ns=duration_ns)
    elif kind == "storm":
        plan.add(at_ns, FaultKind.BER_STORM, 0,
                 duration_ns=duration_ns, magnitude=magnitude)
    elif kind == "stall":
        plan.add(at_ns, FaultKind.CREDIT_STALL, 0, duration_ns=duration_ns)
    elif kind == "crash":
        plan.add(at_ns, FaultKind.NODE_CRASH, 1)
        plan.add(at_ns + duration_ns, FaultKind.NODE_WARM_RESET, 1)
    elif kind == "seeded":
        plan = FaultPlan.random(
            seed, horizon_ns=max(at_ns + duration_ns, 30_000.0),
            num_links=1, num_ranks=2, n_events=3,
            kinds=(FaultKind.LINK_FLAP, FaultKind.CREDIT_STALL,
                   FaultKind.BER_STORM))
    else:
        raise ValueError(f"unknown recovery fault kind {kind!r}")
    return plan


def run_recovery_scenario(
    topo: str = "chain2",
    kind: str = "flap",
    at_ns: float = 8_000.0,
    duration_ns: float = 20_000.0,
    magnitude: float = 0.0,
    seed: int = 0,
    n_msgs: int = 80,
    msg_bytes: int = 256,
    horizon_ns: float = 2e8,
) -> RecoveryPoint:
    """One pairwise stream (rank 0 -> rank 1) under one fault scenario.

    The stall metric is the longest gap between consecutive deliveries
    that brackets a fault firing -- the stream's outage across the
    fault, including retrain, retransmit backoff and (for crashes) the
    epoch handshake that resynchronizes the session after rejoin.
    """
    from ..cluster import TCCluster
    from ..faults import FaultInjector
    from ..msglib import MsgConfig, TransportError
    from ..obs.metrics import fault_counters

    cfg = MsgConfig(send_deadline_ns=1e7, recv_deadline_ns=4e7)
    cl = TCCluster(_make_topo(topo), msg_cfg=cfg,
                   memory_bytes=64 * MiB).boot()
    plan = _make_plan(kind, at_ns, duration_ns, magnitude, seed)
    inj = FaultInjector(cl, plan)
    inj.arm(on_conflict="skip")
    t0 = cl.sim.now
    ep_a = cl.library(0).connect(1)
    ep_b = cl.library(1).connect(0)
    deliveries: List[float] = []
    errors: List[str] = []

    def tx(_=None):
        try:
            for i in range(n_msgs):
                yield from ep_a.send(bytes([i % 251]) * msg_bytes)
        except TransportError as exc:
            errors.append(f"tx: {exc}")

    def rx(_=None):
        try:
            for _ in range(n_msgs):
                yield from ep_b.recv()
                deliveries.append(cl.sim.now)
        except TransportError as exc:
            errors.append(f"rx: {exc}")

    cl.sim.process(tx(), name="rec-tx")
    cl.sim.process(rx(), name="rec-rx")
    cl.run(horizon_ns)
    stall_ns = 0.0
    fire_times = [t for t, _ in inj.fired]
    for prev, nxt in zip(deliveries, deliveries[1:]):
        if any(prev <= f <= nxt for f in fire_times):
            stall_ns = max(stall_ns, nxt - prev)
    fc = fault_counters(cl.sim)
    return RecoveryPoint(
        topo, kind, at_ns, duration_ns, magnitude, seed,
        n_msgs, len(deliveries), len(errors),
        round(deliveries[-1] - t0, 1) if deliveries else None,
        round(stall_ns, 1),
        fc.session_resets, fc.retransmits, fc.node_crashes, fc.retrains,
    )


#: The recovery figure's axes: flap-duration sweep, storm-magnitude
#: sweep, crash-gap sweep, and the topology axis (same flap on a ring,
#: where route diversity exists but the 0->1 stream still crosses the
#: flapped link).  Every spec is ``(key, kwargs)`` for
#: :func:`run_recovery_scenario`.
RECOVERY_FIGURE_SPECS: List[Tuple[str, dict]] = (
    [(f"flap:chain2:{int(d)}", dict(topo="chain2", kind="flap",
                                    duration_ns=d))
     for d in (5_000.0, 20_000.0, 60_000.0, 120_000.0)]
    + [(f"storm:chain2:{m:g}", dict(topo="chain2", kind="storm",
                                    duration_ns=30_000.0, magnitude=m))
       for m in (1e-4, 1e-3, 1e-2)]
    + [(f"crash:chain2:{int(d)}", dict(topo="chain2", kind="crash",
                                       duration_ns=d))
       for d in (15_000.0, 40_000.0)]
    + [("flap:ring3:20000", dict(topo="ring3", kind="flap",
                                 duration_ns=20_000.0))]
)


def run_recovery_figure(jobs=None, timeout=None) -> dict:
    """Compute the whole figure, one :func:`run_recovery_scenario` sweep
    point per spec, over ``jobs`` workers (``TCC_PARALLEL``, else
    serial).  Returns ``{key: RecoveryPoint-as-dict}`` in spec order."""
    points = [SweepPoint(key=key, fn=run_recovery_scenario, kwargs=dict(kw))
              for key, kw in RECOVERY_FIGURE_SPECS]
    # The longest outages straggle; submit them first.
    pts = sweep_values(
        points, cost=lambda p: p.kwargs.get("duration_ns", 0.0),
        jobs=jobs, timeout=timeout)
    return {key: p.as_dict()
            for (key, _), p in zip(RECOVERY_FIGURE_SPECS, pts)}
