"""R-retry -- fault tolerance of the link layer and above.

Paper Section III: HyperTransport "defines fault tolerance mechanisms on
the link level"; the prototype's cable is exactly where bit errors would
appear ("due to signal integrity issues of our cable based approach").
The sweep injects per-packet error rates and checks that HT3 retry keeps
the fabric lossless while throughput degrades gracefully.

Beyond link retry, the fault-injection scenarios measure end-to-end
*recovery*: how long a pairwise message stream stalls across a link flap
(down -> warm retrain) and across a node crash + warm-reset rejoin.
Results accumulate in ``BENCH_reliability.json`` at the repo root.
"""

import json
import pathlib

import pytest

from _common import write_result
from repro.bench import table
from repro.bench.experiments import EXPERIMENTS
from repro.bench.recovery import (
    RECOVERY_FIGURE_SPECS,
    calibrate_fail_down,
    run_fail_down_calibration,
    run_hysteresis_study,
    run_recovery_figure,
)
from repro.ht.link import FAIL_DOWN_THRESHOLD_DEFAULT
from repro.cluster import TCCluster
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.msglib import MsgConfig, TransportError
from repro.obs.metrics import fault_counters
from repro.topology import chain
from repro.util.units import MiB

RELIABILITY = EXPERIMENTS["reliability"]
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_reliability.json"


def _merge_bench_json(key: str, payload: dict) -> None:
    """Accumulate per-scenario results into one JSON report."""
    report = {}
    if BENCH_JSON.exists():
        try:
            report = json.loads(BENCH_JSON.read_text())
        except ValueError:
            report = {}
    report[key] = payload
    BENCH_JSON.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _run_fault_scenario(plan: FaultPlan, n_msgs: int = 80,
                        msg_bytes: int = 256) -> dict:
    """Pairwise stream on chain(2) under ``plan``; returns delivery and
    recovery-latency metrics (all deterministic)."""
    cfg = MsgConfig(send_deadline_ns=1e7, recv_deadline_ns=4e7)
    cl = TCCluster(chain(2), msg_cfg=cfg, memory_bytes=64 * MiB).boot()
    inj = FaultInjector(cl, plan)
    inj.arm()
    t0 = cl.sim.now
    ep_a = cl.library(0).connect(1)
    ep_b = cl.library(1).connect(0)
    deliveries = []
    errors = []

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

    cl.sim.process(tx(), name="rel-tx")
    cl.sim.process(rx(), name="rel-rx")
    cl.run(2e8)
    # Recovery latency: longest gap between consecutive deliveries that
    # brackets a fault firing (the stream's stall across the outage).
    stall_ns = 0.0
    fire_times = [t for t, _ in inj.fired]
    for prev, nxt in zip(deliveries, deliveries[1:]):
        if any(prev <= f <= nxt for f in fire_times):
            stall_ns = max(stall_ns, nxt - prev)
    return {
        "messages": n_msgs,
        "delivered": len(deliveries),
        "errors": errors,
        "faults": {k: v for k, v in
                   fault_counters(cl.sim).as_dict().items() if v},
        "completion_ns": (deliveries[-1] - t0) if deliveries else None,
        "recovery_stall_ns": stall_ns,
    }


def test_link_retry_reliability():
    points = RELIABILITY.points(full=True)
    # --- lossless at every error rate ------------------------------------
    assert all(p.delivered_ok for p in points)
    # retries scale with the error rate
    retries = [p.retries for p in points]
    assert retries[0] == 0
    assert retries == sorted(retries)
    # throughput degrades monotonically and gracefully (no collapse)
    mbps = [p.mbps for p in points]
    assert mbps == sorted(mbps, reverse=True)
    assert mbps[-1] > 0.4 * mbps[0], "20% per-packet errors still >40% tput"

    write_result(RELIABILITY.result, RELIABILITY.table(points))


def test_link_flap_recovery():
    """A mid-stream link flap: the stream must complete losslessly, with
    the stall bounded by the retrain time plus deadline-free NAK replay."""
    plan = FaultPlan().add(8_000.0, FaultKind.LINK_FLAP, 0,
                           duration_ns=20_000.0)
    point = _run_fault_scenario(plan)
    assert point["delivered"] == point["messages"], point
    assert not point["errors"]
    assert point["faults"].get("retrains", 0) >= 1
    assert point["recovery_stall_ns"] >= 20_000.0, "flap outage not visible"
    _merge_bench_json("link_flap", point)
    rows = [(k, point[k]) for k in
            ("messages", "delivered", "completion_ns", "recovery_stall_ns")]
    write_result("reliability_flap",
                 table(["metric", "value"], rows,
                       title="Link flap: lossless recovery via NAK + warm retrain"))


def test_node_crash_rejoin_recovery():
    """Node crash + warm-reset rejoin through the firmware path: the
    stream rides through on retransmit, nothing is lost or duplicated."""
    plan = (FaultPlan()
            .add(8_000.0, FaultKind.NODE_CRASH, 1)
            .add(30_000.0, FaultKind.NODE_WARM_RESET, 1))
    point = _run_fault_scenario(plan)
    assert point["delivered"] == point["messages"], point
    assert not point["errors"]
    assert point["faults"].get("node_crashes") == 1
    assert point["faults"].get("node_rejoins") == 1
    _merge_bench_json("node_crash_rejoin", point)
    rows = [(k, point[k]) for k in
            ("messages", "delivered", "completion_ns", "recovery_stall_ns")]
    write_result("reliability_crash",
                 table(["metric", "value"], rows,
                       title="Node crash + warm-reset rejoin recovery"))


def test_fail_down_calibration():
    """Retry-storm sweep: fail_down_threshold x storm BER, scored with a
    per-drop retransmit penalty.  The frozen default in ``ht.link`` must
    stay weakly optimal on the grid (self-validating calibration)."""
    points = run_fail_down_calibration()
    best, scores = calibrate_fail_down(points)
    assert best is not None, "no threshold survived the delivery guard"
    # Weak optimality: the shipped default scores within 1% of the
    # sweep's winner (re-run the sweep and update the constant if the
    # scenario model moves enough to break this).
    assert scores[str(FAIL_DOWN_THRESHOLD_DEFAULT)] >= \
        0.99 * scores[str(best)], (FAIL_DOWN_THRESHOLD_DEFAULT, scores)
    hysteresis = run_hysteresis_study()
    with_rt = next(h for h in hysteresis if h.retrain_after_storm)
    without_rt = next(h for h in hysteresis if not h.retrain_after_storm)
    # The hysteresis loop is real: a fail-down happened, the retrained
    # link recovers full goodput, the stranded one stays degraded.
    assert without_rt.fail_downs >= 1
    assert without_rt.width_after_storm < with_rt.width_after_storm
    assert without_rt.post_mbps < 0.7 * with_rt.post_mbps
    assert with_rt.post_mbps == pytest.approx(with_rt.pre_mbps, rel=0.05)
    _merge_bench_json("fail_down_calibration", {
        "default_threshold": FAIL_DOWN_THRESHOLD_DEFAULT,
        "best_threshold": best,
        "scores": scores,
        "grid": [p.as_dict() for p in points],
        "hysteresis": [h.as_dict() for h in hysteresis],
    })
    rows = [(th, s) for th, s in sorted(
        scores.items(), key=lambda kv: -kv[1])]
    write_result("reliability_fail_down",
                 table(["threshold", "effective MB/s (grid sum)"], rows,
                       title="fail_down_threshold calibration "
                             f"(default={FAIL_DOWN_THRESHOLD_DEFAULT})"))


def test_recovery_latency_figure():
    """The recovery figure: end-to-end stall vs flap duration, storm
    magnitude, crash gap and topology, with a golden shape check."""
    fig = run_recovery_figure()
    assert set(fig) == {key for key, _ in RECOVERY_FIGURE_SPECS}
    # Every scenario on these topologies recovers completely.
    for key, p in fig.items():
        assert p["delivered"] == p["messages"], (key, p)
        assert p["errors"] == 0, (key, p)
    # Shape: stall grows weakly monotonically with flap duration, and a
    # flap outage is never shorter than the link-down window itself.
    flaps = [fig[f"flap:chain2:{int(d)}"]
             for d in (5_000, 20_000, 60_000, 120_000)]
    stalls = [p["stall_ns"] for p in flaps]
    assert stalls == sorted(stalls), stalls
    for p in flaps:
        assert p["stall_ns"] >= p["duration_ns"]
    # Crash recovery can't beat the crash->rejoin gap, and the crashed
    # receiver path must exercise the resynchronization machinery
    # (retransmits into the rejoined node).
    for gap in (15_000, 40_000):
        p = fig[f"crash:chain2:{int(gap)}"]
        assert p["stall_ns"] >= gap, p
        assert p["node_crashes"] == 1
    # Storms stall less than hard outages of the same duration: retry
    # keeps the stream trickling.
    assert fig["storm:chain2:0.001"]["stall_ns"] <= \
        fig["flap:chain2:20000"]["stall_ns"] + 30_000.0
    _merge_bench_json("recovery_figure", fig)
    rows = [(key, p["stall_ns"], p["completion_ns"], p["retransmits"],
             p["session_resets"]) for key, p in fig.items()]
    write_result("reliability_recovery_figure",
                 table(["scenario", "stall ns", "completion ns",
                        "retransmits", "session resets"], rows,
                       title="End-to-end recovery latency figure"))
