"""Unit tests for the observability layer: registry, histogram, golden
comparison, JSONL export, report rendering, and the disabled-cost
contract."""

import io
import json

import pytest

from repro.core import TCClusterSystem
from repro.obs import (
    GoldenMismatch,
    JsonlExporter,
    LogHistogram,
    MetricsRegistry,
    compare_to_golden,
    enable_metrics,
    flatten,
    format_report,
    metrics_for,
    read_jsonl,
    save_golden,
)
from repro.sim import Simulator, Tracer


# ---------------------------------------------------------------------------
# LogHistogram
# ---------------------------------------------------------------------------

def test_histogram_bucketing_and_bounds():
    h = LogHistogram()
    for v in (0.5, 1, 2, 3, 100, 1000):
        h.add(v)
    assert h.count == 6
    assert h.min == 0.5 and h.max == 1000
    assert h.bucket_of(0.5) == 0
    assert h.bucket_of(1) == 0
    assert h.bucket_of(2) == 1
    assert h.bucket_of(1023) == 9
    assert h.bucket_of(1024) == 10


def test_histogram_percentiles_monotone_and_clamped():
    h = LogHistogram()
    for v in range(1, 101):
        h.add(float(v))
    p50, p90, p99 = h.percentile(50), h.percentile(90), h.percentile(99)
    assert p50 <= p90 <= p99 <= h.max
    assert h.min <= p50
    # Log-bucket interpolation: p50 of uniform 1..100 lands near 50.
    assert 30 <= p50 <= 80


def test_histogram_single_sample_percentile_is_that_sample():
    h = LogHistogram()
    h.add(227.0)
    assert h.percentile(50) == 227.0
    assert h.percentile(99) == 227.0


def test_histogram_merge_matches_combined():
    a, b, c = LogHistogram(), LogHistogram(), LogHistogram()
    for v in (1, 5, 9):
        a.add(v)
        c.add(v)
    for v in (100, 900):
        b.add(v)
        c.add(v)
    a.merge(b)
    assert a.count == c.count
    assert a.to_dict() == c.to_dict()


def test_empty_histogram_dict():
    assert LogHistogram().to_dict() == {"count": 0}


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------

def test_registry_disabled_records_nothing():
    r = MetricsRegistry()
    r.inc("a")
    r.observe("h", 5.0)
    r.set_gauge("g", 1.0)
    r.track("acc", 1.0, 3.0)
    r.note_send(0, 1, 10.0)
    snap = r.snapshot(100.0)
    assert snap["counters"] == {}
    assert snap["gauges"] == {}
    assert r.pop_send(0, 1) is None


def test_registry_enabled_roundtrip_and_diff():
    r = MetricsRegistry()
    r.enabled = True
    r.inc("pkts", 3)
    before = r.snapshot(10.0)
    r.inc("pkts", 2)
    r.inc("new", 1)
    after = r.snapshot(20.0)
    d = MetricsRegistry.diff(before, after)
    assert d["counters"] == {"pkts": 2, "new": 1}
    assert d["time_ns"] == 10.0


def test_registry_latency_pairing_is_fifo():
    r = MetricsRegistry()
    r.enabled = True
    r.note_send(0, 1, 10.0)
    r.note_send(0, 1, 20.0)
    assert r.inflight(0, 1) == 2
    assert r.pop_send(0, 1) == 10.0
    assert r.pop_send(0, 1) == 20.0
    assert r.pop_send(0, 1) is None


def test_metrics_for_is_per_simulator_and_lazy():
    s1, s2 = Simulator(), Simulator()
    r1 = metrics_for(s1)
    assert metrics_for(s1) is r1
    assert metrics_for(s2) is not r1
    assert not r1.enabled
    assert enable_metrics(s1) is r1
    assert r1.enabled


def test_track_records_time_weighted_average_and_max():
    r = MetricsRegistry()
    r.enabled = True
    r.track("occ", 0.0, 0)
    r.track("occ", 10.0, 4)
    r.track("occ", 30.0, 1)
    snap = r.snapshot(40.0)
    # 0 for 10ns, 4 for 20ns, 1 for 10ns over 40ns => 2.25 average.
    assert snap["accumulators"]["occ"]["avg"] == pytest.approx(2.25)
    assert snap["gauge_max"]["occ"] == 4


# ---------------------------------------------------------------------------
# Golden comparison
# ---------------------------------------------------------------------------

def test_flatten_numeric_leaves_only():
    tree = {"a": {"b": 1, "c": 2.5, "s": "text"}, "d": True, "e": {"f": {}}}
    assert flatten(tree) == {"a.b": 1, "a.c": 2.5, "d": 1}


def test_golden_compare_tolerances(tmp_path):
    path = str(tmp_path / "g.json")
    save_golden(path, {"x": {"exact": 100, "loose": 100.0}},
                tolerances={"default_rel": 0.05,
                            "keys": {"x.exact": {"rel": 0.0}}})
    from repro.obs.golden import assert_matches_golden

    # Within: loose moves 4%, exact untouched.
    assert_matches_golden({"x": {"exact": 100, "loose": 104.0}}, path)
    # Violation: exact moves by one.
    with pytest.raises(GoldenMismatch) as exc:
        assert_matches_golden({"x": {"exact": 101, "loose": 100.0}}, path)
    assert any("x.exact" in v for v in exc.value.violations)


def test_golden_prefix_tolerance_and_abs(tmp_path):
    path = str(tmp_path / "g.json")
    save_golden(path, {"stalls": {"a": 3, "b": 0}},
                tolerances={"default_rel": 0.0,
                            "keys": {"stalls.*": {"abs": 2}}})
    golden = json.load(open(path))
    assert compare_to_golden({"stalls": {"a": 5, "b": 2}}, golden) == []
    bad = compare_to_golden({"stalls": {"a": 6, "b": 0}}, golden)
    assert len(bad) == 1 and "stalls.a" in bad[0]


def test_golden_schema_mismatch_detected():
    assert compare_to_golden({}, {"_schema": "other"}) != []


# ---------------------------------------------------------------------------
# JSONL export
# ---------------------------------------------------------------------------

def test_jsonl_export_roundtrip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    tracer.emit(1.0, "link", "tx", ("A", "POSTED", 0x1000))
    tracer.emit(2.0, "link", "rx", b"\x01\x02")
    with JsonlExporter(path, scenario="unit") as ex:
        ex.tracer(tracer)
        ex.metrics({"time_ns": 2.0, "counters": {"pkts": 2}})
    recs = read_jsonl(path)
    assert recs[0]["kind"] == "meta"
    assert recs[0]["scenario"] == "unit"
    assert recs[1] == {"kind": "trace", "t": 1.0, "component": "link",
                       "event": "tx", "info": ["A", "POSTED", 0x1000]}
    assert recs[2]["info"] == "0102"
    assert recs[3]["kind"] == "metrics"
    assert recs[3]["snapshot"]["counters"]["pkts"] == 2


def test_jsonl_export_to_file_object():
    buf = io.StringIO()
    ex = JsonlExporter(buf, scenario="buffered")
    ex.metrics({"time_ns": 0.0})
    ex.close()
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert len(lines) == 2 and lines[1]["kind"] == "metrics"


# ---------------------------------------------------------------------------
# System.metrics() + report (acceptance: 2-node run exposes link
# utilization, endpoint counts, latency histogram)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def measured_system():
    sys_ = TCClusterSystem.two_board_prototype()
    sys_.enable_metrics()
    sys_.boot()
    cl = sys_.cluster
    a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
    tx, rx = sys_.connect(a, b)

    def sender():
        for i in range(8):
            yield from tx.send(bytes([i + 1]) * 200)
        yield from tx.flush()

    def receiver():
        for _ in range(8):
            yield from rx.recv()

    sys_.process(sender)
    done = sys_.process(receiver)
    sys_.run_until(done)
    sys_.run()
    return sys_, a, b


def test_system_metrics_exposes_required_views(measured_system):
    sys_, a, b = measured_system
    m = sys_.metrics()
    tcc = m["links"][m["tcc_links"][0]]
    assert tcc["A"]["packets"] > 0
    assert 0 < tcc["A"]["utilization"] < 1
    ep = m["endpoints"][f"r{a}->r{b}"]
    assert ep["msgs_sent"] == 8
    assert ep["bytes_sent"] == 1600
    assert m["endpoints"][f"r{b}->r{a}"]["msgs_received"] == 8
    lat = m["message_latency_ns"]
    assert lat["count"] == 8
    assert 0 < lat["p50"] <= lat["p99"] <= lat["max"]
    # WC instrumentation saw the transmit path's full-line drains.
    assert any(w["fills"] > 0 for w in m["write_combining"].values())


def test_metrics_report_renders_text_and_json(measured_system):
    sys_, a, b = measured_system
    txt = sys_.metrics_report()
    assert "links" in txt and "endpoints" in txt
    assert f"r{a}->r{b}" in txt
    assert "message latency ns" in txt
    parsed = json.loads(sys_.metrics_report(fmt="json"))
    assert parsed["endpoints"][f"r{a}->r{b}"]["msgs_sent"] == 8
    with pytest.raises(ValueError):
        format_report({}, fmt="yaml")


def test_disabled_metrics_still_provides_link_and_endpoint_counters():
    """Without enable_metrics() the cheap counters still aggregate; only
    registry-backed series (latency histogram) stay empty."""
    sys_ = TCClusterSystem.two_board_prototype().boot()
    cl = sys_.cluster
    a, b = cl.rank_of(0, 1), cl.rank_of(1, 1)
    tx, rx = sys_.connect(a, b)

    def sender():
        yield from tx.send(b"hello")
        yield from tx.flush()

    def receiver():
        yield from rx.recv()

    sys_.process(sender)
    done = sys_.process(receiver)
    sys_.run_until(done)
    m = sys_.metrics()
    assert m["endpoints"][f"r{a}->r{b}"]["msgs_sent"] == 1
    assert m["links"][m["tcc_links"][0]]["A"]["packets"] > 0
    assert m["message_latency_ns"] == {"count": 0}
    assert m["registry"]["counters"] == {}


def test_enable_metrics_raises_inside_a_macro_window():
    """Attaching metrics mid-window is refused: a run stopped inside a
    slot span's bulk train cannot enable them, a drained run can."""
    from repro.msglib import MsgConfig
    from repro.sim import SimulationError
    from repro.util.units import KiB

    sys_ = TCClusterSystem(msg_cfg=MsgConfig(
        ring_bytes=16 * KiB, eager_max=7168, fb_interval_slots=128)).boot()
    sim = sys_.sim
    tx, rx = sys_.connect(0, 1)

    def sender():
        yield from tx.send(bytes(7168))
        yield from tx.flush()

    def receiver():
        yield from rx.recv()

    sys_.process(sender)
    done = sys_.process(receiver)
    sim.run(until=sim.now + 1000.0)
    assert sim._windows, "the run did not stop inside a train"
    for enable in (sys_.enable_metrics, sys_.cluster.enable_metrics,
                   lambda: enable_metrics(sim)):
        with pytest.raises(SimulationError, match="macro window"):
            enable()
    assert not metrics_for(sim).enabled
    sys_.run_until(done)
    sim.run()
    assert sys_.enable_metrics().enabled
