"""Flow-level fidelity equivalence oracle (DESIGN.md section 12).

``repro.sim.flows`` collapses msglib eager ring-slot traffic into one
contiguous span store (which rides the bulk-train machinery) and the
train's per-line destination commits into an arithmetic
:class:`~repro.sim.flows.CommitSpan`.  The claim under test mirrors
``test_train_equivalence``: with ``adaptive_fidelity`` on or off, a
msglib exchange produces identical

* virtual end times and per-message receive instants,
* received payloads and destination memory images,
* destination memory-controller accounting (reads/writes/bytes),
* link stats and northbridge counters,

on the clean path and across demotions forced at arbitrary instants by
foreign posted writes, foreign link sends, or BER pulses -- each of
which aborts the carrying train and therefore the commit span mid-run.
Remote read chains (:class:`~repro.sim.flows.ReadFlow`) face the same
oracle with ``adaptive_fidelity`` on or off.

Deliberate divergences (excluded): the ``train_*`` / flow telemetry
counters of both northbridges, which exist only when the fast paths
engage.  Every
``LinkStats`` field is compared, and the packets built are conserved: the
per-packet run builds one more for every line a commit span carries.
"""

import random

import pytest

from helpers import assert_conserved, assert_drained, count_span_lines
from repro.cluster import build_single_board_prototype
from repro.core import TCClusterSystem
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.msglib import MsgConfig
from repro.obs.metrics import (datapath_counters, enable_metrics,
                               flow_counters, metrics_for)
from repro.util.units import KiB, MiB

MSG_BYTES = 7168          # 128 slots of 56-byte payload
#: Rendezvous sizes, above ``_CFG``'s ``eager_max``: a heap payload, an
#: sfence and one control slot.  9000 pads its last line.
RNDV_SIZES = (7232, 9000, 16448, 40000)
#: Fire offset of the flap an ``"arm"`` disturbance schedules: well after
#: the exchange ends, so only the arming itself meets the traffic.
ARM_FLAP_NS = 200_000.0
_CFG = dict(ring_bytes=16 * KiB, eager_max=7168, fb_interval_slots=128,
            read_chunk=4 * KiB, heap_bytes=64 * KiB)


def run_exchange(fast, nmsgs=2, kind=None, t_off=None, msg_bytes=MSG_BYTES):
    """Rank 0 streams ``nmsgs`` messages of ``msg_bytes`` to rank 1
    (eager up to ``_CFG``'s ``eager_max``, rendezvous above); returns an
    end-state dict, the snapshot of the metrics registry (enabled before
    boot) included.  ``kind``/``t_off`` optionally schedule a foreign
    disturbance ``t_off`` ns into the run:

    * ``"submit"`` -- a local posted write enters the sender's NB,
    * ``"send"``   -- a foreign packet enters the same link direction,
    * ``"ber"``    -- a BER pulse degrades and restores the link,
    * ``"arm"``    -- a fault plan is armed whose ``LINK_FLAP`` fires
      long after the exchange.
    """
    sys_ = TCClusterSystem(msg_cfg=MsgConfig(**_CFG))
    sys_.sim.features.adaptive_fidelity = fast
    sys_.enable_metrics()
    sys_.boot()
    cl = sys_.cluster
    sim = sys_.sim
    tx, rx = sys_.connect(0, 1)
    nb = cl.ranks[0].chip.nb
    dest_chip = cl.ranks[1].chip

    rng = random.Random(0x5EED)
    payloads = [rng.randbytes(msg_bytes) for _ in range(nmsgs)]
    got = []
    recv_times = []

    def sender():
        for m in payloads:
            yield from tx.send(m)
            # Drain gap (a compute phase): without it message k+1's
            # submit lands in message k's drain tail and demotes it --
            # legitimate, but the clean-path test wants clean windows.
            yield 4000.0
        yield from tx.flush()

    def receiver():
        for _ in payloads:
            got.append((yield from rx.recv()))
            recv_times.append(sim.now)

    # The link between the two ranks (for the foreign-send disturbance).
    link = side = None
    for binding in cl.ranks[0].chip.ports.values():
        other = binding.link.attached["B" if binding.side == "A" else "A"]
        if other is dest_chip:
            link, side = binding.link, binding.side
            break
    assert link is not None

    def disturb():
        if kind == "submit":
            nb.submit_posted(cl.ranks[0].base + (900 << 10), b"\xa5" * 8)
        elif kind == "send":
            from repro.ht.packet import make_posted_write

            pkt = make_posted_write(cl.ranks[1].base + (900 << 10),
                                    b"\x5a" * 64, unitid=nb.nodeid,
                                    coherent=False)
            if not link.try_send(side, pkt):
                link.send(side, pkt)
        elif kind == "ber":
            link.ber = 1e-6
            link.ber = 0.0
        elif kind == "arm":
            open_windows.append(len(sim._windows))
            FaultInjector(cl, FaultPlan().add(
                ARM_FLAP_NS, FaultKind.LINK_FLAP, 0,
                duration_ns=1_000.0)).arm()
            open_windows.append(len(sim._windows))

    open_windows = []
    if kind is not None:
        sim.schedule(t_off, disturb)
    e0 = sim.event_count
    ps = [sim.process(sender()), sim.process(receiver())]
    with count_span_lines() as span_lines:
        sim.run_until_event(sim.all_of(ps))
        sim.run()
    if kind is None:
        assert_drained(sys_)

    stats = {s: link.stats(s).as_dict(sim.now) for s in ("A", "B")}
    dmc = dest_chip.memctrl
    return dict(
        t_end=sim.now,
        recv_times=recv_times,
        payload_ok=got == payloads,
        stats=stats,
        counters=_model_counters(nb),
        dest_counters=_model_counters(dest_chip.nb),
        dest_mc=(dmc.reads, dmc.writes, dmc.bytes_read, dmc.bytes_written),
        dest_mem=dmc.memory.read(0, 1 << 20),
        snap=metrics_for(sim).snapshot(sim.now),
        events=sim.event_count - e0,
        train_windows=cl.ranks[0].chip.nb.counters.get("train_windows"),
        train_demotions=cl.ranks[0].chip.nb.counters.get("train_demotions"),
        slot_windows=flow_counters(sim).slot_windows,
        open_windows=open_windows,
        packets_alloc=datapath_counters(sim)["packets_alloc"],
        span_lines=span_lines[0],
    )


def _model_counters(nb):
    """A northbridge's counters minus the ``train_*`` telemetry, which
    exists only when trains engage (the receiver's feedback lines open
    trains too)."""
    return {k: v for k, v in nb.counters.as_dict().items()
            if not k.startswith("train_")}


_COMPARED = ("t_end", "recv_times", "payload_ok", "stats", "counters",
             "dest_counters", "dest_mc", "dest_mem", "snap")


def assert_equivalent(slow, fast):
    assert slow["payload_ok"] and fast["payload_ok"]
    for key in _COMPARED:
        assert slow[key] == fast[key], (
            f"{key} diverged:\n  slow: {str(slow[key])[:400]}"
            f"\n  fast: {str(fast[key])[:400]}"
        )
    assert_conserved(slow, fast)


# ---------------------------------------------------------------------------
# Clean path: spans promote, commit spans run to finalize undisturbed
# ---------------------------------------------------------------------------

def test_clean_exchange_exact():
    slow = run_exchange(fast=False)
    fast = run_exchange(fast=True)
    assert_equivalent(slow, fast)
    assert fast["slot_windows"] >= 2, "slot coalescing never engaged"
    assert fast["train_windows"] >= 2, "spans never rode a train"
    occupancy = fast["snap"]["accumulators"]["msglib.r0->r1.ring_occupancy"]
    assert occupancy["samples"] == 2 * 128, "not one sample per slot"
    assert fast["train_demotions"] == 0
    assert slow["slot_windows"] == 0
    assert fast["events"] < slow["events"] * 0.5, (
        f"slot spans saved too little: {slow['events']} -> {fast['events']}"
    )


@pytest.mark.parametrize("msg_bytes", [168, 616, 3640, 9000, 16448])
def test_clean_exchange_sizes_exact(msg_bytes):
    slow = run_exchange(fast=False, msg_bytes=msg_bytes)
    fast = run_exchange(fast=True, msg_bytes=msg_bytes)
    assert_equivalent(slow, fast)
    if msg_bytes > _CFG["eager_max"]:
        # A rendezvous message's control slot rides its payload's train.
        assert fast["train_demotions"] == 0


# ---------------------------------------------------------------------------
# Seeded fuzz: foreign events at random instants force span demotion
# ---------------------------------------------------------------------------

def _fuzz_cases(seed, n, kinds=("submit", "send", "ber")):
    """``(kind, t_off, msg_bytes)``: a disturbance, its instant and an
    eager or a rendezvous message size."""
    rng = random.Random(seed)
    for _ in range(n):
        yield (rng.choice(kinds), round(rng.uniform(1.0, 6500.0), 2),
               rng.choice((MSG_BYTES,) + RNDV_SIZES))


def _fuzz_pair(kind, t_off, msg_bytes):
    slow = run_exchange(fast=False, kind=kind, t_off=t_off,
                        msg_bytes=msg_bytes)
    fast = run_exchange(fast=True, kind=kind, t_off=t_off,
                        msg_bytes=msg_bytes)
    try:
        assert_equivalent(slow, fast)
    except AssertionError as exc:  # pragma: no cover - diagnostics
        raise AssertionError(
            f"kind={kind} t_off={t_off} msg_bytes={msg_bytes}: {exc}") from exc


@pytest.mark.parametrize("seed", [3, 11, 77])
def test_flow_demotion_fuzz_oracle(seed):
    for case in _fuzz_cases(seed, 4):
        _fuzz_pair(*case)


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(6)))
def test_flow_demotion_fuzz_oracle_deep(seed):
    for case in _fuzz_cases(seed + 500, 10):
        _fuzz_pair(*case)


def test_mid_commit_demotion_exact():
    # ~1200 ns in: the first message's train is serializing and the commit
    # span holds applied-but-unflushed lines; a foreign submit on the
    # sender demotes both, materializing in-flight commits as real
    # calendar entries and re-arming the classic chain for the tail.
    slow = run_exchange(fast=False, kind="submit", t_off=1200.0)
    fast = run_exchange(fast=True, kind="submit", t_off=1200.0)
    assert_equivalent(slow, fast)
    assert fast["train_demotions"] >= 1, "disturbance never demoted a train"


# ---------------------------------------------------------------------------
# ReadFlow: coherent remote read/response chains (single-board prototype,
# node0 reading node1's DRAM slice over the coherent fabric link)
# ---------------------------------------------------------------------------

M256 = 256 * MiB


def run_read_exchange(fast, nlines=24, kind=None, t_off=None):
    """node0's core reads ``nlines`` cachelines of node1 memory (a chain
    of same-route coherent fabric reads); optional foreign disturbance
    ``t_off`` ns after the reads start."""
    proto = build_single_board_prototype()
    sim = proto.sim
    sim.features.adaptive_fidelity = fast
    proto.boot()
    node0, node1 = proto.node0, proto.node1
    link = proto.coherent_link
    binding = node0.ports[3]

    rng = random.Random(0xBEAD)
    payload = rng.randbytes(nlines * 64)
    node1.memory.write(0x40000, payload)
    addr = M256 + 0x40000

    got = {}

    def reader():
        got["data"] = yield from node0.cores[0].load(addr, nlines * 64)

    def disturb():
        if kind == "submit":
            # A foreign posted write to node1 crosses the same link.
            node0.nb.submit_posted(M256 + 0x700000, b"\xa5" * 8)
        elif kind == "send":
            from repro.ht.packet import make_posted_write

            pkt = make_posted_write(M256 + 0x700000, b"\x5a" * 64,
                                    unitid=node0.nb.nodeid, coherent=True)
            if not link.try_send(binding.side, pkt):
                link.send(binding.side, pkt)
        elif kind == "ber":
            link.ber = 1e-6
            link.ber = 0.0
        elif kind == "stall":
            # Credit theft (the injector's CREDIT_STALL), inline.
            link.demote_macros()
            stolen = []
            for d in link._dirs.values():
                for pool in d.credits.values():
                    n = 0
                    while pool.try_take():
                        n += 1
                    if n:
                        stolen.append((pool, n))

            def _restore():
                for pool, n in stolen:
                    pool.give(n)

            sim.schedule(200.0, _restore)

    if kind is not None:
        sim.schedule(t_off, disturb)
    e0 = sim.event_count
    done = sim.process(reader())
    sim.run_until_event(done)
    sim.run()
    if kind is None:
        assert_drained(proto)

    stats = {s: link.stats(s).as_dict(sim.now) for s in ("A", "B")}
    mc1 = node1.memctrl
    fl = flow_counters(sim)
    return dict(
        t_end=sim.now,
        payload_ok=got.get("data") == payload,
        stats=stats,
        counters=_model_counters(node0.nb),
        dest_counters=_model_counters(node1.nb),
        dest_mc=(mc1.reads, mc1.writes, mc1.bytes_read, mc1.bytes_written),
        dest_mem=mc1.memory.read(0, 1 << 20),
        events=sim.event_count - e0,
        read_windows=fl.read_windows,
        read_reads=fl.read_reads,
        read_demotions=fl.read_demotions,
    )


_READ_COMPARED = ("t_end", "payload_ok", "stats", "counters",
                  "dest_counters", "dest_mc", "dest_mem")


def assert_read_equivalent(slow, fast):
    assert slow["payload_ok"] and fast["payload_ok"]
    for key in _READ_COMPARED:
        assert slow[key] == fast[key], (
            f"{key} diverged:\n  slow: {str(slow[key])[:400]}"
            f"\n  fast: {str(fast[key])[:400]}"
        )


def test_clean_read_chain_exact():
    slow = run_read_exchange(fast=False)
    fast = run_read_exchange(fast=True)
    assert_read_equivalent(slow, fast)
    assert fast["read_windows"] >= 1, "read flow never engaged"
    assert fast["read_reads"] == 24, "not every read promoted"
    assert fast["read_demotions"] == 0
    assert slow["read_reads"] == 0
    assert fast["events"] < slow["events"] * 0.7, (
        f"read flow saved too little: {slow['events']} -> {fast['events']}"
    )


def test_default_features_promote_read_flow():
    from repro.sim import SimFeatures

    proto = build_single_board_prototype()
    sim = proto.sim
    assert sim.features == SimFeatures()
    proto.boot()
    payload = random.Random(0xBEAD).randbytes(16 * KiB)
    proto.node1.memory.write(0x40000, payload)
    got = {}

    def reader():
        got["data"] = yield from proto.node0.cores[0].load(
            M256 + 0x40000, len(payload))

    sim.run_until_event(sim.process(reader()))
    fl = flow_counters(sim)
    assert got["data"] == payload
    assert (fl.read_windows, fl.read_reads, fl.read_demotions) == (1, 256, 0)


def _metered_read_chain(fast):
    """A 64 KiB read chain on the single-board prototype with metrics
    enabled before boot."""
    proto = build_single_board_prototype()
    sim = proto.sim
    sim.features.adaptive_fidelity = fast
    reg = enable_metrics(sim)
    proto.boot()
    payload = random.Random(0xBEAD).randbytes(64 * KiB)
    proto.node1.memory.write(0x40000, payload)
    got = {}

    def reader():
        got["data"] = yield from proto.node0.cores[0].load(
            M256 + 0x40000, len(payload))

    e0 = sim.event_count
    sim.run_until_event(sim.process(reader()))
    sim.run()
    fl = flow_counters(sim)
    return dict(t_end=sim.now, payload_ok=got["data"] == payload,
                snapshot=reg.snapshot(sim.now),
                links=proto.coherent_link.metrics(sim.now),
                events=sim.event_count - e0,
                reads=(fl.read_windows, fl.read_reads, fl.read_demotions))


def test_metrics_keep_read_flow():
    """Nothing on the read path records into the metrics registry, so
    enabling metrics leaves ReadFlow on, and the metered run observes
    what the per-packet run does."""
    slow = _metered_read_chain(fast=False)
    fast = _metered_read_chain(fast=True)
    assert slow["payload_ok"] and fast["payload_ok"]
    assert fast["reads"] == (1, 1024, 0)
    for key in ("t_end", "snapshot", "links"):
        assert slow[key] == fast[key], f"{key} diverged"
    assert fast["events"] < slow["events"] * 0.6


@pytest.mark.parametrize("seed", [5, 23, 91])
def test_read_demotion_fuzz_oracle(seed):
    rng = random.Random(seed)
    for _ in range(4):
        kind = rng.choice(("submit", "send", "ber", "stall"))
        t_off = round(rng.uniform(1.0, 4000.0), 2)
        slow = run_read_exchange(fast=False, kind=kind, t_off=t_off)
        fast = run_read_exchange(fast=True, kind=kind, t_off=t_off)
        try:
            assert_read_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"kind={kind} t_off={t_off}: {exc}") from exc


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(4)))
def test_read_demotion_fuzz_oracle_deep(seed):
    rng = random.Random(seed + 900)
    for _ in range(10):
        kind = rng.choice(("submit", "send", "ber", "stall"))
        t_off = round(rng.uniform(1.0, 4000.0), 2)
        slow = run_read_exchange(fast=False, kind=kind, t_off=t_off)
        fast = run_read_exchange(fast=True, kind=kind, t_off=t_off)
        try:
            assert_read_equivalent(slow, fast)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"kind={kind} t_off={t_off}: {exc}") from exc


# ---------------------------------------------------------------------------
# Fault oracle: a reliable msglib stream across a link flap, a crash or a
# credit stall
# ---------------------------------------------------------------------------

def run_fault_stream(fast, topo, plan, cfg, nmsgs=240, msg_bytes=256,
                     probe_ns=None):
    """A reliable rank 0 -> rank 1 stream of ``nmsgs`` messages under the
    fault ``plan``; the sender retries a send that hits its deadline and
    the receiver drops duplicates by message index.  Returns the end
    time, whether every message arrived once, in order, and the metrics
    registry's snapshot (enabled before boot).  With ``probe_ns`` the
    run first stops that long after the plan is armed and records the
    slot spans and sends so far under ``"probe"``."""
    from repro.msglib import TransportError

    sys_ = TCClusterSystem(topo, msg_cfg=MsgConfig(**cfg),
                           memory_bytes=64 * MiB)
    sys_.sim.features.adaptive_fidelity = fast
    sys_.enable_metrics()
    sys_.boot()
    sim = sys_.sim
    t_arm = sim.now
    FaultInjector(sys_.cluster, plan).arm(on_conflict="skip")
    tx_ep, rx_ep = sys_.connect(0, 1)
    rng = random.Random(0xFA17)
    msgs = [i.to_bytes(4, "little") + rng.randbytes(msg_bytes - 4)
            for i in range(nmsgs)]
    got = []

    def tx():
        for m in msgs:
            for _ in range(8):
                try:
                    yield from tx_ep.send(m)
                    break
                except TransportError:
                    pass

    def rx():
        while len(got) < len(msgs):
            try:
                m = yield from rx_ep.recv()
            except TransportError:
                continue
            if int.from_bytes(m[:4], "little") == len(got):
                got.append(m)

    ps = [sim.process(tx()), sim.process(rx())]
    probe = None
    if probe_ns is not None:
        sim.run(until=t_arm + probe_ns)
        probe = dict(t=sim.now, faults_until=sim._train_faults_until,
                     slot_windows=flow_counters(sim).slot_windows,
                     msgs_sent=tx_ep.stats.msgs_sent)
    sim.run_until_event(sim.all_of(ps))
    return dict(t_end=sim.now, delivered=got == msgs,
                slot_windows=flow_counters(sim).slot_windows, probe=probe,
                snap=metrics_for(sim).snapshot(sim.now))


def _fault_stream_cases():
    from repro.topology import chain, ring

    reliable = dict(send_deadline_ns=1e7, recv_deadline_ns=4e7)
    crash = dict(send_deadline_ns=2e5, recv_deadline_ns=5e5)
    flap = FaultPlan().add(8_000.0, FaultKind.LINK_FLAP, 0,
                           duration_ns=20_000.0)
    # The short flap's retrain brings the link back up at about 10 us;
    # the long flap's revive takes it down again at 28.15 us, inside a
    # slot span's train if spans may run by then.
    flap2 = (FaultPlan().add(8_000.0, FaultKind.LINK_FLAP, 0,
                             duration_ns=20_150.0)
                        .add(9_000.0, FaultKind.LINK_FLAP, 0,
                             duration_ns=1_000.0))
    # Lands inside a slot span's train if spans may run before it.
    stall = FaultPlan().add(8_500.0, FaultKind.CREDIT_STALL, 0,
                            duration_ns=20_000.0)
    return [
        pytest.param(chain(2), flap, reliable, id="flap.chain2"),
        pytest.param(ring(3), flap, reliable, id="flap.ring3"),
        pytest.param(chain(2), flap2, reliable, id="flap2.chain2"),
        pytest.param(chain(2),
                     FaultPlan().add(2_000.0, FaultKind.NODE_CRASH, 1)
                                .add(400_000.0, FaultKind.NODE_WARM_RESET, 1),
                     crash, id="crash.chain2"),
        pytest.param(chain(2), stall, reliable, id="stall.chain2"),
    ]


@pytest.mark.parametrize("topo,plan,cfg", _fault_stream_cases())
def test_fault_stream_matches_per_packet(topo, plan, cfg):
    """Slot spans stay away from link-down and credit-stall faults: none
    is planned until the plan's last such event has acted (a flap acts
    again at its revive), so a train's inexact demotion on
    ``bring_down`` or a credit theft (DESIGN.md section 8.2) never meets
    one, and the stream ends at the per-packet instant (222146.75,
    222156.75, 203618.0 and 623201.5 ns for the flap and crash plans).
    Both runs are metered: the spans replay every per-slot sample."""
    slow = run_fault_stream(False, topo, plan, cfg)
    fast = run_fault_stream(True, topo, plan, cfg)
    assert slow["delivered"] and fast["delivered"]
    assert fast["slot_windows"] >= 1, "slot coalescing never engaged"
    assert slow["t_end"] == fast["t_end"]
    assert slow["snap"] == fast["snap"]


def test_pending_link_flap_holds_off_slot_spans():
    """With a LINK_FLAP pending, the eager messages sent until its revive
    at ``t`` (whose retrain takes the link down once more) go out slot
    by slot; spans resume once ``t`` has passed.  Without the plan the
    same stream opens spans before the flap would fire."""
    from repro.topology import chain

    reliable = dict(send_deadline_ns=1e7, recv_deadline_ns=4e7)
    at, duration = 8_000.0, 20_000.0
    flap = FaultPlan().add(at, FaultKind.LINK_FLAP, 0, duration_ns=duration)
    out = run_fault_stream(True, chain(2), flap, reliable,
                           probe_ns=at + duration)
    probe = out["probe"]
    assert probe["faults_until"] == probe["t"]
    assert probe["msgs_sent"] >= 2, "no eager message went out before t"
    assert probe["slot_windows"] == 0, "slot span planned before the revive"
    assert out["delivered"] and out["slot_windows"] >= 1

    clean = run_fault_stream(True, chain(2), FaultPlan(), reliable,
                             probe_ns=at)
    assert clean["probe"]["slot_windows"] >= 1


def test_arming_a_link_fault_demotes_an_open_slot_span():
    """A plan armed while a slot span's train is open demotes it at the
    arm instant; the run matches the per-packet run."""
    slow = run_exchange(fast=False, kind="arm", t_off=1200.0)
    fast = run_exchange(fast=True, kind="arm", t_off=1200.0)
    assert_equivalent(slow, fast)
    assert fast["open_windows"][0] >= 1, "no window open at the arm instant"
    assert fast["open_windows"][1] == 0
    assert fast["train_demotions"] == 1
    assert fast["slot_windows"] == 1, "a span planned before the flap fired"
