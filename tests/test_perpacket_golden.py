"""Per-packet oracle: the packet stages replayed against recorded digests.

Every scenario runs with ``adaptive_fidelity`` off, so every packet goes
through the link pumps, the northbridge dispatchers and the rx stages.
Each traces every link and every memory controller and records

* the sha256 of the traced ``tx``/``rx``/``drop`` link records and the
  ``write_done`` commit records, each as ``(time, name, kind, fields)``
  in emission order, so equal-instant order between links counts;
* the sha256 of every direction's ``LinkStats`` and a few of its totals;
* the instant the calendar drained.

The digests in ``tests/golden/perpacket_digests.json`` were recorded
before the stages became step functions; regenerate them only for a
change that is meant to move a per-packet result::

    PYTHONPATH=src python tests/test_perpacket_golden.py
"""

import hashlib
import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from helpers import assert_drained, system_chips, system_links  # noqa: E402

from repro.sim import Tracer  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "perpacket_digests.json"

_KINDS = ("tx", "rx", "drop", "write_done")


def _traced(system) -> Tracer:
    """Trace every link and memory controller of ``system``."""
    tracer = Tracer()
    tracer.add_filter(lambda r: r.event in _KINDS)
    for link in system_links(system):
        link.tracer = tracer
    for chip in system_chips(system):
        chip.memctrl.tracer = tracer
    return tracer


def _digest(system, tracer) -> dict:
    sim = system_chips(system)[0].sim
    assert_drained(system)
    h = hashlib.sha256()
    for r in tracer.records:
        h.update(repr((r.time, r.component, r.event, r.info)).encode())
    stats = {f"{link.name}.{side}": link.stats(side).as_dict(sim.now)
             for link in system_links(system) for side in ("A", "B")}
    total = {k: sum(s[k] for s in stats.values())
             for k in ("packets", "credit_stall_ns", "naks", "retries",
                       "drops")}
    return {
        "records": h.hexdigest(),
        "n_records": len(tracer.records),
        "stats": hashlib.sha256(repr(sorted(stats.items())).encode()).hexdigest(),
        "totals": total,
        "t_end": sim.now,
    }


def _cluster(topo, **kw):
    from repro.core import TCClusterSystem

    system = TCClusterSystem(topo, **kw)
    system.sim.features.adaptive_fidelity = False
    return system


def _stores(system, pairs, nbytes, offsets=None):
    """Each ``(rank, peer)`` stores ``nbytes`` into ``peer`` in one call
    plus an sfence, all at once; checks the bytes landed."""
    from repro.bench.microbench import _RawWindow

    cl = system.cluster
    sim = system.sim
    wins = [_RawWindow(cl, a, b) for a, b in pairs]
    datas = [bytes((i * 37 + 11 * k + 5) % 256 for i in range(nbytes))
             for k in range(len(pairs))]
    offsets = offsets or [0] * len(pairs)

    def job(w, base, d):
        yield from w.proc.store(base, d)
        yield from w.proc.core.sfence()

    procs = [sim.process(job(w, w.tx_base + off, d))
             for w, off, d in zip(wins, offsets, datas)]
    sim.run_until_event(sim.all_of(procs))
    sim.run()
    for (_, b), w, off, d in zip(pairs, wins, offsets, datas):
        info = cl.ranks[b]
        got = info.chip.memory.read(w.tx_base + off - info.base, len(d))
        assert got == d, f"stream into rank {b} lost bytes"


def torus_corners():
    """``torus_bulk``'s phase 2: four corner-to-antipode streams over
    six forwarding hops, two pairs of which share a link direction."""
    from repro.topology import torus3d

    system = _cluster(torus3d(4, 4, 4))
    tracer = _traced(system)
    system.boot()
    cl = system.cluster
    topo = cl.topology
    pairs = []
    for c in ((0, 0, 0), (3, 3, 3), (0, 3, 0), (3, 0, 3)):
        s = topo.supernode_at(c)
        d = topo.supernode_at(tuple((x + 2) % 4 for x in c))
        pairs.append((cl.rank_of(s), cl.rank_of(d)))
    _stores(system, pairs, 8 * 1024)
    out = _digest(system, tracer)
    assert out["totals"]["credit_stall_ns"] > 0, "no head-of-line blocking"
    return out


def torus2d_converging():
    """Four supernodes of ``torus2d(4, 4)`` store into one at once."""
    from repro.topology import torus2d

    system = _cluster(torus2d(4, 4))
    tracer = _traced(system)
    system.boot()
    cl = system.cluster
    dest = cl.rank_of(1)
    nbytes = 4 * 1024
    pairs = [(cl.rank_of(s), dest) for s in (0, 2, 5, 8)]
    _stores(system, pairs, nbytes, [k * nbytes for k in range(4)])
    return _digest(system, tracer)


def chain2_fault(kind: str, at_ns: float):
    """A 16 KiB store on ``chain(2)`` with ``kind`` striking its link
    mid-stream for 20 us."""
    from repro.faults import FaultInjector, FaultKind, FaultPlan
    from repro.topology import chain

    def run():
        system = _cluster(chain(2))
        tracer = _traced(system)
        system.boot()
        plan = FaultPlan().add(at_ns, FaultKind[kind], 0,
                               duration_ns=20_000.0,
                               magnitude=1e-2 if kind == "BER_STORM" else 0.0)
        FaultInjector(system.cluster, plan).arm()
        if kind == "LINK_KILL":
            # A dead link salvages into the sender's posted queue and
            # drops what finds no way out, so only conservation holds.
            from repro.bench.microbench import _RawWindow

            w = _RawWindow(system.cluster, 0, 1)
            data = bytes((i * 37 + 5) % 256 for i in range(16 * 1024))
            system.sim.process(w.proc.store(w.tx_base, data))
            system.sim.run()
        else:
            _stores(system, [(0, 1)], 16 * 1024)
        return _digest(system, tracer)

    return run


def read_chain():
    """node0 pulls 4 KiB of node1's DRAM as coherent line reads on the
    single-board prototype."""
    from repro.cluster import build_single_board_prototype

    proto = build_single_board_prototype()
    proto.sim.features.adaptive_fidelity = False
    tracer = _traced(proto)
    proto.boot()
    data = bytes((i * 13 + 7) % 256 for i in range(4096))
    proto.node1.memory.write(0x40000, data)
    got = []

    def reader():
        got.append((yield from proto.node0.cores[0].load(
            (256 << 20) + 0x40000, len(data))))

    proto.sim.run_until_event(proto.sim.process(reader()))
    proto.sim.run()
    assert got == [data]
    return _digest(proto, tracer)


def canonical_2node():
    """The canonical two-board msglib mix (``tests/golden/canonical_2node.json``)."""
    from repro.core import TCClusterSystem
    from repro.obs.scenarios import run_canonical_2node

    system = TCClusterSystem.two_board_prototype()
    system.sim.features.adaptive_fidelity = False
    tracer = _traced(system)
    run_canonical_2node(system=system)
    return _digest(system, tracer)


SCENARIOS = {
    "torus_corners": torus_corners,
    "torus2d_converging": torus2d_converging,
    "chain2_storm": chain2_fault("BER_STORM", 2000.0),
    "chain2_stall": chain2_fault("CREDIT_STALL", 2000.0),
    "chain2_flap": chain2_fault("LINK_FLAP", 2000.0),
    "chain2_kill": chain2_fault("LINK_KILL", 2000.0),
    "read_chain": read_chain,
    "canonical_2node": canonical_2node,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_per_packet_digest(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = SCENARIOS[name]()
    assert got == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({n: SCENARIOS[n]() for n in sorted(SCENARIOS)},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
