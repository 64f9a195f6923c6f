"""Per-layer observation of a benchmark run, taken from outside the program.

Two instruments, neither of which touches ``src/``:

* :func:`attribute` turns a :mod:`cProfile` profile of the measured phases
  into host self time per layer.  A layer is a ``repro`` package (or one
  of the two macro-event modules, ``sim/flows.py`` and
  ``opteron/train.py``); the benchmark's own files are ``harness``.  Self
  time of anything else -- C builtins, the standard library, NumPy and
  the ``repro.util``/``repro.obs`` helpers -- is charged to the layer that
  called it, split by the caller's share of the cumulative time.
* :func:`read_counters` reads the always-on counter families of one
  simulated system through public accessors.  Each family is read on its
  own and reports ``None`` when its accessor is missing, so a later
  change to the counter API degrades the per-layer table instead of
  failing the run.
"""

from __future__ import annotations

import pathlib
import pstats
from collections import defaultdict
from typing import Dict, Optional

HERE = pathlib.Path(__file__).resolve().parent
SRC_REPRO = HERE.parent.parent / "src" / "repro"

#: Every layer a self-time fraction is reported for, in report order.
LAYERS = ("sim", "sim.flows", "ht", "opteron", "opteron.train", "msglib",
          "middleware", "faults", "kernel", "setup", "harness")

_MODULE_LAYER = {"sim/flows.py": "sim.flows", "opteron/train.py": "opteron.train"}
_PACKAGE_LAYER = {
    "sim": "sim", "ht": "ht", "opteron": "opteron", "coherence": "opteron",
    "msglib": "msglib", "middleware": "middleware", "faults": "faults",
    "kernel": "kernel", "cluster": "setup", "firmware": "setup",
    "topology": "setup", "core": "setup",
}


def layer_of_file(filename: str) -> Optional[str]:
    """The layer that owns code in ``filename``; None when its self time
    belongs to whoever called it."""
    path = pathlib.Path(filename)
    if path.parent == HERE:
        return "harness"
    try:
        rel = path.relative_to(SRC_REPRO).as_posix()
    except ValueError:
        return None
    return _MODULE_LAYER.get(rel) or _PACKAGE_LAYER.get(rel.split("/")[0])


def attribute(stats: pstats.Stats) -> Dict[str, Dict[str, float]]:
    """Self-time fraction and call count of every layer.

    Self time of a function outside every layer moves to its callers in
    proportion to the cumulative time each caller spent in it; time that
    reaches a caller outside every layer moves on up the same way.  What
    cannot be placed (the profile root) lands in ``harness``, which is
    where the profiled region starts.
    """
    layer_cache: Dict[str, Optional[str]] = {}

    def layer(func) -> Optional[str]:
        fn = func[0]
        if fn not in layer_cache:
            layer_cache[fn] = layer_of_file(fn)
        return layer_cache[fn]

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    pending: Dict[tuple, float] = defaultdict(float)
    for func, (_cc, nc, tt, _ct, _callers) in stats.stats.items():
        own = layer(func)
        if own is None:
            pending[func] += tt
        else:
            self_s[own] += tt
            calls[own] += nc
    # Each pass moves unplaced time one caller level up; recursion among
    # foreign functions only decays geometrically, so stop at a floor.
    for _ in range(64):
        if not pending:
            break
        moved: Dict[tuple, float] = defaultdict(float)
        for func, mass in pending.items():
            callers = stats.stats[func][4]
            weights = {c: v[3] for c, v in callers.items() if v[3] > 0}
            total = sum(weights.values())
            if not total:
                self_s["harness"] += mass
                continue
            for caller, w in weights.items():
                share = mass * w / total
                owner = layer(caller)
                if owner is None:
                    moved[caller] += share
                else:
                    self_s[owner] += share
        pending = {f: m for f, m in moved.items() if m > 1e-9}
    self_s["harness"] += sum(pending.values())
    total = sum(self_s.values()) or 1.0
    return {name: {"self_frac": self_s.get(name, 0.0) / total,
                   "calls": calls.get(name, 0)}
            for name in LAYERS}


# ---------------------------------------------------------------------------
# Counter families
# ---------------------------------------------------------------------------

#: Raw counter keys summed across the systems of one repetition.
COUNTER_KEYS = (
    "ht.packets", "ht.wire_bytes", "ht.busy_ns", "ht.direction_ns",
    "ht.credit_stall_ns", "ht.retries", "ht.naks",
    "opteron.remote_reads", "opteron.bytes_copied", "opteron.packets_alloc",
    "opteron.packets_pooled",
    "opteron.train.windows", "opteron.train.lines", "opteron.train.demotions",
    "sim.flows.windows", "sim.flows.slot_slots", "sim.flows.read_reads",
    "sim.flows.forward_packets", "sim.flows.demotions",
    "msglib.msgs", "msglib.bytes", "msglib.polls", "msglib.park_wakes",
    "msglib.tx_stall_ns", "msglib.retransmits", "msglib.session_resets",
    "middleware.ops", "middleware.payload_bytes",
    "faults.injected", "faults.retrains", "faults.reroutes",
    "faults.packets_salvaged", "faults.fatal_broadcasts",
)


def _chips(system):
    """Every chip of a booted ``TCClusterSystem`` or single-board prototype."""
    boards = system.cluster.boards if hasattr(system, "cluster") else [system.board]
    return [chip for board in boards for chip in board.chips]


def _ht(system):
    now = system.sim.now
    links = {}
    for chip in _chips(system):
        for binding in chip.ports.values():
            links.setdefault(id(binding.link), binding.link)
    out = dict.fromkeys(("ht.packets", "ht.wire_bytes", "ht.busy_ns",
                         "ht.direction_ns", "ht.credit_stall_ns",
                         "ht.retries", "ht.naks"), 0)
    for link in links.values():
        for side in link.metrics(now).values():
            out["ht.packets"] += side["packets"]
            out["ht.wire_bytes"] += side["wire_bytes"]
            out["ht.busy_ns"] += side["busy_ns"]
            out["ht.direction_ns"] += now
            out["ht.credit_stall_ns"] += side["credit_stall_ns"]
            out["ht.retries"] += side["retries"]
            out["ht.naks"] += side["naks"]
    return out


def _northbridge(system):
    keys = {"opteron.remote_reads": "remote_reads",
            "opteron.train.windows": "train_windows",
            "opteron.train.lines": "train_lines",
            "opteron.train.demotions": "train_demotions"}
    chips = _chips(system)
    return {k: sum(chip.nb.counters.get(c) for chip in chips)
            for k, c in keys.items()}


def _datapath(system):
    from repro.obs.metrics import datapath_counters

    d = datapath_counters(system.sim,
                          memories=[chip.memory for chip in _chips(system)])
    return {"opteron.bytes_copied": d["bytes_copied"],
            "opteron.packets_alloc": d["packets_alloc"],
            "opteron.packets_pooled": d["packets_pooled"]}


def _flows(system):
    from repro.obs.metrics import flow_counters

    f = flow_counters(system.sim)
    return {"sim.flows.windows": f.slot_windows + f.read_windows + f.forward_windows,
            "sim.flows.slot_slots": f.slot_slots,
            "sim.flows.read_reads": f.read_reads,
            "sim.flows.forward_packets": f.forward_packets,
            "sim.flows.demotions": f.read_demotions + f.forward_demotions}


def _msglib(system):
    keys = {"msglib.msgs": "msgs_received", "msglib.bytes": "bytes_received",
            "msglib.polls": "polls", "msglib.park_wakes": "park_wakes",
            "msglib.tx_stall_ns": "tx_stall_ns",
            "msglib.retransmits": "retransmits",
            "msglib.session_resets": "session_resets"}
    # The single-board prototype runs no message library.
    endpoints = (list(system.metrics()["endpoints"].values())
                 if hasattr(system, "cluster") else [])
    return {k: sum(ep[s] for ep in endpoints) for k, s in keys.items()}


def _middleware(system):
    from repro.obs.metrics import collective_counters

    c = collective_counters(system.sim)
    return {"middleware.ops": c.ops, "middleware.payload_bytes": c.payload_bytes}


def _faults(system):
    from repro.obs.metrics import fault_counters

    f = fault_counters(system.sim)
    return {"faults.injected": f.faults_injected, "faults.retrains": f.retrains,
            "faults.reroutes": f.reroutes,
            "faults.packets_salvaged": f.packets_salvaged,
            "faults.fatal_broadcasts": f.fatal_broadcasts}


_FAMILIES = (_ht, _northbridge, _datapath, _flows, _msglib, _middleware, _faults)


def read_counters(system) -> Dict[str, Optional[float]]:
    """Every :data:`COUNTER_KEYS` entry of one booted system (a
    ``TCClusterSystem`` or a single-board prototype); a family whose
    accessor fails reports ``None`` for its keys."""
    out: Dict[str, Optional[float]] = dict.fromkeys(COUNTER_KEYS)
    for family in _FAMILIES:
        try:
            out.update(family(system))
        except (AttributeError, KeyError, TypeError, ImportError):
            pass
    return out


def add_counters(total: Dict[str, Optional[float]],
                 part: Dict[str, Optional[float]]) -> None:
    """Accumulate ``part`` into ``total``; ``None`` is sticky."""
    for key in COUNTER_KEYS:
        a, b = total.get(key, 0), part.get(key)
        total[key] = None if a is None or b is None else a + b
