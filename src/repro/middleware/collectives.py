"""Collective algorithms: topology-aware, bandwidth-optimal, size-adaptive.

The seed collectives in :mod:`repro.middleware.mpi` are rank-space and
single-algorithm: ``allreduce`` is a binomial reduce-to-0 plus broadcast,
which moves the full array every round and ignores mesh/torus placement.
This module adds the bandwidth-optimal algorithms and the machinery to
pick between them:

* **ring reduce-scatter / allreduce** -- 2(n-1) steps moving m/n bytes
  each, 2m(n-1)/n total per rank (the bandwidth lower bound), embedded on
  a Hamiltonian supernode ring
  (:meth:`repro.topology.graph.ClusterTopology.hamiltonian_supernode_ring`)
  so every phase crosses only single-hop TCC links;
* **Rabenseifner allreduce** -- recursive-halving reduce-scatter plus
  recursive-doubling allgather: same bandwidth term but only 2·log2(n)
  message latencies, the better large-message choice when no neighbor
  ring embedding exists;
* **segmented binomial broadcast** -- the binomial tree pipelined in
  ``segment_bytes`` chunks so interior ranks forward segment k while
  receiving segment k+1;
* **pairwise-exchange alltoall** -- posts the receive concurrently with
  every send (XOR partners on power-of-two communicators) so bulk blocks
  stream full-duplex instead of serializing send-then-recv.

**Size-adaptive selection** (MPICH-style): latency-optimal binomial below
a crossover, bandwidth-optimal ring/Rabenseifner above.  The crossover is
*derived from the calibrated machine model*, not guessed: alpha is the
fig7 single-slot one-hop latency (234.45 ns, ``tests/golden/
fig7_latency.json``), beta the effective serialized cost per byte from
:class:`repro.util.calibration.TimingModel`.  Equating the binomial cost
``2·ceil(log2 n)·(alpha + m·beta)`` with the ring cost ``2(n-1)·alpha +
2·m·beta·(n-1)/n`` gives

    m* = alpha · ((n-1) - lg n) / (beta · (lg n - (n-1)/n))

(about 7.2 KiB at n=64 with the default timing).  Each collective takes
an ``algorithm=`` argument that forces one algorithm for that call.

Deadlock notes.  Ring steps pair an ``isend`` with a blocking ``recv``
so every rank is always draining its inbound ring while its outbound
chunk trickles through the flow-control window -- a uniform blocking
send-then-recv cycle would wedge once chunks exceed the eager window.
XOR *exchanges* (Rabenseifner's halving/doubling levels, the pairwise
alltoall) are different: on an even torus the half-dimension partner is
antipodal, both route choices tie, and three or more concurrent
bidirectional antipodal flows on one ring use every same-direction link
including the wraparound -- a closed channel-dependency cycle the
HT-style fabric (no dateline virtual channels) cannot break.  Two mitigations apply, by pattern:

* Rabenseifner's halving/doubling levels run *half-duplex in a
  deterministic order* (the partner with the lower logical id streams
  first).  Each level flips a single rank-id bit, i.e. a single
  coordinate bit, so lower id *is* the lower coordinate in the tied
  dimension: the level's concurrent flows all head "up" from the lower
  half and never cross the wrap link.  Cost: one extra serialization
  per level, leaving Rabenseifner ~3x binomial at n=64 by the
  alpha-beta model.
* The pairwise alltoall's tied steps are *leg-synchronized*
  (:func:`alltoall_pairwise`): per-pair ordering is not enough there,
  because independent pairs drift -- a laggard pair still streaming its
  first leg while a fast pair's second leg occupies the wrap link
  re-closes the cycle, and diagonal steps (antipodal in several
  dimensions at once) wrap somewhere in *either* direction.  Ranks are
  partitioned by the half of each tied ring they sit in; one leg sends
  at a time, with a dissemination barrier (single-packet tokens, unable
  to exhaust link credits) draining the fabric between legs.

Ring and tree phases (single flow per ring direction) keep the
full-duplex isend+recv overlap -- the Hamiltonian embedding makes every
ring transfer single-hop, which sinks at its destination without
forwarding and is deadlock-free by construction.  Large eager-path
chunks ride the slot-span macro-event layer (:mod:`repro.sim.flows`)
exactly like any other msglib traffic.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from ..util.calibration import DEFAULT_TIMING, TimingModel

__all__ = [
    "BCAST_SEGMENT_BYTES",
    "FIG7_ALPHA_NS",
    "allreduce_crossover_bytes",
    "bcast_crossover_bytes",
    "ALLTOALL_CROSSOVER_BYTES",
    "select_allreduce",
    "select_bcast",
    "select_alltoall",
    "ring_embedding",
    "ring_hop_profile",
    "chunk_bounds",
]

#: Calibrated one-hop single-slot HRT/2 latency (golden fig7 point); the
#: alpha term of the cost model.  Hard-coded so the selector never reads
#: golden files at simulation time.
FIG7_ALPHA_NS = 234.45

#: Below this per-block size the linear alltoall's send-then-recv is fine
#: (sends retire locally); above it, blocks start to fill the eager ring
#: window and the pairwise exchange's concurrently posted receive is what
#: keeps both directions streaming.
ALLTOALL_CROSSOVER_BYTES = 2048

#: Segment size of the pipelined broadcast (also the floor of its
#: derived crossover, :func:`bcast_crossover_bytes`).
BCAST_SEGMENT_BYTES = 8192

_RS_TAG = (1 << 27)              # ring reduce-scatter steps
_RING_AG_TAG = (1 << 27) + (1 << 20)   # ring allgather steps
_RAB_FOLD_TAG = (1 << 27) + (2 << 20)  # Rabenseifner non-pow2 fold
_RAB_RS_TAG = (1 << 27) + (3 << 20)    # recursive halving levels
_RAB_AG_TAG = (1 << 27) + (4 << 20)    # recursive doubling levels
_RAB_UNFOLD_TAG = (1 << 27) + (5 << 20)
_SEG_TAG = (1 << 27) + (6 << 20)       # bcast segments

_HDR = struct.Struct("<q")

#: Cap on outstanding isend requests in the pipelined broadcast (bounds
#: simulator process count, deep enough to keep every tree edge busy).
_MAX_INFLIGHT = 32


def _beta_ns_per_byte(timing: TimingModel) -> float:
    # Effective serialized cost per payload byte of a full 64 B slot
    # (header + CRC overhead folded in), from the calibrated link model.
    return timing.serialization_ns(64) / 64.0


def allreduce_crossover_bytes(nranks: int,
                              alpha_ns: float = FIG7_ALPHA_NS,
                              timing: TimingModel = DEFAULT_TIMING) -> int:
    """Message size where ring allreduce overtakes binomial reduce+bcast."""
    if nranks <= 2:
        return 1 << 62  # binomial == optimal; never switch
    beta = _beta_ns_per_byte(timing)
    lg = math.ceil(math.log2(nranks))
    denom = lg - (nranks - 1) / nranks
    if denom <= 0:
        return 1 << 62
    return max(0, int(alpha_ns * ((nranks - 1) - lg) / (beta * denom)))


def bcast_crossover_bytes(nranks: int, segment_bytes: int,
                          alpha_ns: float = FIG7_ALPHA_NS,
                          timing: TimingModel = DEFAULT_TIMING) -> int:
    """Message size where the segmented pipeline overtakes plain binomial.

    Binomial moves the whole message down every tree level
    (``lg·(alpha + m·beta)``); the pipeline pays one segment of fill per
    level plus the streaming term (``lg·(alpha + s·beta) + (m/s)·(alpha +
    s·beta)``).  Equating and solving for m gives the crossover below.
    """
    if nranks <= 2:
        return 1 << 62  # no interior rank to pipeline through
    beta = _beta_ns_per_byte(timing)
    lg = math.ceil(math.log2(nranks))
    per_seg = alpha_ns + segment_bytes * beta
    denom = (lg - 1) * beta - alpha_ns / segment_bytes
    if denom <= 0:
        return 1 << 62
    return max(segment_bytes, int(lg * per_seg / denom))


def select_allreduce(nbytes: int, nranks: int, crossover: int,
                     ring_single_hop: bool) -> str:
    if nranks <= 2 or nbytes <= crossover:
        return "binomial"
    # Above the crossover both candidates hit the 2m(n-1)/n bandwidth
    # bound; prefer the ring when the embedding guarantees single-hop
    # neighbor traffic (no shared links, no multi-hop congestion), else
    # Rabenseifner's lg(n) latency terms win.
    return "ring" if ring_single_hop else "rabenseifner"


def select_bcast(nbytes: int, nranks: int, crossover: int) -> str:
    return "binomial" if nranks <= 2 or nbytes <= crossover else "segmented"


def select_alltoall(block_bytes: int, crossover: int) -> str:
    return "linear" if block_bytes <= crossover else "pairwise"


# ---------------------------------------------------------------------------
# Topology-aware rank embedding
# ---------------------------------------------------------------------------

def ring_embedding(topology, rank_supernodes: Optional[Sequence[int]],
                   nranks: int) -> List[int]:
    """Rank order for ring collectives.

    On a grid topology this walks the Hamiltonian supernode ring and
    keeps each supernode's ranks adjacent (chips on one board exchange
    over the coherent fabric, not a TCC link), so ring phases only ever
    cross single-hop links.  Off-grid, or when the rank->supernode map is
    unavailable or partial, it falls back to plain rank order.
    """
    if topology is None or not getattr(topology, "is_grid", False):
        return list(range(nranks))
    if rank_supernodes is None or len(rank_supernodes) != nranks:
        return list(range(nranks))
    by_sn: dict = {}
    for rank, sn in enumerate(rank_supernodes):
        by_sn.setdefault(sn, []).append(rank)
    if set(by_sn) != set(range(topology.num_supernodes)):
        return list(range(nranks))
    order: List[int] = []
    for sn in topology.hamiltonian_supernode_ring():
        order.extend(by_sn[sn])
    return order


def ring_hop_profile(topology, order: Sequence[int],
                     rank_supernodes: Sequence[int]) -> List[int]:
    """TCC hop count of each (cyclic) consecutive pair in ``order``."""
    n = len(order)
    hops: List[int] = []
    for i in range(n):
        a = rank_supernodes[order[i]]
        b = rank_supernodes[order[(i + 1) % n]]
        hops.append(0 if a == b else topology.hop_distance(a, b))
    return hops


def chunk_bounds(total: int, n: int) -> List[Tuple[int, int]]:
    """Balanced element ranges: chunk i is ``[i*total//n, (i+1)*total//n)``."""
    return [(i * total // n, (i + 1) * total // n) for i in range(n)]


# ---------------------------------------------------------------------------
# Ring reduce-scatter / allreduce (generators driven by the Communicator)
# ---------------------------------------------------------------------------

def _ring_reduce_scatter(comm, acc: np.ndarray, fn):
    """n-1 ring steps; afterwards ring position q fully owns the chunk of
    rank ``order[q]`` (i.e. every rank owns *its own* rank-indexed chunk).
    Returns ``(bounds_by_pos, pos)`` for the follow-on phases."""
    order = comm.ring_order
    n = len(order)
    pos = order.index(comm.rank)
    right = order[(pos + 1) % n]
    left = order[(pos - 1) % n]
    by_rank = chunk_bounds(acc.size, n)
    bounds = [by_rank[order[q]] for q in range(n)]  # position-space chunks
    for step in range(n - 1):
        s0, s1 = bounds[(pos - step - 1) % n]
        r0, r1 = bounds[(pos - step - 2) % n]
        req = comm.isend(acc[s0:s1].tobytes(), right, tag=_RS_TAG + step)
        raw = yield from comm.recv(left, tag=_RS_TAG + step)
        other = comm._reduce_payload(raw, (r1 - r0) * acc.itemsize,
                                     acc.dtype, None, left)
        acc[r0:r1] = fn(acc[r0:r1], other)
        yield from req.wait()
    return bounds, pos


def _ring_allgather(comm, acc: np.ndarray, bounds, pos: int):
    order = comm.ring_order
    n = len(order)
    right = order[(pos + 1) % n]
    left = order[(pos - 1) % n]
    for step in range(n - 1):
        s0, s1 = bounds[(pos - step) % n]
        r0, r1 = bounds[(pos - step - 1) % n]
        req = comm.isend(acc[s0:s1].tobytes(), right, tag=_RING_AG_TAG + step)
        raw = yield from comm.recv(left, tag=_RING_AG_TAG + step)
        acc[r0:r1] = comm._reduce_payload(raw, (r1 - r0) * acc.itemsize,
                                          acc.dtype, None, left)
        yield from req.wait()


def allreduce_ring(comm, flat: np.ndarray, fn):
    """Ring allreduce over the embedded neighbor ring; returns the fully
    reduced flat array (same dtype, writable copy)."""
    acc = flat.copy()
    bounds, pos = yield from _ring_reduce_scatter(comm, acc, fn)
    yield from _ring_allgather(comm, acc, bounds, pos)
    return acc


def reduce_scatter_ring(comm, flat: np.ndarray, fn):
    """Ring reduce-scatter; returns this rank's fully reduced chunk
    (rank-indexed bounds from :func:`chunk_bounds`)."""
    acc = flat.copy()
    bounds, pos = yield from _ring_reduce_scatter(comm, acc, fn)
    lo, hi = bounds[pos]
    return acc[lo:hi].copy()


def _exchange(comm, peer: int, payload: bytes, tag: int, send_first: bool):
    """Half-duplex pairwise exchange (see the module deadlock notes):
    the ``send_first`` side streams its payload, then receives; the other
    side mirrors.  Returns the received payload."""
    if send_first:
        yield from comm.send(payload, peer, tag)
        raw = yield from comm.recv(peer, tag=tag)
    else:
        raw = yield from comm.recv(peer, tag=tag)
        yield from comm.send(payload, peer, tag)
    return raw


# ---------------------------------------------------------------------------
# Rabenseifner allreduce (recursive halving + recursive doubling)
# ---------------------------------------------------------------------------

def allreduce_rabenseifner(comm, flat: np.ndarray, fn):
    """Rabenseifner's allreduce; returns the reduced flat array.

    Non-power-of-two sizes use the standard MPICH fold: the first 2r
    ranks (r = n - 2^floor(lg n)) pair up, each pair pre-reduces into the
    even rank, odd ranks sit out the power-of-two core and receive the
    result at the end.
    """
    n, me = comm.size, comm.rank
    acc = flat.copy()
    nel = acc.size
    item = acc.itemsize
    p = 1 << (n.bit_length() - 1)
    r = n - p

    newrank = -1
    if me < 2 * r:
        partner = me + 1 if me % 2 == 0 else me - 1
        half = nel // 2
        if me % 2 == 0:
            # Pair pre-reduce: even keeps [0:half), odd reduces the rest,
            # then the even rank assembles the pair's full vector.
            req = comm.isend(acc[half:].tobytes(), partner,
                             tag=_RAB_FOLD_TAG)
            raw = yield from comm.recv(partner, tag=_RAB_FOLD_TAG)
            other = comm._reduce_payload(raw, half * item, acc.dtype,
                                         None, partner)
            acc[:half] = fn(acc[:half], other)
            yield from req.wait()
            raw = yield from comm.recv(partner, tag=_RAB_FOLD_TAG + 1)
            acc[half:] = comm._reduce_payload(raw, (nel - half) * item,
                                              acc.dtype, None, partner)
            newrank = me // 2
        else:
            req = comm.isend(acc[:half].tobytes(), partner,
                             tag=_RAB_FOLD_TAG)
            raw = yield from comm.recv(partner, tag=_RAB_FOLD_TAG)
            other = comm._reduce_payload(raw, (nel - half) * item,
                                         acc.dtype, None, partner)
            acc[half:] = fn(acc[half:], other)
            yield from req.wait()
            yield from comm.send(acc[half:].tobytes(), partner,
                                 tag=_RAB_FOLD_TAG + 1)
    else:
        newrank = me - r

    def real_rank(nr: int) -> int:
        return nr * 2 if nr < r else nr + r

    if newrank >= 0:
        # Recursive-halving reduce-scatter over the 2^k core.
        lo, hi = 0, nel
        splits: List[Tuple[int, int, int]] = []  # (partner, give_lo, give_hi)
        mask, level = p >> 1, 0
        while mask >= 1:
            partner = real_rank(newrank ^ mask)
            mid = lo + (hi - lo) // 2
            if newrank & mask:
                give = (lo, mid)
                lo = mid
            else:
                give = (mid, hi)
                hi = mid
            splits.append((partner, give[0], give[1]))
            raw = yield from _exchange(comm, partner,
                                       acc[give[0]:give[1]].tobytes(),
                                       _RAB_RS_TAG + level,
                                       not (newrank & mask))
            other = comm._reduce_payload(raw, (hi - lo) * item, acc.dtype,
                                         None, partner)
            acc[lo:hi] = fn(acc[lo:hi], other)
            mask >>= 1
            level += 1
        # Recursive-doubling allgather, replaying the splits in reverse
        # (same partner per level, so the same side streams first).
        for level in range(len(splits) - 1, -1, -1):
            partner, g0, g1 = splits[level]
            raw = yield from _exchange(comm, partner,
                                       acc[lo:hi].tobytes(),
                                       _RAB_AG_TAG + level,
                                       not (newrank & (p >> (level + 1))))
            acc[g0:g1] = comm._reduce_payload(raw, (g1 - g0) * item,
                                              acc.dtype, None, partner)
            lo, hi = min(lo, g0), max(hi, g1)

    if me < 2 * r:
        if me % 2 == 0:
            yield from comm.send(acc.tobytes(), me + 1, tag=_RAB_UNFOLD_TAG)
        else:
            raw = yield from comm.recv(me - 1, tag=_RAB_UNFOLD_TAG)
            acc = comm._reduce_payload(raw, nel * item, acc.dtype,
                                       None, me - 1).copy()
    return acc


# ---------------------------------------------------------------------------
# Segmented (pipelined) binomial broadcast
# ---------------------------------------------------------------------------

def _binomial_tree(n: int, rel: int, me: int) -> Tuple[Optional[int], List[int]]:
    """Parent and children of ``me`` in the relative-rank binomial tree
    (same shape as the seed ``bcast``)."""
    parent = None
    mask = 1
    while mask < n:
        if rel & mask:
            parent = (me - mask) % n
            break
        mask <<= 1
    children: List[int] = []
    mask >>= 1
    while mask > 0:
        if rel + mask < n:
            children.append((me + mask) % n)
        mask >>= 1
    return parent, children


def bcast_segmented(comm, data: Optional[bytes], root: int,
                    segment_bytes: int, header: Optional[bytes] = None):
    """Pipelined binomial broadcast: the length header travels the tree
    first, then segments stream down it with a bounded isend window so an
    interior rank forwards segment k while segment k+1 is in flight.

    The header carries the ``b"\\x01"`` wire prefix of the adaptive bcast
    dispatch; non-root callers that already consumed it pass it in via
    ``header`` and forward it verbatim.
    """
    n, me = comm.size, comm.rank
    rel = (me - root) % n
    parent, children = _binomial_tree(n, rel, me)

    if parent is None:
        total = len(data)
        header = b"\x01" + _HDR.pack(total)
    else:
        if header is None:
            header = yield from comm.recv(parent, tag=_SEG_TAG)
        (total,) = _HDR.unpack(header[1:1 + _HDR.size])
    for child in children:
        yield from comm.send(header, child, tag=_SEG_TAG)

    nseg = (total + segment_bytes - 1) // segment_bytes
    pending: Deque = deque()
    parts: List[bytes] = []
    for k in range(nseg):
        if parent is None:
            seg = bytes(data[k * segment_bytes:(k + 1) * segment_bytes])
        else:
            seg = yield from comm.recv(parent, tag=_SEG_TAG + 1 + k)
            parts.append(seg)
        for child in children:
            pending.append(comm.isend(seg, child, tag=_SEG_TAG + 1 + k))
            while len(pending) > _MAX_INFLIGHT:
                yield from pending.popleft().wait()
    while pending:
        yield from pending.popleft().wait()
    return bytes(data) if parent is None else b"".join(parts)


# ---------------------------------------------------------------------------
# Pairwise-exchange alltoall
# ---------------------------------------------------------------------------

def _tied_dims(topology, sn_a: int, sn_b: int) -> List[int]:
    """Grid dimensions where the modular distance between two supernodes
    is exactly half an even wrapped ring of four or more -- the
    antipodal tie, where the fabric's dimension-ordered router always
    picks "+" and concurrent flows can cover a whole ring."""
    ca = topology.coords_of(sn_a)
    cb = topology.coords_of(sn_b)
    out = []
    for d, size in enumerate(topology.shape):
        if (topology.wrap[d] and size >= 4 and size % 2 == 0
                and (cb[d] - ca[d]) % size == size // 2):
            out.append(d)
    return out


def _route_wrap_leg(topology, sn_src: int, sn_dst: int,
                    dims: Sequence[int]) -> int:
    """Leg index of one route: one bit per legged dimension, set when
    the dimension-ordered route crosses that ring's wrap link
    (mirroring the fabric's shortest-path, tie-toward-"+" direction
    choice).  For a tied (antipodal) pair this degenerates to "source
    coordinate in the upper half"."""
    cs = topology.coords_of(sn_src)
    cd = topology.coords_of(sn_dst)
    leg = 0
    for k, d in enumerate(dims):
        size = topology.shape[d]
        fwd = (cd[d] - cs[d]) % size
        if fwd == 0:
            continue
        bwd = size - fwd
        if fwd <= bwd:
            wraps = cs[d] + fwd >= size
        else:
            wraps = cs[d] < bwd
        if wraps:
            leg |= 1 << k
    return leg


def _alltoall_grid(comm) -> bool:
    topo, sns = comm.topology, comm._rank_supernodes
    return (topo is not None and getattr(topo, "is_grid", False)
            and sns is not None and len(sns) == comm.size)


def _step_tied(comm, peer_of) -> List[int]:
    """Union of tied dimensions over every pairing ``r -> peer_of(r)``
    of one alltoall step.  Computed over *all* pairings so every rank
    agrees on whether (and how) the step is leg-synchronized."""
    topo, sns = comm.topology, comm._rank_supernodes
    return sorted({d for r in range(comm.size)
                   for d in _tied_dims(topo, sns[r], sns[peer_of(r)])})


def _step_wrap_dims(comm, peer_of) -> List[int]:
    """Dimensions in which at least one route ``r -> peer_of(r)`` of a
    shift-schedule step crosses a wrap link of a ring of three or more.
    Uniform shifts cover every link of each moved ring -- including the
    wrap -- so any such dimension needs leg synchronization."""
    topo, sns = comm.topology, comm._rank_supernodes
    dims = set()
    ndims = len(topo.shape)
    for r in range(comm.size):
        leg = _route_wrap_leg(topo, sns[r], sns[peer_of(r)],
                              range(ndims))
        for d in range(ndims):
            if (leg >> d) & 1 and topo.shape[d] >= 3:
                dims.add(d)
    return sorted(dims)


def _legged_step(comm, payload: bytes, dst: int, src: int, tag: int,
                 dims: Sequence[int]):
    """One leg-synchronized alltoall step: ranks are partitioned by
    whether their route wraps each legged ring, one leg streams its
    bulk sends at a time, and a dissemination barrier (tiny token
    messages that cannot exhaust link credits) drains the fabric between
    legs.  Within a leg the concurrent same-direction flows of every
    ring then leave at least one link idle -- non-wrapping flows miss
    the wrap link, wrapping flows miss an interior one -- so the torus
    channel cycle (module deadlock notes) cannot close.  Returns the
    block received from ``src``."""
    topo, sns = comm.topology, comm._rank_supernodes
    me = comm.rank
    my_leg = _route_wrap_leg(topo, sns[me], sns[dst], dims)
    src_leg = _route_wrap_leg(topo, sns[src], sns[me], dims)
    got = None
    for leg in range(1 << len(dims)):
        req = None
        if leg == my_leg:
            req = comm.isend(payload, dst, tag=tag)
        if leg == src_leg:
            got = yield from comm.recv(src, tag=tag)
        if req is not None:
            yield from req.wait()
        yield from comm.barrier()
    return got


def alltoall_pairwise(comm, blocks: Sequence[bytes]):
    """Personalized all-to-all, one partner per step.

    Power-of-two sizes pair partners by XOR; other sizes walk the
    classic (rank +- step) schedule.  Untied steps stream full-duplex
    with the receive posted concurrently with the send; tied (torus
    antipodal) steps run through :func:`_legged_step`."""
    n, me = comm.size, comm.rank
    out: List[Optional[bytes]] = [None] * n
    out[me] = bytes(blocks[me])
    pow2 = (n & (n - 1)) == 0
    grid = _alltoall_grid(comm)
    wrapped = grid and any(comm.topology.wrap)
    for step in range(1, n):
        if pow2:
            dst = src = me ^ step
            legged = (_step_tied(comm, lambda r, s=step: r ^ s)
                      if grid else [])
        else:
            dst = (me + step) % n
            src = (me - step) % n
            # The shift schedule wraps every moved ring (see
            # alltoall_linear); leg-synchronize each wrap-crossing step.
            legged = (_step_wrap_dims(comm, lambda r, s=step: (r + s) % n)
                      if wrapped else [])
        tag = _PAIRWISE_TAG + step
        if legged:
            out[src] = yield from _legged_step(comm, blocks[dst], dst,
                                               src, tag, legged)
        else:
            req = comm.isend(blocks[dst], dst, tag=tag)
            out[src] = yield from comm.recv(src, tag=tag)
            yield from req.wait()
    return out


def alltoall_linear(comm, blocks: Sequence[bytes], tag_base: int):
    """The seed linear exchange -- blocking send then receive, one
    partner per step, the cheap small-block path.

    On wrapped grids the shift schedule ``(rank + step)`` is unsafe:
    a uniform shift covers *every* same-direction link of each moved
    ring at once, wrap included, and closes the torus channel cycle at
    any step once blocks stream.  So on a wrapped grid, power-of-two
    communicators walk the XOR partner order instead (whose non-tied
    steps leave ring-link gaps, and whose tied steps are
    leg-synchronized like the pairwise schedule), while other sizes keep
    the shift order but run every wrap-crossing step through
    :func:`_legged_step`.  Meshes and off-grid communicators keep the
    seed behaviour exactly."""
    n, me = comm.size, comm.rank
    out: List[Optional[bytes]] = [None] * n
    out[me] = bytes(blocks[me])
    grid = _alltoall_grid(comm)
    wrapped = grid and any(comm.topology.wrap)
    pow2 = (n & (n - 1)) == 0
    for step in range(1, n):
        if wrapped and pow2:
            dst = src = me ^ step
            legged = _step_tied(comm, lambda r, s=step: r ^ s)
        elif wrapped:
            dst = (me + step) % n
            src = (me - step) % n
            legged = _step_wrap_dims(comm, lambda r, s=step: (r + s) % n)
        else:
            dst = (me + step) % n
            src = (me - step) % n
            legged = []
        if legged:
            out[src] = yield from _legged_step(comm, blocks[dst], dst,
                                               src, tag_base + step, legged)
        else:
            yield from comm.send(blocks[dst], dst, tag=tag_base + step)
            out[src] = yield from comm.recv(src, tag=tag_base + step)
    return out


_PAIRWISE_TAG = (1 << 27) + (7 << 20)
