"""A small MPI-flavored layer on top of the message library.

Paper Section IV.A: "To support a Message Passing Interface (MPI)
protocol like MVAPICH an underlying application programming interface
(API) is required that enables sending and receiving of messages" and
Section VII: "The next step in our work will be to port a middleware
software layer like MPI or GASNet on top of our simple message library."

This is that port, mpi4py-flavored: point-to-point with tag matching and
an unexpected-message queue, plus the standard collectives.  Small
messages use the latency-optimal seed algorithms (binomial broadcast and
reduce, dissemination barrier, ring allgather, linear gather / scatter /
alltoall); large messages dispatch to the bandwidth-optimal,
topology-aware algorithms in :mod:`repro.middleware.collectives` (ring
and Rabenseifner allreduce over a Hamiltonian supernode ring, segmented
pipelined broadcast, pairwise-exchange alltoall) through an MPICH-style
size-adaptive selector.  All methods are generators driven inside
simulation processes; payloads are ``bytes`` (NumPy arrays go through
``tobytes``/frombuffer for the reduction collectives).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..msglib import MessageLibrary
from ..obs.metrics import collective_counters
from ..sim import Resource
from .collectives import (
    ALLTOALL_CROSSOVER_BYTES,
    BCAST_SEGMENT_BYTES,
    _binomial_tree,
    allreduce_crossover_bytes,
    allreduce_rabenseifner,
    allreduce_ring,
    alltoall_linear,
    alltoall_pairwise,
    bcast_crossover_bytes,
    bcast_segmented,
    chunk_bounds,
    reduce_scatter_ring,
    ring_embedding,
    ring_hop_profile,
    select_allreduce,
    select_alltoall,
    select_bcast,
)

__all__ = ["Communicator", "Request", "ANY_TAG", "MpiError", "REDUCE_OPS"]

ANY_TAG = -1

_ENV = struct.Struct("<iI")  # tag, payload length

#: CPU cost of one MPI call above the transport (argument checking,
#: envelope packing, matching) -- MVAPICH-era software path lengths.
SOFTWARE_OVERHEAD_NS = 25.0


class MpiError(RuntimeError):
    pass


REDUCE_OPS: Dict[str, Callable] = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
    "prod": np.multiply,
}


class Request:
    """Handle for a nonblocking operation (mpi4py's Request, in spirit)."""

    def __init__(self, process):
        self._process = process

    def test(self) -> bool:
        """True once the operation completed."""
        return self._process.triggered

    def wait(self):
        """Generator: block until completion; returns the result (the
        received payload for irecv, None for isend)."""
        value = yield self._process
        return value


class Communicator:
    """MPI_COMM_WORLD over TCCluster endpoints.

    ``topology``/``rank_supernodes`` (both optional, see
    :meth:`for_cluster`) give the collectives their Hamiltonian ring
    embedding and single-hop guarantee; without them, ring collectives
    fall back to plain rank order and the size-adaptive selector prefers
    Rabenseifner for bulk allreduce.  Each collective's ``algorithm``
    argument forces one algorithm for that call.
    """

    def __init__(self, lib: MessageLibrary, topology=None,
                 rank_supernodes: Optional[Sequence[int]] = None):
        self.lib = lib
        self.sim = lib.sim
        self.rank = lib.rank
        self.size = lib.nranks
        self.topology = topology
        self._rank_supernodes = (list(rank_supernodes)
                                 if rank_supernodes is not None else None)
        #: Rank order of the embedded collective ring (identity off-grid).
        self.ring_order: List[int] = ring_embedding(
            topology, self._rank_supernodes, self.size)
        #: True when every cyclic hop of ``ring_order`` crosses at most
        #: one TCC link (same board counts as zero hops).
        self.ring_single_hop = False
        if (topology is not None and getattr(topology, "is_grid", False)
                and self._rank_supernodes is not None
                and len(self._rank_supernodes) == self.size):
            try:
                hops = ring_hop_profile(topology, self.ring_order,
                                        self._rank_supernodes)
                self.ring_single_hop = all(h <= 1 for h in hops)
            except Exception:
                # Partial/odd rank->supernode maps keep the fallback order.
                self.ring_single_hop = False
        # Guards against double-counting constituent collectives (the
        # binomial allreduce's internal reduce+bcast).
        self._in_collective = False
        #: per-source unexpected queue: (tag, payload)
        self._unexpected: Dict[int, Deque[Tuple[int, bytes]]] = {}
        # Endpoints are single-producer/single-consumer; nonblocking ops
        # serialize per peer behind these locks.
        self._tx_locks: Dict[int, Resource] = {}
        self._rx_locks: Dict[int, Resource] = {}

    @classmethod
    def for_cluster(cls, cluster, rank: int) -> "Communicator":
        """Communicator wired with the cluster's topology and rank map so
        ring collectives get the neighbor embedding."""
        return cls(cluster.library(rank), topology=cluster.topology,
                   rank_supernodes=[ri.supernode for ri in cluster.ranks])

    def _record_collective(self, op: str, algorithm: str, nbytes: int) -> None:
        """Count the op unless it runs as a constituent of another
        collective (``_in_collective``, set by the outer dispatcher)."""
        if not self._in_collective:
            collective_counters(self.sim).record(op, algorithm, nbytes)

    def _lock(self, table: Dict[int, Resource], peer: int) -> Resource:
        lock = table.get(peer)
        if lock is None:
            lock = table[peer] = Resource(self.sim, 1)
        return lock

    # ------------------------------------------------------------------
    # Point to point
    # ------------------------------------------------------------------
    def send(self, data: bytes, dest: int, tag: int = 0):
        """Blocking-ish send (returns when the stores retired + flushed)."""
        if dest == self.rank:
            raise MpiError("self-send is not supported")
        if tag < 0:
            raise MpiError(f"invalid tag {tag}")
        yield self.sim.timeout(SOFTWARE_OVERHEAD_NS)
        lock = self._lock(self._tx_locks, dest)
        yield lock.acquire()
        try:
            ep = self.lib.connect(dest)
            yield from ep.send(_ENV.pack(tag, len(data)) + bytes(data))
            yield from ep.flush()
        finally:
            lock.release()

    def recv(self, source: int, tag: int = ANY_TAG):
        """Receive from ``source`` matching ``tag`` (queues mismatches)."""
        if source == self.rank:
            raise MpiError("self-receive is not supported")
        yield self.sim.timeout(SOFTWARE_OVERHEAD_NS)
        lock = self._lock(self._rx_locks, source)
        yield lock.acquire()
        try:
            q = self._unexpected.setdefault(source, deque())
            for i, (got_tag, payload) in enumerate(q):
                if tag in (ANY_TAG, got_tag):
                    del q[i]
                    return payload
            ep = self.lib.connect(source)
            while True:
                raw = yield from ep.recv()
                got_tag, length = _ENV.unpack_from(raw, 0)
                payload = raw[_ENV.size : _ENV.size + length]
                if tag in (ANY_TAG, got_tag):
                    return payload
                q.append((got_tag, payload))
        finally:
            lock.release()

    # -- nonblocking ---------------------------------------------------------
    def isend(self, data: bytes, dest: int, tag: int = 0) -> Request:
        """Start a send; returns a :class:`Request` to wait on."""
        return Request(self.sim.process(self.send(data, dest, tag),
                                        name=f"isend->{dest}"))

    def irecv(self, source: int, tag: int = ANY_TAG) -> Request:
        """Start a receive; ``wait()`` yields the payload.  Concurrent
        receives from the same source serialize in issue order."""
        return Request(self.sim.process(self.recv(source, tag),
                                        name=f"irecv<-{source}"))

    def sendrecv(self, data: bytes, peer: int, tag: int = 0):
        """Exchange with ``peer`` (deadlock-free: send first is safe since
        sends complete locally on a TCCluster)."""
        yield from self.send(data, peer, tag)
        reply = yield from self.recv(peer, tag)
        return reply

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def barrier(self):
        """Dissemination barrier (log2 n rounds of token messages)."""
        n, me = self.size, self.rank
        if n == 1:
            return
        dist = 1
        rnd = 0
        while dist < n:
            yield from self.send(struct.pack("<i", rnd), (me + dist) % n,
                                 tag=_BARRIER_TAG + rnd)
            yield from self.recv((me - dist) % n, tag=_BARRIER_TAG + rnd)
            dist <<= 1
            rnd += 1

    def bcast(self, data: Optional[bytes], root: int = 0,
              algorithm: Optional[str] = None):
        """Size-adaptive broadcast; returns the data on every rank.

        Small messages ride the binomial tree (MPICH algorithm); large
        ones the segmented pipeline (same tree, streamed in
        ``BCAST_SEGMENT_BYTES`` chunks).  The root picks the algorithm
        -- by ``algorithm`` or the derived crossover -- and a one-byte
        wire prefix keeps every rank's dispatch consistent without a
        separate control round.
        """
        n, me = self.size, self.rank
        if n == 1:
            self._record_collective("bcast", "binomial",
                                    len(data) if data else 0)
            return data
        rel = (me - root) % n
        parent, children = _binomial_tree(n, rel, me)
        seg = BCAST_SEGMENT_BYTES
        if me == root:
            if data is None:
                raise MpiError("bcast root must supply data")
            algo = algorithm or select_bcast(
                len(data), n, bcast_crossover_bytes(n, seg))
            if algo not in ("binomial", "segmented"):
                raise MpiError(f"unknown bcast algorithm {algo!r}")
            self._record_collective("bcast", algo, len(data))
            if algo == "binomial":
                raw = b"\x00" + bytes(data)
                for child in children:
                    yield from self.send(raw, child, tag=_BCAST_TAG)
                return bytes(data)
            return (yield from bcast_segmented(self, data, root, seg))
        first = yield from self.recv(parent, tag=ANY_TAG)
        if first[:1] == b"\x00":
            algo, out = "binomial", bytes(first[1:])
            for child in children:
                yield from self.send(first, child, tag=_BCAST_TAG)
        else:
            algo = "segmented"
            out = yield from bcast_segmented(self, None, root, seg,
                                             header=first)
        self._record_collective("bcast", algo, len(out))
        return out

    def gather(self, data: bytes, root: int = 0):
        """Gather equal-size blocks at ``root``; returns list there."""
        if self.rank == root:
            parts: List[Optional[bytes]] = [None] * self.size
            parts[self.rank] = bytes(data)
            for src in range(self.size):
                if src == root:
                    continue
                parts[src] = yield from self.recv(src, tag=_GATHER_TAG)
            return parts
        yield from self.send(data, root, tag=_GATHER_TAG)
        return None

    def scatter(self, parts: Optional[Sequence[bytes]], root: int = 0):
        if self.rank == root:
            if parts is None or len(parts) != self.size:
                raise MpiError("root must supply one block per rank")
            for dst in range(self.size):
                if dst == root:
                    continue
                yield from self.send(parts[dst], dst, tag=_SCATTER_TAG)
            return bytes(parts[root])
        data = yield from self.recv(root, tag=_SCATTER_TAG)
        return data

    def allgather(self, data: bytes):
        """Ring allgather; returns the list of every rank's block."""
        n, me = self.size, self.rank
        blocks: List[Optional[bytes]] = [None] * n
        blocks[me] = bytes(data)
        right = (me + 1) % n
        left = (me - 1) % n
        current = bytes(data)
        for step in range(n - 1):
            yield from self.send(current, right, tag=_ALLGATHER_TAG + step)
            current = yield from self.recv(left, tag=_ALLGATHER_TAG + step)
            blocks[(me - step - 1) % n] = current
        return blocks

    def alltoall(self, blocks: Sequence[bytes],
                 algorithm: Optional[str] = None):
        """Personalized all-to-all: ``blocks[d]`` goes to rank d; returns
        the list of blocks received (index = source rank).

        Small blocks use the linear exchange (sends complete locally on a
        TCCluster); large blocks use the pairwise exchange, which posts
        each receive concurrently with the send so bulk traffic streams
        full-duplex instead of stalling on the flow-control window.  The
        size-adaptive choice assumes uniform block sizes across ranks
        (the MPI_Alltoall contract) -- force ``algorithm`` otherwise.
        """
        n, me = self.size, self.rank
        if len(blocks) != n:
            raise MpiError("alltoall needs one block per rank")
        algo = algorithm or select_alltoall(max(len(b) for b in blocks),
                                            ALLTOALL_CROSSOVER_BYTES)
        if algo not in ("linear", "pairwise"):
            raise MpiError(f"unknown alltoall algorithm {algo!r}")
        self._record_collective("alltoall", algo,
                                sum(len(b) for b in blocks))
        if n == 1:
            return [bytes(blocks[0])]
        # Both schedules run interior drain barriers on tied torus
        # steps; don't count those as user-level collectives.
        already = self._in_collective
        self._in_collective = True
        try:
            if algo == "pairwise":
                return (yield from alltoall_pairwise(self, blocks))
            return (yield from alltoall_linear(self, blocks, _ALLTOALL_TAG))
        finally:
            self._in_collective = already

    def _reduce_payload(self, raw: bytes, expected_nbytes: int, dtype,
                        shape, src: int) -> np.ndarray:
        """Decode one reduction contribution, validating its length: a
        rank contributing a mismatched array raises :class:`MpiError`
        naming both ranks and sizes instead of a cryptic frombuffer /
        reshape ``ValueError`` mid-simulation."""
        if len(raw) != expected_nbytes:
            shape_note = f", shape {tuple(shape)}" if shape is not None else ""
            raise MpiError(
                f"reduction payload from rank {src} is {len(raw)} bytes; "
                f"rank {self.rank} expected {expected_nbytes} "
                f"(dtype {np.dtype(dtype)}{shape_note})")
        arr = np.frombuffer(raw, dtype=dtype)
        return arr.reshape(shape) if shape is not None else arr

    def reduce(self, array: np.ndarray, op: str = "sum", root: int = 0):
        """Binomial-tree reduction of a NumPy array; result at root."""
        fn = REDUCE_OPS.get(op)
        if fn is None:
            raise MpiError(f"unknown reduce op {op!r}")
        n = self.size
        rel = (self.rank - root) % n
        acc = np.array(array, copy=True)
        self._record_collective("reduce", "binomial", acc.nbytes)
        mask = 1
        while mask < n:
            if rel & mask:
                dst = (self.rank - mask) % n
                yield from self.send(acc.tobytes(), dst, tag=_REDUCE_TAG)
                return None
            src_rel = rel | mask
            if src_rel < n:
                src = (src_rel + root) % n
                raw = yield from self.recv(src, tag=_REDUCE_TAG)
                other = self._reduce_payload(raw, acc.nbytes, acc.dtype,
                                             acc.shape, src)
                acc = fn(acc, other)
            mask <<= 1
        return acc

    def reduce_scatter(self, array: np.ndarray, op: str = "sum"):
        """Ring reduce-scatter: rank i returns the fully reduced chunk
        ``flat[i*L//n : (i+1)*L//n]`` of the flattened input (1-D array;
        see :func:`~.collectives.chunk_bounds`).  Runs on the embedded
        neighbor ring, moving ``m(n-1)/n`` bytes per rank total."""
        fn = REDUCE_OPS.get(op)
        if fn is None:
            raise MpiError(f"unknown reduce op {op!r}")
        arr = np.ascontiguousarray(array)
        self._record_collective("reduce_scatter", "ring", arr.nbytes)
        flat = arr.reshape(-1)
        if self.size == 1:
            return flat.copy()
        return (yield from reduce_scatter_ring(self, flat, fn))

    def allreduce(self, array: np.ndarray, op: str = "sum",
                  algorithm: Optional[str] = None):
        """Size-adaptive allreduce.

        Below the crossover (derived from the calibrated alpha/beta
        model, override via ``algorithm``): binomial reduce-to-0 plus
        broadcast.  Above it: ring allreduce on the embedded neighbor
        ring when the embedding is single-hop, else Rabenseifner --
        both move ``2m(n-1)/n`` bytes per rank, the bandwidth optimum.
        """
        fn = REDUCE_OPS.get(op)
        if fn is None:
            raise MpiError(f"unknown reduce op {op!r}")
        arr = np.ascontiguousarray(array)
        algo = algorithm or select_allreduce(
            arr.nbytes, self.size, allreduce_crossover_bytes(self.size),
            self.ring_single_hop)
        if algo not in ("binomial", "ring", "rabenseifner"):
            raise MpiError(f"unknown allreduce algorithm {algo!r}")
        top = not self._in_collective
        if top:
            collective_counters(self.sim).record("allreduce", algo,
                                                 arr.nbytes)
            self._in_collective = True
        try:
            if self.size == 1:
                return arr.copy()
            if algo == "binomial":
                acc = yield from self.reduce(arr, op=op, root=0)
                raw = acc.tobytes() if self.rank == 0 else None
                raw = yield from self.bcast(raw, root=0)
                flat = self._reduce_payload(raw, arr.nbytes, arr.dtype,
                                            None, 0)
            elif algo == "ring":
                flat = yield from allreduce_ring(self, arr.reshape(-1), fn)
            else:
                flat = yield from allreduce_rabenseifner(
                    self, arr.reshape(-1), fn)
        finally:
            if top:
                self._in_collective = False
        return flat.reshape(arr.shape).copy()


_BARRIER_TAG = 1 << 20
_BCAST_TAG = 1 << 21
_GATHER_TAG = 1 << 22
_SCATTER_TAG = 1 << 23
_ALLGATHER_TAG = 1 << 24
_REDUCE_TAG = 1 << 25
_ALLTOALL_TAG = 1 << 26
