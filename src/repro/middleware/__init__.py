"""Middleware on top of the message library: mini-MPI and PGAS."""

from .collectives import (allreduce_crossover_bytes, bcast_crossover_bytes,
                          chunk_bounds, ring_embedding, ring_hop_profile)
from .mpi import ANY_TAG, Communicator, MpiError, REDUCE_OPS, Request
from .pgas import DEFAULT_GAS_BYTES, DEFAULT_GAS_OFFSET, GasError, GasRuntime

__all__ = [
    "Communicator",
    "Request",
    "ANY_TAG",
    "MpiError",
    "REDUCE_OPS",
    "allreduce_crossover_bytes",
    "bcast_crossover_bytes",
    "chunk_bounds",
    "ring_embedding",
    "ring_hop_profile",
    "GasRuntime",
    "GasError",
    "DEFAULT_GAS_OFFSET",
    "DEFAULT_GAS_BYTES",
]
