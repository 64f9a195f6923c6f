"""Discrete-event simulation engine underpinning the TCCluster models."""

from .engine import (
    AllOf,
    AnyOf,
    DeadlockError,
    Event,
    Interrupt,
    MacroEntry,
    Process,
    SimFeatures,
    SimulationError,
    Simulator,
    Timeout,
)
from .parallel import (
    PointResult,
    SweepError,
    SweepPoint,
    SweepReport,
    resolve_jobs,
    run_sweep,
)
from .queues import Barrier, CreditPool, Doorbell, Gate, Resource, Store, Wake
from .trace import (
    NULL_TRACER,
    Counter,
    IntervalAccumulator,
    Tracer,
    TraceRecord,
)

__all__ = [
    "Simulator",
    "SimFeatures",
    "MacroEntry",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "DeadlockError",
    "Store",
    "Wake",
    "Resource",
    "Barrier",
    "CreditPool",
    "Doorbell",
    "Gate",
    "Tracer",
    "TraceRecord",
    "NULL_TRACER",
    "Counter",
    "IntervalAccumulator",
    "SweepPoint",
    "PointResult",
    "SweepReport",
    "SweepError",
    "run_sweep",
    "resolve_jobs",
]
