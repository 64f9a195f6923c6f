"""Event tracing and statistics collection.

Hardware models emit trace records (packet injected, link busy, buffer
occupancy...) through a :class:`Tracer`.  Tracing is off by default and has
near-zero cost when disabled, so the bandwidth sweeps stay fast; tests and
debugging enable it to assert on ordering and occupancy invariants.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["TraceRecord", "Tracer", "Counter", "IntervalAccumulator"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: what happened, where, when."""

    time: float
    component: str
    event: str
    info: Any = None


class Tracer:
    """Collects :class:`TraceRecord` entries, optionally filtered.

    ``Tracer(enabled=False)`` is a null sink -- ``emit`` returns immediately.
    """

    def __init__(self, enabled: bool = True, keep: Optional[int] = None):
        self.enabled = enabled
        self.keep = keep
        self.records: List[TraceRecord] = []
        self._filters: List[Callable[[TraceRecord], bool]] = []

    def emit(self, time: float, component: str, event: str, info: Any = None) -> None:
        if not self.enabled:
            return
        rec = TraceRecord(time, component, event, info)
        for f in self._filters:
            if not f(rec):
                return
        self.records.append(rec)
        if self.keep is not None and len(self.records) > self.keep:
            del self.records[: len(self.records) - self.keep]

    def add_filter(self, fn: Callable[[TraceRecord], bool]) -> None:
        """Keep only records for which ``fn(record)`` is true."""
        self._filters.append(fn)

    def clear(self) -> None:
        self.records.clear()

    def by_event(self, event: str) -> List[TraceRecord]:
        return [r for r in self.records if r.event == event]

    def by_component(self, component: str) -> List[TraceRecord]:
        return [r for r in self.records if r.component == component]

    def counts(self) -> Dict[Tuple[str, str], int]:
        out: Dict[Tuple[str, str], int] = defaultdict(int)
        for r in self.records:
            out[(r.component, r.event)] += 1
        return dict(out)

    def __len__(self) -> int:
        return len(self.records)


NULL_TRACER = Tracer(enabled=False)


class Counter:
    """A named bag of integer counters (packets sent, probes issued...)."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def inc(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        self._counts.clear()

    def __getitem__(self, name: str) -> int:
        return self.get(name)


@dataclass
class IntervalAccumulator:
    """Integrates a piecewise-constant signal over time (e.g. queue depth),
    yielding its time-weighted average -- the standard utilization metric."""

    last_time: float = 0.0
    last_value: float = 0.0
    integral: float = 0.0
    started: bool = False
    samples: int = field(default=0)

    def update(self, time: float, value: float) -> None:
        if self.started:
            if time < self.last_time:
                raise ValueError("time went backwards in IntervalAccumulator")
            self.integral += self.last_value * (time - self.last_time)
        self.last_time = time
        self.last_value = value
        self.started = True
        self.samples += 1

    def average(self, now: float) -> float:
        if not self.started or now <= 0:
            return 0.0
        total = self.integral + self.last_value * (now - self.last_time)
        return total / now
