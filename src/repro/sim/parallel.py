"""Process-pool fan-out of independent simulation points.

The paper's evaluation is a family of *independent* sweep points (Figure
6 message sizes, multi-hop bindings, coherence node counts).  Each point
is one fully deterministic :class:`~repro.sim.engine.Simulator` with its
own seed, so points can run in separate worker processes without any
shared virtual clock -- determinism is per point, parallelism is across
points.

Contract (see DESIGN.md "Scale-out execution model"):

* a :class:`SweepPoint` names a **module-level, picklable** function plus
  its arguments; the function builds its own simulator/system from
  scratch and returns a picklable value,
* workers never share simulator state; only *results* come back,
* the serial path (``jobs <= 1``) executes the exact same point
  functions in-process, in submission order, so golden/determinism
  checks can always bypass the pool.

Worker crashes (a killed or segfaulted process) and timeouts surface as
structured :class:`PointResult` failures naming the point key -- not as a
bare ``BrokenProcessPool`` traceback.

Job-count resolution (:func:`resolve_jobs`): an explicit ``--jobs``
value wins; otherwise the ``TCC_PARALLEL`` environment variable;
otherwise 1 (serial).  ``0`` or ``"auto"`` selects :func:`usable_cpus`.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SweepPoint",
    "PointResult",
    "SweepReport",
    "SweepError",
    "run_sweep",
    "sweep_values",
    "resolve_jobs",
    "usable_cpus",
]

#: Environment variable consulted by :func:`resolve_jobs`.
JOBS_ENV = "TCC_PARALLEL"


class SweepError(RuntimeError):
    """A sweep point failed, crashed, or timed out.

    ``results`` carries every per-point outcome gathered before the
    failure (including the failing ones), so callers can report partial
    progress."""

    def __init__(self, msg: str, results: Optional[List["PointResult"]] = None):
        super().__init__(msg)
        self.results = results or []


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation point.

    ``fn`` must be defined at module level (picklable by reference) and
    must build its own simulator -- it receives ``*args, **kwargs`` and
    nothing else.  ``key`` names the point in reports and error messages.
    ``seed`` is bookkeeping only: pass it through ``kwargs`` if the point
    function consumes one (kept separate so reports can group by seed).
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None


@dataclass(frozen=True)
class PointResult:
    """Outcome of one sweep point (success or structured failure)."""

    key: str
    ok: bool
    value: Any = None
    error: Optional[str] = None

    def unwrap(self) -> Any:
        if not self.ok:
            raise SweepError(f"sweep point {self.key!r} failed: {self.error}")
        return self.value


@dataclass
class SweepReport:
    """All point results, in submission order, plus the worker count."""

    results: List[PointResult]
    jobs: int

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def values(self) -> List[Any]:
        return [r.unwrap() for r in self.results]


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; a container/cgroup or
    taskset-restricted CI runner may only be allowed one of them, in
    which case a serial-vs-pool wall-clock comparison measures pool
    *overhead*, not scale-out (the misleading "0.94x speedup").  Callers
    benchmarking pool speedup should skip the comparison when this
    returns 1 (see ``bench_wallclock.bench_fig6_full_sweep``).
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def resolve_jobs(explicit: Optional[Any] = None) -> int:
    """Resolve the worker count: explicit value > TCC_PARALLEL env > 1."""
    raw = explicit if explicit is not None else os.environ.get(JOBS_ENV)
    if raw is None or raw == "":
        return 1
    if isinstance(raw, str) and raw.strip().lower() == "auto":
        return usable_cpus()
    n = int(raw)
    if n == 0:
        return usable_cpus()
    if n < 0:
        raise ValueError(f"jobs must be >= 0, got {n}")
    return n


def _execute_point(point: SweepPoint) -> PointResult:
    """Run one point in the current process (worker or serial path)."""
    try:
        out = point.fn(*point.args, **point.kwargs)
    except BaseException as exc:  # surfaced structurally, never swallowed
        return PointResult(
            key=point.key,
            ok=False,
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
        )
    return PointResult(key=point.key, ok=True, value=out)


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[Any] = None,
    timeout: Optional[float] = None,
    strict: bool = True,
) -> SweepReport:
    """Execute ``points``, fanning out across ``jobs`` worker processes.

    Results come back **in submission order** regardless of completion
    order, so parallel and serial sweeps produce identically ordered
    reports.  ``timeout`` bounds the whole sweep (seconds of wall time);
    on expiry the pending points are surfaced by key.  With ``strict``
    (default) any failed point raises :class:`SweepError` after all
    gathered results are attached to the exception.
    """
    points = list(points)
    keys = [p.key for p in points]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate sweep point keys: {dupes}")
    njobs = resolve_jobs(jobs)

    if njobs <= 1 or len(points) <= 1:
        njobs = 1
        results = [_execute_point(p) for p in points]
    else:
        results = _run_pool(points, njobs, timeout)
    report = SweepReport(results, jobs=njobs)
    if strict and not report.ok:
        bad = [r for r in results if not r.ok]
        raise SweepError(
            f"{len(bad)}/{len(results)} sweep points failed: "
            f"{[r.key for r in bad]}; first error:\n{bad[0].error}",
            results,
        )
    return report


def _run_pool(points: List[SweepPoint], njobs: int,
              timeout: Optional[float]) -> List[PointResult]:
    """The process-pool branch of :func:`run_sweep`."""
    results_by_key: Dict[str, PointResult] = {}
    deadline = None if timeout is None else time.perf_counter() + timeout
    with ProcessPoolExecutor(max_workers=min(njobs, len(points))) as pool:
        fut_to_point = {pool.submit(_execute_point, p): p for p in points}
        pending = set(fut_to_point)
        while pending:
            budget = None if deadline is None else deadline - time.perf_counter()
            if budget is not None and budget <= 0:
                done, still = set(), pending
            else:
                done, still = wait(pending, timeout=budget,
                                   return_when=FIRST_COMPLETED)
            if not done:  # timed out with work outstanding
                stuck = sorted(fut_to_point[f].key for f in still)
                for f in still:
                    f.cancel()
                for f in still:
                    p = fut_to_point[f]
                    results_by_key[p.key] = PointResult(
                        key=p.key, ok=False,
                        error=f"timed out after {timeout}s (sweep deadline)",
                    )
                workers = list(pool._processes.values())
                manager = pool._executor_manager_thread
                pool.shutdown(wait=False, cancel_futures=True)
                # shutdown() cannot stop a point that is already running,
                # and the interpreter would wait for its worker at exit.
                # The pool's manager thread reaps the terminated workers
                # too; wait for it, or a worker it reaped first can stay
                # listed as alive in multiprocessing.active_children().
                for proc in workers:
                    proc.terminate()
                if manager is not None:
                    manager.join()
                for proc in workers:
                    proc.join()
                partial = [results_by_key[p.key] for p in points
                           if p.key in results_by_key]
                raise SweepError(
                    f"sweep timed out after {timeout}s; unfinished points: "
                    f"{stuck}", partial,
                )
            for f in done:
                p = fut_to_point[f]
                try:
                    results_by_key[p.key] = f.result()
                except BaseException as exc:
                    # The worker process died (crash/OOM/kill) -- the pool
                    # raises rather than returning; surface it by key.
                    results_by_key[p.key] = PointResult(
                        key=p.key, ok=False,
                        error=f"worker crashed: {type(exc).__name__}: {exc}",
                    )
            pending -= done
    return [results_by_key[p.key] for p in points]


def sweep_values(points: Sequence[SweepPoint],
                 cost: Callable[[SweepPoint], Any],
                 jobs: Optional[Any] = None,
                 timeout: Optional[float] = None) -> List[Any]:
    """The values of ``points``, in the order given.

    The points are *submitted* costliest first so long points do not
    straggle at the tail of the pool; the schedule never changes a
    value, only which worker computes it when.
    """
    order = [p.key for p in points]
    report = run_sweep(sorted(points, key=cost, reverse=True), jobs=jobs,
                       timeout=timeout)
    by_key = {r.key: r.value for r in report.results}
    return [by_key[k] for k in order]
