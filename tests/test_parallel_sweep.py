"""Tests for the parallel sweep runner (repro.sim.parallel).

The runner's contract: per-point determinism (a fresh system per point
reproduces the serial shared-system sweep exactly, and a sweep's values
do not depend on ``jobs``) and structured failure surfacing (exceptions,
crashes, timeouts name the point).
"""

import os
import time

import pytest

from repro.sim.parallel import (
    SweepError,
    SweepPoint,
    resolve_jobs,
    run_sweep,
    usable_cpus,
)

# ---------------------------------------------------------------------------
# Module-level point functions (must be picklable by reference)
# ---------------------------------------------------------------------------


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"bad point {x}")


def die(x):
    os._exit(13)  # simulates a worker crash (segfault/OOM-kill)


def slow(x):
    time.sleep(30)
    return x


def tiny_sim_point(seed):
    """A real (minimal) simulator point: deterministic given its seed."""
    from repro.sim import Simulator

    sim = Simulator()
    ticks = []

    def proc():
        for i in range(seed % 5 + 1):
            yield 10.0 * (i + 1)
            ticks.append(sim.now)

    sim.process(proc())
    sim.run()
    return (seed, tuple(ticks), sim.now)


# ---------------------------------------------------------------------------
# resolve_jobs
# ---------------------------------------------------------------------------


def test_resolve_jobs_priority(monkeypatch):
    monkeypatch.delenv("TCC_PARALLEL", raising=False)
    assert resolve_jobs() == 1
    assert resolve_jobs(3) == 3
    monkeypatch.setenv("TCC_PARALLEL", "5")
    assert resolve_jobs() == 5
    assert resolve_jobs(2) == 2  # explicit wins over env
    monkeypatch.setenv("TCC_PARALLEL", "auto")
    assert resolve_jobs() >= 1
    monkeypatch.setenv("TCC_PARALLEL", "0")
    assert resolve_jobs() == usable_cpus()
    with pytest.raises(ValueError):
        resolve_jobs(-2)
    # "auto" counts the CPUs this process may run on, not the machine's.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert resolve_jobs("auto") == 1
    assert resolve_jobs(0) == 1


# ---------------------------------------------------------------------------
# run_sweep basics
# ---------------------------------------------------------------------------


def _points(fn, xs):
    return [SweepPoint(key=f"p{x}", fn=fn, args=(x,)) for x in xs]


def test_serial_and_parallel_agree():
    pts = _points(square, range(8))
    serial = run_sweep(pts, jobs=1)
    par = run_sweep(pts, jobs=4)
    assert serial.values() == par.values() == [x * x for x in range(8)]
    assert [r.key for r in par.results] == [p.key for p in pts]  # order kept
    assert serial.jobs == 1 and par.jobs == 4
    assert par.ok and serial.ok


def test_deterministic_sim_points_parallel():
    pts = [SweepPoint(key=f"s{s}", fn=tiny_sim_point, args=(s,), seed=s)
           for s in (1, 2, 3, 7)]
    serial = run_sweep(pts, jobs=1).values()
    par = run_sweep(pts, jobs=4).values()
    assert serial == par


def test_duplicate_keys_rejected():
    pts = [SweepPoint(key="same", fn=square, args=(1,)),
           SweepPoint(key="same", fn=square, args=(2,))]
    with pytest.raises(ValueError, match="duplicate"):
        run_sweep(pts, jobs=1)


def test_exception_surfaced_with_key_serial():
    pts = _points(square, [1]) + _points(boom, [9])
    with pytest.raises(SweepError, match="p9") as ei:
        run_sweep(pts, jobs=1)
    bad = [r for r in ei.value.results if not r.ok]
    assert len(bad) == 1 and bad[0].key == "p9"
    assert "ValueError" in bad[0].error and "bad point 9" in bad[0].error


def test_exception_surfaced_with_key_parallel():
    pts = _points(square, [1, 2]) + _points(boom, [9])
    with pytest.raises(SweepError, match="p9"):
        run_sweep(pts, jobs=2)
    # non-strict mode returns the structured results instead
    report = run_sweep(pts, jobs=2, strict=False)
    assert not report.ok
    by_key = {r.key: r for r in report.results}
    assert by_key["p1"].ok and by_key["p2"].ok and not by_key["p9"].ok
    with pytest.raises(SweepError, match="p9"):
        by_key["p9"].unwrap()


def test_worker_crash_surfaced():
    pts = _points(square, [1]) + [SweepPoint(key="crash", fn=die, args=(0,))]
    report = run_sweep(pts, jobs=2, strict=False)
    bad = {r.key: r for r in report.results}["crash"]
    assert not bad.ok and "crash" in bad.error.lower()


def test_timeout_surfaced():
    pts = _points(square, [1]) + [SweepPoint(key="stuck", fn=slow, args=(0,))]
    with pytest.raises(SweepError, match="stuck"):
        run_sweep(pts, jobs=2, timeout=2.0)


# ---------------------------------------------------------------------------
# fresh-system-per-point == serial shared-system sweep, and every sweep
# runner's values are independent of jobs (the determinism contract the
# benchmark fixtures rely on)
# ---------------------------------------------------------------------------


def test_fig6_points_parallel_equals_serial():
    from repro.bench.microbench import make_prototype, run_bandwidth_sweep

    sizes = (64, 4096)
    shared = run_bandwidth_sweep(sizes=sizes, system=make_prototype())
    par = run_bandwidth_sweep(sizes=sizes, jobs=2)
    assert shared == par
    assert [(p.size, p.mode) for p in par] == [
        (64, "weak"), (4096, "weak"), (64, "strict"), (4096, "strict")]


def test_multihop_parallel_equals_serial():
    from repro.bench.microbench import run_multihop

    assert run_multihop(iters=8, jobs=1) == run_multihop(iters=8, jobs=2)


def test_coherence_scaling_parallel_equals_serial():
    from repro.bench.coherence_bench import run_coherence_scaling

    kw = dict(node_counts=(2, 8), ops_per_node=20)
    serial = run_coherence_scaling(jobs=1, **kw)
    assert serial == run_coherence_scaling(jobs=2, **kw)
    # Recorded before the per-(protocol, n) loop body became a sweep
    # point function: the move must not change a single bit.
    assert [(p.nodes, p.protocol, p.ops, p.avg_op_ns, p.probes_per_op,
             p.total_ns) for p in serial] == [
        (2, "broadcast", 40, 150.07, 0.725, 3001.3999999999996),
        (8, "broadcast", 160, 292.0368083164127, 5.425, 5840.7361663282545),
        (2, "directory", 40, 112.56999999999998, 0.175, 2251.3999999999996),
        (8, "directory", 160, 255.65371790059203, 0.675, 5113.074358011841),
        (2, "tccluster", 40, 234.0, 0.0, 4680.0),
        (8, "tccluster", 160, 270.7531504513113, 0.0, 5415.063009026226),
    ]


# ---------------------------------------------------------------------------
# atomic write_result (benchmarks/_common.py)
# ---------------------------------------------------------------------------


def test_write_result_atomic(tmp_path, monkeypatch):
    import importlib.util
    import pathlib

    spec = importlib.util.spec_from_file_location(
        "bench_common",
        pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "_common.py",
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "RESULTS_DIR", tmp_path)
    mod.write_result("fig", "hello")
    assert (tmp_path / "fig.txt").read_text() == "hello\n"
    mod.write_result("fig", "world")
    assert (tmp_path / "fig.txt").read_text() == "world\n"
    # no tmp droppings left behind
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]
