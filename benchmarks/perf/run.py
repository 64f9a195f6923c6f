#!/usr/bin/env python3
"""End-to-end simulator benchmark: six workloads, layer-attributed host time.

Performance here is simulator host time for a fixed virtual-time result.
Each workload runs in a fresh child process, one after another, with no
threads.  A child repeats the workload (fresh systems every repetition)
until ``--seconds`` of host time have passed and reports medians; every
repetition checks its outputs with an oracle and its virtual-time results
against ``pins.json``.  Metric names, units and regression bounds live in
``BENCHMARK.json`` at the repository root.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload all --seed 1 --repeats 3 --out A.json
    python3 benchmarks/perf/run.py --workload torus_msg --seed 1 --trace
    python3 benchmarks/perf/run.py --workload all --smoke
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --workload all --repin

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = HERE / "pins.json"

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170
#: ``--compare`` lets ``setup_s`` worsen by max(bound x median, this):
#: the largest ``setup_s`` IQR measured over 10 seeds (the torus3d
#: set-ups, about 4 ms) so millisecond boots are not judged on jitter.
SETUP_FLOOR_S = 0.005


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


# ---------------------------------------------------------------------------
# Child: one workload, repeated for --seconds
# ---------------------------------------------------------------------------

def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _calibrated(reps, attr: str):
    """Median of ``attr`` over ``reps``, each rescaled to the baseline
    host's speed (see calibration.py)."""
    return _median(getattr(r, attr) * r.factor for r in reps)


def _per_layer(untraced, traced, profile) -> Dict[str, Optional[float]]:
    """Per-layer metrics: self time from the traced repetitions, counters
    from the first untraced one (counters repeat exactly), host times as
    calibrated medians of the untraced repetitions."""
    import pstats

    from layers import COUNTER_KEYS, attribute

    out: Dict[str, Optional[float]] = {}
    att = attribute(pstats.Stats(profile))
    for layer, v in att.items():
        out[f"{layer}.self_frac"] = v["self_frac"]
        out[f"{layer}.calls"] = v["calls"] / len(traced)
    out["trace.overhead_x"] = (_calibrated(traced, "wall_s")
                               / _calibrated(untraced, "wall_s"))
    first = untraced[0]
    c = first.counters

    def scaled(key, factor):
        return None if c[key] is None else c[key] * factor

    out["sim.events"] = first.events
    out["sim.heap_pushes"] = first.heap_pushes
    out["sim.host_us_per_event"] = (
        _median(r.wall_s * r.factor * 1e6 / r.events for r in untraced)
        if first.events else None)
    out["sim.virtual_us"] = first.virtual_ns / 1e3
    # The *_ns keys are raw sums; they are reported as ratios or in us.
    out.update({key: c[key] for key in COUNTER_KEYS if not key.endswith("_ns")})
    out["ht.busy_frac"] = (None if c["ht.busy_ns"] is None or not c["ht.direction_ns"]
                           else c["ht.busy_ns"] / c["ht.direction_ns"])
    out["ht.credit_stall_us"] = scaled("ht.credit_stall_ns", 1e-3)
    out["msglib.tx_stall_us"] = scaled("msglib.tx_stall_ns", 1e-3)
    out["setup.systems"] = first.systems
    out["setup.construct_s"] = _calibrated(untraced, "construct_s")
    out["setup.boot_s"] = _calibrated(untraced, "boot_s")
    out["setup.boot_events"] = first.boot_events
    return out


def child(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import cProfile
    import dataclasses
    import gc
    import random
    import resource

    from calibration import Calibration
    from repro.sim import SimFeatures
    from workloads import SIZES, WORKLOADS, Rep

    name = args.child
    mode = "smoke" if args.smoke else "full"
    size = SIZES[mode][name]
    pins = None if args.repin else load_pins().get(mode, {}).get(name, {})
    fn = WORKLOADS[name]

    def one(profiler=None):
        gc.collect()
        cal = Calibration()
        rep = Rep(pins, profiler, clock=cal.clock)
        with cal.sampling(during=profiler is None):
            fn(rep, random.Random(f"{name}/{args.seed}"), size)
        rep.factor = cal.factor()
        return rep

    def repeat(until, profiler=None):
        reps = [one(profiler)]
        while time.perf_counter() < until:
            reps.append(one(profiler))
        return reps

    if not args.smoke:
        # Warm-up at smoke size: lazy imports and allocator growth land
        # here, not in the first measured repetition.
        fn(Rep(None), random.Random(f"{name}/{args.seed}"), SIZES["smoke"][name])

    start = time.perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = repeat(start + budget)
    traced, profile = [], None
    if args.trace:
        profile = cProfile.Profile()
        traced = repeat(start + args.seconds, profile)

    reps = untraced + traced
    result = {
        "workload": name,
        "seed": args.seed,
        "reps": len(untraced),
        "traced_reps": len(traced),
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "failures": sorted({f for r in reps for f in r.failures}),
        "pins": untraced[0].got_pins,
        "end_to_end": {
            "wall_s": _calibrated(untraced, "wall_s"),
            "ops_per_s": _median(r.attempted / (r.wall_s * r.factor)
                                 for r in untraced),
            "setup_s": _calibrated(untraced, "setup_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "raw": {"wall_s": _median(r.wall_s for r in untraced),
                "setup_s": _median(r.setup_s for r in untraced),
                "factors": [r.factor for r in untraced]},
        "per_layer": _per_layer(untraced, traced, profile) if traced else {},
        "sim_features": dataclasses.asdict(SimFeatures()),
    }
    return result


# ---------------------------------------------------------------------------
# Parent: children, aggregation, reports
# ---------------------------------------------------------------------------

def run_child(name: str, args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.repin:
        cmd.append("--repin")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: List[Optional[float]]) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and sample count."""
    vals = [v for v in values if v is not None]
    if not vals:
        return {"median": None, "q1": None, "q3": None, "n": 0, "values": values}
    q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                 else (vals[0],) * 3)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "n": len(vals), "values": values}


def aggregate(runs: List[dict], spec: dict) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    out = {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else None,
        "failures": sorted({f for r in runs for f in r["failures"]}),
        "reps_per_run": [r["reps"] for r in runs],
        "pins": runs[0]["pins"],
        "raw_wall_s": summarize([r["raw"]["wall_s"] for r in runs]),
        "calibration_factor": summarize([statistics.median(r["raw"]["factors"])
                                         for r in runs]),
        "end_to_end": {},
        "per_layer": {},
    }
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            if runs[0][kind]:
                out[kind][m["name"]] = dict(
                    summarize([r[kind].get(m["name"]) for r in runs]),
                    unit=m["unit"])
    return out


def _fmt(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, int) or float(v).is_integer() and abs(v) >= 1:
        return f"{v:.0f}"
    return f"{v:.4g}"


def print_table(name: str, agg: dict, kind: str) -> None:
    print(f"\n== {name}: {agg['attempted']} ops attempted, {agg['failed']} failed"
          f" (failed_frac {_fmt(agg['failed_frac'])}), reps/run "
          f"{agg['reps_per_run']}")
    if agg["failures"]:
        print(f"   FAILED units: {', '.join(agg['failures'])}")
    print(f"   {'metric':32s} {'unit':8s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>3s}")
    for metric, s in agg[kind].items():
        print(f"   {metric:32s} {s['unit']:8s} {_fmt(s['median']):>12s} "
              f"{_fmt(s['q1']):>12s} {_fmt(s['q3']):>12s} {s['n']:3d}")


def _git(*cmd) -> Optional[str]:
    try:
        proc = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, sim_features: dict) -> dict:
    commit = _git("rev-parse", "HEAD")
    return {
        "commit": commit,
        "dirty": (bool(_git("status", "--porcelain", "--untracked-files=no"))
                  if commit else None),
        "sim_features": sim_features,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def write_pins(mode: str, results: Dict[str, List[dict]]) -> None:
    pins = load_pins()
    section = pins.setdefault(mode, {})
    for name, runs in results.items():
        section[name] = runs[0]["pins"]
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"[pins for {', '.join(results)} written to {PINS_PATH}]")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def verdict(name: str, spec: dict, a: dict, b: dict) -> str:
    """Regression verdict of B against A for one end-to-end metric."""
    bound = spec["bound"]
    lower = spec["better"] == "lower"
    ma, mb = a["median"], b["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    worse = (mb - ma) / ma if lower else (ma - mb) / ma
    allowed = max(bound, SETUP_FLOOR_S / ma) if name == "setup_s" else bound
    if spread > allowed:
        return "unresolved"
    if worse > allowed:
        return "regression"
    if -worse > allowed:
        return "improved"
    return "within bound"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    for label, doc, path in (("A", a, path_a), ("B", b, path_b)):
        p = doc["provenance"]
        print(f"{label}: {path}  commit {p['commit']} dirty {p['dirty']} "
              f"seed {p['seed']} repeats {p['repeats']} nproc {p['nproc']}")
    regressions = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        print(f"\n== {name}")
        print(f"   {'metric':12s} {'A median [q1, q3] n':>36s} "
              f"{'B median [q1, q3] n':>36s} {'change':>8s}  verdict (bound)")
        for m in spec["end_to_end"]:
            sa = a["workloads"][name]["end_to_end"].get(m["name"])
            sb = b["workloads"][name]["end_to_end"].get(m["name"])
            if not sa or not sb or sa["median"] is None or sb["median"] is None:
                continue
            v = verdict(m["name"], m, sa, sb)
            regressions += v == "regression"
            cells = [f"{_fmt(s['median'])} [{_fmt(s['q1'])}, {_fmt(s['q3'])}] "
                     f"{s['n']}" for s in (sa, sb)]
            change = (sb["median"] - sa["median"]) / sa["median"]
            print(f"   {m['name']:12s} {cells[0]:>36s} {cells[1]:>36s} "
                  f"{change:+8.1%}  {v} ({m['better']}, {m['bound']:.0%})")
    return 1 if regressions else 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="host seconds each child spends repeating its workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="also profile half the repetitions and report "
                         "per-layer metrics")
    ap.add_argument("--repeats", type=int, default=1,
                    help="child processes per workload")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one repetition per child")
    ap.add_argument("--out", help="write the aggregated results (with provenance)")
    ap.add_argument("--repin", action="store_true",
                    help="record the virtual results into pins.json")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--child", choices=names, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.smoke:
        args.seconds = 0.0

    if args.child:
        print(json.dumps(child(args)))
        return 0
    if args.compare:
        return compare(*args.compare, spec)

    selected = names if args.workload == "all" else [args.workload]
    results: Dict[str, List[dict]] = {}
    try:
        for name in selected:
            results[name] = [run_child(name, args) for _ in range(args.repeats)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    aggs = {name: aggregate(runs, spec) for name, runs in results.items()}
    for name, agg in aggs.items():
        print_table(name, agg, kind)
    if args.repin:
        write_pins("smoke" if args.smoke else "full", results)
    if args.out:
        first = next(iter(results.values()))[0]
        doc = {"provenance": provenance(args, first["sim_features"]),
               "workloads": aggs}
        pathlib.Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"[results written to {args.out}]")

    metrics = {}
    for name, agg in aggs.items():
        for metric, s in agg[kind].items():
            key = metric if len(aggs) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": s["median"], "unit": s["unit"]}
    attempted = sum(a["attempted"] for a in aggs.values())
    failed = sum(a["failed"] for a in aggs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
