"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/perf``.

Runs every workload once at smoke sizes (traced, so the per-layer table
exists) and checks the benchmark's own contract: every metric named in
``BENCHMARK.json`` is emitted with its unit, oracles and pinned virtual
results pass, layer fractions sum to one, and each layer is idle on the
workloads that do not exercise it.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = _run("--workload", "all", "--smoke", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"path": out, "doc": json.loads(out.read_text()), "last": last}


def test_every_metric_is_emitted_with_its_unit(smoke):
    workloads = smoke["doc"]["workloads"]
    assert sorted(workloads) == sorted(WORKLOADS)
    for name, agg in workloads.items():
        for kind in ("end_to_end", "per_layer"):
            for m in SPEC[kind]:
                got = agg[kind][m["name"]]
                assert got["unit"] == m["unit"], (name, m["name"])
                assert got["median"] is not None, (name, m["name"])
        for m in SPEC["end_to_end"]:
            assert agg["end_to_end"][m["name"]]["median"] > 0, (name, m["name"])
    # The traced run's last line carries every per-layer metric.
    metrics = smoke["last"]["metrics"]
    for name in WORKLOADS:
        for m in SPEC["per_layer"]:
            assert metrics[f"{name}.{m['name']}"]["unit"] == m["unit"]


def test_oracles_and_pins_pass(smoke):
    assert smoke["last"]["correct"] and smoke["last"]["failed"] == 0
    for name, agg in smoke["doc"]["workloads"].items():
        assert agg["attempted"] > 0, name
        assert agg["failed"] == 0, (name, agg["failures"])


def test_pins_do_not_depend_on_the_seed():
    proc = _run("--workload", "all", "--smoke", "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0


def test_fig6_pins_match_the_golden_figure():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.util.units import bandwidth_mbps

    pins = json.loads((HERE / "pins.json").read_text())["full"]["fig6_sweep"]
    golden = json.loads((ROOT / "tests" / "golden" / "fig6_bandwidth.json")
                        .read_text())["metrics"]
    assert golden
    for key, mbps in golden.items():
        _, mode, size, _ = key.split(".")
        assert bandwidth_mbps(int(size), pins[f"{mode}.{size}"]) == mbps, key


def test_layer_fractions_sum_to_one(smoke):
    for name, agg in smoke["doc"]["workloads"].items():
        layer = agg["per_layer"]
        total = sum(v["median"] for k, v in layer.items()
                    if k.endswith(".self_frac"))
        assert total == pytest.approx(1.0, abs=0.01), name
        assert layer["harness.self_frac"]["median"] < 0.05, name


def test_idle_layers_stay_idle(smoke):
    def value(workload, metric):
        return smoke["doc"]["workloads"][workload]["per_layer"][metric]["median"]

    assert value("fig6_sweep", "opteron.train.windows") == 0
    assert value("torus_bulk", "opteron.train.windows") > 0
    recovery = [m["name"] for m in SPEC["per_layer"] if m["name"].startswith("faults.")]
    recovery += ["ht.retries", "ht.naks", "msglib.retransmits", "msglib.session_resets"]
    for name in WORKLOADS:
        if name == "fault_recovery":
            assert value(name, "faults.injected") > 0
            assert value(name, "msglib.session_resets") > 0
        else:
            assert all(value(name, m) == 0 for m in recovery), name
        if name == "mpi_mix":
            assert value(name, "middleware.ops") > 0
        else:
            assert value(name, "middleware.ops") == 0, name
    assert value("read_chain", "msglib.msgs") == 0
    assert value("read_chain", "opteron.remote_reads") > 0


def test_compare_against_itself_is_within_bound(smoke):
    proc = _run("--compare", str(smoke["path"]), str(smoke["path"]))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line for line in proc.stdout.splitlines()
                if line.strip().split(" ")[0] in
                {m["name"] for m in SPEC["end_to_end"]}]
    assert len(verdicts) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert all("within bound" in line for line in verdicts)


def test_fails_without_the_library(tmp_path):
    """With only the benchmark's own files present it must fail cleanly:
    non-zero exit and no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "benchmarks/perf/run.py"),
                           "--workload", "read_chain", "--smoke"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
