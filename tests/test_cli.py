"""Smoke test for the `python -m repro.bench` command-line harness."""

import pathlib

import pytest

from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def test_all_experiments_registered():
    assert set(EXPERIMENTS) == {
        "fig6", "fig7", "hops", "ib", "coherence", "boot", "endpoints",
        "wc", "ordering", "reliability", "futures", "app", "mpi", "anatomy",
    }


def test_cli_runs_selected_experiments(capsys):
    rc = main(["hops", "boot"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Multi-hop latency" in out
    assert "extra hops" in out
    assert "Boot" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["warp-drive"])


def test_every_results_name_has_a_file():
    assert EXPERIMENTS["anatomy"].result is None
    for name, exp in EXPERIMENTS.items():
        if name != "anatomy":
            assert (RESULTS / f"{exp.result}.txt").is_file(), name


@pytest.mark.parametrize("name", ["hops", "boot", "app", "mpi"])
def test_full_prints_the_results_file(name, capsys):
    """``--full`` and ``benchmarks/bench_*.py`` share one entry, so the
    CLI prints the committed results file verbatim."""
    assert main(["--full", name]) == 0
    expected = (RESULTS / f"{EXPERIMENTS[name].result}.txt").read_text()
    assert expected in capsys.readouterr().out
