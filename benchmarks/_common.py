"""Shared helpers for the benchmark suite: result persistence."""

from __future__ import annotations

import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    """Persist a reproduced table/figure to benchmarks/results/ and echo
    it (visible with pytest -s; always available in the file).

    Atomic (tmp file + rename): an interrupted or concurrent run never
    leaves a torn file, and the last completed write wins whole.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    tmp = RESULTS_DIR / f".{name}.{os.getpid()}.tmp"
    tmp.write_text(text + "\n")
    os.replace(tmp, path)
    print(f"\n{text}\n[saved to {path}]")
