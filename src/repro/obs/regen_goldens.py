"""Regenerate the golden regression files under ``tests/golden/``.

Run after an *intentional* timing/protocol change, review the diff, and
commit the updated JSON together with the change::

    PYTHONPATH=src python -m repro.obs.regen_goldens [outdir]

``outdir`` defaults to ``<repo>/tests/golden`` resolved relative to this
file.
"""

from __future__ import annotations

import argparse
import os
from typing import Optional

from .golden import save_golden
from .scenarios import (
    CANONICAL_TOLERANCES,
    FIG6_GOLDEN_SIZES,
    FIG6_SUSTAINED_SIZES,
    FIG7_GOLDEN_SLOTS,
    FIGURE_TOLERANCES,
    run_canonical_2node,
    run_golden_figures,
)

__all__ = ["default_golden_dir", "regenerate"]


def default_golden_dir() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(repo, "tests", "golden")


def regenerate(outdir: Optional[str] = None, verbose: bool = True) -> None:
    outdir = outdir or default_golden_dir()
    os.makedirs(outdir, exist_ok=True)

    def note(msg: str) -> None:
        if verbose:
            print(msg)

    note(f"regenerating goldens into {outdir}")

    canonical = run_canonical_2node()
    save_golden(os.path.join(outdir, "canonical_2node.json"), canonical,
                tolerances=CANONICAL_TOLERANCES)
    note("  canonical_2node.json written")

    # The representative and the sustained figure points run on
    # *separate* fresh prototypes, in exactly the configuration the tests
    # use -- sweep state (window wrap, simulator clock) must match between
    # regen and regression run.
    figures = run_golden_figures(fig6_sizes=FIG6_GOLDEN_SIZES,
                                 fig7_slots=FIG7_GOLDEN_SLOTS)
    sustained = run_golden_figures(fig6_sizes=FIG6_SUSTAINED_SIZES,
                                   fig7_slots=())
    figures["fig6"].update(sustained["fig6"])

    save_golden(os.path.join(outdir, "fig6_bandwidth.json"),
                {"fig6": figures["fig6"]}, tolerances=FIGURE_TOLERANCES)
    note("  fig6_bandwidth.json written")

    save_golden(os.path.join(outdir, "fig7_latency.json"),
                {"fig7": figures["fig7"]}, tolerances=FIGURE_TOLERANCES)
    note("  fig7_latency.json written")


def main() -> None:  # pragma: no cover - thin CLI
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("outdir", nargs="?", default=None)
    args = ap.parse_args()
    regenerate(args.outdir)


if __name__ == "__main__":  # pragma: no cover
    main()
