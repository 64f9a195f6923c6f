"""Command-line harness: regenerate the paper's figures/tables quickly.

Usage::

    python -m repro.bench                 # everything, quick settings
    python -m repro.bench fig6 fig7       # selected experiments
    python -m repro.bench --full fig6     # publication-size sweeps

Available experiments: fig6, fig7, hops, ib, coherence, boot, endpoints,
wc, ordering, reliability, futures, app, mpi, anatomy.  Their arguments
and tables live in :mod:`repro.bench.experiments`; ``--full`` prints
exactly the text ``benchmarks/results/`` holds.
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import EXPERIMENTS
from .reporting import header


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the TCCluster paper's figures and tables.",
    )
    parser.add_argument("experiments", nargs="*",
                        choices=[*EXPERIMENTS, []],
                        help="which experiments (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="publication-size sweeps (slower)")
    args = parser.parse_args(argv)
    names = args.experiments or list(EXPERIMENTS)
    for name in names:
        t0 = time.time()
        print(header(f"{name}"))
        print(EXPERIMENTS[name].text(args.full))
        print(f"[{time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
