"""Golden regression of the headline numbers (Figure 6 / Figure 7).

Three representative points per figure run against
``tests/golden/fig6_bandwidth.json`` / ``fig7_latency.json`` with an
explicit 3% tolerance: small-message bandwidth, the buffering peak, the
msglib latency curve.  The 4 MiB sustained-bandwidth points run on a
prototype of their own; one open-ended WC train carries each, so they
take a few seconds (``python -m repro.obs.regen_goldens`` regenerates
everything).
"""

import os

import pytest

from repro.obs.golden import (
    assert_matches_golden,
    compare_to_golden,
    load_golden,
)
from repro.obs.scenarios import (
    FIG6_GOLDEN_SIZES,
    FIG6_SUSTAINED_SIZES,
    FIG7_GOLDEN_SLOTS,
    run_golden_figures,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
FIG6 = os.path.join(GOLDEN_DIR, "fig6_bandwidth.json")
FIG7 = os.path.join(GOLDEN_DIR, "fig7_latency.json")


def _fig6_golden_subset(sizes):
    """The fig6 golden holds both the representative and the sustained
    points; each test runs one set, so compare against only the matching
    keys."""
    golden = load_golden(FIG6)
    golden["metrics"] = {
        k: v for k, v in golden["metrics"].items()
        if any(f".{s}." in k for s in sizes)
    }
    return golden


@pytest.fixture(scope="module")
def figure_points():
    return run_golden_figures(fig6_sizes=FIG6_GOLDEN_SIZES,
                              fig7_slots=FIG7_GOLDEN_SLOTS)


def test_fig6_bandwidth_points_match_golden(figure_points):
    violations = compare_to_golden({"fig6": figure_points["fig6"]},
                                   _fig6_golden_subset(FIG6_GOLDEN_SIZES))
    assert not violations, "\n".join(violations)


def test_fig7_latency_points_match_golden(figure_points):
    assert_matches_golden({"fig7": figure_points["fig7"]}, FIG7)


def test_goldens_cover_the_paper_anchors():
    """The checked-in files pin the paper's headline values (sanity that
    a regen didn't silently drift the reproduction itself)."""
    fig6 = load_golden(FIG6)["metrics"]
    assert fig6["fig6.weak.64.mbps"] == pytest.approx(2500, rel=0.10)
    assert fig6["fig6.weak.262144.mbps"] == pytest.approx(5300, rel=0.05)
    fig7 = load_golden(FIG7)["metrics"]
    assert fig7["fig7.slots1.hrt_ns"] == pytest.approx(227, rel=0.08)


def test_fig6_sustained_bandwidth_matches_golden():
    """4 MiB streams: the ~2700 MB/s weak / ~2000 MB/s strict plateaus."""
    points = run_golden_figures(fig6_sizes=FIG6_SUSTAINED_SIZES,
                                fig7_slots=())
    violations = compare_to_golden({"fig6": points["fig6"]},
                                   _fig6_golden_subset(FIG6_SUSTAINED_SIZES))
    assert not violations, "\n".join(violations)
