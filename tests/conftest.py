"""Conservation audit after every test.

The autouse fixture records every :class:`~repro.opteron.OpteronChip` a
test builds.  When the test ends, each simulator of those chips whose
calendar has drained is checked by :func:`helpers.assert_drained`: every
link credit home, no packet left in a queue, no serializer held, no
cancelled entry or macro window left.  A simulator stopped with entries
still pending is not audited.  A test that leaves such state behind on
purpose opts out with ``@pytest.mark.leaves_state``.
"""

import pytest

from helpers import assert_drained
from repro.opteron import OpteronChip


@pytest.fixture(autouse=True)
def conservation_audit(request, monkeypatch):
    chips = []
    init = OpteronChip.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        chips.append(self)

    monkeypatch.setattr(OpteronChip, "__init__", recording_init)
    yield
    if request.node.get_closest_marker("leaves_state"):
        return
    by_sim = {}
    for chip in chips:
        by_sim.setdefault(chip.sim, []).append(chip)
    for sim, group in by_sim.items():
        if not sim._heap:
            assert_drained(group)
