"""The gap suite's pinned optima, and a tripwire on its misses.

The judge of a search change is the full run, python tests/gap_suite.py
--offsets 10; these tests check that its pins hold and that two offsets
do not miss more often than when the suite landed.
"""

import pytest

from conftest import ACCEPTANCE_LINES
from gap_suite import FARMS, OPTIMA, farm, gaps, misses, summary

from airmule.solver import solve_exact

# Misses of the suite at offsets 0 and 1 when it landed, of 64 solves.
_MISSES_AT_TWO_OFFSETS = 8


@pytest.mark.parametrize("s", [3, 9, 21])
def test_pinned_optimum_rederived(s):
    assert repr(solve_exact(farm(s)).cost) == repr(OPTIMA[FARMS.index(s)])


def test_misses_at_two_offsets_do_not_rise():
    rows = gaps(range(2))
    ACCEPTANCE_LINES.append(summary(rows))
    assert misses(rows) <= _MISSES_AT_TWO_OFFSETS, summary(rows)
