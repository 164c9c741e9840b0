"""Small spaces and cover strategies shared by several test modules.  A
plain module, not the conftest: the benchmark's self-test has a conftest of
its own."""

import numpy as np
from hypothesis import strategies as st

from qvista.metricspace import FiniteMetricSpace


def condition(report, name):
    """The record of the condition ``name`` in a verification report."""
    (record,) = [c for c in report.conditions if c.condition == name]
    return record


def two_point_space():
    return FiniteMetricSpace(dist=np.array([[0.0, 1.0], [1.0, 0.0]]))


def line_space(n):
    """The points 0..n-1 of the real line."""
    return FiniteMetricSpace(dist=np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * 1.0)


@st.composite
def overlapping_covers(draw):
    """Levels of up to 9 tiles over up to 12 points, with singletons, repeated
    tiles and a point that may lie in every tile of a level, so that the
    table width runs up to the tile count; plus a self-map of the points."""
    n = draw(st.integers(min_value=1, max_value=12))
    levels = [[list(range(n))]]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        fam = [draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
               for _ in range(draw(st.integers(min_value=1, max_value=9)))]
        fam[0] |= set(range(n)) - set().union(*fam)
        if draw(st.booleans()):
            hub = draw(st.integers(0, n - 1))
            fam = [t | {hub} for t in fam]
        levels.append([sorted(t) for t in fam])
    width = draw(st.integers(min_value=0, max_value=2))
    g = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)), dtype=np.int64)
    return levels, width, g
