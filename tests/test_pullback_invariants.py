"""Invariants of the level-1 cover."""

import pytest

from qvista.julia import RationalMap, admissible_cover, julia_sample
from qvista.spheregrid import SphereGrid

SIX_MAPS = ["z^2", "z^2-1", "z^2-3", "z^2-2", "z^2+i", "z^2-0.75"]


@pytest.mark.parametrize("text", SIX_MAPS)
def test_level1_regions_cover_the_sample(text):
    """The region centers are a maximal radius-net, so every sample point
    lies within the radius of some center and is among its sample points."""
    g = RationalMap.parse(text)
    sample = julia_sample(g, 8)
    pull = admissible_cover(g, sample, 0.25, grid=SphereGrid(K=128))
    covered = set().union(*(r.sample_points for r in pull.families[0]))
    assert covered == set(range(sample.n))

