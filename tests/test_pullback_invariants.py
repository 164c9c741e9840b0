"""Invariants and goldens of the level-1 cover and the distortion probe."""

import hashlib
import json

import numpy as np
import pytest

from qvista.julia import RationalMap, admissible_cover, distortion_probe, julia_sample
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


DISTORTION_DIGESTS = {
    "z^2": "83aae935a3fda4c16457873e467c0681e59d9e502c99e50e9943a83cf3654a00",
    "z^2-1": "6db4921983f6c1e14f0e8d71ade8f8e77f42dec89140d48281304a4325b718a4",
}


@pytest.mark.parametrize("text", sorted(DISTORTION_DIGESTS))
def test_distortion_probe_golden(text):
    g = RationalMap.parse(text)
    out = distortion_probe(g, julia_sample(g, 8), n_configs=4, n_level=2, r0=0.3,
                           grid=SphereGrid(K=512))
    blob = json.dumps([out["rows"], out["envelope"]]).encode()
    assert hashlib.sha256(blob).hexdigest() == DISTORTION_DIGESTS[text]
