import json

import numpy as np
import pytest

from qvista import fixtures
from qvista.covers import CoverSequence
from qvista.errors import UnknownFixture
from qvista.metricspace import FiniteMetricSpace, validate_metric


def test_all_fixtures_valid_and_covering():
    for name in fixtures.FIXTURE_NAMES:
        space, cover = fixtures.fixture(name)
        assert validate_metric(space) is None, name
        all_points = set(range(space.n))
        assert set(cover.levels[0][0].members.tolist()) == all_points
        for fam in cover.levels:
            assert set().union(*(t.members.tolist() for t in fam)) == all_points


def test_tree_ultrametric_values(tree):
    space, _ = tree
    arr = np.asarray(space.coords)
    # x = (0,0,0,...), y = (1,0,0,...): first disagreement at index 1
    ix = int(np.flatnonzero((arr == 0).all(axis=1))[0])
    target = np.zeros(arr.shape[1], dtype=int)
    target[0] = 1
    iy = int(np.flatnonzero((arr == target).all(axis=1))[0])
    assert space.dist[ix, iy] == 0.5
    # ultrametric inequality holds exactly
    d = space.dist
    for k in range(0, space.n, 7):
        assert np.all(d <= np.maximum(d[:, k][:, None], d[k, :][None, :]) + 1e-15)


def test_tree_point_count():
    space, cover = fixtures.fixture("tree_example_3_7", depth=3)
    assert space.n == 2 * 3 * 4
    assert [len(f) for f in cover.levels] == [1, 1, 2, 6]


def test_cantor_level_diameters(cantor):
    space, cover = cantor
    assert len(cover.levels[4]) == 16
    diams = cover.diams(4)
    assert np.allclose(diams, 3.0 ** -4)
    # separated level-4 tiles sit at least 3^-4 apart
    dist = cover.pair_distances(4)
    off = ~np.eye(16, dtype=bool)
    assert dist[off].min() >= 3.0 ** -4 - 1e-12


def test_cantor_depth_beyond_sample_gives_singletons():
    space, cover = fixtures.fixture("cantor", depth=4, sample_depth=3)
    assert all(len(t.members) == 1 for t in cover.levels[4])
    assert len(cover.levels[4]) == space.n


def test_interleaved_shape(interleaved):
    _, cover = interleaved
    assert [len(f) for f in cover.levels] == [1, 1, 2, 4, 4, 16, 8, 64]
    assert cover.visual_parameter is None


def test_gasket_tile_scaling(gasket):
    space, cover = gasket
    for lev in range(1, 4):
        diams = cover.diams(lev)
        assert np.allclose(diams, 2.0 ** -lev, rtol=1e-9)


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        fixtures.fixture("koch_flake")


def test_space_and_cover_round_trip(cantor_small):
    space, cover = cantor_small
    space2 = FiniteMetricSpace.from_dict(json.loads(json.dumps(space.to_dict())))
    cover2 = CoverSequence.from_dict(json.loads(json.dumps(cover.to_dict())), space2)
    assert np.array_equal(space2.dist, space.dist)
    assert cover2.to_dict() == cover.to_dict()
    # the schema is canonical: a round trip writes the same sorted-key JSON
    text = json.dumps(cover.to_dict(), sort_keys=True)
    assert json.dumps(cover2.to_dict(), sort_keys=True) == text
    data = json.loads(text)
    assert set(data) == {"n", "width", "lambda", "levels"}
