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
        all_points = frozenset(range(space.n))
        assert cover.levels[0][0].members == all_points
        for fam in cover.levels:
            assert frozenset().union(*(t.members for t in fam)) == all_points


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


def test_space_and_cover_round_trip(tmp_path, cantor_small):
    space, cover = cantor_small
    sp = tmp_path / "s.json"
    cp = tmp_path / "c.json"
    space.save(sp)
    cover.save(cp)
    space2 = FiniteMetricSpace.load(sp)
    cover2 = CoverSequence.load(cp, space2)
    assert np.array_equal(space2.dist, space.dist)
    assert cover2.to_dict() == cover.to_dict()
    # files are canonical: a reload-save round trip is byte identical
    cover2.save(tmp_path / "c2.json")
    assert (tmp_path / "c2.json").read_bytes() == cp.read_bytes()
    data = json.loads(cp.read_text())
    assert set(data) == {"n", "width", "lambda", "levels"}
