"""The incidence joins through ``CoverSequence.tiles_of`` against the dense
boolean products they stand in for, on both sides of the BLAS choice."""

import numpy as np
import pytest
from hypothesis import given, settings

from qvista import covers
from qvista.covers import CoverSequence, bool_product
from qvista.proximity import _image_hosts, _point_proximity_at_level
from helpers import line_space, overlapping_covers

RATIOS = [0, 10**9]  # BLAS_TILE_RATIO values that force the joins and the products


def dense_reach(adj, length):
    return bool_product(np.eye(len(adj), dtype=bool), *[adj] * length)


def dense_hosts(cover, level, g):
    """Containment of the images of the level + 1 tiles in the level tiles,
    and the image sizes, by one dense product."""
    mem_up, mem_dn = cover.membership(level), cover.membership(level + 1)
    img = np.zeros_like(mem_dn)
    tile, point = np.nonzero(mem_dn)
    img[tile, g[point]] = True
    return ~bool_product(img, ~mem_up.T), img.sum(axis=1)


def assert_joins_match_dense(levels, width, g, ratio):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "BLAS_TILE_RATIO", ratio)
        # a fresh cover, so that no product is cached from another choice
        cover = CoverSequence(line_space(len(levels[0][0])), levels, width=width)
        for a in range(cover.depth + 1):
            mem = cover.membership(a)
            table = cover.tiles_of(a)
            assert table.shape[1] == mem.sum(axis=0).max()
            for b in range(cover.depth + 1):
                want = bool_product(mem, cover.membership(b).T)
                assert np.array_equal(cover.meets(a, b), want)
            adj = cover.meets(a, a)
            for length in range(4):
                assert np.array_equal(cover.reach_within(a, length), dense_reach(adj, length))
            near = dense_reach(adj, 2 * width + 1)
            assert np.array_equal(_point_proximity_at_level(cover, a),
                                  bool_product(mem.T, near, mem))
            if a < cover.depth:
                contained, size = _image_hosts(cover, a, g)
                want_contained, want_size = dense_hosts(cover, a, g)
                assert np.array_equal(contained, want_contained)
                assert np.array_equal(size, want_size)


@pytest.mark.parametrize("ratio", RATIOS)
@settings(max_examples=60, deadline=None)
@given(case=overlapping_covers())
def test_joins_match_dense_products_on_random_covers(case, ratio):
    assert_joins_match_dense(*case, ratio)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", ["cantor", "dyadic", "tree", "interleaved", "gasket"])
def test_joins_match_dense_products_on_fixtures(name, ratio, request):
    _, cover = request.getfixturevalue(name)
    levels = [[list(t) for t in cover.members(lev)] for lev in range(cover.depth + 1)]
    g = np.random.default_rng(3).integers(0, cover.n_points, size=cover.n_points)
    assert_joins_match_dense(levels, cover.width, g, ratio)


def test_tiles_of_lists_each_points_tiles_in_order():
    cover = CoverSequence(None, [[[0, 1, 2, 3]], [[0, 1], [1, 2, 3], [1], [3]]])
    table = cover.tiles_of(1)
    assert table.tolist() == [[0, 4, 4], [0, 1, 2], [1, 4, 4], [1, 3, 4]]
    assert cover.tiles_of(1) is table
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_default_choice_takes_both_sides_on_a_julia_sized_cover():
    """512 two-point tiles, each point in one: the joins; 6 tiles: BLAS."""
    n = 1024
    fine = [[2 * i, 2 * i + 1] for i in range(n // 2)]
    coarse = [list(range(i, n, 6)) for i in range(6)]
    cover = CoverSequence(None, [[list(range(n))], coarse, fine])
    assert covers.blas_cheaper(6, cover.tiles_of(1).shape[1])
    assert not covers.blas_cheaper(512, cover.tiles_of(2).shape[1])
    want = bool_product(cover.membership(1), cover.membership(2).T)
    assert np.array_equal(cover.meets(1, 2), want)
    assert np.array_equal(cover.reach_within(2, 3), np.eye(n // 2, dtype=bool))
