"""The incidence joins through ``CoverSequence.tiles_of`` and ``covers.or_rows``
against the dense boolean products they stand in for."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvista.covers import CoverSequence, bool_product, or_rows
from qvista.proximity import _image_hosts, _point_proximity_at_level
from helpers import line_space, overlapping_covers


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


def julia_sized_levels(n=1024):
    """The whole space, 6 tiles of about n / 6 points and n / 2 two-point
    tiles: each point lies in one tile of a level, as in a Julia cover."""
    return [[list(range(n))], [list(range(i, n, 6)) for i in range(6)],
            [[2 * i, 2 * i + 1] for i in range(n // 2)]]


def assert_joins_match_dense(levels, width, g):
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
        assert np.array_equal(cover.hood(a), bool_product(near, mem).T)
        assert np.array_equal(_point_proximity_at_level(cover, a),
                              bool_product(mem.T, near, mem))
        if a < cover.depth:
            contained, size = _image_hosts(cover, a, g)
            want_contained, want_size = dense_hosts(cover, a, g)
            assert np.array_equal(contained, want_contained)
            assert np.array_equal(size, want_size)


@settings(max_examples=60, deadline=None)
@given(case=overlapping_covers())
def test_joins_match_dense_products_on_random_covers(case):
    assert_joins_match_dense(*case)


@pytest.mark.parametrize("name", ["cantor", "dyadic", "tree", "interleaved", "gasket"])
def test_joins_match_dense_products_on_fixtures(name, request):
    _, cover = request.getfixturevalue(name)
    levels = [[list(t) for t in cover.members(lev)] for lev in range(cover.depth + 1)]
    g = np.random.default_rng(3).integers(0, cover.n_points, size=cover.n_points)
    assert_joins_match_dense(levels, cover.width, g)


def test_joins_match_dense_products_on_a_julia_sized_cover():
    g = np.random.default_rng(5).integers(0, 1024, size=1024)
    assert_joins_match_dense(julia_sized_levels(), 1, g)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_or_rows_ors_the_listed_rows(data):
    k = data.draw(st.integers(min_value=1, max_value=6))
    cols = data.draw(st.integers(min_value=0, max_value=5))
    rows = data.draw(st.integers(min_value=0, max_value=7))
    width = data.draw(st.integers(min_value=1, max_value=4))
    mat = np.array(data.draw(st.lists(st.booleans(), min_size=k * cols, max_size=k * cols)),
                   dtype=bool).reshape(k, cols)
    # entries run up to k, the pad, which stands for no row
    table = np.array(data.draw(st.lists(st.integers(0, k), min_size=rows * width,
                                        max_size=rows * width)), dtype=np.intp).reshape(rows, width)
    want = np.array([[mat[[i for i in r if i < k], c].any() for c in range(cols)] for r in table],
                    dtype=bool).reshape(rows, cols)
    assert np.array_equal(or_rows(mat, table), want)


@pytest.mark.parametrize("width", [0, 1])
def test_point_proximity_builds_no_dense_float_product(width):
    """The joins keep the point proximity of a level near its n x n bool
    output: a dense float32 product would hold 4 n^2 bytes more."""
    n = 1024
    for level in (1, 2):
        cover = CoverSequence(None, julia_sized_levels(n), width=width)  # nothing cached
        tracemalloc.start()
        try:
            _point_proximity_at_level(cover, level)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * n, (level, peak / n**2)


def test_tiles_of_lists_each_points_tiles_in_order():
    cover = CoverSequence(None, [[[0, 1, 2, 3]], [[0, 1], [1, 2, 3], [1], [3]]])
    table = cover.tiles_of(1)
    assert table.tolist() == [[0, 4, 4], [0, 1, 2], [1, 4, 4], [1, 3, 4]]
    assert cover.tiles_of(1) is table
    with pytest.raises(ValueError):
        table[0, 0] = 1
