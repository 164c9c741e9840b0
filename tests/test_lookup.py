"""The shared cell-to-set lookup and the shared greedy separated subset."""

import numpy as np
import pytest

from qvista.metricspace import greedy_separated_subset
from qvista.spheregrid import inverse_image, locate_cells


def isin_oracle(cells, sets):
    pairs = [(q, k) for q, c in enumerate(cells) for k, s in enumerate(sets) if np.isin(c, s)]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def random_sets(rng, n_sets, universe):
    return [np.unique(rng.integers(0, universe, size=rng.integers(0, 40))) for _ in range(n_sets)]


@pytest.mark.parametrize("seed", range(6))
def test_locate_cells_matches_isin(seed):
    rng = np.random.default_rng(seed)
    sets = random_sets(rng, 5, 60)  # overlapping at this density
    cells = np.concatenate([rng.integers(0, 70, size=50), [-1, -1], rng.integers(0, 60, size=5)])
    rng.shuffle(cells)  # repeated queries and -1s in any position
    query, owner = locate_cells(cells, sets)
    assert (query.tolist(), owner.tolist()) == isin_oracle(cells, sets)


def test_locate_cells_single_set():
    s = np.array([2, 5, 9])
    query, owner = locate_cells(np.array([9, 3, 2, -1, 2]), [s])
    assert query.tolist() == [0, 2, 4]
    assert owner.tolist() == [0, 0, 0]


def test_locate_cells_no_sets():
    query, owner = locate_cells(np.array([0, 4, -1]), [])
    assert query.size == 0 and owner.size == 0


def test_locate_cells_overlap_order():
    query, owner = locate_cells(np.array([4, 1]), [np.array([1, 4]), np.array([0, 4]), np.array([4])])
    assert query.tolist() == [0, 0, 0, 1]
    assert owner.tolist() == [0, 1, 2, 0]


@pytest.mark.parametrize("seed", range(4))
def test_inverse_image_matches_isin(seed):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 300, size=300)
    img[rng.choice(300, size=40, replace=False)] = 7  # a crowded bucket
    preimage = inverse_image(img)
    for size in (0, 1, 5, 60, 300):
        cells = rng.choice(300, size=size, replace=False)
        if size > 1 and 7 not in cells:
            cells[0] = 7
        got = preimage(cells)
        assert got.dtype == np.int32
        assert np.array_equal(np.sort(got), np.flatnonzero(np.isin(img, cells)))
        # bucket by bucket in the order of the query, each bucket ascending
        assert got.tolist() == [i for c in cells for i in np.flatnonzero(img == c)]


def greedy_oracle(d, candidates, delta):
    """The loop each caller ran before the shared function existed."""
    kept = []
    for i in candidates:
        if all(d[i, m] >= delta for m in kept):
            kept.append(int(i))
    return kept


@pytest.mark.parametrize(
    "name", ["cantor", "cantor_small", "dyadic", "tree", "interleaved", "gasket", "grid101"]
)
def test_greedy_matches_loop_on_fixtures(name, request):
    space = request.getfixturevalue(name)
    space = space[0] if isinstance(space, tuple) else space
    d = space.dist
    diam = space.diameter()
    rng = np.random.default_rng(0)
    for delta in (diam / 2, diam / 7, diam / 30, space.min_positive_distance()):
        for cand in (range(space.n), rng.permutation(space.n), np.flatnonzero(d[0] < diam / 3)):
            assert greedy_separated_subset(d, cand, delta) == greedy_oracle(d, cand, delta)


def test_greedy_keeps_orientation_on_nonsymmetric_matrix():
    rng = np.random.default_rng(7)
    d = rng.uniform(0.0, 1.0, size=(60, 60))
    np.fill_diagonal(d, 0.0)
    assert not np.array_equal(d, d.T)
    for delta in (0.05, 0.2, 0.5):
        for cand in (range(60), rng.permutation(60)):
            got = greedy_separated_subset(d, cand, delta)
            assert got == greedy_oracle(d, cand, delta)
    # the transposed matrix keeps a different set, so the orientation is tested
    assert greedy_separated_subset(d, range(60), 0.2) != greedy_oracle(d.T, range(60), 0.2)

