import tracemalloc

import numpy as np
import pytest

from qvista.metricspace import (
    PERFECTNESS_RATIO,
    FiniteMetricSpace,
    greedy_separated_subset,
    maximal_separated_net,
    uniform_perfectness_probe,
    validate_metric,
)
from qvista.fixtures import fixture
from helpers import two_point_space


class TestValidate:
    def test_two_point_ok(self):
        assert validate_metric(two_point_space()) is None

    def test_triangle_violation_witness(self):
        d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        violation, (i, j, k) = validate_metric(FiniteMetricSpace(dist=d))
        assert violation == "TriangleViolation"
        assert d[i, j] > d[i, k] + d[k, j]

    def test_zero_off_diagonal(self):
        d = np.array([[0, 0.0], [0.0, 0]])
        assert validate_metric(FiniteMetricSpace(dist=d)) == ("ZeroOffDiagonal", (0, 1))

    def test_cantor_sample_ok(self, cantor):
        space, _ = cantor
        assert validate_metric(space) is None
        # independent scan: |x - y| distances on the line satisfy all axioms
        xs = np.asarray(space.coords)[:, 0]
        direct = np.abs(xs[:, None] - xs[None, :])
        assert np.allclose(direct, space.dist)

    def test_constructor_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(dist=np.zeros((2, 3)))

    def test_constructor_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            FiniteMetricSpace(dist=np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_constructor_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(dist=np.array([[0, np.inf], [np.inf, 0]]))


class TestNets:
    def test_grid_half_net(self, grid101):
        net = maximal_separated_net(grid101, 0.5)
        assert net.members == (0, 50, 100)

    def test_grid_net_brute_force(self, grid101):
        for delta in (0.3, 0.5, 0.07):
            net = maximal_separated_net(grid101, delta)
            m = set(net.members)
            d = grid101.dist
            assert all(d[a, b] >= delta for a in m for b in m if a != b)
            for x in range(grid101.n):
                assert x in m or any(d[x, a] < delta for a in m)

    def test_delta_above_diameter(self, grid101):
        net = maximal_separated_net(grid101, 2.0)
        assert net.members == (0,)

    def test_delta_below_resolution(self, grid101):
        net = maximal_separated_net(grid101, 0.001)
        assert len(net.members) == grid101.n

    def test_rejects_nonpositive_delta(self, grid101):
        with pytest.raises(ValueError):
            maximal_separated_net(grid101, 0.0)


def separated_count_in_ball(space, center, radius, lam):
    """Size of the greedy lam*radius-separated subset of the open ball B(center, radius)."""
    ball = np.flatnonzero(space.dist[center] < radius)
    return len(greedy_separated_subset(space.dist, ball, lam * radius))


class TestDoublingProbe:
    """Doubling of the fixtures, probed with greedy separated subsets of balls."""

    def test_tree_cylinder_counts_grow(self, tree):
        space, _ = tree
        # the open ball of radius 2^-n around the all-zeros point is the
        # level-n cylinder; it holds n+2 points pairwise 2^-(n-1)-separated
        for n in range(0, 3):
            count = separated_count_in_ball(space, 0, 2.0 ** (-n), 0.5)
            assert count >= n + 2

    def test_cantor_bounded(self):
        space, _ = fixture("cantor", depth=3, sample_depth=5)  # 64 points
        radii = [space.diameter() / 2 ** j for j in range(12)]
        best = max(separated_count_in_ball(space, c, r, 0.5) for r in radii for c in range(space.n))
        assert best <= 8


class TestPerfectnessProbe:
    def test_grid_close_to_one(self, grid101):
        # limited by the grid spacing: radii just under two grid steps reach
        # only one step inward, so the scan bottoms out near 1/2
        probe = uniform_perfectness_probe(grid101)
        assert 0.45 < probe.lambda_up <= 1.0
        # independent exhaustive oracle over the same radius grid: from the
        # largest nearest-neighbour distance up by PERFECTNESS_RATIO, then the
        # diameter
        d = grid101.dist
        radii, r = [], float(np.sort(d, axis=1)[:, 1].max())
        while r < d.max():
            radii.append(r)
            r *= PERFECTNESS_RATIO
        radii.append(float(d.max()))
        best = np.inf
        ecc = d.max(axis=1)
        for r in radii:
            for x in range(grid101.n):
                if ecc[x] >= r:
                    best = min(best, d[x][d[x] <= r].max() / r)
        assert probe.lambda_up == pytest.approx(best, abs=1e-12)

    def test_two_point(self):
        probe = uniform_perfectness_probe(two_point_space())
        assert probe.lambda_up == pytest.approx(1.0)

    def test_cantor_at_least_third(self, cantor):
        space, _ = cantor
        probe = uniform_perfectness_probe(space)
        assert probe.lambda_up >= 1.0 / 3.0 - 1e-9


def test_nearest_neighbor_distances():
    d = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 2.5], [4.0, 2.5, 0.0]])
    assert FiniteMetricSpace(dist=d).nearest_neighbor_distances().tolist() == [1.0, 1.0, 2.5]
    for n in (0, 1):
        nn = FiniteMetricSpace(dist=np.zeros((n, n))).nearest_neighbor_distances()
        assert nn.tolist() == [0.0] * n


def test_nearest_neighbor_distances_cached_read_only():
    space = FiniteMetricSpace(dist=np.array([[0.0, 2.0], [2.0, 0.0]]))
    nn = space.nearest_neighbor_distances()
    assert space.nearest_neighbor_distances() is nn
    assert nn.tolist() == [2.0, 2.0]
    with pytest.raises(ValueError):
        nn[0] = 0.0


def test_coords_are_copied_read_only():
    """The space freezes its own copy of ``coords``, not the caller's array."""
    c = np.zeros((2, 3))
    space = FiniteMetricSpace(dist=[[0, 1], [1, 0]], coords=c)
    assert c.flags.writeable
    c[0, 0] = 5.0
    assert space.coords.tolist() == [[0.0, 0.0, 0.0]] * 2
    with pytest.raises(ValueError):
        space.coords[0, 0] = 1.0


def test_from_dict_builds_one_matrix():
    """A space parsed from JSON holds one n x n float array: ``from_dict``
    hands the parsed rows to the constructor, which copies them once (8 n^2
    bytes), and the symmetry check adds a boolean n x n temporary."""
    n = 512
    x = np.random.default_rng(0).random(n)
    data = {"n": n, "dist": np.abs(x[:, None] - x[None, :]).tolist()}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        space = FiniteMetricSpace.from_dict(data)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert space.dist.tolist() == data["dist"]
    assert peak < 12 * n * n


# -- row-block rewrites against the whole-matrix code they replaced ----------------


def whole_matrix_symmetric(d):
    """The symmetry test the constructor made on the whole matrix."""
    return np.array_equal(d, d.T)


def whole_matrix_nn(d):
    """Nearest-neighbour distances from a copy with its diagonal masked."""
    d = d.copy()
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def whole_matrix_min_positive(d):
    off = d[~np.eye(len(d), dtype=bool)]
    pos = off[off > 0]
    return float(pos.min()) if pos.size else 0.0


def random_symmetric(n, seed=0):
    a = np.random.default_rng(seed).random((n, n))
    return (a + a.T) * ~np.eye(n, dtype=bool)


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 300])
def test_symmetry_check_by_blocks(n):
    """One changed entry raises wherever it sits: in a diagonal block, an
    off-diagonal block or the last partial block; a changed diagonal entry
    and symmetric inputs pass, as they did with the whole-matrix test."""
    d = random_symmetric(n)
    assert whole_matrix_symmetric(d)
    FiniteMetricSpace(dist=d)
    last = n - 1
    spots = {(1, 0), (0, 1), (5, 3), (0, last), (last, 0), (last, last - 1), (127, 128),
             (128, 127), (129, 0), (200, 150), (last, 130), (3, 3), (last, last)}
    for i, j in sorted(s for s in spots if 0 <= min(s) and max(s) < n):
        bad = d.copy()
        bad[i, j] += 0.5
        if whole_matrix_symmetric(bad):
            assert i == j
            FiniteMetricSpace(dist=bad)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                FiniteMetricSpace(dist=bad)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 127, 128, 129, 300])
def test_row_block_minima_match_whole_matrix(n):
    """Blocked nearest-neighbour and least positive distances are the floats
    the whole-matrix code gives, also with zero and repeated entries."""
    rng = np.random.default_rng(n)
    for d in (random_symmetric(n), np.round(random_symmetric(n, seed=1) * 3) / 4):
        if n:
            d[rng.integers(n), :] = d[:, rng.integers(n)] = 0.0  # coincident points
            d = np.minimum(d, d.T)
        space = FiniteMetricSpace(dist=d)
        assert space.min_positive_distance() == whole_matrix_min_positive(d)
        if n >= 2:
            assert np.array_equal(space.nearest_neighbor_distances(), whole_matrix_nn(d))


def test_row_block_minima_make_no_whole_matrix_copy():
    """At n = 1024 neither minimum allocates n^2 bytes at once; the
    whole-matrix code peaked at 8 and 17 n^2."""
    n = 1024
    space = FiniteMetricSpace(dist=random_symmetric(n))
    for probe in (space.nearest_neighbor_distances, space.min_positive_distance):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            probe()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < n * n, probe.__name__
