import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from qvista.covers import CoverSequence, verify_quasi_visual
from qvista.errors import UnknownVertex
from qvista.fixtures import fixture
from qvista.proximity import check_combinatorially_visual, compute_proximity
from qvista.tilegraph import (
    build_tile_graph,
    cluster,
    cluster_cover_sequence,
    compare_m_gromov,
    extended_proximity,
    extended_proximity_matrix,
    graph_map_check,
    hop_distances,
    hyperbolicity_constant,
)
from helpers import two_point_space


def scipy_hops(adj):
    return shortest_path(csr_matrix(adj.astype(np.int8)), unweighted=True, directed=False)


@st.composite
def symmetric_adjacency(draw):
    n = draw(st.integers(1, 30))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    adj = np.array(bits, dtype=bool).reshape(n, n)
    return adj | adj.T


class TestHopDistances:
    """The multi-source BFS against scipy's unweighted shortest paths."""

    @settings(max_examples=60, deadline=None)
    @given(symmetric_adjacency())
    def test_matches_scipy(self, adj):
        assert np.array_equal(hop_distances(adj), scipy_hops(adj))

    def test_disconnected_graph_reads_inf(self):
        # a path 0-1-2 and an edge 3-4
        adj = np.zeros((5, 5), dtype=bool)
        for a, b in ((0, 1), (1, 2), (3, 4)):
            adj[a, b] = adj[b, a] = True
        got = hop_distances(adj)
        assert np.array_equal(got, scipy_hops(adj))
        assert got[0, 2] == 2 and np.isinf(got[0, 3]) and np.isinf(got[4, 2])

    def test_tile_and_cluster_graphs_match_scipy(self, gasket):
        space, cover = gasket
        graph = build_tile_graph(cover)
        # tiles that meet, one level apart at most
        member = np.zeros((graph.n_vertices, space.n), dtype=bool)
        for i in range(graph.n_vertices):
            member[i, graph.members_of(i)] = True
        meet = member.astype(int) @ member.T.astype(int) > 0
        adj = meet & (np.abs(graph.levels[:, None] - graph.levels[None, :]) <= 1)
        assert graph.dist.dtype == np.int64
        assert np.array_equal(graph.dist, scipy_hops(adj))
        # the cluster graph of graph_map_check at r = 1
        assert np.array_equal(hop_distances(graph.dist <= 3), scipy_hops(graph.dist <= 3))


class TestGraphStructure:
    def test_root_only(self):
        space = two_point_space()
        cover = CoverSequence(space, [[(0, 1)]], width=0)
        g = build_tile_graph(cover)
        assert g.n_vertices == 1
        assert g.dist.tolist() == [[0]]

    def test_dyadic_depth2(self):
        _, cover = fixture("interval_dyadic", depth=2, sample_exp=4)
        g = build_tile_graph(cover)
        assert g.n_vertices == 7
        assert g.dist[g.vertex((1, 0)), g.vertex((1, 1))] == 1  # share the midpoint

    def test_cantor_depth2_root_path(self):
        _, cover = fixture("cantor", depth=2, sample_depth=4)
        g = build_tile_graph(cover)
        assert g.n_vertices == 7
        assert g.dist[g.vertex((1, 0)), g.vertex((1, 1))] == 2  # via the root

    def test_unknown_vertex(self, cantor):
        _, cover = cantor
        g = build_tile_graph(cover)
        with pytest.raises(UnknownVertex):
            g.vertex((9, 9))

    def test_export_schema(self, cantor_small):
        _, cover = cantor_small
        g = build_tile_graph(cover)
        data = g.to_dict()
        assert {"level", "tile"} == set(data["vertices"][0])
        assert all(len(e) == 2 for e in data["edges"])


def gromov_product(g, x, y):
    """The Gromov product (X . Y) of two tiles with respect to the root."""
    return g.gromov2()[g.vertex(x), g.vertex(y)] / 2


class TestGromovProduct:
    def test_self_product_is_level(self, cantor):
        _, cover = cantor
        g = build_tile_graph(cover)
        for lev in range(cover.depth + 1):
            assert gromov_product(g, (lev, 0), (lev, 0)) == lev

    def test_natural_geodesic_products(self, cantor):
        _, cover = cantor
        g = build_tile_graph(cover)
        # tiles of the leftmost point form a geodesic: (X^n . X^k) = min(n,k)
        for n in range(cover.depth + 1):
            for k in range(cover.depth + 1):
                assert gromov_product(g, (n, 0), (k, 0)) == min(n, k)

    def test_disjoint_level2_through_root(self):
        _, cover = fixture("cantor", depth=2, sample_depth=4)
        g = build_tile_graph(cover)
        assert g.dist[g.vertex((2, 0)), g.vertex((2, 3))] == 4
        assert gromov_product(g, (2, 0), (2, 3)) == 0.0

    def test_bounded_by_levels(self, dyadic):
        _, cover = dyadic
        g = build_tile_graph(cover)
        g2 = g.gromov2()
        lev = g.levels
        assert np.all(g2 <= 2 * np.minimum(lev[:, None], lev[None, :]))
        assert np.all(g2 >= 0)


class TestHyperbolicity:
    def test_single_vertex(self):
        space = two_point_space()
        cover = CoverSequence(space, [[(0, 1)]], width=0)
        g = build_tile_graph(cover)
        assert hyperbolicity_constant(g) == 0.0

    def test_tree_is_zero(self, tree):
        _, cover = tree
        g = build_tile_graph(cover)
        assert hyperbolicity_constant(g) == 0.0

    def test_interleaved_finite(self, interleaved):
        _, cover = interleaved
        g = build_tile_graph(cover)
        c = hyperbolicity_constant(g)
        assert np.isfinite(c)

    def test_sampled_lower_bound(self, cantor):
        _, cover = cantor
        g = build_tile_graph(cover)
        exact = hyperbolicity_constant(g, mode="exact")
        sampled = hyperbolicity_constant(g, mode="sampled", sample_triples=50_000, seed=1)
        assert sampled <= exact

    def test_exact_mode_has_no_vertex_cap(self):
        _, cover = fixture("cantor", depth=8, sample_depth=8)
        g = build_tile_graph(cover)
        assert g.n_vertices > 400
        exact = hyperbolicity_constant(g, mode="exact")
        assert exact == hyperbolicity_oracle(g)
        assert hyperbolicity_constant(g, mode="sampled", sample_triples=10_000) <= exact


def hyperbolicity_oracle(graph):
    """The per pivot scan of all vertex triples."""
    g2 = graph.gromov2()
    worst = 0
    for z in range(graph.n_vertices):
        worst = max(worst, int((np.minimum.outer(g2[:, z], g2[z, :]) - g2).max()))
    return worst / 2.0


@pytest.mark.parametrize("name", ["cantor", "dyadic", "tree", "interleaved", "gasket"])
def test_exact_hyperbolicity_matches_scan(name, request):
    _, cover = request.getfixturevalue(name)
    g = build_tile_graph(cover)
    assert hyperbolicity_constant(g, mode="exact") == hyperbolicity_oracle(g)


class TestExtendedProximity:
    def test_singleton_tile_sentinel(self):
        _, cover = fixture("cantor", depth=4, sample_depth=3)  # deepest are singletons
        g = build_tile_graph(cover)
        table = compute_proximity(cover)
        assert extended_proximity(g, table, (4, 0), (4, 0)) == table.sentinel

    def test_cantor_level1_pair(self, cantor):
        _, cover = cantor
        g = build_tile_graph(cover)
        table = compute_proximity(cover)
        assert extended_proximity(g, table, (1, 0), (1, 1)) == 0

    def test_matrix_matches_scalar(self, cantor_small):
        _, cover = cantor_small
        g = build_tile_graph(cover)
        table = compute_proximity(cover)
        mat = extended_proximity_matrix(g, table)
        for i, vid in enumerate(g.vertex_ids):
            for j, wid in enumerate(g.vertex_ids):
                if (i + j) % 7 == 0:
                    assert mat[i, j] == extended_proximity(g, table, vid, wid)

    def test_triple_inequality(self, cantor_small):
        _, cover = cantor_small
        g = build_tile_graph(cover)
        table = compute_proximity(cover)
        chk = check_combinatorially_visual(cover, table)
        m = extended_proximity_matrix(g, table).astype(float)
        for z in range(g.n_vertices):
            assert np.all(m >= np.minimum.outer(m[:, z], m[z, :]) - chk.C_iv - 1e-9)


class TestCompareMGromov:
    def test_tree_small_constant(self, tree):
        _, cover = tree
        g = build_tile_graph(cover)
        cmp_ = compare_m_gromov(g, compute_proximity(cover))
        assert cmp_.C_product <= 1.0
        assert cmp_.C_levgr == 2 * cmp_.C_product

    def test_stability_under_depth(self):
        consts = {}
        for name, kw in (
            ("cantor", lambda d: dict(depth=d, sample_depth=6)),
            ("tree_example_3_7", lambda d: dict(depth=d)),
        ):
            vals = []
            for depth in (3, 4):
                _, cover = fixture(name, **kw(depth))
                g = build_tile_graph(cover)
                vals.append(compare_m_gromov(g, compute_proximity(cover)).C_product)
            consts[name] = vals
            assert abs(vals[1] - vals[0]) <= 1.0
        assert consts


class TestClusters:
    def test_r0_is_tile(self, cantor):
        _, cover = cantor
        g = build_tile_graph(cover)
        t = cover.levels[2][1]
        assert cluster(g, (2, 1), 0) == t.members

    def test_dyadic_r1(self):
        _, cover = fixture("interval_dyadic", depth=2, sample_exp=4)
        g = build_tile_graph(cover)
        got = cluster(g, (1, 0), 1)
        # [0,1/2] plus root plus [1/2,1] plus both children = everything
        assert got == frozenset(range(cover.n_points))

    def test_r_beyond_diameter(self, cantor_small):
        _, cover = cantor_small
        g = build_tile_graph(cover)
        r = int(g.dist.max())
        assert cluster(g, (2, 0), r) == frozenset(range(cover.n_points))

    def test_monotone_in_r(self, cantor_small):
        _, cover = cantor_small
        g = build_tile_graph(cover)
        prev = frozenset()
        for r in range(4):
            cur = cluster(g, (3, 2), r)
            assert prev <= cur
            prev = cur

    def test_interleaved_repair(self, interleaved):
        _, cover = interleaved
        g = build_tile_graph(cover)
        assert not verify_quasi_visual(cover, thresholds={"qv.iii": 6.0}).passed
        repaired = cluster_cover_sequence(g, 1)
        assert repaired.width == 1
        rep = verify_quasi_visual(repaired, thresholds={"qv.iii": 6.0})
        assert rep.passed

    def test_r0_identical_verdicts(self, cantor):
        _, cover = cantor
        g = build_tile_graph(cover)
        # V_0(X) = X, and cluster covers have width 1
        levels = [[t.sorted_members() for t in fam] for fam in cover.levels]
        a = verify_quasi_visual(CoverSequence(cover.space, levels, width=1))
        b = verify_quasi_visual(cluster_cover_sequence(g, 0))
        assert [c.verdict for c in a.conditions] == [c.verdict for c in b.conditions]

    def test_cantor_r1_still_passes(self, cantor):
        _, cover = cantor
        g = build_tile_graph(cover)
        assert verify_quasi_visual(cluster_cover_sequence(g, 1)).passed


class TestGraphMapCheck:
    def test_exact_bounds_cantor_dyadic(self):
        for name, kw in (("cantor", dict(depth=4, sample_depth=6)),
                         ("interval_dyadic", dict(depth=4, sample_exp=7))):
            _, cover = fixture(name, **kw)
            gx = build_tile_graph(cover)
            for r in (0, 1, 2):
                ok, violations = graph_map_check(gx, r)
                assert ok, (name, r, violations)

    # the cluster graph graph_map_check measures |V(X) - V(Y)| in
    @staticmethod
    def cluster_dist(gx, r):
        return hop_distances(gx.dist <= 2 * r + 1)

    def test_r0_isomorphic(self, cantor_small):
        _, cover = cantor_small
        gx = build_tile_graph(cover)
        assert np.array_equal(self.cluster_dist(gx, 0), gx.dist)

    def test_pair_at_distance_2r_plus_1(self, cantor):
        _, cover = cantor
        gx = build_tile_graph(cover)
        r = 1
        q = 2 * r + 1
        ii, jj = np.nonzero(gx.dist == q)
        assert ii.size
        dv = self.cluster_dist(gx, r)[ii, jj]
        assert np.all((dv >= 1) & (dv <= 2))

    def test_wrong_radius_rejected(self, cantor_small):
        _, cover = cantor_small
        with pytest.raises(ValueError, match="cluster radius"):
            graph_map_check(build_tile_graph(cover), -1)
