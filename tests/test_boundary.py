import numpy as np
import pytest

from qvista.boundary import (
    boundary_metric,
    natural_geodesic,
    phi_injectivity_check,
    phi_regularity_check,
)
from qvista.fixtures import fixture
from qvista.metricspace import FiniteMetricSpace
from qvista.proximity import fit_power_quasisymmetry, snowflake_check
from qvista.tilegraph import build_tile_graph, cluster_cover_sequence


class TestNaturalGeodesics:
    def test_depth_zero_root_only(self):
        _, cover = fixture("cantor", depth=0, sample_depth=3)
        ng = natural_geodesic(cover, 2)
        assert ng.tiles == ((0, 0),)

    def test_rays_are_exact(self, cantor, tree):
        for _, cover in (cantor, tree):
            g = build_tile_graph(cover)
            for x in range(0, cover.n_points, 13):
                ids = [g.vertex(t) for t in natural_geodesic(cover, x).tiles]
                for a in range(len(ids)):
                    for b in range(len(ids)):
                        assert g.dist[ids[a], ids[b]] == abs(a - b)

    def test_tie_break_modes(self, dyadic):
        space, cover = dyadic
        # the midpoint belongs to two tiles on every level >= 1
        mid = space.n // 2
        low = natural_geodesic(cover, mid, "low").tiles
        high = natural_geodesic(cover, mid, "high").tiles
        assert low != high

    def test_ambiguous_geodesics_stay_close(self, dyadic):
        space, cover = dyadic
        g = build_tile_graph(cover)
        g2 = g.gromov2()
        mid = space.n // 2
        low = natural_geodesic(cover, mid, "low").tiles
        high = natural_geodesic(cover, mid, "high").tiles
        for n in range(cover.depth + 1):
            i, j = g.vertex(low[n]), g.vertex(high[n])
            assert g2[i, j] >= 2 * n - 1  # (X^n . Y^n) >= n - 1/2


class TestBoundaryMetric:
    def test_tree_equals_original(self, tree):
        space, cover = tree
        g = build_tile_graph(cover)
        bnd = boundary_metric(cover, g, 2.0)
        resolved = ~bnd.unresolved() & ~np.eye(space.n, dtype=bool)
        assert np.allclose(bnd.dist[resolved], space.dist[resolved], atol=0, rtol=0)
        assert np.isfinite(bnd.diam_comparability)

    def test_cantor_endpoints(self, cantor):
        space, cover = cantor
        g = build_tile_graph(cover)
        bnd = boundary_metric(cover, g, 3.0)
        xs = np.asarray(space.coords)[:, 0]
        i0, i1 = int(np.argmin(xs)), int(np.argmax(xs))
        assert bnd.dist[i0, i1] == pytest.approx(1.0)  # product 0 through the root

    def test_diagonal_zero(self, cantor_small):
        _, cover = cantor_small
        g = build_tile_graph(cover)
        bnd = boundary_metric(cover, g, 3.0)
        assert np.all(np.diag(bnd.dist) == 0)

    def test_tie_break_sensitivity_within_lambda(self, dyadic):
        _, cover = dyadic
        g = build_tile_graph(cover)
        lam = 2.0
        low = boundary_metric(cover, g, lam, tie_break="low")
        high = boundary_metric(cover, g, lam, tie_break="high")
        both = (low.dist > 0) & (high.dist > 0)
        ratio = np.where(both, low.dist / np.where(high.dist > 0, high.dist, 1.0), 1.0)
        assert ratio.max() <= lam + 1e-9
        assert ratio[both].min() >= 1 / lam - 1e-9


class TestInjectivity:
    def test_adequate_depth_passes(self):
        _, cover = fixture("cantor", depth=5, sample_depth=4)
        g = build_tile_graph(cover)
        ok, info = phi_injectivity_check(boundary_metric(cover, g, 3.0))
        assert ok
        assert info["surjectivity"] == "not applicable"

    def test_shallow_depth_fails_with_witness(self):
        _, cover = fixture("cantor", depth=1, sample_depth=4)
        g = build_tile_graph(cover)
        ok, info = phi_injectivity_check(boundary_metric(cover, g, 3.0))
        assert not ok
        assert len(info["witness"]) == 2


class TestRegularity:
    def test_tree_snowflake_alpha_one(self, tree):
        space, cover = tree
        g = build_tile_graph(cover)
        bnd = boundary_metric(cover, g, 2.0)
        out = phi_regularity_check(space, bnd)
        assert out["kind"] == "snowflake"
        assert out["alpha"] == pytest.approx(1.0, abs=1e-6)
        assert out["C"] == pytest.approx(1.0, abs=1e-6)

    def test_cantor_lambda9_alpha_two(self, cantor):
        space, cover = cantor
        g = build_tile_graph(cover)
        bnd = boundary_metric(cover, g, 9.0)
        out = phi_regularity_check(space, bnd)
        assert out["kind"] == "snowflake"
        assert out["alpha"] == pytest.approx(2.0, abs=0.05)

    def test_repaired_interleaved_is_qs_not_snowflake(self):
        # deep enough interleave that the alpha=1 / alpha=2 scale mixing
        # exceeds the quantization scatter of the truncated boundary
        space, cover = fixture("dyadic_interleaved", k_max=4, sample_exp=10)
        g = build_tile_graph(cover)
        repaired = cluster_cover_sequence(g, 1)
        rg = build_tile_graph(repaired)
        bnd = boundary_metric(repaired, rg, 2.0)
        import dataclasses

        # subsample for the cubic fits; the scale mixing is a global feature
        idx = np.arange(0, space.n, 8)
        sub = FiniteMetricSpace(dist=space.dist[np.ix_(idx, idx)])
        small = dataclasses.replace(
            bnd,
            dist=bnd.dist[np.ix_(idx, idx)],
            products2=bnd.products2[np.ix_(idx, idx)],
        )
        out = phi_regularity_check(sub, small)
        assert out["kind"] == "quasisymmetry"


def diam_comparability_oracle(cover, g, bnd, tie_break):
    """The per point pair scan of diam(X u Y) against L^-(X.Y)."""
    n = cover.n_points
    depth = cover.depth
    deepest = np.array([g.vertex(natural_geodesic(cover, x, tie_break).tiles[depth])
                        for x in range(n)])
    d = cover.space.dist
    lam = bnd.lam
    prod2 = bnd.products2
    worst = 1.0
    for x in range(n):
        ix = np.fromiter(g.members_of(int(deepest[x])), dtype=int)
        for y in range(x + 1, n):
            if not prod2[x, y] < 2 * depth:
                continue
            iy = np.fromiter(g.members_of(int(deepest[y])), dtype=int)
            cross = float(d[np.ix_(ix, iy)].max())
            scale = float(lam) ** (-prod2[x, y] / 2.0)
            if cross > 0:
                worst = max(worst, cross / scale, scale / cross)
    return worst


class TestDiamComparability:
    @pytest.mark.parametrize("name", ["gasket", "interleaved", "dyadic"])
    @pytest.mark.parametrize("tie_break", ["low", "high"])
    def test_matches_point_pair_scan(self, name, tie_break, request):
        _, cover = request.getfixturevalue(name)
        g = build_tile_graph(cover)
        for lam in (2.0, 3.0):
            bnd = boundary_metric(cover, g, lam, tie_break=tie_break)
            assert type(bnd.diam_comparability) is float
            assert bnd.diam_comparability == diam_comparability_oracle(cover, g, bnd, tie_break)
            assert bnd.diam_comparability > 1.0

    def test_single_deepest_tile(self):
        # depth 0: every point sits in the root, so no pair is resolved, and
        # the root's own diameter (5, against L^0 = 1) must not enter
        space, cover = fixture("cantor", depth=0, sample_depth=3)
        cover = cover.with_space(FiniteMetricSpace(dist=5.0 * space.dist))
        bnd = boundary_metric(cover, build_tile_graph(cover), 3.0)
        assert bnd.diam_comparability == 1.0 and type(bnd.diam_comparability) is float
