import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qvista.errors import RootFindFailure, SeedNotRepelling
from qvista.julia import (
    ROOT_CLUSTER_TOL,
    RationalMap,
    _cluster_roots,
    _root_rows,
    admissible_cover,
    degree_probe,
    induce_tiles,
    julia_sample,
    pullback_cover,
    verify_dynamical_qv,
)
from qvista.metricspace import validate_metric
from qvista.spheregrid import SphereGrid


@pytest.fixture(scope="module")
def zsq():
    return RationalMap.parse("z^2")


@pytest.fixture(scope="module")
def cheb():
    return RationalMap.parse("z^2-2")


@pytest.fixture(scope="module")
def zsq_sample(zsq):
    return julia_sample(zsq, 8)  # 256 circle points


@pytest.fixture(scope="module")
def zsq_pull(zsq, zsq_sample):
    pull = admissible_cover(zsq, zsq_sample, np.pi / 8, grid=SphereGrid(K=512))
    return pullback_cover(pull, 4)


class TestRationalMap:
    def test_parse_forms(self):
        assert RationalMap.parse("z^2").degree == 2
        assert RationalMap.parse("(z^2+1)/(z^2-1)").degree == 2
        m = RationalMap.parse("(1+2i)*z^3 - z")
        assert m.degree == 3
        assert m.p[0] == pytest.approx(1 + 2j)

    def test_degree_floor(self):
        with pytest.raises(ValueError):
            RationalMap.parse("z + 1")

    def test_eval_at_infinity(self, zsq, cheb):
        assert np.isinf(zsq.eval(np.array([np.inf + 0j]))[0])
        assert np.isinf(cheb.eval(np.array([np.inf + 0j]))[0])
        mob = RationalMap.parse("(z^2+1)/(z^2-1)")
        assert mob.eval(np.array([np.inf + 0j]))[0] == pytest.approx(1.0)

    def test_eval_large_matches_direct(self, cheb):
        z = np.array([3.7 - 2.2j, 150.0 + 3j, 0.3 + 0.1j])
        direct = z ** 2 - 2
        got = cheb.eval(z)
        assert np.allclose(got, direct, rtol=1e-12)

    def test_preimages_multiplicity_at_critical_value(self, cheb):
        pts, mult = cheb.preimages(-2.0 + 0j)
        assert pts.shape == (1,)
        assert pts[0] == pytest.approx(0.0)
        assert mult[0] == 2

    def test_repelling_fixed_point(self, zsq, cheb):
        assert zsq.repelling_fixed_point() == pytest.approx(1.0)
        assert cheb.repelling_fixed_point() == pytest.approx(2.0)

    def test_parabolic_has_no_repelling_seed(self):
        m = RationalMap.parse("z^2 + 0.25")
        with pytest.raises(SeedNotRepelling):
            m.repelling_fixed_point()

    def test_parabolic_double_fixed_point_reported_once(self):
        # z^2 + 1/4 - z = (z - 1/2)^2: one double fixed point, multiplier 1
        fps = RationalMap.parse("z^2 + 0.25").fixed_points()
        assert len(fps) == 1
        z0, lam = fps[0]
        assert abs(z0 - 0.5) < 1e-12
        assert abs(lam - 1.0) < 1e-12

    def test_triple_roots_reported_once(self):
        # the critical value 0.5+0.3i of (z-0.5)^3 + 0.5+0.3i has one triple
        # preimage, and z + (z-0.5-0.3i)^3 one triple fixed point; their
        # numerical roots lie about 6e-6 apart, past the double-root tolerance
        pts, mult = RationalMap.parse("(z-0.5)^3 + 0.5+0.3*i").preimages(0.5 + 0.3j)
        assert mult.tolist() == [3]
        assert abs(pts[0] - 0.5) < 1e-12
        fps = RationalMap.parse("z + (z-0.5-0.3*i)^3").fixed_points()
        assert len(fps) == 1
        z0, lam = fps[0]
        assert abs(z0 - (0.5 + 0.3j)) < 1e-12
        assert abs(lam - 1.0) < 1e-12
        # quadratic maps keep the double-root tolerance itself
        assert RationalMap.parse("z^2-1").root_cluster_tol == ROOT_CLUSTER_TOL

    def test_weakly_repelling_fixed_point_is_seed(self):
        # z^2 + c with c = z0 - z0^2 fixes z0, whose multiplier 2*z0 = 1 + 1e-6
        z0 = (1 + 1e-6) / 2
        m = RationalMap(p=[1, 0, z0 - z0 * z0], q=[1])
        seed = m.repelling_fixed_point()
        assert abs(seed - z0) < 1e-9
        assert abs(m.derivative(seed) - (1 + 1e-6)) < 1e-9


def reference_preimages(g, w):
    """The per-point solve: ``np.roots`` of p - w q after stripping leading
    coefficients below 1e-13 of the largest, greedy clustering of the roots
    at the map's ``root_cluster_tol`` with each cluster at the mean of its
    roots, and the missing degree at infinity."""
    p = np.concatenate([np.zeros(g.degree + 1 - g.p.size, dtype=complex), g.p])
    q = np.concatenate([np.zeros(g.degree + 1 - g.q.size, dtype=complex), g.q])
    c = p - complex(w) * q
    keep = np.flatnonzero(np.abs(c) > 1e-13 * np.abs(c).max())
    roots = np.roots(c[keep[0]:])
    groups: list[list[complex]] = []
    for z in roots:
        for grp in groups:
            if abs(z - grp[0]) <= g.root_cluster_tol * max(1.0, abs(grp[0])):
                grp.append(complex(z))
                break
        else:
            groups.append([complex(z)])
    pts = [sum(grp[1:], grp[0]) / len(grp) for grp in groups]
    mult = [len(grp) for grp in groups]
    missing = g.degree - sum(mult)
    if missing:
        g_inf = g.eval(np.array([np.inf + 0j]))[0]
        if np.isfinite(g_inf) and abs(g_inf - complex(w)) > 1e-6:
            raise RootFindFailure("g(inf) does not match")
        pts.append(complex(np.inf))
        mult.append(missing)
    return np.array(pts, dtype=complex), np.array(mult, dtype=np.int64)


FIXED_POINT_MAPS = [
    "z^2-1", "z^2-3", "z^2", "z^2-2", "z^2+i", "z^2-0.75", "z^2+0.25", "(z^2+1)/(z^2-1)",
    "z^3-0.5*z+0.3", "z+(z-0.5-0.3*i)^3", "(z-0.5)^3+0.5+0.3*i", "1/z^2", "z^2/(2*z+1)",
]


@pytest.mark.parametrize("text", FIXED_POINT_MAPS)
def test_fixed_points_share_the_batched_root_solve(text):
    """``fixed_points`` solves g(z) = z with ``_root_rows``, whose roots are
    those of ``np.roots`` after the 1e-13 leading strip, bit for bit."""
    g = RationalMap.parse(text)
    p = np.concatenate([np.zeros(g.degree + 1 - g.p.size, dtype=complex), g.p])
    q = np.concatenate([np.zeros(g.degree + 1 - g.q.size, dtype=complex), g.q])
    c = np.polysub(p, np.polymul(q, np.array([1.0, 0.0], dtype=complex)))
    keep = np.flatnonzero(np.abs(c) > 1e-13 * np.abs(c).max())
    want = np.roots(c[keep[0]:]).astype(complex)
    roots, count = _root_rows(c[None, :])
    assert count.tolist() == [want.size]
    assert roots[0, :want.size].tobytes() == want.tobytes()
    pts, mult = _cluster_roots(want[None, :], count, g.root_cluster_tol)
    fps = g.fixed_points()
    assert [z for z, _ in fps] == [complex(z) for z in pts[0][mult[0] > 0]]
    assert [m for _, m in fps] == [g.derivative(z) for z, _ in fps]


class TestPreimagesBatched:
    """The batched solver against the per-point solve, row by row, bit for bit."""

    @staticmethod
    def assert_rows_match(g, targets):
        pts, mult = g.preimages(np.asarray(targets, dtype=complex))
        assert pts.shape == mult.shape == (len(targets), g.degree)
        for b, w in enumerate(targets):
            ref_pts, ref_mult = reference_preimages(g, w)
            used = mult[b] > 0
            assert mult[b][used].tolist() == ref_mult.tolist()
            assert pts[b][used].tobytes() == ref_pts.tobytes()
            assert used.tolist() == [True] * ref_mult.size + [False] * (g.degree - ref_mult.size)
            assert np.isnan(pts[b][~used]).all()
            scalar_pts, scalar_mult = g.preimages(complex(w))
            assert scalar_pts.tobytes() == ref_pts.tobytes()
            assert scalar_mult.tolist() == ref_mult.tolist()

    @pytest.mark.parametrize("text", ["z^2-1", "z^2+i", "z^3-0.5*z+0.3", "(z^2+1)/(z^2-1)"])
    def test_generic_targets(self, text):
        rng = np.random.default_rng(7)
        targets = rng.normal(size=25) + 1j * rng.normal(size=25)
        self.assert_rows_match(RationalMap.parse(text), targets)

    def test_double_roots_among_simple_rows(self, cheb):
        # -2 is the Chebyshev critical value: the double root 0, multiplicity 2
        self.assert_rows_match(cheb, [0.3 + 0.1j, -2.0, 1.7, -2.0 + 1e-3j])
        pts, mult = cheb.preimages(np.array([0.3 + 0.1j, -2.0 + 0j]))
        assert mult[1].tolist() == [2, 0] and pts[1, 0] == 0
        # a split double root, merged at ROOT_CLUSTER_TOL: z^2 + z + 0.3 = 0.05
        g = RationalMap.parse("z^2+z+0.3")
        self.assert_rows_match(g, [0.05, 1 + 1j])
        assert g.preimages(np.array([0.05 + 0j]))[1][0].tolist() == [2, 0]

    def test_leading_cancellation_root_at_infinity(self):
        g = RationalMap.parse("(z^2+1)/(z^2-1)")  # g(inf) = 1
        self.assert_rows_match(g, [0.5j, 1.0, 2.0])
        pts, mult = g.preimages(np.array([1.0 + 0j]))
        assert mult.tolist() == [[2, 0]] and np.isinf(pts[0, 0])
        # a leading coefficient below 1e-13 of the largest, with g(inf) = 1e-5 != 0
        stray = RationalMap(p=[1e-5, 0, 1e9], q=[1, 0, 1])
        with pytest.raises(RootFindFailure):
            reference_preimages(stray, 0.0)
        with pytest.raises(RootFindFailure):
            stray.preimages(np.array([1.0, 0.0, 2.0], dtype=complex))

    def test_trailing_zero_at_w_equal_c(self):
        # z^2 + i = i has the double root 0; z^3 - z/2 + 0.3 = 0.3 has the simple root 0
        self.assert_rows_match(RationalMap.parse("z^2+i"), [1j, 0.2 - 1j])
        self.assert_rows_match(RationalMap.parse("z^3-0.5*z+0.3"), [0.3, 1.1j, 0.3, -2.0])

    def test_cluster_roots_rules(self):
        # a cluster of one is its root divided by 1, as the per-point solve has
        # it, so signed zeros survive
        roots = np.array([[complex(-0.0, -1.0), complex(2.0, -0.0), 3.0, 3.0 + 1e-9j]])
        pts, mult = _cluster_roots(roots, np.array([4]), ROOT_CLUSTER_TOL)
        ref = [complex(roots[0, 0]) / 1, complex(roots[0, 1]) / 1,
               (complex(roots[0, 2]) + complex(roots[0, 3])) / 2]
        assert mult.tolist() == [[1, 1, 2, 0]]
        assert pts[0, :3].tobytes() == np.array(ref).tobytes()
        # a root within reach of two clusters joins the first one opened
        tol = ROOT_CLUSTER_TOL
        pts, mult = _cluster_roots(np.array([[0.0, 1.5 * tol, 0.8 * tol]], dtype=complex),
                                   np.array([3]), tol)
        assert mult.tolist() == [[2, 1, 0]]
        assert pts[0, 0] == 0.4 * tol

    def test_empty_batch(self, zsq):
        pts, mult = zsq.preimages(np.empty(0, dtype=complex))
        assert pts.shape == mult.shape == (0, 2)

    @pytest.mark.parametrize("text, digest", [
        ("z^2-1", "4bab97a50ba6bb5136cb079bf164099b73210fda1fa82f919d9bb2651dda44d9"),
        ("z^2-3", "da1842de3e4f5025a527c693e8e8bd88fb1eba2ba53b8ca6f77921d0d8a939b2"),
        ("z^2+i", "2b6ae745e0a145c0ea9cea738a6c7c60661361f83893a64afdbc080f504f10eb"),
    ])
    def test_sample_golden(self, text, digest):
        """SHA-256 of the depth-10 sample points, pinned from the per-point solve."""
        z = julia_sample(RationalMap.parse(text), 10).z
        assert hashlib.sha256(z.tobytes()).hexdigest() == digest


class TestJuliaSample:
    def test_circle(self, zsq_sample):
        assert zsq_sample.n == 256
        assert np.max(np.abs(np.abs(zsq_sample.z) - 1.0)) < 1e-9

    def test_chebyshev_segment(self, cheb):
        s = julia_sample(cheb, 9)
        assert np.max(np.abs(s.z.imag)) < 1e-7
        assert s.z.real.min() >= -2 - 1e-9
        assert s.z.real.max() <= 2 + 1e-9
        assert s.n == 257

    def test_depth_zero_is_seed(self, zsq):
        s = julia_sample(zsq, 0)
        assert s.n == 1
        assert s.z[0] == pytest.approx(1.0)

    def test_forward_invariance(self, zsq_sample):
        g = zsq_sample.self_map
        assert zsq_sample.projection_error <= 2 * zsq_sample.mesh

    def test_space_is_metric(self, zsq_sample):
        assert validate_metric(zsq_sample.space) is None

    def test_geometry_computed_once(self, monkeypatch):
        """One distance matrix and one evaluation of g on the sample per
        pipeline run, and the sample hands out its cached values read-only."""
        import qvista.julia as julia

        dist_calls, eval_shapes = [], []
        dist, evaluate = julia.spherical_dist_matrix, RationalMap.eval
        monkeypatch.setattr(julia, "spherical_dist_matrix",
                            lambda v: dist_calls.append(len(v)) or dist(v))
        monkeypatch.setattr(RationalMap, "eval",
                            lambda g, z: eval_shapes.append(np.shape(z)) or evaluate(g, z))
        g = RationalMap.parse("z^2")
        sample = julia_sample(g, 7)
        pull = pullback_cover(admissible_cover(g, sample, np.pi / 8, grid=SphereGrid(K=64)), 3)
        cover = induce_tiles(pull)
        verify_dynamical_qv(pull, cover)
        assert dist_calls == [sample.n]
        assert eval_shapes.count((sample.n,)) == 1
        assert cover.space is sample.space
        assert isinstance(sample.projection_error, float)
        with pytest.raises(ValueError):
            sample.self_map[0] = 0
        with pytest.raises(ValueError):
            sample.space.dist[0, 1] = 0.0

    def test_target_count_prune(self, zsq):
        s = julia_sample(zsq, 8, target_count=100)
        assert s.n == 100


class TestCovers:
    def test_admissible_region_count(self, zsq_pull):
        v1 = zsq_pull.families[0]
        assert 8 <= len(v1) <= 16
        assert all(r.sample_points for r in v1)

    @pytest.mark.parametrize("radius", [np.pi, np.pi + 0.1], ids=["pi", "pi+0.1"])
    def test_full_sphere_radius_is_rejected(self, zsq, zsq_sample, radius):
        """A ball of radius pi holds all of the sphere but one point: never a cover to pull back."""
        with pytest.raises(ValueError, match="below pi"):
            admissible_cover(zsq, zsq_sample, radius, grid=SphereGrid(K=256))

    def test_pullback_counts_double(self, zsq_pull):
        counts = [len(f) for f in zsq_pull.families]
        for a, b in zip(counts, counts[1:]):
            assert b == 2 * a

    def test_angular_width_halves(self, zsq_pull):
        grid = zsq_pull.grid
        for lev, fam in enumerate(zsq_pull.families, start=1):
            widths = [r.diam(grid) for r in fam]
            expected = 2 * (np.pi / 8) / 2 ** (lev - 1)
            assert np.median(widths) == pytest.approx(expected, rel=0.35)

    def test_dynamical_region_inclusion(self, zsq, zsq_pull):
        # marked cells map into the parent region by construction
        grid = zsq_pull.grid
        img = zsq.image_cells(grid)
        for fam, parents in zip(zsq_pull.families[1:], zsq_pull.families[:-1]):
            for r in fam[:4]:
                target = parents[r.parent].cells
                mapped = img[r.cells]
                inside = np.isin(mapped, target)
                assert inside.all()

    def test_induced_cover_verifies(self, zsq_pull):
        cover = induce_tiles(zsq_pull)
        assert cover.width == 1
        assert len(cover.levels) == zsq_pull.n_levels + 1
        out = verify_dynamical_qv(zsq_pull, cover)
        assert out["passed"]
        assert out["dynamical"].shift_ok
        assert out["dynamical"].proximity_ok


def oracle_tiles(pull) -> list[list[tuple[int, ...]]]:
    """Tiles parent by parent: each parent's candidates (points whose
    projected image lies in it) split by flood fill over links of length at
    most 3 times the larger nearest-neighbour distance, groups ordered by
    their lowest point; one-point groups dropped where a group of several
    points holds their point, and each distinct group kept once."""
    sample = pull.sample
    d, g = sample.space.dist, sample.self_map
    nn = np.sort(d, axis=1)[:, 1]
    levels = [[tuple(range(sample.n))]]
    tiles: list[list[int]] = []
    for fam in pull.families:
        if fam[0].level == 1:
            tiles = [sorted(r.sample_points) for r in fam]
        else:
            split = []
            for parent in tiles:
                members = set(parent)
                unseen = [x for x in range(sample.n) if g[x] in members]
                while unseen:
                    group, stack = [], [unseen.pop(0)]
                    while stack:
                        y = stack.pop()
                        group.append(y)
                        linked = [z for z in unseen if d[y, z] <= 3 * max(nn[y], nn[z])]
                        unseen = [z for z in unseen if z not in linked]
                        stack.extend(linked)
                    split.append(sorted(group))
            multi = {x for t in split if len(t) > 1 for x in t}
            tiles = list(dict.fromkeys(tuple(t) for t in split if len(t) > 1 or t[0] not in multi))
        assert set().union(*tiles) == set(range(sample.n))
        levels.append([tuple(t) for t in tiles])
    return levels


class TestInduceTiles:
    @pytest.mark.parametrize("text", ["z^2-1", "z^2-3"])
    def test_matches_per_parent_oracle(self, text):
        g = RationalMap.parse(text)
        pull = pullback_cover(admissible_cover(g, julia_sample(g, 8), 0.25, grid=SphereGrid(K=256)), 3)
        cover = induce_tiles(pull)
        got = [[t.sorted_members() for t in level] for level in cover.levels]
        assert got == oracle_tiles(pull)

    def test_each_point_set_once_per_level(self):
        # overlapping parents of z^2-3 at depth 11 share children, which came
        # out once per parent: 260, 520, 1040 and 2080 tiles at levels 2-5
        g = RationalMap.parse("z^2-3")
        pull = pullback_cover(admissible_cover(g, julia_sample(g, 11), 0.25, grid=SphereGrid(K=256)), 5)
        tiles = [[t.sorted_members() for t in level] for level in induce_tiles(pull).levels]
        assert [len(level) for level in tiles] == [1, 6, 256, 512, 1024, 2048]
        assert all(len(set(level)) == len(level) for level in tiles)

    def test_one_solve_per_generation_one_labelling_per_level(self, monkeypatch):
        import qvista.julia as julia

        solves, labellings = [], []
        eigvals, components = np.linalg.eigvals, julia.connected_components
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: solves.append(a.shape) or eigvals(a))
        g = RationalMap.parse("z^2-1")
        sample = julia_sample(g, 10)
        assert sample.n == 1024
        # the seed's fixed points take one solve (z^2 - z - 1), then each of
        # the 10 generations at most one
        assert solves[0] == (1, 2, 2)
        assert 1 <= len(solves[1:]) <= 10
        pull = pullback_cover(admissible_cover(g, julia_sample(g, 8), 0.25, grid=SphereGrid(K=256)), 3)
        monkeypatch.setattr(julia, "connected_components",
                            lambda *a, **k: labellings.append(1) or components(*a, **k))
        cover = induce_tiles(pull)
        assert len(labellings) <= cover.depth


class TestProbes:
    def test_zsq_all_degree_one(self, zsq):
        for theta in (0.3, 1.1, 2.0):
            degs = degree_probe(zsq, np.exp(1j * theta), 0.12, 5)
            assert degs == [1, 1, 1, 1, 1]

    def test_cheb_uniform_bound_two(self, cheb):
        degs = degree_probe(cheb, 2.0 + 0j, 0.15, 6)
        assert max(degs) == 2
        assert all(d <= 2 for d in degs)

    def test_full_sphere_degree(self, zsq):
        degs = degree_probe(zsq, 1.0 + 0j, np.pi, 3)
        assert degs == [2, 4, 8]

    def test_budget(self, zsq):
        with pytest.raises(ValueError):
            degree_probe(zsq, 1.0 + 0j, 0.1, 13)


def test_grid_and_level_counts_must_be_positive(zsq, zsq_sample):
    for K in (0, -4):
        with pytest.raises(ValueError, match="grid size"):
            SphereGrid(K=K)
    pull = admissible_cover(zsq, zsq_sample, np.pi / 8, grid=SphereGrid(K=64))
    with pytest.raises(ValueError, match="n_levels"):
        pullback_cover(pull, 0)


def test_import_leaves_sympy_unloaded():
    """Only RationalMap.parse needs sympy, so importing the module must not
    pay for it."""
    code = "import sys, qvista.julia; print('sympy' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
