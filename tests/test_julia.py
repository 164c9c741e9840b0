import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qvista.errors import ResolutionInsufficient, SeedNotRepelling
from qvista.julia import (
    RationalMap,
    admissible_cover,
    degree_probe,
    distortion_probe,
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

    def test_weakly_repelling_fixed_point_is_seed(self):
        # z^2 + c with c = z0 - z0^2 fixes z0, whose multiplier 2*z0 = 1 + 1e-6
        z0 = (1 + 1e-6) / 2
        m = RationalMap(p=[1, 0, z0 - z0 * z0], q=[1])
        seed = m.repelling_fixed_point()
        assert abs(seed - z0) < 1e-9
        assert abs(m.derivative(seed) - (1 + 1e-6)) < 1e-9


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
        g = zsq_sample.self_map_indices()
        assert zsq_sample.projection_error() <= 2 * zsq_sample.mesh

    def test_space_is_metric(self, zsq_sample):
        assert validate_metric(zsq_sample.space()).ok

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
        assert cover.space is sample.space()
        assert sample.self_map_indices() is sample.self_map_indices()
        assert isinstance(sample.projection_error(), float)
        with pytest.raises(ValueError):
            sample.self_map_indices()[0] = 0
        with pytest.raises(ValueError):
            sample.space().dist[0, 1] = 0.0

    def test_target_count_prune(self, zsq):
        s = julia_sample(zsq, 8, target_count=100)
        assert s.n == 100


class TestCovers:
    def test_admissible_region_count(self, zsq_pull):
        v1 = zsq_pull.families[0]
        assert 8 <= len(v1) <= 16
        assert all(r.sample_points for r in v1)

    def test_full_sphere_radius_single_region(self, zsq, zsq_sample):
        pull = admissible_cover(zsq, zsq_sample, np.pi + 0.1, grid=SphereGrid(K=256))
        assert len(pull.families[0]) == 1

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

    def test_thin_component_guard(self, zsq, zsq_sample):
        pull = admissible_cover(zsq, zsq_sample, np.pi / 8, grid=SphereGrid(K=512))
        with pytest.raises(ResolutionInsufficient):
            pullback_cover(pull, 4, min_cells=10_000)


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

    def test_distortion_envelope_monotone(self, zsq, zsq_sample):
        out = distortion_probe(zsq, zsq_sample, n_configs=4, n_level=2, r0=0.3,
                               grid=SphereGrid(K=512))
        assert out["monotone"]
        assert out["rows"]


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
