import hashlib
import json

import numpy as np
import pytest

from qvista.julia import RationalMap, admissible_cover, julia_sample, pullback_cover
from qvista.sphere import sphere_from_complex, spherical_dist_matrix
from qvista.spheregrid import SphereGrid


def length_element_integral(z0: complex, z1: complex, steps: int = 200_000) -> float:
    """Quadrature of 2|dz|/(1+|z|^2) along the straight segment."""
    t = (np.arange(steps) + 0.5) / steps
    z = z0 + t * (z1 - z0)
    return float(np.sum(2.0 * abs(z1 - z0) / steps / (1.0 + np.abs(z) ** 2)))


def spherical_distance(z, w) -> float:
    """Great-circle distance between two chart points (None is infinity)."""
    return float(spherical_dist_matrix([sphere_from_complex(z), sphere_from_complex(w)])[0, 1])


def test_same_point_zero():
    z = 0.3 + 0.4j
    assert spherical_distance(z, z) == 0.0


def test_antipodal():
    assert spherical_distance(0, None) == pytest.approx(np.pi)  # None: the point at infinity


def test_zero_to_one_quarter_circle():
    d = spherical_distance(0, 1)
    assert d == pytest.approx(2 * np.arctan(1.0), abs=1e-12)
    # straight chart segment [0,1] happens to be a geodesic here
    assert d == pytest.approx(length_element_integral(0, 1), abs=1e-9)


def test_chart_round_trip():
    for z in (0, 1, -2 + 3j, 0.001j, 57.0):
        v = sphere_from_complex(z)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        back = complex(v[0], v[1]) / (1.0 - v[2])  # the inverse chart map
        assert back == pytest.approx(complex(z), abs=1e-9)
    assert np.array_equal(sphere_from_complex(None), [0.0, 0.0, 1.0])


def test_metric_axioms_random_sample():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(100, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    d = spherical_dist_matrix(v)
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0)
    assert np.all(d[~np.eye(100, dtype=bool)] > 0)
    assert np.all(d <= np.pi + 1e-12)
    for k in range(100):
        assert np.all(d <= d[:, k][:, None] + d[k, :][None, :] + 1e-12)


def one_shot_dist_matrix(vecs):
    """``spherical_dist_matrix`` as it was written before row blocks."""
    dot = np.clip(vecs @ vecs.T, -1.0, 1.0)
    cross = np.sqrt(np.maximum(0.0, 1.0 - dot * dot))
    d = np.arctan2(cross, dot)
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 500, 1025])
def test_dist_matrix_row_blocks_match_one_shot(n):
    """Bit for bit, around the block edges, and exactly symmetric; at n = 500
    a row block of a general BLAS product differs from the whole product in
    the last bit of some entries, so the blocks must not make their own."""
    rng = np.random.default_rng(n)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    d = spherical_dist_matrix(v)
    assert d.tobytes() == one_shot_dist_matrix(v).tobytes()
    assert np.array_equal(d, d.T)


def test_sphere_grid_equality_is_identity():
    a, b = SphereGrid(K=32), SphereGrid(K=32)
    a.twin_flat(), b.twin_flat()  # array-valued state, which a field-wise == cannot compare
    assert a == a and a != b


def test_components_stitch_seam_and_order():
    grid = SphereGrid(K=128)
    half = grid.K * grid.K
    # a ball on the seam |z| = 1 is rasterized in both charts
    seam = grid.raster_spherical_ball(sphere_from_complex(1.0), 0.3)
    blob = grid.raster_spherical_ball(sphere_from_complex(-0.2j), 0.15)
    assert (seam < half).any() and (seam >= half).any()
    assert (blob < half).all()
    cells = np.concatenate([blob, seam])
    comps = grid.components(cells)
    assert len(comps) == 2
    for c in comps:
        assert np.all(np.diff(c) > 0)
    assert comps[0][0] < comps[1][0]
    assert np.array_equal(np.sort(np.concatenate(comps)), np.unique(cells))
    assert any(np.array_equal(c, np.unique(seam)) for c in comps)


# sha256 per level of [[parent, cells, sample_points], ...] for the z^2-1
# pull-back families below (26 / 51 / 98 regions of live cells only); any
# change to components or their order shows here
BASILICA_FAMILY_DIGESTS = [
    "7037045f2650f420c0c342c0ac6bb7c93f770c6ac8bcd95444f4bdd49d07f6f5",
    "badb2098c8e16cfcae58c2ffda2a8db217a1b92d9dcf6d518f28755aec80fca4",
    "8bbacb3140d6a13782d8c64b84291a804b285916f403f611e84e99a769465234",
]


def test_basilica_pullback_families_golden():
    g = RationalMap.parse("z^2-1")
    pull = admissible_cover(g, julia_sample(g, 8), 0.25, grid=SphereGrid(K=256))
    pull = pullback_cover(pull, 3)
    digests = []
    for fam in pull.families:
        rows = [[r.parent, r.cells.tolist(), list(r.sample_points)] for r in fam]
        digests.append(hashlib.sha256(json.dumps(rows).encode()).hexdigest())
    assert digests == BASILICA_FAMILY_DIGESTS


# the same digests for z^2-3 at the julia-cantor smoke size: depth 8, K = 128,
# 3 levels, with 6 / 9 / 10 regions
CANTOR_FAMILY_DIGESTS = [
    "7cde4fc082be61d0fb0ebccbb2c1f460199b8daab32568194a21a56d424186a0",
    "5c66b8000c347cf704b01291c560f0fc9cdb11cd4d74bbe3f4d32de2ffb5cb4d",
    "dda28d71b4095168c7495d50f604bdf77aef120e7035817f8486ce4b980a5e17",
]


def test_cantor_pullback_families_golden():
    g = RationalMap.parse("z^2-3")
    pull = admissible_cover(g, julia_sample(g, 8), 0.25, grid=SphereGrid(K=128))
    pull = pullback_cover(pull, 3)
    digests = []
    for fam in pull.families:
        rows = [[r.parent, r.cells.tolist(), list(r.sample_points)] for r in fam]
        digests.append(hashlib.sha256(json.dumps(rows).encode()).hexdigest())
    assert digests == CANTOR_FAMILY_DIGESTS
