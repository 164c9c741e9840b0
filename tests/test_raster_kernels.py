"""The sort-free raster kernels against the sorting implementations they replace."""

import numpy as np
import pytest
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from qvista.julia import RationalMap, admissible_cover, julia_sample, pullback_cover
from qvista.metricspace import greedy_separated_subset
from qvista.sphere import sphere_from_complex
from qvista.spheregrid import EIGHT, FILL_BLOCK, MAX_K, SphereGrid, group_by_label, inverse_image


def components_oracle(grid, cells):
    """Components by np.unique and a binary search for each twin."""
    cells = np.unique(np.asarray(cells, dtype=np.int64))
    if cells.size == 0:
        return []
    half = grid.K * grid.K
    labels = np.full(cells.shape, -1, dtype=np.int64)
    next_label = 0
    chart_of = cells // half
    for chart in (0, 1):
        sel = np.flatnonzero(chart_of == chart)
        if not sel.size:
            continue
        iy, ix = np.divmod(cells[sel] - chart * half, grid.K)
        lo_y, lo_x = iy.min(), ix.min()
        mask = np.zeros((iy.max() + 1 - lo_y, ix.max() + 1 - lo_x), dtype=bool)
        mask[iy - lo_y, ix - lo_x] = True
        lab, n_lab = ndimage.label(mask, structure=EIGHT)
        labels[sel] = lab[iy - lo_y, ix - lo_x] - 1 + next_label
        next_label += n_lab
    twin = grid.twin_flat()[cells]
    src = np.flatnonzero(twin >= 0)
    pos = np.minimum(np.searchsorted(cells, twin[src]), cells.size - 1)
    match = cells[pos] == twin[src]
    edges = csr_matrix(
        (np.ones(int(match.sum()), dtype=bool), (labels[src[match]], labels[pos[match]])),
        shape=(next_label, next_label),
    )
    _n, comp = connected_components(edges, directed=False)
    return group_by_label(cells, comp[labels])


def assert_same_components(grid, cells):
    got = grid.components(cells)
    want = components_oracle(grid, cells)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.int32
        assert np.array_equal(g, w)
    return got


def random_ball_cells(rng, grid, n_balls):
    vecs = rng.normal(size=(n_balls, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return [grid.raster_spherical_ball(v, rng.uniform(0.02, 0.4)) for v in vecs]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("K", [64, 37])
def test_components_random_unsorted_with_repeats(seed, K):
    rng = np.random.default_rng(seed)
    grid = SphereGrid(K=K)
    balls = random_ball_cells(rng, grid, 4)
    noise = rng.integers(0, grid.n_cells, size=200)
    cells = np.concatenate(balls + [noise, noise[:50], balls[0][::3]])
    rng.shuffle(cells)
    assert_same_components(grid, cells)


def test_components_across_the_seam():
    grid = SphereGrid(K=96)
    half = grid.K * grid.K
    seam = grid.raster_spherical_ball(sphere_from_complex(1.0), 0.3)
    assert (seam < half).any() and (seam >= half).any()
    comps = assert_same_components(grid, seam[::-1])
    assert len(comps) == 1


def test_components_do_not_wrap_rows():
    grid = SphereGrid(K=32)
    # (iy, K-1) and (iy+1, 0) have consecutive flat ids but are far apart
    cells = np.array([5 * grid.K + grid.K - 1, 6 * grid.K, 6 * grid.K + 1, 7 * grid.K - 1])
    comps = assert_same_components(grid, cells)
    assert [c.tolist() for c in comps] == [[5 * grid.K + grid.K - 1, 7 * grid.K - 1],
                                          [6 * grid.K, 6 * grid.K + 1]]


@pytest.mark.parametrize("K", [64, 37])
def test_components_b_origin_cell(K):
    grid = SphereGrid(K=K)
    origin = int(grid.canonical_flat(np.array([np.inf + 0j]))[0])
    assert origin >= grid.K * grid.K
    assert grid.twin_flat()[origin] == -1
    assert [c.tolist() for c in assert_same_components(grid, [origin])] == [[origin]]
    near = np.array([origin, origin + 1, origin - grid.K, 0, grid.K * grid.K - 1])
    assert_same_components(grid, near)


def test_components_single_cell_and_empty():
    grid = SphereGrid(K=16)
    for cell in (0, 15, 16 * 16 - 1, 16 * 16, 2 * 16 * 16 - 1):
        assert [c.tolist() for c in assert_same_components(grid, np.array([cell]))] == [[cell]]
    assert grid.components(np.empty(0, dtype=np.int64)) == []


@pytest.mark.parametrize("K", [48, 101])
def test_raster_ball_is_strictly_ascending(K):
    rng = np.random.default_rng(K)
    grid = SphereGrid(K=K)
    vecs = rng.normal(size=(30, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    vecs[:2] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]  # both poles
    for v in vecs:
        cells = grid.raster_spherical_ball(v, rng.uniform(0.01, 1.5))
        assert cells.dtype == np.int32
        assert np.all(np.diff(cells) > 0)


def raster_ball_oracle(grid, v, radius):
    """Every cell of both charts whose center lies in the open ball, by a
    scan of the whole chart."""
    xs = grid.axis_centers()
    cc = xs[None, :] + 1j * xs[:, None]
    s = np.abs(cc) ** 2
    a = (2 * cc.real * v[0] + 2 * cc.imag * v[1] + (s - 1) * v[2]) / (s + 1)
    b = (2 * cc.real * v[0] - 2 * cc.imag * v[1] + (1 - s) * v[2]) / (s + 1)
    dots = np.concatenate([a.ravel(), b.ravel()])
    return np.flatnonzero(np.arccos(np.clip(dots, -1, 1)) < radius)


@pytest.mark.parametrize("K", [37, 64])
def test_raster_ball_matches_full_chart_scan(K):
    rng = np.random.default_rng(K)
    grid = SphereGrid(K=K)
    vecs = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]  # both poles
    vecs += [sphere_from_complex(np.exp(1j * t)) for t in (0.0, 0.4, np.pi / 2, 2.0)]  # |z| = 1
    vecs += [sphere_from_complex(z) for z in (0.05, 0.3j, 6.0, -20.0 + 3j)]  # near a pole
    rand = rng.normal(size=(12, 3))
    vecs += list(rand / np.linalg.norm(rand, axis=1, keepdims=True))
    for v in vecs:
        # small caps, caps reaching across a pole, and caps up to radius 2.5
        for radius in (0.01, 0.1, 0.3, 0.8, 1.2, 1.6, 2.0, 2.5, *rng.uniform(0.01, 2.5, 3)):
            got = grid.raster_spherical_ball(v, radius)
            assert np.array_equal(got, raster_ball_oracle(grid, v, radius)), (v, radius)


# K = 200 gives 80000 cells: more than one block, and not a whole number of them
BLOCKED_K = 200


def twin_oracle(grid):
    """The twin table in one unblocked int64 pass over every cell."""
    flat = np.arange(grid.n_cells, dtype=np.int64)
    chart, c = grid.chart_coord(flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.where(c == 0, np.nan, c)
    ok = np.isfinite(inv) & (np.abs(inv.real) <= grid.H) & (np.abs(inv.imag) <= grid.H)
    w = np.where(ok, inv, 0)
    ix = np.floor((w.real + grid.H) / grid.step).astype(np.int64)
    iy = np.floor((w.imag + grid.H) / grid.step).astype(np.int64)
    twin = np.where(chart == 0, grid.K * grid.K, 0) + iy * grid.K + ix
    return np.where(ok, twin, -1).astype(np.int64)


def image_oracle(g, grid):
    """The image table in one unblocked int64 pass over every cell."""
    flat = np.arange(grid.n_cells, dtype=np.int64)
    return grid.canonical_flat(g.eval(grid.cell_centers_z(flat))).astype(np.int64)


def test_blocked_twin_matches_unblocked():
    grid = SphereGrid(K=BLOCKED_K)
    assert grid.n_cells > FILL_BLOCK and grid.n_cells % FILL_BLOCK != 0
    want = twin_oracle(grid)
    got = grid.twin_flat()
    assert got.dtype == np.int32
    assert np.array_equal(got, want)


@pytest.mark.parametrize("text", ["z^2-1", "(z^2+1)/(z^2-1)"])
def test_blocked_image_cells_matches_unblocked(text):
    g = RationalMap.parse(text)
    grid = SphereGrid(K=BLOCKED_K)
    want = image_oracle(g, grid)
    got = g.image_cells(grid)
    assert got.dtype == np.int32
    assert np.array_equal(got, want)
    assert g.image_cells(grid) is got  # cached under (K, H)


def test_raster_ids_are_int32_end_to_end():
    """Every raster table and cell set is int32 and equals its int64 reference."""
    g = RationalMap.parse("z^2-1")
    grid = SphereGrid(K=64)
    img, want_img = g.image_cells(grid), image_oracle(g, grid)
    twin = grid.twin_flat()
    seam = sphere_from_complex(1.0)  # a ball across the chart seam
    ball = grid.raster_spherical_ball(seam, 0.3)
    comps = grid.components(ball[::-1])
    gathered = inverse_image(img)(ball)
    for got in (img, twin, ball, *comps, gathered):
        assert got.dtype == np.int32
    assert np.array_equal(img, want_img)
    assert np.array_equal(twin, twin_oracle(grid))
    assert np.array_equal(ball, raster_ball_oracle(grid, seam, 0.3))
    want_comps = components_oracle(grid, ball)
    assert len(comps) == len(want_comps)
    assert all(np.array_equal(c, w) for c, w in zip(comps, want_comps))
    assert np.array_equal(np.sort(gathered), np.flatnonzero(np.isin(want_img, ball)))

    sample = julia_sample(g, 6)
    pull = pullback_cover(admissible_cover(g, sample, 0.25, grid=grid), 3)
    centers = greedy_separated_subset(sample.space.dist, range(sample.n), 0.25)
    for r, c in zip(pull.families[0], centers, strict=True):
        assert r.cells.dtype == np.int32
        assert np.array_equal(r.cells, raster_ball_oracle(grid, sample.vecs[c], 0.25))
    for parents, fam in zip(pull.families, pull.families[1:]):
        for r in fam:
            assert r.cells.dtype == np.int32
            pre = np.flatnonzero(np.isin(want_img, parents[r.parent].cells))
            assert any(np.array_equal(r.cells, c) for c in components_oracle(grid, pre))


def test_grid_size_is_limited_to_int32_ids():
    assert MAX_K == 32767
    grid = SphereGrid(K=MAX_K)  # builds no table until one is asked for
    assert grid.n_cells < 2**31 <= 2 * (MAX_K + 1) ** 2
    with pytest.raises(ValueError, match="at most 32767"):
        SphereGrid(K=MAX_K + 1)
