"""The raster kernels against the implementations they replace."""

import tracemalloc

import numpy as np
import pytest
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from qvista.covers import group_by_label
from qvista.julia import RationalMap, admissible_cover, julia_sample, pullback_cover
from qvista.metricspace import greedy_separated_subset
from qvista.sphere import sphere_from_complex
from qvista.spheregrid import FILL_BLOCK, MAX_K, SphereGrid, inverse_image

EIGHT = np.ones((3, 3), dtype=int)  # 8-connectivity for ndimage.label


def components_oracle(grid, cells):
    """Components by an 8-connected ndimage.label of each chart's bounding
    box, stitched by a binary search for each twin."""
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


@pytest.mark.parametrize("K", [16, 37])
def test_components_do_not_cross_from_chart_a_to_b(K):
    """Chart A's last row and chart B's first row have consecutive flat rows
    but are far apart on the sphere: only a twin joins cells of two charts.
    Those rows lie off the live band, so the grid is given the twin table of
    every cell."""
    grid = SphereGrid(K=K)
    half = K * K
    grid._twin = twin_oracle(grid, band=False).astype(np.int32)
    twin = grid.twin_flat()
    for x in (0, K // 2, K - 1):
        a, b = half - K + x, half + x
        assert twin[a] != b and twin[b] != a
        comps = assert_same_components(grid, [b, a])
        assert [c.tolist() for c in comps] == [[a], [b]]
        assert twin[a] > b
        comps = assert_same_components(grid, [a, b, twin[a]])
        assert [c.tolist() for c in comps] == [[a, twin[a]], [b]]


def test_components_join_runs_touching_at_a_corner():
    grid = SphereGrid(K=32)

    def run(y, xs):
        return [y * grid.K + x for x in xs]

    upper, right, apart = run(5, range(2, 5)), run(6, range(5, 8)), run(6, [0])
    anti_upper, anti_lower, anti_apart = run(10, [20]), run(11, [19]), run(11, [22])
    comps = assert_same_components(grid, upper + right + apart + anti_upper + anti_lower + anti_apart)
    assert [c.tolist() for c in comps] == [upper + right, apart, anti_upper + anti_lower, anti_apart]


@pytest.mark.parametrize("K", [64, 37])
def test_components_b_origin_cell(K):
    grid = SphereGrid(K=K)
    origin = int(grid.canonical_flat(np.array([np.inf + 0j]))[0])
    assert origin >= grid.K * grid.K
    assert grid.twin_flat()[origin] == -1
    assert [c.tolist() for c in assert_same_components(grid, [origin])] == [[origin]]
    near = np.array([origin, origin + 1, origin - grid.K, 0, grid.K * grid.K - 1])
    assert_same_components(grid, near)


def stacked_components_oracle(grid, layers):
    """Components of stacked copies of the grid, by ``components_oracle`` run
    on each layer's cells alone, as ids ``layer * n_cells + cell``."""
    return [c + layer * grid.n_cells for layer in sorted(layers)
            for c in components_oracle(grid, layers[layer])]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("K", [64, 37])
def test_stacked_components_match_each_layer_alone(seed, K):
    rng = np.random.default_rng(seed)
    grid = SphereGrid(K=K)
    n = grid.n_cells
    seam = grid.raster_spherical_ball(sphere_from_complex(1.0), 0.3)
    shared = np.concatenate([seam, *random_ball_cells(rng, grid, 3)])
    # chart B's last row, then chart A's first row one column over, in the
    # next layer: consecutive rows, but not neighbours.  Cell 0 has no twin,
    # and its id less one is the previous layer's last cell n - 1.
    last_row_b = np.arange(n - K, n)[::3]
    first_row_a = np.append(0, np.arange(1, K, 3))
    far = 2**31 // n + 1  # this layer's ids pass 2^31
    layers = {
        0: shared,
        1: shared,
        2: np.concatenate([rng.integers(0, n, size=100), last_row_b]),
        3: np.concatenate([first_row_a, shared[::2]]),
        far: np.concatenate([*random_ball_cells(rng, grid, 2), rng.integers(0, n, size=100)]),
        far + 1: shared,
    }
    assert n - 1 in last_row_b
    ids = np.concatenate([c.astype(np.int64) + layer * n for layer, c in layers.items()])
    assert ids.max() >= 2**31 and ids.size < 20 * n
    ids = np.concatenate([ids, ids[::4]])  # repeated cells
    rng.shuffle(ids)
    got = grid.components(ids)
    want = stacked_components_oracle(grid, layers)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)
    # the one-layer call still labels int32 cells
    assert all(c.dtype == np.int32 for c in grid.components(shared))


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


def live_oracle(grid):
    """Per flat id, whether the cell center lies within 1 + 2 step of its
    chart's origin, from the centers of every cell."""
    _chart, c = grid.chart_coord(np.arange(grid.n_cells, dtype=np.int64))
    return c.real ** 2 + c.imag ** 2 <= (1.0 + 2.0 * grid.step) ** 2


def raster_ball_oracle(grid, v, radius):
    """Every live cell of both charts whose center lies in the open ball, by
    a scan of the whole chart."""
    xs = grid.axis_centers()
    cc = xs[None, :] + 1j * xs[:, None]
    s = np.abs(cc) ** 2
    a = (2 * cc.real * v[0] + 2 * cc.imag * v[1] + (s - 1) * v[2]) / (s + 1)
    b = (2 * cc.real * v[0] - 2 * cc.imag * v[1] + (1 - s) * v[2]) / (s + 1)
    dots = np.concatenate([a.ravel(), b.ravel()])
    return np.flatnonzero((np.arccos(np.clip(dots, -1, 1)) < radius) & live_oracle(grid))


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


def twin_oracle(grid, band=True):
    """The twin table in one unblocked int64 pass over every cell; with
    ``band``, -1 off the live cells as ``twin_flat`` holds it."""
    flat = np.arange(grid.n_cells, dtype=np.int64)
    chart, c = grid.chart_coord(flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.where(c == 0, np.nan, c)
    ok = np.isfinite(inv) & (np.abs(inv.real) <= grid.H) & (np.abs(inv.imag) <= grid.H)
    w = np.where(ok, inv, 0)
    ix = np.floor((w.real + grid.H) / grid.step).astype(np.int64)
    iy = np.floor((w.imag + grid.H) / grid.step).astype(np.int64)
    twin = np.where(chart == 0, grid.K * grid.K, 0) + iy * grid.K + ix
    if band:
        ok &= live_oracle(grid)
    return np.where(ok, twin, -1).astype(np.int64)


def image_oracle(g, grid):
    """The image table in one unblocked int64 pass over every cell, -1 off
    the live cells."""
    flat = np.arange(grid.n_cells, dtype=np.int64)
    img = grid.canonical_flat(g.eval(grid.cell_centers_z(flat))).astype(np.int64)
    return np.where(live_oracle(grid), img, -1)


def test_blocked_twin_matches_unblocked():
    grid = SphereGrid(K=BLOCKED_K)
    assert grid.n_cells > FILL_BLOCK and grid.n_cells % FILL_BLOCK != 0
    want = twin_oracle(grid)
    got = grid.twin_flat()
    assert got.dtype == np.int32
    assert np.array_equal(got, want)


@pytest.mark.parametrize("K", [1, 2, 6, 37, 64, 101, 256, 512, 768])
def test_twin_table_from_chart_a_matches_oracle(K):
    """Chart B's half of the twin table, shifted from chart A's, is exact."""
    grid = SphereGrid(K=K)
    assert np.array_equal(grid.twin_flat(), twin_oracle(grid))


@pytest.mark.parametrize("text", ["z^2-1", "(z^2+1)/(z^2-1)"])
def test_blocked_image_cells_matches_unblocked(text):
    g = RationalMap.parse(text)
    grid = SphereGrid(K=BLOCKED_K)
    want = image_oracle(g, grid)
    got = g.image_cells(grid)
    assert got.dtype == np.int32
    assert np.array_equal(got, want)
    assert g.image_cells(grid) is got  # cached under (K, H)


@pytest.mark.parametrize("text", ["z^2-1", "(z^2+1)/(z^2-1)"])
def test_blocked_inverse_image_is_a_stable_argsort(text):
    """Over more than one block, the buckets of every cell in ascending order
    concatenate to the stable argsort of the image table's entries >= 0."""
    grid = SphereGrid(K=BLOCKED_K)
    img = RationalMap.parse(text).image_cells(grid)
    assert img.size > FILL_BLOCK and img.size % FILL_BLOCK != 0
    preimage = inverse_image(img)
    got = preimage(np.arange(grid.n_cells))
    assert got.dtype == np.int32
    order = np.argsort(img, kind="stable")
    assert np.array_equal(got, order[img[order] >= 0])
    cells = np.random.default_rng(0).choice(grid.n_cells, size=500, replace=False)
    assert preimage(cells).tolist() == [i for c in cells for i in np.flatnonzero(img == c)]


def test_inverse_image_holds_little_beside_its_tables():
    """The two int32 tables take 8 bytes a cell.  The intp stable argsort and
    int64 bucket counts they were once built from peaked at more than twice
    that; the blocked counting sort adds only a block's temporaries."""
    n = 1 << 22
    img = np.random.default_rng(1).integers(0, n, size=n).astype(np.int32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        preimage = inverse_image(img)
        live, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert live >= 8 * n
    assert peak < 1.25 * 8 * n
    assert preimage(np.array([img[0]])).tolist() == np.flatnonzero(img == img[0]).tolist()


def test_inverse_image_skips_entries_off_the_band():
    """Entries of -1 lie in no bucket and take no room: beside the bucket
    starts the sorted table holds the entries >= 0 alone."""
    n = 1 << 22
    rng = np.random.default_rng(2)
    img = rng.integers(0, n, size=n).astype(np.int32)
    img[rng.random(n) < 0.84] = -1  # about the share of cells off the live band
    kept = int((img >= 0).sum())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        preimage = inverse_image(img)
        live, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    tables = 4 * (n + 1) + 4 * kept
    assert tables <= live < 1.25 * tables
    assert peak < 1.25 * tables
    cells = rng.choice(n, size=300, replace=False)
    assert preimage(cells).tolist() == [i for c in cells for i in np.flatnonzero(img == c)]
    assert preimage(np.arange(n)).size == kept


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


# -- the live band --------------------------------------------------------

BAND_KS = [1, 2, 6, 37, 64, 101, 256]


@pytest.mark.parametrize("K", BAND_KS + [768])
def test_live_cells_are_the_band(K):
    grid = SphereGrid(K=K)
    live = grid.live_flat()
    assert live.dtype == np.int32
    assert np.array_equal(live, np.flatnonzero(live_oracle(grid)))
    assert grid.live_flat() is live  # built once


def sphere_points(rng, n):
    """Random sphere points in the z-chart, the points within 1e-12 of
    |z| = 1 on both sides and on it, and 0, inf and points near both."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    rand = (v[:, 0] + 1j * v[:, 1]) / (1.0 - v[:, 2])
    turn = np.exp(1j * np.concatenate([rng.uniform(0, 2 * np.pi, n), np.arange(8) * np.pi / 4]))
    rims = [r * turn for r in (1 - 1e-12, 1 - 1e-13, 1.0, 1 + 1e-13, 1 + 1e-12)]
    poles = np.array([0, 1e-300, 1e-9 + 1e-9j, np.inf, 1e300, -1e9j])
    return np.concatenate([rand, *rims, poles])


@pytest.mark.parametrize("K", BAND_KS)
def test_canonical_cells_are_live(K):
    grid = SphereGrid(K=K)
    z = sphere_points(np.random.default_rng(K), 2000)
    cells = grid.canonical_flat(z)
    assert live_oracle(grid)[cells].all()
    assert np.isin(cells, grid.live_flat()).all()


@pytest.mark.parametrize("K", [37, 64])
@pytest.mark.parametrize("text", ["z^2-1", "(z^2+1)/(z^2-1)"])
def test_tables_are_minus_one_exactly_off_the_band(K, text):
    """The image table is -1 exactly off the live set and lands on live
    cells; the twin table is -1 off it, and every live cell outside its
    unit circle has a live twin, so the seam band stitches the charts."""
    grid = SphereGrid(K=K)
    live = live_oracle(grid)
    img = RationalMap.parse(text).image_cells(grid)
    assert (img[~live] == -1).all()
    assert (img[live] >= 0).all() and live[img[live]].all()
    twin = grid.twin_flat()
    assert (twin[~live] == -1).all()
    _chart, c = grid.chart_coord(np.arange(grid.n_cells))
    outer = np.flatnonzero(live & (np.abs(c) > 1.0))
    assert outer.size and (twin[outer] >= 0).all() and live[twin[outer]].all()


@pytest.mark.parametrize("K", [64, 65])
@pytest.mark.parametrize("text", ["z^2-1", "z^2-3"])
def test_pullback_regions_hold_live_cells_only(K, text):
    g = RationalMap.parse(text)
    grid = SphereGrid(K=K)
    pull = pullback_cover(admissible_cover(g, julia_sample(g, 6), 0.25, grid=grid), 3)
    live = live_oracle(grid)
    assert pull.n_levels == 3
    assert all(live[r.cells].all() for fam in pull.families for r in fam)
