"""Two-chart raster of the Riemann sphere for pull-back component tracking.

Chart A is the z-plane square [-H, H]^2, chart B the w = 1/z plane square of
the same size.  Every sphere point has a canonical cell (chart A when
|z| <= 1, else chart B), whose center lies within step/sqrt(2) of the unit
circle or inside it.  The raster works on the **live** cells alone: those
whose center lies within R = 1 + 2 step of their chart's origin, about 16 %
of each square.  The rest of a square holds copies of sphere points that the
other chart holds canonically.  The live cells of the two charts overlap on
the seam band 1/R <= |z| <= R: every canonical cell is live, and every live
cell outside its chart's unit circle has a live twin, so regions stitch
across the charts there.  The whole-grid tables, the raster of a ball and
with them every pull-back region hold live cells only.

Connected components are labelled on row runs of the sorted, distinct cells:
a run is a maximal stretch of consecutive ids within one row.  Runs in
consecutive rows of one chart whose x-intervals meet within one cell are
8-neighbours, runs holding a cell and its twin are stitched across the
charts, and one ``covers.connected_components`` call labels the runs.  No
step builds a raster of the cells' bounding box, and no step needs scipy.
One call may label several cell sets at once as stacked copies of the grid:
the id ``layer * 2K^2 + cell`` is ``cell`` in copy ``layer``, and cells join
only within their copy, so a pull-back level is labelled a batch of parent
regions at a time.

Whole-grid per-cell tables (the twin table here, the image table of a map)
hold -1 off the live set and are computed on live ids only, in blocks of
``FILL_BLOCK`` ids, which bounds the temporaries of the elementwise maths.

Cell ids are int32 from end to end: the whole-grid tables, the raster of a
ball, the components, the inverse image and what it gathers.  Only index
temporaries and stacked ids past the first copy are int64.  The 2K^2 cell
count must itself fit int32 (the inverse image's bucket starts run up to
it), so K is at most ``MAX_K``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .covers import connected_components, group_by_label, run_indices

FILL_BLOCK = 1 << 16  # cells per block when filling a whole-grid table
MAX_K = 32767  # largest K with 2K^2 < 2^31, so every cell id and count fits int32


@dataclass(eq=False)
class SphereGrid:
    """Uniform K x K grids on both charts; cells indexed flat as chart*K*K + iy*K + ix."""

    H = 2.2  # each chart is the square [-H, H]^2
    K: int = 2048
    _twin: np.ndarray | None = field(default=None, init=False, repr=False)
    _live: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"grid size K must be at least 1, got {self.K}")
        if self.K > MAX_K:
            raise ValueError(
                f"grid size K must be at most {MAX_K}, so that the 2K^2 cell ids fit int32; "
                f"got {self.K}"
            )

    @property
    def step(self) -> float:
        return 2.0 * self.H / self.K

    @property
    def n_cells(self) -> int:
        return 2 * self.K * self.K

    @property
    def live_radius(self) -> float:
        """R = 1 + 2 step: a cell is live when its center lies within R of its
        chart's origin.  Canonical cells reach only 1 + step/sqrt(2)."""
        return 1.0 + 2.0 * self.step

    def _live_mask(self, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Whether the cell centered at (xs[j], ys[i]) is live, as a (rows, cols) mask."""
        return (ys * ys)[:, None] + xs * xs <= self.live_radius ** 2

    def _live_span(self) -> tuple[int, int]:
        """The axis indices [lo, hi) within R of 0: the live cells' bounding box
        is [lo, hi)^2 in each chart."""
        axis = self.axis_centers()
        near = np.flatnonzero(axis * axis <= self.live_radius ** 2)
        return int(near[0]), int(near[-1]) + 1

    def live_flat(self) -> np.ndarray:
        """Ascending int32 flat ids of the live cells of both charts (built once)."""
        if self._live is None:
            lo, hi = self._live_span()
            axis = self.axis_centers()[lo:hi]
            iy, ix = np.nonzero(self._live_mask(axis, axis))
            chart_a = ((iy + lo) * self.K + (ix + lo)).astype(np.int32)
            self._live = np.concatenate([chart_a, chart_a + self.K * self.K])
        return self._live

    # -- coordinates -------------------------------------------------------

    def axis_centers(self) -> np.ndarray:
        return -self.H + (np.arange(self.K) + 0.5) * self.step

    def chart_coord(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat ids -> (chart, complex chart coordinate of the cell center)."""
        flat = np.asarray(flat)
        chart, rem = np.divmod(flat, self.K * self.K)
        iy, ix = np.divmod(rem, self.K)
        c = (-self.H + (ix + 0.5) * self.step) + 1j * (-self.H + (iy + 0.5) * self.step)
        return chart, c

    def cell_centers_z(self, flat: np.ndarray) -> np.ndarray:
        """Cell centers as points of the z-chart (inf for the B-origin cell)."""
        chart, c = self.chart_coord(flat)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(chart == 0, c, 1.0 / np.where(c == 0, 1.0, c))
        z = np.where((chart == 1) & (c == 0), np.inf + 0j, z)
        return z

    def _coord_to_cell(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ix = np.floor((c.real + self.H) / self.step).astype(np.int64)
        iy = np.floor((c.imag + self.H) / self.step).astype(np.int64)
        return iy, ix

    def canonical_flat(self, z: np.ndarray) -> np.ndarray:
        """Canonical cell of sphere points given in the z-chart (inf allowed)."""
        z = np.asarray(z, dtype=complex)
        az = np.abs(z)
        use_a = az <= 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(use_a, z, 1.0 / np.where(z == 0, 1.0, z))
        w = np.where(np.isfinite(w), w, 0.0)  # inf -> B-chart origin
        iy, ix = self._coord_to_cell(w)
        iy = np.clip(iy, 0, self.K - 1)
        ix = np.clip(ix, 0, self.K - 1)
        return np.where(use_a, 0, self.K * self.K) + iy * self.K + ix

    def twin_flat(self) -> np.ndarray:
        """Per live cell, the other-chart cell containing the same sphere point
        (-1 when it falls outside the other chart's square); -1 off the live
        set.  A live cell outside its unit circle always has a live twin.

        Only chart A's half is computed: a chart B cell has the same chart
        coordinate as the chart A cell K^2 below it, so its twin is that
        cell's twin shifted by -K^2."""
        if self._twin is None:
            half = self.K * self.K
            live = self.live_flat()
            twin = self.fill_cells(self._twin_block, live[:live.size // 2])
            np.subtract(twin[:half], half, out=twin[half:], where=twin[:half] >= 0)
            self._twin = twin
        return self._twin

    def _twin_block(self, flat: np.ndarray) -> np.ndarray:
        """The chart B twins of chart A cells, -1 outside chart B's square."""
        _chart, c = self.chart_coord(flat)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / np.where(c == 0, np.nan, c)
        ok = np.isfinite(inv) & (np.abs(inv.real) <= self.H) & (np.abs(inv.imag) <= self.H)
        iy, ix = self._coord_to_cell(np.where(ok, inv, 0))
        return np.where(ok, self.K * self.K + iy * self.K + ix, -1)

    def fill_cells(self, per_cell: Callable[[np.ndarray], np.ndarray], ids: np.ndarray) -> np.ndarray:
        """The int32 table over every flat id that holds ``per_cell(flat)`` at
        ``ids`` (live ids) and -1 elsewhere.  ``per_cell`` must act
        elementwise; it is called on blocks of ``FILL_BLOCK`` ids."""
        out = np.full(self.n_cells, -1, dtype=np.int32)
        for lo in range(0, ids.size, FILL_BLOCK):
            block = ids[lo:lo + FILL_BLOCK]
            out[block] = per_cell(block.astype(np.int64))
        return out

    # -- rasterization and components ---------------------------------------

    def raster_spherical_ball(self, center_vec: np.ndarray, radius: float) -> np.ndarray:
        """Flat ids of the live cells (both charts) whose center lies in the
        open ball.  Each chart's search box is clipped to the live box, so a
        cap holding a chart's pole costs that box and not the whole square.

        The ids come strictly ascending: chart A's before chart B's, and each
        chart's in row-major order, so callers need not sort or deduplicate.
        """
        out = []
        for chart in (0, 1):
            cells = self._raster_ball_in_chart(chart, center_vec, radius)
            if cells.size:
                out.append(cells + chart * self.K * self.K)
        return np.concatenate(out) if out else np.empty(0, dtype=np.int32)

    def _raster_ball_in_chart(self, chart: int, center_vec: np.ndarray, radius: float) -> np.ndarray:
        v = np.asarray(center_vec, dtype=float)
        flip = 1.0 if chart == 0 else -1.0  # chart B mirrors the y and z axes
        axis = self.axis_centers()
        lo, hi = self._live_span()
        # a chart is the stereographic projection from its pole (z = inf for
        # A, z = 0 for B): a point at polar angle t from it lands at radius cot(t/2)
        rho = np.hypot(v[0], v[1])
        theta = np.arctan2(rho, flip * v[2])
        if theta <= radius:
            lo_x, hi_x, lo_y, hi_y = lo, hi, lo, hi  # the cap holds the pole
        else:
            # the cap's image is the disk whose diameter joins the images of
            # polar angles theta -+ radius along the center's azimuth; the
            # near end is signed, negative once theta + radius passes pi
            far = 1.0 / np.tan(0.5 * (theta - radius))
            near = 1.0 / np.tan(0.5 * (theta + radius))
            mid = 0.5 * (far + near) * (complex(v[0], flip * v[1]) / rho if rho > 0 else 1.0)
            pad = 0.5 * (far - near) + 2 * self.step
            lo_x = max(lo, np.searchsorted(axis, mid.real - pad) - 1)
            hi_x = min(hi, np.searchsorted(axis, mid.real + pad) + 1)
            lo_y = max(lo, np.searchsorted(axis, mid.imag - pad) - 1)
            hi_y = min(hi, np.searchsorted(axis, mid.imag + pad) + 1)
        xs = axis[lo_x:hi_x]
        ys = axis[lo_y:hi_y]
        cc = xs[None, :] + 1j * ys[:, None]
        s = np.abs(cc) ** 2
        dots = (2 * cc.real * v[0] + flip * 2 * cc.imag * v[1] + flip * (s - 1) * v[2]) / (s + 1)
        inside = np.arccos(np.clip(dots, -1, 1)) < radius
        inside = np.flatnonzero(inside & self._live_mask(ys, xs))
        iy, ix = np.divmod(inside, hi_x - lo_x)
        return ((iy + lo_y) * self.K + (ix + lo_x)).astype(np.int32)

    def components(self, cells: np.ndarray) -> list[np.ndarray]:
        """Connected components of a set of cells, stitched across charts.

        Cells of one chart join as 8-neighbours, and a cell joins its twin.
        Only live cells have twins, so only they stitch across the charts:
        a pull-back region holds live cells alone, joined across the charts
        through its cells in the seam band.  ``cells`` may come in any order
        and may repeat cells.

        ``cells`` are ids of stacked copies of the grid, ``layer * n_cells +
        cell``, and cells join only within their layer: a call on cells of
        layer 0 alone labels one cell set, and one on several layers labels
        each layer's set as that call would.  Each component is an ascending
        array of ids, and components are ordered by their smallest id, so by
        layer and then by smallest cell.  The arrays are int32 when every id
        lies in layer 0, and int64 otherwise.
        """
        cells = np.asarray(cells).ravel()
        if cells.size == 0:
            return []
        wide = cells.max() >= self.n_cells
        ids = np.sort(cells.astype(np.int64 if wide else np.int32, copy=False))
        ids = ids[_equal_runs(ids)[0]]  # np.unique is far slower on int32
        K = self.K
        # runs: maximal stretches of consecutive ids, cut at the start of a row
        starts = np.flatnonzero(np.append(True, (np.diff(ids) != 1) | (ids[1:] % K == 0)))
        ends = np.append(starts[1:], ids.size)
        first, last = ids[starts], ids[ends - 1]
        run = np.repeat(np.arange(starts.size), ends - starts)
        # 8-neighbours: the runs of the next row that meet this run's x-interval
        # widened by one cell.  The widened interval is clamped to that row.
        # The last row of a chart has no next row: chart A's is followed by
        # chart B's first row, and chart B's by the next layer's chart A.
        row, x0 = np.divmod(first, K)
        below = (row + 1) * K
        lo = np.searchsorted(last, below + np.maximum(x0 - 1, 0))
        hi = np.searchsorted(first, below + np.minimum(last - row * K + 1, K - 1), side="right")
        count = np.where(row % K == K - 1, 0, hi - lo)
        a, b = self._twin_links(ids, run)
        comp = connected_components(
            starts.size,
            np.concatenate([np.repeat(np.arange(starts.size), count), a]),
            np.concatenate([run_indices(lo, count), b]),
        )
        return group_by_label(ids, comp[run])

    def _twin_links(self, ids: np.ndarray, run: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (run, run) links of the sorted stacked ``ids`` to their twins:
        one for each cell whose twin, in the other chart of the same layer,
        is in the set, kept once where consecutive cells link the same two
        runs.  Its temporaries are freed before the runs are labelled."""
        cell = ids % self.n_cells
        twin = self.twin_flat()[cell]
        twin = np.where(twin >= 0, ids - cell + twin, -1)
        pos = np.minimum(np.searchsorted(ids, twin), ids.size - 1)
        hit = np.flatnonzero(ids[pos] == twin)
        a, b = run[hit], run[pos[hit]]
        new = (np.diff(a, prepend=-1) != 0) | (np.diff(b, prepend=-1) != 0)
        return a[new], b[new]


def locate_cells(cells: np.ndarray, sets: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Every (query, set) pair with ``cells[query]`` in ``sets[set]``.

    ``sets`` are sorted, unique cell arrays that may overlap.  The pairs come
    as two parallel arrays ordered by query index, then by set index; a query
    of -1 (a missing twin) matches nothing.
    """
    cells = np.asarray(cells, dtype=np.int64)
    flat = np.concatenate([np.empty(0, dtype=np.int32), *sets])
    # only the set entries some query asks for are sorted
    pos = np.flatnonzero(np.isin(flat, cells, kind="table"))
    owner = np.searchsorted(np.cumsum([s.size for s in sets], dtype=np.int64), pos, side="right")
    flat = flat[pos]
    # stable, so the copies of one cell keep ascending set order
    order = np.argsort(flat, kind="stable")
    flat, owner = flat[order], owner[order]
    lo = np.searchsorted(flat, cells, side="left")
    counts = np.searchsorted(flat, cells, side="right") - lo
    query = np.repeat(np.arange(cells.size, dtype=np.int64), counts)
    return query, owner[run_indices(lo, counts)]


@dataclass(eq=False)
class InverseImage:
    """The inverse image of a whole-grid image table: bucket v,
    ``pre[start[v]:start[v + 1]]``, holds the ascending int32 cells that the
    table maps to v."""

    start: np.ndarray  # int32 bucket starts, one more than the table's size
    pre: np.ndarray  # int32 cells stably sorted by image

    def __call__(self, cells: np.ndarray) -> np.ndarray:
        """The buckets of the distinct ``cells``, in the given order, as one
        int32 array."""
        lo = self.start[cells]
        return self.pre[run_indices(lo, self.start[cells + 1] - lo)]

    def count(self, cells: np.ndarray) -> int:
        """How many cells the gather of the distinct ``cells`` returns."""
        return int(self.start[cells + 1].sum()) - int(self.start[cells].sum())


def inverse_image(img: np.ndarray) -> InverseImage:
    """The inverse image of ``img``, whose call maps distinct cells to the
    cells that ``img`` maps into them, bucket by bucket in the given order,
    each bucket ascending, as int32.  Entries of -1 (the cells off the live
    set) lie in no bucket.  Its two tables (a stable sort by image of the
    entries >= 0, and the bucket starts) are built once here as int32 arrays.

    The sort is a stable counting sort over blocks of ``FILL_BLOCK`` cells, so
    that beside the two int32 arrays only a block's temporaries are live: one
    pass counts the buckets, and a second places each block's cells, sorted
    by (image, cell) within the block, at their buckets' running fill marks.
    """
    n = img.size
    # start[v + 1] is bucket v's fill mark, once the counts stored two places
    # up are summed; when every cell is placed it is where bucket v + 1 starts
    shifted = np.zeros(n + 2, dtype=np.int32)
    for lo in range(0, n, FILL_BLOCK):
        block = img[lo:lo + FILL_BLOCK]
        vals = np.sort(block[block >= 0])
        head, count = _equal_runs(vals)
        shifted[vals[head] + 2] += count.astype(np.int32)
    np.cumsum(shifted, dtype=np.int32, out=shifted)
    start = shifted[:-1]
    pre = np.empty(int(shifted[-1]), dtype=np.int32)
    for lo in range(0, n, FILL_BLOCK):
        block = img[lo:lo + FILL_BLOCK]
        cell = np.flatnonzero(block >= 0)
        key = np.sort(block[cell].astype(np.int64) * FILL_BLOCK + cell)
        vals, cell = np.divmod(key, FILL_BLOCK)
        head, count = _equal_runs(vals)
        pre[start[vals + 1] + np.arange(vals.size) - np.repeat(head, count)] = cell + lo
        start[vals[head] + 1] += count.astype(np.int32)
    return InverseImage(start, pre)


def _equal_runs(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in a sorted array."""
    head = np.flatnonzero(np.append(vals.size > 0, vals[1:] != vals[:-1]))
    return head, np.diff(np.append(head, vals.size))
