"""Two-chart raster of the Riemann sphere for pull-back component tracking.

Chart A is the z-plane square [-H, H]^2, chart B the w = 1/z plane square of
the same size, overlapping on 1/H <= |z| <= H.  Every sphere point has a
canonical cell (chart A when |z| <= 1, else chart B), and cells in the
overlap know their twin in the other chart, so connected components computed
per chart can be stitched into sphere components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

CHART_HALF_WIDTH = 2.2
EIGHT = np.ones((3, 3), dtype=int)  # 8-connectivity for component labeling


@dataclass
class SphereGrid:
    """Uniform K x K grids on both charts; cells indexed flat as chart*K*K + iy*K + ix."""

    K: int = 2048
    H: float = CHART_HALF_WIDTH
    _twin: np.ndarray | None = field(default=None, repr=False)

    @property
    def step(self) -> float:
        return 2.0 * self.H / self.K

    @property
    def n_cells(self) -> int:
        return 2 * self.K * self.K

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

    def cell_unit_vectors(self, flat: np.ndarray) -> np.ndarray:
        """Cell centers as unit 3-vectors."""
        chart, c = self.chart_coord(flat)
        s = np.abs(c) ** 2
        out = np.empty(flat.shape + (3,))
        a = chart == 0
        out[a, 0] = 2.0 * c[a].real
        out[a, 1] = 2.0 * c[a].imag
        out[a, 2] = s[a] - 1.0
        b = ~a
        out[b, 0] = 2.0 * c[b].real
        out[b, 1] = -2.0 * c[b].imag
        out[b, 2] = 1.0 - s[b]
        out /= (s + 1.0)[..., None]
        return out

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
        """Per cell, the other-chart cell containing the same sphere point
        (-1 when it falls outside the other chart's square)."""
        if self._twin is None:
            flat = np.arange(self.n_cells, dtype=np.int64)
            chart, c = self.chart_coord(flat)
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = 1.0 / np.where(c == 0, np.nan, c)
            ok = np.isfinite(inv) & (np.abs(inv.real) <= self.H) & (np.abs(inv.imag) <= self.H)
            iy, ix = self._coord_to_cell(np.where(ok, inv, 0))
            other = np.where(chart == 0, self.K * self.K, 0)
            twin = other + iy * self.K + ix
            self._twin = np.where(ok, twin, -1).astype(np.int64)
        return self._twin

    # -- rasterization and components ---------------------------------------

    def raster_spherical_ball(self, center_vec: np.ndarray, radius: float) -> np.ndarray:
        """Flat ids of all cells (both charts) whose center lies in the open ball."""
        out = []
        for chart in (0, 1):
            cells = self._raster_ball_in_chart(chart, center_vec, radius)
            if cells.size:
                out.append(cells + chart * self.K * self.K)
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)

    def _raster_ball_in_chart(self, chart: int, center_vec: np.ndarray, radius: float) -> np.ndarray:
        # bounding box via the chart projection of the ball center and the
        # worst-case metric factor (<= 2 chart units per spherical unit)
        v = np.asarray(center_vec, dtype=float)
        if chart == 0:
            denom = 1.0 - v[2]
            if denom <= 1e-12:
                c = None
            else:
                c = complex(v[0] / denom, v[1] / denom)
        else:
            denom = 1.0 + v[2]
            if denom <= 1e-12:
                c = None
            else:
                c = complex(v[0] / denom, -v[1] / denom)
        axis = self.axis_centers()
        if c is None or abs(c) > self.H + 2.0:
            lo_x, hi_x, lo_y, hi_y = 0, self.K, 0, self.K
        else:
            # |dz| = (1+|z|^2)/2 * ds along the ball; pad generously
            factor = (1.0 + (abs(c) + 2.0) ** 2) / 2.0
            pad = radius * factor + 2 * self.step
            lo_x = max(0, np.searchsorted(axis, c.real - pad) - 1)
            hi_x = min(self.K, np.searchsorted(axis, c.real + pad) + 1)
            lo_y = max(0, np.searchsorted(axis, c.imag - pad) - 1)
            hi_y = min(self.K, np.searchsorted(axis, c.imag + pad) + 1)
        if lo_x >= hi_x or lo_y >= hi_y:
            return np.empty(0, dtype=np.int64)
        xs = axis[lo_x:hi_x]
        ys = axis[lo_y:hi_y]
        cc = xs[None, :] + 1j * ys[:, None]
        s = np.abs(cc) ** 2
        if chart == 0:
            dots = (2 * cc.real * v[0] + 2 * cc.imag * v[1] + (s - 1) * v[2]) / (s + 1)
        else:
            dots = (2 * cc.real * v[0] - 2 * cc.imag * v[1] + (1 - s) * v[2]) / (s + 1)
        inside = np.arccos(np.clip(dots, -1, 1)) < radius
        iy, ix = np.nonzero(inside)
        return (iy + lo_y) * self.K + (ix + lo_x)

    def components(self, cells: np.ndarray) -> list[np.ndarray]:
        """Connected components of a set of cells, stitched across charts.

        Each component is an ascending array, and components are ordered by
        their smallest cell.
        """
        cells = np.unique(np.asarray(cells, dtype=np.int64))
        if cells.size == 0:
            return []
        half = self.K * self.K
        labels = np.full(cells.shape, -1, dtype=np.int64)
        next_label = 0
        chart_of = cells // half
        for chart in (0, 1):
            sel = np.flatnonzero(chart_of == chart)
            if not sel.size:
                continue
            rem = cells[sel] - chart * half
            iy, ix = np.divmod(rem, self.K)
            lo_y, hi_y = iy.min(), iy.max() + 1
            lo_x, hi_x = ix.min(), ix.max() + 1
            mask = np.zeros((hi_y - lo_y, hi_x - lo_x), dtype=bool)
            mask[iy - lo_y, ix - lo_x] = True
            lab, n_lab = ndimage.label(mask, structure=EIGHT)
            labels[sel] = lab[iy - lo_y, ix - lo_x] - 1 + next_label
            next_label += n_lab
        # stitch the per-chart labels along matched twin cells; bool data,
        # since the conversion to CSR sums duplicate edges
        twin = self.twin_flat()[cells]
        src = np.flatnonzero(twin >= 0)
        pos = np.minimum(np.searchsorted(cells, twin[src]), cells.size - 1)
        match = cells[pos] == twin[src]
        edges = csr_matrix(
            (np.ones(int(match.sum()), dtype=bool), (labels[src[match]], labels[pos[match]])),
            shape=(next_label, next_label),
        )
        _n, comp = connected_components(edges, directed=False)
        return group_by_label(cells, comp[labels])


def group_by_label(items: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
    """Split ``items`` into one array per label, in ascending label order.

    Each group keeps the input order of its items.  With labels from
    ``connected_components``, which numbers components by their lowest node,
    groups come out ordered by their first item.
    """
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(items[order], cuts)


def locate_cells(cells: np.ndarray, sets: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Every (query, set) pair with ``cells[query]`` in ``sets[set]``.

    ``sets`` are sorted, unique cell arrays that may overlap.  The pairs come
    as two parallel arrays ordered by query index, then by set index; a query
    of -1 (a missing twin) matches nothing.
    """
    cells = np.asarray(cells, dtype=np.int64)
    flat = np.concatenate([np.empty(0, dtype=np.int64), *sets])
    owner = np.repeat(np.arange(len(sets), dtype=np.int64), [s.size for s in sets])
    # stable, so the copies of one cell keep ascending set order
    order = np.argsort(flat, kind="stable")
    flat, owner = flat[order], owner[order]
    lo = np.searchsorted(flat, cells, side="left")
    counts = np.searchsorted(flat, cells, side="right") - lo
    query = np.repeat(np.arange(cells.size, dtype=np.int64), counts)
    return query, owner[np.repeat(lo, counts) + _ranges(counts)]


def _ranges(reps: np.ndarray) -> np.ndarray:
    """Concatenated aranges 0..r-1 for each count r in ``reps``."""
    starts = np.repeat(np.cumsum(reps) - reps, reps)
    return np.arange(starts.size, dtype=np.int64) - starts
