"""Level-truncated boundary at infinity of a tile graph.

Every point of the space is represented by a natural geodesic: a
tile-per-level ray through the tiles containing it.  The truncated boundary
distance of two points is L^-(product of the deepest ray tiles); pairs whose
product reaches the truncation depth are not yet separated and get distance 0
(they are excluded from all regularity fits).  No genuine limit object exists
at a finite truncation and reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covers import CoverSequence, check_lambda, tile_pair_reduce
from .metricspace import FiniteMetricSpace
from .proximity import fit_power_quasisymmetry, snowflake_check
from .tilegraph import TileGraph

BOUNDARY_NOTE = (
    "level-N approximation: the boundary is truncated at the cover depth, "
    "completeness of the sample is vacuous, surjectivity not certifiable"
)


@dataclass(frozen=True)
class NaturalGeodesic:
    """A tile-per-level ray through the tiles containing one point."""

    tiles: tuple[tuple[int, int], ...]  # (level, index) per level 0..N


@dataclass
class BoundaryMetricApprox:
    """Truncated boundary distances d(x,y) = L^-(X_x^N . X_y^N)."""

    dist: np.ndarray
    lam: float
    truncation: int
    products2: np.ndarray  # doubled Gromov products of the deepest ray tiles
    diam_comparability: float  # max ratio between diam(X u Y) and L^-(X.Y)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def unresolved(self) -> np.ndarray:
        """Mask of distinct pairs not separated within the truncation."""
        off = ~np.eye(self.n, dtype=bool)
        return off & (self.dist == 0)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "lambda": self.lam,
            "truncation": self.truncation,
            "dist": self.dist.tolist(),
            "diam_comparability": self.diam_comparability,
            "note": BOUNDARY_NOTE,
        }


def _ray_tiles(cover: CoverSequence, level: int, tie_break: str) -> np.ndarray:
    """Per point, the index of the level's tile its natural geodesic takes: the
    lowest index of a tile holding it, or the highest unless ``tie_break`` is
    "low".  Every level covers every point, so each point has one."""
    mem = cover.membership(level)
    if tie_break == "low":
        return np.argmax(mem, axis=0)
    return len(mem) - 1 - np.argmax(mem[::-1], axis=0)


def natural_geodesic(cover: CoverSequence, x: int, tie_break: str = "low") -> NaturalGeodesic:
    """Pick one tile containing x per level (lowest tile index by default)."""
    levels = range(cover.depth + 1)
    tiles = tuple((lev, int(_ray_tiles(cover, lev, tie_break)[x])) for lev in levels)
    return NaturalGeodesic(tiles=tiles)


def boundary_metric(
    cover: CoverSequence,
    graph: TileGraph,
    lam: float,
    tie_break: str = "low",
) -> BoundaryMetricApprox:
    """Matrix of truncated boundary distances over all sample points.

    Also re-verifies the product against geometry: the reported
    ``diam_comparability`` is the worst ratio between diam(X u Y) under the
    cover's metric and L^-(X.Y), over deepest-ray-tile pairs (resolved pairs
    only); it is bounded when the cover is visual for that metric at
    parameter L.
    """
    check_lambda(lam)
    depth = cover.depth
    # each point's deepest ray tile; the graph numbers a level's tiles in a row
    deepest = graph.vertex((depth, 0)) + _ray_tiles(cover, depth, tie_break)
    g2 = graph.gromov2()
    prod2 = g2[np.ix_(deepest, deepest)]
    dist = float(lam) ** (-prod2 / 2.0)
    resolved = prod2 < 2 * depth
    dist = np.where(resolved, dist, 0.0)
    np.fill_diagonal(dist, 0.0)

    # Both diam(X u Y) and L^-(X.Y) depend only on the pair of deepest tiles,
    # and a pair of points is resolved exactly when its deepest tiles differ.
    tiles = np.unique(deepest)
    members = [graph.members_of(int(v)) for v in tiles]
    # diam(X u Y) ~ sup of cross distances, within a factor 2
    cross = tile_pair_reduce(cover.space.dist, members, np.maximum)
    # L^-(X.Y): one scalar power per distinct product, since an array power may
    # take a SIMD path that rounds differently in the last bit
    tile_prod2 = g2[np.ix_(tiles, tiles)]
    values = np.unique(tile_prod2)
    scales = np.array([float(lam) ** (-p / 2.0) for p in values])
    scale = scales[np.searchsorted(values, tile_prod2)]
    ok = (cross > 0) & ~np.eye(len(tiles), dtype=bool)
    c, s = cross[ok], scale[ok]
    worst = float(np.maximum(c / s, s / c).max(initial=1.0))
    return BoundaryMetricApprox(
        dist=dist,
        lam=float(lam),
        truncation=depth,
        products2=prod2,
        diam_comparability=worst,
    )


def phi_injectivity_check(boundary: BoundaryMetricApprox) -> tuple[bool, dict]:
    """Truncated injectivity: every distinct pair has positive boundary distance.

    Surjectivity onto a genuine boundary at infinity is not certifiable at a
    finite truncation and is reported as not applicable.
    """
    bad = boundary.unresolved()
    if bad.any():
        i, j = map(int, np.unravel_index(int(np.argmax(bad)), bad.shape))
        return False, {"witness": [i, j], "surjectivity": "not applicable"}
    return True, {"surjectivity": "not applicable"}


SNOWFLAKE_THRESHOLD_FACTOR = 0.6  # in units of log(lambda), the quantization step


def phi_regularity_check(space: FiniteMetricSpace, boundary: BoundaryMetricApprox) -> dict:
    """Classify the identification map: snowflake if possible, else power
    quasisymmetry, else FAIL.  Unresolved pairs are excluded via distance 0.

    Boundary distances quantize in steps of the base, so the snowflake
    residual is compared against a threshold proportional to log(lambda):
    genuine snowflakes stay within the quantization scatter, while mixed-scale
    covers exceed it.
    """
    dinf = FiniteMetricSpace(dist=boundary.dist)
    threshold = SNOWFLAKE_THRESHOLD_FACTOR * np.log(boundary.lam)
    snow = snowflake_check(space, dinf, residual_threshold=threshold)
    if snow is not None:
        return {"kind": "snowflake", "alpha": snow[0], "C": snow[1]}
    masked = _mask_unresolved(space, boundary)
    qs = fit_power_quasisymmetry(masked, dinf)
    if qs is not None:
        return {"kind": "quasisymmetry", "K": qs.K, "nu": qs.nu}
    return {"kind": "FAIL"}


def _mask_unresolved(space: FiniteMetricSpace, boundary: BoundaryMetricApprox) -> FiniteMetricSpace:
    """Zero out original distances on unresolved pairs so fitters skip them."""
    d = space.dist.copy()
    d[boundary.unresolved()] = 0.0
    return FiniteMetricSpace(dist=d)
