"""Cover sequences {X^n} over a finite metric space and their verification.

Two verifiers are provided: ``verify_visual`` checks absolute-scale decay
diam(X) ~ L^-n together with metric separation of combinatorially separated
same-level tiles, and ``verify_quasi_visual`` checks the scale-free variant
where every bound is relative to tile diameters.  Both extract the best
empirical constants over the finite truncation and compare them against user
thresholds; no verdict ever claims more than the truncation depth certifies.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyTile, FitFailure, MissingLambda
from .metricspace import FiniteMetricSpace

DEFAULT_THRESHOLD = 64.0
THRESHOLD_KEYS = ("visual.diam", "visual.separation", "qv.i", "qv.ii", "qv.iii")
DEFAULT_SHRINK_LAMBDA = 0.95  # target contraction for the condition-(iv) search
TILE_BLOCK = 1 << 16  # entries per gathered block of the diameter and separation scans

FINITE_COVER_NOTE = (
    "finite truncation: all families are finite and every 'for all n' claim "
    "is certified only up to the stated truncation depth"
)


@dataclass(frozen=True, eq=False)
class Tile:
    """A tile: a non-empty subset of the point set, living at a level.

    ``members`` is the sorted, read-only int64 array of its point indices,
    a view into its level's incidence (``CoverSequence.incidence``).
    Equality is identity: arrays have no single truth value to compare by.
    """

    level: int
    index: int
    members: np.ndarray


def check_depth(depth: int, name: str = "depth") -> None:
    """Raise ValueError when a depth (or the count named ``name``) is negative."""
    if depth < 0:
        raise ValueError(f"{name} must be non-negative, got {depth}")


def check_lambda(lam: float) -> None:
    """Raise ValueError unless the visual parameter ``lam`` is finite and exceeds 1."""
    if not lam > 1:  # NaN too
        raise ValueError(f"lambda must exceed 1, got {lam!r}")
    if lam == np.inf:
        raise ValueError(f"lambda must be finite, got {lam!r}")


def bool_product(*mats: np.ndarray) -> np.ndarray:
    """Boolean matrix product of 0/1 factors, left to right, on BLAS.

    Exact at any size: each step multiplies 0/1 float32 matrices, every term
    of a sum is non-negative, so a sum is 0 only when every term is, and
    products of 1.0 cannot underflow.
    """
    out = mats[0]
    for m in mats[1:]:
        out = (out.astype(np.float32) @ m.astype(np.float32)) > 0
    return out


def connected_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label of each node 0..n-1 of the undirected graph with edges
    ``src[e] -- dst[e]`` (repeats allowed).

    Components are numbered 0, 1, ... in the order of their lowest node, as
    scipy's ``connected_components`` numbers them.  Each round hooks every
    tree root onto the lowest root across its edges, then jumps pointers
    until each node points at its root.  Pointers only ever go to lower
    nodes, so a root is the lowest node of its tree, and an edge inside a
    tree stays inside one, so each round keeps only the edges that crossed.
    """
    root = np.arange(n)
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    while src.size:
        a, b = root[src], root[dst]
        cross = a != b
        src, dst, a, b = src[cross], dst[cross], a[cross], b[cross]
        low = np.minimum(a, b)
        np.minimum.at(root, a, low)
        np.minimum.at(root, b, low)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def group_by_label(items: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
    """Split ``items`` into one array per label, in ascending label order.

    Each group keeps the input order of its items.  With labels from
    ``connected_components``, which numbers components by their lowest node,
    groups come out ordered by their first item.
    """
    order = np.argsort(labels, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), len(order)]
    items = items[order]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def run_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated index runs ``starts[k] + (0 .. counts[k] - 1)``, in order."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()), dtype=np.int64)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _padded_rows(row: np.ndarray, value: np.ndarray, n_rows: int, pad: int) -> np.ndarray:
    """The table whose row r lists, in order, the entries of ``value`` at the
    positions where the sorted ``row`` equals r, padded with ``pad`` to the
    longest row."""
    count = np.bincount(row, minlength=n_rows)
    table = np.full((n_rows, int(count.max(initial=0))), pad, dtype=np.intp)
    table[row, np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)] = value
    return table


def or_rows(mat: np.ndarray, table: np.ndarray) -> np.ndarray:
    """out[r] = OR of the rows mat[i] over the entries i of ``table[r]``.

    ``table`` is a padded index table with at least one column, such as
    ``CoverSequence.tiles_of``: an entry len(mat) is padding and adds no row.
    The work is one row gather per table column, so it grows with the
    incidences, not with the number of rows of ``mat``.  A clipped gather
    reads a pad entry as the last row, which is then blanked, so no padded
    copy of ``mat`` is held beside the output.
    """
    pad = table == len(mat)
    out = np.take(mat, table[:, 0], axis=0, mode="clip")
    out[pad[:, 0]] = False
    for j in range(1, table.shape[1]):
        rows = np.take(mat, table[:, j], axis=0, mode="clip")
        rows[pad[:, j]] = False
        out |= rows
    return out


def maxmin_product(a: np.ndarray) -> np.ndarray:
    """(max,min) matrix product: out[x, y] = max over z of min(a[x, z], a[z, y]).

    One boolean product per distinct value of ``a``: for each value t above
    a.min(), in ascending order, out[x, y] >= t exactly when (a >= t)(a >= t)
    is nonzero at (x, y).  Entries set to a.min() (a masked diagonal, say)
    never lift a pair above that minimum.
    """
    levels = np.unique(a)
    out = np.full(a.shape, levels[0], dtype=a.dtype)
    for t in levels[1:]:
        b = a >= t
        out[bool_product(b, b)] = t
    return out


def tile_reduce(mat: np.ndarray, members: Sequence[np.ndarray], reduce) -> np.ndarray:
    """out[a, y] = ``reduce`` of mat[x, y] over x in X_a, for every tile a and column y.

    ``members`` holds one point-index array per tile, and tiles may overlap;
    ``reduce`` is a binary ufunc such as np.minimum.  Every within-tile
    constant is a masked row reduction of this (k, n) matrix: diam X is the
    max over y in X of tile_reduce(d, members, np.maximum).
    """
    out = np.empty((len(members), mat.shape[1]), dtype=mat.dtype)
    for i, idx in enumerate(members):
        reduce.reduce(mat[idx], axis=0, out=out[i])
    return out


def tile_pair_reduce(mat: np.ndarray, members: Sequence[np.ndarray], reduce) -> np.ndarray:
    """out[a, b] = ``reduce`` of mat over X_a x X_b, for every pair of tiles.

    Reduces point-to-tile first, then tile-to-tile: two passes of
    ``tile_reduce`` instead of one submatrix per tile pair.
    """
    return tile_reduce(tile_reduce(mat, members, reduce).T, members, reduce).T


class CoverSequence:
    """A truncated sequence of covers X^0..X^N of a finite metric space.

    Invariants enforced at construction: X^0 is the single whole-space tile,
    every tile is non-empty, and each level covers the point set.  Each level
    is validated and stored once, as its (tile, point) incidence; the tiles'
    member arrays are read-only views into it.
    """

    def __init__(
        self,
        space: FiniteMetricSpace | None,
        levels: Sequence[Sequence[Iterable[int]]],
        width: int = 0,
        visual_parameter: float | None = None,
    ):
        """With ``space=None`` the cover is purely combinatorial: the level-0
        tile sets the point count, and nothing that reads a metric applies."""
        if width < 0:
            raise ValueError("width must be a non-negative integer")
        if visual_parameter is not None:
            check_lambda(visual_parameter)
        self.space = space
        self.width = int(width)
        self.visual_parameter = float(visual_parameter) if visual_parameter else None
        fams = []  # any iterable of integers is a tile; an integer array is taken whole
        for lev, fam in enumerate(levels):
            try:
                fams.append([np.asarray(t, dtype=np.int64)
                             if isinstance(t, np.ndarray) and t.dtype.kind in "iu"
                             else np.fromiter(t, dtype=np.int64) for t in fam])
            except OverflowError:  # an id beyond int64 is beyond any point count
                raise ValueError(f"tile at level {lev} references unknown points") from None
        n = space.n if space is not None else len(set().union(*fams[0])) if fams else 0
        self.n_points = n
        self.levels: list[list[Tile]] = []
        self._members: list[tuple[np.ndarray, ...]] = []
        self._incidence: list[tuple[np.ndarray, np.ndarray]] = []
        for lev, fam in enumerate(fams):
            sizes = np.array([t.size for t in fam], dtype=np.int64)
            if (empty := np.flatnonzero(sizes == 0)).size:
                raise EmptyTile(f"empty tile at level {lev}, index {empty[0]}")
            point = np.concatenate([np.empty(0, dtype=np.int64), *fam])
            if ((point < 0) | (point >= n)).any():
                raise ValueError(f"tile at level {lev} references unknown points")
            # the distinct (tile, point) pairs, ordered by tile, then point; a
            # sort, not np.unique, whose first call imports numpy.ma (10-15 ms)
            key = np.sort(np.repeat(np.arange(len(fam), dtype=np.int64), sizes) * n + point)
            tile, point = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
            if (missing := np.flatnonzero(np.bincount(point, minlength=n) == 0)).size:
                missing = missing[:5].tolist()
                raise ValueError(f"level {lev} is not a cover; misses points {missing}")
            self._incidence.append((_read_only(tile), _read_only(point)))
            cuts = np.searchsorted(tile, np.arange(len(fam) + 1)).tolist()
            members = tuple(point[a:b] for a, b in zip(cuts, cuts[1:]))
            self._members.append(members)
            self.levels.append([Tile(lev, i, m) for i, m in enumerate(members)])
        if not self.levels:
            raise ValueError("need at least level 0")
        if len(self.levels[0]) != 1 or self.levels[0][0].members.size != n:
            raise ValueError("level 0 must consist of the single whole-space tile")
        self._membership: dict[int, np.ndarray] = {}
        self._tiles_of: dict[int, np.ndarray] = {}
        self._meets: dict[tuple[int, int], np.ndarray] = {}
        self._diams: dict[int, np.ndarray] = {}
        self._nearest_separated: dict[int, np.ndarray] = {}
        self._reach: dict[tuple[int, int], np.ndarray] = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def depth(self) -> int:
        """Truncation depth N (largest level present)."""
        return len(self.levels) - 1

    def members(self, level: int) -> tuple[np.ndarray, ...]:
        """Per tile of one level, its ``Tile.members`` array: sorted, int64
        and read-only.  Reductions over members never depend on their order."""
        return self._members[level]

    def incidence(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """The (tile, point) pairs of one level as two parallel read-only
        arrays, ordered by tile, then by point."""
        return self._incidence[level]

    def membership(self, level: int) -> np.ndarray:
        """Boolean (n_tiles, n_points) membership matrix for one level; cached
        and read-only."""
        if level not in self._membership:
            m = np.zeros((len(self.levels[level]), self.n_points), dtype=bool)
            m[self._incidence[level]] = True
            self._membership[level] = _read_only(m)
        return self._membership[level]

    def tiles_of(self, level: int) -> np.ndarray:
        """The point-to-tile table of one level: row p lists the tiles that
        hold point p in ascending order, padded to the widest row with the
        tile count k (one past the last tile).  Cached and read-only."""
        if level not in self._tiles_of:
            tile, point = self._incidence[level]
            order = np.argsort(point, kind="stable")  # tiles stay ascending per point
            table = _padded_rows(point[order], tile[order], self.n_points, len(self.levels[level]))
            self._tiles_of[level] = _read_only(table)
        return self._tiles_of[level]

    def meets(self, n: int, m: int) -> np.ndarray:
        """Boolean matrix of intersecting pairs X in X^n, Y in X^m; cached and
        read-only.  ``meets(n, n)`` is the same-level intersection graph.

        Each point marks every pair of its tiles at the two levels, and the
        pad column and row of the tables are cut off.
        """
        key = (n, m)
        if key not in self._meets:
            kn, km = len(self.levels[n]), len(self.levels[m])
            out = np.zeros((kn + 1, km + 1), dtype=bool)
            out[self.tiles_of(n)[:, :, None], self.tiles_of(m)[:, None, :]] = True
            self._meets[key] = _read_only(out[:kn, :km])
        return self._meets[key]

    def diams(self, level: int) -> np.ndarray:
        """Tile diameters at one level, under the bound space's metric; cached.

        A tile of at most n/8 points reads only its block d[X, X]: the tiles
        of one size go through one flat-index gather per block of at most
        ``TILE_BLOCK`` entries (or of one tile), so the work is the sum of
        |X|^2, not of |X| n.  A larger tile takes the max over X of the row
        maxima of tile_reduce, and a whole-space tile is d.max().
        """
        if level not in self._diams:
            d, n = self.space.dist, self.n_points
            tile, point = self._incidence[level]
            size = np.bincount(tile)
            start = np.cumsum(size) - size
            out = np.zeros(size.size)
            if (whole := size == n).any():
                out[whole] = d.max(initial=0.0)
            if (big := np.flatnonzero((size > n // 8) & ~whole)).size:
                far = tile_reduce(d, [self.members(level)[t] for t in big], np.maximum)
                out[big] = far.max(axis=1, where=self.membership(level)[big], initial=0.0)
            flat = d.ravel()
            for s in np.unique(size[size <= n // 8]).tolist():
                tiles = np.flatnonzero(size == s)
                step = max(1, TILE_BLOCK // (s * s))
                for lo in range(0, tiles.size, step):
                    mem = point[start[tiles[lo:lo + step], None] + np.arange(s)]
                    block = flat[mem[:, :, None] * n + mem[:, None, :]]
                    out[tiles[lo:lo + step]] = block.max(axis=(1, 2), initial=0.0)
            self._diams[level] = out
        return self._diams[level]

    def reach_within(self, level: int, length: int) -> np.ndarray:
        """Tile pairs joined by a chain of at most ``length`` same-level tiles.

        Cached per (level, length) and read-only.  Length 0 is the identity
        and length 1 the intersection graph.  Each further step ORs the rows
        of the tiles that each tile meets, through its padded neighbour list.
        """
        key = (level, length)
        if key not in self._reach:
            adj = self.meets(level, level)  # diagonal True, so reach only grows
            k = len(adj)
            reach = np.eye(k, dtype=bool) if length == 0 else adj
            if length > 1:
                lists = _padded_rows(*np.nonzero(adj), k, k)
                for _ in range(length - 1):
                    reach = or_rows(reach, lists)
            self._reach[key] = _read_only(reach)
        return self._reach[key]

    def separated(self, level: int) -> np.ndarray:
        """Same-level tile pairs that are U_w-separated: no chain of at most
        2w + 1 tiles joins them, so U_w(X) and U_w(Y) are disjoint."""
        return ~self.reach_within(level, 2 * self.width + 1)

    def hood(self, level: int) -> np.ndarray:
        """Boolean (n_points, n_tiles) matrix: hood[q, a] says q lies in
        U_{2w+1}(X_a), that is, in a tile that X_a is not separated from."""
        return or_rows(~self.separated(level), self.tiles_of(level))

    def nearest_separated(self, level: int) -> np.ndarray:
        """Per tile X_a of one level, the least distance from X_a to a point of
        a tile U_w-separated from X_a: the row minimum of ``pair_distances``
        over the separated pairs, inf for a tile separated from none.  Cached.

        A masked row minimum of tile_reduce(d, members, np.minimum), taken in
        blocks of tiles of at most ``TILE_BLOCK`` entries, so that no (k, n)
        float table is held whole.
        """
        if level not in self._nearest_separated:
            members = self.members(level)
            # away[p, a]: p lies in a tile separated from X_a
            away = or_rows(self.separated(level), self.tiles_of(level))
            out = np.empty(len(members))
            step = max(1, TILE_BLOCK // self.n_points)
            for lo in range(0, len(members), step):
                near = tile_reduce(self.space.dist, members[lo:lo + step], np.minimum)
                out[lo:lo + step] = near.min(axis=1, where=away[:, lo:lo + step].T, initial=np.inf)
            self._nearest_separated[level] = out
        return self._nearest_separated[level]

    def pair_distances(self, level: int, tiles: Sequence[int] | None = None) -> np.ndarray:
        """Set distances dist(X, Y) between same-level tiles: the full matrix,
        or with ``tiles`` only the rows of the listed tiles.  The verifiers
        read one row, that of a witness; a worst case itself comes from
        ``nearest_separated``."""
        members = self.members(level)
        rows = members if tiles is None else [members[t] for t in tiles]
        return tile_reduce(tile_reduce(self.space.dist, rows, np.minimum).T, members, np.minimum).T

    def with_space(self, space: FiniteMetricSpace) -> "CoverSequence":
        """Rebind the same combinatorial cover to another metric on the same points.

        The tiles and the metric-free caches (members, membership, meets,
        reach) are shared with this cover; the metric caches (diameters and
        nearest separated distances) start afresh.
        """
        if space.n != self.n_points:
            raise ValueError("point counts differ")
        bound = copy.copy(self)
        bound.space = space
        bound._diams = {}
        bound._nearest_separated = {}
        return bound

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n_points,
            "width": self.width,
            "lambda": self.visual_parameter,
            "levels": [
                [t.members.tolist() for t in fam] for fam in self.levels
            ],
        }

    @classmethod
    def from_dict(cls, data: dict, space: FiniteMetricSpace | None) -> "CoverSequence":
        """The cover ``to_dict`` wrote; ValueError when ``data`` is not of that shape."""
        if not isinstance(data, dict):
            raise ValueError(f"a cover is a JSON object, got {type(data).__name__}")
        levels, width, lam = data.get("levels"), data.get("width", 0), data.get("lambda")
        if not (isinstance(levels, list) and all(
            isinstance(fam, list)
            and all(isinstance(t, list) and all(type(i) is int for i in t) for t in fam)
            for fam in levels
        )):
            raise ValueError("a cover holds 'levels': a list of levels, each a list of tiles, "
                             "each a list of point indices")
        if type(width) is not int or not (lam is None or type(lam) in (int, float)):
            raise ValueError(f"a cover's width is an integer and its lambda a number or null, "
                             f"got {width!r} and {lam!r}")
        if space is not None and data.get("n") not in (None, space.n):
            raise ValueError("cover was built for a different point count")
        cover = cls(space, levels, width=width, visual_parameter=lam)
        if data.get("n") not in (None, cover.n_points):
            raise ValueError("cover was built for a different point count")
        return cover


# -- reports ---------------------------------------------------------------


@dataclass
class ConditionRecord:
    condition: str
    constant: float | None
    threshold: float | None
    verdict: str  # PASS | FAIL | NA
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "constant": self.constant,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "witness": self.witness,
            "details": self.details,
        }


@dataclass
class VerificationReport:
    """Per-condition empirical constants with verdicts against thresholds."""

    mode: str
    width: int
    truncation: int
    conditions: list[ConditionRecord]
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.verdict != "FAIL" for c in self.conditions)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "width": self.width,
            "truncation": self.truncation,
            "passed": self.passed,
            "conditions": [c.to_dict() for c in self.conditions],
            "params": self.params,
            "notes": [FINITE_COVER_NOTE],
        }


def check_thresholds(data) -> dict:
    """``data`` if it maps names in THRESHOLD_KEYS to numbers, else ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"thresholds must be a JSON object, got {type(data).__name__}")
    for key, value in data.items():
        if key not in THRESHOLD_KEYS:
            raise ValueError(f"unknown threshold {key!r}; known: {', '.join(THRESHOLD_KEYS)}")
        if type(value) not in (int, float) or value != value:  # NaN != NaN
            raise ValueError(f"threshold {key!r} must be a number, got {value!r}")
    return data


def _threshold(thresholds: dict | None, key: str) -> float:
    return float((thresholds or {}).get(key, DEFAULT_THRESHOLD))


class WorstCase:
    """The worst value of a condition over a scan, and the witness of where it
    first occurs.

    Starts at ``floor``.  Each ``offer`` takes the row-major first maximum of
    ``values`` over the mask ``where`` and keeps it only when it strictly
    beats the value so far, so the witness is the first worst case in scan
    order.  NaN entries (a 0/0 ratio) are masked out: they are no violation,
    and a worse entry elsewhere in the offer still wins.
    """

    def __init__(self, floor: float):
        self.value = float(floor)
        self.witness: dict | None = None

    def offer(self, values: np.ndarray, where: np.ndarray | None = None) -> tuple[int, ...] | None:
        """The index of the new worst case, or None when the offer keeps nothing."""
        keep = ~np.isnan(values)
        if where is not None:
            keep &= where
        values = np.where(keep, values, -np.inf)
        at = np.unravel_index(int(np.argmax(values)), values.shape)
        if not values[at] > self.value:
            return None
        self.value = float(values[at])
        return tuple(int(i) for i in at)


def _ratio_record(
    name: str, worst: WorstCase, threshold: float, details: dict | None = None
) -> ConditionRecord:
    finite = bool(np.isfinite(worst.value))
    return ConditionRecord(
        condition=name,
        constant=worst.value if finite else None,
        threshold=threshold,
        verdict="PASS" if finite and worst.value <= threshold else "FAIL",
        witness=worst.witness,
        details=details or {},
    )


def _offer_separated(
    worst: WorstCase, cover: CoverSequence, level: int, num: float | np.ndarray
) -> tuple[int, int, float] | None:
    """Offer ``worst`` the ratios num[a] / dist(X_a, X_b) of a level's
    U_w-separated pairs (a, b), with num >= 0 per tile or one for all; return
    the new worst pair and its distance, or None when the offer keeps nothing.

    Correctly rounded division is monotone, so the largest ratio of row a is
    num[a] / ``nearest_separated``[a] (x / 0 is inf, and a 0/0 row is no
    violation); the worst row is the first to reach the largest of these.
    Its witness b is the first separated b whose ratio rounds to that value,
    which need not be the nearest one, read from that row of
    ``pair_distances`` alone.
    """
    if not (sep := cover.separated(level)).any():
        return None
    near = cover.nearest_separated(level)
    num = np.broadcast_to(num, near.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        if (at := worst.offer(num / near, where=near < np.inf)) is None:
            return None
        a = at[0]
        row = cover.pair_distances(level, [a])[0]
        b = int(np.argmax(sep[a] & (num[a] / row == worst.value)))
    return a, b, float(row[b])


def verify_visual(cover: CoverSequence, thresholds: dict | None = None) -> VerificationReport:
    """Check diam(X) ~ L^-n and separation dist(X,Y) >~ L^-n of U_w-separated pairs.

    Reports the exact best constants over the truncation:
      C1 = max over tiles of max(diam(X) L^n, L^-n / diam(X)),
      C2 = max over U_w-separated same-level pairs of L^-n / dist(X, Y).

    C2 is scanned per tile, as L^-n over its ``nearest_separated`` distance,
    and reads the set distances of its witness row alone.
    """
    if cover.visual_parameter is None:
        raise MissingLambda("visual verification requires the cover's visual parameter")
    lam = cover.visual_parameter
    c1, c2 = WorstCase(0.0), WorstCase(0.0)
    for lev in range(cover.depth + 1):
        scale = lam ** (-lev)
        diams = cover.diams(lev)
        if (at := c1.offer(np.maximum(diams / scale, _diam_ratio(scale, diams)))) is not None:
            c1.witness = {"tile": [lev, at[0]], "diam": float(diams[at])}
        if (at := _offer_separated(c2, cover, lev, scale)) is not None:
            c2.witness = {"tiles": [[lev, at[0]], [lev, at[1]]], "dist": at[2]}
    report = VerificationReport(
        mode="visual",
        width=cover.width,
        truncation=cover.depth,
        conditions=[
            _ratio_record("visual.diam", c1, _threshold(thresholds, "visual.diam")),
            _ratio_record("visual.separation", c2, _threshold(thresholds, "visual.separation")),
        ],
        params={"lambda": lam, "n_points": cover.n_points},
    )
    return report


def _diam_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den for tile diameters, with 0/0 read as 1 and x/0 as inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0, np.where(num == 0, 1.0, np.inf), num / den)


def _comparability(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(a / b, b / a) for tile diameters: how far apart two diameters are."""
    return np.maximum(_diam_ratio(a, b), _diam_ratio(b, a))


def verify_quasi_visual(cover: CoverSequence, thresholds: dict | None = None) -> VerificationReport:
    """Check the four scale-free cover conditions and extract best constants.

    (i)   diam(X) ~ diam(Y) for intersecting same-level pairs;
    (ii)  dist(X,Y) >~ diam(X) for U_w-separated same-level pairs;
    (iii) diam comparability across consecutive levels for intersecting tiles;
    (iv)  the smallest k0 with max diam(Y)/diam(X) <= DEFAULT_SHRINK_LAMBDA
          over intersecting pairs X in X^n, Y in X^{n+k0}.

    (ii) is scanned per tile, as diam(X) over its ``nearest_separated``
    distance, and reads the set distances of its witness row alone.
    """
    qv1, qv2, qv3 = WorstCase(1.0), WorstCase(0.0), WorstCase(1.0)
    c3_by_pair: dict[str, float] = {}
    for lev, fam in enumerate(cover.levels):
        diams = cover.diams(lev)
        if len(fam) > 1:
            # distinct meeting tiles in row-major order; one-sided: (b, a) holds the inverse
            a, b = np.nonzero(cover.meets(lev, lev) & ~np.eye(len(fam), dtype=bool))
            if a.size and (at := qv1.offer(_diam_ratio(diams[a], diams[b]))) is not None:
                qv1.witness = {"tiles": [[lev, int(a[at])], [lev, int(b[at])]], "ratio": qv1.value}
            if (at := _offer_separated(qv2, cover, lev, diams)) is not None:
                qv2.witness = {"tiles": [[lev, at[0]], [lev, at[1]]], "ratio": qv2.value}
        a, b = np.nonzero(cover.meets(lev, lev + 1)) if lev < cover.depth else ((), ())
        if len(a):
            ratio = _comparability(diams[a], cover.diams(lev + 1)[b])
            c3_by_pair[f"{lev},{lev + 1}"] = float(ratio.max())
            if (at := qv3.offer(ratio)) is not None:
                qv3.witness = {"tiles": [[lev, int(a[at])], [lev + 1, int(b[at])]],
                               "ratio": qv3.value, "level_pair": [lev, lev + 1]}
    # condition (iv): smallest k0 with contraction <= DEFAULT_SHRINK_LAMBDA
    gap_max = _cross_level_gap_ratios(cover)[0]
    k0 = None
    achieved = None
    for k in range(1, cover.depth + 1):
        if k in gap_max and gap_max[k] <= DEFAULT_SHRINK_LAMBDA:
            k0, achieved = k, gap_max[k]
            break
    cond_iv = ConditionRecord(
        condition="qv.iv",
        constant=achieved,
        threshold=DEFAULT_SHRINK_LAMBDA,
        verdict="PASS" if k0 is not None else "FAIL",
        witness=None if k0 is not None else {"gap_ratios": {str(k): v for k, v in gap_max.items()}},
        details={"k0": k0, "lambda": achieved},
    )
    report = VerificationReport(
        mode="quasi-visual",
        width=cover.width,
        truncation=cover.depth,
        conditions=[
            _ratio_record("qv.i", qv1, _threshold(thresholds, "qv.i")),
            _ratio_record("qv.ii", qv2, _threshold(thresholds, "qv.ii")),
            _ratio_record("qv.iii", qv3, _threshold(thresholds, "qv.iii"),
                          details={"by_level_pair": c3_by_pair}),
            cond_iv,
        ],
        params={"n_points": cover.n_points},
    )
    return report


def _cross_level_gap_ratios(
    cover: CoverSequence, resolved: list[np.ndarray] | None = None
) -> tuple[dict[int, float], dict[int, float]]:
    """Per level-gap k, the max and min of diam(Y)/diam(X) over intersecting
    pairs X in X^n, Y in X^{n+k} with diam(X) > 0.  With ``resolved`` masks,
    only pairs of resolved tiles enter."""
    gap_max: dict[int, float] = {}
    gap_min: dict[int, float] = {}
    for n in range(cover.depth + 1):
        d_up = cover.diams(n)
        for m in range(n + 1, cover.depth + 1):
            k = m - n
            a, b = np.nonzero(cover.meets(n, m))
            ok = d_up[a] > 0
            if resolved is not None:
                ok &= resolved[n][a] & resolved[m][b]
            if not ok.any():
                continue
            vals = cover.diams(m)[b[ok]] / d_up[a[ok]]
            gap_max[k] = max(gap_max.get(k, 0.0), float(vals.max()))
            gap_min[k] = min(gap_min.get(k, np.inf), float(vals.min()))
    return gap_max, gap_min


@dataclass(frozen=True)
class DecayRates:
    """Fitted geometric decay of tile diameters along nested levels.

    rho bounds shrinkage from above (diam Y <= C rho^k diam X), tau from below
    (diam Y >= tau^k diam X), and nu = log(1/rho)/log(1/tau) in (0,1].
    """

    rho: float
    tau: float
    nu: float
    C: float

    def to_dict(self) -> dict:
        return {"rho": self.rho, "tau": self.tau, "nu": self.nu, "C": self.C}


def _log_slope(ks: np.ndarray, logs: np.ndarray) -> float:
    if ks.size == 1:
        return float(logs[0] / ks[0])
    a, _b = np.polyfit(ks, logs, 1)
    return float(a)


RESOLUTION_FLOOR_NN = 3.0


def _resolved_tile_masks(cover: CoverSequence) -> list[np.ndarray]:
    """Per level, the tiles usable for rate fits: diameter at least a few
    local nearest-neighbor distances of their members, so that the measured
    diameter is not dominated by discretization error.  Level 0 is always
    excluded (the root carries the global diameter, not a scale rung)."""
    floor = RESOLUTION_FLOOR_NN * cover.space.nearest_neighbor_distances()
    masks = [np.zeros(1, dtype=bool)]
    for lev in range(1, cover.depth + 1):
        tile, point = cover.incidence(lev)
        mask = np.bincount(tile) >= 2
        # fl(3x) is monotone in x, so diam >= fl(3 max nn) exactly when no
        # member has fl(3 nn) > diam
        mask[tile[floor[point] > cover.diams(lev)[tile]]] = False
        masks.append(mask)
    return masks


def derive_rho_tau_nu(cover: CoverSequence) -> DecayRates:
    """Fit the per-level-gap diameter decay envelopes by log-linear regression.

    The slope of the max envelope gives rho, of the min envelope tau; C is the
    smallest constant making the rho-bound hold over all observed gaps.  The
    slopes are the asymptotic decay rates, so constant offsets (and the
    resolution-limited tiles, which are dropped) land in C rather than in rho.
    """
    masks = _resolved_tile_masks(cover)
    gap_max, gap_min = _cross_level_gap_ratios(cover, resolved=masks)
    if not gap_max:
        gap_max, gap_min = _cross_level_gap_ratios(cover)
    if not gap_max:
        raise FitFailure("no intersecting cross-level pairs with positive diameter")
    zero = [k for k in sorted(gap_max) if gap_max[k] == 0.0]
    if zero:
        raise FitFailure(
            f"max diameter ratio is 0 at level gap {zero[0]}: every tile that meets a tile of "
            f"positive diameter {zero[0]} level(s) above it has diameter 0, so no decay rate "
            "can be fitted"
        )
    ks = np.array(sorted(gap_max), dtype=float)
    log_max = np.log([gap_max[int(k)] for k in ks])
    log_min = np.log([max(gap_min[int(k)], 1e-300) for k in ks])
    rho = float(np.exp(_log_slope(ks, log_max)))
    tau = float(np.exp(_log_slope(ks, log_min)))
    if not np.isfinite(rho):
        raise FitFailure(f"rho fit is not finite ({rho!r}) over level gaps {ks.astype(int).tolist()}")
    if rho >= 1.0 - 1e-9:
        raise FitFailure(f"no decay rate below 1 within truncation (rho fit {rho!r})")
    tau = min(tau, rho)  # 0 < tau <= rho < 1 by theory; clamp fit noise
    C = max(1.0, float(np.exp(np.max(log_max - ks * np.log(rho)))))
    nu = np.log(1.0 / rho) / np.log(1.0 / tau) if tau < 1.0 else 1.0
    nu = min(max(nu, 1e-9), 1.0)
    return DecayRates(rho=rho, tau=tau, nu=float(nu), C=C)


def quasiball_check(cover: CoverSequence) -> tuple[float, float]:
    """Largest r0 and smallest R0 with B(x, r0 diam X) <= U_{2w+1}(X) <= B(x, R0 diam X).

    Scanned over every tile X and member x; tiles of diameter 0 are skipped
    (the visual verifier reports them).  When no inner constraint exists
    anywhere (U_{2w+1}(X) is the whole space for every tile), the vacuous
    inner inclusion collapses to the outer constant.
    """
    d = cover.space.dist
    r0 = np.inf
    R0 = 0.0
    for lev in range(cover.depth + 1):
        diams = cover.diams(lev)
        pos = diams > 0
        members = cover.members(lev)
        hood = cover.hood(lev).T  # the points of U_{2w+1}(X), per tile X
        inside = tile_reduce(d, members, np.maximum).max(axis=1, where=hood, initial=0.0)
        outside = tile_reduce(d, members, np.minimum).min(axis=1, where=~hood, initial=np.inf)
        R0 = max(R0, float((inside[pos] / diams[pos]).max(initial=0.0)))
        r0 = min(r0, float((outside[pos] / diams[pos]).min(initial=np.inf)))
    if not np.isfinite(r0):
        r0 = R0
    return float(r0), float(R0)
