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
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyTile, FitFailure, MissingLambda
from .metricspace import FiniteMetricSpace

DEFAULT_THRESHOLD = 64.0
THRESHOLD_KEYS = ("visual.diam", "visual.separation", "qv.i", "qv.ii", "qv.iii")
DEFAULT_SHRINK_LAMBDA = 0.95  # target contraction for the condition-(iv) search

FINITE_COVER_NOTE = (
    "finite truncation: all families are finite and every 'for all n' claim "
    "is certified only up to the stated truncation depth"
)


@dataclass(frozen=True)
class Tile:
    """A tile: a non-empty subset of the point set, living at a level."""

    level: int
    index: int
    members: frozenset[int]

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    every tile is non-empty, and each level covers the point set.
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
        n = space.n if space is not None else len(set().union(*levels[0])) if levels else 0
        all_points = frozenset(range(n))
        self.levels: list[list[Tile]] = []
        for lev, fam in enumerate(levels):
            tiles = []
            union: set[int] = set()
            for idx, members in enumerate(fam):
                ms = frozenset(int(i) for i in members)
                if not ms:
                    raise EmptyTile(f"empty tile at level {lev}, index {idx}")
                if not ms <= all_points:
                    raise ValueError(f"tile at level {lev} references unknown points")
                tiles.append(Tile(level=lev, index=idx, members=ms))
                union |= ms
            if union != all_points:
                missing = sorted(all_points - union)[:5]
                raise ValueError(f"level {lev} is not a cover; misses points {missing}")
            self.levels.append(tiles)
        if not self.levels:
            raise ValueError("need at least level 0")
        if len(self.levels[0]) != 1 or self.levels[0][0].members != all_points:
            raise ValueError("level 0 must consist of the single whole-space tile")
        self._members: dict[int, tuple[np.ndarray, ...]] = {}
        self._membership: dict[int, np.ndarray] = {}
        self._meets: dict[tuple[int, int], np.ndarray] = {}
        self._diams: dict[int, np.ndarray] = {}
        self._reach: dict[tuple[int, int], np.ndarray] = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def depth(self) -> int:
        """Truncation depth N (largest level present)."""
        return len(self.levels) - 1

    @property
    def n_points(self) -> int:
        return len(self.levels[0][0].members)

    def members(self, level: int) -> tuple[np.ndarray, ...]:
        """Per tile of one level, its members as a sorted int64 array; cached
        and read-only.  Reductions over members never depend on their order."""
        if level not in self._members:
            self._members[level] = tuple(
                _read_only(np.sort(np.fromiter(t.members, dtype=np.int64, count=len(t.members))))
                for t in self.levels[level]
            )
        return self._members[level]

    def membership(self, level: int) -> np.ndarray:
        """Boolean (n_tiles, n_points) membership matrix for one level; cached
        and read-only."""
        if level not in self._membership:
            members = self.members(level)
            m = np.zeros((len(members), self.n_points), dtype=bool)
            for i, idx in enumerate(members):
                m[i, idx] = True
            self._membership[level] = _read_only(m)
        return self._membership[level]

    def meets(self, n: int, m: int) -> np.ndarray:
        """Boolean matrix of intersecting pairs X in X^n, Y in X^m; cached and
        read-only.  ``meets(n, n)`` is the same-level intersection graph."""
        key = (n, m)
        if key not in self._meets:
            self._meets[key] = _read_only(bool_product(self.membership(n), self.membership(m).T))
        return self._meets[key]

    def diams(self, level: int) -> np.ndarray:
        """Tile diameters at one level, under the bound space's metric."""
        if level not in self._diams:
            far = tile_reduce(self.space.dist, self.members(level), np.maximum)
            self._diams[level] = far.max(axis=1, where=self.membership(level), initial=0.0)
        return self._diams[level]

    def reach_within(self, level: int, length: int) -> np.ndarray:
        """Tile pairs joined by a chain of at most ``length`` same-level tiles.

        Cached per (level, length) and read-only.
        """
        key = (level, length)
        if key not in self._reach:
            adj = self.meets(level, level)  # diagonal True, so reach only grows
            reach = bool_product(np.eye(len(adj), dtype=bool), *[adj] * length)
            self._reach[key] = _read_only(reach)
        return self._reach[key]

    def separated(self, level: int) -> np.ndarray:
        """Same-level tile pairs that are U_w-separated: no chain of at most
        2w + 1 tiles joins them, so U_w(X) and U_w(Y) are disjoint."""
        return ~self.reach_within(level, 2 * self.width + 1)

    def pair_distances(self, level: int) -> np.ndarray:
        """Matrix of set distances dist(X, Y) between same-level tiles."""
        return tile_pair_reduce(self.space.dist, self.members(level), np.minimum)

    def with_space(self, space: FiniteMetricSpace) -> "CoverSequence":
        """Rebind the same combinatorial cover to another metric on the same points.

        The tiles and the metric-free caches (members, membership, meets,
        reach) are shared with this cover; only the diameters start afresh.
        """
        if space.n != self.n_points:
            raise ValueError("point counts differ")
        bound = copy.copy(self)
        bound.space = space
        bound._diams = {}
        return bound

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n_points,
            "width": self.width,
            "lambda": self.visual_parameter,
            "levels": [
                [list(t.sorted_members()) for t in fam] for fam in self.levels
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

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path, space: FiniteMetricSpace | None) -> "CoverSequence":
        with open(path) as fh:
            return cls.from_dict(json.load(fh), space)


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
    notes: list[str] = field(default_factory=lambda: [FINITE_COVER_NOTE])

    @property
    def passed(self) -> bool:
        return all(c.verdict != "FAIL" for c in self.conditions)

    def condition(self, name: str) -> ConditionRecord:
        for c in self.conditions:
            if c.condition == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "width": self.width,
            "truncation": self.truncation,
            "passed": self.passed,
            "conditions": [c.to_dict() for c in self.conditions],
            "params": self.params,
            "notes": self.notes,
        }


def load_thresholds(path) -> dict:
    """Read a thresholds file: a JSON object mapping names in THRESHOLD_KEYS to numbers."""
    with open(path) as fh:
        data = json.load(fh)
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


def verify_visual(cover: CoverSequence, thresholds: dict | None = None) -> VerificationReport:
    """Check diam(X) ~ L^-n and separation dist(X,Y) >~ L^-n of U_w-separated pairs.

    Reports the exact best constants over the truncation:
      C1 = max over tiles of max(diam(X) L^n, L^-n / diam(X)),
      C2 = max over U_w-separated same-level pairs of L^-n / dist(X, Y).
    """
    if cover.visual_parameter is None:
        raise MissingLambda("visual verification requires the cover's visual parameter")
    lam = cover.visual_parameter
    c1, c2 = WorstCase(0.0), WorstCase(0.0)
    for lev, fam in enumerate(cover.levels):
        scale = lam ** (-lev)
        diams = cover.diams(lev)
        if (at := c1.offer(np.maximum(diams / scale, _diam_ratio(scale, diams)))) is not None:
            c1.witness = {"tile": [lev, at[0]], "diam": float(diams[at])}
        if len(fam) > 1 and (sep := cover.separated(lev)).any():
            dists = cover.pair_distances(lev)
            with np.errstate(divide="ignore"):
                at = c2.offer(scale / dists, where=sep)
            if at is not None:
                c2.witness = {"tiles": [[lev, at[0]], [lev, at[1]]], "dist": float(dists[at])}
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
    """
    qv1, qv2, qv3 = WorstCase(1.0), WorstCase(0.0), WorstCase(1.0)
    c3_by_pair: dict[str, float] = {}
    for lev, fam in enumerate(cover.levels):
        diams = cover.diams(lev)
        if len(fam) > 1:
            adj = cover.meets(lev, lev) & ~np.eye(len(fam), dtype=bool)
            ratio = _diam_ratio(diams[:, None], diams)  # one-sided; (j, i) holds the inverse
            if adj.any() and (at := qv1.offer(ratio, where=adj)) is not None:
                qv1.witness = {"tiles": [[lev, at[0]], [lev, at[1]]], "ratio": qv1.value}
            if (sep := cover.separated(lev)).any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    at = qv2.offer(diams[:, None] / cover.pair_distances(lev), where=sep)
                if at is not None:
                    qv2.witness = {"tiles": [[lev, at[0]], [lev, at[1]]], "ratio": qv2.value}
        if lev < cover.depth and (inter := cover.meets(lev, lev + 1)).any():
            ratio = _comparability(diams[:, None], cover.diams(lev + 1))
            c3_by_pair[f"{lev},{lev + 1}"] = float(ratio.max(where=inter, initial=0.0))
            if (at := qv3.offer(ratio, where=inter)) is not None:
                qv3.witness = {"tiles": [[lev, at[0]], [lev + 1, at[1]]], "ratio": qv3.value,
                               "level_pair": [lev, lev + 1]}
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
            ok = cover.meets(n, m) & (d_up[:, None] > 0)
            if resolved is not None:
                ok &= resolved[n][:, None] & resolved[m][None, :]
            if not ok.any():
                continue
            d_dn = cover.diams(m)
            ratio = d_dn[None, :] / np.where(d_up[:, None] > 0, d_up[:, None], 1.0)
            vals = ratio[ok]
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
    local_nn = cover.space.nearest_neighbor_distances()[:, None]
    masks = [np.zeros(1, dtype=bool)]
    for lev in range(1, cover.depth + 1):
        coarsest = tile_reduce(local_nn, cover.members(lev), np.maximum)[:, 0]
        masks.append(
            (cover.membership(lev).sum(axis=1) >= 2)
            & (cover.diams(lev) >= RESOLUTION_FLOOR_NN * coarsest)
        )
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
    ks = np.array(sorted(gap_max), dtype=float)
    log_max = np.log([gap_max[int(k)] for k in ks])
    log_min = np.log([max(gap_min[int(k)], 1e-300) for k in ks])
    rho = float(np.exp(_log_slope(ks, log_max)))
    tau = float(np.exp(_log_slope(ks, log_min)))
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
        # the points of U_{2w+1}(X), per tile X
        hood = bool_product(~cover.separated(lev), cover.membership(lev))
        inside = tile_reduce(d, members, np.maximum).max(axis=1, where=hood, initial=0.0)
        outside = tile_reduce(d, members, np.minimum).min(axis=1, where=~hood, initial=np.inf)
        R0 = max(R0, float((inside[pos] / diams[pos]).max(initial=0.0)))
        r0 = min(r0, float((outside[pos] / diams[pos]).min(initial=np.inf)))
    if not np.isfinite(r0):
        r0 = R0
    return float(r0), float(R0)
