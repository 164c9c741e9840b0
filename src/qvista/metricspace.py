"""Finite bounded metric spaces: validation, separated nets, and geometry probes.

A space is a point set {0..n-1} with a dense symmetric distance matrix.  All
probes work directly on the matrix; nothing here assumes coordinates exist.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

TRIANGLE_SLACK = 1e-9  # additive slack absorbing float noise in generated matrices
PERFECTNESS_RATIO = 1.1  # ratio of the perfectness probe's geometric radius grid


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space (S, d) given by its distance matrix.

    ``coords`` is optional bookkeeping (plane / sphere coordinates, etc.) used
    to generate ``dist``; it never enters any computation here.
    """

    dist: np.ndarray
    coords: np.ndarray | None = None
    labels: tuple[str, ...] | None = None
    _nn: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("distance matrix must have finite entries")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "dist", d)
        if self.coords is not None:
            c = np.asarray(self.coords)
            c.flags.writeable = False
            object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    def min_positive_distance(self) -> float:
        if self.n < 2:
            return 0.0
        off = self.dist[~np.eye(self.n, dtype=bool)]
        pos = off[off > 0]
        return float(pos.min()) if pos.size else 0.0

    def nearest_neighbor_distances(self) -> np.ndarray:
        """Per point, the distance to its nearest distinct point (zeros when
        n < 2); computed once per space and read-only."""
        if self._nn is None:
            if self.n < 2:
                nn = np.zeros(self.n)
            else:
                nn = (self.dist + np.diag(np.full(self.n, np.inf))).min(axis=1)
            nn.flags.writeable = False
            object.__setattr__(self, "_nn", nn)
        return self._nn

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"n": self.n, "dist": [[float(v) for v in row] for row in self.dist]}
        if self.coords is not None:
            out["coords"] = np.asarray(self.coords).tolist()
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteMetricSpace":
        """The space ``to_dict`` wrote; ValueError when ``data`` is not of that shape."""
        if not isinstance(data, dict):
            raise ValueError(f"a space is a JSON object, got {type(data).__name__}")
        if not isinstance(data.get("labels", []), (list, type(None))):
            raise ValueError(f"a space's labels are a list, got {data['labels']!r}")
        dist = np.asarray(data["dist"], dtype=float)
        if dist.shape != (data["n"], data["n"]):
            raise ValueError("dist shape does not match declared n")
        coords = np.asarray(data["coords"]) if data.get("coords") is not None else None
        labels = tuple(data["labels"]) if data.get("labels") is not None else None
        return cls(dist=dist, coords=coords, labels=labels)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FiniteMetricSpace":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class Net:
    """A delta-separated subset of the point set."""

    delta: float
    members: tuple[int, ...]


def validate_metric(space: FiniteMetricSpace) -> tuple[str, tuple[int, ...]] | None:
    """The first violated metric axiom and its witness, or None when all hold.

    The axiom is NonZeroDiagonal (i,), NegativeEntry (i, j), ZeroOffDiagonal
    (i, j) or TriangleViolation (i, j, k), scanned in that order (the
    triangle inequality by pivot k, then row-major).  Symmetry needs no scan:
    the constructor rejects a non-symmetric matrix.  Triangle checks tolerate
    an additive slack of 1e-9.
    """
    d = space.dist
    diag = np.abs(np.diag(d))
    if np.any(diag > 0):
        return "NonZeroDiagonal", (int(np.argmax(diag > 0)),)
    if np.any(d < 0):
        return "NegativeEntry", _first_true(d < 0)
    zero = (d == 0) & ~np.eye(space.n, dtype=bool)
    if np.any(zero):
        return "ZeroOffDiagonal", _first_true(zero)
    for k in range(space.n):
        bad = d > d[:, k][:, None] + d[k, :][None, :] + TRIANGLE_SLACK
        if np.any(bad):
            return "TriangleViolation", (*_first_true(bad), k)
    return None


def _first_true(mask: np.ndarray) -> tuple[int, int]:
    """The row-major first (i, j) where ``mask`` holds."""
    i, j = np.unravel_index(int(np.argmax(mask)), mask.shape)
    return int(i), int(j)


def maximal_separated_net(space: FiniteMetricSpace, delta: float) -> Net:
    """Greedy maximal delta-separated subset, scanning points in index order.

    Determinism matters more than cardinality here: reruns must reproduce the
    same net bit for bit.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    members = greedy_separated_subset(space.dist, range(space.n), delta)
    return Net(delta=float(delta), members=tuple(members))


def greedy_separated_subset(dist: np.ndarray, candidates: Iterable[int], delta: float) -> list[int]:
    """Keep each candidate i, in order, when dist[i, m] >= delta for every kept m.

    Row i is the candidate and column m the kept point, also when ``dist`` is
    not symmetric.  Candidates must be distinct.
    """
    blocked = np.zeros(dist.shape[0], dtype=bool)
    kept: list[int] = []
    for i in candidates:
        if not blocked[i]:
            kept.append(int(i))
            # i blocks each j with dist[j, i] < delta; ~(>=) also blocks NaN entries
            blocked |= ~(dist[:, i] >= delta)
    return kept


@dataclass(frozen=True)
class PerfectnessProbe:
    """Largest annulus constant certified on a finite radius grid.

    ``lambda_up`` is the supremum of constants for which every annulus
    {y : lam*r < d(x,y) <= r} over the scanned grid is non-empty.  The grid
    itself is part of the result; nothing is claimed below its first radius.
    """

    lambda_up: float
    grid: tuple[float, ...]
    witness: tuple[int, float] | None = None  # (center, radius) attaining the minimum


def uniform_perfectness_probe(space: FiniteMetricSpace) -> PerfectnessProbe:
    """Scan annuli over a geometric radius grid of ratio ``PERFECTNESS_RATIO``.

    The outer ball is taken closed so that the probe is meaningful at sample
    scale (at r = diam the extreme point itself witnesses the annulus), and
    per center the scan stops at the center's eccentricity, where the ball
    saturates.  The grid starts at the largest nearest-neighbor distance:
    below that radius some ball is a singleton and no finite sample can
    certify anything.  When every point coincides with another, that radius
    is 0 and no grid starts there: ValueError.
    """
    if space.n < 2:
        raise ValueError("need at least 2 points")
    d = space.dist
    r_lo = float(space.nearest_neighbor_distances().max())
    if r_lo == 0:
        pairs = np.argwhere(np.triu(d == 0, 1))[:5].tolist()
        raise ValueError(
            "every point coincides with another, so the perfectness probe has no positive "
            f"radius to start from; coincident pairs include {pairs}"
        )
    r_hi = space.diameter()
    grid = []
    r = r_lo
    while r < r_hi:
        grid.append(r)
        r *= PERFECTNESS_RATIO
    grid.append(r_hi)
    rows = np.sort(d, axis=1)  # row-sorted distances, rows[i][0] = 0
    ecc = rows[:, -1]
    best = np.inf
    witness = None
    for r in grid:
        # largest distance <= r per center
        pos = (rows <= r).sum(axis=1) - 1
        vals = rows[np.arange(space.n), pos]
        with np.errstate(invalid="ignore"):
            lam_max = np.where(ecc >= r, vals / r, np.inf)
        i = int(np.argmin(lam_max))
        if lam_max[i] < best:
            best = float(lam_max[i])
            witness = (i, float(r))
    return PerfectnessProbe(lambda_up=best, grid=tuple(grid), witness=witness)
