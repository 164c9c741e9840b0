"""Canonical sample spaces and their cover sequences.

Each fixture returns a sampled space truncated at a chosen resolution plus
its standard cover sequence.  Tile membership is computed combinatorially
(interval indices, address prefixes), never by floating-point containment
tests, so the covers are exact on the sample.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .covers import CoverSequence, check_depth
from .errors import UnknownFixture
from .metricspace import FiniteMetricSpace

FIXTURE_NAMES = (
    "cantor",
    "interval_dyadic",
    "tree_example_3_7",
    "dyadic_interleaved",
    "sierpinski_gasket",
)


def grid_space(num_points: int = 101) -> FiniteMetricSpace:
    """Uniform grid sample of the unit interval."""
    xs = np.linspace(0.0, 1.0, num_points)
    return FiniteMetricSpace(dist=np.abs(xs[:, None] - xs[None, :]), coords=xs[:, None])


def _prefix_levels(words: list[tuple], lengths) -> list[list[list[int]]]:
    """The whole index set, then per prefix length k the indices of ``words``
    grouped by their first k letters, groups in ascending prefix order."""
    levels = [[list(range(len(words)))]]
    for k in lengths:
        fam: dict[tuple, list[int]] = {}
        for i, w in enumerate(words):
            fam.setdefault(w[:k], []).append(i)
        levels.append([v for _k, v in sorted(fam.items())])
    return levels


def _dyadic_intervals(sample_exp: int, n: int) -> list[range]:
    """The 2^n closed dyadic intervals of level n, as index ranges of the
    2^E + 1 grid points, E = ``sample_exp``."""
    step = 2 ** (sample_exp - n)
    return [range(j * step, (j + 1) * step + 1) for j in range(2 ** n)]


def cantor_fixture(depth: int = 4, sample_depth: int = 6) -> tuple[FiniteMetricSpace, CoverSequence]:
    """Ternary Cantor set sampled by all endpoints of the level-``sample_depth``
    construction intervals; tiles at level n are the 2^n ternary intervals.

    ``depth`` may exceed ``sample_depth`` by one, in which case the deepest
    tiles are singletons (useful for truncation experiments; such a cover no
    longer satisfies the diameter condition).
    """
    check_depth(depth)
    check_depth(sample_depth, "sample_depth")
    if depth > sample_depth + 1:
        raise ValueError("depth may exceed sample_depth by at most 1")
    addresses = list(itertools.product((0, 2), repeat=sample_depth))
    points = []  # (integer coord in units 3^-M, extended address)
    for a in addresses:
        left = sum(d * 3 ** (sample_depth - i - 1) for i, d in enumerate(a))
        points.append((left, a + (0,)))
        points.append((left + 1, a + (2,)))
    points.sort()
    coords = np.array([p[0] for p in points], dtype=float) * 3.0 ** (-sample_depth)
    ext = [p[1] for p in points]
    space = FiniteMetricSpace(
        dist=np.abs(coords[:, None] - coords[None, :]), coords=coords[:, None]
    )
    cover = CoverSequence(space, _prefix_levels(ext, range(1, depth + 1)), width=0,
                          visual_parameter=3.0)
    return space, cover


def interval_dyadic_fixture(
    depth: int = 4, sample_exp: int = 7
) -> tuple[FiniteMetricSpace, CoverSequence]:
    """Unit interval on a 2^E + 1 grid covered by closed dyadic intervals."""
    check_depth(depth)
    check_depth(sample_exp, "sample_exp")
    if depth > sample_exp:
        raise ValueError("depth must not exceed sample_exp")
    space = grid_space(2 ** sample_exp + 1)
    levels = [_dyadic_intervals(sample_exp, n) for n in range(depth + 1)]
    cover = CoverSequence(space, levels, width=0, visual_parameter=2.0)
    return space, cover


def tree_fixture(depth: int = 4) -> tuple[FiniteMetricSpace, CoverSequence]:
    """Boundary of the growing rooted tree: sequences x_i in {0..i}, truncated.

    Points are all admissible prefixes (x_1, ..., x_D) extended by zeros; the
    ultrametric is d(x,y) = 2^-m with m the first disagreement index, which is
    exact on this subset.  Level-n tiles collect the points sharing their
    first n-1 coordinates, so the width-0 proximity function of the cover
    equals m exactly on all pairs certified below the truncation.
    """
    check_depth(depth)
    seqs = list(itertools.product(*[range(i + 2) for i in range(depth)]))
    arr = np.array(seqs, dtype=np.int64)  # coordinates x_1..x_D
    agree = arr[:, None, :] == arr[None, :, :]
    # first disagreement index (1-based); equal rows handled separately
    first = np.where(~agree, np.arange(1, depth + 1), depth + 2).min(axis=2, initial=depth + 2)
    dist = np.where(first <= depth, 2.0 ** (-first.astype(float)), 0.0)
    np.fill_diagonal(dist, 0.0)
    space = FiniteMetricSpace(dist=dist, coords=arr)
    cover = CoverSequence(space, _prefix_levels(seqs, range(depth)), width=0,
                          visual_parameter=2.0)
    return space, cover


def dyadic_interleaved_fixture(
    k_max: int = 3, sample_exp: int = 8
) -> tuple[FiniteMetricSpace, CoverSequence]:
    """The interleaved dyadic cover of [0,1]: X^{2k} = I^k and X^{2k+1} = I^{2k}.

    Its tile graph is still Gromov hyperbolic, but the sequence fails the
    consecutive-level diameter comparability with witness ratio 2^k at the
    level pair (2k, 2k+1).
    """
    check_depth(k_max, "k_max")
    check_depth(sample_exp, "sample_exp")
    if 2 * k_max > sample_exp:
        raise ValueError("need sample_exp >= 2*k_max")
    space = grid_space(2 ** sample_exp + 1)
    levels = [_dyadic_intervals(sample_exp, n) for k in range(k_max + 1) for n in (k, 2 * k)]
    cover = CoverSequence(space, levels, width=0, visual_parameter=None)
    return space, cover


def sierpinski_fixture(
    depth: int = 3, sample_depth: int = 4
) -> tuple[FiniteMetricSpace, CoverSequence]:
    """Sierpinski gasket sampled by the vertices of the level-``sample_depth``
    triangles; level-n tiles are the 3^n triangles of the construction."""
    check_depth(depth)
    check_depth(sample_depth, "sample_depth")
    if depth > sample_depth:
        raise ValueError("depth must not exceed sample_depth")
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    index_of: dict[tuple[int, int], int] = {}
    coords: list[np.ndarray] = []
    tiles_at: dict[tuple, set[int]] = {}

    def key(p: np.ndarray) -> tuple[int, int]:
        return (round(p[0] * 2 ** (sample_depth + 20)), round(p[1] * 2 ** (sample_depth + 20)))

    for addr in itertools.product(range(3), repeat=sample_depth):
        # address prefix = outermost map, so prefixes give nested triangles
        tri = corners.copy()
        for a in reversed(addr):
            tri = (tri + corners[a]) / 2.0
        ids = []
        for p in tri:
            k = key(p)
            if k not in index_of:
                index_of[k] = len(coords)
                coords.append(p)
            ids.append(index_of[k])
        for n in range(depth + 1):
            tiles_at.setdefault(addr[:n], set()).update(ids)
    pts = np.array(coords)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    space = FiniteMetricSpace(dist=dist, coords=pts)
    levels: list[list[tuple[int, ...]]] = []
    for n in range(depth + 1):
        fam = [tuple(sorted(tiles_at[p])) for p in sorted(k for k in tiles_at if len(k) == n)]
        levels.append(fam)
    cover = CoverSequence(space, levels, width=0, visual_parameter=2.0)
    return space, cover


def fixture(name: str, **params) -> tuple[FiniteMetricSpace, CoverSequence]:
    """Dispatch by fixture name; see FIXTURE_NAMES."""
    builders = {
        "cantor": cantor_fixture,
        "interval_dyadic": interval_dyadic_fixture,
        "tree_example_3_7": tree_fixture,
        "dyadic_interleaved": dyadic_interleaved_fixture,
        "sierpinski_gasket": sierpinski_fixture,
    }
    if name not in builders:
        raise UnknownFixture(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    return builders[name](**params)
