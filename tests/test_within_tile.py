"""The within-tile reductions and worst-case scans against the loops they replace.

Each oracle below is the loop a verifier ran before it was rebuilt on
``tile_reduce`` or ``WorstCase``; every constant and witness must come out
exactly equal, on the fixture covers, on a cover with zero-diameter tiles (the
inf paths), on a Julia cover and on random covers (whose coincident points
put NaN ratios in the scans).  The qv.ii oracle masks a 0/0 = NaN ratio out,
as ``WorstCase.offer`` does: a NaN first maximum used to hide an inf elsewhere
in the same level.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvista.boundary import boundary_metric, natural_geodesic
from qvista.covers import (
    RESOLUTION_FLOOR_NN,
    CoverSequence,
    WorstCase,
    _resolved_tile_masks,
    quasiball_check,
    tile_pair_reduce,
    tile_reduce,
    verify_quasi_visual,
    verify_visual,
)
from qvista.fixtures import fixture
from qvista.julia import RationalMap, admissible_cover, induce_tiles, julia_sample, pullback_cover
from qvista.metricspace import FiniteMetricSpace
from qvista.proximity import check_combinatorially_visual, compute_proximity
from qvista.spheregrid import SphereGrid
from qvista.tilegraph import build_tile_graph
from helpers import condition

# -- the per-tile loops ----------------------------------------------------------


def diams_oracle(cover, level):
    d = cover.space.dist
    return np.array(
        [d[np.ix_(idx, idx)].max() if idx.size > 1 else 0.0 for idx in cover.members(level)]
    )


def visual_diam_oracle(cover):
    """verify_visual's C1 scan: best constant and witness."""
    lam = cover.visual_parameter
    c1_best, c1_wit = 0.0, None
    for lev, fam in enumerate(cover.levels):
        scale = lam ** (-lev)
        diams = cover.diams(lev)
        for t in fam:
            dm = diams[t.index]
            c = np.inf if dm == 0 else max(dm / scale, scale / dm)
            if c > c1_best:
                c1_best, c1_wit = c, {"tile": [t.level, t.index], "diam": float(dm)}
            if not np.isfinite(c1_best):
                break
    return c1_best, c1_wit


def resolved_masks_oracle(cover):
    local_nn = cover.space.nearest_neighbor_distances()
    masks = []
    for lev in range(cover.depth + 1):
        diams = cover.diams(lev)
        ok = np.zeros(len(cover.levels[lev]), dtype=bool)
        if lev > 0:
            for i, idx in enumerate(cover.members(lev)):
                ok[i] = (
                    idx.size >= 2
                    and diams[i] >= RESOLUTION_FLOOR_NN * float(local_nn[idx].max())
                )
        masks.append(ok)
    return masks


def quasiball_oracle(cover):
    d = cover.space.dist
    w = cover.width
    r0 = np.inf
    R0 = 0.0
    for lev, fam in enumerate(cover.levels):
        diams = cover.diams(lev)
        reach = cover.reach_within(lev, 2 * w + 1)
        mem = cover.membership(lev)
        for t, idx in zip(fam, cover.members(lev)):
            dm = diams[t.index]
            if dm == 0:
                continue
            hood = mem[reach[t.index]].any(axis=0)
            outside = ~hood
            inside_max = d[np.ix_(idx, np.flatnonzero(hood))].max(axis=1)
            R0 = max(R0, float(inside_max.max()) / dm)
            if outside.any():
                outside_min = d[np.ix_(idx, np.flatnonzero(outside))].min(axis=1)
                r0 = min(r0, float(outside_min.min()) / dm)
    if not np.isfinite(r0):
        r0 = R0
    return float(r0), float(R0)


def c_ii_oracle(cover, table):
    """check_combinatorially_visual's condition-(ii) scan."""
    m = table.m
    sentinel = table.sentinel
    c_ii = 0.0
    unresolved_tiles = 0
    wit_ii = None
    for lev, fam in enumerate(cover.levels):
        for t, idx in zip(fam, cover.members(lev)):
            sub = m[np.ix_(idx, idx)]
            np.fill_diagonal(sub, sentinel)
            best = int(sub.min()) if idx.size > 1 else sentinel
            if best >= sentinel:
                unresolved_tiles += 1
                continue
            if best - lev > c_ii:
                c_ii = float(best - lev)
                wit_ii = {"tile": [t.level, t.index], "min_m": best}
    return c_ii, unresolved_tiles, wit_ii


def natural_geodesic_oracle(cover, x, tie_break="low"):
    """natural_geodesic as a per-level scan of the tiles holding x."""
    tiles = []
    for lev in range(cover.depth + 1):
        mem = cover.membership(lev)
        holding = np.flatnonzero(mem[:, x])
        idx = int(holding[0]) if tie_break == "low" else int(holding[-1])
        tiles.append((lev, idx))
    return tuple(tiles)


def deepest_oracle(cover, graph, tie_break):
    """boundary_metric's per-point natural geodesic: each point's deepest tile."""
    n = cover.n_points
    depth = cover.depth
    deepest = np.empty(n, dtype=np.int64)
    for x in range(n):
        lev, idx = natural_geodesic_oracle(cover, x, tie_break)[depth]
        deepest[x] = graph.vertex((lev, idx))
    return deepest


def ratio_oracle(num, den):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0, np.where(num == 0, 1.0, np.inf), num / den)


def first_max(ratio):
    return tuple(map(int, np.unravel_index(int(np.argmax(ratio)), ratio.shape)))


def visual_scans_oracle(cover):
    """verify_visual's per-level argmax loops: {condition: (best, witness)}."""
    lam = cover.visual_parameter
    c1_best, c1_wit = 0.0, None
    c2_best, c2_wit = 0.0, None
    for lev, fam in enumerate(cover.levels):
        scale = lam ** (-lev)
        diams = cover.diams(lev)
        c1 = np.maximum(diams / scale, ratio_oracle(scale, diams))
        i = int(np.argmax(c1))
        if c1[i] > c1_best:
            c1_best, c1_wit = float(c1[i]), {"tile": [lev, i], "diam": float(diams[i])}
        if len(fam) > 1:
            sep = ~cover.reach_within(lev, 2 * cover.width + 1)
            if sep.any():
                dists = cover.pair_distances(lev)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(sep, scale / dists, 0.0)
                i, j = first_max(ratio)
                if ratio[i, j] > c2_best:
                    c2_best = float(ratio[i, j])
                    c2_wit = {"tiles": [[lev, i], [lev, j]], "dist": float(dists[i, j])}
    return {"visual.diam": (c1_best, c1_wit), "visual.separation": (c2_best, c2_wit)}


def quasi_scans_oracle(cover):
    """verify_quasi_visual's per-level argmax loops for (i), (ii) and (iii),
    and the by-level-pair maxima of (iii)."""
    c1_best, c1_wit = 1.0, None
    c2_best, c2_wit = 0.0, None
    c3_best, c3_wit = 1.0, None
    by_pair = {}
    for lev, fam in enumerate(cover.levels):
        diams = cover.diams(lev)
        if len(fam) > 1:
            adj = cover.meets(lev, lev) & ~np.eye(len(fam), dtype=bool)
            if adj.any():
                ratio = np.where(adj, ratio_oracle(diams[:, None], diams[None, :]), 0.0)
                i, j = first_max(ratio)
                if ratio[i, j] > c1_best:
                    c1_best = float(ratio[i, j])
                    c1_wit = {"tiles": [[lev, i], [lev, j]], "ratio": c1_best}
            sep = ~cover.reach_within(lev, 2 * cover.width + 1)
            if sep.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = diams[:, None] / cover.pair_distances(lev)
                ratio = np.where(sep & ~np.isnan(ratio), ratio, 0.0)  # 0/0 is no violation
                i, j = first_max(ratio)
                if ratio[i, j] > c2_best:
                    c2_best = float(ratio[i, j])
                    c2_wit = {"tiles": [[lev, i], [lev, j]], "ratio": c2_best}
        if lev + 1 <= cover.depth:
            inter = cover.meets(lev, lev + 1)
            if inter.any():
                d_up, d_dn = diams[:, None], cover.diams(lev + 1)[None, :]
                ratio = np.where(
                    inter, np.maximum(ratio_oracle(d_up, d_dn), ratio_oracle(d_dn, d_up)), 0.0
                )
                i, j = first_max(ratio)
                by_pair[f"{lev},{lev + 1}"] = float(ratio[i, j])
                if ratio[i, j] > c3_best:
                    c3_best = float(ratio[i, j])
                    c3_wit = {"tiles": [[lev, i], [lev + 1, j]], "ratio": c3_best,
                              "level_pair": [lev, lev + 1]}
    return {"qv.i": (c1_best, c1_wit), "qv.ii": (c2_best, c2_wit),
            "qv.iii": (c3_best, c3_wit)}, by_pair


def combinatorial_scans_oracle(cover, table):
    """check_combinatorially_visual's per-level argmax loops for (ii) and (iii)."""
    m, sentinel = table.m, table.sentinel
    off = ~np.eye(table.n, dtype=bool)
    m_off = np.where(off, m, sentinel)
    c_ii, c_iii, wit = 0.0, 0.0, {}
    for lev in range(cover.depth + 1):
        best = tile_reduce(m_off, cover.members(lev), np.minimum).min(
            axis=1, where=cover.membership(lev), initial=sentinel
        )
        excess = np.where(best < sentinel, best - lev, -1)
        i = int(np.argmax(excess))
        if excess[i] > c_ii:
            c_ii = float(excess[i])
            wit["ii"] = {"tile": [lev, i], "min_m": int(best[i])}
    for lev in range(cover.depth + 1):
        sep = np.triu(~cover.reach_within(lev, 2 * cover.width + 1), 1)
        if not sep.any():
            continue
        worst = tile_pair_reduce(m, cover.members(lev), np.maximum)
        a, b = first_max(np.where(sep, worst, -1))
        if worst[a, b] - lev > c_iii:
            c_iii = float(worst[a, b] - lev)
            wit["iii"] = {"tiles": [[lev, a], [lev, b]], "max_m": int(worst[a, b])}
    return c_ii, c_iii, wit


def assert_records_match(report, scans):
    for name, (best, wit) in scans.items():
        rec = condition(report, name)
        assert rec.constant == (best if np.isfinite(best) else None), name
        assert rec.witness == wit, name


# -- covers ------------------------------------------------------------------------


def with_lambda(cover, lam):
    return CoverSequence(cover.space, [[t.members.tolist() for t in fam] for fam in cover.levels],
                         width=cover.width, visual_parameter=lam)


@pytest.fixture(scope="module")
def cantor_singletons():
    """Depth one past the sample: the deepest tiles are singletons, diameter 0."""
    return fixture("cantor", depth=5, sample_depth=4)


@pytest.fixture(scope="module")
def julia_cantor():
    """z^2-3 as the julia-cantor benchmark workload builds it at seed 0."""
    g = RationalMap(p=[1.0, 0.0, -3.0], q=[1.0])
    sample = julia_sample(g, 10)
    pull = pullback_cover(admissible_cover(g, sample, 0.25, grid=SphereGrid(K=512)), 4)
    return sample.space, induce_tiles(pull)


COVERS = ["cantor", "cantor_small", "dyadic", "tree", "interleaved", "gasket",
          "cantor_singletons", "julia_cantor"]


@pytest.fixture(params=COVERS)
def cover(request):
    return request.getfixturevalue(request.param)[1]


@st.composite
def random_cover(draw):
    """Overlapping tiles over integer points with repeats, so that distinct
    points can be at distance 0 and multi-point tiles can have diameter 0."""
    n = draw(st.integers(min_value=2, max_value=9))
    xs = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=float)
    levels = [[tuple(range(n))]]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        fam = [tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
               for _ in range(draw(st.integers(min_value=1, max_value=5)))]
        missing = set(range(n)).difference(*fam)
        fam[0] = tuple(sorted(set(fam[0]) | missing))
        levels.append(fam)
    space = FiniteMetricSpace(dist=np.abs(xs[:, None] - xs[None, :]))
    return CoverSequence(space, levels, width=draw(st.integers(0, 2)), visual_parameter=2.0)


# -- the checks --------------------------------------------------------------------


def assert_all_match(cover):
    for lev in range(cover.depth + 1):
        assert cover.diams(lev).tobytes() == diams_oracle(cover, lev).tobytes()
    for got, want in zip(_resolved_tile_masks(cover), resolved_masks_oracle(cover), strict=True):
        assert np.array_equal(got, want)
    assert quasiball_check(cover) == quasiball_oracle(cover)
    table = compute_proximity(cover)
    check = check_combinatorially_visual(cover, table)
    c_ii, unresolved_tiles, wit_ii = c_ii_oracle(cover, table)
    assert (check.C_ii, check.unresolved_tiles) == (c_ii, unresolved_tiles)
    assert check.witnesses.get("ii") == wit_ii
    c_ii, c_iii, wit = combinatorial_scans_oracle(cover, table)
    assert (check.C_ii, check.C_iii) == (c_ii, c_iii)
    assert {k: v for k, v in check.witnesses.items() if k != "iv"} == wit
    for lam in (1.5, 3.0):
        rec = condition(verify_visual(with_lambda(cover, lam)), "visual.diam")
        best, wit = visual_diam_oracle(with_lambda(cover, lam))
        assert rec.constant == (float(best) if np.isfinite(best) else None)
        assert rec.witness == wit
        assert_records_match(verify_visual(with_lambda(cover, lam)),
                             visual_scans_oracle(with_lambda(cover, lam)))
    report = verify_quasi_visual(cover)
    scans, by_pair = quasi_scans_oracle(cover)
    assert_records_match(report, scans)
    assert condition(report, "qv.iii").details["by_level_pair"] == by_pair


def test_verifiers_match_per_tile_loops(cover):
    assert_all_match(cover)


def test_zero_diameter_tiles_take_the_inf_paths(cantor_singletons):
    _, cover = cantor_singletons
    assert (cover.diams(cover.depth) == 0).all()
    rec = condition(verify_visual(cover), "visual.diam")
    assert rec.constant is None and rec.witness == {"tile": [cover.depth, 0], "diam": 0.0}
    assert check_combinatorially_visual(cover).unresolved_tiles >= len(cover.levels[-1])


def assert_deepest_match(cover, tie_break):
    for x in range(0, cover.n_points, 7):
        assert natural_geodesic(cover, x, tie_break).tiles == natural_geodesic_oracle(cover, x, tie_break)
    graph = build_tile_graph(cover)
    deepest = deepest_oracle(cover, graph, tie_break)
    bnd = boundary_metric(cover, graph, 2.0, tie_break=tie_break)
    assert np.array_equal(bnd.products2, graph.gromov2()[np.ix_(deepest, deepest)])


@pytest.mark.parametrize("tie_break", ["low", "high"])
def test_boundary_deepest_tiles_match_natural_geodesics(cover, tie_break):
    assert_deepest_match(cover, tie_break)


@settings(max_examples=40, deadline=None)
@given(random_cover())
def test_random_covers_match_per_tile_loops(cover):
    assert_all_match(cover)
    for tie_break in ("low", "high"):
        assert_deepest_match(cover, tie_break)


def test_tile_reduce_matches_member_reductions():
    rng = np.random.default_rng(5)
    mat = rng.integers(0, 9, size=(11, 4))
    members = [np.array([3]), np.arange(11), np.array([0, 4, 7]), np.array([4, 7])]
    for reduce in (np.minimum, np.maximum):
        got = tile_reduce(mat, members, reduce)
        assert got.dtype == mat.dtype
        assert np.array_equal(got, np.array([reduce.reduce(mat[idx], axis=0) for idx in members]))


def test_worst_case_keeps_the_first_strict_maximum():
    worst = WorstCase(1.0)
    assert worst.offer(np.array([0.5, 1.0])) is None  # ties the floor
    assert worst.offer(np.array([[0.0, 3.0], [3.0, 2.0]])) == (0, 1)
    assert worst.offer(np.array([3.0])) is None  # ties the value so far
    assert worst.offer(np.array([9.0, 4.0]), where=np.array([False, True])) == (1,)
    assert worst.value == 4.0
    assert worst.offer(np.array([5.0, np.nan, 7.0])) == (2,)  # a NaN is masked out
    assert worst.value == 7.0
    assert worst.offer(np.array([np.inf, 5.0])) == (0,) and worst.value == np.inf
    below = WorstCase(-5.0)  # masked-out entries never win, whatever the floor
    assert below.offer(np.array([-1.0, -2.0]), where=np.array([False, True])) == (1,)
