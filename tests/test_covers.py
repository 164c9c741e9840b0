import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as scipy_components

from qvista import covers
from qvista.covers import (
    THRESHOLD_KEYS,
    CoverSequence,
    WorstCase,
    bool_product,
    connected_components,
    derive_rho_tau_nu,
    group_by_label,
    maxmin_product,
    quasiball_check,
    tile_pair_reduce,
    verify_quasi_visual,
    verify_visual,
)
from qvista.errors import EmptyTile, FitFailure, MissingLambda
from qvista.julia import RationalMap, admissible_cover, induce_tiles, julia_sample, pullback_cover
from qvista.metricspace import FiniteMetricSpace
from qvista.spheregrid import SphereGrid
from helpers import condition, line_space, overlapping_covers, two_point_space


def brute_force_uw(cover, level, index, w):
    """Chain enumeration oracle for the width-w neighborhood."""
    fam = cover.levels[level]
    frontier = {index}
    for _ in range(w):
        nxt = set(frontier)
        for a in frontier:
            for t in fam:
                if set(cover.levels[level][a].members) & set(t.members):
                    nxt.add(t.index)
        frontier = nxt
    return frontier


def u_w(cover, tile, w):
    """Indices of the tiles U_w(X): joined to ``tile`` by a same-level chain
    of at most w tiles."""
    return set(np.flatnonzero(cover.reach_within(tile.level, w)[tile.index]).tolist())


class TestNeighborhoods:
    def test_w0_is_self(self, cantor):
        _, cover = cantor
        t = cover.levels[2][1]
        assert u_w(cover, t, 0) == {t.index}

    def test_cantor_disjoint_all_w(self, cantor):
        _, cover = cantor
        for t in cover.levels[2]:
            assert u_w(cover, t, 3) == {t.index}

    def test_dyadic_w1(self, dyadic):
        _, cover = dyadic
        assert u_w(cover, cover.levels[1][0], 1) == {0, 1}

    def test_matches_brute_force(self, dyadic):
        _, cover = dyadic
        for lev in (1, 2, 3):
            for t in cover.levels[lev]:
                for w in (0, 1, 2):
                    assert u_w(cover, t, w) == brute_force_uw(cover, lev, t.index, w)

    def test_nested_in_w(self, interleaved):
        _, cover = interleaved
        for lev in range(1, 5):
            for t in cover.levels[lev]:
                prev: set = set()
                for w in (0, 1, 2, 3):
                    cur = u_w(cover, t, w)
                    assert prev <= cur
                    prev = cur


class TestBoolProduct:
    @staticmethod
    def reference(*mats):
        out = mats[0].astype(np.int64)
        for m in mats[1:]:
            out = out @ m.astype(np.int64)
        return out > 0

    @pytest.mark.parametrize("shapes", [[(5, 5), (5, 5)], [(3, 7), (7, 4)],
                                        [(1, 9), (9, 1)], [(6, 2), (2, 8), (8, 5)]])
    def test_matches_int64_reference(self, shapes):
        rng = np.random.default_rng(0)
        for density in (0.1, 0.5):
            mats = [rng.random(s) < density for s in shapes]
            # an all-zero row of the first factor and column of the last
            mats[0][0] = False
            mats[-1][:, -1] = False
            got = bool_product(*mats)
            assert got.dtype == bool
            assert np.array_equal(got, self.reference(*mats))
            assert not got[0].any() and not got[:, -1].any()


def scipy_labels(n, src, dst):
    graph = csr_matrix((np.ones(src.size, dtype=bool), (src, dst)), shape=(n, n))
    return scipy_components(graph, directed=False)[1]


@st.composite
def edge_lists(draw):
    """A node count and an edge list over it, with repeats, self-loops and
    (most often) isolated nodes."""
    n = draw(st.integers(1, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return n, e[:, 0], e[:, 1]


class TestConnectedComponents:
    """The numpy kernel against scipy's labelling, which numbers components
    by their lowest node."""

    @settings(max_examples=80, deadline=None)
    @given(edge_lists())
    def test_matches_scipy(self, graph):
        n, src, dst = graph
        assert np.array_equal(connected_components(n, src, dst), scipy_labels(n, src, dst))

    @settings(max_examples=20, deadline=None)
    @given(st.permutations(range(200)), st.booleans())
    def test_long_shuffled_path(self, order, reverse):
        # a path through the nodes in shuffled order, beside 10 isolated nodes
        order = np.array(order)
        src, dst = (order[1:], order[:-1]) if reverse else (order[:-1], order[1:])
        got = connected_components(210, src, dst)
        assert np.array_equal(got, scipy_labels(210, src, dst))
        assert got.tolist() == [0] * 200 + list(range(1, 11))

    def test_no_edges(self):
        assert connected_components(4, [], []).tolist() == [0, 1, 2, 3]
        assert connected_components(0, [], []).size == 0


def maxmin_oracle(a, distinct=False):
    """Per-z scan of min(a[x, z], a[z, y]); with ``distinct``, z ranges over
    points other than x and y, and a pair with no such z gets ``a.min()``."""
    n = len(a)
    out = np.full(a.shape, a.min(), dtype=a.dtype)
    for z in range(n):
        cand = np.minimum.outer(a[:, z], a[z, :])
        if distinct:
            cand[z, :] = cand[:, z] = a.min()
        out = np.maximum(out, cand)
    return out


class TestMaxminProduct:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
    def test_matches_outer_scan(self, n):
        rng = np.random.default_rng(n)
        for values in ([0, 1, 2, 3], [0, 2, 5, 9], [-3, 4, 11]):
            a = rng.choice(values, size=(n, n))
            for sym in (False, True):
                if sym:
                    a = np.maximum(a, a.T)
                got = maxmin_product(a)
                assert got.dtype == a.dtype
                assert np.array_equal(got, maxmin_oracle(a))

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_masked_diagonal_excludes_endpoints(self, n):
        rng = np.random.default_rng(10 + n)
        a = rng.integers(0, 5, size=(n, n))
        np.fill_diagonal(a, -1)
        got = maxmin_product(a)
        assert np.array_equal(got, maxmin_oracle(a, distinct=True))
        if n <= 2:
            off = ~np.eye(n, dtype=bool)
            assert np.all(got[off] == -1)  # no third point to pass through

    def test_float_levels(self):
        rng = np.random.default_rng(3)
        a = -(1.5 ** -rng.integers(0, 6, size=(8, 8)).astype(float))
        np.fill_diagonal(a, -np.inf)
        got = maxmin_product(a)
        assert np.array_equal(got, maxmin_oracle(a, distinct=True))


class TestTilePairReduce:
    @staticmethod
    def oracle(mat, members, reduce):
        return np.array([[reduce.reduce(mat[np.ix_(a, b)], axis=None) for b in members]
                         for a in members])

    @pytest.mark.parametrize("reduce", [np.maximum, np.minimum])
    def test_matches_ix_reductions(self, reduce):
        rng = np.random.default_rng(7)
        n = 13
        for mat in (rng.random((n, n)), rng.integers(0, 9, size=(n, n))):
            # overlapping tiles, a singleton and the whole set
            members = [np.sort(rng.choice(n, size=k, replace=False)) for k in (4, 6, 6, 9)]
            members += [np.array([5]), np.arange(n), np.array([12, 0, 5])]
            got = tile_pair_reduce(mat, members, reduce)
            assert got.shape == (len(members), len(members))
            assert got.dtype == mat.dtype
            assert np.array_equal(got, self.oracle(mat, members, reduce))

    def test_pair_distances_is_set_distance(self, gasket):
        _, cover = gasket
        d = cover.space.dist
        for lev in range(cover.depth + 1):
            members = [np.fromiter(t.members, dtype=int) for t in cover.levels[lev]]
            assert np.array_equal(cover.pair_distances(lev),
                                  self.oracle(d, members, np.minimum))


def reach_oracle(cover, level, length):
    """``brute_force_uw`` for every tile of a level, as a boolean matrix."""
    fam = cover.levels[level]
    out = np.zeros((len(fam), len(fam)), dtype=bool)
    for t in fam:
        out[t.index, sorted(brute_force_uw(cover, level, t.index, length))] = True
    return out


class TestReachWithin:
    @pytest.mark.parametrize("name", ["cantor", "dyadic", "interleaved", "gasket"])
    def test_matches_chain_oracle(self, name, request):
        _, cover = request.getfixturevalue(name)
        for lev in range(len(cover.levels)):
            assert np.array_equal(cover.meets(lev, lev), reach_oracle(cover, lev, 1))
            for length in range(4):
                assert np.array_equal(cover.reach_within(lev, length),
                                      reach_oracle(cover, lev, length))

    def test_cached_and_read_only(self, dyadic):
        _, cover = dyadic
        reach = cover.reach_within(2, 1)
        assert cover.reach_within(2, 1) is reach
        assert cover.reach_within(2, 2) is not reach
        with pytest.raises(ValueError):
            reach[0, 0] = False


class TestTileIncidence:
    @pytest.mark.parametrize("name", ["cantor", "interleaved", "gasket"])
    def test_members_and_meets_match_frozensets(self, name, request):
        _, cover = request.getfixturevalue(name)
        for n in range(cover.depth + 1):
            members = cover.members(n)
            for t, idx in zip(cover.levels[n], members):
                assert idx.dtype == np.int64
                assert idx is t.members
                assert idx.tolist() == sorted(frozenset(t.members.tolist()))
            for m in range(cover.depth + 1):
                want = [[bool(frozenset(x.members.tolist()) & frozenset(y.members.tolist()))
                         for y in cover.levels[m]]
                        for x in cover.levels[n]]
                assert cover.meets(n, m).tolist() == want

    def test_cached_and_read_only(self, dyadic):
        _, cover = dyadic
        members, meets, membership = cover.members(2), cover.meets(1, 2), cover.membership(2)
        assert cover.members(2) is members
        assert cover.meets(1, 2) is meets
        assert cover.meets(2, 1) is not meets
        assert cover.membership(2) is membership
        with pytest.raises(ValueError):
            members[0][0] = 1
        with pytest.raises(ValueError):
            meets[0, 0] = False
        with pytest.raises(ValueError):
            membership[0, 0] = False

    def test_with_space_shares_the_metric_free_caches(self, cantor):
        space, cover = cantor
        diams = cover.diams(2).copy()
        bound = cover.with_space(FiniteMetricSpace(dist=3.0 * space.dist))
        assert bound.meets(2, 2) is cover.meets(2, 2)
        assert bound.membership(2) is cover.membership(2)
        assert (bound.width, bound.visual_parameter) == (cover.width, cover.visual_parameter)
        # scaling by 3 is monotone, so the max of the scaled distances is the scaled max
        assert np.array_equal(bound.diams(2), 3.0 * diams)
        assert np.array_equal(cover.diams(2), diams)

    def test_with_space_resets_every_metric_cache(self, cantor):
        """A rebound cover reads only the new metric: its diameters and nearest
        separated distances are those of a fresh cover over the new space, and
        the only caches it shares are the metric-free ones."""
        space, cover = cantor
        for lev in range(cover.depth + 1):  # fill the metric caches first
            cover.diams(lev), cover.nearest_separated(lev)
        x = np.random.default_rng(3).random(space.n)
        other = FiniteMetricSpace(dist=np.abs(x[:, None] - x[None, :]))
        bound = cover.with_space(other)
        fresh = CoverSequence(other, cover.to_dict()["levels"], width=cover.width)
        for lev in range(cover.depth + 1):
            assert bound.diams(lev).tobytes() == fresh.diams(lev).tobytes()
            assert bound.nearest_separated(lev).tobytes() == fresh.nearest_separated(lev).tobytes()
        shared = {name for name, cache in vars(bound).items()
                  if isinstance(cache, dict) and cache is vars(cover)[name]}
        assert shared == {"_membership", "_tiles_of", "_meets", "_reach"}

    def test_metric_free_cover(self, cantor):
        space, cover = cantor
        bare = CoverSequence(None, cover.to_dict()["levels"], width=cover.width)
        assert bare.space is None
        assert bare.n_points == space.n
        for lev in range(cover.depth + 1):
            assert np.array_equal(bare.reach_within(lev, 3), cover.reach_within(lev, 3))
        with pytest.raises(ValueError, match="different point count"):
            CoverSequence.from_dict({**cover.to_dict(), "n": space.n + 1}, None)


# tiles of contiguous ids, as sorted lists, so that every form can hold them
SORTED_LEVELS = [[list(range(8))], [[0, 1, 2, 3], [3, 4, 5, 6, 7]],
                 [[0], [1, 2], [2, 3, 4], [5, 6, 7]]]
TILE_FORMS = {
    "tuple": lambda t: tuple(t[::-1]) + tuple(t),
    "list": lambda t: t[::-1] + t[:1],
    "range": lambda t: range(t[-1], t[0] - 1, -1),
    "set": set,
    "array": lambda t: np.array(t[::-1] + t, dtype=np.int32),
    "iterator": lambda t: iter(t[::-1]),
}
NOT_WHOLE = "level 0 must consist of the single whole-space tile"
# inputs malformed in one way each, over 8 points: the exception raised with
# the space and, where it differs, without one (None: accepted)
MALFORMED = {
    "no levels": ([], ValueError("need at least level 0")),
    "empty tile": ([[range(8)], [[0, 1, 2, 3], [], [4, 5, 6, 7]]],
                   EmptyTile("empty tile at level 1, index 1")),
    "negative id": ([[range(8)], [[0, 1, 2, 3], [-1, 4, 5, 6, 7]]],
                    ValueError("tile at level 1 references unknown points")),
    "id >= n": ([[range(8)], [[0, 1, 2, 3], [4, 5, 6, 7, 8]]],
                ValueError("tile at level 1 references unknown points")),
    "id beyond int64": ([[range(8)], [[0, 1, 2, 3], [4, 5, 6, 7, 2 ** 63]]],
                        ValueError("tile at level 1 references unknown points")),
    "id below int64": ([[range(8)], [[0, 1, 2, 3], [-2 ** 63 - 1, 4, 5, 6, 7]]],
                       ValueError("tile at level 1 references unknown points")),
    "uncovered": ([[range(8)], [[0], [7]]],
                  ValueError("level 1 is not a cover; misses points [1, 2, 3, 4, 5]")),
    "level without tiles": ([[range(8)], []],
                            ValueError("level 1 is not a cover; misses points [0, 1, 2, 3, 4]")),
    "two tiles at level 0": ([[range(4), range(4, 8)], [range(8)]], ValueError(NOT_WHOLE)),
    # without a space, level 0 sets the point count
    "level 0 short": ([[range(3)], [range(3)]],
                      ValueError("level 0 is not a cover; misses points [3, 4, 5, 6, 7]"), None),
    "no tile at level 0": ([[]],
                           ValueError("level 0 is not a cover; misses points [0, 1, 2, 3, 4]"),
                           ValueError(NOT_WHOLE)),
}


class TestConstruction:
    @pytest.mark.parametrize("with_space", [True, False])
    @pytest.mark.parametrize("form", TILE_FORMS)
    def test_any_iterable_of_ids_gives_the_same_cover(self, form, with_space):
        space = line_space(8) if with_space else None
        want = CoverSequence(space, SORTED_LEVELS, width=1)
        levels = [[TILE_FORMS[form](t) for t in fam] for fam in SORTED_LEVELS]
        cover = CoverSequence(space, levels, width=1)
        assert cover.n_points == 8
        assert cover.to_dict() == want.to_dict()
        assert cover.to_dict()["levels"] == SORTED_LEVELS
        for lev, fam in enumerate(cover.levels):
            for t, ids in zip(fam, SORTED_LEVELS[lev]):
                assert t.members.dtype == np.int64
                assert t.members.tolist() == ids

    @pytest.mark.parametrize("with_space", [True, False])
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_input_raises(self, case, with_space):
        levels, *want = MALFORMED[case]
        want = want[0] if with_space else want[-1]
        space = line_space(8) if with_space else None
        if want is None:
            CoverSequence(space, levels)
            return
        with pytest.raises(Exception) as info:
            CoverSequence(space, levels)
        assert type(info.value) is type(want)
        assert str(info.value) == str(want)

    def test_member_arrays_are_the_read_only_tiles(self, gasket):
        _, cover = gasket
        for lev, fam in enumerate(cover.levels):
            members = cover.members(lev)
            assert len(members) == len(fam)
            for i, t in enumerate(fam):
                assert members[i] is t.members
                assert (t.level, t.index) == (lev, i)
                with pytest.raises(ValueError):
                    t.members[0] = 0
            tile, point = cover.incidence(lev)
            assert tile.tolist() == [i for i, t in enumerate(fam) for _ in t.members]
            assert point.tolist() == [p for t in fam for p in t.members.tolist()]
            for a in (tile, point):
                with pytest.raises(ValueError):
                    a[0] = 0


class TestVerifyVisual:
    def test_cantor_exact_constants(self, cantor):
        _, cover = cantor
        rep = verify_visual(cover)
        assert rep.passed
        assert condition(rep, "visual.diam").constant == pytest.approx(1.0, abs=1e-9)
        assert condition(rep, "visual.separation").constant == pytest.approx(1.0, abs=1e-9)

    def test_tree_passes(self, tree):
        _, cover = tree
        rep = verify_visual(cover)
        assert rep.passed
        # every tile at level >= 1 attains diam * 2^n = 1 exactly; level 0
        # contributes the global-scale offset diam(S) = 1/2
        assert condition(rep, "visual.diam").constant == pytest.approx(2.0, abs=1e-12)

    def test_missing_lambda(self, interleaved):
        _, cover = interleaved
        with pytest.raises(MissingLambda):
            verify_visual(cover)

    def test_singleton_tile_fails_with_witness(self):
        space = two_point_space()
        cover = CoverSequence(space, [[(0, 1)], [(0,), (0, 1)]], width=0, visual_parameter=2.0)
        rep = verify_visual(cover)
        diam = condition(rep, "visual.diam")
        assert diam.verdict == "FAIL"
        assert diam.witness["tile"] == [1, 0]

    def test_empty_tile_rejected(self):
        space = two_point_space()
        with pytest.raises(EmptyTile):
            CoverSequence(space, [[(0, 1)], [(), (0, 1)]], width=0)

    def test_level_must_cover(self):
        space = two_point_space()
        with pytest.raises(ValueError):
            CoverSequence(space, [[(0, 1)], [(0,)]], width=0)


class TestVerifyQuasiVisual:
    def test_cantor(self, cantor):
        _, cover = cantor
        rep = verify_quasi_visual(cover)
        assert rep.passed
        iv = condition(rep, "qv.iv")
        assert iv.details["k0"] == 1
        assert iv.details["lambda"] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_interleaved_condition_iii_ratios(self, interleaved):
        _, cover = interleaved
        rep = verify_quasi_visual(cover, thresholds={"qv.iii": 6.0})
        c3 = condition(rep, "qv.iii")
        assert c3.verdict == "FAIL"
        by_pair = c3.details["by_level_pair"]
        for k in range(4):
            assert by_pair[f"{2 * k},{2 * k + 1}"] == pytest.approx(2.0 ** k, abs=1e-9)
        assert c3.witness["level_pair"] == [6, 7]

    def test_visual_pass_implies_quasi_pass(self, cantor, dyadic, tree, gasket):
        for _, cover in (cantor, dyadic, tree, gasket):
            if verify_visual(cover).passed:
                assert verify_quasi_visual(cover).passed

    def test_widening_monotone(self, cantor, dyadic):
        # a PASS at width w implies a PASS at width w+1
        for _, cover in (cantor, dyadic):
            base = verify_visual(cover)
            widened = CoverSequence(
                cover.space,
                [[t.members.tolist() for t in fam] for fam in cover.levels],
                width=cover.width + 1,
                visual_parameter=cover.visual_parameter,
            )
            rep = verify_visual(widened)
            assert base.passed and rep.passed
            assert condition(rep, "visual.separation").constant <= (
                condition(base, "visual.separation").constant + 1e-12
            )

    @pytest.mark.parametrize("width", [0, 1])
    def test_separation_inf_survives_a_nan_ratio(self, width):
        # {0} has diameter 0 at distance 0 from {1, 2}: its row reads 0/0, no
        # violation, and must not hide the row of {1, 2}, which reads 5/0 = inf
        xs = np.array([0.0, 0.0, 5.0])
        space = FiniteMetricSpace(dist=np.abs(xs[:, None] - xs))
        cover = CoverSequence(space, [[(0, 1, 2)], [(0,), (1, 2)]], width=width)
        rec = condition(verify_quasi_visual(cover), "qv.ii")
        assert rec.constant is None and rec.verdict == "FAIL"
        assert rec.witness == {"tiles": [[1, 1], [1, 0]], "ratio": np.inf}

    def test_reports_deterministic(self, cantor):
        _, cover = cantor
        a = verify_quasi_visual(cover).to_dict()
        b = verify_quasi_visual(cover).to_dict()
        assert a == b


class TestDecayRates:
    def test_cantor_exact(self, cantor):
        _, cover = cantor
        rates = derive_rho_tau_nu(cover)
        assert rates.rho == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert rates.tau == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert rates.nu == pytest.approx(1.0, abs=1e-9)

    def test_constant_cover_fails(self):
        # X^n identical for all n >= 1: diameters never shrink
        xs = np.arange(16.0)
        space = FiniteMetricSpace(dist=np.abs(xs[:, None] - xs[None, :]))
        fam = [tuple(range(0, 9)), tuple(range(8, 16))]
        cover = CoverSequence(space, [[tuple(range(16))], fam, fam, fam], width=0)
        with pytest.raises(FitFailure):
            derive_rho_tau_nu(cover)


class TestQuasiball:
    def test_cantor_unit_constants(self, cantor):
        _, cover = cantor
        r0, R0 = quasiball_check(cover)
        assert r0 == pytest.approx(1.0, abs=1e-9)
        assert R0 == pytest.approx(1.0, abs=1e-9)

    def test_trivial_cover(self):
        space = two_point_space()
        cover = CoverSequence(space, [[(0, 1)], [(0, 1)]], width=0)
        r0, R0 = quasiball_check(cover)
        assert (r0, R0) == (1.0, 1.0)

    def test_dyadic_inner_half(self, dyadic):
        _, cover = dyadic
        r0, R0 = quasiball_check(cover)
        assert r0 >= 0.5 - 1e-9
        assert np.isfinite(R0)


@st.composite
def random_cover(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    depth = draw(st.integers(min_value=1, max_value=3))
    levels = [[tuple(range(n))]]
    for _ in range(depth):
        k = draw(st.integers(min_value=1, max_value=4))
        fam = []
        for _ in range(k):
            members = draw(
                st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
            )
            fam.append(tuple(sorted(members)))
        covered = set().union(*map(set, fam))
        missing = tuple(sorted(set(range(n)) - covered))
        if missing:
            fam[0] = tuple(sorted(set(fam[0]) | set(missing)))
        levels.append(fam)
    xs = np.arange(float(n))
    space = FiniteMetricSpace(dist=np.abs(xs[:, None] - xs[None, :]))
    return CoverSequence(space, levels, width=draw(st.integers(0, 2)))


@settings(max_examples=30, deadline=None)
@given(random_cover())
def test_uw_nesting_property(cover):
    for lev in range(len(cover.levels)):
        for t in cover.levels[lev]:
            prev: set = set()
            for w in range(3):
                cur = u_w(cover, t, w)
                assert prev <= cur
                prev = cur


def test_threshold_keys_name_the_thresholded_conditions(cantor):
    """Every condition with a user threshold, and no other name, is a key a
    thresholds file may set; qv.iv has the fixed shrink target instead."""
    _, cover = cantor
    reports = (verify_visual(cover), verify_quasi_visual(cover))
    names = {c.condition for rep in reports for c in rep.conditions}
    assert set(THRESHOLD_KEYS) == names - {"qv.iv"}


# -- incidence-cost rewrites against the code they replaced ------------------------


def split_groups(items, labels):
    """``group_by_label`` as it was written with ``np.split``."""
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(items[order], cuts)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=40))
def test_group_by_label_matches_split(labels):
    labels = np.array(labels, dtype=np.int64)
    items = np.arange(labels.size, dtype=np.int64) * 3
    got, want = group_by_label(items, labels), split_groups(items, labels)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_tiles_of_every_integer_iterable_give_one_incidence(cantor):
    """A tile may be an int64, int32 or uint16 array, a list, a range or a
    frozenset; the cantor tiles are runs of consecutive points."""
    space, cover = cantor
    ref = [[t.members for t in fam] for fam in cover.levels]
    n = space.n
    for form in (lambda m: m.astype(np.int64), lambda m: m.astype(np.int32),
                 lambda m: m[::-1].astype(np.uint16), list, frozenset,
                 lambda m: range(m[0], m[-1] + 1)):
        built = CoverSequence(space, [[form(m) for m in fam] for fam in ref], width=cover.width)
        for lev in range(len(ref)):
            for got, want in zip(built.incidence(lev), cover.incidence(lev)):
                assert got.dtype == np.int64 and np.array_equal(got, want)
    whole = CoverSequence(space, [[range(n)]])
    assert np.array_equal(whole.members(0)[0], np.arange(n))
    with pytest.raises(ValueError, match="unknown points"):
        CoverSequence(space, [[np.array([-1, *range(n)])]])
    with pytest.raises(ValueError, match="unknown points"):
        CoverSequence(space, [[np.array([2 ** 64 - 1], dtype=np.uint64)]])


def dense_qv_scans(cover):
    """qv.i and qv.iii of ``verify_quasi_visual`` as scanned over whole
    ratio matrices under a mask: records of (constant, witness) and the
    qv.iii maxima by level pair."""
    qv1, qv3 = WorstCase(1.0), WorstCase(1.0)
    by_pair = {}
    for lev, fam in enumerate(cover.levels):
        diams = cover.diams(lev)
        if len(fam) > 1:
            adj = cover.meets(lev, lev) & ~np.eye(len(fam), dtype=bool)
            ratio = covers._diam_ratio(diams[:, None], diams)
            if adj.any() and (at := qv1.offer(ratio, where=adj)) is not None:
                qv1.witness = {"tiles": [[lev, at[0]], [lev, at[1]]], "ratio": qv1.value}
        if lev < cover.depth and (inter := cover.meets(lev, lev + 1)).any():
            ratio = covers._comparability(diams[:, None], cover.diams(lev + 1))
            by_pair[f"{lev},{lev + 1}"] = float(ratio.max(where=inter, initial=0.0))
            if (at := qv3.offer(ratio, where=inter)) is not None:
                qv3.witness = {"tiles": [[lev, at[0]], [lev + 1, at[1]]], "ratio": qv3.value,
                               "level_pair": [lev, lev + 1]}
    return qv1, qv3, by_pair


def dense_gap_ratios(cover, resolved=None):
    """``_cross_level_gap_ratios`` over whole masked ratio matrices."""
    gap_max, gap_min = {}, {}
    for n in range(cover.depth + 1):
        d_up = cover.diams(n)
        for m in range(n + 1, cover.depth + 1):
            k = m - n
            ok = cover.meets(n, m) & (d_up[:, None] > 0)
            if resolved is not None:
                ok &= resolved[n][:, None] & resolved[m][None, :]
            if not ok.any():
                continue
            ratio = cover.diams(m)[None, :] / np.where(d_up[:, None] > 0, d_up[:, None], 1.0)
            vals = ratio[ok]
            gap_max[k] = max(gap_max.get(k, 0.0), float(vals.max()))
            gap_min[k] = min(gap_min.get(k, np.inf), float(vals.min()))
    return gap_max, gap_min


def coarsest_nn_masks(cover):
    """``_resolved_tile_masks`` through a one-column ``tile_reduce``."""
    local_nn = cover.space.nearest_neighbor_distances()[:, None]
    masks = [np.zeros(1, dtype=bool)]
    for lev in range(1, cover.depth + 1):
        coarsest = covers.tile_reduce(local_nn, cover.members(lev), np.maximum)[:, 0]
        masks.append((np.bincount(cover.incidence(lev)[0]) >= 2)
                     & (cover.diams(lev) >= covers.RESOLUTION_FLOOR_NN * coarsest))
    return masks


def fit_or_failure(cover):
    try:
        return derive_rho_tau_nu(cover)
    except FitFailure as exc:
        return str(exc)


def assert_matches_dense_oracle(cover, monkeypatch):
    rep = verify_quasi_visual(cover)
    qv1, qv3, by_pair = dense_qv_scans(cover)
    for name, worst in (("qv.i", qv1), ("qv.iii", qv3)):
        rec = condition(rep, name)
        assert rec.constant == (worst.value if np.isfinite(worst.value) else None)
        assert json.dumps(rec.witness) == json.dumps(worst.witness)  # plain ints, same order
    assert condition(rep, "qv.iii").details["by_level_pair"] == by_pair
    masks = covers._resolved_tile_masks(cover)
    dense_masks = coarsest_nn_masks(cover)
    assert all(np.array_equal(a, b) for a, b in zip(masks, dense_masks, strict=True))
    assert covers._cross_level_gap_ratios(cover) == dense_gap_ratios(cover)
    assert (covers._cross_level_gap_ratios(cover, resolved=masks)
            == dense_gap_ratios(cover, resolved=dense_masks))
    rates = fit_or_failure(cover)
    with monkeypatch.context() as m:
        m.setattr(covers, "_resolved_tile_masks", coarsest_nn_masks)
        m.setattr(covers, "_cross_level_gap_ratios", dense_gap_ratios)
        assert verify_quasi_visual(cover).to_dict() == rep.to_dict()
        assert fit_or_failure(cover) == rates


def test_sparse_scans_match_dense_masks_on_fixtures(
    cantor, cantor_small, dyadic, tree, interleaved, gasket, monkeypatch
):
    for _, cover in (cantor, cantor_small, dyadic, tree, interleaved, gasket):
        assert_matches_dense_oracle(cover, monkeypatch)


@pytest.mark.parametrize("c, K", [(-1.0, 768), (-3.0, 512)], ids=["basilica", "cantor"])
def test_sparse_scans_match_dense_masks_on_benchmark_covers(c, K, monkeypatch):
    """The covers of the two benchmark Julia workloads at seed 0."""
    g = RationalMap(p=[1.0, 0.0, c], q=[1.0])
    sample = julia_sample(g, 10)
    pull = pullback_cover(admissible_cover(g, sample, 0.25, grid=SphereGrid(K=K)), 4)
    assert_matches_dense_oracle(induce_tiles(pull), monkeypatch)


def test_sparse_scans_keep_the_first_of_tied_ratios(monkeypatch):
    """Equal diameters repeat along the line, so qv.i and qv.iii reach
    their worst value at several pairs; the witness is the row-major first.
    For qv.i that is 1/0 at level 2, where (3, 4) meets (4,) before (5, 6)
    meets (6,); level 1 ties at 2 before it."""
    levels = [[range(9)],
              [(0, 1), (1, 2, 3), (3, 4), (4, 5, 6), (6, 7, 8)],
              [(0,), (1,), (2, 3), (3, 4), (4,), (5, 6), (6,), (7, 8)],
              [(0, 1), (2,), (3, 4), (5, 6), (7, 8)]]
    cover = CoverSequence(line_space(9), levels, width=0)
    assert_matches_dense_oracle(cover, monkeypatch)
    assert condition(verify_quasi_visual(cover), "qv.i").witness["tiles"] == [[2, 3], [2, 4]]
    # every level-2 tile is one point, so each meeting pair reads inf for
    # qv.iii; row-major, (0, 1) meets (0,) before (1, 2, 3) meets (2,)
    cover = CoverSequence(line_space(4), [[range(4)], [(0, 1), (1, 2, 3)], [(2,), (0,), (1,), (3,)]])
    assert_matches_dense_oracle(cover, monkeypatch)
    assert condition(verify_quasi_visual(cover), "qv.iii").witness["tiles"] == [[1, 0], [2, 1]]


@settings(max_examples=60, deadline=None)
@given(overlapping_covers())
def test_sparse_scans_match_dense_masks_on_random_covers(drawn):
    """Integer distances on a line give many tied ratios and zero diameters."""
    levels, width, _g = drawn
    cover = CoverSequence(line_space(len(levels[0][0])), levels, width=width)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_dense_oracle(cover, monkeypatch)
