import copy
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import floyd_warshall

from qvista import proximity
from qvista.covers import CoverSequence, verify_quasi_visual
from qvista.errors import KTooLarge, LambdaTooLarge, MapNotClosed
from qvista.julia import RationalMap, admissible_cover, induce_tiles, julia_sample, pullback_cover
from qvista.metricspace import FiniteMetricSpace
from qvista.proximity import (
    ProximityTable,
    QuasiMetric,
    _shortest_chains,
    chain_metrize,
    check_combinatorially_visual,
    compute_proximity,
    dynamical_checks,
    empirical_quasi_constant,
    fit_power_quasisymmetry,
    quasi_metric_from_m,
    snowflake_check,
    synthesize_visual_metric,
)
from qvista.spheregrid import SphereGrid
from qvista.tilegraph import build_tile_graph, compare_m_gromov, extended_proximity


def brute_force_proximity(cover):
    """Oracle: per pair, the largest level with U_w-proximate holding tiles."""
    n = cover.n_points
    w = cover.width
    m = np.zeros((n, n), dtype=int)
    for lev in range(1, cover.depth + 1):
        fam = cover.levels[lev]
        # tile-pair chain distance <= 2w+1 via repeated neighbor expansion
        prox = np.eye(len(fam), dtype=bool)
        adj = np.array(
            [[bool(set(a.members) & set(b.members)) for b in fam] for a in fam]
        )
        for _ in range(2 * w + 1):
            prox = prox | (prox @ adj)
        for a in fam:
            for b in fam:
                if prox[a.index, b.index]:
                    for x in a.members:
                        for y in b.members:
                            m[x, y] = max(m[x, y], lev)
    m[m == cover.depth] = cover.depth + 1
    np.fill_diagonal(m, cover.depth + 1)
    return m


class TestProximity:
    def test_diagonal_sentinel(self, cantor):
        _, cover = cantor
        table = compute_proximity(cover)
        assert np.all(np.diag(table.m) == table.sentinel)

    def test_tree_equals_first_disagreement(self, tree):
        space, cover = tree
        table = compute_proximity(cover)
        arr = np.asarray(space.coords)
        depth = cover.depth
        for i in range(0, space.n, 5):
            for j in range(0, space.n, 7):
                if i == j:
                    continue
                first = next(k + 1 for k in range(depth) if arr[i, k] != arr[j, k])
                if first < depth:
                    assert table.m[i, j] == first
                else:
                    assert table.m[i, j] == table.sentinel

    def test_cantor_endpoints(self, cantor):
        space, cover = cantor
        table = compute_proximity(cover)
        xs = np.asarray(space.coords)[:, 0]
        i0 = int(np.argmin(xs))
        i1 = int(np.argmax(xs))
        assert table.m[i0, i1] == 0

    def test_matches_brute_force(self, cantor_small, dyadic):
        for space, cover in (cantor_small, dyadic):
            small = CoverSequence(
                space,
                [[t.members.tolist() for t in fam] for fam in cover.levels[:4]],
                width=cover.width,
            )
            table = compute_proximity(small)
            assert np.array_equal(table.m, brute_force_proximity(small))

    def test_monotone_in_width(self, dyadic):
        space, cover = dyadic
        levels = [[t.members.tolist() for t in fam] for fam in cover.levels]
        m0 = compute_proximity(CoverSequence(space, levels, width=0)).m
        m1 = compute_proximity(CoverSequence(space, levels, width=1)).m
        assert np.all(m1 >= m0)

    def test_round_trip_json(self, cantor_small):
        _, cover = cantor_small
        table = compute_proximity(cover)
        data = json.loads(json.dumps(table.to_dict()))
        assert np.array_equal(np.array(data["m"], dtype=np.int64), table.m)


class TestCombinatorialCheck:
    def test_tree_constants(self, tree):
        _, cover = tree
        chk = check_combinatorially_visual(cover)
        assert chk.C_iv == 0.0  # ultrametric
        assert chk.C_iii == 0.0
        assert chk.C <= 1.0

    def test_cantor_small_constant(self, cantor):
        _, cover = cantor
        chk = check_combinatorially_visual(cover)
        assert chk.passed
        assert chk.C <= 1.0

    def test_qv_pass_implies_cv_pass(self, cantor, dyadic, tree, gasket):
        for _, cover in (cantor, dyadic, tree, gasket):
            if verify_quasi_visual(cover).passed:
                assert check_combinatorially_visual(cover).passed


class TestQuasiMetric:
    def test_tree_q_equals_d(self, tree):
        space, cover = tree
        table = compute_proximity(cover)
        qm = quasi_metric_from_m(table, 2.0)
        assert qm.K <= 2.0
        cert = (table.m <= table.truncation) & ~np.eye(table.n, dtype=bool)
        assert np.allclose(qm.q[cert], space.dist[cert], atol=0, rtol=0)

    def test_ultrametric_k_one(self, cantor):
        _, cover = cantor
        table = compute_proximity(cover)
        chk = check_combinatorially_visual(cover, table)
        assert chk.C == 0.0
        qm = quasi_metric_from_m(table, 3.0, chk)
        assert qm.K == 1.0
        assert empirical_quasi_constant(qm) <= 1.0 + 1e-12

    def test_lambda_too_large(self, tree):
        _, cover = tree
        table = compute_proximity(cover)
        with pytest.raises(LambdaTooLarge):
            quasi_metric_from_m(table, 4.0, cover=cover)


class TestChainMetrize:
    def test_metric_input_unchanged(self, tree):
        space, cover = tree
        table = compute_proximity(cover)
        qm = quasi_metric_from_m(table, 2.0)
        out = chain_metrize(qm)
        assert np.allclose(out.dist, qm.q)

    def test_three_point_example(self):
        q = np.array([[0, 1, 1.9], [1, 0, 1], [1.9, 1, 0]])
        qm = QuasiMetric(q=q, K=1.9)
        out = chain_metrize(qm)
        # oracle: all chains of length <= 2 between a and c
        assert out.dist[0, 2] == pytest.approx(min(1.9, 1 + 1))

    def test_k_too_large(self):
        q = np.array([[0, 1, 2.5], [1, 0, 1], [2.5, 1, 0]])
        with pytest.raises(KTooLarge):
            chain_metrize(QuasiMetric(q=q, K=2.5))

    def test_bitwise_scipy_on_fixtures(self, cantor, cantor_small, dyadic, tree, interleaved, gasket):
        for _, cover in (cantor, cantor_small, dyadic, tree, interleaved, gasket):
            table = compute_proximity(cover)
            chk = check_combinatorially_visual(cover, table)
            qm = quasi_metric_from_m(table, min(2.0 ** (1.0 / max(chk.C, 1.0)), 2.0), chk)
            got = chain_metrize(qm).dist
            assert got.tobytes() == floyd_warshall(qm.q, directed=False).tobytes()

    @pytest.mark.parametrize("n", [12, 40, 150, 300])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bitwise_scipy_where_chains_shorten(self, n, seed):
        # q = u f: u a hierarchical ultrametric (K = 1), f symmetric noise in
        # [1, 2), so q(x,y) < 2 u(x,y) <= 2 max(q(x,z), q(z,y)) and K < 2,
        # while a step through a closer point often beats the direct one; f
        # takes four values, which keeps the distinct values of q few
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, size=(n, 5))
        same = np.ones((n, n), dtype=bool)
        level = np.zeros((n, n))
        for col in labels.T:
            same &= col[:, None] == col[None, :]
            level += same
        noise = np.triu(1.0 + rng.integers(0, 4, size=(n, n)) / 4.0, 1)
        q = 2.0 ** -level * (noise + noise.T)
        np.fill_diagonal(q, 0.0)
        qm = QuasiMetric(q=q, K=max(1.0, empirical_quasi_constant(QuasiMetric(q=q, K=1.0))))
        assert qm.K < 2.0
        want = floyd_warshall(q, directed=False)
        assert (want < q).any()
        assert chain_metrize(qm).dist.tobytes() == want.tobytes()

    @staticmethod
    def within_factor_two(n, a, seed):
        """A symmetric q whose off-diagonal entries lie in [a, 2a], with
        q(0, 1) = q(1, 2) = a and q(0, 2) = 2a exactly."""
        rng = np.random.default_rng(seed)
        q = np.triu(rng.uniform(a, 2 * a, size=(n, n)), 1)
        if n >= 3:
            q[0, 1] = q[1, 2] = a
            q[0, 2] = 2 * a
        q = q + q.T
        np.fill_diagonal(q, 0.0)
        return q

    @pytest.mark.parametrize("a", [1.0, 0.1, 1.2 ** -5, 3.7e-5])
    @pytest.mark.parametrize("n", [3, 17, 80])
    def test_short_circuit_where_no_chain_is_shorter(self, n, a):
        # fl(a + a) = 2a reaches the largest entry: q is already a metric
        q = self.within_factor_two(n, a, seed=n)
        off = q[~np.eye(n, dtype=bool)]
        assert off.min() + off.min() >= off.max() and off.max() == 2 * a
        want = floyd_warshall(q, directed=False)
        assert want.tobytes() == q.tobytes()
        assert _shortest_chains(q).tobytes() == want.tobytes()

    @pytest.mark.parametrize("a", [1.0, 0.1, 1.2 ** -5, 3.7e-5])
    @pytest.mark.parametrize("n", [3, 17, 80])
    def test_no_short_circuit_past_twice_the_least_entry(self, n, a):
        # one entry nudged above 2a: the chain 0 - 1 - 2 of two a-steps beats it
        q = self.within_factor_two(n, a, seed=n)
        q[0, 2] = q[2, 0] = np.nextafter(2 * a, np.inf)
        off = q[~np.eye(n, dtype=bool)]
        assert off.min() + off.min() < off.max()
        want = floyd_warshall(q, directed=False)
        assert want[0, 2] == 2 * a < q[0, 2]
        assert _shortest_chains(q).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_short_circuit_on_few_points(self, n):
        for q in (np.ones((n, n)) - np.eye(n), self.within_factor_two(n, 0.5, seed=n)):
            assert _shortest_chains(q).tobytes() == floyd_warshall(q, directed=False).tobytes()

    def test_rejects_zero_off_diagonal(self):
        # scipy reads a dense 0 as a missing edge; a quasi-metric has none
        q = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        with pytest.raises(ValueError, match="positive off the diagonal"):
            chain_metrize(QuasiMetric(q=q, K=2.0))

    def test_sandwich_on_fixtures(self, cantor, dyadic, tree):
        for _, cover in (cantor, dyadic, tree):
            table = compute_proximity(cover)
            chk = check_combinatorially_visual(cover, table)
            lam = min(2.0 ** (1.0 / max(chk.C, 1.0)), 2.0)
            qm = quasi_metric_from_m(table, lam, chk)
            out = chain_metrize(qm)
            assert np.all(out.dist <= qm.q * (1 + 1e-12))
            assert np.all(out.dist >= qm.q / (2 * qm.K) * (1 - 1e-12))


class TestSynthesis:
    def test_round_trips(self, cantor, dyadic, tree, gasket):
        for _, cover in (cantor, dyadic, tree, gasket):
            chk = check_combinatorially_visual(cover)
            lam = min(2.0 ** (1.0 / max(chk.C, 1.0)), cover.visual_parameter or 2.0)
            metric, rep = synthesize_visual_metric(cover, lam)
            assert rep.passed
            for cond in rep.conditions:
                assert cond.constant <= 64.0

    def test_tree_bilipschitz_to_original(self, tree):
        space, cover = tree
        metric, _rep = synthesize_visual_metric(cover, 2.0)
        table = compute_proximity(cover)
        cert = (table.m <= table.truncation) & ~np.eye(space.n, dtype=bool)
        ratio = metric.dist[cert] / space.dist[cert]
        K = 2.0 ** check_combinatorially_visual(cover, table).C
        assert ratio.max() <= 2 * K + 1e-9
        assert ratio.min() >= 1 / (2 * K) - 1e-9


class TestQuasisymmetryFits:
    def test_identity(self, cantor):
        space, _ = cantor
        pd = fit_power_quasisymmetry(space, space)
        assert pd is not None
        assert pd.nu == pytest.approx(1.0)
        assert pd.K == pytest.approx(1.0, abs=1e-9)

    def test_sqrt_snowflake(self, cantor):
        space, _ = cantor
        snow = FiniteMetricSpace(dist=np.sqrt(space.dist))
        pd = fit_power_quasisymmetry(space, snow)
        assert pd is not None
        assert pd.nu == pytest.approx(0.5, abs=1e-9)
        assert pd.K == pytest.approx(1.0, abs=1e-9)

    def test_snowflake_check_identity(self, cantor):
        space, _ = cantor
        alpha, C = snowflake_check(space, space)
        assert alpha == pytest.approx(1.0, abs=1e-6)
        assert C == pytest.approx(1.0, abs=1e-6)

    def test_two_lambdas_snowflake_alpha_two(self, cantor):
        _, cover = cantor
        m2, _ = synthesize_visual_metric(cover, 2.0)
        m4, _ = synthesize_visual_metric(cover, 4.0)
        alpha, _C = snowflake_check(m2, m4)
        assert alpha == pytest.approx(2.0, abs=0.05)

    def test_row_scaled_perturbation_rejected(self, tree):
        space, _ = tree
        d2 = space.dist.copy()
        level = np.where(d2[0] > 0, np.round(-np.log2(np.where(d2[0] > 0, d2[0], 1.0))), 0)
        factor = 50.0 ** level
        d2[0, :] *= factor
        d2[:, 0] *= factor
        np.fill_diagonal(d2, 0.0)
        ctrl = FiniteMetricSpace(dist=d2)
        assert fit_power_quasisymmetry(space, ctrl) is None
        assert snowflake_check(space, ctrl) is None


def circle_fixture(n_exp: int = 6, depth: int = 4):
    """Angle-doubling on 2^n_exp circle points with halving dyadic arc covers."""
    n = 2 ** n_exp
    theta = 2 * np.pi * np.arange(n) / n
    diff = np.abs(theta[:, None] - theta[None, :])
    d = np.minimum(diff, 2 * np.pi - diff)
    space = FiniteMetricSpace(dist=d)
    levels = [[tuple(range(n))]]
    for lev in range(1, depth + 1):
        step = n // 2 ** lev
        fam = []
        for j in range(2 ** lev):
            members = [(j * step + k) % n for k in range(step + 1)]  # closed arcs
            fam.append(tuple(sorted(set(members))))
        levels.append(fam)
    cover = CoverSequence(space, levels, width=0, visual_parameter=2.0)
    gmap = (2 * np.arange(n)) % n
    return space, cover, gmap


class TestDynamicalChecks:
    def test_identity_constant_cover(self):
        xs = np.arange(4.0)
        space = FiniteMetricSpace(dist=np.abs(xs[:, None] - xs[None, :]))
        fam = [(0, 1, 2, 3)]
        cover = CoverSequence(space, [fam, fam, fam], width=0)
        rep = dynamical_checks(cover, np.arange(4), nu=1.0, exact_image=True)
        assert rep.passed

    def test_angle_doubling_passes(self):
        space, cover, gmap = circle_fixture()
        rep = dynamical_checks(cover, gmap, nu=1.0)
        assert rep.shift_ok
        assert rep.proximity_ok

    def test_shuffled_map_fails_shift(self):
        space, cover, gmap = circle_fixture()
        bad = gmap.copy()
        n = space.n
        bad[: n // 4] = (bad[: n // 4] + n // 2) % n  # break half an arc
        rep = dynamical_checks(cover, bad, nu=1.0)
        assert not rep.shift_ok
        assert rep.shift_violations

    def test_map_not_closed(self):
        space, cover, gmap = circle_fixture()
        with pytest.raises(MapNotClosed):
            dynamical_checks(cover, gmap + space.n, nu=1.0)


def test_cantor_julia_proximity_golden():
    """The proximity table of the z^2-3 pull-back tiles, pinned by SHA-256."""
    g = RationalMap.parse("z^2-3")
    pull = admissible_cover(g, julia_sample(g, 8), 0.25, grid=SphereGrid(K=256))
    cov = induce_tiles(pullback_cover(pull, 3))
    assert [len(f) for f in cov.levels] == [1, 6, 32, 64]
    assert cov.n_points == 256
    digest = hashlib.sha256(compute_proximity(cov).m.astype(np.int64).tobytes()).hexdigest()
    assert digest == "3195aa29536c773da33571492f9edb9244d32b4bb4d451da58ef86b2b59eae68"


@st.composite
def random_ultrametric_table(draw):
    """Random hierarchical proximity matrix (an ultrametric valuation)."""
    n = draw(st.integers(min_value=2, max_value=8))
    depth = draw(st.integers(min_value=1, max_value=4))
    labels = np.zeros(n, dtype=int)
    m = np.zeros((n, n), dtype=int)
    for lev in range(1, depth + 1):
        splits = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        labels = labels * 4 + np.array(splits)
        same = labels[:, None] == labels[None, :]
        m[same] = lev
    m[m == depth] = depth + 1
    np.fill_diagonal(m, depth + 1)
    return ProximityTable(m=m, width=0, truncation=depth)


@settings(max_examples=40, deadline=None)
@given(random_ultrametric_table(), st.sampled_from([1.5, 2.0]))
def test_chain_sandwich_property(table, lam):
    q = lam ** (-table.m.astype(float))
    np.fill_diagonal(q, 0.0)
    qm = QuasiMetric(q=q, K=max(1.0, empirical_quasi_constant(QuasiMetric(q=q, K=1.0))))
    if qm.K > 2.0:
        return
    out = chain_metrize(qm)
    assert np.all(out.dist <= qm.q * (1 + 1e-12))
    assert np.all(out.dist >= qm.q / (2 * qm.K) * (1 - 1e-12))
    # metric axioms
    d = out.dist
    assert np.allclose(d, d.T)
    for k in range(table.n):
        assert np.all(d <= d[:, k][:, None] + d[k, :][None, :] + 1e-12)


# -- plain per-pair and per-triple scans, the oracles for the kernels --


def c_iii_oracle(cover, m):
    """Per tile pair scan of condition (iii): (C_iii, witness)."""
    c_iii, wit = 0.0, None
    for lev in range(cover.depth + 1):
        fam = cover.levels[lev]
        if len(fam) < 2:
            continue
        sep = ~cover.reach_within(lev, 2 * cover.width + 1)
        mem = cover.membership(lev)
        for a in range(len(fam)):
            bs = np.flatnonzero(sep[a])
            ia = np.flatnonzero(mem[a])
            for b in bs[bs > a]:
                worst = int(m[np.ix_(ia, np.flatnonzero(mem[b]))].max())
                if worst - lev > c_iii:
                    c_iii = float(worst - lev)
                    wit = {"tiles": [[lev, a], [lev, int(b)]], "max_m": worst}
    return c_iii, wit


def c_iv_oracle(m):
    """Per pivot scan of condition (iv): (C_iv, witness triple)."""
    c_iv, wit = 0.0, None
    mf = m.astype(float)
    for z in range(len(m)):
        need = np.minimum.outer(mf[:, z], mf[z, :]) - mf
        i, j = map(int, np.unravel_index(int(np.argmax(need)), need.shape))
        if need[i, j] > c_iv:
            c_iv, wit = float(need[i, j]), [i, j, z]
    return c_iv, wit


def empirical_oracle(q):
    """Per pivot scan of the relaxed ultratriangle constant."""
    n = len(q)
    worst = 1.0
    for z in range(n):
        denom = np.maximum.outer(q[:, z], q[z, :])
        np.fill_diagonal(denom, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(denom > 0, q / denom, np.inf)
        ratio[np.arange(n), np.arange(n)] = 0.0
        ratio[:, z] = 0.0
        ratio[z, :] = 0.0
        worst = max(worst, float(ratio.max()))
    return worst


def random_table(cover, seed):
    """A symmetric table of random levels 0..N+1 with the sentinel diagonal."""
    rng = np.random.default_rng(seed)
    m = rng.integers(0, cover.depth + 2, size=(cover.n_points,) * 2)
    m = np.minimum(m, m.T)
    np.fill_diagonal(m, cover.depth + 1)
    return ProximityTable(m=m, width=cover.width, truncation=cover.depth)


def widened(table):
    """``table`` with its levels held as int64 instead of the narrow type."""
    wide = copy.copy(table)
    object.__setattr__(wide, "m", table.m.astype(np.int64))
    return wide


class TestNarrowTable:
    def test_int8_at_the_gasket_depth(self, gasket):
        assert compute_proximity(gasket[1]).m.dtype == np.int8

    @pytest.mark.parametrize("truncation, dtype", [(62, np.int8), (63, np.int16), (64, np.int16)])
    def test_levels_keep_their_values(self, truncation, dtype):
        rng = np.random.default_rng(truncation)
        m = rng.integers(0, truncation + 2, size=(40, 40))
        m = np.minimum(m, m.T)
        np.fill_diagonal(m, truncation + 1)
        table = ProximityTable(m=m, width=0, truncation=truncation)
        assert table.m.dtype == dtype
        assert np.array_equal(table.m, m)
        # what readers form in the table's own type does not wrap either
        c = table.m.dtype.type(table.sentinel)
        assert np.array_equal(2 * table.m, 2 * m)
        assert np.array_equal(table.m + c, m + table.sentinel)
        assert np.array_equal(table.m - c, m - table.sentinel)

    def test_large_entry_widens_the_type(self):
        m = np.array([[3, 200], [200, 3]])
        table = ProximityTable(m=m, width=0, truncation=2)
        assert table.m.dtype == np.int16
        assert np.array_equal(table.m, m) and np.array_equal(2 * table.m, 2 * m)

    def test_table_copies_the_callers_array(self):
        m = np.full((2, 2), 2)
        table = ProximityTable(m=m, width=0, truncation=1)
        assert m.flags.writeable and not table.m.flags.writeable
        m[0, 1] = 0
        assert table.m[0, 1] == 2

    def test_quasi_metric_copies_the_callers_array(self):
        q = np.ones((2, 2)) - np.eye(2)
        qm = QuasiMetric(q=q, K=1.0)
        assert q.flags.writeable and not qm.q.flags.writeable
        q[0, 1] = 5.0
        assert qm.q[0, 1] == 1.0

    @pytest.mark.parametrize("name", ["gasket", "interleaved", "dyadic", "tree"])
    def test_consumers_read_the_same_as_int64(self, name, request, monkeypatch):
        _, cover = request.getfixturevalue(name)
        graph = build_tile_graph(cover)
        pairs = [(graph.vertex_ids[i], graph.vertex_ids[j])
                 for i in range(0, graph.n_vertices, 7) for j in range(0, graph.n_vertices, 5)]
        g = (3 * np.arange(cover.n_points) + 1) % cover.n_points
        tables = [compute_proximity(cover)] + [random_table(cover, s) for s in range(2)]
        violations = []
        for narrow in tables:
            wide = widened(narrow)
            assert narrow.m.dtype == np.int8
            got, want = (check_combinatorially_visual(cover, t) for t in (narrow, wide))
            assert got.to_dict() == want.to_dict()
            for check in (None, got):
                qn, qw = (quasi_metric_from_m(t, 1.01, check) for t in (narrow, wide))
                assert qn.K == qw.K and qn.q.tobytes() == qw.q.tobytes()
            assert compare_m_gromov(graph, narrow).to_dict() == compare_m_gromov(graph, wide).to_dict()
            assert [extended_proximity(graph, narrow, x, y) for x, y in pairs] == [
                extended_proximity(graph, wide, x, y) for x, y in pairs]
            reports = []
            for t in (narrow, wide):
                monkeypatch.setattr(proximity, "compute_proximity", lambda cover, t=t: t)
                reports.append(dynamical_checks(cover, g, 0.5).proximity_violations)
            assert reports[0] == reports[1]
            violations += reports[0]
        assert violations  # the random tables break decay somewhere


class TestCombinatorialWitnesses:
    @pytest.mark.parametrize("name", ["gasket", "interleaved", "dyadic"])
    def test_iii_iv_match_scans(self, name, request):
        _, cover = request.getfixturevalue(name)
        tables = [compute_proximity(cover)] + [random_table(cover, s) for s in range(2)]
        for table in tables:
            chk = check_combinatorially_visual(cover, table)
            c_iii, wit_iii = c_iii_oracle(cover, table.m)
            c_iv, wit_iv = c_iv_oracle(table.m)
            assert (chk.C_iii, chk.witnesses.get("iii")) == (c_iii, wit_iii)
            assert (chk.C_iv, chk.witnesses.get("iv", {}).get("triple")) == (c_iv, wit_iv)
            assert type(chk.C_iii) is float and type(chk.C_iv) is float

    def test_iii_witness_at_first_level_of_a_tie(self):
        # two halves, each split in two; the excess reaches 2 on both levels
        space = FiniteMetricSpace(dist=np.abs(np.subtract.outer(np.arange(8.0), np.arange(8.0))))
        cover = CoverSequence(space, [[range(8)], [range(4), range(4, 8)],
                                      [(0, 1), (2, 3), (4, 5), (6, 7)]])
        m = np.full((8, 8), 3)
        m[:4, :4] = m[4:, 4:] = 4
        np.fill_diagonal(m, 3)
        table = ProximityTable(m=m, width=0, truncation=2)
        chk = check_combinatorially_visual(cover, table)
        assert (chk.C_iii, chk.witnesses["iii"]) == c_iii_oracle(cover, m)
        assert chk.witnesses["iii"] == {"tiles": [[1, 0], [1, 1]], "max_m": 3}

    def test_witnesses_are_nontrivial(self, gasket):
        # the fixtures above exercise both witness searches
        chk = check_combinatorially_visual(gasket[1])
        assert chk.C_iii > 0 and chk.C_iv > 0

    @pytest.mark.parametrize("name", ["gasket", "interleaved"])
    def test_table_only_constant(self, name, request):
        _, cover = request.getfixturevalue(name)
        table = compute_proximity(cover)
        lam = 1.05
        assert quasi_metric_from_m(table, lam).K == max(lam ** c_iv_oracle(table.m)[0], 1.0)

    @pytest.mark.parametrize("name", ["gasket", "interleaved", "dyadic", "cantor"])
    def test_empirical_constant_matches_scan(self, name, request):
        _, cover = request.getfixturevalue(name)
        for lam in (1.05, 1.5):
            q = lam ** (-compute_proximity(cover).m.astype(float))
            np.fill_diagonal(q, 0.0)
            assert empirical_quasi_constant(QuasiMetric(q=q, K=1.0)) == empirical_oracle(q)

    def test_empirical_constant_small_and_zero_denominators(self):
        for n in (1, 2, 3):
            q = np.ones((n, n)) - np.eye(n)
            assert empirical_quasi_constant(QuasiMetric(q=q, K=1.0)) == empirical_oracle(q)
        # a zero q(0,1) is no zero denominator while z ranges over third points
        q = np.ones((3, 3)) - np.eye(3)
        q[0, 1] = q[1, 0] = 0.0
        assert empirical_quasi_constant(QuasiMetric(q=q, K=1.0)) == empirical_oracle(q) == 1.0
        # q(0,2) = q(2,1) = 0 makes a denominator 0: the constant is unbounded
        q = np.ones((4, 4)) - np.eye(4)
        q[0, 2] = q[2, 0] = q[2, 1] = q[1, 2] = 0.0
        assert empirical_quasi_constant(QuasiMetric(q=q, K=1.0)) == empirical_oracle(q) == np.inf


@settings(max_examples=60, deadline=None)
@given(random_ultrametric_table(), st.sampled_from([1.05, 1.5, 2.0]),
       st.integers(min_value=0, max_value=2))
def test_empirical_constant_property(table, lam, bump):
    # ``bump`` raises some off-diagonal entries so that the table is no longer
    # an ultrametric valuation and the constant exceeds 1
    m = table.m.copy()
    if bump and table.n > 2:
        m[0, 1] = m[1, 0] = max(int(m[0, 1]) - bump, 0)
    q = lam ** (-m.astype(float))
    np.fill_diagonal(q, 0.0)
    assert empirical_quasi_constant(QuasiMetric(q=q, K=1.0)) == empirical_oracle(q)
    c_iv, _ = c_iv_oracle(m)
    assert quasi_metric_from_m(ProximityTable(m=m, width=0, truncation=table.truncation),
                               1.01).K == max(1.01 ** c_iv, 1.0)
