"""The row-block-streamed dynamical checks against the whole-matrix scans they
replace, and a guard on the memory they take."""

import tracemalloc

import numpy as np
import pytest

from qvista import proximity
from qvista.covers import derive_rho_tau_nu
from qvista.errors import MapNotClosed
from qvista.julia import RationalMap, admissible_cover, induce_tiles, julia_sample, pullback_cover
from qvista.proximity import DynamicalReport, compute_proximity, dynamical_checks
from qvista.spheregrid import SphereGrid


def dynamical_checks_oracle(cover, point_map, nu=None, shift_tolerance=0.0, exact_image=False):
    """``dynamical_checks`` as it scanned before streaming: the decay check
    over whole n x n matrices, the distortion scan over whole ball x ball
    submatrices."""
    g = np.asarray(point_map, dtype=np.int64)
    n_pts = cover.n_points
    if g.shape != (n_pts,) or g.min() < 0 or g.max() >= n_pts:
        raise MapNotClosed("point map must be a self-map of the sample index set")
    d = cover.space.dist
    depth = cover.depth

    shift_violations = []
    for lev in range(1, depth):
        mem_up = cover.membership(lev)
        hosts = cover.members(lev)
        for t, idx in zip(cover.levels[lev + 1], cover.members(lev + 1)):
            img = np.unique(g[idx])
            contained = mem_up[:, img].all(axis=1)
            if contained.any():
                if exact_image and not any(
                    np.array_equal(img, hosts[a]) for a in np.flatnonzero(contained)
                ):
                    shift_violations.append({"tile": [t.level, t.index],
                                             "reason": "not exact image"})
                continue
            best = np.inf
            for ia in hosts:
                gap = float(d[np.ix_(img, ia)].min(axis=1).max())
                best = min(best, gap)
            if best > shift_tolerance:
                shift_violations.append({"tile": [t.level, t.index], "excess": best})

    table = compute_proximity(cover)
    m = table.m
    rhs = np.minimum(m, depth)
    prox_violations = []
    gn = np.arange(n_pts)
    for k in range(1, depth + 1):
        gn = g[gn]
        rhs -= 1
        bad = m[np.ix_(gn, gn)] < rhs
        if bad.any():
            i, j = map(int, np.unravel_index(int(np.argmax(bad)), bad.shape))
            prox_violations.append(
                {"n": k, "pair": [i, j], "m": int(m[i, j]), "m_image": int(m[gn[i], gn[j]])}
            )

    if nu is None:
        nu = 1.0
    dist_C = 0.0
    gn = np.arange(n_pts)
    for k in range(1, depth):
        gn = g[gn]
        diams = cover.diams(k + 1)
        for dm, idx in zip(diams, cover.members(k + 1)):
            if dm == 0:
                continue
            z0 = idx[0]
            ball = np.flatnonzero(d[z0] < 2.0 * dm)
            if ball.size < 2:
                continue
            sub = d[np.ix_(ball, ball)]
            img = d[np.ix_(gn[ball], gn[ball])]
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = (sub / dm) ** nu
                ratio = np.where(bound > 0, img / bound, 0.0)
            dist_C = max(dist_C, float(ratio.max()))

    return DynamicalReport(
        shift_ok=not shift_violations,
        shift_violations=shift_violations,
        proximity_ok=not prox_violations,
        proximity_violations=prox_violations,
        distortion_C=dist_C,
        nu=float(nu),
    )


def julia_cover(text, depth, K=256, levels=3):
    g = RationalMap.parse(text)
    sample = julia_sample(g, depth)
    cover = induce_tiles(pullback_cover(admissible_cover(g, sample, 0.25, grid=SphereGrid(K=K)), levels))
    return cover, sample.self_map, derive_rho_tau_nu(cover).nu


@pytest.fixture(scope="module")
def basilica_1024():
    """z^2-1 at depth 10: 1024 points, whose largest distortion ball holds
    hundreds of points, more than one row block."""
    return julia_cover("z^2-1", 10)


def ball_sizes(cover):
    d = cover.space.dist
    return [
        int((d[idx[0]] < 2.0 * dm).sum())
        for k in range(1, cover.depth)
        for dm, idx in zip(cover.diams(k + 1), cover.members(k + 1))
        if dm > 0
    ]


def assert_same_report(cover, point_map, nu, **kw):
    got = dynamical_checks(cover, point_map, nu=nu, **kw)
    want = dynamical_checks_oracle(cover, point_map, nu=nu, **kw)
    assert got.to_dict() == want.to_dict()
    assert got.shift_violations == want.shift_violations
    assert got.proximity_violations == want.proximity_violations
    assert np.float64(got.distortion_C).tobytes() == np.float64(want.distortion_C).tobytes()
    return got


@pytest.mark.parametrize("text", ["z^2-1", "z^2-3"])
def test_small_julia_covers_match_oracle(text):
    cover, g, nu = julia_cover(text, 8)
    assert cover.n_points ** 2 <= proximity.ROW_BLOCK  # the decay check is one block
    assert_same_report(cover, g, nu)
    assert_same_report(cover, g, 1.0, shift_tolerance=0.05)


@pytest.mark.parametrize("row_block", [proximity.ROW_BLOCK, 4096])
def test_balls_beyond_one_row_block_match_oracle(basilica_1024, monkeypatch, row_block):
    cover, g, nu = basilica_1024
    monkeypatch.setattr(proximity, "ROW_BLOCK", row_block)
    assert max(ball_sizes(cover)) ** 2 > proximity.ROW_BLOCK
    rep = assert_same_report(cover, g, nu)
    assert rep.distortion_C > 0


@pytest.mark.parametrize("row_block", [proximity.ROW_BLOCK, 4096])
def test_perturbed_map_violations_match_oracle(basilica_1024, monkeypatch, row_block):
    cover, g, nu = basilica_1024
    monkeypatch.setattr(proximity, "ROW_BLOCK", row_block)
    bad = g.copy()
    # every point level-2 proximate to point 7 has index 7 or more, so the
    # decay witnesses lie past the first blocks of 4 rows
    bad[7] = g[7 + g.size // 2]
    rep = assert_same_report(cover, bad, nu)
    assert rep.shift_violations and rep.proximity_violations
    assert min(v["pair"][0] for v in rep.proximity_violations) >= 4
    rng = np.random.default_rng(1)
    bad = g.copy()
    bad[rng.choice(g.size, size=8, replace=False)] = rng.integers(0, g.size, size=8)
    rep = assert_same_report(cover, bad, nu)
    assert rep.shift_violations and rep.proximity_violations


def self_maps(n, seed=2):
    """The identity, a shift of the indices and a random map with repeats, so
    that some images are exact, some merely hosted and some stick out."""
    rng = np.random.default_rng(seed)
    return [np.arange(n), np.roll(np.arange(n), 1), rng.integers(0, n, size=n)]


@pytest.mark.parametrize("name", ["cantor", "cantor_small", "dyadic", "tree", "interleaved", "gasket"])
@pytest.mark.parametrize("exact_image", [False, True])
def test_fixture_covers_shift_check_matches_oracle(name, exact_image, request):
    _, cover = request.getfixturevalue(name)
    reasons = set()
    for g in self_maps(cover.n_points):
        for tol in (0.0, 0.05):
            rep = assert_same_report(cover, g, 0.5, shift_tolerance=tol, exact_image=exact_image)
            reasons |= {next(k for k in v if k != "tile") for v in rep.shift_violations}
    assert reasons == ({"excess", "reason"} if exact_image else {"excess"})


def test_julia_cover_exact_image_matches_oracle(basilica_1024):
    cover, g, nu = basilica_1024
    assert_same_report(cover, g, nu, exact_image=True)
    bad = g.copy()
    bad[7] = g[7 + g.size // 2]
    rep = assert_same_report(cover, bad, nu, exact_image=True)
    assert rep.shift_violations


def traced_peak(fn) -> int:
    """Peak traced allocation of ``fn()`` above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_checks_build_no_quadratic_temporary(basilica_1024):
    """Beside the proximity table, the streamed scans hold only row blocks.

    The table is an n x n int64 matrix, 8 bytes a pair.  An n x n matrix of
    the decay check, or a ball x ball float64 matrix of the distortion scan
    (the largest ball here is over half the sample), adds over 2 bytes a pair
    at this n.
    """
    cover, g, nu = basilica_1024
    n = cover.n_points
    assert n == 1024 and max(ball_sizes(cover)) ** 2 * 8 > 2 * n * n
    dynamical_checks(cover, g, nu=nu)  # fill the cover's caches first
    table_peak = traced_peak(lambda: compute_proximity(cover))
    checks_peak = traced_peak(lambda: dynamical_checks(cover, g, nu=nu))
    assert table_peak >= 8 * n * n
    assert checks_peak - table_peak < 2 * n * n
