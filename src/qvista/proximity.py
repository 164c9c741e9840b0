"""The proximity function of a cover sequence and metrics synthesized from it.

The proximity of two points is the last level at which they occupy tiles
whose width-w neighborhoods still meet.  On a finite truncation, equal points
and pairs still proximate at the top level receive a sentinel value of N+1:
"not separated within certification".  Wherever a number is unavoidable the
sentinel enters as N+1, consistently across this module, so that derived
constants remain valid bounds for the certified range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .covers import (
    CoverSequence,
    VerificationReport,
    WorstCase,
    bool_product,
    check_lambda,
    maxmin_product,
    tile_pair_reduce,
    tile_reduce,
    verify_visual,
)
from .errors import KTooLarge, LambdaTooLarge, MapNotClosed
from .metricspace import FiniteMetricSpace

NU_GRID = tuple(round(0.05 * k, 2) for k in range(1, 21))  # 0.05 .. 1.00
K_CAP = 1e6
ROW_BLOCK = 1 << 16  # entries per row block of the quadratic scans in dynamical_checks
CHAIN_PIVOT_BLOCK = 64  # pivots per block of the chain metric's Floyd-Warshall
CHAIN_ROW_CHUNK = 32  # rows per chunk it updates at once


@dataclass(frozen=True)
class ProximityTable:
    """Symmetric matrix of proximity levels with sentinel N+1."""

    m: np.ndarray  # int matrix
    width: int
    truncation: int

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.int64)
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    @property
    def sentinel(self) -> int:
        return self.truncation + 1

    @property
    def n(self) -> int:
        return self.m.shape[0]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "width": self.width,
            "truncation": self.truncation,
            "sentinel": self.sentinel,
            "m": self.m.tolist(),
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")


@dataclass(frozen=True)
class QuasiMetric:
    """Symmetric q with q(x,y)=0 iff x=y and a relaxed ultratriangle constant K."""

    q: np.ndarray
    K: float

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class PowerDistortion:
    """Distortion eta(t) = K * max(t^nu, t^(1/nu))."""

    K: float
    nu: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.K * np.maximum(t ** self.nu, t ** (1.0 / self.nu))

    def to_dict(self) -> dict:
        return {"K": self.K, "nu": self.nu}


def _point_proximity_at_level(cover: CoverSequence, level: int) -> np.ndarray:
    """Boolean matrix: pairs occupying tiles X, Y with U_w(X) meeting U_w(Y)."""
    mem = cover.membership(level)
    return bool_product(mem.T, ~cover.separated(level), mem)


def compute_proximity(cover: CoverSequence) -> ProximityTable:
    """Largest level at which two points are still width-w proximate.

    Pairs proximate at the truncation depth N (in particular every diagonal
    entry) receive the sentinel N+1.
    """
    n = cover.n_points
    depth = cover.depth
    m = np.zeros((n, n), dtype=np.int64)
    for lev in range(1, depth + 1):
        prox = _point_proximity_at_level(cover, lev)
        m[prox] = lev
    m[m == depth] = depth + 1
    np.fill_diagonal(m, depth + 1)
    return ProximityTable(m=m, width=cover.width, truncation=depth)


@dataclass
class CombinatorialCheck:
    """Constants for the four combinatorial conditions on the proximity function.

    ``C`` is the max of the per-condition constants, matching how downstream
    arguments consume them.  Condition (i) is informational at a finite
    truncation: distinct pairs still proximate at the top level are counted,
    not failed.  Tiles whose member pairs are all unresolved (every within-tile
    proximity is sentinel; in particular all top-level tiles) do not enter the
    condition-(ii) constant and are counted separately.
    """

    C_ii: float
    C_iii: float
    C_iv: float
    unresolved_pairs: int
    unresolved_tiles: int
    table: ProximityTable
    witnesses: dict = field(default_factory=dict)

    @property
    def C(self) -> float:
        return max(self.C_ii, self.C_iii, self.C_iv)

    @property
    def passed(self) -> bool:
        return np.isfinite(self.C)

    def to_dict(self) -> dict:
        return {
            "C": self.C,
            "C_ii": self.C_ii,
            "C_iii": self.C_iii,
            "C_iv": self.C_iv,
            "unresolved_pairs": self.unresolved_pairs,
            "unresolved_tiles": self.unresolved_tiles,
            "witnesses": self.witnesses,
        }


def check_combinatorially_visual(
    cover: CoverSequence, table: ProximityTable | None = None
) -> CombinatorialCheck:
    """Extract the smallest constants for the combinatorial cover conditions.

    (ii)  every resolved tile X^n contains a pair with m <= n + C;
    (iii) width-w separated same-level pairs have m <= n + C across all
          member pairs;
    (iv)  m(x,y) >= min(m(x,z), m(z,y)) - C over all triples, with the
          sentinel entering as the number N+1.

    The (iii) constant reduces m over each pair of tiles at once, and the
    (iv) constant is the (max,min) product of m with itself minus m.  The
    witnesses are those of a plain scan: for (iii) the first (level, a, b)
    with a < b, by level and then row-major, whose excess reaches C_iii; for
    (iv) the first z, in ascending order, at which some pair reaches C_iv,
    and the row-major first such pair (x, y) at that z.
    """
    if table is None:
        table = compute_proximity(cover)
    m = table.m
    sentinel = table.sentinel
    witnesses: dict = {}
    off = ~np.eye(table.n, dtype=bool)
    unresolved_pairs = int(np.count_nonzero((m == sentinel) & off) // 2)

    c_ii, c_iii = WorstCase(0.0), WorstCase(0.0)
    unresolved_tiles = 0
    m_off = np.where(off, m, sentinel)
    for lev in range(cover.depth + 1):
        # per tile, the smallest m over its pairs of distinct members
        best = tile_reduce(m_off, cover.members(lev), np.minimum).min(
            axis=1, where=cover.membership(lev), initial=sentinel
        )
        resolved = best < sentinel
        unresolved_tiles += int(np.count_nonzero(~resolved))
        if (at := c_ii.offer(best - lev, where=resolved)) is not None:
            witnesses["ii"] = {"tile": [lev, at[0]], "min_m": int(best[at])}

    for lev in range(cover.depth + 1):
        sep = np.triu(cover.separated(lev), 1)
        if not sep.any():
            continue
        worst = tile_pair_reduce(m, cover.members(lev), np.maximum)
        if (at := c_iii.offer(worst - lev, where=sep)) is not None:
            witnesses["iii"] = {"tiles": [[lev, at[0]], [lev, at[1]]], "max_m": int(worst[at])}

    need = maxmin_product(m) - m
    c_iv = float(max(need.max(), 0))
    if c_iv > 0:
        witnesses["iv"] = {"triple": _first_triple(m, need)}

    return CombinatorialCheck(
        C_ii=c_ii.value,
        C_iii=c_iii.value,
        C_iv=c_iv,
        unresolved_pairs=unresolved_pairs,
        unresolved_tiles=unresolved_tiles,
        table=table,
        witnesses=witnesses,
    )


def _first_triple(m: np.ndarray, need: np.ndarray) -> list[int]:
    """Witness [x, y, z] of the largest triple excess ``need`` of m.

    z is the first point, in ascending order, at which some pair reaches the
    maximum; (x, y) is the row-major first such pair at that z.  A pair with
    need c reaches it at z exactly when m[x, z] and m[z, y] are both at least
    m[x, y] + c, so one boolean product per target level finds the z.
    """
    c = need.max()
    top = need == c
    z = len(m)
    for t in np.unique(m[top] + c):
        b = m >= t
        hit = np.flatnonzero((bool_product(b.T, top & (m + c == t)) & b).any(axis=1))
        z = min(z, int(hit[0]))
    at_z = np.minimum.outer(m[:, z], m[z, :]) - m
    x, y = np.unravel_index(int(np.argmax(at_z)), at_z.shape)
    return [int(x), int(y), z]


def quasi_metric_from_m(
    table: ProximityTable, lam: float, check: CombinatorialCheck | None = None,
    cover: CoverSequence | None = None,
) -> QuasiMetric:
    """q(x,y) = lam^-m(x,y) with the sentinel entering as N+1; K = lam^C.

    C is the combinatorial constant when a check (or the cover) is supplied;
    from the table alone only the triple condition is computable, which is
    exactly what the quasi-metric inequality consumes.  The relaxed
    ultratriangle inequality with K is re-verified exhaustively; by
    construction of the triple constant it cannot fail.
    """
    check_lambda(lam)
    if check is None and cover is not None:
        check = check_combinatorially_visual(cover, table)
    if check is not None:
        C = check.C
    else:
        m = table.m
        C = float(max((maxmin_product(m) - m).max(), 0))
    K = float(lam) ** C
    if K > 2.0:
        raise LambdaTooLarge(
            f"lam^C = {K!r} exceeds 2; shrink lam below {2 ** (1 / max(C, 1e-9))!r}"
        )
    mf = table.m.astype(float)
    q = float(lam) ** (-mf)
    np.fill_diagonal(q, 0.0)
    qm = QuasiMetric(q=q, K=max(K, 1.0))
    emp = empirical_quasi_constant(qm)
    if emp > qm.K * (1 + 1e-12):
        raise AssertionError(f"triple re-verification found K={emp!r} > {qm.K!r}")
    return qm


def empirical_quasi_constant(qm: QuasiMetric) -> float:
    """Smallest K with q(x,y) <= K max(q(x,z), q(z,y)) over triples of distinct points.

    The smallest denominator over z is the (max,min) product of -q with its
    diagonal masked, so that z is neither x nor y: one boolean product per
    distinct value of q.  Its entries are entries of q, so each
    ratio is the same float as dividing by that triple's own denominator.
    """
    q = qm.q
    off = ~np.eye(qm.n, dtype=bool)
    a = np.where(off, -q, -np.inf)
    denom = -maxmin_product(a)  # inf where no z is left
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom > 0, q / denom, np.inf)
    return max(1.0, float(ratio[off].max(initial=0.0)))


def chain_metrize(qm: QuasiMetric) -> FiniteMetricSpace:
    """Shortest-path metrization: d = min over chains of the sum of q-steps.

    Requires K <= 2; then the chain metric satisfies q/(2K) <= d <= q
    entrywise (verified exhaustively here).  The chains come from a
    Floyd-Warshall in numpy whose result is bitwise equal to scipy's
    ``floyd_warshall(q, directed=False)``.  It needs q > 0 off the diagonal
    and rejects any other q: scipy would read a 0 there as a missing edge,
    while a quasi-metric is 0 only on the diagonal.
    """
    if qm.K > 2.0:
        raise KTooLarge(f"quasi-metric constant {qm.K!r} exceeds 2")
    if not (qm.q[~np.eye(qm.n, dtype=bool)] > 0).all():
        raise ValueError("quasi-metric must be positive off the diagonal")
    d = _shortest_chains(qm.q)
    lower = qm.q / (2.0 * qm.K)
    if not np.all(d <= qm.q * (1 + 1e-12)):
        raise AssertionError("chain metric exceeds q somewhere")
    if not np.all(d >= lower * (1 - 1e-12)):
        raise AssertionError("chain metric dips below q/(2K) somewhere")
    return FiniteMetricSpace(dist=d)


def _shortest_chains(q: np.ndarray) -> np.ndarray:
    """All-pairs shortest chains of the symmetrized min(q, q^T), by
    Floyd-Warshall with pivots in increasing order.

    Every entry is the float that the textbook loop, d[i, j] = min(d[i, j],
    d[i, k] + d[k, j]) for k, i, j in turn, leaves there.  d stays exactly
    symmetric, since each sum is the same two floats either way round, so
    only the upper triangle is updated, by row chunks, and mirrored at the
    end.  Pivots go in blocks of b.  Before a block is applied, its pivot
    rows are brought up to date with the block's earlier pivots, O(b^2 n);
    by symmetry pivot row k then also holds the column d[i, k] that each
    row i reads.  A chunk skips pivot k when no sum through k can beat the
    chunk's largest entry: d[i, k] + min_{j != k} d[k, j] >= max d for each
    row i of the chunk (j = k and j = i improve nothing).
    """
    n = q.shape[0]
    d = np.minimum(q, q.T)
    np.fill_diagonal(d, 0.0)
    scratch = np.empty(CHAIN_ROW_CHUNK * n)
    for k0 in range(0, n, CHAIN_PIVOT_BLOCK):
        k1 = min(k0 + CHAIN_PIVOT_BLOCK, n)
        b = k1 - k0
        # the pivot rows, each read from the upper triangle
        piv = d[k0:k1].copy()
        piv[:, :k0] = d[:k0, k0:k1].T
        piv[:, k0:k1] = np.where(np.tri(b, dtype=bool), d[k0:k1, k0:k1].T, d[k0:k1, k0:k1])
        for a in range(b - 1):
            piv[a + 1:] = np.minimum(piv[a + 1:], piv[a + 1:, k0 + a, None] + piv[a])
        off = piv.copy()
        off[np.arange(b), np.arange(k0, k1)] = np.inf
        step = off.min(axis=1)  # the shortest step out of each pivot
        for i0 in range(0, n, CHAIN_ROW_CHUNK):
            i1 = min(i0 + CHAIN_ROW_CHUNK, n)
            chunk = d[i0:i1, i0:]
            sums = scratch[:chunk.size].reshape(chunk.shape)
            for a in np.flatnonzero(piv[:, i0:i1].min(axis=1) + step < chunk.max()):
                np.add(piv[a, i0:i1, None], piv[a, None, i0:], out=sums)
                np.minimum(chunk, sums, out=chunk)
    for i0 in range(CHAIN_ROW_CHUNK, n, CHAIN_ROW_CHUNK):
        d[i0:i0 + CHAIN_ROW_CHUNK, :i0] = d[:i0, i0:i0 + CHAIN_ROW_CHUNK].T
    return d


def synthesize_visual_metric(
    cover: CoverSequence, lam: float
) -> tuple[FiniteMetricSpace, VerificationReport]:
    """proximity -> quasi-metric -> chain metric, then verify the cover is a
    visual approximation of the synthesized metric at parameter lam."""
    table = compute_proximity(cover)
    check = check_combinatorially_visual(cover, table)
    qm = quasi_metric_from_m(table, lam, check)
    space = chain_metrize(qm)
    bound = cover.with_space(space)
    bound.visual_parameter = float(lam)
    return space, verify_visual(bound)


def fit_power_quasisymmetry(
    space_d1: FiniteMetricSpace, space_d2: FiniteMetricSpace
) -> PowerDistortion | None:
    """Fit eta(t) = K max(t^nu, t^(1/nu)) certifying the identity map as a
    quasisymmetry between the two metrics; None when K exceeds the cap for
    every nu in both directions."""
    best = None
    for forward in (True, False):
        a = space_d1.dist if forward else space_d2.dist
        b = space_d2.dist if forward else space_d1.dist
        k_dir = None
        # descending nu: among equal K the least-distortion certificate wins
        for nu in sorted(NU_GRID, reverse=True):
            k = _min_k_for_nu(a, b, nu)
            if k <= K_CAP and (k_dir is None or k < k_dir[0] * (1 - 1e-9)):
                k_dir = (k, nu)
        if k_dir is None:
            return None
        if forward:
            best = k_dir
    return PowerDistortion(K=float(best[0]), nu=float(best[1]))


def _min_k_for_nu(d1: np.ndarray, d2: np.ndarray, nu: float) -> float:
    """Smallest K with d2(x,y) <= eta(d1(x,y)/d1(x,z)) d2(x,z) over all triples."""
    n = d1.shape[0]
    worst = 1.0
    for x in range(n):
        r1 = d1[x]
        r2 = d2[x]
        ok = r1 > 0  # z != x
        t = np.where(ok[None, :], r1[:, None] / np.where(ok, r1, 1.0)[None, :], 0.0)
        eta = np.maximum(t ** nu, t ** (1.0 / nu))
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = eta * r2[None, :]
            ratio = np.where(
                denom > 0,
                r2[:, None] / np.where(denom > 0, denom, 1.0),
                np.where(r2[:, None] > 0, np.inf, 0.0),
            )
        ratio = np.where(ok[None, :], ratio, 0.0)
        ratio = np.where(np.isfinite(ratio), ratio, np.inf)
        worst = max(worst, float(ratio.max()))
        if worst > K_CAP * 1e6:
            break
    return worst


def snowflake_check(
    space_d1: FiniteMetricSpace,
    space_d2: FiniteMetricSpace,
    residual_threshold: float = np.log(8.0),
) -> tuple[float, float] | None:
    """Fit d2 ~ C^{+-1} d1^alpha by Chebyshev regression in log-log space.

    Returns (alpha, C) or None when the best max-residual exceeds the
    threshold.  Pairs with a zero distance in either metric are excluded.
    """
    mask = ~np.eye(space_d1.n, dtype=bool) & (space_d1.dist > 0) & (space_d2.dist > 0)
    if not mask.any():
        return None
    x = np.log(space_d1.dist[mask])
    y = np.log(space_d2.dist[mask])

    def residual(alpha: float) -> float:
        r = y - alpha * x
        return 0.5 * float(r.max() - r.min())

    lo, hi = 1e-3, 1e3
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if residual(m1) <= residual(m2):
            hi = m2
        else:
            lo = m1
    alpha = 0.5 * (lo + hi)
    res = residual(alpha)
    if res > residual_threshold:
        return None
    return float(alpha), float(np.exp(res))


@dataclass
class DynamicalReport:
    """Results of the three dynamical cover checks."""

    shift_ok: bool
    shift_violations: list
    proximity_ok: bool
    proximity_violations: list
    distortion_C: float
    nu: float

    @property
    def passed(self) -> bool:
        return self.shift_ok and self.proximity_ok

    def to_dict(self) -> dict:
        return {
            "shift_ok": self.shift_ok,
            "shift_violations": self.shift_violations[:5],
            "proximity_ok": self.proximity_ok,
            "proximity_violations": self.proximity_violations[:5],
            "distortion_C": self.distortion_C,
            "nu": self.nu,
        }


def dynamical_checks(
    cover: CoverSequence,
    point_map: np.ndarray,
    nu: float,
    shift_tolerance: float = 0.0,
    exact_image: bool = False,
) -> DynamicalReport:
    """Verify the level-shift property, proximity decay, and distortion bound.

    ``point_map`` is the self-map of the sample as an index array.  The shift
    check asks each (n+1)-tile's image point set to lie in a single n-tile,
    within ``shift_tolerance`` in the space's metric (0 = exact containment);
    ``exact_image`` additionally requires the image set's containing tile to
    be unique per spec of the generating dynamics.  The distortion check fits
    the smallest C with d(g^n x, g^n y) <= C (d(x,y)/diam Z)^nu over pairs in
    balls B(z0, 2 diam Z) around members of (n+1)-tiles Z.

    Both quadratic scans stream in row blocks of at most ``ROW_BLOCK``
    entries, so neither builds an n x n or ball x ball temporary beside the
    proximity table: the distortion scan takes the rows of each ball against
    the whole ball, and the decay check stops at the first block that holds a
    violation, whose first entry is still the first violating pair in
    row-major order.
    """
    g = np.asarray(point_map, dtype=np.int64)
    n_pts = cover.n_points
    if g.shape != (n_pts,) or g.min() < 0 or g.max() >= n_pts:
        raise MapNotClosed("point map must be a self-map of the sample index set")
    d = cover.space.dist
    depth = cover.depth

    shift_violations = []
    for lev in range(1, depth):
        mem_up, mem_dn = cover.membership(lev), cover.membership(lev + 1)
        # image point sets: one scatter, so a non-injective g keeps every point
        img = np.zeros_like(mem_dn)
        tile, point = np.nonzero(mem_dn)
        img[tile, g[point]] = True
        contained = ~bool_product(img, ~mem_up.T)  # image of tile t inside host a
        hosted = contained.any(axis=1)
        # an image inside a host of its own size is that host
        exact = (contained & (img.sum(axis=1)[:, None] == mem_up.sum(axis=1))).any(axis=1)
        # nearest-host slack of the unhosted tiles: how far each image sticks
        # out of its best host, the largest dist(g(x), X_a) over members x,
        # least over hosts X_a
        excess = np.zeros(len(hosted))
        loose = np.flatnonzero(~hosted)
        if loose.size:
            near = tile_reduce(d, cover.members(lev), np.minimum).T  # near[p, a] = dist(p, X_a)
            members = [cover.members(lev + 1)[t] for t in loose]
            excess[loose] = tile_reduce(near[g], members, np.maximum).min(axis=1)
        failed = np.where(hosted, exact_image & ~exact, excess > shift_tolerance)
        shift_violations += [
            {"tile": [lev + 1, int(t)], "reason": "not exact image"} if hosted[t]
            else {"tile": [lev + 1, int(t)], "excess": float(excess[t])}
            for t in np.flatnonzero(failed)
        ]

    m = compute_proximity(cover).m
    prox_violations = []
    step = max(1, ROW_BLOCK // n_pts)
    gn = np.arange(n_pts)
    for k in range(1, depth + 1):
        gn = g[gn]
        for lo in range(0, n_pts, step):
            rows = slice(lo, lo + step)
            # sentinel pairs certify proximity only up to the truncation depth
            bad = m[np.ix_(gn[rows], gn)] < np.minimum(m[rows], depth) - k
            if bad.any():
                i, j = map(int, np.unravel_index(int(np.argmax(bad)), bad.shape))
                i += lo
                prox_violations.append(
                    {"n": k, "pair": [i, j], "m": int(m[i, j]), "m_image": int(m[gn[i], gn[j]])}
                )
                break

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
            img_ball = gn[ball]
            step = max(1, ROW_BLOCK // ball.size)
            for lo in range(0, ball.size, step):
                sub = d[np.ix_(ball[lo:lo + step], ball)]
                img = d[np.ix_(img_ball[lo:lo + step], img_ball)]
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
