"""Julia sets of rational maps: sampling, dynamical pull-back covers, probes.

The sample is produced by inverse iteration from a repelling fixed point, so
it is a subset of the Julia set that is exactly forward invariant.  Ambient
covers live on the live cells of the two-chart sphere raster (each chart's
disc of radius 1 + 2 grid steps, see ``spheregrid``): a level-1 family of
spherical balls around a net of the sample is pulled back one step at a time
by marking the live cells whose image lands in the parent region and
splitting them into connected components, stitched across the charts
through the seam band.  Cells off the live set have image -1 and are never
marked.  Preimage components are never computed by factoring iterates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .covers import (
    CoverSequence,
    check_depth,
    connected_components,
    derive_rho_tau_nu,
    group_by_label,
    run_indices,
    verify_quasi_visual,
)
from .errors import (
    EmptyLevel,
    ResolutionInsufficient,
    RootFindFailure,
    SeedNotRepelling,
)
from .metricspace import FiniteMetricSpace, greedy_separated_subset
from .proximity import dynamical_checks
from .sphere import BLOCK_ROWS, sphere_from_complex_array, spherical_dist_matrix
from .spheregrid import FILL_BLOCK, InverseImage, SphereGrid, inverse_image, locate_cells

MAX_PREIMAGE_COUNT = 4096
ROOT_CLUSTER_TOL = 1e-7
ANCHOR_CLUSTER_TOL = 1e-6  # relative; degree_probe's anchor preimages
# the tokens of a map's text: numbers (with e/E exponents), z, the
# imaginary unit i, I or j, the operators + - * / ^, parentheses and spaces;
# a number ends where no digit or dot follows, so a text splits one way only
MAP_GRAMMAR = re.compile(
    r"(?:(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?(?![\d.])|[zijI]|[-+*/^() ])*"
)


def _strip_leading(c: np.ndarray) -> np.ndarray:
    keep = np.flatnonzero(c)
    return c[keep[0]:] if keep.size else c[-1:]


@dataclass(eq=False)
class RationalMap:
    """A rational map p/q on the sphere, coefficients highest power first.

    Equality is identity: arrays have no single truth value to compare by.
    """

    p: np.ndarray
    q: np.ndarray
    text: str = ""
    _img_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.p = _strip_leading(np.asarray(self.p, dtype=complex))
        self.q = _strip_leading(np.asarray(self.q, dtype=complex))
        if not (np.isfinite(self.p).all() and np.isfinite(self.q).all()):
            raise ValueError(f"map {self.text!r} has a non-finite coefficient")
        if self.degree < 2:
            raise ValueError("rational map must have degree >= 2")

    @property
    def degree(self) -> int:
        return max(self.p.size, self.q.size) - 1

    @property
    def root_cluster_tol(self) -> float:
        """Distance within which numerical roots of g(z) = w or g(z) = z merge
        into one multiple root (relative above modulus 1).

        A k-fold root splits by about eps**(1/k), and ``ROOT_CLUSTER_TOL`` is
        sized for the sqrt(eps) split of a double root, so it is raised to
        the power 2/d.  A d-fold root, the highest multiplicity g(z) = w can
        have, then merges; at d = 2 the tolerance is ``ROOT_CLUSTER_TOL``
        exactly.
        """
        return ROOT_CLUSTER_TOL ** (2.0 / self.degree)

    @classmethod
    def parse(cls, text: str) -> "RationalMap":
        """Parse e.g. "z^2 - 2", "(z^2+1)/(z^2-1)", complex coeffs "(1+2i)*z^3".

        ValueError when ``text`` is not a quotient of polynomials in z with
        numeric coefficients.  sympy evaluates its input as Python, so text
        outside ``MAP_GRAMMAR`` is refused before sympy sees it: no name but
        z and the imaginary unit, and no dot outside a number, can reach it.
        The text is also refused when an exponent exceeds
        ``MAX_PREIMAGE_COUNT`` = 4096 in size, or nested powers multiply
        their exponents past it (``(z^64)^64`` is read, ``(z^64)^65`` is
        not); this is read off the unevaluated text, so "9^9^9" is never
        computed.
        """
        if not MAP_GRAMMAR.fullmatch(text):
            raise ValueError(f"cannot read map {text!r}: only numbers, z, the imaginary unit "
                             "i (or I, j), + - * / ^, parentheses and spaces may appear")
        import sympy  # only parsing needs it, and it is slow to import

        z = sympy.Symbol("z")
        normalized = re.sub(r"(\d(?:\.\d*)?)\s*i\b", r"\1*I", text.replace("^", "**"))
        unreadable = (f"cannot read map {text!r}: "
                      "not a rational function of z with numeric coefficients")
        names = {"z": z, "i": sympy.I, "I": sympy.I}
        try:
            if _power_chain(sympy.sympify(normalized, locals=names, evaluate=False)) == np.inf:
                raise ValueError(f"cannot read map {text!r}: its exponents, multiplied along "
                                 f"nested powers, must be at most {MAX_PREIMAGE_COUNT} in size "
                                 "(the most points a sample keeps)")
            expr = sympy.sympify(normalized, locals=names)
            if not isinstance(expr, sympy.Expr) or expr.free_symbols - {z}:
                raise ValueError(unreadable)
            num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
            p = [complex(c) for c in sympy.Poly(num, z).all_coeffs()]
            qq = sympy.Poly(den, z).all_coeffs() if den.has(z) else [den]
            q = [complex(c) for c in qq]
        # a call such as 2(z) is a TypeError, z^(1/2) a PolynomialError
        except (sympy.SympifyError, sympy.PolynomialError, TypeError):
            raise ValueError(unreadable) from None
        return cls(p=np.array(p), q=np.array(q), text=text)

    def _padded(self) -> tuple[np.ndarray, np.ndarray]:
        d = self.degree + 1
        p = np.concatenate([np.zeros(d - self.p.size, dtype=complex), self.p])
        q = np.concatenate([np.zeros(d - self.q.size, dtype=complex), self.q])
        return p, q

    def eval(self, z: np.ndarray) -> np.ndarray:
        """Evaluate on sphere points in the z-chart; inf in, inf out supported."""
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape, dtype=complex)
        az = np.abs(z)
        near = np.isfinite(z) & (az <= 1.0)
        far = ~near
        if near.any():
            zn = z[near]
            num = np.polyval(self.p, zn)
            den = np.polyval(self.q, zn)
            out[near] = _safe_div(num, den)
        if far.any():
            p, q = self._padded()
            with np.errstate(divide="ignore", invalid="ignore"):
                u = np.where(np.isfinite(z[far]), 1.0 / z[far], 0.0)
            num = np.polyval(p[::-1], u)
            den = np.polyval(q[::-1], u)
            out[far] = _safe_div(num, den)
        return out

    def derivative(self, z: complex) -> complex:
        dp = np.polyder(self.p) if self.p.size > 1 else np.zeros(1, dtype=complex)
        dq = np.polyder(self.q) if self.q.size > 1 else np.zeros(1, dtype=complex)
        num = np.polyval(dp, z) * np.polyval(self.q, z) - np.polyval(self.p, z) * np.polyval(dq, z)
        den = np.polyval(self.q, z) ** 2
        return complex(num / den) if den != 0 else complex(np.inf)

    def preimages(self, w) -> tuple[np.ndarray, np.ndarray]:
        """Solutions of g(z) = w with multiplicities, for finite targets w.

        For an array of B targets the result is a pair of (B, d) arrays: row b
        holds the distinct solutions for w[b] in its leading slots, each with
        its multiplicity, and the slots after them have multiplicity 0 (and
        point nan).  A scalar w gives its distinct solutions alone.  All rows
        are solved by stacking their companion matrices into one eigenvalue
        call per polynomial shape, which gives the roots ``np.roots`` gives.

        A multiple solution (w a critical value) is reported once, at the mean
        of its cluster of numerical roots, with its multiplicity; the roots
        cluster at ``root_cluster_tol``, which merges every multiplicity up
        to the degree.

        Missing degree (leading-coefficient cancellation) is attributed to a
        preimage at infinity when g(inf) matches w; otherwise it is an error.
        """
        w = np.asarray(w, dtype=complex)
        if not np.isfinite(w).all():
            raise RootFindFailure("preimages of infinity not supported here")
        targets = w.reshape(-1)
        p, q = self._padded()
        c = p - targets[:, None] * q
        roots, count = _root_rows(c)
        pts, mult = _cluster_roots(roots, count, self.root_cluster_tol)
        missing = self.degree - mult.sum(axis=1)
        lost = np.flatnonzero(missing)
        if lost.size:
            g_inf = self.eval(np.array([np.inf + 0j]))[0]
            if np.isfinite(g_inf):
                stray = lost[np.abs(g_inf - targets[lost]) > 1e-6]
                if stray.size:
                    b = stray[0]
                    raise RootFindFailure(
                        f"lost {missing[b]} roots solving g(z)={complex(targets[b])!r} "
                        "and g(inf) does not match"
                    )
            slot = (mult[lost] > 0).sum(axis=1)
            pts[lost, slot] = np.inf
            mult[lost, slot] = missing[lost]
        if w.ndim == 0:
            keep = mult[0] > 0
            return pts[0][keep], mult[0][keep]
        return pts, mult

    def image_cells(self, grid: SphereGrid) -> np.ndarray:
        """Per live grid cell, the canonical cell of the image of its center;
        -1 off the live set (cached)."""
        key = (grid.K, grid.H)
        if key not in self._img_cache:
            self._img_cache[key] = grid.fill_cells(
                lambda flat: grid.canonical_flat(self.eval(grid.cell_centers_z(flat))),
                grid.live_flat(),
            )
        return self._img_cache[key]

    def fixed_points(self) -> list[tuple[complex, complex]]:
        """Finite fixed points with their multipliers.

        A multiple fixed point (multiplier 1, as for the parabolic z^2 + 1/4)
        is reported once, at the mean of its cluster of numerical roots, so
        its multiplier comes out as 1 to O(eps) instead of 1 + O(sqrt(eps)).
        The roots cluster at ``root_cluster_tol``, which merges a fixed point
        of multiplicity up to the degree.
        """
        p, q = self._padded()
        c = np.polysub(p, np.polymul(q, np.array([1.0, 0.0], dtype=complex)))
        pts, mult = _cluster_roots(*_root_rows(c[None, :]), self.root_cluster_tol)
        return [(complex(r), self.derivative(complex(r))) for r in pts[0][mult[0] > 0]]

    def repelling_fixed_point(self) -> complex:
        best = None
        for z0, mult in self.fixed_points():
            if abs(mult) > 1.0 + 1e-9 and (best is None or abs(mult) > best[1]):
                best = (z0, abs(mult))
        if best is None:
            raise SeedNotRepelling("no finite repelling fixed point found")
        return best[0]


def _power_chain(expr) -> float:
    """The largest product of |exponent| along a chain of powers nested in
    the unevaluated sympy ``expr``: 1 with no power, inf once a chain passes
    ``MAX_PREIMAGE_COUNT``.  An exponent's value is read only after its own
    chains are bounded, so no huge number is built."""
    if not expr.is_Pow:
        return max((_power_chain(arg) for arg in expr.args), default=1.0)
    base = _power_chain(expr.base)
    if base > MAX_PREIMAGE_COUNT or _power_chain(expr.exp) > MAX_PREIMAGE_COUNT:
        return np.inf
    chain = base * abs(complex(expr.exp))  # NaN fails the test below too
    return chain if chain <= MAX_PREIMAGE_COUNT else np.inf


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.empty(num.shape, dtype=complex)
    zero = den == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out[~zero] = num[~zero] / den[~zero]
    out[zero] = np.inf
    return out


def _root_rows(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of each row of the coefficient matrix ``c`` (highest power first).

    Row b's roots are those ``np.roots`` finds once coefficients below 1e-13
    of the row's largest are stripped from the front: the eigenvalues of the
    companion matrix of the row without its exactly zero trailing
    coefficients, followed by one root 0 per such coefficient.  Rows of equal
    shape share one stacked eigenvalue call.  Returns the roots in the leading
    ``count[b]`` slots of a (B, d) array, d = ``c.shape[1] - 1``, 0 elsewhere.
    """
    rows, d = c.shape[0], c.shape[1] - 1
    mag = np.abs(c)
    big = mag > 1e-13 * mag.max(axis=1, keepdims=True)
    lead = np.where(big.any(axis=1), big.argmax(axis=1), d)
    trail = (c != 0)[:, ::-1].argmax(axis=1)
    count = d - lead
    roots = np.zeros((rows, d), dtype=complex)
    shapes = lead * (d + 1) + trail
    for key in np.unique(shapes[count > trail]):
        b = np.flatnonzero(shapes == key)
        first, size = int(lead[b[0]]), d - int(lead[b[0]]) - int(trail[b[0]])
        coef = c[b, first:first + size + 1]
        comp = np.zeros((b.size, size, size), dtype=complex)
        comp[:, np.arange(1, size), np.arange(size - 1)] = 1.0
        comp[:, 0, :] = -coef[:, 1:] / coef[:, :1]
        roots[b, :size] = np.linalg.eigvals(comp)
    return roots, count


def _greedy_labels(pts: np.ndarray, count: np.ndarray, tol: float) -> np.ndarray:
    """Greedy clusters of the leading ``count[b]`` points of each row of ``pts``.

    In slot order, a point joins the first cluster of its row whose first
    point lies within ``tol`` of it (relative above modulus 1), or opens the
    next cluster.  Returns per slot its cluster number within the row, -1 past
    ``count``.  The loop runs over slots, each step across all rows.
    """
    rows, slots = pts.shape
    labels = np.full((rows, slots), -1, dtype=np.int64)
    opened = np.zeros(rows, dtype=np.int64)
    first = np.zeros((rows, slots), dtype=bool)  # slots that opened a cluster
    for j in range(slots):
        target = opened.copy()
        if j:
            reps = pts[:, :j]
            near = first[:, :j] & (
                np.abs(pts[:, j:j + 1] - reps) <= tol * np.maximum(1.0, np.abs(reps))
            )
            hit = near.argmax(axis=1)
            joins = near[np.arange(rows), hit]
            target[joins] = labels[joins, hit[joins]]
        live = j < count
        labels[live, j] = target[live]
        first[:, j] = live & (target == opened)
        opened += first[:, j]
    return labels


def _cluster_roots(
    roots: np.ndarray, count: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Merge numerically split copies of a multiple root, row by row.

    Clusters are those of ``_greedy_labels`` over each row's leading
    ``count[b]`` roots.  Each cluster is reported once, in the slot of its
    number, at the mean of its roots, with its size as the multiplicity: a
    perturbed k-fold root splits into k roots whose mean is accurate to
    O(eps), while any single one is off by O(eps**(1/k)).  A double root
    splits by about sqrt(eps) (~1.5e-8) and a triple one by about
    eps**(1/3) (~6e-6); ``RationalMap.root_cluster_tol`` sizes ``tol`` for
    the map's degree.  Unused slots get multiplicity 0 and point nan.
    """
    labels = _greedy_labels(roots, count, tol)
    rows = np.arange(roots.shape[0])
    # -0.0 + x == x, so each sum starts exactly at its cluster's first root
    total = np.full(roots.shape, complex(-0.0, -0.0))
    mult = np.zeros(roots.shape, dtype=np.int64)
    for j in range(roots.shape[1]):
        b = rows[labels[:, j] >= 0]
        total[b, labels[b, j]] += roots[b, j]
        mult[b, labels[b, j]] += 1
    pts = np.divide(total, mult, out=np.full(roots.shape, np.nan + 0j), where=mult > 0)
    return pts, mult


@dataclass(eq=False)
class JuliaSample:
    """Inverse-iteration sample of a Julia set, stored on the sphere, with its
    metric, self-map and projection error computed once by ``julia_sample``."""

    z: np.ndarray  # complex chart values (inf allowed)
    vecs: np.ndarray  # unit 3-vectors
    mesh: float  # max nearest-neighbor spherical distance
    space: FiniteMetricSpace = field(repr=False)  # the sample under the spherical metric
    self_map: np.ndarray = field(repr=False)  # nearest-sample projection of g, as indices
    projection_error: float  # largest spherical distance from g(x) to its projection

    @property
    def n(self) -> int:
        return self.z.shape[0]


def julia_sample(
    map_: RationalMap, depth: int, target_count: int = MAX_PREIMAGE_COUNT
) -> JuliaSample:
    """Inverse iteration from a repelling fixed point, pruned to a target count.

    It starts from a fixed point, so preimage generations are nested and the
    final set is forward invariant up to root-finding error.  Each generation
    is one batched ``preimages`` call.  The self-map takes the sample point of
    largest dot product with each image, a block of ``BLOCK_ROWS`` images at
    a time; a block's products may differ from a whole-matrix product in the
    last bit, which could move the choice only between sample points tied to
    rounding error.
    """
    check_depth(depth)
    if target_count < 1:
        raise ValueError(f"target_count must be at least 1, got {target_count}")
    z0 = map_.repelling_fixed_point()
    pts = np.array([z0], dtype=complex)
    for _ in range(depth):
        targets = pts[np.isfinite(pts)]
        if targets.size:
            roots, mult = map_.preimages(targets)
            pts = _dedupe_sphere(roots[mult > 0])
        if pts.size > 4 * target_count:
            pts = _farthest_point_prune(pts, 2 * target_count)
    if pts.size > target_count:
        pts = _farthest_point_prune(pts, target_count)
    vecs = sphere_from_complex_array(pts)
    space = FiniteMetricSpace(dist=spherical_dist_matrix(vecs), coords=vecs)
    mesh = float(space.nearest_neighbor_distances().max())
    iv = sphere_from_complex_array(map_.eval(pts))
    self_map = np.empty(pts.size, dtype=np.intp)
    closest = np.empty(pts.size)
    for lo in range(0, pts.size, BLOCK_ROWS):
        dots = iv[lo:lo + BLOCK_ROWS] @ vecs.T
        self_map[lo:lo + BLOCK_ROWS] = np.argmax(dots, axis=1)
        closest[lo:lo + BLOCK_ROWS] = dots.max(axis=1)
    self_map.flags.writeable = False
    proj = np.arccos(np.clip((iv * vecs[self_map]).sum(axis=1), -1, 1))
    gaps = np.arccos(np.clip(closest, -1, 1))  # arccos decreases: the least angle of each row
    if pts.size > 1 and float(gaps.max()) > 2.0 * max(mesh, 1e-9):
        raise RootFindFailure(
            f"forward invariance violated: image strays {gaps.max()!r} from the sample"
        )
    return JuliaSample(
        z=pts, vecs=vecs, mesh=mesh,
        space=space, self_map=self_map, projection_error=float(proj.max()),
    )


def _dedupe_sphere(pts: np.ndarray) -> np.ndarray:
    """The points whose unit vectors, rounded to 1e-9, no earlier point shares."""
    keys = np.round(sphere_from_complex_array(pts) / 1e-9).astype(np.int64)
    order = np.lexsort(keys.T)  # stable: each run of equal keys starts at its first point
    ranked = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return pts[np.sort(order[first])]


def _farthest_point_prune(pts: np.ndarray, target: int) -> np.ndarray:
    vecs = sphere_from_complex_array(pts)
    n = pts.shape[0]
    chosen = [0]
    mind = np.arccos(np.clip(vecs @ vecs[0], -1, 1))
    for _ in range(1, target):
        nxt = int(np.argmax(mind))
        chosen.append(nxt)
        mind = np.minimum(mind, np.arccos(np.clip(vecs @ vecs[nxt], -1, 1)))
    chosen_arr = np.sort(np.array(chosen))
    return pts[chosen_arr]


# -- ambient regions and pull-backs -----------------------------------------


@dataclass(eq=False)
class AmbientRegion:
    """A connected raster region on the sphere at one pull-back level.

    ``cells`` are live cells only (``SphereGrid.live_flat``): the region's
    points are held by their canonical cells, and those in the seam band
    1/R <= |z| <= R also by cells of the other chart, which stitch the
    region across the charts."""

    level: int
    cells: np.ndarray  # sorted int32 flat ids of live cells
    parent: int  # index in the previous level's family, -1 at level 1
    sample_points: tuple[int, ...]


@dataclass(eq=False)
class PullbackCover:
    """Per-level families of ambient regions V^1..V^N plus the raster context."""

    map: RationalMap
    grid: SphereGrid
    sample: JuliaSample
    families: list[list[AmbientRegion]]  # families[0] = V^1

    @property
    def n_levels(self) -> int:
        return len(self.families)


def admissible_cover(
    map_: RationalMap, sample: JuliaSample, radius: float, grid: SphereGrid
) -> PullbackCover:
    """Level-1 family: spherical balls of the given radius around a maximal
    radius-net of the sample, rasterized to grid regions."""
    if not radius > 0:  # NaN too
        raise ValueError(f"cover radius must be positive, got {radius!r}")
    if radius >= np.pi:  # a ball that wide holds the whole sphere
        raise ValueError(f"cover radius must be below pi (the sphere's diameter), got {radius!r}")
    d = sample.space.dist
    centers = greedy_separated_subset(d, range(sample.n), radius)
    regions = [
        AmbientRegion(
            level=1,
            cells=grid.raster_spherical_ball(sample.vecs[c], radius),
            parent=-1,
            sample_points=tuple(int(i) for i in np.flatnonzero(d[c] < radius)),
        )
        for c in centers
    ]
    return PullbackCover(map=map_, grid=grid, sample=sample, families=[regions])


def pullback_cover(pull: PullbackCover, n_levels: int) -> PullbackCover:
    """Extend the family chain to ``n_levels`` by one-step pull-backs.

    The live cells whose g-image lands in a parent region are gathered from
    the inverse image of g on the raster (cells off the live set have image
    -1 and lie in no bucket), split into sphere components, and kept when
    they meet the sample through a sample point's canonical cell or its
    twin.  Tile membership is decided by the dynamics in ``induce_tiles``,
    which reads only the level-1 regions: the regions below level 1 decide
    only how many levels there are, and whether a level comes out empty
    (EmptyLevel).

    A level is pulled back in batches of whole parents, in order, each
    gathering at most ``FILL_BLOCK`` cells unless it is a single parent
    that gathers more.  A batch takes one gather and one
    ``SphereGrid.components`` call, each parent's cells stacked as its own
    layer, so the regions and their order are those of labelling each
    parent's preimage alone.
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be at least 1, got {n_levels}")
    grid, map_, sample = pull.grid, pull.map, pull.sample
    preimage = inverse_image(map_.image_cells(grid))
    prim = grid.canonical_flat(sample.z)
    sample_cells = np.concatenate([prim, grid.twin_flat()[prim]])
    while pull.n_levels < n_levels:
        level = pull.n_levels + 1
        comps, comp_parent = _preimage_components(grid, preimage, pull.families[-1])
        # sample points per component, sorted: a point meets a component
        # through its canonical cell or through that cell's twin
        query, comp_of = locate_cells(sample_cells, comps)
        hits = np.unique(comp_of * sample.n + query % sample.n)
        cuts = np.searchsorted(hits // sample.n, np.arange(len(comps) + 1))
        regions: list[AmbientRegion] = []
        for k, (comp, pid) in enumerate(zip(comps, comp_parent)):
            pts = hits[cuts[k]:cuts[k + 1]] % sample.n
            if pts.size:
                regions.append(AmbientRegion(level, comp, pid, tuple(pts.tolist())))
        if not regions:
            raise EmptyLevel(f"no admissible regions at level {level}")
        pull.families.append(regions)
    return pull


def _preimage_components(
    grid: SphereGrid, preimage: InverseImage, parents: list[AmbientRegion]
) -> tuple[list[np.ndarray], list[int]]:
    """The components of each parent's preimage as int32 cell arrays, parent
    by parent and each parent's by smallest cell, with their parents' indices.

    Parent p's gathered cells are stacked as layer p, ids ``p * n_cells +
    cell``, and the parents are labelled in batches of at most
    ``FILL_BLOCK`` gathered cells, or one parent that gathers more."""
    n = grid.n_cells
    # gathered[p]: the cells gathered for the parents before parent p
    gathered = np.cumsum([0] + [preimage.count(p.cells) for p in parents])
    comps: list[np.ndarray] = []
    comp_parent: list[int] = []
    p0 = 0
    while p0 < len(parents):
        # the most parents from p0 on that gather at most FILL_BLOCK cells,
        # and at least one
        p1 = int(np.searchsorted(gathered, gathered[p0] + FILL_BLOCK, side="right")) - 1
        p1 = max(p1, p0 + 1)
        ids = np.repeat(np.arange(p0, p1) * n, np.diff(gathered[p0:p1 + 1]))
        ids += preimage(np.concatenate([p.cells for p in parents[p0:p1]]))
        for comp in grid.components(ids):
            pid = int(comp[0]) // n
            comps.append((comp - pid * n).astype(np.int32))
            comp_parent.append(pid)
        p0 = p1
    return comps, comp_parent


def induce_tiles(pull: PullbackCover) -> CoverSequence:
    """Tiles X^n = region-and-sample intersections, X^0 = the whole sample.

    Level-1 tiles are the sample points of the level-1 regions; these cover
    the sample because the region centers form a maximal radius-net of it.
    They are the only regions read here: the regions below level 1 set only
    the number of levels.  Membership below level 1 is dynamics-exact: the
    candidates of a parent tile are the points whose projected image lies in
    it, and they are split into the parent's child tiles by single-linkage
    clustering at the local sample scale, linking points within 3 times the
    larger of their nearest-neighbour distances.  Within one parent, branches
    are far apart while the sample is locally dense, so this separates the
    sample traces of the components of the parent's preimage.  One
    components call labels the (parent, candidate) pairs of a whole level.
    This makes the level shift g(X^{n+1}) <= X^n exact at the index level,
    which the proximity-decay law needs.  Overlapping parents can share a
    child; each distinct point set is kept once per level.
    """
    sample = pull.sample
    space = sample.space
    g_idx = sample.self_map
    levels: list[list[np.ndarray]] = [[np.arange(sample.n)]]
    near = space.dist <= 3.0 * space.nearest_neighbor_distances()[:, None]
    # the link graph, d <= 3 max(nn_i, nn_j), as neighbour lists: point p's
    # neighbours are linked[start[p]:start[p + 1]]
    row, linked = np.nonzero(near | near.T)
    start = np.searchsorted(row, np.arange(sample.n + 1))
    tiles: list[np.ndarray] = []
    for fam in pull.families:
        if fam[0].level == 1:
            tiles = [np.array(r.sample_points, dtype=np.int64) for r in fam]
        else:
            holds = np.zeros((len(tiles), sample.n), dtype=bool)
            owner = np.repeat(np.arange(len(tiles)), [t.size for t in tiles])
            holds[owner, np.concatenate(tiles)] = True
            # nodes: (parent, candidate) pairs in ascending order, linked within a parent
            parent, point = np.nonzero(holds[:, g_idx])
            node = np.full(holds.shape, -1)
            node[parent, point] = np.arange(point.size)
            degree = start[point + 1] - start[point]
            src = np.repeat(np.arange(point.size), degree)
            dst = node[parent[src], linked[run_indices(start[point], degree)]]
            comp = connected_components(point.size, src[dst >= 0], dst[dst >= 0])
            # components are numbered by their lowest node, so tiles come out
            # by parent, then by lowest point, each one sorted
            tiles = group_by_label(point, comp)
            # one-point traces at component edges are raster- and
            # candidate-boundary artifacts; drop them when a tile of several
            # points holds the point, so no point loses its last tile
            in_multi = np.zeros(sample.n, dtype=bool)
            in_multi[point[np.bincount(comp)[comp] > 1]] = True
            tiles = [t for t in tiles if t.size > 1 or not in_multi[t[0]]]
            # overlapping parents can hold the same child: keep it once, in
            # the place of its first copy
            tiles = list({t.tobytes(): t for t in tiles}.values())
        covered = np.zeros(sample.n, dtype=bool)
        covered[np.concatenate(tiles)] = True
        if not covered.all():
            raise ResolutionInsufficient(
                f"{sample.n - int(covered.sum())} sample points uncovered at level {fam[0].level}"
            )
        levels.append(tiles)
    return CoverSequence(space, levels, width=1, visual_parameter=None)


def verify_dynamical_qv(pull: PullbackCover, cover: CoverSequence) -> dict:
    """Quasi-visual verification at width 1 of the tiles ``induce_tiles`` made
    from ``pull``, plus the dynamical checks.

    The sample self-map is the nearest-sample projection of g; the tile shift
    is allowed raster slack of a few grid cells plus the projection error.
    """
    qv = verify_quasi_visual(cover)
    rates = derive_rho_tau_nu(cover)
    sample = pull.sample
    slack = 4.0 * pull.grid.step + 2.0 * sample.mesh + sample.projection_error
    dyn = dynamical_checks(cover, sample.self_map, nu=rates.nu, shift_tolerance=slack)
    return {
        "qv": qv,
        "dynamical": dyn,
        "rates": rates,
        "projection_error": sample.projection_error,
        "passed": qv.passed and dyn.passed,
    }


# -- probes ------------------------------------------------------------------


def degree_probe(map_: RationalMap, w0: complex, r0: float, n_max: int) -> list[int]:
    """Max degree of g^n on components of g^-n(B(w0, r0)) for n = 1..n_max.

    A generic test value w* inside the ball is pulled back one root-solving
    step at a time alongside the anchor w0, each test preimage matched to the
    nearest anchor preimage of its own parent.  Test preimages whose anchors
    coincide lie in one component (branches of g^n merge exactly at critical
    preimages of the anchor), so the degree of a component is the number of
    matched test preimages per anchor cluster, counted with multiplicity.
    """
    if map_.degree ** n_max > MAX_PREIMAGE_COUNT:
        raise ValueError("preimage count would exceed the enumerable cap")
    if not isinstance(w0, complex):
        w0 = complex(w0)
    if r0 >= np.pi:
        # the ball is the whole sphere: a single component of full degree
        return [map_.degree ** n for n in range(1, n_max + 1)]
    w_star = _offset_on_chart(w0, 0.3 * r0)
    # pairs (anchor point, test point, multiplicity of the test branch), as columns
    anchors = np.array([w0])
    probes = np.array([w_star])
    mults = np.ones(1, dtype=np.int64)
    maxima: list[int] = []
    for _n in range(1, n_max + 1):
        if not (np.isfinite(anchors).all() and np.isfinite(probes).all()):
            raise RootFindFailure("probe branch escaped to infinity")
        roots, mult = map_.preimages(np.concatenate([anchors, probes]))
        a_roots, p_roots, p_mult = roots[:anchors.size], roots[anchors.size:], mult[anchors.size:]
        a_ok, keep = np.isfinite(a_roots), np.isfinite(p_roots)  # unused slots hold nan
        if not a_ok.any(axis=1).all():
            raise RootFindFailure("anchor preimages all at infinity")
        # each test preimage is matched to the nearest anchor preimage of its pair
        a_fin, p_fin = np.where(a_ok, a_roots, 0), np.where(keep, p_roots, 0)
        gap = np.where(a_ok[:, None, :], np.abs(p_fin[:, :, None] - a_fin[:, None, :]), np.inf)
        nearest = np.take_along_axis(a_roots, gap.argmin(axis=2), axis=1)
        anchors, probes = nearest[keep], p_roots[keep]
        mults = (mults[:, None] * p_mult)[keep]
        labels = _greedy_labels(anchors[None, :], np.array([anchors.size]), ANCHOR_CLUSTER_TOL)
        maxima.append(int(np.bincount(labels[0], weights=mults).max()))
    return maxima


def _offset_on_chart(w0: complex, ds: float) -> complex:
    # move ds along the sphere in a fixed direction, via the chart factor
    factor = (1.0 + abs(w0) ** 2) / 2.0
    return w0 + ds * factor * np.exp(0.7j)
