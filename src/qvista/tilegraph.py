"""The tile graph of a cover sequence and its Gromov-product geometry.

Vertices are all tiles across all levels (as a formal disjoint union); two
distinct tiles are adjacent when they intersect and their levels differ by at
most one.  Gromov products are taken with respect to the unique level-0 tile
and stored as doubled integers to keep half-integers exact.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field

from .covers import CoverSequence, bool_product, check_depth, maxmin_product, tile_pair_reduce
from .errors import UnknownVertex
from .proximity import ProximityTable


@dataclass
class TileGraph:
    """Leveled intersection graph over all tiles with cached BFS distances."""

    cover: CoverSequence
    vertex_ids: list[tuple[int, int]] = field(init=False)
    levels: np.ndarray = field(init=False)
    dist: np.ndarray = field(init=False)

    def __post_init__(self):
        cover = self.cover
        self.vertex_ids = [
            (lev, t.index) for lev, fam in enumerate(cover.levels) for t in fam
        ]
        self._vindex = {vid: i for i, vid in enumerate(self.vertex_ids)}
        self.levels = np.array([lev for lev, _ in self.vertex_ids], dtype=np.int64)
        n = len(self.vertex_ids)
        # vertices run level by level, so each level is one block of rows
        ends = np.cumsum([len(fam) for fam in cover.levels])
        block = [slice(end - len(fam), end) for end, fam in zip(ends, cover.levels)]
        adj = np.zeros((n, n), dtype=bool)
        for lev in range(cover.depth + 1):
            adj[block[lev], block[lev]] = cover.meets(lev, lev)
            if lev < cover.depth:
                adj[block[lev], block[lev + 1]] = cover.meets(lev, lev + 1)
                adj[block[lev + 1], block[lev]] = cover.meets(lev, lev + 1).T
        d = hop_distances(adj)
        if np.isinf(d).any():
            raise ValueError("tile graph is disconnected; some level misses the root chain")
        self.dist = d.astype(np.int64)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    def vertex(self, vid: tuple[int, int]) -> int:
        try:
            return self._vindex[tuple(vid)]
        except KeyError:
            raise UnknownVertex(f"no vertex {vid!r}") from None

    def members_of(self, i: int) -> np.ndarray:
        """Sorted, read-only member array of vertex i's tile."""
        lev, idx = self.vertex_ids[i]
        return self.cover.members(lev)[idx]

    def gromov2(self) -> np.ndarray:
        """Doubled Gromov products 2 (X . Y) = |X| + |Y| - |X - Y|, base = root."""
        return self.levels[:, None] + self.levels[None, :] - self.dist

    def to_dict(self) -> dict:
        rows, cols = np.nonzero(self.dist == 1)
        edges = sorted((int(a), int(b)) for a, b in zip(rows, cols) if a < b)
        return {
            "vertices": [{"level": int(l), "tile": int(t)} for l, t in self.vertex_ids],
            "edges": [list(e) for e in edges],
        }


def hop_distances(adj: np.ndarray) -> np.ndarray:
    """Hop counts between all vertex pairs of the undirected graph with the
    symmetric boolean adjacency ``adj``, whose diagonal is ignored.

    Float, with inf between components, as scipy's ``shortest_path`` with
    ``unweighted=True`` gives them.  A breadth-first search from every vertex
    at once: each layer is one ``bool_product`` of the frontier with ``adj``.
    """
    n = adj.shape[0]
    dist = np.full((n, n), np.inf)
    reached = np.eye(n, dtype=bool)
    frontier, hops = reached, 0
    while frontier.any():
        dist[frontier] = hops
        frontier = bool_product(frontier, adj) & ~reached
        reached |= frontier
        hops += 1
    return dist


def build_tile_graph(cover: CoverSequence) -> TileGraph:
    return TileGraph(cover)


def hyperbolicity_constant(
    graph: TileGraph,
    mode: str = "exact",
    sample_triples: int = 200_000,
    seed: int = 0,
) -> float:
    """Smallest C with (X.Y) >= min((X.Z), (Z.Y)) - C over vertex triples.

    Exact mode takes the (max,min) product of the doubled Gromov products:
    one V x V boolean product per distinct product value, at most 2N + 1 of
    them, instead of a scan of all V^3 triples.  Sampled mode scans a seeded
    uniform subset of triples and returns a lower bound on the constant.
    """
    g2 = graph.gromov2()
    if mode == "exact":
        worst = max(0, int((maxmin_product(g2) - g2).max()))
        return worst / 2.0
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, graph.n_vertices, size=(sample_triples, 3))
        x, y, z = idx[:, 0], idx[:, 1], idx[:, 2]
        need = np.minimum(g2[x, z], g2[z, y]) - g2[x, y]
        return float(need.max()) / 2.0
    raise ValueError("mode must be 'exact' or 'sampled'")


def extended_proximity(
    graph: TileGraph, table: ProximityTable, x: tuple[int, int], y: tuple[int, int]
) -> int:
    """m(X, Y) = min over member pairs of the point proximity (sentinel-capped)."""
    i, j = graph.vertex(x), graph.vertex(y)
    return int(table.m[np.ix_(graph.members_of(i), graph.members_of(j))].min())


def extended_proximity_matrix(graph: TileGraph, table: ProximityTable) -> np.ndarray:
    """All-pairs extended proximity over graph vertices."""
    members = [graph.members_of(i) for i in range(graph.n_vertices)]
    return tile_pair_reduce(table.m, members, np.minimum)


@dataclass
class GromovComparison:
    """Additive comparison of Gromov products with extended proximity."""

    C_product: float  # max |(X.Y) - m(X,Y)| over resolved pairs
    C_levgr: float  # max | |X-Y| - (|X|+|Y|-2m) |, the distance form
    excluded_pairs: int
    witness: dict | None = None

    def to_dict(self) -> dict:
        return {
            "C_product": self.C_product,
            "C_levgr": self.C_levgr,
            "excluded_pairs": self.excluded_pairs,
            "witness": self.witness,
        }


def compare_m_gromov(graph: TileGraph, table: ProximityTable) -> GromovComparison:
    """Max additive gap between the Gromov product and extended proximity.

    Pairs whose extended proximity is unresolved at the truncation (all member
    pairs sentinel) are excluded.
    """
    g2 = graph.gromov2()
    m = extended_proximity_matrix(graph, table)
    mask = m <= table.truncation
    excluded = int(np.count_nonzero(~mask))
    if not mask.any():
        return GromovComparison(C_product=0.0, C_levgr=0.0, excluded_pairs=excluded)
    diff2 = np.abs(g2 - 2 * m)
    diff2 = np.where(mask, diff2, -1)
    i, j = map(int, np.unravel_index(int(np.argmax(diff2)), diff2.shape))
    c2 = int(diff2[i, j])
    witness = {
        "vertices": [list(graph.vertex_ids[i]), list(graph.vertex_ids[j])],
        "gromov2": int(g2[i, j]),
        "m": int(m[i, j]),
    }
    levgr = np.abs(graph.dist - (graph.levels[:, None] + graph.levels[None, :] - 2 * m))
    c_lev = int(np.where(mask, levgr, 0).max())
    return GromovComparison(
        C_product=c2 / 2.0, C_levgr=float(c_lev), excluded_pairs=excluded, witness=witness
    )


def cluster(graph: TileGraph, x: tuple[int, int], r: int) -> frozenset[int]:
    """Neighborhood cluster V_r(X): union of members of tiles within distance r."""
    i = graph.vertex(x)
    near = np.flatnonzero(graph.dist[i] <= r)
    return frozenset(np.concatenate([graph.members_of(int(j)) for j in near]).tolist())


def cluster_cover_sequence(graph: TileGraph, r: int) -> CoverSequence:
    """Per-level families of clusters V^n = {V_r(X) : X in X^n}.

    The family is formal: one cluster per source tile, kept in source order,
    even when two sources produce the same point set (collapsing duplicates
    would break the rough-similarity bounds of the cluster map).  The width
    is 1, matching the verification the clusters are meant for.
    """
    check_depth(r, "cluster radius r")
    cover = graph.cover
    levels: list[list[tuple[int, ...]]] = []
    for lev, fam in enumerate(cover.levels):
        levels.append(
            [tuple(sorted(cluster(graph, (lev, t.index), r))) for t in fam]
        )
    return CoverSequence(
        cover.space, levels, width=1, visual_parameter=cover.visual_parameter
    )


def graph_map_check(graph: TileGraph, r: int) -> tuple[bool, list]:
    """Exact integer check of the rough-similarity bounds for X -> V_r(X):

        |X - Y| <= (2r+1) |V(X) - V(Y)|  and  (2r+1) |V(X) - V(Y)| <= |X - Y| + (2r+1).

    |V(X) - V(Y)| is the hop distance in the cluster graph, one vertex per
    source tile, where two clusters are joined when their source tiles lie
    within 2r+1 of each other: a cluster spans 2r+1 levels worth of tiles, so
    this is the incidence at the cluster scale, and for r = 0 it is the tile
    graph itself.  (Joining clusters by bare point-set intersection instead
    would over-connect through the low-level clusters that already swallow
    the whole space, and under-connect across levels.)
    """
    check_depth(r, "cluster radius r")
    q = 2 * r + 1
    dx = graph.dist
    dv = hop_distances(dx <= q).astype(np.int64)  # connected: dx <= q holds the tile edges
    violations = []
    for name, bad in (("lower", dx > q * dv), ("upper", q * dv > dx + q)):
        if bad.any():
            i, j = map(int, np.unravel_index(int(np.argmax(bad)), bad.shape))
            violations.append(
                {
                    "bound": name,
                    "vertices": [list(graph.vertex_ids[i]), list(graph.vertex_ids[j])],
                    "dist_x": int(dx[i, j]),
                    "dist_v": int(dv[i, j]),
                }
            )
    return not violations, violations
