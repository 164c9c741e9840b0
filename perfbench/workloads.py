"""The benchmark's workloads: seeded inputs, one pass each, output checks.

Each workload has a ``make_inputs(seed, size)`` that does the set-up work
(fixture space or map coefficients) and a ``run_pass(inputs)`` that drives the
library's public API from fresh objects to rendered report bytes.  A pass
returns a ``PassOutput``; ``check`` then tests its invariants outside the
timed region.

The Julia maps are built from coefficients with ``RationalMap(p, q)``:
``RationalMap.parse`` (and with it the CLI ``julia`` command) raises
``NameError`` at this revision because ``julia.py`` lacks ``import re``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from qvista import fixtures
from qvista.boundary import boundary_metric, phi_injectivity_check, phi_regularity_check
from qvista.builder import build_visual_width1
from qvista.covers import verify_quasi_visual, verify_visual
from qvista.julia import (
    RationalMap,
    admissible_cover,
    induce_tiles,
    julia_sample,
    pullback_cover,
    verify_dynamical_qv,
)
from qvista.metricspace import FiniteMetricSpace
from qvista.proximity import (
    chain_metrize,
    check_combinatorially_visual,
    compute_proximity,
    quasi_metric_from_m,
)
from qvista.reporting import RunManifest, report_render
from qvista.spheregrid import SphereGrid
from qvista.tilegraph import build_tile_graph, compare_m_gromov, hyperbolicity_constant

# Largest seeded move of the Julia parameter c; within it the region and tile
# counts of both maps stay those of the canonical c.
C_OFFSET_MAX = 1e-3
# Points kept by the stride subsample on which the O(n^3) regularity fit runs.
REGULARITY_STRIDE = 8
# Significant digits kept when floats enter the reference digest, so that a
# last-bit difference between BLAS kernels does not read as a wrong answer.
DIGEST_DIGITS = 8


@dataclass(frozen=True)
class JuliaSize:
    depth: int
    K: int
    levels: int
    radius: float = 0.25


@dataclass(frozen=True)
class GasketSize:
    sample_depth: int
    lam: float = 2.0
    build_depth: int = 4
    synth_lam: float = 1.2


@dataclass
class PassOutput:
    report: bytes
    sizes: dict
    table: np.ndarray | None = None  # proximity levels, when the pass outputs them
    sentinel: int | None = None
    boundary: np.ndarray | None = None  # truncated boundary distances


# -- Julia workloads ----------------------------------------------------------


def quadratic_c(c0: complex, seed: int) -> complex:
    """The canonical c at seed 0, else c moved by at most C_OFFSET_MAX."""
    if seed == 0:
        return c0
    rng = np.random.default_rng(seed)
    r, theta = rng.uniform(0.0, C_OFFSET_MAX), rng.uniform(0.0, 2.0 * np.pi)
    return c0 + r * complex(np.cos(theta), np.sin(theta))


def julia_inputs(c0: complex, seed: int, size: JuliaSize) -> dict:
    c = quadratic_c(c0, seed)
    return {"p": [1.0, 0.0, c], "q": [1.0], "text": f"z^2 + {c!r}", "size": size}


def julia_pass(inputs: dict) -> PassOutput:
    size: JuliaSize = inputs["size"]
    map_ = RationalMap(p=inputs["p"], q=inputs["q"], text=inputs["text"])
    sample = julia_sample(map_, size.depth)
    grid = SphereGrid(K=size.K)
    pull = admissible_cover(map_, sample, size.radius, grid=grid)
    pull = pullback_cover(pull, size.levels)
    cover = induce_tiles(pull)
    outcome = verify_dynamical_qv(pull, cover)
    result = {
        "map": inputs["text"],
        "sample_size": sample.n,
        "mesh": sample.mesh,
        "passed": outcome["passed"],
        "qv": outcome["qv"].to_dict(),
        "dynamical": outcome["dynamical"].to_dict(),
        "rates": outcome["rates"].to_dict(),
        "projection_error": outcome["projection_error"],
    }
    manifest = RunManifest(
        command="julia",
        parameters={
            "map": inputs["text"],
            "depth": size.depth,
            "cover_radius": size.radius,
            "levels": size.levels,
            "grid": size.K,
        },
    )
    result["manifest"] = manifest.to_dict()
    sizes = {
        "n": sample.n,
        "K": size.K,
        "levels": pull.n_levels,
        "regions": [len(f) for f in pull.families],
        "tiles": [len(f) for f in cover.levels],
    }
    return PassOutput(report=report_render(result), sizes=sizes)


# -- metric pipeline on the Sierpinski gasket ------------------------------------


def gasket_inputs(seed: int, size: GasketSize) -> dict:
    """The gasket sample; other seeds than 0 relabel its points."""
    space, _cover = fixtures.fixture("sierpinski_gasket", depth=1, sample_depth=size.sample_depth)
    if seed != 0:
        perm = np.random.default_rng(seed).permutation(space.n)
        space = FiniteMetricSpace(
            dist=space.dist[np.ix_(perm, perm)], coords=space.coords[perm]
        )
    return {"space": space, "size": size}


def gasket_pass(inputs: dict) -> PassOutput:
    size: GasketSize = inputs["size"]
    space: FiniteMetricSpace = inputs["space"]
    cover = build_visual_width1(space, size.lam, size.build_depth)
    qv = verify_quasi_visual(cover)
    vis = verify_visual(cover)
    table = compute_proximity(cover)
    comb = check_combinatorially_visual(cover, table)
    graph = build_tile_graph(cover)
    delta = hyperbolicity_constant(graph, mode="exact")
    gromov = compare_m_gromov(graph, table)
    bnd = boundary_metric(cover, graph, size.lam)
    ok, inj = phi_injectivity_check(bnd)
    # the regularity fit is O(n^3) per exponent; fit on a fixed stride subsample
    idx = np.arange(0, space.n, REGULARITY_STRIDE)
    sub_space = FiniteMetricSpace(dist=space.dist[np.ix_(idx, idx)])
    sub_bnd = dataclasses.replace(
        bnd, dist=bnd.dist[np.ix_(idx, idx)], products2=bnd.products2[np.ix_(idx, idx)]
    )
    regularity = phi_regularity_check(sub_space, sub_bnd)
    qm = quasi_metric_from_m(table, size.synth_lam, comb)
    synth = chain_metrize(qm)
    bound = cover.with_space(synth)
    bound.visual_parameter = size.synth_lam
    synth_vis = verify_visual(bound)
    result = {
        "quasi_visual": qv.to_dict(),
        "visual": vis.to_dict(),
        "combinatorial": comb.to_dict(),
        "hyperbolicity": delta,
        "gromov_vs_m": gromov.to_dict(),
        "boundary": bnd.to_dict(),
        "injectivity": {"ok": ok, **inj},
        "regularity": regularity,
        "synthesized": {"K": qm.K, "visual": synth_vis.to_dict()},
        "manifest": RunManifest(
            command="gasket-metric",
            parameters={
                "lambda": size.lam,
                "depth": size.build_depth,
                "synth_lambda": size.synth_lam,
                "regularity_stride": REGULARITY_STRIDE,
            },
        ).to_dict(),
    }
    sizes = {
        "n": space.n,
        "levels": cover.depth,
        "tiles": [len(f) for f in cover.levels],
        "V": graph.n_vertices,
        "regularity_n": int(idx.size),
    }
    return PassOutput(
        report=report_render(result),
        sizes=sizes,
        table=np.asarray(table.m),
        sentinel=table.sentinel,
        boundary=bnd.dist,
    )


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object  # (seed, size) -> inputs
    run_pass: object  # inputs -> PassOutput
    size: object  # full size
    smoke: object  # small size for the self-test
    spans: tuple[str, ...]  # spans every pass must record


JULIA_SPANS = (
    "spheregrid.components", "spheregrid.raster_ball", "spheregrid.twin_flat",
    "julia.sample", "julia.admissible_cover", "julia.image_cells", "julia.pullback",
    "julia.induce_tiles", "julia.verify",
    "covers.verify_quasi_visual", "covers.derive_rates", "covers.reach_within",
    "covers.pair_distances",
    "proximity.compute", "proximity.dynamical",
    "reporting.render",
)
GASKET_SPANS = (
    "builder.width1", "metricspace.net",
    "covers.verify_quasi_visual", "covers.verify_visual", "covers.reach_within",
    "covers.pair_distances",
    "proximity.compute", "proximity.combinatorial", "proximity.quasi_metric",
    "proximity.chain_metric", "proximity.snowflake",
    "tilegraph.build", "tilegraph.hyperbolicity", "tilegraph.gromov_vs_m",
    "boundary.metric", "boundary.regularity",
    "reporting.render",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "julia-basilica",
            lambda seed, size: julia_inputs(-1.0 + 0j, seed, size),
            julia_pass,
            JuliaSize(depth=10, K=768, levels=4),
            JuliaSize(depth=8, K=128, levels=3),
            JULIA_SPANS,
        ),
        Workload(
            "julia-cantor",
            lambda seed, size: julia_inputs(-3.0 + 0j, seed, size),
            julia_pass,
            JuliaSize(depth=10, K=512, levels=4),
            JuliaSize(depth=8, K=128, levels=3),
            JULIA_SPANS,
        ),
        Workload(
            "gasket-metric",
            gasket_inputs,
            gasket_pass,
            # n = 1095 (sample_depth 6, depth 5) fills a whole run with one
            # pass whose time drifts with the host; n = 366 gives ~20 passes
            GasketSize(sample_depth=5),
            GasketSize(sample_depth=5),
            GASKET_SPANS,
        ),
    )
}


# -- output checks ----------------------------------------------------------------


def check(out: PassOutput) -> list[str]:
    """Invariants of one pass's outputs; an empty list means they hold."""
    problems = []
    if out.table is not None:
        m = out.table
        if not np.array_equal(m, m.T):
            problems.append("proximity table is not symmetric")
        if not np.all(np.diag(m) == out.sentinel):
            problems.append("proximity diagonal is not the sentinel")
    if out.boundary is not None:
        b = out.boundary
        if not np.array_equal(b, b.T):
            problems.append("boundary matrix is not symmetric")
        if np.any(np.diag(b) != 0):
            problems.append("boundary diagonal is not zero")
    return problems


def digest(report: bytes) -> str:
    """SHA-256 of the report with floats cut to DIGEST_DIGITS significant digits."""
    data = json.loads(report, parse_float=lambda s: f"{float(s):.{DIGEST_DIGITS}g}")
    canon = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()
