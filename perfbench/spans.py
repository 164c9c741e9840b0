"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces each public function named in ``SPANS`` with a
wrapper that records a span (name, start, end, parent) and, where a count hook
is given, work counts taken from the call's result and arguments.  A function
imported by name into another module (``from .proximity import
snowflake_check``) is a separate binding, so every module attribute that is the
original function is replaced, not only the one in its home module.
``uninstall`` puts the originals back.

A span's self time is its duration minus the time its child spans cover; the
self times of all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


def _cover_tiles(a, r, nth):
    cover = a["cover"]
    return {
        "covers.tiles": sum(len(f) for f in cover.levels),
        "covers.tile_members": sum(len(t.members) for f in cover.levels for t in f),
    }


def _pullback_counts(a, r, nth):
    return {
        "julia.regions": sum(len(f) for f in r.families),
        "julia.region_cells": sum(reg.cells.size for f in r.families for reg in f),
    }


def _quasi_metric_triples(a, r, nth):
    # without a check or cover, the constant C takes one more triple scan
    scans = 2 if a["check"] is None and a["cover"] is None else 1
    return {"proximity.triples": scans * r.n ** 3}


def _hyperbolicity_triples(a, r, nth):
    n = a["graph"].n_vertices
    return {"tilegraph.triples": n ** 3 if a["mode"] == "exact" else a["sample_triples"]}


def _boundary_counts(a, r, nth):
    """Resolved pairs, and the cross-distance entries the per-pair loop reads."""
    cover = a["cover"]
    mem = cover.membership(cover.depth)
    first = np.argmax(mem, axis=0)
    last = mem.shape[0] - 1 - np.argmax(mem[::-1], axis=0)
    deepest = first if a["tie_break"] == "low" else last
    size = mem.sum(axis=1)[deepest].astype(float)
    upper = np.triu(r.products2 < 2 * r.truncation, k=1)
    return {
        "boundary.pairs": r.n * (r.n - 1) // 2,
        "boundary.pairs_resolved": int(upper.sum()),
        "boundary.cross_entries": int(size @ upper @ size),
    }


@dataclass(frozen=True)
class SpanSpec:
    module: str  # home module, relative to qvista
    attr: str  # function name or Class.method
    count: object = None  # (arguments, result, nth call) -> {counter: amount}
    when: object = None  # (arguments) -> record this call?  None records all


def _twin_cold(a):
    return a["self"]._twin is None


def _image_cells_cold(a):
    grid = a["grid"]
    return (grid.K, grid.H) not in a["self"]._img_cache


# twin_flat and image_cells are caches: only the call that fills one is a
# span, so a pass that reuses a cache it did not build records no call.
SPANS = {
    "spheregrid.components": SpanSpec("spheregrid", "SphereGrid.components"),
    "spheregrid.raster_ball": SpanSpec("spheregrid", "SphereGrid.raster_spherical_ball"),
    "spheregrid.twin_flat": SpanSpec(
        "spheregrid", "SphereGrid.twin_flat",
        count=lambda a, r, nth: {"spheregrid.cells": r.size}, when=_twin_cold,
    ),
    "julia.sample": SpanSpec(
        "julia", "julia_sample", count=lambda a, r, nth: {"julia.sample_points": r.n}
    ),
    "julia.admissible_cover": SpanSpec("julia", "admissible_cover"),
    "julia.image_cells": SpanSpec("julia", "RationalMap.image_cells", when=_image_cells_cold),
    "julia.pullback": SpanSpec("julia", "pullback_cover", count=_pullback_counts),
    "julia.induce_tiles": SpanSpec(
        "julia", "induce_tiles",
        count=lambda a, r, nth: {"julia.tiles": sum(len(f) for f in r.levels)},
    ),
    "julia.verify": SpanSpec("julia", "verify_dynamical_qv"),
    "covers.verify_quasi_visual": SpanSpec("covers", "verify_quasi_visual", count=_cover_tiles),
    "covers.verify_visual": SpanSpec("covers", "verify_visual", count=_cover_tiles),
    "covers.derive_rates": SpanSpec("covers", "derive_rho_tau_nu"),
    "covers.reach_within": SpanSpec("covers", "CoverSequence.reach_within"),
    "covers.pair_distances": SpanSpec("covers", "CoverSequence.pair_distances"),
    "proximity.compute": SpanSpec(
        "proximity", "compute_proximity", count=lambda a, r, nth: {"proximity.points": r.n}
    ),
    "proximity.dynamical": SpanSpec("proximity", "dynamical_checks"),
    "proximity.combinatorial": SpanSpec(
        "proximity", "check_combinatorially_visual",
        count=lambda a, r, nth: {"proximity.triples": r.table.n ** 3},
    ),
    "proximity.quasi_metric": SpanSpec("proximity", "quasi_metric_from_m", count=_quasi_metric_triples),
    "proximity.chain_metric": SpanSpec("proximity", "chain_metrize"),
    "proximity.snowflake": SpanSpec("proximity", "snowflake_check"),
    "proximity.qs_fit": SpanSpec("proximity", "fit_power_quasisymmetry"),
    "tilegraph.build": SpanSpec(
        "tilegraph", "build_tile_graph",
        count=lambda a, r, nth: {"tilegraph.vertices": r.n_vertices},
    ),
    "tilegraph.hyperbolicity": SpanSpec("tilegraph", "hyperbolicity_constant", count=_hyperbolicity_triples),
    "tilegraph.gromov_vs_m": SpanSpec("tilegraph", "compare_m_gromov"),
    "boundary.metric": SpanSpec("boundary", "boundary_metric", count=_boundary_counts),
    "boundary.regularity": SpanSpec("boundary", "phi_regularity_check"),
    "builder.width1": SpanSpec("builder", "build_visual_width1"),
    # build_visual_width1 asks for one net per level, finest last
    "metricspace.net": SpanSpec(
        "metricspace", "maximal_separated_net",
        count=lambda a, r, nth: {f"metricspace.net_points.L{nth}": len(r.members)},
    ),
    "reporting.render": SpanSpec(
        "reporting", "report_render", count=lambda a, r, nth: {"reporting.bytes": len(r)}
    ),
}

# every counter the hooks above fill, in report order
COUNTERS = (
    "spheregrid.cells", "julia.region_cells", "julia.sample_points", "julia.regions",
    "julia.tiles", "covers.tiles", "covers.tile_members", "proximity.points",
    "proximity.triples", "tilegraph.vertices", "tilegraph.triples",
    "boundary.pairs_resolved", "boundary.cross_entries",
    *(f"metricspace.net_points.L{k}" for k in range(1, 5)),  # gasket-metric's depth 4
    "reporting.bytes",
)
ROOT = "bench.pass"  # the whole traced pass; its self time is the benchmark's own code
COUNTING = "trace.counting"  # time spent in count hooks, outside every layer


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    """Records spans and counts while installed; not thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._calls: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._calls[name] += 1
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` inside the root span."""
        idx = self._open(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _call(self, name, spec, sig, fn, args, kwargs):
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(idx)
        if spec.count is not None:
            c_idx = self._open(COUNTING)
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(spec.count(bound.arguments, result, self._calls[name]))
            finally:
                self._close(c_idx)
        return result

    # -- patching -------------------------------------------------------------

    def install(self, spans: dict = SPANS) -> None:
        for name, spec in spans.items():
            home = importlib.import_module(f"qvista.{spec.module}")
            owner_name, _, attr = spec.attr.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, attr)
            wrapper = self._wrapper(name, spec, original)
            if owner_name:
                owners = [owner]
            else:
                owners = [m for m in list(sys.modules.values())
                          if getattr(m, "__dict__", {}).get(attr) is original]
            for o in owners:
                self._patches.append((o, attr, original))
                setattr(o, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrapper(self, name: str, spec: SpanSpec, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if spec.when is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if not spec.when(bound.arguments):
                    return fn(*args, **kwargs)
            return self._call(name, spec, sig, fn, args, kwargs)

        return traced

    # -- results --------------------------------------------------------------

    def calls(self) -> Counter:
        return Counter(self._calls)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
        return out

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)
