"""Command-line entry points for every pipeline.

Exit codes: 2 on a usage or I/O error, which prints ``qvista: error: ...`` to
stderr and writes no report.  Otherwise a command exits 0, except that it
exits 1 on a verification FAIL, with its report still written:

- ``verify``: a condition FAILs;
- ``synthesize``: the cover is not visual for the synthesized metric;
- ``qscheck``: neither a snowflake nor a power quasisymmetry fits;
- ``tilegraph --cluster-r``: the clustered cover is not quasi-visual;
- ``boundary``: the boundary map is not injective;
- ``julia``: the dynamical cover FAILs.

Two reports carry a structural check of the paper that sets no exit code:
``verify --mode quasi`` writes ``quasiball: {r0, R0}``, the constants with
B(x, r0 diam X) <= U_{2w+1}(X) <= B(x, R0 diam X) for every tile X and member
x; ``tilegraph --cluster-r r`` writes ``graph_map: {ok, violations}``, the
rough-similarity bounds of the map from tiles to their radius-r clusters.

``fixture``, ``build`` and ``proximity`` have no verdict and exit 0.  Only
``verify`` and ``qscheck`` write to stdout, and only without ``--out``: the
bytes the ``--out`` file would hold.

This is the only module that reads or writes a file: the library takes and
gives plain data (``from_dict`` / ``to_dict``).  Each input is read once, and
its manifest hash is the SHA-256 of the bytes that were parsed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import fixtures
from .builder import build_visual_width0, build_visual_width1
from .covers import (
    CoverSequence,
    check_depth,
    check_thresholds,
    quasiball_check,
    verify_quasi_visual,
    verify_visual,
)
from .errors import QvistaError
from .metricspace import FiniteMetricSpace
from .proximity import (
    compute_proximity,
    fit_power_quasisymmetry,
    snowflake_check,
    synthesize_visual_metric,
)
from .reporting import RunManifest, default_seed, report_render
from .tilegraph import (
    build_tile_graph,
    cluster_cover_sequence,
    compare_m_gromov,
    graph_map_check,
    hyperbolicity_constant,
)
from .boundary import boundary_metric, phi_injectivity_check, phi_regularity_check
from .julia import (
    MAX_PREIMAGE_COUNT,
    RationalMap,
    admissible_cover,
    degree_probe,
    induce_tiles,
    julia_sample,
    pullback_cover,
    verify_dynamical_qv,
)
from .spheregrid import SphereGrid

# the fixture parameter that --depth sets where it is not called depth, and the
# one --sample-depth sets; a fixture missing from SAMPLE_DEPTH_PARAMS has none
DEPTH_PARAMS = {"dyadic_interleaved": "k_max"}
SAMPLE_DEPTH_PARAMS = {
    "cantor": "sample_depth",
    "sierpinski_gasket": "sample_depth",
    "interval_dyadic": "sample_exp",
    "dyadic_interleaved": "sample_exp",
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qvista")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("fixture", help="emit a canonical space and cover")
    p.add_argument("name", choices=fixtures.FIXTURE_NAMES)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--sample-depth", type=int, default=None)
    p.add_argument("--out-space", required=True)
    p.add_argument("--out-cover", required=True)

    p = sub.add_parser("build", help="build a visual approximation from nets")
    p.add_argument("--space", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--width", type=int, choices=(0, 1), default=1)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="verify visual or quasi-visual conditions")
    p.add_argument("--space", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--mode", choices=("visual", "quasi"), default="visual")
    p.add_argument("--thresholds", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("proximity", help="compute the proximity table of a cover")
    p.add_argument("--cover", required=True)
    p.add_argument("--space", default=None, help="optional; proximity is combinatorial")
    p.add_argument("--out", required=True)

    p = sub.add_parser("synthesize", help="synthesize a visual metric from a cover")
    p.add_argument("--cover", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)

    p = sub.add_parser("qscheck", help="fit snowflake / power quasisymmetry between metrics")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("tilegraph", help="tile graph, hyperbolicity, clusters")
    p.add_argument("--cover", required=True)
    p.add_argument("--space", default=None)
    p.add_argument("--hyperbolicity", choices=("exact", "sampled"), default="exact")
    p.add_argument("--cluster-r", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("boundary", help="truncated boundary metric and regularity")
    p.add_argument("--cover", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--check", choices=("snowflake", "qs", "both"), default="both")

    p = sub.add_parser("julia", help="dynamical cover of a Julia set, end to end")
    p.add_argument("--map", dest="map_text", required=True)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--cover-radius", type=float, default=0.25)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--grid", type=int, default=2048)
    p.add_argument("--target-count", type=int, default=None,
                   help="default: degree ** depth, at most %d" % MAX_PREIMAGE_COUNT)
    p.add_argument("--degree-probes", type=int, default=0)
    p.add_argument("--out", required=True)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args, default_seed())
    except (QvistaError, OSError, ValueError, KeyError) as exc:
        print(f"qvista: error: {exc}", file=sys.stderr)
        return 2


def _emit(path, result, passed, manifest: RunManifest, fmt: str = "json") -> int:
    """Write the canonical report of ``result`` to ``path``, or to stdout when
    ``path`` is None, and return the exit code of the verdict ``passed``."""
    if path is None:
        sys.stdout.write(report_render(result, fmt, manifest).decode())
    else:
        with open(path, "wb") as fh:
            fh.write(report_render(result, fmt, manifest))
    return 0 if passed else 1


def _write(path, data: dict) -> None:
    """Write the data file ``path``: ``data`` as sorted-key JSON plus a newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")


def _dispatch(args, seed: int) -> int:
    cmd = args.cmd
    digests: dict = {}  # input path -> SHA-256 of the bytes read from it

    def read(path, parse, *extra):
        """``parse(data, *extra)`` of the JSON in ``path``; errors name the file."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            digests[path] = hashlib.sha256(data).hexdigest()
            data = data.decode()  # each rebinding frees the bytes, then the text,
            data = json.loads(data)  # before the next step builds larger objects
            return parse(data, *extra)
        except (ValueError, TypeError, QvistaError) as exc:
            raise ValueError(f"{path}: {exc}") from None

    def manifest(inputs=(), **parameters) -> RunManifest:
        return RunManifest(command=cmd, inputs={p: digests[p] for p in inputs},
                           parameters=parameters, seed=seed)

    if cmd == "fixture":
        params = {}
        if args.depth is not None:
            params[DEPTH_PARAMS.get(args.name, "depth")] = args.depth
        if args.sample_depth is not None:
            if args.name not in SAMPLE_DEPTH_PARAMS:
                raise ValueError(f"fixture {args.name!r} takes no --sample-depth")
            params[SAMPLE_DEPTH_PARAMS[args.name]] = args.sample_depth
        space, cover = fixtures.fixture(args.name, **params)
        _write(args.out_space, space.to_dict())
        _write(args.out_cover, cover.to_dict())
        return 0

    if cmd == "julia":
        return _julia(args, seed, manifest)

    if cmd == "qscheck":
        d1 = read(args.d1, FiniteMetricSpace.from_dict)
        d2 = d1 if args.d2 == args.d1 else read(args.d2, FiniteMetricSpace.from_dict)
        if d1.n != d2.n:
            raise ValueError(f"--d1 and --d2 have different point counts: {d1.n} and {d2.n}")
        snow = snowflake_check(d1, d2)
        qs = fit_power_quasisymmetry(d1, d2)
        result = {
            "snowflake": {"alpha": snow[0], "C": snow[1]} if snow else None,
            "quasisymmetry": qs.to_dict() if qs else None,
        }
        return _emit(args.out, result, snow or qs, manifest((args.d1, args.d2)))

    # every other command reads a space, a cover, or a cover over a space
    space = read(args.space, FiniteMetricSpace.from_dict) if getattr(args, "space", None) else None
    if cmd == "build":
        build = build_visual_width1 if args.width == 1 else build_visual_width0
        _write(args.out, build(space, args.lam, args.depth).to_dict())
        return 0
    cover = read(args.cover, CoverSequence.from_dict, space)

    if cmd == "verify":
        thresholds = read(args.thresholds, check_thresholds) if args.thresholds else None
        if args.mode == "visual":
            report = result = verify_visual(cover, thresholds=thresholds)
        else:
            report = verify_quasi_visual(cover, thresholds=thresholds)
            r0, R0 = quasiball_check(cover)
            result = {**report.to_dict(), "quasiball": {"r0": r0, "R0": R0}}
        return _emit(args.out, result, report.passed,
                     manifest((args.space, args.cover), mode=args.mode, thresholds=thresholds),
                     args.format)

    if cmd == "proximity":
        _write(args.out, compute_proximity(cover).to_dict())
        return 0

    if cmd == "synthesize":
        metric, report = synthesize_visual_metric(cover, args.lam)
        _write(args.out, metric.to_dict())
        if args.report is None:
            return 0 if report.passed else 1
        return _emit(args.report, report, report.passed,
                     manifest((args.cover,), **{"lambda": args.lam}))

    if cmd == "tilegraph":
        if args.cluster_r is not None and space is None:
            raise ValueError("--cluster-r verification requires --space")
        graph = build_tile_graph(cover)
        result = {
            "graph": graph,
            "gromov_vs_m": compare_m_gromov(graph, compute_proximity(cover)),
            "hyperbolicity": hyperbolicity_constant(graph, mode=args.hyperbolicity, seed=seed),
            "hyperbolicity_mode": args.hyperbolicity
            + ("" if args.hyperbolicity == "exact" else " (lower bound only)"),
        }
        passed = True
        if args.cluster_r is not None:
            clustered = verify_quasi_visual(cluster_cover_sequence(graph, args.cluster_r))
            ok, violations = graph_map_check(graph, args.cluster_r)
            result.update(cluster_r=args.cluster_r, cluster_quasi_visual=clustered,
                          graph_map={"ok": ok, "violations": violations})
            passed = clustered.passed
        return _emit(args.out, result, passed,
                     manifest((args.cover,), hyperbolicity=args.hyperbolicity,
                              cluster_r=args.cluster_r))

    if cmd == "boundary":
        bnd = boundary_metric(cover, build_tile_graph(cover), args.lam)
        ok, inj = phi_injectivity_check(bnd)
        result = {"boundary": bnd.to_dict(), "injectivity": {"ok": ok, **inj}}
        if args.check in ("snowflake", "both"):
            snow = snowflake_check(space, FiniteMetricSpace(dist=bnd.dist))
            result["snowflake"] = {"alpha": snow[0], "C": snow[1]} if snow else None
        if args.check in ("qs", "both"):
            result["regularity"] = phi_regularity_check(space, bnd)
        return _emit(args.out, result, ok,
                     manifest((args.space, args.cover), check=args.check, **{"lambda": args.lam}))

    raise ValueError(f"unknown command {cmd!r}")


def _julia(args, seed: int, manifest) -> int:
    """The dynamical pipeline on ``args.map_text``, from sample to verdict."""
    grid = SphereGrid(K=args.grid)  # rejects a bad size before any work
    check_depth(args.degree_probes, "degree_probes")
    map_ = RationalMap.parse(args.map_text)
    target_count = args.target_count
    if target_count is None:
        target_count = min(map_.degree ** args.depth, MAX_PREIMAGE_COUNT)
    sample = julia_sample(map_, args.depth, target_count=target_count)
    pull = admissible_cover(map_, sample, args.cover_radius, grid=grid)
    pull = pullback_cover(pull, args.levels)
    cover = induce_tiles(pull)
    outcome = verify_dynamical_qv(pull, cover)
    result = {"map": args.map_text, "sample_size": sample.n, "mesh": sample.mesh, **outcome}
    if args.degree_probes:
        rng = np.random.default_rng(seed)
        picks = rng.choice(sample.n, size=min(args.degree_probes, sample.n), replace=False)
        result["degree_probes"] = [degree_probe(map_, complex(w0), 0.5 * args.cover_radius, 4)
                                   for w0 in sample.z[picks] if np.isfinite(w0)]
    return _emit(args.out, result, outcome["passed"],
                 manifest(map=args.map_text, depth=args.depth, cover_radius=args.cover_radius,
                          levels=args.levels, grid=args.grid, target_count=target_count,
                          degree_probes=args.degree_probes))


if __name__ == "__main__":
    sys.exit(main())
