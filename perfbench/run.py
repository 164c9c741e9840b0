"""Benchmark of qvista's dynamical and metric pipelines, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload julia-basilica --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One run measures one workload in its own process.  With ``--trace 0`` it times
closed-loop passes (each starts when the last ends) for ``--seconds`` seconds
and reports the end-to-end metrics.  With ``--trace 1`` it then adds one pass
with every layer's public functions wrapped and reports per-layer self times,
call counts and work counts.  Every pass is checked; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
``--workload all`` runs every workload both ways and prints a table.

The library is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "qvista" / "__init__.py"
REFERENCE = HERE / "reference.json"
# set-ups per run: a fresh interpreter imports qvista and makes the inputs
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170


def use_checkout_source() -> None:
    """Put this checkout's ``src`` first on the path, and insist it is used."""
    if not PACKAGE.is_file():
        raise SystemExit(f"perfbench: no qvista package at {PACKAGE.relative_to(ROOT)}")
    sys.path[:0] = [str(PACKAGE.parent.parent), str(HERE)]
    import qvista

    if Path(qvista.__file__).resolve() != PACKAGE:
        raise SystemExit(f"perfbench: imported qvista from {qvista.__file__}, not the checkout")


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    # OpenBLAS runs one thread per usable core unless one of these caps it
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": int(blas) if blas else nproc,
    }


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import qvista and make the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


class PassJudge:
    """Decides whether each pass is right: no exception, invariants hold, and the
    bytes equal the seed-0 reference digest or else the run's first pass."""

    def __init__(self, name: str, seed: int):
        import workloads

        self._w = workloads
        self.reference = json.loads(REFERENCE.read_text())[name] if seed == 0 else None
        self.first: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.sizes: dict = {}

    def run(self, fn, *args):
        """Run one pass; returns (seconds, output or None)."""
        self.attempted += 1
        gc.collect()  # start every pass from the same heap, outside the timed region
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        problems = self._w.check(out)
        if self.first is None:
            self.first, self.sizes = out.report, out.sizes
            digest = self._w.digest(out.report)
            if self.reference is not None and digest != self.reference:
                problems.append(f"report digest {digest} differs from the reference")
        elif out.report != self.first:
            problems.append("report bytes differ from the run's first pass")
        if problems:
            print("perfbench: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
        return dt, out


def run_one(args) -> int:
    # setup_s is an end-to-end metric, so a traced run does not pay for it
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, workload.size)
    judge = PassJudge(args.workload, args.seed)
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        times.append(judge.run(workload.run_pass, inputs)[0])
    pipeline_s = statistics.median(times)

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            judge.run(tracer.root, workload.run_pass, inputs)
        finally:
            tracer.uninstall()
        silent = [name for name in workload.spans if not tracer.calls()[name]]
        if silent:
            # a layer the pass must reach was not wrapped where it is bound
            print(f"perfbench: spans recorded no call: {', '.join(silent)}", file=sys.stderr)
            judge.failed += 1
        metrics = per_layer_metrics(tracer, pipeline_s)
    else:
        metrics = end_to_end_metrics(pipeline_s, setup_s, judge.attempted, judge.failed)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(times),
        "pass_s": times,
        "digest": workloads.digest(judge.first) if judge.first is not None else None,
        "size": dataclasses.asdict(workload.size),
        "sizes": judge.sizes,
        **environment(),
    }
    print(json.dumps({"meta": meta}))
    print(result_line(judge.failed == 0, judge.attempted, judge.failed, metrics))
    return 0


def end_to_end_metrics(pipeline_s: float, setup_s: float, attempted: int, failed: int) -> dict:
    # passes that succeeded, rather than failed, over attempted: a metric that is never 0
    return {
        "pipeline_s": (pipeline_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer_metrics(tracer: spans.Tracer, untraced_s: float) -> dict:
    self_s = tracer.self_times()
    calls = tracer.calls()
    metrics = {}
    for name in (*spans.SPANS, spans.ROOT, spans.COUNTING):
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in spans.SPANS:
        metrics[f"{name}.calls"] = (calls[name], "count")
    for name in spans.COUNTERS:
        metrics[name] = (tracer.counts[name], "count")
    pairs = tracer.counts["boundary.pairs"]
    metrics["boundary.resolved_ratio"] = (
        tracer.counts["boundary.pairs_resolved"] / pairs if pairs else 0.0, "ratio")
    pass_s = tracer.root_seconds()
    metrics["trace.pass_s"] = (pass_s, "s")
    metrics["trace.overhead_ratio"] = (pass_s / untraced_s - 1.0, "ratio")
    return metrics


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced; prints a table."""
    import workloads

    status, summary = 0, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S + args.seconds)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            res = json.loads(lines[-1])
            summary.setdefault(name, {})[f"trace{trace}"] = res
            print(f"## {name} --trace {trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for metric, v in res["metrics"].items():
                value = v["value"]
                if trace == 0 or value:
                    shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
                    print(f"  {metric:44s} {shown} {v['unit']}")
            if not res["correct"]:
                status = 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    use_checkout_source()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: all, {', '.join(workloads.WORKLOADS)}")
    if args.probe_setup:
        workload = workloads.WORKLOADS[args.workload]
        workload.make_inputs(args.seed, workload.size)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
