"""Self-test of the benchmark at smoke sizes: python3 -m pytest perfbench -q"""

import json

import pytest

import run
import spans
import workloads
from spans import Tracer

TRACED_PASSES = 2
# caches a pass must fill itself, exactly once, instead of inheriting them
CACHE_SPANS = ("julia.image_cells", "spheregrid.twin_flat")


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def smoke(request):
    w = workloads.WORKLOADS[request.param]
    inputs = w.make_inputs(0, w.smoke)
    untraced = [w.run_pass(inputs) for _ in range(2)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [tracer.root(w.run_pass, inputs) for _ in range(TRACED_PASSES)]
    finally:
        tracer.uninstall()
    return w, untraced, traced, tracer


def test_passes_render_identical_bytes(smoke):
    _w, (first, second), _traced, _tracer = smoke
    assert workloads.check(first) == []
    assert first.report == second.report


def test_traced_pass_renders_untraced_bytes(smoke):
    _w, (first, _), traced, _tracer = smoke
    assert all(out.report == first.report for out in traced)


def test_every_listed_span_records_a_call(smoke):
    w, _untraced, _traced, tracer = smoke
    calls = tracer.calls()
    assert [s for s in w.spans if calls[s] == 0] == []


def test_each_pass_fills_its_caches_once(smoke):
    w, _untraced, _traced, tracer = smoke
    calls = tracer.calls()
    for name in CACHE_SPANS:
        assert calls[name] == (TRACED_PASSES if name in w.spans else 0), name


def test_self_times_add_up_to_the_root_spans(smoke):
    _w, _untraced, _traced, tracer = smoke
    roots = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in roots] == [spans.ROOT] * TRACED_PASSES
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.root_seconds(), rel=1e-9)


def test_by_name_bindings_are_wrapped_and_restored():
    import qvista.boundary
    import qvista.builder
    import qvista.proximity

    bindings = [
        (qvista.proximity, "verify_visual"),
        (qvista.boundary, "fit_power_quasisymmetry"),
        (qvista.boundary, "snowflake_check"),
        (qvista.builder, "maximal_separated_net"),
    ]
    originals = [getattr(m, a) for m, a in bindings]
    tracer = Tracer()
    tracer.install()
    try:
        for (m, a), orig in zip(bindings, originals):
            assert getattr(m, a).__wrapped__ is orig, f"{m.__name__}.{a}"
    finally:
        tracer.uninstall()
    assert [getattr(m, a) for m, a in bindings] == originals


def test_benchmark_json_names_every_printed_metric():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = run.end_to_end_metrics(1.0, 1.0, 1, 0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: u for k, (_v, u) in e2e.items()}
    layer = run.per_layer_metrics(Tracer(), 1.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (_v, u) in layer.items()}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
