import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qvista.cli import main


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's ``qvista``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **kwargs)


def scipy_modules_after(code: str) -> str:
    """The sorted list of scipy modules, as printed, that a fresh interpreter
    has loaded once ``code`` has run."""
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = run_python("-c", code, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded():
    """Only the raster labeller needs scipy, so starting the CLI must not pay for it."""
    assert scipy_modules_after("import qvista.cli") == "[]"


def test_metric_chain_leaves_scipy_unloaded():
    code = """
from qvista import fixtures
from qvista.boundary import boundary_metric
from qvista.covers import verify_quasi_visual, verify_visual
from qvista.proximity import compute_proximity, synthesize_visual_metric
from qvista.tilegraph import build_tile_graph, hyperbolicity_constant
_space, cover = fixtures.fixture("cantor", depth=3, sample_depth=4)
assert verify_visual(cover).passed and verify_quasi_visual(cover).passed
compute_proximity(cover)
_metric, report = synthesize_visual_metric(cover, 1.5)
assert report.passed
graph = build_tile_graph(cover)
hyperbolicity_constant(graph)
boundary_metric(cover, graph, 3.0)
"""
    assert scipy_modules_after(code) == "[]"


def test_julia_zsq_passes(tmp_path):
    out = tmp_path / "julia.json"
    code = main([
        "julia", "--map", "z^2", "--depth", "8", "--levels", "3",
        "--grid", "512", "--cover-radius", "0.39", "--target-count", "256",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True


def test_julia_degree_probes(tmp_path):
    out = tmp_path / "julia.json"
    code = main([
        "julia", "--map", "z^2", "--depth", "8", "--levels", "3",
        "--grid", "512", "--cover-radius", "0.39", "--target-count", "256",
        "--degree-probes", "2", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    # z^2 is injective near its Julia set: every pull-back has degree 1
    assert report["degree_probes"] == [[1, 1, 1, 1]] * 2


def test_julia_manifest_records_target_count(tmp_path):
    """Runs that write different reports must not share a manifest: the
    target count is recorded, and by default it is degree ** depth."""
    base = ["julia", "--map", "z^2", "--depth", "6", "--levels", "2", "--grid", "128",
            "--cover-radius", "0.39"]
    manifests, sizes = [], []
    for extra in ([], ["--target-count", "48"]):
        out = tmp_path / f"julia{len(extra)}.json"
        assert main([*base, *extra, "--out", str(out)]) in (0, 1)
        report = json.loads(out.read_text())
        manifests.append(report["manifest"])
        sizes.append(report["sample_size"])
    assert sizes == [64, 48]
    assert [m["parameters"]["target_count"] for m in manifests] == [64, 48]
    assert manifests[0]["parameters"]["degree_probes"] == 0
    assert manifests[0] != manifests[1]


def test_metric_chain_exit_codes(tmp_path):
    space, cover = tmp_path / "space.json", tmp_path / "cover.json"
    built = tmp_path / "built.json"
    assert main(["fixture", "cantor", "--depth", "3", "--sample-depth", "4",
                 "--out-space", str(space), "--out-cover", str(cover)]) == 0
    assert main(["build", "--space", str(space), "--lambda", "3", "--depth", "3",
                 "--out", str(built)]) == 0
    assert main(["verify", "--space", str(space), "--cover", str(built),
                 "--out", str(tmp_path / "verify.json")]) == 0
    assert json.loads((tmp_path / "verify.json").read_text())["passed"] is True
    assert main(["proximity", "--cover", str(built), "--space", str(space),
                 "--out", str(tmp_path / "prox.json")]) == 0
    assert main(["tilegraph", "--cover", str(built), "--space", str(space),
                 "--out", str(tmp_path / "graph.json")]) == 0

    # the diameter constant max(diam * L^n, L^-n / diam) is at least 1, so a
    # threshold of 0.5 always fails
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps({"visual.diam": 0.5, "visual.separation": 0.5}))
    assert main(["verify", "--space", str(space), "--cover", str(built),
                 "--thresholds", str(strict), "--out", str(tmp_path / "fail.json")]) == 1
    assert json.loads((tmp_path / "fail.json").read_text())["passed"] is False


def test_unknown_option_is_usage_error(tmp_path):
    code = main(["fixture", "cantor", "--out-space", str(tmp_path / "s.json"),
                 "--out-cover", str(tmp_path / "c.json"), "--no-such-option"])
    assert code == 2
    assert not (tmp_path / "s.json").exists()


def _cantor_chain(tmp_path):
    """The cantor fixture (depth 3, sample depth 4) and a cover built on it at lambda 3."""
    space, built = tmp_path / "space.json", tmp_path / "built.json"
    assert main(["fixture", "cantor", "--depth", "3", "--sample-depth", "4",
                 "--out-space", str(space), "--out-cover", str(tmp_path / "cover.json")]) == 0
    assert main(["build", "--space", str(space), "--lambda", "3", "--depth", "3",
                 "--out", str(built)]) == 0
    return space, built


def test_verify_stdout_matches_report_file(tmp_path, capsys):
    """verify and qscheck print to stdout, without --out, the bytes of their --out file."""
    space, built = _cantor_chain(tmp_path)
    out = tmp_path / "report.out"
    for args in (
        ["verify", "--space", str(space), "--cover", str(built), "--format", "json"],
        ["verify", "--space", str(space), "--cover", str(built), "--format", "text"],
        ["qscheck", "--d1", str(space), "--d2", str(space)],
    ):
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


def test_verify_quasi_reports_quasiball(tmp_path):
    """verify --mode quasi reports the quasi-ball constants r0 <= R0 of the cover."""
    space, built = _cantor_chain(tmp_path)
    out = tmp_path / "quasi.json"
    assert main(["verify", "--space", str(space), "--cover", str(built), "--mode", "quasi",
                 "--out", str(out)]) == 0
    ball = json.loads(out.read_text())["quasiball"]
    assert 0 < ball["r0"] <= ball["R0"]


def test_synthesize_exit_codes(tmp_path):
    _, built = _cantor_chain(tmp_path)
    report = tmp_path / "report.json"
    # C = 1 on this cover, so lam = 1.5 keeps lam^C <= 2
    assert main(["synthesize", "--cover", str(built), "--lambda", "1.5",
                 "--out", str(tmp_path / "metric.json"), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["passed"] is True
    # lam^C = 3 > 2 is a usage error
    assert main(["synthesize", "--cover", str(built), "--lambda", "3",
                 "--out", str(tmp_path / "too_large.json")]) == 2


# SHA-256 of each output without its manifest (which names the input paths)
METRIC_FREE_DIGESTS = {
    "prox.json": "8b180fcfc78921dbadeeaec6b1d6861caa552f97afce734419d1070bb0988966",
    "metric.json": "c6d62cfcd01ba5cf5de4f80e07c96148bcddcad81ea6e08bb3988ef2cb52c89e",
    "report.json": "3ab1b1ed35a7e2e721a47e23268ba4e1d836c3f2233dd0f7a7a494ff91c46b19",
    "graph.json": "77830118125ea92a6a09dda5628fc8c54de4c0194ce45b23c2c84fa3c09e2ffd",
}


def test_metric_free_commands_golden(tmp_path):
    """proximity, synthesize and tilegraph read no metric without --space."""
    _, built = _cantor_chain(tmp_path)
    assert main(["proximity", "--cover", str(built), "--out", str(tmp_path / "prox.json")]) == 0
    assert main(["synthesize", "--cover", str(built), "--lambda", "1.5",
                 "--out", str(tmp_path / "metric.json"),
                 "--report", str(tmp_path / "report.json")]) == 0
    assert main(["tilegraph", "--cover", str(built), "--out", str(tmp_path / "graph.json")]) == 0
    for name, want in METRIC_FREE_DIGESTS.items():
        data = json.loads((tmp_path / name).read_text())
        data.pop("manifest", None)
        got = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
        assert got == want, name


def test_qscheck_space_against_itself(tmp_path):
    space, _ = _cantor_chain(tmp_path)
    out = tmp_path / "qs.json"
    assert main(["qscheck", "--d1", str(space), "--d2", str(space), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["snowflake"]["alpha"] == pytest.approx(1.0)


def test_boundary_exit_codes(tmp_path):
    # a cover one level deeper than the sample separates every pair
    space, cover = tmp_path / "s3.json", tmp_path / "c4.json"
    assert main(["fixture", "cantor", "--depth", "4", "--sample-depth", "3",
                 "--out-space", str(space), "--out-cover", str(cover)]) == 0
    out = tmp_path / "boundary.json"
    assert main(["boundary", "--cover", str(cover), "--space", str(space), "--lambda", "3",
                 "--check", "snowflake", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["injectivity"]["ok"] is True
    # the depth-3 chain cover leaves sample-depth-4 pairs unseparated: a FAIL
    chain_space, built = _cantor_chain(tmp_path)
    assert main(["boundary", "--cover", str(built), "--space", str(chain_space),
                 "--lambda", "3", "--check", "snowflake",
                 "--out", str(tmp_path / "fail.json")]) == 1


def test_tilegraph_cluster_exit_codes(tmp_path):
    """tilegraph --cluster-r exits 1 when the clustered cover is not quasi-visual.
    The rough similarity of the cluster map, which it reports as graph_map,
    holds on every input here and sets no exit code."""
    space, built = _cantor_chain(tmp_path)
    out = tmp_path / "graph.json"
    assert main(["tilegraph", "--cover", str(built), "--space", str(space), "--cluster-r", "1",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["cluster_quasi_visual"]["passed"] is True
    assert report["graph_map"] == {"ok": True, "violations": []}
    space, cover = tmp_path / "gasket_space.json", tmp_path / "gasket_cover.json"
    assert main(["fixture", "sierpinski_gasket", "--depth", "2", "--sample-depth", "3",
                 "--out-space", str(space), "--out-cover", str(cover)]) == 0
    for r in ("1", "2"):
        assert main(["tilegraph", "--cover", str(cover), "--space", str(space), "--cluster-r", r,
                     "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["cluster_quasi_visual"]["passed"] is False
        assert report["graph_map"] == {"ok": True, "violations": []}


@pytest.mark.parametrize("argv", [
    ["synthesize", "--cover", "{missing}", "--lambda", "1.5", "--out", "{out}"],
    ["qscheck", "--d1", "{missing}", "--d2", "{missing}"],
    ["boundary", "--cover", "{missing}", "--space", "{missing}", "--lambda", "3",
     "--check", "snowflake", "--out", "{out}"],
])
def test_missing_input_is_io_error(tmp_path, capsys, argv):
    paths = {"missing": str(tmp_path / "missing.json"), "out": str(tmp_path / "out.json")}
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qvista: error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("bad", [["--grid", "0", "--levels", "2"], ["--grid", "64", "--levels", "0"],
                                 ["--depth", "-1"]])
def test_julia_bad_grid_or_levels_is_usage_error(tmp_path, capsys, bad):
    out = tmp_path / "julia.json"
    code = main(["julia", "--map", "z^2", "--depth", "6", "--target-count", "64",
                 "--cover-radius", "0.39", *bad, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("qvista: error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_julia_singleton_traces_keep_their_points(tmp_path):
    """At depth 11, 32 points of z^2-3 are one-point traces in each of their
    level-5 parents; a one-point trace goes only where a tile of several
    points holds its point, so these keep their tiles and the run verifies."""
    out = tmp_path / "julia.json"
    code = main(["julia", "--map", "z^2-3", "--depth", "11", "--levels", "5", "--grid", "256",
                 "--out", str(out)])
    assert code in (0, 1)
    report = json.loads(out.read_text())
    assert report["sample_size"] == 2048
    assert report["passed"] is (code == 0)


def test_julia_grid_beyond_int32_ids_is_usage_error(tmp_path, capsys, monkeypatch):
    from qvista.spheregrid import SphereGrid

    def no_table(*_args):
        raise AssertionError("a whole-grid table was allocated before the size check")

    monkeypatch.setattr(SphereGrid, "fill_cells", no_table)
    out = tmp_path / "julia.json"
    assert main(["julia", "--map", "z^2", "--grid", "32768", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qvista: error:")
    assert "32767" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["z^2 + x", "sin(z)", "z^(1/2)", "z^2.5", "oo*z^2"])
def test_julia_malformed_map_is_usage_error(tmp_path, capsys, text):
    """A map that is not a rational function of z with finite numeric
    coefficients exits 2 with a one-line message naming it."""
    out = tmp_path / "julia.json"
    assert main([*JULIA, "--map", text, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qvista: error:") and "Traceback" not in err
    assert repr(text) in err and err.count("\n") == 1
    assert not out.exists()


def assert_usage_error(capsys, code, *words):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("qvista: error:") and "Traceback" not in err
    for word in words:
        assert word in err


@pytest.mark.parametrize("name", ["cantor", "interval_dyadic", "tree_example_3_7",
                                  "dyadic_interleaved", "sierpinski_gasket"])
def test_fixture_negative_depth_is_usage_error(tmp_path, capsys, name):
    space, cover = tmp_path / "space.json", tmp_path / "cover.json"
    code = main(["fixture", name, "--depth", "-1",
                 "--out-space", str(space), "--out-cover", str(cover)])
    assert_usage_error(capsys, code, "must be non-negative, got -1")
    assert not space.exists() and not cover.exists()


@pytest.mark.parametrize("width", ["0", "1"])
def test_build_negative_depth_is_usage_error(tmp_path, capsys, width):
    space, out = tmp_path / "space.json", tmp_path / "built.json"
    assert main(["fixture", "cantor", "--depth", "3", "--sample-depth", "4",
                 "--out-space", str(space), "--out-cover", str(tmp_path / "cover.json")]) == 0
    code = main(["build", "--space", str(space), "--lambda", "3", "--width", width,
                 "--depth", "-1", "--out", str(out)])
    assert_usage_error(capsys, code, "depth must be non-negative, got -1")
    assert not out.exists()


def test_fixture_sample_depth_reaches_each_fixture_that_has_one(tmp_path, capsys):
    space, cover = tmp_path / "space.json", tmp_path / "cover.json"
    out = ["--out-space", str(space), "--out-cover", str(cover)]
    # 2^3 + 1 grid points, where the default sample_exp gives 2^7 + 1
    assert main(["fixture", "interval_dyadic", "--depth", "2", "--sample-depth", "3", *out]) == 0
    assert json.loads(space.read_text())["n"] == 9
    assert main(["fixture", "dyadic_interleaved", "--depth", "1", "--sample-depth", "2",
                 *out]) == 0
    assert len(json.loads(cover.read_text())["levels"]) == 4  # 2 (k_max + 1)
    space.unlink()
    code = main(["fixture", "tree_example_3_7", "--sample-depth", "9", *out])
    assert_usage_error(capsys, code, "--sample-depth", "tree_example_3_7")
    assert not space.exists()


MALFORMED_INPUTS = {
    "thresholds_list.json": ["qv.i"],
    "thresholds_null.json": {"qv.i": None},
    "thresholds_misspelt.json": {"qv.I": 2.0},
    "thresholds_nan.json": {"qv.i": float("nan")},  # json writes NaN, and reads it back
    "space_list.json": [[0.0, 1.0], [1.0, 0.0]],
    "space_int_labels.json": {"n": 1, "dist": [[0.0]], "labels": 5},
    "cover_int_levels.json": {"levels": 5},
    "cover_list.json": [[[0]]],
    "cover_str_width.json": {"levels": [[[0]]], "width": "1"},
}
VERIFY = ["verify", "--space", "{space}", "--cover", "{built}"]
JULIA = ["julia", "--map", "z^2", "--depth", "6", "--levels", "2", "--grid", "128"]
OUT = ["--out", "{dir}/out.json"]
FIXTURE = ["--depth", "0", "--sample-depth", "-1",
           "--out-space", "{dir}/s.json", "--out-cover", "{dir}/c.json"]


@pytest.mark.parametrize("argv, words", [
    # malformed input files
    pytest.param([*VERIFY, "--mode", "quasi", "--thresholds", "{dir}/thresholds_list.json"],
                 ["JSON object, got list"], id="thresholds-list"),
    pytest.param([*VERIFY, "--mode", "quasi", "--thresholds", "{dir}/thresholds_null.json"],
                 ["'qv.i' must be a number, got None"], id="thresholds-null"),
    pytest.param([*VERIFY, "--thresholds", "{dir}/thresholds_misspelt.json"],
                 ["unknown threshold 'qv.I'"], id="thresholds-misspelt"),
    pytest.param([*VERIFY, "--mode", "quasi", "--thresholds", "{dir}/thresholds_nan.json"],
                 ["'qv.i' must be a number, got nan"], id="thresholds-nan"),
    pytest.param(["verify", "--space", "{dir}/space_list.json", "--cover", "{built}"],
                 ["JSON object, got list"], id="space-list-verify"),
    pytest.param(["qscheck", "--d1", "{dir}/space_list.json", "--d2", "{space}"],
                 ["JSON object, got list"], id="space-list-qscheck"),
    pytest.param(["qscheck", "--d1", "{dir}/space_int_labels.json", "--d2", "{space}"],
                 ["labels are a list, got 5"], id="space-int-labels"),
    pytest.param(["verify", "--space", "{space}", "--cover", "{dir}/cover_int_levels.json"],
                 ["'levels'"], id="cover-int-levels"),
    pytest.param(["proximity", "--cover", "{dir}/cover_list.json", *OUT],
                 ["JSON object, got list"], id="cover-list"),
    pytest.param(["proximity", "--cover", "{dir}/cover_str_width.json", *OUT],
                 ["got '1' and None"], id="cover-str-width"),
    # out-of-range numbers, named by the function that takes them
    pytest.param(["synthesize", "--cover", "{built}", "--lambda", "0.5", *OUT],
                 ["lambda must exceed 1, got 0.5"], id="synthesize-lambda-0.5"),
    pytest.param(["synthesize", "--cover", "{built}", "--lambda", "1", *OUT],
                 ["lambda must exceed 1, got 1.0"], id="synthesize-lambda-1"),
    pytest.param(["boundary", "--cover", "{built}", "--space", "{space}", "--lambda", "0.5", *OUT],
                 ["lambda must exceed 1, got 0.5"], id="boundary-lambda-0.5"),
    pytest.param(["boundary", "--cover", "{built}", "--space", "{space}", "--lambda", "1", *OUT],
                 ["lambda must exceed 1, got 1.0"], id="boundary-lambda-1"),
    pytest.param(["build", "--space", "{space}", "--lambda", "0.5", "--depth", "3", *OUT],
                 ["lambda must exceed 1, got 0.5"], id="build-lambda-0.5"),
    # non-finite numbers
    pytest.param(["build", "--space", "{space}", "--lambda", "nan", "--depth", "3", *OUT],
                 ["lambda must exceed 1, got nan"], id="build-lambda-nan"),
    pytest.param(["synthesize", "--cover", "{built}", "--lambda", "inf", *OUT],
                 ["lambda must be finite, got inf"], id="synthesize-lambda-inf"),
    pytest.param(["boundary", "--cover", "{built}", "--space", "{space}", "--lambda", "inf", *OUT],
                 ["lambda must be finite, got inf"], id="boundary-lambda-inf"),
    pytest.param([*JULIA, "--cover-radius", "nan", *OUT],
                 ["cover radius must be positive, got nan"], id="julia-cover-radius-nan"),
    pytest.param([*JULIA, "--target-count", "0", *OUT],
                 ["target_count must be at least 1, got 0"], id="julia-target-count-0"),
    pytest.param([*JULIA, "--cover-radius", "0", *OUT],
                 ["cover radius must be positive, got 0.0"], id="julia-cover-radius-0"),
    pytest.param([*JULIA, "--cover-radius", "-1", *OUT],
                 ["cover radius must be positive, got -1.0"], id="julia-cover-radius-neg"),
    pytest.param([*JULIA, "--cover-radius", "4", *OUT],
                 ["cover radius must be below pi", "got 4.0"], id="julia-cover-radius-4"),
    pytest.param([*JULIA, "--degree-probes", "-2", *OUT],
                 ["degree_probes must be non-negative, got -2"], id="julia-degree-probes-neg"),
    pytest.param(["tilegraph", "--cover", "{built}", "--space", "{space}", "--cluster-r", "-1", *OUT],
                 ["cluster radius r must be non-negative, got -1"], id="tilegraph-cluster-r-neg"),
    pytest.param(["fixture", "cantor", *FIXTURE],
                 ["sample_depth must be non-negative, got -1"], id="cantor-sample-depth-neg"),
    pytest.param(["fixture", "sierpinski_gasket", *FIXTURE],
                 ["sample_depth must be non-negative, got -1"], id="gasket-sample-depth-neg"),
    pytest.param(["fixture", "interval_dyadic", *FIXTURE],
                 ["sample_exp must be non-negative, got -1"], id="interval-sample-exp-neg"),
    pytest.param(["fixture", "dyadic_interleaved", *FIXTURE],
                 ["sample_exp must be non-negative, got -1"], id="interleaved-sample-exp-neg"),
])
def test_bad_input_is_usage_error(tmp_path, capsys, argv, words):
    """Malformed files and out-of-range numbers exit 2 with a message naming
    the bad value, never a traceback, and write nothing."""
    space, built = _cantor_chain(tmp_path)
    for name, data in MALFORMED_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    code = main([a.format(dir=tmp_path, space=space, built=built) for a in argv])
    assert_usage_error(capsys, code, *words)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("args", [["--depth", "0"], ["--width", "0", "--depth", "1"]],
                         ids=["width1-depth0", "width0-depth1"])
def test_build_on_coincident_twins_is_usage_error(tmp_path, args):
    """Every point of {0, 0, 1, 1} has a coincident twin, so the perfectness
    probe has no radius to start from; the build must stop, not hang."""
    space = tmp_path / "twins.json"
    space.write_text(json.dumps({"n": 4, "dist": [[0, 0, 1, 1], [0, 0, 1, 1],
                                                  [1, 1, 0, 0], [1, 1, 0, 0]]}))
    out = run_python("-m", "qvista.cli", "build", "--space", str(space), "--lambda", "2",
                     *args, "--out", str(tmp_path / "out.json"), timeout=60)
    assert out.returncode == 2
    assert out.stderr.startswith("qvista: error:") and "Traceback" not in out.stderr
    assert "coincident pairs include [[0, 1], [2, 3]]" in out.stderr
