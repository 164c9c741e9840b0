import json

from qvista.cli import main


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
