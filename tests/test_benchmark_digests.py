"""The seed-0 benchmark reports, at full size, against the digests the
benchmark pins in ``perfbench/reference.json``.

``perfbench/run.py`` checks these digests on every benchmark run; this test
makes a report that moves fail the tier-1 suite too.  It reads the workloads
and the reference file and changes neither.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def test_every_workload_has_a_reference():
    assert sorted(REFERENCE) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed0_report_matches_reference(name):
    w = workloads.WORKLOADS[name]
    out = w.run_pass(w.make_inputs(0, w.size))
    assert workloads.check(out) == []
    assert workloads.digest(out.report) == REFERENCE[name]
