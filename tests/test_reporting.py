import hashlib
import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qvista.reporting import RunManifest, _plain, report_render


def test_render_golden():
    # numpy and Python scalars, non-finite floats, nested lists and tuples,
    # an array and a non-string key; the hashes come from a renderer without
    # the fast path for plain Python scalars
    obj = {
        "f64": np.float64(1 / 3),
        "f32": np.float32(0.1),
        "py_float": 2.5,
        "pinf": float("inf"),
        "ninf": -np.inf,
        "nan": float("nan"),
        "np_nan": np.float64("nan"),
        "i64": np.int64(-7),
        "big_int": 10**20,
        "b": np.bool_(True),
        "py_bool": False,
        "none": None,
        "nested": [[1, 2.5, [np.float64(-0.0), None, "s", True]], (3, np.int32(4))],
        "arr": np.array([[0.5, np.inf], [-0.0, 1e-300]]),
        7: "int key",
    }
    digests = {fmt: hashlib.sha256(report_render(obj, fmt)).hexdigest()
               for fmt in ("json", "text")}
    assert digests == {
        "json": "b03d8215b7d37f0228b2c853365aba9443f5d84b86dae385aa1ae77d07fba744",
        "text": "3beb8a38fc71e988cdacd8012008c508cc5f403effd71c48f68bba27db23a468",
    }


def test_float_matrix_golden():
    # float matrices with repeated values, -0.0 beside 0.0, subnormals and the
    # values where repr changes notation; "mixed" adds inf, -inf and nan.  The
    # hash comes from the stdlib's indenting encoder
    vals = np.array([0.0, -0.0, 1 / 3, -2.5, 1e16, 1e-5, 9999999999999998.0, 1e22, 1e-7,
                     5e-324, 2.2250738585072014e-308, 123456789.0, 0.1])
    finite = vals[(np.arange(63) * 5) % vals.size].reshape(9, 7)
    mixed = finite.copy()
    mixed[0, 0], mixed[1, 2], mixed[3, 3], mixed[8, 6] = np.inf, -np.inf, np.nan, -0.0
    obj = {
        "finite": finite,
        "mixed": mixed,
        "nested": {"rows": finite.tolist(), "stack": [finite[:2], mixed[:2]]},
        "row": finite[:1],
        "column": finite[:, :1],
    }
    assert hashlib.sha256(report_render(obj)).hexdigest() == (
        "b46a9278e33068e1754d47a5c636782ee6a78f3282f53bf24f5465e46e733656"
    )


def stdlib_render(obj) -> bytes:
    return (json.dumps(_plain(obj), sort_keys=True, indent=1) + "\n").encode()


# values around which repr switches between positional and exponent notation
NOTATION_EDGES = [1e16, 1e-5, 1e22, 1e-4, 1e21]
EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308] + [
    y for x in NOTATION_EDGES
    for y in (x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))
]

floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
scalars = st.one_of(floats, st.integers(), st.booleans(), st.none(), st.text())


@st.composite
def rectangular(draw, items=floats):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    m = [[draw(items) for _ in range(cols)] for _ in range(rows)]
    if rows and cols and draw(st.booleans()):
        return np.array(m, dtype=float if items is floats else object)
    return m


matrices = st.one_of(
    rectangular(),
    rectangular(items=st.sampled_from(EDGE_FLOATS)),  # few distinct values
    rectangular(items=st.one_of(floats, st.integers(), st.booleans())),
    rectangular(items=scalars),  # None and strings too
    st.lists(st.lists(floats, max_size=5), max_size=5),  # ragged
    st.just([[]]),
    st.lists(floats, min_size=1, max_size=6).map(lambda row: [row]),
)
keys = st.one_of(st.text(), st.integers())
values = st.recursive(
    st.one_of(scalars, matrices, st.just({}), st.just([])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_render_matches_stdlib_encoder(obj):
    assert report_render(obj, "json") == stdlib_render(obj)


def test_manifest_merge():
    manifest = RunManifest(command="verify", parameters={"mode": "visual"})
    report = {"passed": True, "ratios": np.array([[1.0, -0.0], [np.inf, 0.5]])}
    rendered = report_render(report, "json", manifest)
    assert rendered == stdlib_render({**report, "manifest": manifest.to_dict()})
    # a report that is not a dict moves under "report"
    assert report_render([1.5, 2.5], "json", manifest) == stdlib_render(
        {"report": [1.5, 2.5], "manifest": manifest.to_dict()}
    )
