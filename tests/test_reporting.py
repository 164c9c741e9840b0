import hashlib
import json
import math
import tracemalloc

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
    """The stdlib's indenting encoder over the same values: an array that
    ``_plain`` keeps is read as its ``tolist()``."""
    return (json.dumps(_plain(obj), sort_keys=True, indent=1,
                       default=lambda a: _plain(a.tolist())) + "\n").encode()


def without_arrays(obj):
    """``obj`` with every array replaced by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: without_arrays(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(without_arrays, obj))
    return obj


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
def rectangular(draw, items=floats, dtype=np.float64):
    """A rows x cols list of lists, or half the time its array (of ``dtype``
    when the items are floats), empty shapes included."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    m = [[draw(items) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        with np.errstate(over="ignore"):  # a float16 overflows to inf
            a = np.array(m, dtype=dtype if items is floats else object)
        return a.reshape(rows, cols)
    return m


matrices = st.one_of(
    rectangular(),
    rectangular(dtype=np.float32),
    rectangular(dtype=np.float16),
    rectangular(items=st.sampled_from(EDGE_FLOATS)),  # few distinct values
    rectangular(items=st.one_of(floats, st.integers(), st.booleans())),
    rectangular(items=scalars),  # None and strings too
    st.lists(st.lists(floats, max_size=5), max_size=5),  # ragged
    st.just([[]]),
    st.lists(floats, min_size=1, max_size=6).map(lambda row: [row]),
    st.lists(floats, max_size=6).map(lambda row: np.array(row, dtype=float)),  # 1-D
    st.lists(rectangular(), min_size=1, max_size=3).map(tuple),  # arrays in a tuple
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


@settings(max_examples=200, deadline=None)
@given(values)
def test_text_reads_arrays_as_lists(obj):
    assert report_render(obj, "text") == report_render(without_arrays(obj), "text")


def test_float_matrix_render_memory():
    """The formatter reads the array itself: no Python list of its floats and
    no text per entry beyond the rendered report."""
    m = np.random.default_rng(0).choice(0.7 ** np.arange(12), size=(600, 600))
    tracemalloc.start()
    try:
        rendered = report_render({"dist": m})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rendered == stdlib_render({"dist": m})
    assert peak < 4.5 * len(rendered)


def test_manifest_merge():
    manifest = RunManifest(command="verify", parameters={"mode": "visual"})
    report = {"passed": True, "ratios": np.array([[1.0, -0.0], [np.inf, 0.5]])}
    rendered = report_render(report, "json", manifest)
    assert rendered == stdlib_render({**report, "manifest": manifest.to_dict()})
    # a report that is not a dict moves under "report"
    assert report_render([1.5, 2.5], "json", manifest) == stdlib_render(
        {"report": [1.5, 2.5], "manifest": manifest.to_dict()}
    )
