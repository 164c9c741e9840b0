import hashlib

import numpy as np

from qvista.reporting import report_render


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
