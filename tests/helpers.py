"""Small spaces shared by several test modules.  A plain module, not the
conftest: the benchmark's self-test has a conftest of its own."""

import numpy as np

from qvista.metricspace import FiniteMetricSpace


def two_point_space():
    return FiniteMetricSpace(dist=np.array([[0.0, 1.0], [1.0, 0.0]]))
