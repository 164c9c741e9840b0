"""qvista: multi-scale cover sequences of finite metric spaces.

Builds and verifies visual / quasi-visual approximations, links them to
Gromov-hyperbolic tile graphs and truncated boundary metrics, and applies the
machinery to dynamical covers of Julia sets of rational maps.
"""

__version__ = "0.1.0"

from .metricspace import (  # noqa: F401
    FiniteMetricSpace,
    Net,
    maximal_separated_net,
    uniform_perfectness_probe,
    validate_metric,
)
from .covers import (  # noqa: F401
    CoverSequence,
    Tile,
    VerificationReport,
    derive_rho_tau_nu,
    quasiball_check,
    verify_quasi_visual,
    verify_visual,
)
