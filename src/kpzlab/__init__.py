"""Exactly solvable TASEP, determinantal point processes, and the KPZ fixed point.

The package is organized bottom-up: `special` (contour quadrature, Airy),
`dpp` (finite determinantal measures), `simulate` (continuous-time TASEP),
`exact` (transition probabilities, biorthogonal kernels, multipoint formulas)
and `fredholm` (determinant engines).
"""

__version__ = "0.1.0"

from .special import airy_ai, circle_quadrature, gen_binomial, schuetz_F  # noqa: F401
from .simulate import make_initial  # noqa: F401
from .exact import (  # noqa: F401
    build_biortho,
    kt_kernel,
    multipoint_probability,
    path_integral_probability,
    schuetz_transition,
)
from .fredholm import det_window  # noqa: F401
