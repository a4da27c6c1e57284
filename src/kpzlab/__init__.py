"""Exactly solvable TASEP, determinantal point processes, and the KPZ fixed point.

The package is organized bottom-up: `special` (Poisson-Charlier
recurrence, F family, Airy), `dpp` (finite determinantal measures),
`simulate` (continuous-time TASEP), `exact` (transition probabilities,
the first-passage kernel, multipoint formulas), `fredholm` (determinant engines,
and the one refinement loop with its `Certified` result) and `continuum`
(the KPZ fixed point's S_{t,x} kernel and the Airy_1 and Airy_2 processes).
Every probability that settles on a ladder comes back as a `Certified`
float.  No library path integrates on a contour; the circle quadrature that
checks the residue sums lives with the tests, and so do the biorthogonal and
closed-form routes that check the kernel (tests/exact_oracles.py).
"""

__version__ = "0.1.0"

from .special import schuetz_F  # noqa: F401
from .simulate import make_initial  # noqa: F401
from .exact import (  # noqa: F401
    kt_kernel,
    multipoint_probability,
    path_integral_probability,
    schuetz_transition,
)
from .fredholm import Certified, det_window  # noqa: F401
