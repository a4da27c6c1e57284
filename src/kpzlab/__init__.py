"""Exactly solvable TASEP, determinantal point processes, and the KPZ fixed point.

The package is organized bottom-up: `special` (Poisson-Charlier
recurrence, F family, Airy), `dpp` (the correlation kernel of a conditional
L-ensemble), `simulate` (continuous-time TASEP and the 1:2:3 scaling),
`exact` (transition probabilities, the first-passage kernel, multipoint
formulas), `fredholm` (determinant engines, and the one refinement loop
with its `Certified` result) and `continuum` (the KPZ fixed point's S_{t,x}
kernel and the Airy_1 and Airy_2 processes).  Every probability that
settles on a ladder comes back as a `Certified` float.

The 1:2:3 scaling joins the layers: `simulate.height_events` turns events
h^eps(1, x) <= r of the rescaled height into the particle events
X_t(n) > a at t = 2 eps^(-3/2) that `exact.multipoint_probability`
evaluates, reading the anchor X_0^{-1}(-1) from the data, and gives the
middle r_mid of each event's lattice cell, where the limit laws of
`continuum` are compared; `simulate.rescale_height` is its forward map on
simulated heights.  No library path integrates on a
contour.  The routes that only check the library live with the tests: the
circle quadrature, the biorthogonal and closed-form kernels
(tests/exact_oracles.py) and the enumerated L-ensembles (tests/dpp_oracles.py).
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
