"""Trapezoid quadrature on circles: the tests' independent route to the
residue sums of the library.

No library path integrates on a contour; every closed form in kpzlab is a
finite residue sum, and the tests check those sums against this quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from kpzlab.special import QuadratureError

# Γ_0 is a circle around the origin only; Γ_{0,1} encloses 0 and 1.
GAMMA0_RADIUS = 0.5
GAMMA01_CENTER = 0.5
GAMMA01_RADIUS = 1.0

MIN_NODES = 64
MAX_NODES = 4096


@dataclass(frozen=True)
class ContourSpec:
    """Positively oriented circle |w - center| = radius."""

    center: complex
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("contour radius must be positive")

    def encloses(self, point: complex) -> bool:
        return abs(point - self.center) < self.radius

    @classmethod
    def gamma0(cls, radius: float = GAMMA0_RADIUS) -> "ContourSpec":
        spec = cls(0.0 + 0.0j, radius)
        if spec.encloses(1.0):
            raise ValueError("gamma0 must not enclose w = 1")
        return spec

    @classmethod
    def gamma01(cls) -> "ContourSpec":
        return cls(complex(GAMMA01_CENTER), GAMMA01_RADIUS)


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    prev_value: complex  # value at half the node count
    nodes: int
    err_estimate: float
    converged: bool


def circle_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    contour: ContourSpec,
    tol: float = 1e-12,
    min_nodes: int = MIN_NODES,
    max_nodes: int = MAX_NODES,
) -> QuadratureResult:
    """Evaluate (1/2pi i) * contour integral of f by the trapezoid rule.

    `f` must accept a complex ndarray of contour points.  Nodes double from
    `min_nodes` until successive values differ by less than
    tol * max(1, |value|); exceeding `max_nodes` raises QuadratureError
    carrying the last two levels.  Trapezoid sums converge geometrically for
    integrands analytic in a neighborhood of the circle, so the doubling
    ladder is both the error estimate and the stopping rule.  `f` runs with
    numpy's floating-point warnings off; a value that is not finite raises
    QuadratureError at once, naming the node, since it means a singularity
    on or next to the contour.
    """
    c, r = contour.center, contour.radius
    older = None
    prev = None
    n = min_nodes
    while n <= max_nodes:
        theta = 2.0 * np.pi * np.arange(n) / n
        unit = np.exp(1j * theta)
        w = c + r * unit
        with np.errstate(all="ignore"):
            vals = np.asarray(f(w), dtype=np.complex128)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            delta = abs(prev - older) if older is not None else math.inf
            raise QuadratureError(
                f"integrand is not finite at w = {w[bad[0]]:.6g} (node {bad[0]} of {n}) "
                f"on the circle |w - {c:.6g}| = {r:.6g}; move the contour away from "
                f"the singularity (last delta={delta:.3e})"
            )
        # dw/(2pi i) = r e^{i theta} dtheta / (2pi)
        value = r * np.sum(vals * unit) / n
        if prev is not None:
            err = abs(value - prev)
            if err <= tol * max(1.0, abs(value)):
                return QuadratureResult(value, prev, n, err, True)
        older, prev = prev, value
        n *= 2
    err = abs(prev - older) if older is not None else math.inf
    raise QuadratureError(
        f"contour quadrature failed to converge at {max_nodes} nodes: "
        f"last={prev!r} prev={older!r} delta={err:.3e}"
    )
