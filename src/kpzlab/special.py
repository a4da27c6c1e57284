"""Scalar special functions and contour quadrature.

Everything here is elementary but tolerance-critical: the circle quadrature
drives every contour formula in the exact solvers, and the Airy function
(scipy's, range-checked here) is the backbone of the continuum kernels.  All
routines are deterministic and carry explicit error reporting instead of
silent best-effort values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.special import airy

# Γ_0 is a circle around the origin only; Γ_{0,1} encloses 0 and 1.
GAMMA0_RADIUS = 0.5
GAMMA01_CENTER = 0.5
GAMMA01_RADIUS = 1.0

MIN_NODES = 64
MAX_NODES = 4096

AIRY_RANGE = 30.0


class QuadratureError(RuntimeError):
    """Raised when node doubling exhausts MAX_NODES without converging."""


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
    prev_value: complex  # value at half the node count, for error reporting
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
    ladder is both the error estimate and the stopping rule.
    """
    c, r = contour.center, contour.radius
    older = None
    prev = None
    n = min_nodes
    while n <= max_nodes:
        theta = 2.0 * np.pi * np.arange(n) / n
        unit = np.exp(1j * theta)
        w = c + r * unit
        vals = np.asarray(f(w), dtype=np.complex128)
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


def gen_binomial(m, j: int):
    """Generalized binomial coefficient m(m-1)...(m-j+1)/j!.

    Exact Fraction for integral m, float otherwise.  j < 0 gives 0.
    """
    if j < 0:
        return Fraction(0) if isinstance(m, (int, np.integer)) else 0.0
    if isinstance(m, (int, np.integer)):
        num = Fraction(1)
        for i in range(j):
            num *= Fraction(int(m) - i)
        return num / math.factorial(j)
    out = 1.0
    for i in range(j):
        out *= (m - i) / (i + 1)
    return out


def _poisson_term(t: float, m: int) -> float:
    """e^{-t} t^m / m! computed without overflow; 0 for m < 0."""
    if m < 0:
        return 0.0
    if t == 0.0:
        return 1.0 if m == 0 else 0.0
    return math.exp(m * math.log(t) - t - math.lgamma(m + 1))


def _residue_sum(nu: int, M: int, t: float) -> float:
    """e^{-t} * sum_{j=0}^{min(nu,M)} C(nu,j) (-1)^j t^{M-j}/(M-j)!.

    This is the residue at w=0 of (1-w)^nu e^{t(w-1)} / w^{M+1} for nu >= 0.
    """
    if M < 0:
        return 0.0
    total = 0.0
    for j in range(min(nu, M) + 1):
        total += math.comb(nu, j) * (-1) ** j * _poisson_term(t, M - j)
    return total


def schuetz_F(n: int, x: int, t: float, tol: float = 1e-10) -> float:
    """One-parameter family F_n(x,t) of signed transition weights.

    F_n(x,t) = ((-1)^n / 2pi i) * integral over a contour enclosing 0 and 1
    of (1-w)^{-n} w^{-(x-n+1)} e^{t(w-1)} dw.  For n <= 0 the integrand is
    rational with its only pole at 0, and the exact residue sum is used; for
    n >= 1 the circle enclosing both 0 and 1 is integrated numerically.
    """
    n = int(n)
    x = int(x)
    if t < 0:
        raise ValueError("t must be >= 0")
    if n <= 0:
        return (-1) ** n * _residue_sum(-n, x - n, t)

    def f(w: np.ndarray) -> np.ndarray:
        return (1.0 - w) ** (-n) * w ** (-(x - n + 1)) * np.exp(t * (w - 1.0))

    res = circle_quadrature(f, ContourSpec.gamma01(), tol=tol)
    return ((-1) ** n * res.value).real


def airy_ai(z: float) -> float:
    """Airy function Ai(z) for |z| <= 30, absolute error below 1e-12."""
    z = float(z)
    if not math.isfinite(z) or abs(z) > AIRY_RANGE:
        raise ValueError(f"airy_ai supports |z| <= {AIRY_RANGE}, got {z}")
    return float(airy(z)[0])


def airy_ai_kernel(z) -> np.ndarray:
    """Vectorized Ai for kernel builders: arguments beyond +30 return 0.0
    (|Ai| < 3e-48 there), arguments below -30 still raise."""
    arr = np.asarray(z, dtype=float)
    if arr.size and float(arr.min()) < -AIRY_RANGE:
        raise ValueError("airy_ai_kernel: argument below -30")
    out = np.where(arr <= AIRY_RANGE, airy(np.minimum(arr, AIRY_RANGE))[0], 0.0)
    return out if arr.shape else float(out)
