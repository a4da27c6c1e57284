"""Scalar special functions and contour quadrature.

Everything here is elementary but tolerance-critical: the circle quadrature
drives every contour formula in the exact solvers, the Poisson-Charlier
recurrence evaluates every residue sum of the exact layer, and the Airy
function (scipy's, range-checked here) is the backbone of the continuum
kernels.  All routines are deterministic and carry explicit error reporting
instead of silent best-effort values.
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

_LN2 = math.log(2.0)
_RESCALE = 2.0**500  # _poisson_charlier renormalises its rows outside [1/this, this]


class QuadratureError(RuntimeError):
    """Raised when node doubling exhausts MAX_NODES without converging, or
    when the integrand is not finite at a node."""


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


def _poisson_charlier(m: int, x, t: float, c: float = 1.0, log_scale: float = 0.0) -> np.ndarray:
    """Poisson-weighted Charlier polynomials E_j(x) for j = 0..m.

    E_j(x) = e^(s - r) r^j / j! * C_j(x; t), with r = c t, s = log_scale and
    C_j(x; t) = 2F0(-j, -x;; -1/t), symmetric at nonnegative integers:
    C_j(x) = C_x(j).  Written out, E_j(x) = e^(s - r) sum_i C(x, i) (-c)^i
    r^(j-i) / (j-i)!, the alternating Poisson sum behind every residue
    formula of the exact layer.  Rows come from the forward three-term
    recurrence in the degree,

        (j + 1) / c * E_(j+1) = (j + t - x) E_j - r E_(j-1),

    which is stable where the direct sums cancel, and vectorised over x:
    the result has shape (m + 1,) + x.shape.  At t = 0 the recurrence gives
    the limit (-c)^j C(x, j).  e^(s - r) is carried as a log offset and the
    running pair is renormalised by powers of 2, so the recurrence neither
    overflows nor underflows at any r; only values below the double range
    come out as 0.  It is private so that a traced benchmark run charges
    its time to the kernel that called it.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    if scalar:
        x = float(x)  # plain floats: a scalar call is a few microseconds
    r = c * t
    prev, cur, shift = 0.0 * x, 1.0 + 0.0 * x, log_scale - r
    rows, shifts = [cur], [shift]
    for j in range(m):
        prev, cur = cur, ((j + t - x) * cur - r * prev) * (c / (j + 1))
        big = max(abs(prev), abs(cur)) if scalar else max(abs(prev).max(), abs(cur).max())
        if big > _RESCALE or 0.0 < big < 1.0 / _RESCALE:
            e = math.frexp(big)[1]
            prev, cur = np.ldexp(prev, -e), np.ldexp(cur, -e)
            shift += e * _LN2
        rows.append(cur)
        shifts.append(shift)
    return np.array(rows) * np.exp(shifts).reshape((-1,) + (1,) * np.ndim(x))


def _charlier_term(p: int, k: int, t: float) -> float:
    """E_p(k) at r = t, the residue sum e^(-t) sum_j C(k, j) (-1)^j
    t^(p-j) / (p-j)!; zero for p < 0.

    The 1x1 call of _poisson_charlier.  For 0 <= k < p and t > 0 it steps the
    shorter index, the degree k at x = p, and moves the Poisson weight from
    k to p through log_scale; otherwise it steps p at x = k.
    """
    if p < 0:
        return 0.0
    if 0 <= k < p and t > 0.0:
        move = (p - k) * math.log(t) + math.lgamma(k + 1) - math.lgamma(p + 1)
        return float(_poisson_charlier(k, p, t, log_scale=move)[-1])
    return float(_poisson_charlier(p, k, t)[-1])


def schuetz_F(n: int, x: int, t: float) -> float:
    """One-parameter family F_n(x,t) of signed transition weights.

    F_n(x,t) = ((-1)^n / 2pi i) * integral over a contour enclosing 0 and 1
    of (1-w)^(-n) w^(-(x-n+1)) e^(t(w-1)) dw, evaluated by residues.  The
    residue at w = 0 is (-1)^n E_(x-n)(-n) at r = t; for n >= 1 the pole at
    w = 1 adds t^(n-1)/(n-1)! C_(n-1)(n-x-1; -t), which is _poisson_charlier
    at time -t with c = -1 and the factor e^r taken out through log_scale.
    """
    n = int(n)
    x = int(x)
    if t < 0:
        raise ValueError("t must be >= 0")
    val = (-1) ** n * _charlier_term(x - n, -n, t)
    if n >= 1:
        val += float(_poisson_charlier(n - 1, n - x - 1, -t, -1.0, log_scale=t)[-1])
    return val


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
