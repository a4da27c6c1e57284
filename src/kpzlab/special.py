"""Scalar special functions and contour quadrature.

Everything here is elementary but tolerance-critical: the Poisson-Charlier
recurrence evaluates every alternating residue sum of the exact layer, the
F family's n >= 1 members are positive Laurent series, and the Airy
function is scipy's, range-checked here for scalar callers and
lambda-quadrature kernels (`continuum` builds its closed-form kernels on
scipy's airy and airye directly).  No library path integrates on a
contour: the circle quadrature is the independent route that the tests
check those residue sums against.
All routines are deterministic and carry explicit error reporting instead
of silent best-effort values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.special import airy, gammaln

# Γ_0 is a circle around the origin only; Γ_{0,1} encloses 0 and 1.
GAMMA0_RADIUS = 0.5
GAMMA01_CENTER = 0.5
GAMMA01_RADIUS = 1.0

MIN_NODES = 64
MAX_NODES = 4096

AIRY_RANGE = 30.0

_LN2 = math.log(2.0)
_RESCALE = 2.0**500  # _poisson_charlier renormalises its rows outside [1/this, this]
_LOG_MAX = math.log(np.finfo(float).max)
_SERIES_EPS = 2.0**-56  # schuetz_F stops a positive series once its tail is below this


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


def _poisson_charlier(
    m: int, x, t: float, c: float = 1.0, log_scale: float = 0.0
) -> np.ndarray | list[float]:
    """Poisson-weighted Charlier polynomials E_j(x) for j = 0..m.

    E_j(x) = e^(s - r) r^j / j! * C_j(x; t), with r = c t, s = log_scale and
    C_j(x; t) = 2F0(-j, -x;; -1/t), symmetric at nonnegative integers:
    C_j(x) = C_x(j).  Written out, E_j(x) = e^(s - r) sum_i C(x, i) (-c)^i
    r^(j-i) / (j-i)!, the alternating Poisson sum behind every residue
    formula of the exact layer.  Rows come from the forward three-term
    recurrence in the degree,

        (j + 1) / c * E_(j+1) = (j + t - x) E_j - r E_(j-1),

    vectorised over x: the result has shape (m + 1,) + x.shape, or is a
    list of m + 1 plain floats for a Python or numpy scalar x.  Its
    round-off is relative to the largest entry of the run, that is
    norm-wise, where the direct sums lose the size of their largest term.
    It is not relative entrywise: right of the Poisson bulk the run picks
    up the recurrence's slowly decaying second solution at round-off level,
    so _poisson_charlier(60, 3, 0.5) gives 1.2e-22 at j = 40, where the
    value is -3.1e-55.  So the row functions and F_(n <= 0), used entry by
    entry, come from _charlier_term, which steps the shorter index; exact's
    transfer matrices keep the run, accurate per run, because their kernel
    sums need no more and their fixed index, the particle label, is long.
    At t = 0 the recurrence gives the limit (-c)^j C(x, j).  e^(s - r) is carried as a log offset and the
    running pair is renormalised by powers of 2, so the recurrence neither
    overflows nor underflows at any r; only values outside the double range
    come out as 0 (or +-inf, for a scalar x).  It is private so that a
    traced benchmark run charges its time to the kernel that called it.
    """
    scalar = isinstance(x, (int, float, np.number))
    x = float(x) if scalar else np.asarray(x, dtype=float)
    ldexp = math.ldexp if scalar else np.ldexp
    r = c * t
    prev, cur, shift = 0.0 * x, 1.0 + 0.0 * x, log_scale - r
    rows, shifts = [cur], [shift]
    for j in range(m):
        prev, cur = cur, ((j + t - x) * cur - r * prev) * (c / (j + 1))
        big = max(abs(prev), abs(cur)) if scalar else max(abs(prev).max(), abs(cur).max())
        if big > _RESCALE or 0.0 < big < 1.0 / _RESCALE:
            e = math.frexp(big)[1]
            prev, cur = ldexp(prev, -e), ldexp(cur, -e)
            shift += e * _LN2
        rows.append(cur)
        shifts.append(shift)
    if scalar:
        return [_times_exp(v, s) for v, s in zip(rows, shifts)]
    return np.array(rows) * np.exp(shifts).reshape((-1,) + (1,) * x.ndim)


def _times_exp(v: float, s: float) -> float:
    """v e^s in plain floats, out of range only where the product is."""
    if abs(s) < 700.0:  # e^s is a normal float
        return v * math.exp(s)
    a = math.log(abs(v)) + s if v else -math.inf
    return math.copysign(math.exp(a) if a < _LOG_MAX else math.inf, v)


def _charlier_term(p, k: int, t: float):
    """E_p(k) at r = t, the residue sum e^(-t) sum_j C(k, j) (-1)^j
    t^(p-j) / (p-j)!, for an integer p or an integer array p; zero where
    p < 0.

    The one evaluator of the row functions and of F_(n <= 0).  It steps the
    shorter index, so every entry is accurate to itself: for 0 <= k < p and
    t > 0 the degree k at x = p, moving the Poisson weight from k to p;
    otherwise p at x = k.  A scalar p stays in plain floats; an array p
    takes k numpy steps for its entries past k and one scalar run for the
    rest.
    """
    if not isinstance(p, np.ndarray):
        if p < 0:
            return 0.0
        if 0 <= k < p and t > 0.0:
            move = (p - k) * math.log(t) + math.lgamma(k + 1) - math.lgamma(p + 1)
            return _poisson_charlier(k, p, t, log_scale=move)[-1]
        return _poisson_charlier(p, k, t)[-1]
    top = k if k >= 0 and t > 0.0 else int(p.max(initial=0))
    run = np.array(_poisson_charlier(max(top, 0), k, t))
    out = np.where(p >= 0, run.take(p, mode="clip"), 0.0)
    if p.max(initial=top) > top:
        q = np.maximum(p, top + 1)
        # log_scale = t cancels e^(-r): the run leaves t^k / k! C_k(q; t)
        poly = _poisson_charlier(k, q, t, log_scale=t)[-1]
        move = (q - k) * math.log(t) + math.lgamma(k + 1) - gammaln(q + 1) - t
        e = np.floor(move / _LN2)
        out = np.where(p > top, np.ldexp(poly * np.exp(move - e * _LN2), e.astype(int)), out)
    return out


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")


def schuetz_F(n: int, x: int, t: float) -> float:
    """One-parameter family F_n(x,t) of signed transition weights.

    F_n(x,t) = ((-1)^n / 2pi i) * integral over a contour enclosing 0 and 1
    of (1-w)^(-n) w^(-(x-n+1)) e^(t(w-1)) dw.  For n <= 0 only the pole at
    w = 0 counts, and the value is (-1)^n E_(x-n)(-n) at r = t.  For n >= 1
    the contour encloses every singularity but infinity, and the Laurent
    series there gives a positive sum with no cancellation,

        F_n(x,t) = e^(-t) sum_(j >= max(x,0)) C(n-1+j-x, j-x) t^j / j!.

    It is summed outwards from j0, the larger of its first index and the
    Poisson mode, whose weight past j0 = 15 is taken in Loader's
    saddle-point form: e^(-t) never underflows alone, and at large t the
    weight keeps its relative accuracy.
    """
    n = int(n)
    x = int(x)
    _check_time(t)
    if n <= 0:
        return (-1) ** n * _charlier_term(x - n, -n, t)
    if t == 0.0:
        return float(math.comb(n - 1 - x, n - 1)) if x <= 0 else 0.0
    first = max(x, 0)
    j0 = max(first, int(t))
    if j0 < 16:  # then t < 16 too, and the weight is plain arithmetic
        term = math.exp(-t) * t**j0 / math.factorial(j0)
    else:  # e^(-t) t^j / j! = e^(-stirlerr(j) - bd0(j, t)) / sqrt(2 pi j)
        jj = j0 * j0
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * jj)) / jj) / jj) / jj)
        stirlerr /= j0
        bd0 = j0 * math.log1p((j0 - t) / t) - (j0 - t)
        term = math.exp(-stirlerr - bd0) / math.sqrt(2.0 * math.pi * j0)
    term *= math.comb(n - 1 + j0 - x, n - 1)
    total = term
    # upwards: the ratio t/(j+1) * (n+j-x)/(j+1-x) falls with j, so once it
    # is below 1 the rest is at most term * ratio / (1 - ratio)
    j, up = j0, term
    while up:
        ratio = t / (j + 1) * (n + j - x) / (j + 1 - x)
        up *= ratio
        total += up
        j += 1
        if ratio < 1.0 and up * ratio <= _SERIES_EPS * (1.0 - ratio) * total:
            break
    # downwards: below the mode the ratio j/t * (j-x)/(n-1+j-x) is at most 1
    # and falls as j does
    j, down = j0, term
    while j > first and down:
        ratio = j / t * (j - x) / (n - 1 + j - x)
        down *= ratio
        total += down
        j -= 1
        if down * ratio <= _SERIES_EPS * (1.0 - ratio) * total:
            break
    return total


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
    out = np.zeros(arr.shape)
    inside = arr <= AIRY_RANGE
    out[inside] = airy(arr[inside])[0]
    return out if arr.shape else float(out)
