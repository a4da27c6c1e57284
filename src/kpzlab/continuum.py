"""The KPZ fixed point's kernels and its Airy-process marginals.

`s_kernel` is the paper's S_{t,x}, the kernel of e^(x D^2 + t D^3 / 3) with
D the derivative; the fixed-point kernels of the notes are products of such
kernels.  For the narrow-wedge and flat initial data those products are
closed forms, and the fixed point at any time t > 0 is an Airy process after
the 1:2:3 rescaling, as processes in x:

    narrow wedge at 0:  h(t, x) = t^(1/3) A_2(t^(-2/3) x) - x^2 / t,
    flat, h_0 = 0:      h(t, x) = (2t)^(1/3) A_1((2t)^(-2/3) x).

`airy2_probability` and `airy1_probability` evaluate the finite-dimensional
distributions of A_2 and A_1 as Fredholm determinants of the closed-form
extended kernels (Bornemann, arXiv:0804.2543), on fredholm's quadrature
determinant and order ladder, as `Certified` floats.  F_GUE(s) and
F_GOE(2s) are their one-point cases.  Ai and Ai' come from special's one
Airy evaluator: scipy's airy up to 2 and one Chebyshev series in 1/zeta
each for Ai and Ai' above, so that no argument past 2 pays for Bi.
`s_kernel` takes Ai scaled by e^((2/3) a^(3/2)) and folds that factor into
its own exponent, so that no overflowing exponential ever meets an
underflowing Ai.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from .fredholm import ORDER_LADDER, Certified, HalfLineUp, _gauss01, _quadrature_det, _settle
from .special import _airy

# The ladder stops once two successive orders agree to this.  The orders
# double and converge geometrically, so the returned value is far closer.
_TOL = 1e-12

# Gauss-Legendre nodes on [0, 16] for the lambda integral of the extended
# Airy_2 kernel, stretched to [0, 16 + d^2] at spacing d: e^(lam d) Ai(u +
# lam) Ai(v + lam) peaks near lam = d^2 / 4, and by 16 + d^2 the decay of
# Ai^2 has long beaten e^(lam d).  Left at [0, 16], the dropped tail costs
# 3e-11 at d = 4 and 0.27 at d = 6.
_LAMBDA, _LAMBDA_WEIGHTS = (16.0 * a for a in _gauss01(96))

# Both terms of the Airy_2 kernel from (x, u) to (x + d, v), d > 0, are of
# size e^(d^3/12 - d(u+v)/2 - (u-v)^2/(4d)) while their
# difference is of order one, so the kernel keeps about that many ulps of
# error, the same at every order of the ladder.  The budget is this
# exponent at levels 0 and d = 6, where lambda rules differ by 4e-10; at 24
# (levels -1) they differ by 6e-7.  Past d = 8, e^(lam d) overflows at the
# top of the lambda rule.
_MAX_EXPONENT = 18.0
_MAX_SPACING = 8.0


def s_kernel(t: float, x, z) -> np.ndarray:
    """S_{t,x}(z) = t^(-1/3) e^(2x^3/(3t^2) - zx/t) Ai(-t^(-1/3) z + t^(-4/3) x^2)
    for t > 0, elementwise over broadcast x and z."""
    if not t > 0:
        raise ValueError(f"s_kernel needs t > 0, got {t}")
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    c = t ** (-1.0 / 3.0)
    a = -c * z + (c * c * x) ** 2
    exponent = 2.0 * x**3 / (3.0 * t * t) - z * x / t
    ai = _airy(a, scaled=True)
    return c * ai * np.exp(exponent - 2.0 / 3.0 * np.maximum(a, 0.0) ** 1.5)


def airy_kernel(u, v) -> np.ndarray:
    """(Ai(u)Ai'(v) - Ai'(u)Ai(v))/(u - v) over broadcast u and v, with the
    diagonal Ai'(u)^2 - u Ai(u)^2."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    ai_u, aip_u = _airy(u, derivative=True)
    ai_v, aip_v = _airy(v, derivative=True)
    diff = u - v
    same = diff == 0.0
    off = (ai_u * aip_v - aip_u * ai_v) / np.where(same, 1.0, diff)
    return np.where(same, aip_u**2 - u * ai_u**2, off)


def _heat(gap: float, u, v):
    """The kernel of e^(gap D^2), gap > 0."""
    return np.exp(-((u - v) ** 2) / (4.0 * gap)) / math.sqrt(4.0 * math.pi * gap)


def _probability(points, block) -> Certified:
    """det(I - K) on the direct sum of L^2(b_k, inf) for 1 to 4 points
    (x_k, b_k), with block (k, l) of K given by block(x_l - x_k, u, v).  A
    level b_k = +inf drops its point."""
    if not 1 <= len(points) <= 4:
        raise ValueError(f"need between 1 and 4 points, got {len(points)}")
    xs = [float(x) for x, _ in points]
    levels = [float(b) for _, b in points]
    for x, b in zip(xs, levels):
        if not math.isfinite(x):
            raise ValueError(f"point ({x}, {b}) needs a finite x")
    if len(set(xs)) != len(xs):
        raise ValueError(f"points need distinct x, got {xs}")
    if any(math.isnan(b) or b == -math.inf for b in levels):
        raise ValueError(f"levels must be real or +inf, got {levels}")
    kept = [x for x, b in zip(xs, levels) if b != math.inf]
    domains = [HalfLineUp(b) for b in levels if b != math.inf]

    def kernel(i, j, u, v):
        return block(kept[j] - kept[i], u, v)

    return _settle(lambda order: _quadrature_det(kernel, domains, order), ORDER_LADDER, _TOL)


def _cancelling_exponent(d: float, b_i: float, b_j: float) -> float:
    """The largest d^3/12 - d(u+v)/2 - (u-v)^2/(4d) over u >= b_i, v >= b_j,
    d > 0; it sits at u = max(b_i, b_j - d^2), v = max(b_j, b_i - d^2)."""
    u, v = max(b_i, b_j - d * d), max(b_j, b_i - d * d)
    return d**3 / 12.0 - d * (u + v) / 2.0 - (u - v) ** 2 / (4.0 * d)


def _airy2_block(gap: float, u, v):
    if gap == 0.0:
        return airy_kernel(u, v)
    stretch = 1.0 + gap * gap / 16.0
    lam = stretch * _LAMBDA
    ai_u = _airy(u + lam)
    ai_v = _airy(v.T + lam)
    out = (ai_u * (stretch * _LAMBDA_WEIGHTS * np.exp(lam * gap))) @ ai_v.T
    if gap > 0.0:
        # int_0^inf - int_R: the full line is a heat kernel in closed form
        out = out - _heat(gap, u, v) * np.exp(gap**3 / 12.0 - gap * (u + v) / 2.0)
    return out


def airy2_probability(points) -> Certified:
    """P(A_2(x_k) <= b_k for every k) for up to 4 points (x_k, b_k) with
    distinct x_k.

    The extended Airy kernel from x to y = x + d is the Airy kernel at
    d = 0 and int_0^inf e^(lam d) Ai(u + lam) Ai(v + lam) dlam otherwise,
    minus its integral over the whole line when d > 0.  That subtraction
    cancels (see _MAX_EXPONENT), so a ValueError refuses two finite-level
    points whose kernel would lose more than about 1e-9, or that lie more
    than 8 apart.
    """
    finite = [(float(x), float(b)) for x, b in points if math.isfinite(float(b))]
    for (xi, bi), (xj, bj) in itertools.combinations(finite, 2):
        d = abs(xj - xi)
        if d > _MAX_SPACING or (d > 0.0 and _cancelling_exponent(d, bi, bj) > _MAX_EXPONENT):
            raise ValueError(
                f"Airy_2 points ({xi}, {bi}) and ({xj}, {bj}) are too far apart "
                "for their levels: the kernel's heat-term subtraction would lose "
                "more than 1e-9 (or, past spacing 8, overflow); such points need "
                "the -int_(-inf)^0 form of the kernel, which is not built here"
            )
    return _probability(points, _airy2_block)


def _airy1_block(gap: float, u, v):
    out = s_kernel(1.0, gap, -(u + v))
    return out - _heat(gap, u, v) if gap > 0.0 else out


def airy1_probability(points) -> Certified:
    """P(A_1(x_k) <= b_k for every k) for up to 4 points (x_k, b_k) with
    distinct x_k.

    The extended Airy_1 kernel from x to x + d is
    Ai(u + v + d^2) e^(d(u + v) + 2d^3/3) = S_{1,d}(-(u + v)), minus the
    heat kernel of e^(d D^2) when d > 0.
    """
    return _probability(points, _airy1_block)
