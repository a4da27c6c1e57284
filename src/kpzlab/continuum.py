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
Airy evaluator: scipy's airy left of -4 (within 3e-14 of mpmath), one
Chebyshev series in x each for Ai and Ai' on [-4, 2] (within 4.4e-16) and
one in 1/zeta each past 2 (within 2e-15 relative, scaled), so that no
argument from -4 up pays for Bi.
`s_kernel` takes Ai scaled by e^((2/3) a^(3/2)) and folds that factor into
its own exponent, so that no overflowing exponential ever meets an
underflowing Ai; it evaluates at the scale-free arguments of the 1:2:3
invariance, refuses those where its exponent's terms cancel past about
1e-9, and applies the net exponent as a power of 2 and a remainder, so a
value is 0 or +-inf only outside the double range.  Airy_1's blocks take
the same parts, `_s_terms`, at t = 1.

The blocks of one ladder order share their Airy factors, and no argument
array is evaluated twice.  Airy_2's Ai(u + lam), on the lambda rule
stretched for |d|, depends only on a point's grid, fixed by its level, and
on |d|, so the blocks (i, j) and (j, i) read one array each; a diagonal
block's Ai and Ai' on its grid are one call.  Airy_1's scaled Ai at
(u + v) + d^2 is one array for (i, j) and, transposed, for (j, i), and each
block forms only its own exponent.  Points at one level share all of these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from .fredholm import ORDER_LADDER, Certified, ConvergenceError, HalfLineUp
from .fredholm import _gauss01, _quadrature_det, _settle
from .special import _airy, _exit, _exp_split

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
# error at every order of the ladder, unseen by its certificate.  The budget
# is this exponent at levels 0 and d = 6, where lambda rules differ by
# 4e-10; at 24 (levels -1) they differ by 6e-7.  Under it the loss can pass
# 1e-9: at levels -3 and d = 4 (17.33) the block is 3.2e-8 off a 400-node
# rule of the -int_(-inf)^0 form, and the two-point 7.7e-11 off with
# certificate error 7.3e-13.  Past d = 8, e^(lam d) overflows at the top of
# the lambda rule.
_MAX_EXPONENT = 18.0
_MAX_SPACING = 8.0

# A level past this drops its point: P(A_2(x) > b) ~ e^(-(4/3) b^(3/2)) and
# P(A_1(x) > b) ~ e^(-(2/3) (2b)^(3/2)) are below 2^-1074 ~ e^(-744) there
_LEVEL_CUT = 128.0
# s_kernel's bound on the terms that cancel in its exponent; see there
_S_TERMS = 2.0**23
# At levels -1 both processes settle at spacing 0.2 and not at 0.1: closer
# points have a heat kernel narrower than the ladder resolves
_NARROW_GAP = 0.15


def s_kernel(t: float, x, z) -> np.ndarray:
    """S_{t,x}(z) = t^(-1/3) e^(2x^3/(3t^2) - zx/t) Ai(-t^(-1/3) z + t^(-4/3) x^2)
    for finite t > 0, elementwise over broadcast x and z, whose entries must
    be finite.

    By the 1:2:3 invariance S_{t,x}(z) = t^(-1/3) S_{1,X}(Z) at
    X = x t^(-2/3) and Z = z t^(-1/3).  The exponent's terms 2X^3/3 and ZX
    and the scaled Airy factor's zeta cancel down to the net exponent, and
    at a = X^2 - Z the Airy phase is of size |a|^(3/2), so a ValueError
    refuses |X|^3 + |ZX| + |a|^(3/2) past _S_TERMS = 2^23, where the
    rounding of those terms moves the value by more than about 1e-9.  That
    includes every t small enough that X or Z leaves the double range.
    Within it a net exponent past special._SPLIT is split as k ln 2 + f by
    special._exp_split, with f about in [0, ln 2), and 2^k applied last, so
    the value is 0 or +-inf only where it lies outside the double range."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"s_kernel needs a finite t > 0, got {t}")
    t = float(t)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    for name, v in (("x", x), ("z", z)):
        if not np.isfinite(v).all():
            raise ValueError(f"s_kernel needs finite {name}, got {v[~np.isfinite(v)][0]}")
    c = t ** (-1.0 / 3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        X, Z = (c * c) * x, c * z
        size = np.abs(X) ** 3 + np.abs(Z * X) + np.abs(X * X - Z) ** 1.5
    if not (size <= _S_TERMS).all():
        i = tuple(np.argwhere(~(size <= _S_TERMS))[0])
        raise ValueError(
            f"s_kernel supports |X|^3 + |ZX| + |X^2 - Z|^(3/2) <= 2^23 at X = x t^(-2/3) and"
            f" Z = z t^(-1/3), where its exponents cancel to within about 1e-9; got t = {t!r},"
            f" x = {np.broadcast_to(x, size.shape)[i]}, z = {np.broadcast_to(z, size.shape)[i]}"
        )
    ai, net, _ = _s_terms(X, Z)
    k, g = _exp_split(net)
    return _exit(c * ai * g, k)


def _s_terms(x, z, factor=None):
    """S_{1,x}(z) = Ai(a) e^zeta e^net, in parts: its Airy factor at
    a = x^2 - z, Ai(a) e^zeta with zeta = (2/3) max(a, 0)^(3/2), the net
    exponent 2x^3/3 - zx - zeta that takes the e^zeta back, and the factor
    (Ai(a) e^zeta, zeta).  A caller that knows the factor passes it, and no
    Ai is evaluated."""
    if factor is None:
        a = -z + x**2
        factor = _airy(a, scaled=True), 2.0 / 3.0 * np.maximum(a, 0.0) ** 1.5
    ai, zeta = factor
    return ai, 2.0 * x**3 / 3.0 - z * x - zeta, factor


def airy_kernel(u, v) -> np.ndarray:
    """(Ai(u)Ai'(v) - Ai'(u)Ai(v))/(u - v) over broadcast u and v, with the
    diagonal Ai'(u)^2 - u Ai(u)^2."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return _airy_kernel(u, v, _airy(u, derivative=True), _airy(v, derivative=True))


def _airy_kernel(u, v, at_u, at_v):
    """airy_kernel from (Ai, Ai') at u and at v."""
    (ai_u, aip_u), (ai_v, aip_v) = at_u, at_v
    diff = u - v
    same = diff == 0.0
    off = (ai_u * aip_v - aip_u * ai_v) / np.where(same, 1.0, diff)
    return np.where(same, aip_u**2 - u * ai_u**2, off)


def _heat(gap: float, u, v):
    """The kernel of e^(gap D^2), gap > 0."""
    return np.exp(-((u - v) ** 2) / (4.0 * gap)) / math.sqrt(4.0 * math.pi * gap)


def _kept_points(points) -> list[tuple[float, float]]:
    """At least one point (x_k, b_k), read once from any iterable, as
    checked floats, less those with a level past _LEVEL_CUT, +inf included,
    whose dropping moves no value."""
    points = [(float(x), float(b)) for x, b in points]
    if not points:
        raise ValueError("need at least one point")
    for x, b in points:
        if not math.isfinite(x):
            raise ValueError(f"point ({x}, {b}) needs a finite x")
    if len({x for x, _ in points}) != len(points):
        raise ValueError(f"points need distinct x, got {[x for x, _ in points]}")
    if any(math.isnan(b) or b == -math.inf for _, b in points):
        raise ValueError(f"levels must be real or +inf, got {[b for _, b in points]}")
    return [(x, b) for x, b in points if b <= _LEVEL_CUT]


def _probability(name: str, kept, block) -> Certified:
    """det(I - K) on the direct sum of L^2(b_k, inf) for the kept points
    (x_k, b_k), with block (k, l) of K given by
    block(x_l - x_k, u, v, b_k, b_l, shared): u and v are the grids of the
    levels b_k and b_l, and shared is one ladder order's dict of the Airy
    factors its blocks share, keyed by the levels and |x_l - x_k| that fix
    them.  The caller sets no tol or order, so a ladder that does not
    settle names the points and the cause."""
    domains = [HalfLineUp(b) for _, b in kept]
    values = []

    def value_at(order):
        shared = {}

        def kernel(i, j, u, v):
            (xi, bi), (xj, bj) = kept[i], kept[j]
            return block(xj - xi, u, v, bi, bj, shared)

        values.append(_quadrature_det(kernel, domains, order))
        return values[-1]

    try:
        return _settle(value_at, ORDER_LADDER, _TOL)
    except ConvergenceError:
        gap, p, q = min(((abs(q[0] - p[0]), p, q) for p, q in itertools.combinations(kept, 2)),
                        default=(math.inf, None, None))
        cause = (f"the points {p} and {q} lie {gap:.3g} apart, where the heat kernel of e^(d D^2)"
                 f" is a Gaussian of width sqrt(2d) = {math.sqrt(2.0 * gap):.3g}" if gap < _NARROW_GAP
                 else f"the level {min(b for _, b in kept)} takes the Airy factors to negative"
                 " arguments, where they oscillate")
        raise ConvergenceError(
            f"{name} at the points {kept} did not settle to {_TOL} over the orders {ORDER_LADDER}"
            f" (last two values {values[-2:]}): {cause}, finer than {ORDER_LADDER[-1]} nodes resolve"
        ) from None


def _cancelling_exponent(d: float, b_i: float, b_j: float) -> float:
    """The largest d^3/12 - d(u+v)/2 - (u-v)^2/(4d) over u >= b_i, v >= b_j,
    d > 0; it sits at u = max(b_i, b_j - d^2), v = max(b_j, b_i - d^2)."""
    u, v = max(b_i, b_j - d * d), max(b_j, b_i - d * d)
    return d**3 / 12.0 - d * (u + v) / 2.0 - (u - v) ** 2 / (4.0 * d)


def _airy2_block(gap: float, u, v, bu: float, bv: float, shared: dict):
    if gap == 0.0:  # u and v are one grid, and its (Ai, Ai') serve both
        if bu not in shared:
            shared[bu] = _airy(u, derivative=True)
        ai, aip = shared[bu]
        return _airy_kernel(u, v, (ai, aip), (ai.T, aip.T))
    # Ai(u + lam) on the lambda rule of |gap| serves both blocks of a pair
    stretch = 1.0 + gap * gap / 16.0
    lam = stretch * _LAMBDA
    for b, w in ((bu, u), (bv, v.T)):
        if (b, abs(gap)) not in shared:
            shared[b, abs(gap)] = _airy(w + lam)
    ai_u, ai_v = shared[bu, abs(gap)], shared[bv, abs(gap)]
    out = (ai_u * (stretch * _LAMBDA_WEIGHTS * np.exp(lam * gap))) @ ai_v.T
    if gap > 0.0:
        # int_0^inf - int_R: the full line is a heat kernel in closed form
        out = out - _heat(gap, u, v) * np.exp(gap**3 / 12.0 - gap * (u + v) / 2.0)
    return out


def airy2_probability(points) -> Certified:
    """P(A_2(x_k) <= b_k for every k) for any number of points (x_k, b_k),
    from any iterable, with distinct x_k; one block per kept point, so a
    walk whose stack of blocks passes fredholm.MAX_STACKED_ROWS rows raises
    fredholm's ValueError on its size.

    The extended Airy kernel from x to y = x + d is the Airy kernel at
    d = 0 and int_0^inf e^(lam d) Ai(u + lam) Ai(v + lam) dlam otherwise,
    minus its integral over the whole line when d > 0.  That subtraction
    cancels (see _MAX_EXPONENT), so a ValueError refuses two kept points
    whose kernel would lose far more than 1e-9, or that lie more than 8
    apart.  Under that bound the loss can still pass 1e-9, unseen by the
    certificate: at levels -3 and spacing 4 the value is 7.7e-11 off, with
    certificate error 7.3e-13.  A level past 128, +inf included, drops its
    point; points closer than about 0.1 raise ConvergenceError (_NARROW_GAP).
    """
    kept = _kept_points(points)
    for (xi, bi), (xj, bj) in itertools.combinations(kept, 2):
        d = abs(xj - xi)
        if d > _MAX_SPACING or (d > 0.0 and _cancelling_exponent(d, bi, bj) > _MAX_EXPONENT):
            raise ValueError(
                f"Airy_2 points ({xi}, {bi}) and ({xj}, {bj}) are too far apart "
                "for their levels: the kernel's heat-term subtraction would lose "
                "more than 1e-9 (or, past spacing 8, overflow); such points need "
                "the -int_(-inf)^0 form of the kernel, which is not built here"
            )
    return _probability("P(A_2(x_k) <= b_k)", kept, _airy2_block)


def _airy1_block(gap: float, u, v, bu: float, bv: float, shared: dict):
    # S_{1,gap}(-(u + v)): its Airy factor at (u + v) + gap^2 is the block
    # (v, u)'s at -gap, transposed
    flip = shared.get((bv, bu, abs(gap)))
    ai, net, shared[bu, bv, abs(gap)] = _s_terms(
        np.asarray(gap), -(u + v), None if flip is None else [f.T for f in flip]
    )
    out = ai * np.exp(net)
    return out - _heat(gap, u, v) if gap > 0.0 else out


def airy1_probability(points) -> Certified:
    """P(A_1(x_k) <= b_k for every k) for any number of points (x_k, b_k),
    from any iterable, with distinct x_k, as for Airy_2.

    The extended Airy_1 kernel from x to x + d is
    Ai(u + v + d^2) e^(d(u + v) + 2d^3/3) = S_{1,d}(-(u + v)), minus the
    heat kernel of e^(d D^2) when d > 0.  Levels are as for Airy_2, and
    levels at or below about -10 also raise ConvergenceError.
    """
    return _probability("P(A_1(x_k) <= b_k)", _kept_points(points), _airy1_block)
