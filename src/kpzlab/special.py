"""Scalar special functions: the Poisson-Charlier recurrence, the F family,
binomials and Airy.

Everything here is elementary but tolerance-critical: the Poisson-Charlier
recurrence evaluates every alternating residue sum of the exact layer, the
F family's n >= 1 members are positive Laurent series, and `_airy` is the
one Airy evaluator: `airy_ai_kernel` and every kernel of `continuum` take Ai
and Ai' from it, and no other module imports an Airy or Bessel function.
No library path integrates on a contour: the circle quadrature that checks
those residue sums lives in the tests.  All routines are deterministic and
raise instead of returning silent best-effort values.

schuetz_F checks its arguments and then reads a private memo,
functools.lru_cache(maxsize=_SCHUETZ_MEMO = 128), of its last entries.  A
Schuetz determinant summed over configurations asks for each entry
F_(i-j)(x_i - y_j, t) once per configuration that shares it: the brute
sums of the benchmark's small exact problems (N <= 3, t <= 2) make 22 090
calls a round for at most 79 distinct entries per sum.  The bound is well
below the ~2 090 distinct entries of a whole round, so the hits come from
reuse inside one sum, never from replaying earlier work.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
from scipy.special import airy, gammaln, kve

AIRY_RANGE = 30.0
# Past this scipy's airy leaves cephes for the complex AMOS routine, which
# also computes Bi and costs 1 us a point; K_nu through kve costs 0.1 us
_AIRY_CUT = 10.0

# ln 2 = _LN2_HI + _LN2_LO, with k * _LN2_HI exact for |k| < 2^20
_LN2_HI, _LN2_LO = 0.693147180369123816490, 1.90821492927058770002e-10
_RESCALE = 2.0**500  # _poisson_charlier renormalises its rows outside [1/this, this]
_SPLIT = 300.0  # below this |s|, e^s times such a row stays normal and needs no split
_SERIES_EPS = 2.0**-56  # schuetz_F stops a positive series once its tail is below this
_SCHUETZ_MEMO = 128  # entries schuetz_F's memo keeps; see the module docstring


class QuadratureError(RuntimeError):
    """A contour quadrature did not converge, or met an integrand that is
    not finite.  No library path integrates on a contour; this is the error
    of the tests' circle quadrature, and it stays among the library's error
    types for callers that catch them all."""


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
    m: int, x, t: float, c: float = 1.0, log_scale=0.0, exp2=0
) -> np.ndarray | list[float]:
    """Poisson-weighted Charlier polynomials E_j(x) for j = 0..m, times 2^exp2.

    E_j(x) = e^(s - r) r^j / j! * C_j(x; t), with r = c t, s = log_scale and
    C_j(x; t) = 2F0(-j, -x;; -1/t), symmetric at nonnegative integers:
    C_j(x) = C_x(j).  Written out, E_j(x) = e^(s - r) sum_i C(x, i) (-c)^i
    r^(j-i) / (j-i)!, the alternating Poisson sum behind every residue
    formula of the exact layer.  Rows come from the forward three-term
    recurrence in the degree,

        (j + 1) / c * E_(j+1) = (j + t - x) E_j - r E_(j-1),

    vectorised over x.  For an array x the run keeps only its running pair
    and returns the top row E_m(x), of shape x.shape; for a Python or numpy
    scalar x it returns the degree table, a list of m + 1 plain floats.  Its
    round-off is relative to the largest entry of the run, that is
    norm-wise, where the direct sums lose the size of their largest term.
    It is not relative entrywise: right of the Poisson bulk the run picks
    up the recurrence's slowly decaying second solution at round-off level,
    so _poisson_charlier(60, 3, 0.5) gives 1.2e-22 at j = 40, where the
    value is -3.1e-55.  So the row functions and F_(n <= 0), used entry by
    entry, come from _charlier_term, which steps the shorter index; exact's
    transfer matrices keep the run, accurate per run, because their kernel
    sums need no more and their fixed index, the particle label, is long.
    At t = 0 the recurrence gives the limit (-c)^j C(x, j).  The scale
    rides beside the values: e^(s - r) = 2^k e^f, with k = 0 while
    |s - r| < _SPLIT and 0 <= f < ln 2 past it, and each entry carries an
    exact power of 2, the sum of exp2 (an integer, or one per entry of x,
    as log_scale may be), k and the renormalisations of its running pair
    into [2^-500, 2^500].  Both exits multiply by e^f and apply the power
    with ldexp (the array exit is _exit), so a row is 0 or +-inf only where
    its value is outside the double range.  It is private so that a traced
    benchmark run charges its time to the kernel that called it.
    """
    s = log_scale - c * t
    if isinstance(x, (int, float, np.number)):
        k = 0 if -_SPLIT < s < _SPLIT else math.floor(s / _LN2_HI)
        x, r, prev, cur, e = float(x), c * t, 0.0, 1.0, exp2 + k
        rows, exps = [cur], [e]
        for j in range(m):
            prev, cur = cur, ((j + t - x) * cur - r * prev) * (c / (j + 1))
            big = max(abs(prev), abs(cur))
            if big > _RESCALE or 0.0 < big < 1.0 / _RESCALE:
                f = math.frexp(big)[1]
                prev, cur, e = math.ldexp(prev, -f), math.ldexp(cur, -f), e + f
            rows.append(cur)
            exps.append(e)
        g = math.exp(s - k * _LN2_HI - k * _LN2_LO) if k else math.exp(s)
        try:
            return [math.ldexp(v * g, e) if e else v * g for v, e in zip(rows, exps)]
        except OverflowError:  # a row past the double range: numpy's ldexp gives it as inf
            return _exit(np.array(rows), np.array(exps), g).tolist()
    x, r, k = np.asarray(x, dtype=float), c * t, s / _LN2_HI // 1 * (abs(s) >= _SPLIT)
    prev, cur, e = np.zeros(x.shape), np.ones(x.shape), np.full(x.shape, exp2 + k, dtype=int)
    for j in range(m):
        prev, cur = cur, ((j + t - x) * cur - r * prev) * (c / (j + 1))
        size = abs(cur)  # prev was checked on the step before
        if size.max() > _RESCALE or size.min() < 1.0 / _RESCALE:
            f = np.frexp(np.maximum(abs(prev), size))[1]
            prev, cur, e = np.ldexp(prev, -f), np.ldexp(cur, -f), e + f
    return _exit(cur, e, np.exp(s - k * _LN2_HI - k * _LN2_LO))


def _exit(v, e, g=1.0):
    """v g 2^e for integer exponents e, the one exit of every Charlier run:
    0 or +-inf only where the product is outside the double range.  A
    scalar run takes math.ldexp's fast path to the same product."""
    with np.errstate(over="ignore"):
        return np.ldexp(v * g, e)


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
        move = (q - k) * math.log(t) + math.lgamma(k + 1) - gammaln(q + 1)
        out = np.where(p > top, _poisson_charlier(k, q, t, log_scale=move), out)
    return out


def _check_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")


def _integer(v, name: str) -> int:
    """v as a Python int: a lattice site or an index.  Raises ValueError
    for a value that is not integral, which int() would truncate."""
    if type(v) is int:
        return v
    if isinstance(v, np.integer):
        return int(v)
    if not float(v).is_integer():
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


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
    weight keeps its relative accuracy.  n and x must be integral and t
    finite and nonnegative; the checked arguments, as Python ints and a
    float, key the memo of the last _SCHUETZ_MEMO entries.
    """
    _check_time(t)
    return _schuetz_F(_integer(n, "n"), _integer(x, "x"), float(t))


@functools.lru_cache(maxsize=_SCHUETZ_MEMO)
def _schuetz_F(n: int, x: int, t: float) -> float:
    """schuetz_F's value for checked arguments, memoised."""
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


def _airy(x, scaled: bool = False, derivative: bool = False):
    """Ai(x), and Ai'(x) with derivative=True, elementwise, times
    e^zeta with zeta = (2/3) max(x, 0)^(3/2) when scaled, as airye does.

    Up to _AIRY_CUT the values are cephes' (scipy's airy); above it

        Ai(x) = sqrt(x/3) / pi K_(1/3)(zeta),  Ai'(x) = -x / (pi sqrt 3) K_(2/3)(zeta),

    from kve, which carries the same factor e^zeta.  The scaled values are
    within 5e-14 relative of mpmath on (0, 400] and the unscaled ones within
    1e-13 on (10, 30], where Ai itself is below 1.2e-10; below -10 scipy's
    airy is unchanged.  Private, so that a traced benchmark run counts each
    Ai once, in the public function that asked for it.
    """
    x = np.asarray(x, dtype=float)
    far = x > _AIRY_CUT
    ai, aip = np.empty(x.shape), np.empty(x.shape)
    xn = x[~far]
    a, ap, _, _ = airy(xn)
    e = np.exp(2.0 / 3.0 * np.maximum(xn, 0.0) ** 1.5) if scaled else 1.0
    ai[~far], aip[~far] = a * e, ap * e
    xf = x[far]
    zeta = 2.0 / 3.0 * xf**1.5
    e = 1.0 if scaled else np.exp(-zeta)
    ai[far] = np.sqrt(xf / 3.0) / math.pi * kve(1.0 / 3.0, zeta) * e
    if derivative:
        aip[far] = -xf / (math.pi * math.sqrt(3.0)) * kve(2.0 / 3.0, zeta) * e
    return (ai, aip) if derivative else ai


def airy_ai_kernel(z) -> np.ndarray:
    """Vectorized Ai for lambda-quadrature kernels, from _airy: cephes'
    values up to 10, within 1e-13 relative of mpmath on (10, 30], and 0.0
    beyond +30 (|Ai| < 3e-48 there); arguments below -30 or NaN raise."""
    arr = np.asarray(z, dtype=float)
    if arr.size and not float(arr.min()) >= -AIRY_RANGE:
        raise ValueError(f"airy_ai_kernel supports arguments >= {-AIRY_RANGE}, got {arr.min()}")
    out = np.zeros(arr.shape)
    inside = arr <= AIRY_RANGE
    out[inside] = _airy(arr[inside])
    return out if arr.shape else float(out)
