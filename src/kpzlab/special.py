"""Scalar special functions: the Poisson-Charlier recurrence, the F family
and Airy.

Everything here is elementary but tolerance-critical: the Poisson-Charlier
recurrence evaluates every alternating residue sum of the exact layer, the
F family's n >= 1 members are positive Laurent series, and `_airy` is the
one Airy evaluator: `airy_ai_kernel` and every kernel of `continuum` take Ai
and Ai' from it, and no other module imports an Airy or Bessel function.
Up to 2 its values are scipy's airy; past 2, where cephes would also sum
Bi's series, they come from one Chebyshev series in 1/zeta each for Ai and
Ai', whose coefficients are literals here (_AIRY_SERIES).
No library path integrates on a contour: the circle quadrature that checks
those residue sums lives in the tests.  All routines are deterministic and
raise instead of returning silent best-effort values.

schuetz_F checks its arguments and then reads a private memo,
functools.lru_cache(maxsize=_SCHUETZ_MEMO = 128), of its last entries.
exact.schuetz_transition checks its sites and t once per call and then
reads that memo, _schuetz_F, directly with Python ints and float(t), so
its N^2 entries pay no check each.  A Schuetz determinant summed over
configurations asks for each entry F_(i-j)(x_i - y_j, t) once per
configuration that shares it: the brute sums of the benchmark's small
exact problems (N <= 3, t <= 2) make 22 090 calls a round for at most 79
distinct entries per sum.  The bound is well below the ~2 090 distinct
entries of a whole round, so the hits come from reuse inside one sum,
never from replaying earlier work.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np
from scipy.special import airy, gammaln

AIRY_RANGE = 30.0
# Up to this _airy returns scipy's airy; past it, the Chebyshev series below
_AIRY_CUT = 2.0
_AIRY_S = 0.75 / math.sqrt(2.0)  # 1/zeta at the cut, zeta = (2/3) x^(3/2)
_HALF_INV_SQRT_PI = 0.5 / math.sqrt(math.pi)
# Rows k = 0..24: the Chebyshev coefficients (g_k, h_k) of the factors
# g(s) = 2 sqrt(pi) x^(1/4) e^zeta Ai(x) and h(s) = -2 sqrt(pi) x^(-1/4)
# e^zeta Ai'(x), whose asymptotic series in s = 1/zeta are DLMF 9.7.5-6,
# over s in [0, _AIRY_S] mapped to [-1, 1].  They are the interpolant at 40
# Chebyshev-Gauss nodes of mpmath's airyai at 40 digits, cut before the
# first |c_k| <= 2e-18 (k = 25); tests/test_special.py rebuilds them.
_AIRY_SERIES = np.array([
    (0.9844053049171552, 1.0223917438953567),
    (-0.014792784850104199, 0.021419543172417697),
    (0.0007327177465426715, -0.0008929320864098833),
    (-6.12595423417825e-05, 7.04386560665416e-05),
    (6.83476697557269e-06, -7.629019563020457e-06),
    (-9.237229735403982e-07, 1.0124594126717678e-06),
    (1.436225340438052e-07, -1.5547836430438127e-07),
    (-2.489319422322096e-08, 2.670534777173515e-08),
    (4.709793440054328e-09, -5.017799973983537e-09),
    (-9.583863708112733e-10, 1.015476324864757e-09),
    (2.0745855483677591e-10, -2.1883687800953883e-10),
    (-4.737267332192277e-11, 4.97854884096185e-11),
    (1.1336099808224236e-11, -1.1876037266305446e-11),
    (-2.827706782319351e-12, 2.9543896474165515e-12),
    (7.320712095125598e-13, -7.630714992633907e-13),
    (-1.9599793911089723e-13, 2.038758045182824e-13),
    (5.4101162570683925e-14, -5.617262461082948e-14),
    (-1.5356466802223836e-14, 1.5918346754340464e-14),
    (4.472340393300025e-15, -4.629150125159948e-15),
    (-1.3338094674756681e-15, 1.3787341769318453e-15),
    (4.066582046456231e-16, -4.198446246812051e-16),
    (-1.2655832256452886e-16, 1.3051699130322139e-16),
    (4.0151263340158635e-17, -4.136490559976157e-17),
    (-1.2969972135960766e-17, 1.3349430157944544e-17),
    (4.261349907412013e-18, -4.382198906894981e-18),
])

# ln 2 = _LN2_HI + _LN2_LO, with k * _LN2_HI exact for |k| < 2^20
_LN2_HI, _LN2_LO = 0.693147180369123816490, 1.90821492927058770002e-10
_RESCALE = 2.0**500  # _poisson_charlier keeps its running pairs within [1/this, this]
_SPLIT = 300.0  # below this |s|, e^s times such a row stays normal and needs no split
_SERIES_EPS = 2.0**-56  # schuetz_F stops a positive series once its tail is below this
_SCHUETZ_MEMO = 128  # entries schuetz_F's memo keeps; see the module docstring


class QuadratureError(RuntimeError):
    """A contour quadrature did not converge, or met an integrand that is
    not finite.  No library path integrates on a contour; this is the error
    of the tests' circle quadrature, and it stays among the library's error
    types for callers that catch them all."""


def _poisson_charlier(
    m: int, x, t: float, c: float = 1.0, log_scale=0.0, exp2=0, rows=None
) -> np.ndarray | list[float] | Iterator[np.ndarray]:
    """Poisson-weighted Charlier polynomials E_j(x) for j = 0..m, times 2^exp2.

    E_j(x) = e^(s - r) r^j / j! * C_j(x; t), with r = c t, s = log_scale and
    C_j(x; t) = 2F0(-j, -x;; -1/t), symmetric at nonnegative integers:
    C_j(x) = C_x(j).  Written out, E_j(x) = e^(s - r) sum_i C(x, i) (-c)^i
    r^(j-i) / (j-i)!, the alternating Poisson sum behind every residue
    formula of the exact layer.  Rows come from the forward three-term
    recurrence in the degree,

        (j + 1) / c * E_(j+1) = (j + t - x) E_j - r E_(j-1),

    vectorised over x.  rows, rising degrees no larger than m, are the rows
    the caller reads, and only those leave the run.  For a Python or numpy
    scalar x the run returns them as a list of plain floats, by default all
    m + 1.  For an array x the run keeps only its running pair; by default
    it returns the top row E_m(x), of shape x.shape, and with rows it
    returns an iterator that hands out each of those rows as the run
    reaches its degree, so that one run serves a caller that reads several
    degrees in turn and holds one row at a time.  Its round-off is
    relative to the largest entry of the run, that is norm-wise, where the
    direct sums lose the size of their largest term.
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
    as log_scale may be), k and the renormalisations of its running pair.
    A scalar run renormalises its pair whenever it leaves [2^-500, 2^500],
    a test that costs no more than a bound would.  An array run tests no
    entry: with a_j = c (j + t - x) / (j + 1) and b_j = c r / (j + 1), one
    step raises a pair's maximum by at most max(1, max|a_j| + |b_j|) and
    lowers it by at most max(1, (max|a_j| + 1) / |b_j|), and max|a_j| needs
    only the smallest and largest x.  The run multiplies these factors up
    in two floats and, once either product passes _RESCALE = 2^500,
    renormalises every pair by the power of 2 that puts its maximum in
    [1/2, 1) and starts both products again; at t = 0, where b_j = 0, that
    is every step.  So a pair's maximum stays within 2^+-501, and one
    step's factor and the exit's e^f or e^(s - r) (within 2^+-433) fit in
    the headroom of 2^522 left below the edges 2^+-1022 of the normal
    doubles.  A renormalisation multiplies by an exact power of 2, so where
    it falls changes no bit of a row, and rows taken at several degrees of
    one run are those of a run per degree.  Both exits multiply by e^f and
    apply the power with ldexp (the array exit is _exit), so a row is 0 or
    +-inf only where its value is outside the double range.  It is private
    so that a traced benchmark run charges its time to the kernel that
    called it.
    """
    s = log_scale - c * t
    if isinstance(x, (int, float, np.number)):
        k = 0 if -_SPLIT < s < _SPLIT else math.floor(s / _LN2_HI)
        x, r, prev, cur, e = float(x), c * t, 0.0, 1.0, exp2 + k
        vals, exps = [cur], [e]
        for j in range(m):
            prev, cur = cur, ((j + t - x) * cur - r * prev) * (c / (j + 1))
            big = max(abs(prev), abs(cur))
            if big > _RESCALE or 0.0 < big < 1.0 / _RESCALE:
                f = math.frexp(big)[1]
                prev, cur, e = math.ldexp(prev, -f), math.ldexp(cur, -f), e + f
            vals.append(cur)
            exps.append(e)
        g = math.exp(s - k * _LN2_HI - k * _LN2_LO) if k else math.exp(s)
        try:
            if rows is None:
                return [math.ldexp(v * g, e) if e else v * g for v, e in zip(vals, exps)]
            return [math.ldexp(vals[d] * g, exps[d]) for d in rows]
        except OverflowError:  # a row past the double range: numpy's ldexp gives it as inf
            out = _exit(np.array(vals), np.array(exps), g)
            return (out if rows is None else out[list(rows)]).tolist()
    x = np.asarray(x, dtype=float)
    if rows is None:
        return next(_array_rows(m, x, t, c, s, exp2, (m,)))
    return _array_rows(m, x, t, c, s, exp2, rows)


def _array_rows(m, x, t, c, s, exp2, rows):
    """The array branch of _poisson_charlier: yields its rows at the rising
    degrees rows, each on reaching it, for s = log_scale - c t."""
    r, k = c * t, s / _LN2_HI // 1 * (abs(s) >= _SPLIT)
    prev, cur, e = np.zeros(x.shape), np.ones(x.shape), np.full(x.shape, exp2 + k, dtype=int)
    g = np.exp(s - k * _LN2_HI - k * _LN2_LO)
    want = iter(rows)
    d = next(want, None)
    if d == 0:
        yield _exit(cur, e, g)
        d = next(want, None)
    if d is None:
        return
    lo, hi = (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)
    # (j + 1) max|a_j| = |c| (|j + t - mid| + half), and (j + 1) |b_j| = cr
    mid, half, ac, cr = (lo + hi) / 2.0, (hi - lo) / 2.0, abs(c), abs(c * r)
    up = down = 1.0  # bounds on how far each pair's maximum has moved
    for j in range(m):
        # ((j + t - x) cur - r prev) c / (j + 1), reusing prev's buffer
        nxt = (j + t - x) * cur
        prev *= r
        nxt -= prev
        nxt *= c / (j + 1)
        prev, cur = cur, nxt
        q = ac * (abs(j + t - mid) + half)
        if q + cr > j + 1:
            up *= (q + cr) / (j + 1)
        if q + j + 1 > cr:
            down = down * ((q + j + 1) / cr) if cr else math.inf
        if up > _RESCALE or down > _RESCALE:
            f = np.frexp(np.maximum(abs(prev), abs(cur)))[1]
            prev, cur, e = np.ldexp(prev, -f), np.ldexp(cur, -f), e + f
            up = down = 1.0
        if j + 1 == d:
            yield _exit(cur, e, g)
            d = next(want, None)


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
            return _poisson_charlier(k, p, t, log_scale=move, rows=(k,))[0]
        return _poisson_charlier(p, k, t, rows=(p,))[0]
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

    Up to _AIRY_CUT = 2 the values are scipy's airy (cephes); above it

        Ai(x) = e^(-zeta) g(1/zeta) / (2 sqrt(pi) x^(1/4)),
        Ai'(x) = -x^(1/4) e^(-zeta) h(1/zeta) / (2 sqrt(pi)),

    with g and h, the factors whose asymptotic series are DLMF 9.7.5-6,
    each one Chebyshev series in 1/zeta (_AIRY_SERIES), summed by _clenshaw;
    scaled drops the e^(-zeta).  So no Bi is computed past 2.  The scaled
    values are within 2e-15 relative of mpmath on (2, 1e8] and within 5e-14
    on (0, 400]; unscaled ones past 2 carry e^(-zeta)'s rounding, within
    1e-13 relative on (10, 30], where Ai itself is below 1.2e-10.  Ai(+inf)
    and Ai'(+inf) are 0.0.  Private, so that a traced benchmark run counts
    each Ai once, in the public function that asked for it.
    """
    x = np.asarray(x, dtype=float)
    far = x > _AIRY_CUT
    ai, aip = np.empty(x.shape), np.empty(x.shape)
    xn = x[~far]
    a, ap, _, _ = airy(xn)
    e = np.exp(2.0 / 3.0 * np.maximum(xn, 0.0) ** 1.5) if scaled else 1.0
    ai[~far], aip[~far] = a * e, ap * e
    xf = x[far]
    if xf.size:
        # one power, as for the scaled values up to 2: the Airy_2 ladder at
        # spacing 6 sits at its noise floor, and it settles below 1e-12 with
        # this rounding of zeta but not with 2 (x sqrt(x)) / 3
        zeta = 2.0 / 3.0 * xf**1.5
        fourth = np.sqrt(np.sqrt(xf))  # x^(1/4)
        # 1/zeta on [0, 1/zeta(2)] mapped to [-1, 1]
        gh = _clenshaw(_AIRY_SERIES[:, : 1 + derivative], 2.0 / (_AIRY_S * zeta) - 1.0)
        e = _HALF_INV_SQRT_PI if scaled else _HALF_INV_SQRT_PI * np.exp(-zeta)
        ai[far] = gh[0] * e / fourth
        if derivative:
            with np.errstate(invalid="ignore"):  # inf * e^(-inf) at x = inf
                aip[far] = -gh[1] * e * fourth
            if not scaled:
                aip[x == np.inf] = 0.0
    return (ai, aip) if derivative else ai


def _clenshaw(coef, t):
    """sum_k coef[k, i] T_k(t) as row i, for each column i of coef, by
    Clenshaw's recurrence b_k = coef[k] + 2t b_(k+1) - b_(k+2), in place."""
    c = coef[:, :, None]
    b1, b2 = np.repeat(c[-1], t.size, axis=1), np.zeros((c.shape[1], t.size))
    t2, step = 2.0 * t, np.empty_like(b1)
    for ck in c[-2:0:-1]:
        np.multiply(t2, b1, out=step)
        step -= b2
        step += ck
        b1, b2, step = step, b1, b2
    return t * b1 - b2 + c[0]


def airy_ai_kernel(z) -> np.ndarray:
    """Vectorized Ai for lambda-quadrature kernels, from _airy: scipy's
    values up to 2, the Chebyshev series past it, within 1e-13 relative of
    mpmath on (10, 30], and 0.0 beyond +30 (|Ai| < 3e-48 there); arguments
    below -30 or NaN raise."""
    arr = np.asarray(z, dtype=float)
    if arr.size and not float(arr.min()) >= -AIRY_RANGE:
        raise ValueError(f"airy_ai_kernel supports arguments >= {-AIRY_RANGE}, got {arr.min()}")
    out = np.zeros(arr.shape)
    inside = arr <= AIRY_RANGE
    out[inside] = _airy(arr[inside])
    return out if arr.shape else float(out)
