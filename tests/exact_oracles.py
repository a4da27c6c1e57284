"""Exact-layer routes that only check the library: the tests' independent
evaluations of the kernel and its building blocks.

kpzlab.exact evaluates the kernel one way, as the random walk forced to hit
the curve of the data (_kernel_blocks).  The routes here are the other ways
the notes write the same objects, kept apart so that the library holds one
evaluation path per object: the geometric walk weights and their polynomial
extension in exact dyadic Fractions, the biorthogonal system built from the
backwards-heat polynomials, the closed residue forms for step and periodic
data, the 1 x 1 entries of the transfer matrices, the interlacing
indicator of one array, one determinant call per array, the array sum
term by term over every array, the step events of the variational
identity for general data, and the transition determinant with its matrix
built by a nested comprehension and reduced by the general LU loop at
every size.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from kpzlab.exact import WindowError, gt_indicators
from kpzlab.exact import _transfer_inverse_matrix, epi_transfer_matrix
from kpzlab.simulate import InitialData
from kpzlab.special import _charlier_term, _check_time, _integer, _poisson_charlier, schuetz_F


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


def _pow2(e: int) -> Fraction:
    return Fraction(2) ** e


# ---------------------------------------------------------------------------
# Geometric walk matrices and the polynomial extension of their powers.


def q_weight(steps: int, x: int, y: int) -> Fraction:
    """Entry (x, y) of the geometric left-walk matrix to an integer power.

    One step moves strictly left with weight 2^(y-x).  Negative powers use
    the two-term left inverse, so q_weight(-1, x, y) is 2 at y = x+1 and -1
    at y = x.
    """
    if steps == 0:
        return Fraction(1 if x == y else 0)
    if steps > 0:
        if x - y < steps:
            return Fraction(0)
        return _pow2(y - x) * math.comb(x - y - 1, steps - 1)
    k = -steps
    j = y - x
    if j < 0 or j > k:
        return Fraction(0)
    return Fraction((-1) ** (k - j) * 2**j * math.comb(k, j))


def qbar(n: int, y1: int, y2: int) -> Fraction:
    """Polynomial extension of the n-step walk weight.

    2^(y1-y2) times the n-step weight is polynomial in y2 on y1 - y2 >= n;
    this evaluates that degree n-1 extension at any pair, exactly.  It
    exists as a check of the notes' extension identities in the tests.
    """
    if n < 1:
        raise ValueError("the extension needs n >= 1")
    return _pow2(y2 - y1) * gen_binomial(y1 - y2 - 1, n - 1)


# ---------------------------------------------------------------------------
# Residue evaluations of the kernel building blocks.


def psi_residue(
    init: InitialData, t: float, n: int, k: int, x: int, conjugated: bool = True
) -> float:
    """Row function of the biorthogonal kernel, as an exact residue sum.

    With s = x - entry(n-k) and p = s + k the value is 2^(-s) E_p(k), the
    Poisson-Charlier term of special._poisson_charlier at r = t:
    2^(-s) e^(-t) sum_j C(k,j) (-1)^j t^(p-j)/(p-j)!.  Dropping the 2^(-s)
    factor gives the unconjugated variant used by determinant weights.
    Negative k (needed by the off-diagonal kernel blocks) keeps the same
    contour, which then excludes the pole at w = 1; the same E_p(k) is then
    a positive series against the binomial tail of (1-w)^k.
    """
    t = _check_time(t)
    n, k, x = _integer(n, "n"), _integer(k, "k"), _integer(x, "x")
    if k >= n:
        raise ValueError("need k < n")
    s = x - init.entry(n - k)
    val = _charlier_term(s + k, k, t)
    return math.ldexp(val, -s) if conjugated else val


def transfer_inverse(t: float, n: int, z1: int, z2: int) -> float:
    """Adjoint of the backward half-heat flow composed with n inverse walk
    steps.  Vanishes for z1 - z2 > n and decays like 2^(z1-z2) leftwards."""
    t = _check_time(t)
    n, z1, z2 = _integer(n, "n"), _integer(z1, "z1"), _integer(z2, "z2")
    return float(_transfer_inverse_matrix(t, n, np.array([z1]), np.array([z2]))[0, 0])


def transfer_extended(t: float, n: int, z1: int, z2: int) -> float:
    """Polynomial extension of n walk steps composed with the half-heat flow."""
    t = _check_time(t)
    n, z1, z2 = _integer(n, "n"), _integer(z1, "z1"), _integer(z2, "z2")
    return float(_transfer_extended_matrix(t, n, np.array([z1]), np.array([z2]))[0, 0])


def _transfer_extended_matrix(t: float, n: int, bs: np.ndarray, z2s: np.ndarray) -> np.ndarray:
    """transfer_extended on a (start, target) grid.

    Entry (b, z2) is 2^a E_(n-1)(a) at r = t/2, a = z2 - b + n - 1: one run
    of the degree recurrence, vectorised over the range of a.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    a = z2s[None, :] - bs[:, None] + (n - 1)
    if a.size == 0:
        return np.zeros(a.shape)
    span = np.arange(int(a.min()), int(a.max()) + 1)
    return _poisson_charlier(n - 1, span, t, 0.5, exp2=span)[a - span[0]]


def transfer_epi(init: InitialData, t: float, n: int, z1: int, z2: int) -> float:
    """One entry of epi_transfer_matrix.  It exists as a check of the notes'
    crossing kernel: tests hold it against walk and heat-sum oracles."""
    n, z1, z2 = _integer(n, "n"), _integer(z1, "z1"), _integer(z2, "z2")
    return float(epi_transfer_matrix(init, t, n, z1, z1, [z2])[0, 0])


# ---------------------------------------------------------------------------
# Backwards-heat polynomials (exact dyadic rationals).


def _poly_eval_frac(coeffs, z) -> Fraction:
    acc = Fraction(0)
    zf = Fraction(z)
    for c in reversed(coeffs):
        acc = acc * zf + c
    return acc


def _discrete_antiderivative(p, z0: int) -> tuple[Fraction, ...]:
    """The unique polynomial A with A(z) - A(z-1) = p(z) and A(z0) = 0."""
    d = len(p) - 1
    resid = [Fraction(c) for c in p]
    a = [Fraction(0)] * (d + 2)
    for i in range(d + 1, 0, -1):
        a[i] = resid[i - 1] / i
        # subtract a_i * (z^i - (z-1)^i), a polynomial of degree i-1
        for r in range(i):
            delta_r = -Fraction(math.comb(i, r) * (-1) ** (i - r))
            resid[r] -= a[i] * delta_r
    if any(resid):
        raise AssertionError("antiderivative elimination left a nonzero residual")
    a[0] = -_poly_eval_frac(a, z0)
    return tuple(a)


def backward_heat_polys(init: InitialData, n: int, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """Levels 0..k of the scaled backwards-heat solution, as coefficients.

    Level k is the constant 2^(-entry(n-k)); going down one level takes the
    discrete antiderivative of minus the current level, anchored to vanish
    at the matching data entry.  The returned level ell has exact degree
    k - ell in z, and the unscaled solution is 2^z times it.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    levels = [None] * (k + 1)
    levels[k] = (_pow2(-init.entry(n - k)),)
    for ell in range(k, 0, -1):
        negated = tuple(-c for c in levels[ell])
        levels[ell - 1] = _discrete_antiderivative(negated, init.entry(n - ell + 1))
    return tuple(levels)


# ---------------------------------------------------------------------------
# The biorthogonal system.


@dataclass(frozen=True)
class BiorthoSystem:
    """Conjugated biorthogonal pair and its backwards-heat polynomials.

    psi[n] and phi[n] are (n, width) arrays over the window, rows indexed
    by k = 0..n-1.  h[(n, k)] holds the scaled heat levels as exact
    coefficient tuples; the unscaled solution at (ell, z) is 2^z times the
    level-ell polynomial at z.  Treated as immutable after construction.
    """

    initial_data: InitialData
    time: float
    n_max: int
    window: tuple[int, int]
    psi: dict
    phi: dict
    h: dict

    def _col(self, x: int) -> int:
        lo, hi = self.window
        if not lo <= x <= hi:
            raise ValueError(f"{x} outside window [{lo}, {hi}]")
        return x - lo

    def phi_val(self, n: int, k: int, x: int) -> float:
        return float(self.phi[n][k, self._col(x)])

    def h_exact(self, n: int, k: int, ell: int, z: int) -> Fraction:
        return _pow2(z) * _poly_eval_frac(self.h[(n, k)][ell], z)

    def h_degree(self, n: int, k: int) -> int:
        """Exact degree of the scaled level-0 polynomial (certifies the
        polynomial growth of the matching column function)."""
        coeffs = self.h[(n, k)][0]
        deg = len(coeffs) - 1
        while deg > 0 and coeffs[deg] == 0:
            deg -= 1
        return deg

    def biortho_defect(self, n: int) -> float:
        gram = self.psi[n] @ self.phi[n].T
        return float(np.abs(gram - np.eye(n)).max())


def _phi_row(t: float, heat_level0, xs: np.ndarray) -> np.ndarray:
    """Column function on xs: the level-0 solution 2^z P(z) pushed through
    the forward half-heat flow.  Newton's forward formula sums the flow's
    Poisson series in closed form,

        phi(x) = 2^x sum_(m=0..deg P) (-t)^m / m! (Delta^m P)(x),

    with Delta the forward difference.  The polynomial is built and
    evaluated exactly (t is a dyadic rational) and rounded once; a value
    past the double range comes out as inf.
    """
    q, diff, coef = [Fraction(0)] * len(heat_level0), list(heat_level0), Fraction(1)
    for m in range(len(q)):
        for i, c in enumerate(diff):
            q[i] += coef * c
        # (Delta p)(z) = p(z + 1) - p(z) = sum_(i < j) C(j, i) p_j z^i
        diff = [
            sum(math.comb(j, i) * diff[j] for j in range(i + 1, len(diff)))
            for i in range(len(diff) - 1)
        ]
        coef *= -Fraction(t) / (m + 1)
    with np.errstate(over="ignore"):
        return np.ldexp([float(_poly_eval_frac(q, x)) for x in xs.tolist()], xs)


def build_biortho(
    init: InitialData, t: float, n_max: int, window: tuple[int, int]
) -> BiorthoSystem:
    """Construct the conjugated biorthogonal system on a window.

    Row k of level n is the residue sum psi_residue, one call of
    special._charlier_term per row; column functions are the level-0
    backwards-heat solution pushed through the forward half-heat flow, a
    finite sum (see _phi_row).  Raises WindowError with a suggestion if the column
    functions leave the double range on the window, or if the window
    cannot certify biorthogonality at 1e-8.
    """
    t = _check_time(t)
    if not 1 <= n_max <= 8:  # a bound of this reference's own: its checks reach level 8
        raise ValueError("need 1 <= n_max <= 8")
    lo, hi = int(window[0]), int(window[1])
    if lo >= hi:
        raise ValueError("window must be a nonempty interval")
    xs = np.arange(lo, hi + 1)
    psi = {}
    phi = {}
    h = {}
    for n in range(1, n_max + 1):
        pn = np.zeros((n, len(xs)))
        fn = np.zeros((n, len(xs)))
        for k in range(n):
            s = xs - init.entry(n - k)
            pn[k] = np.ldexp(_charlier_term(s + k, k, t), -s)
            levels = backward_heat_polys(init, n, k)
            h[(n, k)] = levels
            fn[k] = _phi_row(t, levels[0], xs)
        psi[n] = pn
        phi[n] = fn
    top = max(init.entry(1), 0) + int(math.ceil(3.0 * t)) + 48
    bot = init.entry(n_max) - n_max - 8
    finite = np.all([np.isfinite(fn).all(axis=0) for fn in phi.values()], axis=0)
    if not finite.all():
        first_inf = int(xs[~finite][0])
        hint = (
            f"try [{min(lo, bot)}, {top}]"
            if top < first_inf
            else f"a window for t = {t} must reach {top}, so enlarging it cannot help"
        )
        raise WindowError(f"column functions leave the double range at x = {first_inf}; {hint}")
    system = BiorthoSystem(init, t, n_max, (lo, hi), psi, phi, h)
    worst = max(system.biortho_defect(n) for n in range(1, n_max + 1))
    if not worst <= 1e-8:
        wider = (min(lo, bot), max(hi, top))
        hint = (
            f"try [{wider[0]}, {wider[1]}]"
            if wider != (lo, hi)
            else f"it covers [{bot}, {top}] already, so enlarging it cannot help"
        )
        raise WindowError(f"biorthogonality defect {worst:.2e} on window [{lo}, {hi}]; {hint}")
    return system


# ---------------------------------------------------------------------------
# Closed-form column functions for the two classical data families.


def phi_closed_form(
    kind: str, n: int, k: int, x: int, t: float, d: int | None = None
) -> float:
    """Column function for step or periodic data, as a residue at v = 0.

    Step data puts particle i at -i; periodic data with gap d >= 2 puts
    particle i at -d*i.  Values come out in the conjugated normalization,
    so for step data with k = 0 the result is 2^(x+n).  With E as in
    special._poisson_charlier at r = t and log offset t, so that E_j(M) is
    the coefficient of v^j in (1-v)^M e^(tv), the step value is
    2^(x+n-k) E_k(x+n), the residue of 2^(x+n-k) (1-v)^(x+n) e^(tv) /
    v^(k+1).  The periodic value is the residue of 2 (1-dv)
    (2(1-v))^(x+dn-1) e^(tv) / (v (2^d (1-v)^(d-1) v)^k): with
    M = x + dn - 1 - (d-1)k it is 2^(x+d(n-k)) (E_k(M) - d E_(k-1)(M)),
    both terms from one run.  It exists as a check of the notes' closed
    forms against build_biortho and contour quadrature in the tests.
    """
    t = _check_time(t)
    n, k, x = _integer(n, "n"), _integer(k, "k"), _integer(x, "x")
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    if kind == "step":
        return _poisson_charlier(k, x + n, t, log_scale=t, exp2=x + n - k, rows=(k,))[0]
    if kind != "periodic":
        raise ValueError(f"unknown closed-form family: {kind!r}")
    if d is None or d < 2:
        raise ValueError("periodic data needs a gap d >= 2")
    d = _integer(d, "d")
    big_m, exp2 = x + d * n - 1 - (d - 1) * k, x + d * (n - k)
    run = _poisson_charlier(k, big_m, t, log_scale=t, exp2=exp2, rows=range(max(k - 1, 0), k + 1))
    return run[-1] - d * run[-2] if k else run[-1]


def kt_two_periodic_closed(t: float, n: int, z1: int, z2: int) -> float:
    """Closed one-index kernel for data on every even site, as a residue.

    Labels follow the convention that particle n sits at -2n at time zero.
    The kernel is -2^(z2-z1) times the residue at v = 1 of
    v^(z2+2n) e^(t(1-2v)) / (1-v)^N, N = z1 + 2n + 1.  It is 0 for N < 1;
    otherwise, with E as in special._poisson_charlier at time 2t, c = -1
    (r = -2t) and log offset -3t,

        K = -2^(z2-z1) (-1)^N E_(N-1)(z2 + 2n).

    It exists as a check of the notes' flat kernel on Z in the tests.
    """
    t = _check_time(t)
    n, z1, z2 = _integer(n, "n"), _integer(z1, "z1"), _integer(z2, "z2")
    big_n = z1 + 2 * n + 1
    if big_n < 1:
        return 0.0
    deg = big_n - 1
    (val,) = _poisson_charlier(deg, z2 + 2 * n, 2.0 * t, -1.0, -3.0 * t, z2 - z1, (deg,))
    return val if big_n % 2 else -val


def gt_indicator(levels) -> int:
    """Product of one-step indicator determinants over one triangular array,
    the one-array reference for exact.gt_indicators.

    Equals 1 exactly when consecutive rows interlace (the previous row
    extended by a virtual +infinity entry), else 0.
    """
    size = len(levels)
    # level m's matrix, padded with an identity block to the last level's size
    mats = np.zeros((size, size, size))
    mats.reshape(size, size * size)[:, :: size + 1] = 1.0
    prev: list = []
    for m, raw in enumerate(levels, start=1):
        row = [float(v) for v in raw]
        if len(row) != m:
            raise ValueError(f"level {m} must have {m} entries")
        mats[m - 1, :m, :m] = [[a > b for b in row] for a in prev + [math.inf]]
        prev = row
    return math.prod(map(round, np.linalg.det(mats).tolist()))


def array_sum_literal(x, y, t: float, pad: int) -> float:
    """exact.gt_pattern_sum term by term: every triangular array whose left
    edge is x, level m = (x_m, f_1 < ... < f_(m-1)) with its free entries
    in (x_m, hi], hi = max(x, y) + pad, weighted by its interlacing
    indicator (exact.gt_indicators) times the determinant of the row
    functions E_p(N - j) of entry y_j, p = z - y_j + N - j, at the sites z
    of its bottom row, one scalar _charlier_term per entry."""
    n = len(x)
    hi = max(*x, *y) + pad
    rows = [[(xm, *free) for free in itertools.combinations(range(xm + 1, hi + 1), m - 1)]
            for m, xm in enumerate(x, 1)]
    arrays = [list(levels) for levels in itertools.product(*rows)]
    total = 0.0
    for array, ok in zip(arrays, gt_indicators(arrays)):
        if ok:
            total += float(np.linalg.det(np.array(
                [[_charlier_term(z - yj + n - j, n - j, t) for j, yj in enumerate(y, 1)] for z in array[-1]]
            )))
    return total


def variational_step_events(init: InitialData, n: int, a: int) -> list[tuple[int, int]]:
    """The step-data events whose joint probability is P_X0(X_t(n) > a):
    (n + 1 - l, a - 1 - X0(l)) over the corners l <= n of the data (label
    1, and each l with X0(l - 1) - X0(l) > 1, the first particle of a
    packed block), by increasing step label.  TASEP is last-passage
    percolation, and reversing the environment about the event's cell
    turns the corners into end points from one start."""
    entries = [init.entry(label) for label in range(1, n + 1)]
    corners = [1] + [label for label in range(2, n + 1) if entries[label - 2] - entries[label - 1] > 1]
    return sorted((n + 1 - label, a - 1 - entries[label - 1]) for label in corners)


# ---------------------------------------------------------------------------
# The transition determinant by the general loop at every size.


def _weyl_tuple(vec, name: str) -> tuple[int, ...]:
    out = tuple([_integer(v, name) for v in vec])
    if not all(map(operator.gt, out, out[1:])):
        raise ValueError(f"{name} must be strictly decreasing")
    return out


def schuetz_transition(x, y, t: float) -> float:
    """The reference for exact.schuetz_transition's bits and errors: the
    same checks in the same order, the N x N matrix
    [F_(i-j)(x_(N-i) - y_(N-j), t)] from a nested comprehension over the
    reversed configurations, and small_det_loop at every N."""
    xv = _weyl_tuple(x, "x")
    yv = _weyl_tuple(y, "y")
    n = len(xv)
    if len(yv) != n:
        raise ValueError("configurations must have equal size")
    if n == 0:
        raise ValueError("need N >= 1")
    t = _check_time(t)
    xr, yr = xv[::-1], yv[::-1]
    return small_det_loop([
        [schuetz_F(i - j, xi - yj, t) for j, yj in enumerate(yr)] for i, xi in enumerate(xr)
    ])


def small_det_loop(rows: list[list[float]]) -> float:
    """Determinant by LU with partial pivoting, the loop of getrf at every
    N: the first largest |entry| of a column pivots, rows are reduced in
    place, and a column with no nonzero pivot left gives +0.0."""
    n = len(rows)
    det = 1.0
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(rows[i][k]) > abs(rows[p][k]):
                p = i
        pivot_row = rows[p]
        pivot = pivot_row[k]
        if pivot == 0.0:
            return 0.0
        if p != k:
            rows[p] = rows[k]
            rows[k] = pivot_row
            det = -det
        det *= pivot
        for i in range(k + 1, n):
            row = rows[i]
            f = row[k] / pivot
            for j in range(k + 1, n):
                row[j] -= f * pivot_row[j]
    return det
