"""Exact finite-N TASEP distributions.

Transition probabilities as determinants, their rewriting as a sum over
interlacing triangular arrays, the biorthogonal kernel representation with
its backwards-heat construction, the first-passage (random-walk) form of the
one-index kernel, and the Fredholm determinants for joint one-sided
probabilities in both extended-kernel and path-product form.

Conventions used throughout: particles are labeled 1, 2, ... from right to
left with strictly decreasing positions, jumps go right, and the geometric
left-walk weight is w(x, y) = 2^(y-x) for y < x.  Kernels are stored in the
powers-of-2 conjugated normalization, which is the summable one on windows;
the unconjugated objects differ by a factor 2^(x2-x1) per entry and are used
only where a determinant needs them (the interlacing-array weights and the
block two-level cross check).

Every object here is a finite sum; no value comes from a contour integral
or a truncated series.  Exact rational arithmetic (dyadic Fractions) is used
for the backwards-heat polynomials, the column functions built from them
and the walk matrices; everything crossing into kernel numerics is
converted to float at the boundary.  Every alternating Poisson sum is a
Poisson weight times a Charlier polynomial from special._poisson_charlier's
forward recurrence, so no direct sum cancels, from t = 0 to the 1:2:3
scaling at eps = 0.005 (t ~ 5657).  Each caller passes its power of 2
(2^n, 2^a, 2^(x+n-k), ...) into the run, which carries it per entry as an
exact exponent, so a value leaves the double range only where it is itself
outside it; both transfer matrices match mpmath at t ~ 5657.  The row function
Psi^n_k(x) = 2^(-s) E_p(k), which is also F_(-k) of the transition
determinants and the weight of the array sum, is accurate per entry: its
one evaluator special._charlier_term steps the shorter index, and the
degree-k column functions amplify its entries far right of the bulk.  The
transfer matrices come from runs over the degree, accurate per run: the
kernel sums over them need no more, and stepping their fixed index, the
particle label (77 at eps = 0.04), per entry would take that many steps.
The first-passage average is one backward sweep over the walk's steps,
on the positions that can still cross the data, and one run serves all
its stops, each reading its own degree.  A deeper Fredholm window
grows only to the left, so the first two of WINDOW_DEPTHS share one kernel
build, and it stops at the kernel's exact floor: first-passage rows are
zero at starts y < y_lo = min (entry(n) + n) over the labels, and the
inverse factor of label n vanishes at starts y > x + n, so below y_lo - n
a row of the extended kernel is zero.  Where every floor lies within a
rung the window is the whole support and the determinant on it is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dpp import LEnsembleSpec, conditional_l_to_k
from .fredholm import Certified, _settle, det_window
from .fredholm import ConvergenceError as TruncationError  # the window depths ran out
from .simulate import InitialData, make_initial
from .special import (
    _charlier_term,
    _check_time,
    _exit,
    _integer,
    _poisson_charlier,
    _schuetz_F,
    gen_binomial,
)

N_MAX_DET = 8  # largest determinant size for transition probabilities
N_MAX_ARRAY_SUM = 4  # interlacing-array sum grows too fast beyond this
N_MAX_JOINT = 4  # joint one-sided events per determinant
# window depths below the events: kernel columns decay like 2^z to the left
# of the data, and rows vanish below each label's exact floor, where a
# window stops short of its depth
WINDOW_DEPTHS = (48, 96, 192, 384, 768)


class WindowError(ValueError):
    """Raised when a requested window cannot reach the target accuracy."""


def _entry_int(init: InitialData, label: int) -> int:
    e = init.entry(label)
    if math.isinf(e):
        raise ValueError(f"label {label} has no finite position")
    return int(e)


def _leading_inf(init: InitialData) -> int:
    if init.kind != "explicit":
        return 0
    return sum(1 for e in init.entries if math.isinf(e))


def _strip_leading_inf(init: InitialData) -> tuple[InitialData, int]:
    """Drop the infinite prefix, relabeling so label 1 is the first finite one."""
    shift = _leading_inf(init)
    if shift == 0:
        return init, 0
    return make_initial("explicit", entries=init.entries[shift:]), shift


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
    _check_time(t)
    n, k, x = _integer(n, "n"), _integer(k, "k"), _integer(x, "x")
    if k >= n:
        raise ValueError("need k < n")
    s = x - _entry_int(init, n - k)
    val = _charlier_term(s + k, k, t)
    return math.ldexp(val, -s) if conjugated else val


def transfer_inverse(t: float, n: int, z1: int, z2: int) -> float:
    """Adjoint of the backward half-heat flow composed with n inverse walk
    steps.  Vanishes for z1 - z2 > n and decays like 2^(z1-z2) leftwards."""
    _check_time(t)
    n, z1, z2 = _integer(n, "n"), _integer(z1, "z1"), _integer(z2, "z2")
    return float(_transfer_inverse_matrix(t, n, np.array([z1]), np.array([z2]))[0, 0])


def transfer_extended(t: float, n: int, z1: int, z2: int) -> float:
    """Polynomial extension of n walk steps composed with the half-heat flow."""
    _check_time(t)
    n, z1, z2 = _integer(n, "n"), _integer(z1, "z1"), _integer(z2, "z2")
    return float(_transfer_extended_matrix(t, n, np.array([z1]), np.array([z2]))[0, 0])


def _transfer_inverse_matrix(t: float, n: int, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """transfer_inverse on a (start, target) grid.

    Entry (y, x) is 2^n E_p(n) at r = t/2, p = n + x - y, and 0 for p < 0:
    a Toeplitz matrix that one run of the recurrence over p fills.  The run
    is accurate norm-wise, not per entry (see the module docstring).
    """
    if n < 0:
        raise ValueError("need n >= 0")
    p = n + xs[None, :] - ys[:, None]
    p_max = int(p.max(initial=-1))
    if p_max < 0:
        return np.zeros(p.shape)
    run = np.array(_poisson_charlier(p_max, n, t, 0.5, exp2=n))
    return np.where(p >= 0, run[np.maximum(p, 0)], 0.0)


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


def epi_transfer_matrix(
    init: InitialData, t: float, n: int, y_lo: int, y_hi: int, z2s
) -> np.ndarray:
    """First-passage average of the extended transfer kernel.

    Entry (iy, iz) averages transfer_extended(t, n - m, B_m, z2s[iz]) over
    the walk from B_0 = y_lo + iy that steps left by j with probability
    2^(-j) and stops at the first m < n with B_m > entry(m + 1); a walk
    that never stops gives 0.  It is one backward sweep in m: with V_m the
    average for a walk alive after step m, and U_m the transfer where step
    m stops and V_m elsewhere, V_(m-1) = Q U_m.  Q is one left step,
    (QU)(b) = (U(b-1) + (QU)(b-1)) / 2, taken in log2 doubling passes.  An
    integer pass fixes the steps and rows: live positions lie at or below
    a top cut at each stop, and rows below entry(n) + n - m after step m
    are zero, as entries strictly decrease.  Stop m needs the
    _transfer_extended_matrix block of degree n - 1 - m, and every stop
    reads its block from one Charlier run over the union of their spans
    in a, which hands out each degree as the sweep rises to it.  The
    recurrence works on each a alone and renormalises by exact powers of
    2, so the blocks keep the bits of a run per stop, and rows above
    entry(1) are the transfer's values.
    Entries are accurate relative to the largest term, not per entry: on
    half-flat data at t = 50, n = 60, (y, z2) = (0, -10) the walk average
    is 3.76e-6, and this gives about -1e6 from terms up to 6e21.
    """
    _check_time(t)
    n, y_lo, y_hi = _integer(n, "n"), _integer(y_lo, "y_lo"), _integer(y_hi, "y_hi")
    if n < 1:
        raise ValueError("depth must be at least 1")
    z2s = np.asarray(z2s)
    if z2s.dtype.kind not in "iu":  # int() would truncate a fractional target
        z2s = z2s.astype(float)
        bad = ~(np.isfinite(z2s) & (z2s == np.trunc(z2s)))
        if bad.any():
            raise ValueError(f"each target z2 must be an integer, got {float(z2s[bad][0])!r}")
    z2s = z2s.astype(int, copy=False)
    floor = _entry_int(init, n) + n
    steps, top = [], y_hi + 1  # (top, cut): step m stops cut..top
    for m in range(n):
        top -= 1
        e = init.entry(m + 1)
        cut = int(e) + 1 if e < top else top + 1
        steps.append((top, cut))
        top = cut - 1
        if top < floor - m or m == 0 and top < y_lo:
            break
    base = min(y_lo, floor)  # row i holds position base - m + i at step m
    buf = np.zeros((y_hi - base + 1, len(z2s)))
    stops = [m for m, (top, cut) in enumerate(steps) if top >= cut]
    if not stops or not len(z2s):
        return buf[y_lo - base :]
    # stop m reads degree n - 1 - m at a = z2 - b + n - 1 - m; one run over
    # the union of these spans hands out the degrees as the sweep rises
    lo = min(int(z2s.min()) - steps[m][0] + n - 1 - m for m in stops)
    hi = max(int(z2s.max()) - steps[m][1] + n - 1 - m for m in stops)
    span = np.arange(lo, hi + 1)
    degrees = [n - 1 - m for m in reversed(stops)]
    rows = _poisson_charlier(degrees[-1], span, t, 0.5, exp2=span, rows=degrees)
    for m in range(len(steps) - 1, -1, -1):
        top, cut = steps[m]
        if top >= cut:
            bs = np.arange(cut, top + 1)
            buf[bs - base + m] = next(rows)[z2s - bs[:, None] + (n - 1 - m - lo)]
        if m:
            u = buf[floor - base : top - base + m + 1]
            u *= 0.5
            for i in range(len(u).bit_length()):
                k = 1 << i
                u[k:] += 0.5**k * u[:-k]
    return buf[y_lo - base :]


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
    levels[k] = (_pow2(-_entry_int(init, n - k)),)
    for ell in range(k, 0, -1):
        negated = tuple(-c for c in levels[ell])
        levels[ell - 1] = _discrete_antiderivative(negated, _entry_int(init, n - ell + 1))
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
    _check_time(t)
    if not 1 <= n_max <= N_MAX_DET:
        raise ValueError(f"need 1 <= n_max <= {N_MAX_DET}")
    lo, hi = int(window[0]), int(window[1])
    if lo >= hi:
        raise ValueError("window must be a nonempty interval")
    if _leading_inf(init):
        raise ValueError("data must start with a finite entry")
    xs = np.arange(lo, hi + 1)
    psi = {}
    phi = {}
    h = {}
    for n in range(1, n_max + 1):
        pn = np.zeros((n, len(xs)))
        fn = np.zeros((n, len(xs)))
        for k in range(n):
            s = xs - _entry_int(init, n - k)
            pn[k] = np.ldexp(_charlier_term(s + k, k, t), -s)
            levels = backward_heat_polys(init, n, k)
            h[(n, k)] = levels
            fn[k] = _phi_row(t, levels[0], xs)
        psi[n] = pn
        phi[n] = fn
    top = max(_entry_int(init, 1), 0) + int(math.ceil(3.0 * t)) + 48
    bot = _entry_int(init, n_max) - n_max - 8
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
    _check_time(t)
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


# ---------------------------------------------------------------------------
# Transition probabilities: determinant and interlacing-array sum.


def _weyl_tuple(vec, name: str) -> tuple[int, ...]:
    out = tuple([_integer(v, name) for v in vec])
    if not all(a > b for a, b in zip(out, out[1:])):
        raise ValueError(f"{name} must be strictly decreasing")
    return out


def schuetz_transition(x, y, t: float) -> float:
    """Transition probability from configuration y to x in time t >= 0, as
    the N x N determinant det[F_(i-j)(x_(N+1-i) - y_(N+1-j), t)] of
    index-shifted one-particle kernels.  At N = 1 it is the entry itself,
    F_0(x - y, t).  Sites must be integral and strictly decreasing; after
    that one check the entries come from schuetz_F's memo directly, and
    _small_det takes the determinant."""
    xv = _weyl_tuple(x, "x")
    yv = _weyl_tuple(y, "y")
    n = len(xv)
    if len(yv) != n:
        raise ValueError("configurations must have equal size")
    if not 1 <= n <= N_MAX_DET:
        raise ValueError(f"need 1 <= N <= {N_MAX_DET}")
    _check_time(t)
    t = float(t)
    ks = range(1, n + 1)
    return _small_det([[_schuetz_F(i - j, xv[n - i] - yv[n - j], t) for j in ks] for i in ks])


def _small_det(rows: list[list[float]]) -> float:
    """Determinant of an N x N matrix of Python floats, N <= N_MAX_DET, by
    LU with partial pivoting, the algorithm and error bound of LAPACK's
    getrf, without numpy's fixed cost per call.  The rows are reduced in
    place.  A column with no nonzero pivot left gives 0.0."""
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


def gt_pattern_sum(x, y, t: float, pad: int = 40) -> float:
    """Transition probability as a sum over interlacing triangular arrays.

    The left edge of the array is pinned to x; free entries range over
    [min(x,y) - pad, max(x,y) + pad].
    """
    _check_time(t)
    xv = _weyl_tuple(x, "x")
    yv = _weyl_tuple(y, "y")
    n = len(xv)
    if len(yv) != n:
        raise ValueError("configurations must have equal size")
    if not 1 <= n <= N_MAX_ARRAY_SUM:
        raise ValueError(f"array sum implemented for N <= {N_MAX_ARRAY_SUM}")
    if pad < 1:
        raise ValueError("pad must be positive")
    lo = min(min(xv), min(yv)) - pad
    hi = max(max(xv), max(yv)) + pad
    return _array_sum_value(xv, yv, t, lo, hi)


def _increasing_tuples(base: np.ndarray, r: int) -> tuple[np.ndarray, ...]:
    """The r-tuples u_1 < ... < u_r of entries of an increasing array, as r
    columns in itertools.combinations' (lexicographic) order."""
    a = np.arange(len(base))
    mask = np.ones((len(base),) * r, dtype=bool)
    for k in range(1, r):
        # axis k - 1 below axis k
        mask &= a.reshape((-1,) + (1,) * (r - k)) < a.reshape((-1,) + (1,) * (r - 1 - k))
    return tuple(base[i] for i in np.nonzero(mask))


def _array_sum_value(xv, yv, t, lo, hi):
    n = len(xv)
    zs = np.arange(lo, hi + 1)
    # column j: the unconjugated row function of entry y_j along zs,
    # (-1)^k F_(-k)(z - y_j) = E_p(k), k = n - j, p = z - y_j + k
    table = np.stack([_charlier_term(zs - y + n - j, n - j, t) for j, y in enumerate(yv, 1)], 1)

    if n == 1:
        return float(table[xv[0] - lo, 0])

    # bottom level x_n, u_1 < ... < u_(n-1) with u_1 >= x_(n-1): each tuple's
    # determinant counts once per interlacing filling of the levels between
    bottom = _increasing_tuples(np.arange(max(xv[-2], lo), hi + 1), n - 1)

    def pair_counts(w1g, w2g):
        # number of admissible middle entries for a bottom pair (w1, w2):
        # the middle entry ranges over [max(x_1, w1 + 1), w2]
        lowest = np.maximum(xv[0], w1g + 1)
        return np.maximum(w2g - lowest + 1, 0)

    if n == 2:
        counts = np.ones_like(bottom[0])
    elif n == 3:
        counts = pair_counts(*bottom)
    else:
        # n == 4: aggregate the two inner levels into a rectangle-sum table
        # over the pair below them
        w1s = np.arange(lo, hi + 1)
        w1g, w2g = np.meshgrid(w1s, w1s, indexing="ij")
        inner = np.where(w1g >= xv[1], pair_counts(w1g, w2g), 0)
        pref = np.zeros((len(w1s) + 1, len(w1s) + 1))
        pref[1:, 1:] = inner.cumsum(axis=0).cumsum(axis=1)

        def rect(a_lo, a_hi, b_lo, b_hi):
            # sum of inner over w1 in (a_lo, a_hi], w2 in (b_lo, b_hi]
            ia0 = np.clip(a_lo - lo + 1, 0, len(w1s))
            ia1 = np.clip(a_hi - lo + 1, 0, len(w1s))
            ib0 = np.clip(b_lo - lo + 1, 0, len(w1s))
            ib1 = np.clip(b_hi - lo + 1, 0, len(w1s))
            return pref[ia1, ib1] - pref[ia0, ib1] - pref[ia1, ib0] + pref[ia0, ib0]

        u1, u2, u3 = bottom
        counts = rect(np.maximum(u1, xv[1] - 1), u2, u2, u3)

    keep = counts > 0
    counts = counts[keep]
    rows = np.stack([np.full(len(counts), xv[-1]), *(u[keep] for u in bottom)], 1) - lo
    total = 0.0
    chunk = 50000
    for s in range(0, len(rows), chunk):
        total += float((counts[s : s + chunk] * np.linalg.det(table[rows[s : s + chunk]])).sum())
    return total


def gt_indicator(levels) -> int:
    """Product of one-step indicator determinants over a triangular array.

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


# ---------------------------------------------------------------------------
# The space-time correlation kernel.


def kt_kernel(
    t: float, init: InitialData, n_i: int, n_j: int, x1: int, x2: int
) -> float:
    """Conjugated space-time correlation kernel entry.

    The 1 x 1 block of _kernel_blocks with row (n_i, [x1]) and column
    (n_j, [x2]): entry (0, 1) of the two-label all x all build, to the bit.
    Labels and sites must be integers.  An infinite prefix of the data is
    removed by relabeling; both particle labels must point past it.
    """
    _check_time(t)
    base, shift = _strip_leading_inf(init)
    ni, nj = _integer(n_i, "n_i") - shift, _integer(n_j, "n_j") - shift
    if min(ni, nj) < 1:
        raise ValueError("labels must point past the infinite prefix")
    row, col = (ni, np.array([_integer(x1, "x1")])), (nj, np.array([_integer(x2, "x2")]))
    return float(_kernel_blocks(t, base, [row], [col])[0, 0])


def kt_step_closed(t: float, n_i: int, n_j: int, z1: int, z2: int) -> float:
    """Closed form of the kernel for step data, as a double residue sum.

    The kernel is term1 plus 2^(z2-z1) times the (1/2 pi i)^2 double
    integral of (1-w)^n_i (1-v)^(n_j+z2) e^(t(w+v-1)) / (w^(n_i+z1+1) v^n_j
    (1-v-w)) over small circles about 0.  The pole at w = 1 - v lies outside
    them, so both integrals are residues at 0.  With M = n_i + z1 and E as
    in special._poisson_charlier at r = t,

        K = term1 + 2^(z2-z1) e^t sum_(m=0..M) E_(M-m)(n_i) E_(n_j-1)(n_j+z2-1-m),

    and K = term1 for M < 0: one degree run at x = n_i, carrying e^t as its
    log offset, and one run at degree n_j - 1 over m.
    """
    _check_time(t)
    n_i, n_j = _integer(n_i, "n_i"), _integer(n_j, "n_j")
    z1, z2 = _integer(z1, "z1"), _integer(z2, "z2")
    if min(n_i, n_j) < 1:
        raise ValueError("labels start at 1")
    term1 = -float(q_weight(n_j - n_i, z1, z2)) if n_i < n_j else 0.0
    m_top = n_i + z1
    if m_top < 0:
        return term1
    outer = _poisson_charlier(m_top, n_i, t, log_scale=t)[::-1]
    xs = np.arange(n_j + z2 - 1, n_j + z2 - 2 - m_top, -1)
    inner = _poisson_charlier(n_j - 1, xs, t)
    return term1 + float(_exit(np.dot(outer, inner), z2 - z1))


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
    _check_time(t)
    n, z1, z2 = _integer(n, "n"), _integer(z1, "z1"), _integer(z2, "z2")
    big_n = z1 + 2 * n + 1
    if big_n < 1:
        return 0.0
    deg = big_n - 1
    (val,) = _poisson_charlier(deg, z2 + 2 * n, 2.0 * t, -1.0, -3.0 * t, z2 - z1, (deg,))
    return val if big_n % 2 else -val


# ---------------------------------------------------------------------------
# Fredholm determinants for joint one-sided probabilities.


def _joint_events(init: InitialData, events):
    """Validated events with the -inf thresholds dropped, and the data with
    its infinite prefix stripped: (kept, base, ns, a_vals, tops), with ns
    the kept labels relabeled onto base and tops the integer thresholds."""
    evs = [(_integer(nv, "labels"), float(av)) for nv, av in events]
    if not evs:
        raise ValueError("need at least one (label, threshold) event")
    if len(evs) > N_MAX_JOINT:
        raise ValueError(f"at most {N_MAX_JOINT} joint events")
    ns = [nv for nv, _ in evs]
    if any(nv < 1 for nv in ns):
        raise ValueError("labels start at 1")
    if any(ns[i] >= ns[i + 1] for i in range(len(ns) - 1)):
        raise ValueError("labels must be strictly increasing")
    if any(av == math.inf or math.isnan(av) for _, av in evs):
        raise ValueError("thresholds must be real or -inf")
    kept = [(nv, av) for nv, av in evs if av != -math.inf]
    base, shift = _strip_leading_inf(init)
    ns = [nv - shift for nv, _ in kept]
    if any(nv < 1 for nv in ns):
        raise ValueError("labels must point past the infinite prefix")
    a_vals = [av for _, av in kept]
    return kept, base, ns, a_vals, [int(math.floor(av)) for av in a_vals]


def _window_q_power(steps: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Float walk power Q^steps, steps >= 1, on a grid, overflow safe for
    deep windows.  It is Toeplitz: its values are built once along
    d = x - y and indexed."""
    d = xs[:, None] - ys[None, :]
    lo = int(d.min(initial=0))
    ds = np.arange(lo, d.max(initial=0) + 1.0)
    ok = ds >= steps
    coeff = np.ones(ds.shape)
    for i in range(steps - 1):
        coeff *= (ds - 1 - i) / (i + 1.0)
    line = np.where(ok, 2.0 ** np.where(ok, -ds, 0.0) * coeff, 0.0)
    return line[d - lo]


def _start_floor(base, ns) -> int:
    """y_lo = min (entry(n) + n) over labels ns: every label's first-passage
    rows (epi_transfer_matrix) are zero at starts below it, since a walk
    from there stays at or below entry(m + 1) at each step m.  It is at or
    above min entry(n) + 1, since entries strictly decrease."""
    return min(_entry_int(base, nv) + nv for nv in ns)


def _kernel_blocks(t, base, rows, cols):
    """The extended-kernel blocks K(n_i, g_i; n_j, g_j) for the (label,
    grid) pairs on rows and cols, stacked.  Every block sums over one start
    span: y_lo = _start_floor over all the labels, up to the largest grid
    end plus its label; a grid may be empty.  Block (i, j) is the inverse
    flow of n_i against the first-passage walk of n_j, less Q^(n_j - n_i)
    if n_i < n_j; each row pair takes one inverse flow and each column
    pair one first-passage transfer."""
    pairs = [*rows, *cols]
    y_lo = _start_floor(base, [nv for nv, _ in pairs])
    y_hi = max((int(g[-1]) + nv for nv, g in pairs if len(g)), default=y_lo - 1)
    y_lo = min(y_lo, y_hi + 1)
    ys = np.arange(y_lo, y_hi + 1)
    lefts = [_transfer_inverse_matrix(t, ni, ys, gi) for ni, gi in rows]
    rights = [epi_transfer_matrix(base, t, nj, y_lo, y_hi, gj) for nj, gj in cols]

    def block(ni, gi, left, nj, gj, right):
        blk = left.T @ right
        return blk - _window_q_power(nj - ni, gi, gj) if ni < nj else blk

    return np.concatenate([
        np.concatenate([block(*r, left, *c, right) for c, right in zip(cols, rights)], axis=1)
        for r, left in zip(rows, lefts)
    ])


def _window_rungs(build, low):
    """depth -> kernel matrix over WINDOW_DEPTHS, from build(depth), which
    gives the matrix and the site of each row on a window that reaches
    depth sites below low, the smallest threshold, or stops at its block's
    exact floor above that.  A deeper window only adds sites below, so the
    first rung is the part of the second's build at sites >= low - depth,
    and that build is held until the second rung takes it.  When every
    floor lies within the first depth, both rungs are one matrix and the
    ladder settles with error exactly 0."""
    held = {}

    def matrix(depth):
        size = max(depth, WINDOW_DEPTHS[1])
        big, sites = held.pop(size, None) or build(size)
        if depth < size:
            held[size] = big, sites
            inside = sites >= low - depth
            big = big[np.ix_(inside, inside)]
        return big

    return matrix


def multipoint_probability(t: float, init: InitialData, events, tol: float = 1e-9) -> Certified:
    """P(particle n_j is strictly right of a_j for every j), as a Fredholm
    determinant of the projected extended kernel.

    Events are (label, threshold) pairs with strictly increasing labels.
    Thresholds of -inf impose nothing and are dropped; with none left the
    probability is exactly 1.  The window below the smallest threshold
    deepens over WINDOW_DEPTHS until the determinant moves by at most tol;
    the value's certificate names the last depth; the first two depths
    share one kernel build.  A TruncationError says the depths ran out.

    Block i's window stops at its exact floor y_lo - n_i, y_lo =
    _start_floor.  The inverse flow of n_i vanishes at starts y > x + n_i
    and no block has a nonzero start below y_lo, so rows of block i below
    the floor are zero, and the one-sided Q^(n_j - n_i), which needs
    x - y >= n_j - n_i, is zero on the kept columns of later blocks.  The
    determinant is then the one on the kept sites exactly.  A rung that
    every floor caps covers the whole support: the next rung builds the
    same matrix, and the certificate's error 0 at that depth is true, not
    a ladder artefact.  Floors that cap only deeper rungs shrink them, and
    the error is the usual last change.  A floor above its threshold
    leaves an empty block, whose event is certain.
    """
    _check_time(t)
    kept, base, ns, _, tops = _joint_events(init, events)
    if not kept:
        return Certified(1.0)
    y_lo, low = _start_floor(base, ns), min(tops)

    def build(depth):
        grids = [np.arange(max(low - depth, y_lo - nv), top + 1) for nv, top in zip(ns, tops)]
        pairs = list(zip(ns, grids))
        return _kernel_blocks(t, base, pairs, pairs), np.concatenate(grids)

    matrix = _window_rungs(build, low)
    return _settle(lambda depth: det_window(matrix(depth)), WINDOW_DEPTHS, tol)


def path_integral_probability(
    t: float, init: InitialData, events, tol: float = 1e-9
) -> Certified:
    """Same probability as multipoint_probability, via the path-integral
    identity (Borodin-Corwin-Remenik, arXiv:1301.7450): one determinant at
    the last label, with walk powers and one-sided projections carrying
    the earlier constraints.

    The route reads the extended-kernel blocks K(n_m, n_s) of the last
    label against each label, from _kernel_blocks as multipoint_probability
    builds them; what it checks on its own is the identity.  With
    chi_s = 1{x <= a_s} and its complement chib_s = 1 - chi_s, the
    determinant's matrix is the product

        sum_s K(n_m, n_s) chi_s Q^(n_(s+1) - n_s) chib_(s+1) ... Q^(n_m - n_(m-1)) chib_m,

    accumulated left to right as acc <- (acc + K(n_m, n_s) chi_s)
    Q^(n_(s+1) - n_s) chib_(s+1), with K(n_m, n_m) chi_m added last.
    Expanding each complement chib = 1 - chi gives the signed sum over
    constraint subsets that the identity states, grouped by each subset's
    first label s; walk powers compose, Q^a Q^b = Q^(a+b), on the grid,
    since a sum over an intermediate site stays between its two ends.
    Every term keeps columns at or below the largest threshold, and
    forward powers reach only left, so the grid ends there and the first
    two depths share one build.

    The grid stops at the last label's exact floor y_lo - n_last: below it
    the rows of every term vanish, as in multipoint_probability, and for
    a kept column a product's sum over an intermediate site at label n_j
    reaches only sites at or above y_lo - n_j, which is not below that
    floor.  Capped rungs certify as there.
    """
    _check_time(t)
    kept, base, ns, a_vals, tops = _joint_events(init, events)
    if not kept:
        return Certified(1.0)
    y_lo, low = _start_floor(base, ns), min(tops)

    def build(depth):
        grid = np.arange(max(low - depth, y_lo - ns[-1]), max(tops) + 1)
        row = _kernel_blocks(t, base, [(ns[-1], grid)], [(nv, grid) for nv in ns])
        below = [grid <= av for av in a_vals]
        acc = 0.0
        for s, blk in enumerate(np.hsplit(row, len(ns))):
            if s:
                acc = (acc @ _window_q_power(ns[s] - ns[s - 1], grid, grid)) * ~below[s]
            acc = acc + blk * below[s]
        return acc, grid

    matrix = _window_rungs(build, low)
    return _settle(lambda depth: det_window(matrix(depth)), WINDOW_DEPTHS, tol)


# ---------------------------------------------------------------------------
# Two-level block cross check against the conditional ensemble machinery.


def bfps_l_verify(
    init: InitialData, t: float, window: tuple[int, int], trials: int = 100
) -> dict:
    """Cross-check the kernel against the block two-level ensemble.

    Builds the block interaction matrix on virtual labels {1, 2} plus two
    site levels over the window, converts it to a correlation kernel
    through the conditional-ensemble inversion, and compares the level-1
    diagonal block against the first-passage kernel (after unconjugating).
    Ensemble minors are compared with the two-level determinant weights up
    to one global sign, and the interlacing indicator identity is exercised
    on random arrays.  Returns a dict of deviation diagnostics.  Raises
    WindowError, naming a window that works, unless the window covers the
    sampled sites [entry(2) - 6, entry(1) + 10].
    """
    _check_time(t)
    if init.n_finite != 2 or _leading_inf(init):
        raise ValueError("this check is specific to two finite particles")
    lo, hi = int(window[0]), int(window[1])
    e1 = _entry_int(init, 1)
    e2 = _entry_int(init, 2)
    span_lo, span_hi = e2 - 6, e1 + 10
    if lo > span_lo or hi < span_hi:
        raise WindowError(
            f"window [{lo}, {hi}] must cover the checked sites [{span_lo}, {span_hi}]; "
            f"try [{min(lo, span_lo)}, {max(hi, span_hi)}]"
        )
    sites = list(range(lo, hi + 1))
    width = len(sites)
    space = [("label", 1), ("label", 2)]
    space += [(1, z) for z in sites] + [(2, z) for z in sites]
    L = np.zeros((len(space), len(space)))
    L[0, 2 : 2 + width] = 1.0  # virtual row j feeds level j with unit weight
    L[1, 2 + width :] = 1.0
    L[2 : 2 + width, 2 + width :] = -np.tri(width, k=-1)  # -1 where level 1 is right of level 2
    for j, e in ((1, e1), (2, e2)):
        # level 2's unconjugated row function psi(2, 2 - j) attached to entry j
        L[2 + width :, j - 1] = _charlier_term(np.array(sites) - e + 2 - j, 2 - j, t)
    spec = LEnsembleSpec(space, L, conditioning_subset=space[2:])
    dpp = conditional_l_to_k(spec)

    grid = np.arange(max(e2 - 12, lo + 8), min(e1 + 12, hi - 8) + 1)
    at = [dpp.index[(1, x)] for x in grid.tolist()]
    got = dpp.kernel[np.ix_(at, at)]
    want = _kernel_blocks(t, init, [(1, grid)], [(1, grid)])
    want = np.ldexp(want, grid[:, None] - grid[None, :])
    max_dev = float(np.abs(got - want).max())

    rng = np.random.default_rng(7)
    draws, interlaced = [], []
    for _ in range(200):
        z11, z21, z22 = rng.integers(span_lo, span_hi + 1, size=3).tolist()
        if z21 == z22:
            continue
        z21, z22 = sorted((z21, z22))
        draws.append([0, 1] + sorted(spec.index_of(p) for p in [(1, z11), (2, z21), (2, z22)]))
        interlaced.append(gt_indicator([(z11,), (z21, z22)]))
    idx = np.array(draws)
    minor = np.linalg.det(L[idx[:, :, None], idx[:, None, :]])
    # a draw's last two indices are level 2's: the psi rows of z21, z22 from L
    weight = np.where(interlaced, np.linalg.det(L[idx[:, 3:], :2]), 0.0)
    # one global sign, read off the first weight that is not round-off
    big = np.flatnonzero(abs(weight) > 1e-12)
    k = big[0] if len(big) else len(weight)
    sign = math.copysign(1.0, minor[k] * weight[k]) if len(big) else 0.0
    ref = np.where(np.arange(len(weight)) < k, 1.0, sign)  # the draws before it compare unsigned
    max_weight_dev = float(np.abs(minor - ref * weight).max(initial=0.0))

    mism = 0
    for _ in range(trials):
        size = int(rng.integers(2, 6))
        arr = [sorted(rng.integers(-6, 7, size=m).tolist()) for m in range(1, size + 1)]
        pairs = [(arr[m], arr[m - 1], i) for m in range(1, size) for i in range(m)]
        ok = all(low[i] < up[i] <= low[i + 1] for low, up, i in pairs)
        mism += gt_indicator(arr) != ok

    return {
        "max_kernel_dev": max_dev,
        "weight_sign": sign,
        "max_weight_dev": max_weight_dev,
        "indicator_mismatches": mism,
        "window": (lo, hi),
    }
