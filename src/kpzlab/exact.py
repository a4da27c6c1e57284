"""Exact finite-N TASEP distributions.

Transition probabilities as determinants, their rewriting as a sum over
interlacing triangular arrays (its bottom level summed in closed form, so
N = 4 sums over pairs, not triples), the first-passage (random-walk) form
of the kernel, and the Fredholm determinants for joint one-sided probabilities in
both extended-kernel and path-product form.  The kernel has one evaluation
path here, _kernel_blocks; its biorthogonal form with the backwards-heat
construction, the closed residue forms and the 1 x 1 transfer entries are
independent routes that only check it, and they live with the tests in
tests/exact_oracles.py.

Conventions used throughout: particles are labeled 1, 2, ... from right to
left with strictly decreasing positions, jumps go right, and the geometric
left-walk weight is w(x, y) = 2^(y-x) for y < x.  Kernels are stored in the
powers-of-2 conjugated normalization, which is the summable one on windows;
the unconjugated objects differ by a factor 2^(x2-x1) per entry and are used
only where a determinant needs them (the interlacing-array weights and the
block two-level cross check).

Every object here is a finite sum; no value comes from a contour integral
or a truncated series.  Every alternating Poisson sum is a Poisson weight
times a Charlier polynomial from special._poisson_charlier's forward
recurrence, so no direct sum cancels, from t = 0 to the 1:2:3 scaling at
eps = 0.005 (t ~ 5657).  Each caller passes its power of 2
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
its stops, each reading its own degree.  The Fredholm windows, their
exact floors and the clamps of far thresholds follow one rule, stated in
multipoint_probability and shared by both routes.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np
from scipy.special import pdtrc

from .dpp import conditional_l_to_k
from .fredholm import MAX_STACKED_ROWS, Certified, _settle, det_window
from .fredholm import ConvergenceError as TruncationError  # the window depths ran out
from .simulate import InitialData, jump_bound
from .special import (
    _RESCALE,
    _SCHUETZ_T_MAX,
    _charlier_term,
    _check_schuetz_time,
    _check_time,
    _exit,
    _integer,
    _integers,
    _poisson_charlier,
    _schuetz_F,
)

N_MAX_ARRAY_SUM = 4  # the array sum counts the fillings above its free row up to this N
# the events path_integral_probability takes: past them its product cancels
# (see its docstring), a limit of the route in float64, not of the formula
N_MAX_PATH = 4
# window depths below the events: kernel columns decay like 2^z to the left
# of the data, and rows vanish below each label's exact floor, where a
# window stops short of its depth
WINDOW_DEPTHS = (48, 96, 192, 384, 768)


class WindowError(ValueError):
    """Raised when a requested window cannot reach the target accuracy."""


# ---------------------------------------------------------------------------
# The two transfer matrices of the extended kernel.


def _transfer_inverse_matrix(t: float, n: int, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The adjoint of the backward half-heat flow composed with n inverse
    walk steps, on a (start, target) grid.  It vanishes for y - x > n and
    decays like 2^(y-x) leftwards.

    Entry (y, x) is 2^n E_p(n) at r = t/2, p = n + x - y, and 0 for p < 0:
    a Toeplitz matrix that one run of the recurrence over p fills.  The run
    is accurate norm-wise, not per entry (see the module docstring).
    """
    p = n + xs[None, :] - ys[:, None]
    p_max = int(p.max(initial=-1))
    if p_max < 0:
        return np.zeros(p.shape)
    run = np.array(_poisson_charlier(p_max, n, t, 0.5, exp2=n))
    return np.where(p >= 0, run[np.maximum(p, 0)], 0.0)


def epi_transfer_matrix(
    init: InitialData, t: float, n: int, y_lo: int, y_hi: int, z2s
) -> np.ndarray:
    """First-passage average of the extended transfer kernel.

    Entry (iy, iz) averages the extended transfer of n - m walk steps,
    2^a E_(n-m-1)(a) at r = t/2 and a = z2s[iz] - B_m + n - m - 1, over
    the walk from B_0 = y_lo + iy that steps left by j with probability
    2^(-j) and stops at the first m < n with B_m > entry(m + 1); a walk
    that never stops gives 0.  It is one backward sweep in m: with V_m the
    average for a walk alive after step m, and U_m the transfer where step
    m stops and V_m elsewhere, V_(m-1) = Q U_m.  Q is one left step,
    (QU)(b) = (U(b-1) + (QU)(b-1)) / 2, taken in log2 doubling passes.  An
    integer pass fixes the steps and rows: live positions lie at or below
    a top cut at each stop, and rows below entry(n) + n - m after step m
    are zero, as entries strictly decrease.  Stop m needs the extended
    transfer block of degree n - 1 - m, and every stop reads its block
    from one Charlier run over the union of their spans in a, which hands
    out each degree as the sweep rises to it.  The
    recurrence works on each a alone and renormalises by exact powers of
    2, so the blocks keep the bits of a run per stop, and rows above
    entry(1) are the transfer's values.
    Entries are accurate relative to the largest term, not per entry: on
    half-flat data at t = 50, n = 60, (y, z2) = (0, -10) the walk average
    is 3.76e-6, and this gives about -1e6 from terms up to 6e21.
    """
    t = _check_time(t)
    n, y_lo, y_hi = _integer(n, "n"), _integer(y_lo, "y_lo"), _integer(y_hi, "y_hi")
    if n < 1:
        raise ValueError("depth must be at least 1")
    z2s = _integers(z2s, "each target z2")
    floor = init.entry(n) + n
    steps, top = [], y_hi + 1  # (top, cut): step m stops cut..top
    for m in range(n):
        top -= 1
        cut = min(init.entry(m + 1), top) + 1
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


# ---------------------------------------------------------------------------
# Transition probabilities: determinant and interlacing-array sum.


def _weyl_tuple(vec, name: str) -> tuple[int, ...]:
    """vec as a strictly decreasing tuple of Python ints.  A tuple of one to
    three Python ints in that order passes as it is, on one chained test;
    anything else is converted entry by entry and then checked."""
    if type(vec) is tuple:
        if len(vec) == 2:
            a, b = vec
            if type(a) is type(b) is int and a > b:
                return vec
        elif len(vec) == 3:
            a, b, c = vec
            if type(a) is type(b) is type(c) is int and a > b > c:
                return vec
        elif len(vec) == 1 and type(vec[0]) is int:
            return vec
    out = tuple([_integer(v, name) for v in vec])
    if not all(map(operator.gt, out, out[1:])):
        raise ValueError(f"{name} must be strictly decreasing")
    return out


def schuetz_transition(x, y, t: float) -> float:
    """Transition probability from configuration y to x in time t >= 0, as
    the N x N determinant det[F_(i-j)(x_(N+1-i) - y_(N+1-j), t)] of
    index-shifted one-particle kernels.  At N = 1 it is the entry itself,
    F_0(x - y, t).  Sites must be integral and strictly decreasing, and t
    in [0, 2^16], as for special.schuetz_F; a tuple of Python ints and a
    Python float pass these checks without a copy.  The entries are then
    read from schuetz_F's memo directly, row by row, and _small_det takes
    the determinant: a call costs its N^2 memo reads and one LU of N^3/3
    steps in Python, at any N >= 1.  Up to N = 3 the rows are written out,
    so they read the same entries in the same order as the general N."""
    xv = _weyl_tuple(x, "x")
    yv = _weyl_tuple(y, "y")
    n = len(xv)
    if len(yv) != n:
        raise ValueError("configurations must have equal size")
    if n == 0:
        raise ValueError("need N >= 1")
    if type(t) is not float or not 0.0 <= t <= _SCHUETZ_T_MAX:
        t = _check_schuetz_time(t)
    F = _schuetz_F
    # entry (i, j) from 0 is F_(i-j)(x_(N-i) - y_(N-j))
    if n == 1:
        rows = [[F(0, xv[0] - yv[0], t)]]
    elif n == 2:
        (x1, x2), (y1, y2) = xv, yv
        rows = [[F(0, x2 - y2, t), F(-1, x2 - y1, t)], [F(1, x1 - y2, t), F(0, x1 - y1, t)]]
    elif n == 3:
        (x1, x2, x3), (y1, y2, y3) = xv, yv
        rows = [
            [F(0, x3 - y3, t), F(-1, x3 - y2, t), F(-2, x3 - y1, t)],
            [F(1, x2 - y3, t), F(0, x2 - y2, t), F(-1, x2 - y1, t)],
            [F(2, x1 - y3, t), F(1, x1 - y2, t), F(0, x1 - y1, t)],
        ]
    else:
        xr, yr = xv[::-1], yv[::-1]
        rows = [[F(i - j, xi - yj, t) for j, yj in enumerate(yr)] for i, xi in enumerate(xr)]
    return _small_det(rows)


def _small_det(rows: list[list[float]]) -> float:
    """Determinant of an N x N matrix of Python floats, N >= 1, by LU with
    partial pivoting, the algorithm and error bound of LAPACK's getrf,
    without numpy's fixed cost per call.  A column with no nonzero pivot
    left gives +0.0.  The loop reduces the rows in place; for
    N <= 3 the same steps are written out on local names and leave the rows
    as they are: the first largest |entry| pivots, each multiplier is
    row[k] / pivot and each update row[j] - f * pivot_row[j], and the
    product of the pivots is taken in order, with the sign of the row swaps
    applied last, which rounds the same since rounding is symmetric in
    sign.  The bits are those of the loop for every input.  It multiplies
    its pivots directly, where np.linalg.det (fredholm.det_window) sums
    their logarithms and exponentiates, so the two can differ in the last
    bits."""
    n = len(rows)
    if n == 1:
        (a,), = rows
        return a if a else 0.0  # a -0.0 pivot gives +0.0, as in the loop
    if n == 2:
        (a, b), (c, d) = rows
        if abs(c) > abs(a):
            u = b - a / c * d
            return 0.0 if u == 0.0 else -(c * u)
        if a == 0.0:
            return 0.0
        u = d - c / a * b
        return 0.0 if u == 0.0 else a * u
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
        odd = False
        if abs(b0) > abs(a0):
            if abs(c0) > abs(b0):
                a0, a1, a2, c0, c1, c2 = c0, c1, c2, a0, a1, a2
            else:
                a0, a1, a2, b0, b1, b2 = b0, b1, b2, a0, a1, a2
            odd = True
        elif abs(c0) > abs(a0):
            a0, a1, a2, c0, c1, c2 = c0, c1, c2, a0, a1, a2
            odd = True
        if a0 == 0.0:
            return 0.0
        f = b0 / a0
        b1, b2 = b1 - f * a1, b2 - f * a2
        f = c0 / a0
        c1, c2 = c1 - f * a1, c2 - f * a2
        if abs(c1) > abs(b1):
            b1, b2, c1, c2 = c1, c2, b1, b2
            odd = not odd
        if b1 == 0.0:
            return 0.0
        c2 = c2 - c1 / b1 * b2
        if c2 == 0.0:
            return 0.0
        det = a0 * b1 * c2
        return -det if odd else det
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
    [lo, hi] = [min(x,y) - pad, max(x,y) + pad].  Each array weighs the
    determinant of the row functions T = (E_p(N - j) of entry y_j) at its
    bottom row (x_N, u_1 < ... < u_(N-1)), so the bottom level is summed in
    closed form.  With the free row above it w_1 < ... < w_(N-2), each u_k
    runs over an interval, [x_(N-1), w_1), then [w_(k-1), w_k), then
    [w_(N-2), hi], and the determinant is linear in each row: with the
    prefix sums Q(w) = sum of T(u) over x_(N-1) <= u < w, adding each row
    to the next leaves det[T(x_N); Q(w_1); ...; Q(w_(N-2)); Q(hi + 1)],
    counted once per filling of the levels above.  That count is 1 for
    N <= 3 and #v in [max(x_1, w_1 + 1), w_2] for N = 4, so N = 2 is one
    2 x 2 determinant, N = 3 about L = hi - lo + 1 of size 3 and N = 4 at
    most C(L, 2) of size 4.
    """
    t = _check_time(t)
    xv = _weyl_tuple(x, "x")
    yv = _weyl_tuple(y, "y")
    n = len(xv)
    if len(yv) != n:
        raise ValueError("configurations must have equal size")
    if not 1 <= n <= N_MAX_ARRAY_SUM:
        raise ValueError(f"array sum implemented for N <= {N_MAX_ARRAY_SUM}")
    pad = _integer(pad, "pad")
    if pad < 1:
        raise ValueError("pad must be positive")
    lo = min(min(xv), min(yv)) - pad
    hi = max(max(xv), max(yv)) + pad
    return _array_sum_value(xv, yv, t, lo, hi)


def _row_functions(zs, ys, t):
    """Unconjugated row functions along the sites zs, column j for entry y_j
    of ys: (-1)^k F_(-k)(z - y_j) = E_p(k), k = len(ys) - j, p = z - y_j + k."""
    n = len(ys)
    return np.stack([_charlier_term(zs - y + n - j, n - j, t) for j, y in enumerate(ys, 1)], 1)


def _array_sum_value(xv, yv, t, lo, hi):
    n = len(xv)
    table = _row_functions(np.arange(lo, hi + 1), yv, t)

    if n == 1:
        return float(table[xv[0] - lo, 0])

    # row w - x_(n-1) of prefix is Q(w), for w in [x_(n-1), hi + 1]
    prefix = np.zeros((hi + 2 - xv[-2], n))
    np.cumsum(table[xv[-2] - lo :], axis=0, out=prefix[1:])
    # the free row w_1 < ... < w_(n-2) starts at x_(n-2), and the count of
    # fillings above it is 1 up to n = 3; it has at most two entries, and
    # triu_indices gives its pairs in itertools.combinations' order
    if n == 2:
        ws, counts = (), np.ones(1)
    else:
        free = np.arange(xv[-3], hi + 1)
        ws = (free,) if n == 3 else tuple(free[i] for i in np.triu_indices(len(free), 1))
        counts = np.ones(len(ws[0]))
        if n == 4:  # the level-2 entry runs over [max(x_1, w_1 + 1), w_2]
            counts = np.maximum(ws[1] - np.maximum(xv[0], ws[0] + 1) + 1, 0)
    keep = counts > 0
    counts = counts[keep]
    rows = np.stack([*(w[keep] for w in ws), np.full(len(counts), hi + 1)], 1) - xv[-2]
    bottom = np.broadcast_to(table[xv[-1] - lo], (len(counts), 1, n))
    return float((counts * np.linalg.det(np.concatenate([bottom, prefix[rows]], 1))).sum())


def gt_indicators(arrays) -> list[int]:
    """For each triangular array, the product of its one-step indicator
    determinants: 1 exactly when consecutive rows interlace (the previous
    row extended by a virtual +infinity entry), else 0.  The empty array
    gives 1.

    Level m of an array is the m x m matrix [1{a > b}] of the previous row
    plus +infinity against row m, padded with an identity block to the
    largest array's size, and one stacked determinant serves every level
    of the batch.  The levels' entries go into one NaN-padded float array
    in a single pass, and each level's previous row is the array row above
    it.  A level m without m entries raises ValueError naming m.
    """
    arrays = [list(levels) for levels in arrays]
    counts = [len(levels) for levels in arrays]
    ms = [m for count in counts for m in range(1, count + 1)]
    lens = [len(row) for levels in arrays for row in levels]
    if lens != ms:
        m = next(m for m, k in zip(ms, lens) if k != m)
        raise ValueError(f"level {m} must have {m} entries")
    entries = itertools.chain.from_iterable(itertools.chain.from_iterable(arrays))
    ms = np.array(ms, dtype=int)
    size = max(counts, default=0)
    # per level, the row and the previous row plus +inf, NaN-padded to size:
    # a NaN compares False, so the comparison is zero outside the m x m block
    rows = np.full((len(ms), size), math.nan)
    rows[np.arange(size) < ms[:, None]] = np.fromiter(entries, float, count=sum(lens))
    # a level's previous row is the row above it; a first level has none
    prevs = np.where((ms > 1)[:, None], np.roll(rows, 1, axis=0), math.nan)
    prevs[np.arange(len(ms)), ms - 1] = math.inf
    mats = (prevs[:, :, None] > rows[:, None, :]).astype(float)
    diag = mats.reshape(len(ms), size * size)[:, :: size + 1]
    diag += np.arange(size) >= ms[:, None]
    dets = iter(map(round, np.linalg.det(mats).tolist()))
    return [math.prod(itertools.islice(dets, count)) for count in counts]


# ---------------------------------------------------------------------------
# The space-time correlation kernel.


def kt_kernel(t: float, init: InitialData, n_i: int, n_j: int, x1, x2):
    """Conjugated space-time correlation kernel K(n_i, x1; n_j, x2).

    The block of _kernel_blocks with row (n_i, x1) and column (n_j, x2).
    For integer sites x1 and x2 it is the entry, a float: entry (0, 1) of
    the two-label all x all build, to the bit.  For 1-D integer arrays it
    is the window of shape (len(x1), len(x2)), one build; a scalar beside
    an array counts as a 1-D array of one site.  Labels and sites must be
    integers.
    """
    t = _check_time(t)
    ni, nj = _integer(n_i, "n_i"), _integer(n_j, "n_j")
    x1, x2 = _integers(x1, "x1"), _integers(x2, "x2")
    if x1.ndim > 1 or x2.ndim > 1:
        raise ValueError("sites must be integers or 1-D integer arrays")
    window = _kernel_blocks(t, init, [(ni, x1.reshape(-1))], [(nj, x2.reshape(-1))])
    return float(window[0, 0]) if x1.ndim == x2.ndim == 0 else window


def kt_step_closed(t: float, n_i: int, n_j: int, z1: int, z2: int) -> float:
    """Closed form of the kernel for step data, as a double residue sum.

    The kernel is term1 plus 2^(z2-z1) times the (1/2 pi i)^2 double
    integral of (1-w)^n_i (1-v)^(n_j+z2) e^(t(w+v-1)) / (w^(n_i+z1+1) v^n_j
    (1-v-w)) over small circles about 0.  The pole at w = 1 - v lies outside
    them, so both integrals are residues at 0.  With M = n_i + z1 and E as
    in special._poisson_charlier at r = t,

        K = term1 + 2^(z2-z1) e^t sum_(m=0..M) E_(M-m)(n_i) E_(n_j-1)(n_j+z2-1-m),

    and K = term1 for M < 0: one degree run at x = n_i, carrying e^t as its
    log offset, and one run at degree n_j - 1 over m.  A negative exponent
    z2 - z1 rides in the second run and a positive one is applied after the
    dot product, so neither overflows the sum before 2^(z2-z1) applies.
    """
    t = _check_time(t)
    n_i, n_j = _integer(n_i, "n_i"), _integer(n_j, "n_j")
    z1, z2 = _integer(z1, "z1"), _integer(z2, "z2")
    if min(n_i, n_j) < 1:
        raise ValueError("labels start at 1")
    # term1 = -Q^s(z1, z2), the s-step walk weight C(d - 1, s - 1) / 2^d;
    # int / int division rounds it once, past the double range too
    s, d = n_j - n_i, z1 - z2
    term1 = -(math.comb(d - 1, s - 1) / 2**d) if 0 < s <= d else 0.0
    m_top = n_i + z1
    if m_top < 0:
        return term1
    outer = _poisson_charlier(m_top, n_i, t, log_scale=t)[::-1]
    xs = np.arange(n_j + z2 - 1, n_j + z2 - 2 - m_top, -1)
    # a negative 2^(z2-z1) rides in the inner run, so the dot product
    # cannot overflow before it applies; a positive one applies after it
    inner = _poisson_charlier(n_j - 1, xs, t, exp2=min(z2 - z1, 0))
    return term1 + float(_exit(np.dot(outer, inner), max(z2 - z1, 0)))


# ---------------------------------------------------------------------------
# Fredholm determinants for joint one-sided probabilities.


def _joint_events(events):
    """Validated events, at least one and any number, read once from any
    iterable, with the -inf thresholds dropped: (kept, ns, tops), with ns
    the kept labels and tops their thresholds rounded down."""
    evs = [(_integer(nv, "labels"), float(av)) for nv, av in events]
    if not evs:
        raise ValueError("need at least one (label, threshold) event")
    ns = [nv for nv, _ in evs]
    if any(nv < 1 for nv in ns):
        raise ValueError("labels start at 1")
    if any(ns[i] >= ns[i + 1] for i in range(len(ns) - 1)):
        raise ValueError("labels must be strictly increasing")
    if any(av == math.inf or math.isnan(av) for _, av in evs):
        raise ValueError("thresholds must be real or -inf")
    kept = [(nv, av) for nv, av in evs if av != -math.inf]
    return kept, [nv for nv, _ in kept], [math.floor(av) for _, av in kept]


def _window_q_power(steps: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Float walk power Q^steps, steps >= 1, on a grid: C(d - 1, steps - 1)
    2^-d at d = x - y >= steps, else 0.  It is Toeplitz: its values are
    built once along d and indexed.

    The binomial is the running product of (d - 1 - i) / (i + 1), and each
    entry carries its own exact power of 2 beside it, applied with ldexp
    at the end, so a binomial past the double range (C(1199, 599) ~ 1e359)
    gives its finite value.  Two Python floats bound how far any entry has
    risen and how far one with d >= steps, whose partial products are
    binomials, has fallen; once either passes _RESCALE every entry is
    renormalised into [1/2, 1).  Where the product stays a normal double
    the bits are those of the plain product times 2^-d."""
    d = xs[:, None] - ys[None, :]
    lo, hi = int(d.min(initial=0)), int(d.max(initial=0))
    ds = np.arange(lo, hi + 1)
    ok = ds >= steps
    coeff, exp2 = np.ones(ds.shape), 0
    low = max(lo, steps) - 1  # the smallest d - 1 with d >= steps
    up = down = 1.0
    for i in range(steps - 1):
        coeff *= (ds - 1 - i) / (i + 1.0)
        up *= max(1.0, max(abs(lo - 1 - i), abs(hi - 1 - i)) / (i + 1.0))
        down *= max(1.0, (i + 1.0) / (low - i))
        if up > _RESCALE or down > _RESCALE:
            coeff, f = np.frexp(coeff)
            exp2 += f
            up = down = 1.0
    return np.ldexp(np.where(ok, coeff, 0.0), exp2 - ds)[d - lo]


def _start_floor(init, ns) -> int:
    """y_lo = min (entry(n) + n) over labels ns: every label's first-passage
    rows (epi_transfer_matrix) are zero at starts below it, since a walk
    from there stays at or below entry(m + 1) at each step m.  It is at or
    above min entry(n) + 1, since entries strictly decrease."""
    return min(init.entry(nv) + nv for nv in ns)


def _finite(t, label, factor, m):
    """m, the inverse flow or first-passage factor of label, or
    TruncationError if an entry left the double range."""
    if not np.isfinite(m).all():
        raise TruncationError(
            f"at t = {t!r} the {factor} of label {label} left the double range, so the"
            " kernel, a product of the two factors, is NaN or inf on every window; a"
            " smaller t keeps the factors in range"
        )
    return m


def _kernel_blocks(t, init, rows, cols):
    """The extended-kernel blocks K(n_i, g_i; n_j, g_j) for the (label,
    grid) pairs on rows and cols, stacked.  Every block sums over one start
    span: y_lo = _start_floor over all the labels, up to the largest grid
    end plus its label; a grid may be empty.  Block (i, j) is the inverse
    flow of n_i against the first-passage walk of n_j, less Q^(n_j - n_i)
    if n_i < n_j; each row pair takes one inverse flow and each column
    pair one first-passage transfer.  An entry of a factor past the double
    range would make its blocks NaN or inf, so each factor is checked once,
    before any product, and raises TruncationError naming t and the label."""
    pairs = [*rows, *cols]
    y_lo = _start_floor(init, [nv for nv, _ in pairs])
    y_hi = max((int(g[-1]) + nv for nv, g in pairs if len(g)), default=y_lo - 1)
    y_lo = min(y_lo, y_hi + 1)
    ys = np.arange(y_lo, y_hi + 1)
    lefts = [
        _finite(t, ni, "inverse flow", _transfer_inverse_matrix(t, ni, ys, gi))
        for ni, gi in rows
    ]
    rights = [
        _finite(t, nj, "first-passage factor", epi_transfer_matrix(init, t, nj, y_lo, y_hi, gj))
        for nj, gj in cols
    ]

    def block(ni, gi, left, nj, gj, right):
        blk = left.T @ right
        return blk - _window_q_power(nj - ni, gi, gj) if ni < nj else blk

    return np.concatenate([
        np.concatenate([block(*r, left, *c, right) for c, right in zip(cols, rights)], axis=1)
        for r, left in zip(rows, lefts)
    ])


def _joint_probability(t, init, events, tol, window) -> Certified:
    """The window ladder of both routes, by the rule multipoint_probability
    states; window(t, init, ns, tops, y_lo, low, depth) gives the matrix and
    the site of each row on the rung of that depth."""
    t = _check_time(t)
    kept, ns, tops = _joint_events(events)
    if not kept:
        return Certified(1.0)
    y_lo = _start_floor(init, ns)
    floor, reach = y_lo - ns[-1], jump_bound(t)
    entries = [init.entry(nv) for nv in ns]
    tops = [min(max(top, floor - 1), e + reach) for top, e in zip(tops, entries)]
    low = min(tops)
    held, missed, bounds = {}, [], []

    def det_at(depth):
        # a deeper window only adds sites below, so the first rung is the
        # part of the second's build at sites >= low - depth, held for it
        size = max(depth, WINDOW_DEPTHS[1])
        big, sites = held.pop(size, None) or window(t, init, ns, tops, y_lo, low, size)
        if depth < size:
            held[size] = big, sites
            inside = sites >= low - depth
            big = big[np.ix_(inside, inside)]
        value = det_window(big)
        if low - depth > floor:  # short of the floors: does it reach the particles?
            if not bounds:  # P(X_t(n) > a) <= P(Poisson(t) > a - entry(n))
                bounds.extend(pdtrc(a - e, t) if a >= e else 1.0 for a, e in zip(tops, entries))
            if value > min(bounds) + tol:  # no, it is more than tol off: NaN is within no tol
                missed.append(depth)
                return math.nan
        return value

    try:
        return _settle(det_at, WINDOW_DEPTHS, tol)
    except TruncationError as err:
        if not missed:
            raise
        label, threshold = kept[bounds.index(min(bounds))]
        raise TruncationError(
            f"threshold {threshold!r} of label {label} at t = {t!r}: the depths {tuple(missed)} "
            f"miss the particles, their determinants more than tol above the bound "
            f"{min(bounds):.3g} that the particle's own jumps put on the event; {err}"
        ) from err


def _extended_window(t, init, ns, tops, y_lo, low, depth):
    """multipoint_probability's rung: the projected extended kernel, one
    block per event, refused past MAX_STACKED_ROWS rows before any build."""
    grids = [np.arange(max(low - depth, y_lo - nv), top + 1) for nv, top in zip(ns, tops)]
    rows = sum(map(len, grids))
    if rows > MAX_STACKED_ROWS:
        raise ValueError(f"{len(ns)} events at depth {depth} stack a {rows} x {rows} window, past the"
                         f" {MAX_STACKED_ROWS} rows of fredholm.MAX_STACKED_ROWS; use fewer events")
    pairs = list(zip(ns, grids))
    return _kernel_blocks(t, init, pairs, pairs), np.concatenate(grids)


def _path_window(t, init, ns, tops, y_lo, low, depth):
    """path_integral_probability's rung: the path product on one grid,
    balanced."""
    if len(ns) > N_MAX_PATH:
        raise ValueError(
            f"path_integral_probability takes at most {N_MAX_PATH} events, got {len(ns)}: past"
            " that its product loses digits to cancellation (up to 1e-11 off at six events and"
            " 8e-8 at ten, at t <= 2); multipoint_probability takes any number"
        )
    grid = np.arange(max(low - depth, y_lo - ns[-1]), max(tops) + 1)
    row = _kernel_blocks(t, init, [(ns[-1], grid)], [(nv, grid) for nv in ns])
    below = [grid <= top for top in tops]
    acc = 0.0
    for s, blk in enumerate(np.hsplit(row, len(ns))):
        if s:
            acc = (acc @ _window_q_power(ns[s] - ns[s - 1], grid, grid)) * ~below[s]
        acc = acc + blk * below[s]
    if np.isfinite(acc).all():  # a NaN or inf matrix goes to det_window as it is
        acc = _balanced(acc)
    return acc, grid


def _balanced(m):
    """D^-1 m D for a diagonal D of powers of 2, so every entry keeps its
    bits and the determinant its value.  Each sweep scales row i by 2^-e_i
    and column i by 2^e_i, e_i = trunc(log2(r_i / c_i) / 2) for the
    absolute row and column sums r_i and c_i, all i at once, until no e_i
    moves or 64 sweeps have run."""
    for _ in range(64):
        a = np.abs(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.trunc(np.log2(a.sum(axis=1) / a.sum(axis=0)) / 2)
        e = np.where(np.isfinite(e), e, 0.0).astype(int)
        if not e.any():
            return m
        m = np.ldexp(m, e[None, :] - e[:, None])
    return m


def multipoint_probability(t: float, init: InitialData, events, tol: float = 1e-9) -> Certified:
    """P(particle n_j is strictly right of a_j for every j), as a Fredholm
    determinant of the projected extended kernel.

    Events are (label, threshold) pairs with strictly increasing labels,
    at least one and any number of them.  Thresholds of -inf impose nothing
    and are dropped; with none left the probability is exactly 1.  The
    matrix has one block per kept event, each of up to the depth plus the
    spread of the thresholds rows, so its size grows with the event count;
    a rung past fredholm.MAX_STACKED_ROWS rows raises ValueError before
    its build.

    The window rule.  Block i holds the sites from max(low - depth,
    y_lo - n_i) up to its threshold, with low the smallest threshold and
    y_lo = _start_floor; depth walks WINDOW_DEPTHS until the determinant
    moves by at most tol, the certificate names the last depth, and the
    first two depths share one kernel build.  y_lo - n_i is block i's
    exact floor: the inverse flow of n_i vanishes at starts y > x + n_i and
    no block has a nonzero start below y_lo, so rows of block i below it
    are zero, and the one-sided Q^(n_j - n_i), which needs x - y >=
    n_j - n_i, is zero on the kept columns of later blocks.  A rung that
    every floor caps is the whole support, and its error 0 is true.  A
    threshold below its floor leaves an empty block, a certain event, and
    one below the lowest floor clamps to one site under it.  X_t(n) -
    entry(n) is at most n's own Poisson(t) clock count, so a threshold
    past entry(n) + simulate.jump_bound(t) clamps there, moving the value
    by at most 2^-60, and P(Poisson(t) > a_j - entry(n_j)) bounds the
    value.  A rung short of the floors more than tol above that bound is
    more than tol off, as a window right of the particles is: the ladder
    never compares it, and a TruncationError names the threshold when such
    rungs left no two to agree.
    """
    return _joint_probability(t, init, events, tol, _extended_window)


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
    floor.  Both routes share the rest of the window rule.

    The matrix is one grid whatever the event count, but its entries span
    powers of 2 far apart, so _balanced evens its rows and columns by a
    diagonal similarity, which keeps the determinant, before det_window:
    unbalanced, two events 32 labels apart on half-flat data at t = 2 came
    out 1.1e-6 off.  The blocks K(n_last, n_s) are large and the product
    cancels them, so each event past the first few costs digits, most at
    small t: against multipoint_probability at tol 1e-13, on step and
    periodic data with thresholds near the starts and t from 0.05 to 2,
    the product was off by at most 5e-13 with four events, and by up to
    1e-11 with six and 8e-8 with ten.  Neither exact inverse flows nor
    long-double products alone restore the digits, so past N_MAX_PATH
    events a ValueError refuses the event list.
    """
    return _joint_probability(t, init, events, tol, _path_window)


# ---------------------------------------------------------------------------
# Two-level block cross check against the conditional ensemble machinery.


def bfps_l_verify(
    init: InitialData, t: float, window: tuple[int, int], trials: int = 100
) -> dict:
    """Cross-check the kernel against the block two-level ensemble.

    Builds the block interaction matrix L on index rows, virtual labels
    {1, 2} and then two site levels over the window, converts it with
    dpp.conditional_l_to_k conditioned on the site rows, and compares the
    level-1 diagonal block against the first-passage kernel (after
    unconjugating).  Ensemble minors are compared with the two-level
    determinant weights up to one global sign on 200 random draws of
    (z11, z21, z22), placed in L by arithmetic, and the interlacing
    indicator identity is exercised on `trials` >= 0 random arrays in one
    gt_indicators batch.  Returns a dict of deviation diagnostics.  Raises
    WindowError, naming a window that works, unless the window covers the
    sampled sites [entry(2) - 6, entry(1) + 10]; naming t and the window if
    1_Z + L is singular; and naming t if no sampled weight exceeds
    round-off, a check of nothing.
    """
    t = _check_time(t)
    trials = _integer(trials, "trials")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if init.kind != "explicit" or len(init.entries) != 2:
        raise ValueError("this check is specific to two finite particles")
    lo, hi = (_integer(w, "each window end") for w in window)
    e1, e2 = init.entries
    span_lo, span_hi = e2 - 6, e1 + 10
    if lo > span_lo or hi < span_hi:
        raise WindowError(
            f"window [{lo}, {hi}] must cover the checked sites [{span_lo}, {span_hi}]; "
            f"try [{min(lo, span_lo)}, {max(hi, span_hi)}]"
        )
    sites = np.arange(lo, hi + 1)
    width = len(sites)
    # rows: labels 1 and 2, then level 1's site z at 2 + z - lo, level 2's at 2 + width + z - lo
    L = np.zeros((2 + 2 * width, 2 + 2 * width))
    L[0, 2 : 2 + width] = 1.0  # virtual row j feeds level j with unit weight
    L[1, 2 + width :] = 1.0
    L[2 : 2 + width, 2 + width :] = -np.tri(width, k=-1)  # -1 where level 1 is right of level 2
    L[2 + width :, :2] = _row_functions(sites, (e1, e2), t)  # level 2's, attached to the entries
    try:
        kernel = conditional_l_to_k(L, np.arange(len(L)) >= 2)
    except ValueError as err:
        raise WindowError(
            f"the two-level ensemble at t = {t} on window [{lo}, {hi}]: {err}; "
            "try a window reaching further right or a smaller t"
        ) from None

    grid = np.arange(max(e2 - 12, lo + 8), min(e1 + 12, hi - 8) + 1)
    at = grid - lo  # level 1's rows of the kernel, which drops the virtual labels
    got = kernel[np.ix_(at, at)]
    want = kt_kernel(t, init, 1, 1, grid, grid)
    want = np.ldexp(want, grid[:, None] - grid[None, :])
    max_dev = float(np.abs(got - want).max())

    rng = np.random.default_rng(7)
    # three calls in all: the 200 site triples, the trial sizes and the
    # trial entries, one (trials, 15) block that level m reads at
    # m(m - 1)/2 ... m(m + 1)/2
    draws = rng.integers(span_lo, span_hi + 1, size=(200, 3)).tolist()
    draws = [(z11, *sorted((z21, z22))) for z11, z21, z22 in draws if z21 != z22]
    interlaced = gt_indicators([[(z11,), (z21, z22)] for z11, z21, z22 in draws])
    # the rows of the labels, (1, z11), (2, z21) and (2, z22) in L
    idx = np.array([(0, 1, 2 + z11 - lo, 2 + width + z21 - lo, 2 + width + z22 - lo)
                    for z11, z21, z22 in draws])
    minor = np.linalg.det(L[idx[:, :, None], idx[:, None, :]])
    # a draw's last two indices are level 2's: the psi rows of z21, z22 from L
    weight = np.where(interlaced, np.linalg.det(L[idx[:, 3:], :2]), 0.0)
    # one global sign, read off the first weight that is not round-off
    big = np.flatnonzero(abs(weight) > 1e-12)
    if not len(big):
        raise WindowError(
            f"no sampled weight of the two-level ensemble at t = {t} exceeds round-off on the sites "
            f"[{span_lo}, {span_hi}], so the weight identity would compare nothing; try a smaller t"
        )
    k = big[0]
    sign = math.copysign(1.0, minor[k] * weight[k])
    ref = np.where(np.arange(len(weight)) < k, 1.0, sign)  # the draws before it compare unsigned
    max_weight_dev = float(np.abs(minor - ref * weight).max(initial=0.0))

    sizes = rng.integers(2, 6, size=trials).tolist()
    entries = rng.integers(-6, 7, size=(trials, 15)).tolist()
    arrays, oks = [], []
    for size, row in zip(sizes, entries):
        arr = [sorted(row[m * (m - 1) // 2 : m * (m + 1) // 2]) for m in range(1, size + 1)]
        pairs = [(arr[m], arr[m - 1], i) for m in range(1, size) for i in range(m)]
        oks.append(all(low[i] < up[i] <= low[i + 1] for low, up, i in pairs))
        arrays.append(arr)
    mism = sum(map(operator.ne, gt_indicators(arrays), oks))

    return {
        "max_kernel_dev": max_dev,
        "weight_sign": sign,
        "max_weight_dev": max_weight_dev,
        "indicator_mismatches": mism,
        "window": (lo, hi),
    }
