"""Walk kernels, biorthogonal systems, and joint laws vs independent oracles.

Oracles used here: the biorthogonal system, closed residue forms and walk
weights of exact_oracles.py, exact-Fraction dynamic programs for the walks,
scipy matrix exponentials for the half-heat flows, the alternating Poisson
sums of the transfer kernels summed by mpmath at high precision, direct
contour quadrature for residue formulas, the forward equation of two
particles by uniformization, and brute-force sums of transition determinants
for the joint laws.  Nothing below reuses the code path it checks.
"""

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import poisson

from contour import ContourSpec, circle_quadrature
from exact_oracles import (
    BiorthoSystem,
    _transfer_extended_matrix,
    backward_heat_polys,
    build_biortho,
    kt_two_periodic_closed,
    phi_closed_form,
    psi_residue,
    q_weight,
    qbar,
    transfer_epi,
    transfer_extended,
    transfer_inverse,
)
from kpzlab.exact import (
    WINDOW_DEPTHS,
    TruncationError,
    WindowError,
    _increasing_tuples,
    bfps_l_verify,
    epi_transfer_matrix,
    gt_indicator,
    gt_pattern_sum,
    kt_kernel,
    kt_step_closed,
    multipoint_probability,
    path_integral_probability,
    schuetz_transition,
)
from kpzlab.fredholm import Certified, det_window
from kpzlab.simulate import make_initial
from kpzlab.special import _schuetz_F, schuetz_F

STEP = make_initial(kind="step")
EXPL = make_initial(kind="explicit", entries=(3, 1, -2, -3, -7))
HALF_FLAT = make_initial(kind="periodic", d=2)
HALF = Fraction(1, 2)


def _entry(init, k):
    return int(init.entry(k))


# ---- Fraction walk oracles -------------------------------------------------


def right_hit_law(init, n, ell, z):
    """Law of the first time a strictly-right geometric walk started at z at
    time ell-1 exceeds entry(n - m) at times m = ell..n-1, as Fractions."""
    masses = {z: Fraction(1)}
    law = {}
    for m in range(ell, n):
        c = _entry(init, n - m)
        nxt = {}
        hit = Fraction(0)
        for p, w in masses.items():
            hit += w * Fraction(2) ** (p - c)
            for q in range(p + 1, c + 1):
                nxt[q] = nxt.get(q, Fraction(0)) + w * HALF ** (q - p)
        law[m] = hit
        masses = nxt
    return law


def left_hit_law(init, n, z):
    """Joint law of (first-passage time, position) for the strictly-left
    geometric walk started at z, checked against entry(m + 1) at step m.
    Mass that falls to entry(n) or below can never cross and is dropped."""
    states = {z: Fraction(1)}
    out = {}
    floor = _entry(init, n)
    for m in range(0, n):
        c = _entry(init, m + 1)
        nxt = {}
        for p, w in states.items():
            if p > c:
                out[(m, p)] = out.get((m, p), Fraction(0)) + w
            else:
                for q in range(floor + 1, p):
                    nxt[q] = nxt.get(q, Fraction(0)) + w * HALF ** (p - q)
        states = nxt
    return out


def reversed_crossing_mass(init, n, z1, z2):
    """Mass of strictly-right walk paths from z2 (time -1) to z1 (time n-1)
    that exceed entry(n - m) at some time m < n.  Positions above z1 cannot
    come back and are pruned exactly."""
    states = {(z2, False): Fraction(1)}
    for m in range(0, n):
        c = _entry(init, n - m)
        nxt = {}
        for (p, hit), w in states.items():
            for q in range(p + 1, z1 + 1):
                key = (q, hit or q > c)
                nxt[key] = nxt.get(key, Fraction(0)) + w * HALF ** (q - p)
        states = nxt
    return states.get((z1, True), Fraction(0))


# ---- walk weights ----------------------------------------------------------


def test_walk_row_sum_is_geometric():
    for width in (1, 5, 30):
        total = sum(q_weight(1, 0, y) for y in range(-width, 0))
        assert total == 1 - HALF**width


def test_walk_powers_compose_exactly():
    for x in range(-2, 3):
        for y in range(x - 9, x):
            conv = sum(
                q_weight(1, x, w) * q_weight(2, w, y) for w in range(y + 1, x)
            )
            assert conv == q_weight(3, x, y)


def test_walk_inverse_is_two_sided():
    for x in range(-3, 4):
        for y in range(-3, 4):
            left = sum(q_weight(-1, x, w) * q_weight(1, w, y) for w in (x, x + 1))
            right = sum(q_weight(1, x, w) * q_weight(-1, w, y) for w in (y - 1, y))
            want = Fraction(int(x == y))
            assert left == want
            assert right == want


def test_walk_negative_powers_iterate():
    for x in range(-3, 3):
        for y in range(x - 1, x + 4):
            conv = sum(
                q_weight(-1, x, w) * q_weight(-1, w, y) for w in (x, x + 1)
            )
            assert conv == q_weight(-2, x, y)


def test_extended_power_agrees_on_long_jumps():
    for n in (1, 2, 4):
        for y1 in range(-2, 6):
            for y2 in range(y1 - 9, y1 - n + 1):
                assert qbar(n, y1, y2) == q_weight(n, y1, y2)


def test_extended_power_off_support_values():
    assert qbar(2, 0, 0) == -1
    # depth one is a pure two-sided geometric profile
    for y1 in range(-3, 4):
        for y2 in range(-3, 4):
            assert qbar(1, y1, y2) == Fraction(2) ** (y2 - y1)


def test_extended_power_contour_route():
    # same binomial coefficients from a residue integral at the origin
    for n in (1, 2, 3):
        for y1 in range(-2, 4):
            for y2 in range(y1 - 3, y1 + 3):
                m = y1 - y2

                def f(w):
                    return (1.0 + w) ** (m - 1) / (2.0**m * w**n)

                got = circle_quadrature(f, ContourSpec.gamma0()).value.real
                assert got == pytest.approx(float(qbar(n, y1, y2)), abs=1e-11)


def test_extended_power_inverse_recursion():
    for z1 in range(-4, 4):
        for z2 in range(-4, 4):
            for n in (3, 2):
                left = sum(
                    q_weight(-1, z1, w) * qbar(n, w, z2) for w in (z1, z1 + 1)
                )
                right = sum(
                    qbar(n, z1, w) * q_weight(-1, w, z2) for w in (z2 - 1, z2)
                )
                assert left == qbar(n - 1, z1, z2)
                assert right == qbar(n - 1, z1, z2)
            killed = sum(
                q_weight(-1, z1, w) * qbar(1, w, z2) for w in (z1, z1 + 1)
            )
            assert killed == 0


@settings(max_examples=80, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=3),
    b=st.integers(min_value=1, max_value=3),
    gap=st.integers(min_value=-2, max_value=12),
)
def test_walk_power_convolution_property(a, b, gap):
    x, y = 0, -gap
    conv = sum(
        q_weight(a, x, w) * q_weight(b, w, y) for w in range(y + 1, x)
    )
    assert conv == q_weight(a + b, x, y)


# ---- first passage ---------------------------------------------------------


# ---- transfer flows --------------------------------------------------------


def test_inverse_flow_matches_matrix_exponential():
    t, n = 1.3, 3
    lo, hi = -50, 14
    zs = np.arange(lo, hi + 1)
    lower = np.eye(len(zs)) - np.diag(np.ones(len(zs) - 1), -1)
    flow = expm(-(t / 2.0) * lower)
    qinv = np.array(
        [[float(q_weight(-n, int(a), int(b))) for b in zs] for a in zs]
    )
    composite = flow @ qinv
    for z1 in range(-2, 11):
        for z2 in range(-2, 11):
            got = transfer_inverse(t, n, z1, z2)
            assert got == pytest.approx(composite[z2 - lo, z1 - lo], abs=1e-13)


def test_extended_flow_matches_matrix_exponential():
    t, n = 1.3, 3
    lo, hi = -20, 44
    zs = np.arange(lo, hi + 1)
    lower = np.eye(len(zs)) - np.diag(np.ones(len(zs) - 1), -1)
    flow = expm((t / 2.0) * lower)
    qb = np.array([[float(qbar(n, int(a), int(b))) for b in zs] for a in zs])
    composite = qb @ flow
    for z1 in range(-2, 11):
        for z2 in range(-2, 11):
            got = transfer_extended(t, n, z1, z2)
            want = composite[z1 - lo, z2 - lo]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_transfer_pair_swap_identity():
    # the two flows are the same function read along swapped arguments
    t, n = 1.3, 3
    for z1 in range(-3, 6):
        for z2 in range(z1 - n + 1, z1 + 8):
            depth = n - 1 + z2 - z1
            if depth < 0:
                continue
            a = transfer_extended(t, n, z1, z2)
            b = transfer_inverse(t, depth, z2, z1)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_transfer_time_zero_degenerates_to_walk():
    for z1 in range(-4, 5):
        for z2 in range(-4, 5):
            got = transfer_inverse(0.0, 2, z1, z2)
            assert got == float(q_weight(-2, z2, z1))
            got = transfer_extended(0.0, 2, z1, z2)
            assert got == float(qbar(2, z1, z2))


def test_transfer_inverse_off_support_is_exact_zero():
    # far left of the support (z1 - z2 > n) the 2^(z1-z2) prefactor would
    # overflow exp; those entries must come out as exact zeros, silently
    from kpzlab.exact import _transfer_inverse_matrix

    n = 3
    ys = np.concatenate([np.arange(-3, 4), np.arange(1100, 1106)])
    xs = np.arange(-3, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert transfer_inverse(1.0, 1, 2000, 0) == 0.0
        grid = _transfer_inverse_matrix(1.0, n, ys, xs)
    off = ys[:, None] - xs[None, :] > n
    assert np.all(grid[off] == 0.0)
    assert np.all(grid[~off] != 0.0)


def _mp_inverse_entry(t, n, p):
    """2^(n-p) e^(-t/2) sum_j C(n,j) (-1)^j t^(p-j)/(p-j)!, the inverse
    transfer kernel at p = n + z2 - z1, summed term by term in mpmath."""
    t = mpmath.mpf(t)
    term, total = t**p / mpmath.factorial(p), mpmath.mpf(0)
    for j in range(min(n, p) + 1):
        total += term
        term *= -mpmath.mpf(n - j) * (p - j) / ((j + 1) * t)
    return float(mpmath.ldexp(mpmath.exp(-t / 2) * total, n - p))


def _mp_extended_row(t, n, ds):
    """2^d e^(-t/2) sum_{j<n} C(a,j) (-1)^j t^(n-1-j)/(n-1-j)!, the
    extended transfer kernel at each d = z2 - z1 of ds, a = d + n - 1, in
    mpmath, with exact integer binomials."""
    t = mpmath.mpf(t)
    poisson_terms = [t ** (n - 1) / mpmath.factorial(n - 1)]
    for j in range(n - 1):
        poisson_terms.append(poisson_terms[-1] * (n - 1 - j) / t)
    out = []
    for d in ds:
        a, total, coef = d + n - 1, mpmath.mpf(0), 1
        for j, term in enumerate(poisson_terms):
            total += coef * term
            coef = coef * (j - a) // (j + 1)  # (-1)^(j+1) C(a, j+1), exactly
        out.append(float(mpmath.ldexp(mpmath.exp(-t / 2) * total, d)))
    return np.array(out)


@pytest.mark.parametrize("t", [0.3, 2.0, 179.0, 384.9])
def test_transfer_matrices_match_mpmath(t):
    # the alternating sums cancel by many orders at large t; the gate is
    # norm-wise per row, since entries far below the row's scale sit on
    # its round-off floor
    from kpzlab.exact import _transfer_inverse_matrix

    reach = int(2 * t) + 60
    with mpmath.workdps(200):
        for n in (1, 5, 40):
            ys = np.array([0, 3])
            xs = np.arange(-n - 3, reach - n + 1, 3)
            got = _transfer_inverse_matrix(t, n, ys, xs)
            for iy, y in enumerate(ys):
                p = n + xs - y
                want = np.array([_mp_inverse_entry(t, n, int(q)) if q >= 0 else 0.0 for q in p])
                assert np.abs(got[iy] - want).max() <= 1e-12 * np.abs(want).max()
            bs = np.array([0, 3])
            z2s = np.arange(-reach, 21, 3)
            got = _transfer_extended_matrix(t, n, bs, z2s)
            for ib, b in enumerate(bs):
                want = _mp_extended_row(t, n, (z2s - b).tolist())
                assert np.abs(got[ib] - want).max() <= 1e-12 * np.abs(want).max()


def test_transfer_inverse_past_the_double_range_of_2_to_the_minus_n():
    # eps = 0.005 on the 1:2:3 scaling: t = 2 eps^(-3/2) ~ 5657, n = 1355.
    # 2^(-n) times these values is below the smallest double, so 2^n must
    # enter the run before it ends, not after
    t, n = 2.0 * 0.005**-1.5, 1355
    with mpmath.workdps(900):
        for z1, z2 in ((-1, -1), (-1, -3), (0, -5), (-60, -1)):
            want = _mp_inverse_entry(t, n, n + z2 - z1)
            assert transfer_inverse(t, n, z1, z2) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [1355, 1356])
def test_transfer_extended_past_the_double_range_of_2_to_the_a(n):
    # eps = 0.005 again.  Entry (b, z2) is 2^a E_(n-1)(a), a = z2 - b + n - 1,
    # and one run over these starts spans more than 2000 binades of 2^a: it
    # must ride with each entry through the run, not be applied after it
    t = 2.0 * 0.005**-1.5
    bs, z2s = np.array([-1354, 0]), np.arange(0, -770, -32)
    got = _transfer_extended_matrix(t, n, bs, z2s)
    with mpmath.workdps(900):
        for ib, b in enumerate(bs):
            want = _mp_extended_row(t, n, (z2s - b).tolist())
            assert np.abs(got[ib] - want).max() <= 1e-12 * np.abs(want).max()


def test_closed_form_column_past_the_double_range_is_a_signed_infinity():
    # -1102 * 2^1102 is beyond the largest double
    assert phi_closed_form("step", 3, 1, 1100, 1.0) == -math.inf


def test_step_kernel_past_the_double_range_is_a_signed_infinity():
    # -1100 e^-1 * 2^1101 is beyond the largest double
    assert kt_step_closed(1.0, 2, 3, -1, 1100) == -math.inf


def _check_walk_average(data, n, ys, z2s):
    t = 0.9
    got = epi_transfer_matrix(data, t, n, ys[0], ys[-1], list(z2s))
    for iy, y in enumerate(ys):
        law = left_hit_law(data, n, y)
        for iz, z2 in enumerate(z2s):
            want = sum(
                float(w) * transfer_extended(t, n - m, b, z2)
                for (m, b), w in law.items()
            )
            assert got[iy, iz] == pytest.approx(want, rel=1e-11, abs=1e-13)
            if iy % 5 == 0 and iz % 5 == 0:
                assert transfer_epi(data, t, n, y, z2) == pytest.approx(
                    want, rel=1e-11, abs=1e-13
                )


def test_first_passage_transfer_matches_walk_average():
    _check_walk_average(EXPL, 4, range(-12, 9), range(-12, 5))


def test_first_passage_transfer_matches_walk_average_on_half_flat_data():
    # half-flat data stops mass at every step from 0 to n - 1.  Past z2 = -4
    # the terms reach 1e3 and more while the sum stays near 1e-2, so a
    # double sum of them, this oracle's too, is off by more than the 1e-13
    # gate there
    _check_walk_average(HALF_FLAT, 10, range(-12, 9), range(-30, -3))


def test_first_passage_transfer_on_step_data_is_one_run():
    # step data stops every crossing walk at step 0; below 0 = entry(n) + n
    # no walk crosses, whatever the depth
    t, n = 2.0, 400
    z2s = np.arange(-60, 6)
    got = epi_transfer_matrix(STEP, t, n, -300, 50, z2s)
    assert np.array_equal(got[300:], _transfer_extended_matrix(t, n, np.arange(0, 51), z2s))
    assert not got[:300].any()


@pytest.mark.parametrize("data", [EXPL, HALF_FLAT], ids=["explicit", "half-flat"])
def test_first_passage_transfer_above_first_entry_is_the_transfer(data):
    t, n = 1.7, 4
    c = _entry(data, 1)
    z2s = np.arange(-14, 3)
    got = epi_transfer_matrix(data, t, n, c - 3, c + 6, z2s)
    assert np.array_equal(got[4:], _transfer_extended_matrix(t, n, np.arange(c + 1, c + 7), z2s))


def test_first_passage_transfer_needs_a_step():
    for n in (0, -1):
        with pytest.raises(ValueError):
            epi_transfer_matrix(EXPL, 0.9, n, -3, 3, [0])


@pytest.mark.parametrize(
    "n, y_lo, z2s",
    [(3, 2, [1.7, 1]), (3, 1.5, [1]), (2.5, 2, [1])],
    ids=["fractional target", "fractional y_lo", "fractional n"],
)
def test_first_passage_transfer_rejects_fractional_arguments(n, y_lo, z2s):
    # int() would read the target 1.7 as 1; range() refuses a float bound
    with pytest.raises(ValueError, match="must be an integer"):
        epi_transfer_matrix(STEP, 1.0, n, y_lo, 2, z2s)


def test_first_passage_transfer_vanishes_below_floor():
    # from y < entry(n) + n the walk stays at or below entry(m + 1) at every
    # step m < n, so it never crosses; from entry(n) + n it can
    t, n = 0.9, 4
    floor = _entry(EXPL, n) + n
    for y in range(floor - 8, floor):
        for z2 in (-9, -4, 0):
            assert transfer_epi(EXPL, t, n, y, z2) == 0.0
    assert transfer_epi(EXPL, t, n, floor, 0) != 0.0


def test_first_passage_depth_one_is_indicator():
    t = 0.9
    c = _entry(EXPL, 1)
    for y in range(c - 4, c + 5):
        for z2 in range(-8, 5):
            want = transfer_extended(t, 1, y, z2) if y > c else 0.0
            assert transfer_epi(EXPL, t, 1, y, z2) == pytest.approx(
                want, abs=1e-15
            )


def _epi_per_stop(init, t, n, y_lo, y_hi, z2s):
    """epi_transfer_matrix's backward sweep with one _transfer_extended_matrix
    run per stopping step, the form the one run over all stops replaced."""
    z2s = np.asarray(z2s, dtype=int)
    floor = _entry(init, n) + n
    steps, top = [], y_hi + 1
    for m in range(n):
        top -= 1
        e = init.entry(m + 1)
        cut = int(e) + 1 if e < top else top + 1
        steps.append((top, cut))
        top = cut - 1
        if top < floor - m or m == 0 and top < y_lo:
            break
    base = min(y_lo, floor)
    buf = np.zeros((y_hi - base + 1, len(z2s)))
    for m in range(len(steps) - 1, -1, -1):
        top, cut = steps[m]
        bs = np.arange(cut, top + 1)
        if len(bs):
            buf[bs - base + m] = _transfer_extended_matrix(t, n - m, bs, z2s)
        if m:
            u = buf[floor - base : top - base + m + 1]
            u *= 0.5
            for i in range(len(u).bit_length()):
                k = 1 << i
                u[k:] += 0.5**k * u[:-k]
    return buf[y_lo - base :]


def test_first_passage_one_run_keeps_every_bit():
    # every stop reads its degree from one Charlier run over the union of
    # the stops' spans; each entry is the same recurrence on its own x, so
    # it keeps the bits of a run per stop, windows below the floor included
    rng = np.random.default_rng(22)
    gaps = [tuple(rng.integers(1, 6, 90).tolist()) for _ in range(3)]
    datas = [STEP, HALF_FLAT, make_initial("periodic", d=3)]
    for g in gaps:
        datas.append(make_initial("explicit", entries=tuple((2 - np.cumsum((0,) + g)).tolist())))
    for data in datas:
        for t in (0.0, 0.3, 5.0, 50.0, 300.0):
            for n in sorted({1, 2, *rng.integers(3, 81, 3).tolist()}):
                floor = _entry(data, n) + n
                y_lo = floor - int(rng.integers(0, 12))
                y_hi = max(y_lo, _entry(data, 1)) + int(rng.integers(0, 12))
                z2s = np.arange(-int(rng.integers(0, 2 * n + 40)), int(rng.integers(1, 20)))
                got = epi_transfer_matrix(data, t, n, y_lo, y_hi, z2s)
                want = _epi_per_stop(data, t, n, y_lo, y_hi, z2s)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


# The last bits of a determinant follow the BLAS thread count, which is
# fixed when the BLAS loads, so the pinned values come from a fresh process
# at one thread, as the benchmark runs them.  The events are h(0) <= -1 on
# half-flat data (anchor X_0^(-1)(-1) = 2) at eps = 0.05, 0.02 and 0.01.
_HALF_FLAT_BITS = """
from kpzlab.exact import multipoint_probability
from kpzlab.simulate import make_initial
for eps, event in ((0.05, (48, -1)), (0.02, (182, -1)), (0.01, (506, -1))):
    p = multipoint_probability(2.0 * eps**-1.5, make_initial("periodic", d=2), [event])
    print(float(p).hex())
"""


def test_half_flat_one_points_to_the_bit():
    # OpenBLAS 0.3.31 at one thread on x86-64
    import kpzlab

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(kpzlab.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", _HALF_FLAT_BITS], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    assert run.stdout.split() == [
        "0x1.039fd478c8647p-1",
        "0x1.b68297c68636bp-2",
        "0x1.0c5070f12dd8ep-1",
    ]


# ---- crossing kernel -------------------------------------------------------


def test_crossing_kernel_matches_reversed_walk():
    n = 5
    for z1 in range(_entry(EXPL, 1) - 5, _entry(EXPL, 1) + 6):
        for z2 in range(_entry(EXPL, n) - 6, _entry(EXPL, n) + 1):
            want = float(reversed_crossing_mass(EXPL, n, z1, z2))
            got = transfer_epi(EXPL, 0.0, n, z1, z2)
            assert got == pytest.approx(want, abs=1e-15)


def test_crossing_kernel_matches_heat_sum():
    n = 5
    system = build_biortho(EXPL, 0.9, n_max=n, window=(-40, 20))
    for z1 in range(_entry(EXPL, 1) - 4, _entry(EXPL, 1) + 5):
        for z2 in range(_entry(EXPL, n) - 5, _entry(EXPL, n) + 1):
            total = Fraction(0)
            for k in range(n):
                total += q_weight(n - k, z1, _entry(EXPL, n - k)) * system.h_exact(
                    n, k, 0, z2
                )
            got = transfer_epi(EXPL, 0.0, n, z1, z2)
            assert got == pytest.approx(float(total), abs=1e-15)


def test_crossing_kernel_above_first_entry():
    n = 4
    for z1 in range(_entry(EXPL, 1) + 1, _entry(EXPL, 1) + 6):
        for z2 in range(_entry(EXPL, n) - 4, _entry(EXPL, n) + 1):
            assert transfer_epi(EXPL, 0.0, n, z1, z2) == float(qbar(n, z1, z2))


# ---- heat levels -----------------------------------------------------------


def test_heat_levels_boundary_data():
    n = 5
    for k in range(n):
        levels = backward_heat_polys(EXPL, n, k)
        assert levels[k] == (Fraction(2) ** (-_entry(EXPL, n - k)),)
        for ell in range(k):
            anchor = _entry(EXPL, n - ell)
            val = sum(
                c * Fraction(anchor) ** i for i, c in enumerate(levels[ell])
            )
            assert val == 0


def test_heat_levels_step_recursion():
    # the adjoint inverse walk step maps 2^z q(z) to 2^z (q(z-1) - q(z)), so
    # it takes each level to the next; level ell has degree k - ell, and
    # agreement at more than k + 1 integers is equality of polynomials
    n, k = 5, 3
    levels = backward_heat_polys(EXPL, n, k)

    def at(coeffs, z):
        return sum(c * Fraction(z) ** i for i, c in enumerate(coeffs))

    for z in range(-8, 8):
        for ell in range(k):
            assert at(levels[ell], z - 1) - at(levels[ell], z) == at(levels[ell + 1], z)
        # stepping the constant top level gives the zero polynomial
        assert at(levels[k], z - 1) - at(levels[k], z) == 0


def test_heat_solution_matches_hit_law():
    n = 5
    system = build_biortho(EXPL, 0.9, n_max=n, window=(-40, 20))
    for ell in range(n):
        c = _entry(EXPL, n - ell)
        for z in range(c - 6, c + 1):
            law = right_hit_law(EXPL, n, ell, z)
            for k in range(ell, n):
                assert system.h_exact(n, k, ell, z) == law.get(k, Fraction(0))


def test_heat_solution_delta_property():
    n = 5
    system = build_biortho(EXPL, 0.9, n_max=n, window=(-40, 20))
    for k in range(n):
        for ell in range(k + 1):
            val = system.h_exact(n, k, ell, _entry(EXPL, n - ell))
            assert val == Fraction(int(ell == k))


def test_heat_degree_certificate():
    n = 5
    system = build_biortho(EXPL, 0.9, n_max=n, window=(-40, 20))
    for k in range(n):
        assert system.h_degree(n, k) == k


def test_column_from_heat_flow():
    t, n = 0.9, 4
    system = build_biortho(EXPL, t, n_max=n, window=(-40, 20))
    for k in range(n):
        for x in range(-8, 7):
            want = 0.0
            for y in range(x, x + 55):
                weight = (
                    math.exp(t) * (-t / 2.0) ** (y - x) / math.factorial(y - x)
                )
                want += float(system.h_exact(n, k, 0, y)) * weight
            got = system.phi_val(n, k, x)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-11)


# ---- row functions ---------------------------------------------------------


def test_row_function_matches_alternating_series():
    t = 0.9
    for k in (0, 1, 2):
        for x in range(-6, 8):
            s = x - _entry(EXPL, 3 - k)
            got = psi_residue(EXPL, t, 3, k, x, conjugated=False)
            want = (-1.0) ** k * schuetz_F(-k, s, t)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_row_function_negative_index_contour():
    t = 0.9
    for k in (-1, -2, -3):
        ref = _entry(EXPL, 2 - k)
        for x in range(-9, 4):

            def f(w):
                return (
                    ((1 - w) / w) ** k
                    * np.exp(t * (w - 1))
                    / w ** (x - ref + 1)
                )

            want = circle_quadrature(f, ContourSpec.gamma0()).value.real
            got = psi_residue(EXPL, t, 2, k, x, conjugated=False)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_row_function_shift_recursion():
    t, big, k = 0.9, 3, 2
    for x in range(-6, 10):
        total = sum(
            psi_residue(EXPL, t, big + 1, big + 1 - k, y, conjugated=False)
            for y in range(-60, x)
        )
        got = psi_residue(EXPL, t, big, big - k, x, conjugated=False)
        assert total == pytest.approx(got, rel=1e-12, abs=1e-14)


def test_row_function_semigroup():
    t, nb, mb, k = 0.9, 4, 2, 1
    for x in range(-8, 6):
        total = sum(
            float(q_weight(nb - mb, x, w)) * psi_residue(EXPL, t, nb, nb - k, w)
            for w in range(-80, x)
        )
        got = psi_residue(EXPL, t, mb, mb - k, x)
        assert total == pytest.approx(got, rel=1e-12, abs=1e-14)


def test_row_function_conjugation():
    t = 0.9
    for k in (-2, 0, 2):
        for x in range(-5, 5):
            s = x - _entry(EXPL, 3 - k)
            bare = psi_residue(EXPL, t, 3, k, x, conjugated=False)
            scaled = psi_residue(EXPL, t, 3, k, x)
            assert scaled == pytest.approx(2.0 ** (-s) * bare, rel=1e-14)


# ---- biorthogonal systems --------------------------------------------------


def test_biortho_defect_is_tiny():
    system = build_biortho(EXPL, 0.9, n_max=5, window=(-40, 20))
    for n in range(1, 6):
        assert system.biortho_defect(n) < 1e-10


def test_biortho_window_too_small():
    with pytest.raises(WindowError, match=r"try \["):
        build_biortho(EXPL, 0.9, n_max=5, window=(-12, 6))


@pytest.mark.parametrize("t", [20.0, 40.0, 100.0])
def test_biortho_defect_is_tiny_at_large_t(t):
    system = build_biortho(EXPL, t, n_max=5, window=(-40, int(3 * t) + 68))
    for n in range(1, 6):
        assert system.biortho_defect(n) < 1e-10


def test_biortho_deep_data_certifies_far_right_of_the_bulk():
    # the window reaches 3t + 51, far right of the Poisson bulk, where the
    # degree-7 column functions amplify any row error not relative per entry
    deep = make_initial(kind="explicit", entries=(3, 1, -2, -4, -7, -9, -10, -14))
    system = build_biortho(deep, 150.0, n_max=8, window=(-60, 501))
    for n in range(1, 9):
        assert system.biortho_defect(n) < 1e-10


def test_biortho_window_past_double_range():
    # 2^x overflows near x = 1000: the columns there are not finite, and the
    # error names a smaller window, which then builds
    window = (-40, 1100)
    with pytest.raises(WindowError, match=r"double range") as exc:
        build_biortho(EXPL, 5.0, n_max=5, window=window)
    lo, hi = (int(v) for v in re.search(r"try \[(-?\d+), (-?\d+)\]", str(exc.value)).groups())
    assert (lo, hi) != window
    system = build_biortho(EXPL, 5.0, n_max=5, window=(lo, hi))
    assert all(np.isfinite(system.phi[n]).all() for n in range(1, 6))
    # at t = 400 the Poisson tail reaches past the double range of 2^x
    with pytest.raises(WindowError, match=r"enlarging it cannot help"):
        build_biortho(EXPL, 400.0, n_max=5, window=(-40, 1300))


def test_biortho_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_biortho(EXPL, 0.9, n_max=0, window=(-30, 10))
    with pytest.raises(ValueError):
        build_biortho(EXPL, 0.9, n_max=2, window=(5, -5))
    fuzzy = make_initial(kind="explicit", entries=(math.inf, 1, -2))
    with pytest.raises(ValueError):
        build_biortho(fuzzy, 0.9, n_max=2, window=(-30, 10))


def test_closed_form_columns_step():
    t = 0.9
    system = build_biortho(STEP, t, n_max=4, window=(-40, 18))
    for n in (2, 4):
        for k in range(n):
            for x in range(-7, 7):
                got = phi_closed_form("step", n, k, x, t)
                want = system.phi_val(n, k, x)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
    # lowest column is a pure power
    for n in (1, 3):
        for x in range(-5, 5):
            assert phi_closed_form("step", n, 0, x, t) == pytest.approx(
                2.0 ** (x + n), rel=1e-12
            )


def test_closed_form_columns_periodic():
    t, d = 0.8, 2
    data = make_initial(kind="explicit", entries=(-2, -4, -6, -8))
    system = build_biortho(data, t, n_max=4, window=(-44, 16))
    for n in (2, 4):
        for k in range(n):
            for x in range(-7, 5):
                got = phi_closed_form("periodic", n, k, x, t, d=d)
                want = system.phi_val(n, k, x)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("t", [0.3, 2.0])
def test_closed_form_columns_match_contour(t):
    # the residue at v = 0 against the trapezoid rule on |v| = 1/2, which
    # encloses no other singularity of either integrand
    for n in range(1, 5):
        for k in range(n):
            for x in range(-7, 7):

                def step(v):
                    return (1 - v) ** (x + n) / v ** (k + 1) * np.exp(t * v)

                want = 2.0 ** (x + n - k) * circle_quadrature(step, ContourSpec.gamma0()).value.real
                got = phi_closed_form("step", n, k, x, t)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                for d in (2, 3):

                    def periodic(v):
                        num = (1 - d * v) * (2 * (1 - v)) ** (x + d * n - 1)
                        return num / (v * (2.0**d * (1 - v) ** (d - 1) * v) ** k) * np.exp(t * v)

                    want = 2.0 * circle_quadrature(periodic, ContourSpec.gamma0()).value.real
                    got = phi_closed_form("periodic", n, k, x, t, d=d)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_column_scaled_degree():
    t, n = 0.9, 4
    system = build_biortho(EXPL, t, n_max=n, window=(-40, 20))
    xs = np.arange(-6, 8)
    for k in range(n):
        vals = np.array(
            [system.phi_val(n, k, int(x)) * 2.0 ** (-float(x)) for x in xs]
        )
        diffs = vals.copy()
        for _ in range(k + 1):
            diffs = np.diff(diffs)
        scale = max(1.0, np.abs(vals).max())
        assert np.abs(diffs).max() < 1e-6 * scale
        if k > 0:
            lower = vals.copy()
            for _ in range(k):
                lower = np.diff(lower)
            assert np.abs(lower).max() > 1e-9 * scale


# ---- correlation kernel ----------------------------------------------------


def test_kernel_step_closed_contour():
    t = 0.9
    for ni, nj in ((2, 3), (3, 2), (3, 3)):
        for x1 in range(-5, 3):
            for x2 in range(-5, 3):
                got = kt_kernel(t, STEP, ni, nj, x1, x2)
                want = kt_step_closed(t, ni, nj, x1, x2)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-11)


# tasep-finite's kernel grid: every (n_i, n_j) <= 4 at these (x1, x2) pairs
KERNEL_X = ((-6, -6), (-6, 3), (-3, 0), (-1, -4), (0, 2), (2, -1), (3, 4), (4, -5))


def _mp_step_residue_sum(t, ni, nj, z1, z2):
    """The double residue sum of the step kernel in mpmath, from exact
    binomial coefficients: e^(-t) sum_m a_(M-m) b_m, where a_q is the w^q
    coefficient of (1-w)^ni e^(tw) and b_m the v^(nj-1) coefficient of
    (1-v)^(nj+z2-1-m) e^(tv).  Returns (kernel, scale), the scale being the
    same sum over absolute values."""
    t = mpmath.mpf(t)

    def coeff(power, q):
        return sum(
            mpmath.binomial(power, i) * (-1) ** i * t ** (q - i) / mpmath.factorial(q - i)
            for i in range(q + 1)
        )

    m_top = ni + z1
    terms = [coeff(ni, m_top - m) * coeff(nj + z2 - 1 - m, nj - 1) for m in range(m_top + 1)]
    pow2 = mpmath.mpf(2) ** (z2 - z1) * mpmath.exp(-t)
    term1 = -float(q_weight(nj - ni, z1, z2)) if ni < nj else 0.0
    return term1 + pow2 * sum(terms), abs(term1) + pow2 * sum(abs(v) for v in terms)


@pytest.mark.parametrize("t", [0.2, 0.3, 0.7, 1.1, 1.6, 2.0, 50.0, 200.0])
def test_kernel_step_closed_matches_mpmath_residue_sum(t):
    with mpmath.workdps(60):
        for ni in range(1, 5):
            for nj in range(1, 5):
                for x1, x2 in KERNEL_X:
                    want, scale = _mp_step_residue_sum(t, ni, nj, x1, x2)
                    got = kt_step_closed(t, ni, nj, x1, x2)
                    assert abs(got - want) <= 1e-12 * scale, (ni, nj, x1, x2)


def test_kernel_matches_step_closed_at_small_t():
    # a double contour integral of this entry does not settle within 1024
    # nodes a side at t <= 0.3; the residue sum has no such limit
    for t in (0.3, 0.2):
        got = kt_kernel(t, STEP, 4, 4, 3, 4)
        assert abs(got - kt_step_closed(t, 4, 4, 3, 4)) <= 1e-12


def test_kernel_step_closed_walk_term_is_the_fraction_to_the_bit():
    # with n_i + z1 < 0 the kernel is its walk term -Q^s(z1, z2) alone, an
    # int / int division rounded once; the binomial leaves the double range
    # near d = 1030, and the dyadic Fraction's float must still be met
    assert math.comb(1499, 749) > sys.float_info.max
    ni, z1 = 3, -5
    for d in [*range(41), 100, 500, 1023, 1024, 1025, 1030, 1100, 1500]:
        for s in {-2, 0, 1, 2, d // 3, d // 2, d - 1, d, d + 1}:
            got = kt_step_closed(0.7, ni, ni + s, z1, z1 - d)
            assert got == (-float(q_weight(s, z1, z1 - d)) if s > 0 else 0.0), (d, s)


def test_kernel_step_closed_memory():
    # residue sums need O(n_i + z1) memory, where a 1024 x 1024 node grid
    # over the double contour takes about 60 MB
    tracemalloc.start()
    try:
        for t in (0.2, 0.3, 0.7, 1.1, 1.6, 2.0):
            for ni in range(1, 5):
                for nj in range(1, 5):
                    for x1, x2 in KERNEL_X:
                        kt_step_closed(t, ni, nj, x1, x2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_kernel_biortho_series():
    t, n1, n2 = 0.9, 2, 4
    system = build_biortho(EXPL, t, n_max=n2, window=(-40, 20))
    for x1 in range(-7, 5):
        for x2 in range(-7, 5):
            total = -float(q_weight(n2 - n1, x1, x2))
            for k in range(1, n2 + 1):
                total += psi_residue(EXPL, t, n1, n1 - k, x1) * system.phi_val(
                    n2, n2 - k, x2
                )
            got = kt_kernel(t, EXPL, n1, n2, x1, x2)
            assert got == pytest.approx(total, rel=1e-9, abs=1e-10)


def test_kernel_cross_block_consistency():
    t = 0.9
    floor = _entry(STEP, 3)
    for x1 in range(-6, 4):
        for x2 in range(-6, 4):
            got = kt_kernel(t, STEP, 2, 3, x1, x2)
            want = -float(q_weight(1, x1, x2))
            for w in range(floor, x1):
                want += float(q_weight(1, x1, w)) * kt_kernel(t, STEP, 3, 3, w, x2)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-12)
            got = kt_kernel(t, STEP, 3, 2, x1, x2)
            want = sum(
                float(q_weight(-1, x1, w)) * kt_kernel(t, STEP, 2, 2, w, x2)
                for w in (x1, x1 + 1)
            )
            assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_one_time_kernel_is_projection():
    from kpzlab.exact import _kernel_blocks

    t = 0.9
    grid = np.arange(-40, 21)
    kernel = _kernel_blocks(t, STEP, [(3, grid)], [(3, grid)])
    prod = kernel @ kernel
    sel = np.s_[8:-10, 8:-10]
    dev = np.abs(prod - kernel)[sel] / np.maximum(1.0, np.abs(kernel))[sel]
    assert dev.max() < 1e-9
    # rank three, so the gap determinant degenerates
    assert abs(det_window(kernel)) < 1e-12


def test_kernel_label_reversal():
    from kpzlab.exact import _kernel_blocks, _window_q_power

    t = 0.9
    grid = np.arange(-40, 21)
    k3 = _kernel_blocks(t, STEP, [(3, grid)], [(3, grid)])
    k2 = _kernel_blocks(t, STEP, [(2, grid)], [(2, grid)])
    q_inv = np.array([[float(q_weight(-1, int(a), int(b))) for b in grid] for a in grid])
    moved = _window_q_power(1, grid, grid) @ k3 @ q_inv
    sel = np.s_[8:-10, 8:-10]
    dev = np.abs(moved - k2)[sel] / np.maximum(1.0, np.abs(k2))[sel]
    assert dev.max() < 1e-11


def _dense_q_power(steps, xs, ys):
    """The float walk power entry by entry over the whole grid, the formula
    exact._window_q_power had before it became Toeplitz; its reference."""
    xg = xs[:, None].astype(float)
    yg = ys[None, :].astype(float)
    d = xg - yg
    ok = d >= steps
    coeff = np.ones(d.shape)
    for i in range(steps - 1):
        coeff *= (d - 1 - i) / (i + 1.0)
    expo = np.where(ok, yg - xg, 0.0)
    return np.where(ok, 2.0**expo * coeff, 0.0)


def test_window_q_power_is_the_dense_formula_to_the_bit():
    from kpzlab.exact import _window_q_power

    grids = [
        (np.arange(-60, 41), np.arange(-90, 5)),
        (np.arange(3, 20), np.arange(-100, 80)),
        (np.arange(-1200, -1100), np.arange(-1180, -1150)),
        (np.arange(5, 6), np.arange(-3, 9)),
    ]
    for xs, ys in grids:
        for steps in range(1, 61):
            got = _window_q_power(steps, xs, ys)
            assert got.shape == (len(xs), len(ys))
            assert np.array_equal(got, _dense_q_power(steps, xs, ys)), steps


def test_kt_kernel_is_block_matrix_entry():
    # kt_kernel builds only the (0, 1) block of the two-label all x all
    # build, with the same start points, so the entry agrees to the bit
    from kpzlab.exact import _kernel_blocks

    for init in (STEP, EXPL):
        for t in (0.3, 0.7, 2.0):
            for ni in range(1, 5):
                for nj in range(1, 5):
                    for x1, x2 in KERNEL_X:
                        pairs = [(ni, np.array([x1])), (nj, np.array([x2]))]
                        full = _kernel_blocks(t, init, pairs, pairs)
                        assert kt_kernel(t, init, ni, nj, x1, x2) == full[0, 1]


def test_kernel_two_periodic_truncation_matches_closed_form():
    # 16 particles on the even sites of [-16, 14]; label n of the data on
    # every even site is label 8 + n here
    t = 0.8
    data = make_initial("explicit", entries=tuple(range(14, -17, -2)))
    for n in (-1, 0, 2):
        for z1, z2 in ((-1, 0), (0, 0), (2, -1)):
            got = kt_kernel(t, data, 8 + n, 8 + n, z1, z2)
            want = kt_two_periodic_closed(t, n, z1, z2)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-9)


def _mp_two_periodic_residue(t, n, z1, z2):
    """Two-periodic kernel entry by mpmath, with exact binomial coefficients.

    With a = z2 + 2n and N = z1 + 2n + 1, the residue at v = 1 of
    v^a e^(t(1-2v)) / (1-v)^N is minus the u^(N-1) coefficient of
    (1-u)^a e^(-t) e^(2tu), and the kernel is -2^(z2-z1) times the residue.
    """
    t = mpmath.mpf(t)
    big_n, a = z1 + 2 * n + 1, z2 + 2 * n
    total = mpmath.mpf(0)
    for i in range(max(big_n, 0)):
        binom = math.prod(range(a - i + 1, a + 1)) // math.factorial(i)
        total += (-1) ** i * binom * (2 * t) ** (big_n - 1 - i) / mpmath.factorial(big_n - 1 - i)
    return mpmath.ldexp(mpmath.exp(-t) * total, z2 - z1)


def test_kernel_two_periodic_closed_matches_mpmath_residue():
    with mpmath.workdps(40):
        for t in (0.3, 0.9, 2.0, 5.0, 40.0, 179.0, 384.9):
            for n in range(-3, 4):
                for z1 in range(-6, 6):
                    for z2 in range(-6, 6):
                        want = float(_mp_two_periodic_residue(t, n, z1, z2))
                        got = kt_two_periodic_closed(t, n, z1, z2)
                        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (t, n, z1, z2)


TWO = make_initial(kind="explicit", entries=(1, -2))
TIMED = {
    "psi_residue": lambda t: psi_residue(EXPL, t, 2, 0, 0),
    "transfer_inverse": lambda t: transfer_inverse(t, 1, 0, 0),
    "transfer_extended": lambda t: transfer_extended(t, 1, 0, 0),
    "epi_transfer_matrix": lambda t: epi_transfer_matrix(EXPL, t, 2, -3, 3, [0]),
    "transfer_epi": lambda t: transfer_epi(EXPL, t, 2, 0, 0),
    "build_biortho": lambda t: build_biortho(EXPL, t, 2, (-20, 10)),
    "phi_closed_form": lambda t: phi_closed_form("step", 2, 1, 0, t),
    "schuetz_transition": lambda t: schuetz_transition((1, -2), (0, -3), t),
    "gt_pattern_sum": lambda t: gt_pattern_sum((1, -2), (0, -3), t),
    "kt_kernel": lambda t: kt_kernel(t, STEP, 1, 2, 0, 0),
    "kt_step_closed": lambda t: kt_step_closed(t, 1, 2, 0, 0),
    "kt_two_periodic_closed": lambda t: kt_two_periodic_closed(t, 1, 0, 0),
    "multipoint_probability": lambda t: multipoint_probability(t, STEP, [(1, 0)]),
    "path_integral_probability": lambda t: path_integral_probability(t, STEP, [(1, 0)]),
    "bfps_l_verify": lambda t: bfps_l_verify(TWO, t, (-20, 12), trials=1),
    "schuetz_F": lambda t: schuetz_F(0, 2, t),
}


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(TIMED))
def test_time_must_be_finite_and_nonnegative(name, t):
    with pytest.raises(ValueError, match=r"^t must be finite and nonnegative"):
        TIMED[name](t)


def test_kernel_rejects_bad_labels():
    with pytest.raises(ValueError):
        kt_kernel(-0.5, STEP, 1, 1, 0, 0)
    fuzzy = make_initial(kind="explicit", entries=(math.inf, math.inf, 0, -2))
    with pytest.raises(ValueError):
        kt_kernel(0.5, fuzzy, 2, 3, 0, 0)


def test_kernel_rejects_non_integral_labels_and_sites():
    # a fractional label reached ldexp as a TypeError, a fractional site
    # an array index as an IndexError
    for args, name in (((1.5, 2, 0, 0), "n_i"), ((1, 2.5, 0, 0), "n_j"),
                       ((1, 2, 0.5, 0), "x1"), ((1, 2, 0, -0.5), "x2")):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            kt_kernel(1.0, STEP, *args)
    want = kt_kernel(1.0, STEP, 1, 2, 0, -1)
    assert kt_kernel(1.0, STEP, 1.0, np.int64(2), np.float64(0.0), -1) == want


# each entry point of exact given one fractional label or site, as (name,
# function, args, kwargs).  Unchecked, these raised a TypeError from ldexp or
# range or an IndexError from an array index, or returned a value for the
# truncated argument
NON_INTEGRAL = [
    ("n", transfer_inverse, (1.0, 1.5, 0, 0), {}),
    ("z1", transfer_inverse, (1.0, 1, 0.5, 0), {}),
    ("z2", transfer_inverse, (1.0, 1, 0, -0.5), {}),
    ("n", transfer_extended, (1.0, 1.5, 0, 0), {}),
    ("z2", transfer_extended, (1.0, 1, 0, 0.5), {}),
    ("n", transfer_epi, (STEP, 1.0, 1.5, 0, 0), {}),
    ("z1", transfer_epi, (STEP, 1.0, 2, 0.5, 0), {}),
    ("z2", transfer_epi, (STEP, 1.0, 2, 0, 0.5), {}),
    ("n_i", kt_step_closed, (1.0, 1.5, 2, 0, 0), {}),
    ("n_j", kt_step_closed, (1.0, 2, 1.5, 0, 0), {}),
    ("z1", kt_step_closed, (1.0, 2, 2, 0.5, 0), {}),
    ("z2", kt_step_closed, (1.0, 2, 2, 0, 0.5), {}),
    ("n", kt_two_periodic_closed, (1.0, 1.5, 0, 0), {}),
    ("z1", kt_two_periodic_closed, (1.0, 1, 0.5, 0), {}),
    ("z2", kt_two_periodic_closed, (1.0, 1, 0, 0.5), {}),
    ("n", psi_residue, (STEP, 1.0, 2.5, 0, 0), {}),
    ("k", psi_residue, (STEP, 1.0, 2, 0.5, 0), {}),
    ("x", psi_residue, (STEP, 1.0, 2, 0, 0.5), {}),
    ("n", phi_closed_form, ("step", 2.5, 0, 0, 1.0), {}),
    ("k", phi_closed_form, ("step", 2, 0.5, 0, 1.0), {}),
    ("x", phi_closed_form, ("step", 2, 0, 0.5, 1.0), {}),
    ("x", phi_closed_form, ("periodic", 2, 1, 0.5, 1.0), {"d": 2}),
    ("d", phi_closed_form, ("periodic", 2, 0, 0, 1.0), {"d": 2.5}),
    ("pad", gt_pattern_sum, ((1, -1), (0, -2), 0.5), {"pad": 2.5}),
    ("trials", bfps_l_verify, (TWO, 0.5, (-20, 12)), {"trials": 1.5}),
]


@pytest.mark.parametrize(
    "name, func, args, kwargs", NON_INTEGRAL,
    ids=[f"{func.__name__}-{name}" for name, func, _, _ in NON_INTEGRAL],
)
def test_entry_points_reject_non_integral_labels_and_sites(name, func, args, kwargs):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        func(*args, **kwargs)


def test_integral_floats_are_accepted_as_labels_and_sites():
    assert transfer_inverse(1.0, 2.0, np.int64(1), 0.0) == transfer_inverse(1.0, 2, 1, 0)
    assert kt_step_closed(1.0, 2.0, 3.0, -1.0, 0.0) == kt_step_closed(1.0, 2, 3, -1, 0)
    want = phi_closed_form("periodic", 3, 1, 0, 1.0, d=2)
    assert phi_closed_form("periodic", 3.0, 1, 0, 1.0, d=2.0) == want


# ---- transition determinants -----------------------------------------------


def test_transition_time_zero_is_identity():
    assert schuetz_transition((2, -1), (2, -1), 0.0) == 1.0
    assert schuetz_transition((3, -1), (2, -1), 0.0) == 0.0


def test_transition_single_particle_is_poisson():
    for x in range(-1, 9):
        got = schuetz_transition((x,), (-1,), 1.7)
        assert got == pytest.approx(poisson.pmf(x + 1, 1.7), rel=1e-12, abs=1e-15)


def test_transition_never_moves_left():
    assert schuetz_transition((-1, -3), (0, -2), 0.5) == pytest.approx(
        0.0, abs=1e-15
    )


def test_transition_rejects_bad_configurations():
    with pytest.raises(ValueError):
        schuetz_transition((0, 1), (2, 0), 0.5)
    with pytest.raises(ValueError):
        schuetz_transition((1, 0), (2, 2), 0.5)
    with pytest.raises(ValueError):
        schuetz_transition((1, 0), (2, 0, -1), 0.5)
    with pytest.raises(ValueError):
        schuetz_transition((1, 0), (2, 0), -0.1)


def test_transition_rejects_non_integral_sites():
    # int() would truncate these to a neighbouring configuration
    bad = (((1.5, -0.5), (0, -1)), ((1, -1), (0, np.float64(-1.5))), ((math.inf, 0), (0, -1)))
    for x, y in bad:
        for route in (schuetz_transition, gt_pattern_sum):
            with pytest.raises(ValueError, match=r"^[xy] must be an integer"):
                route(x, y, 0.5)
    want = schuetz_transition((1, -1), (0, -1), 0.5)
    assert schuetz_transition((1.0, np.int64(-1)), np.array([0, -1]), 0.5) == want
    want = gt_pattern_sum((1, -1), (0, -1), 0.5)
    assert gt_pattern_sum((np.int32(1), -1.0), (0, -1), 0.5) == want


def test_small_det_matches_lapack():
    from kpzlab.exact import _small_det

    rng = np.random.default_rng(20)
    for n in range(1, 9):
        for _ in range(25):
            # singular values in [1, 4]: condition number at most 4
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            mat = q1 @ np.diag(rng.uniform(1.0, 4.0, n)) @ q2
            assert _small_det(mat.tolist()) == pytest.approx(np.linalg.det(mat), rel=1e-12)


def test_small_det_zero_pivot_and_singular():
    from kpzlab.exact import _small_det

    assert _small_det([[0.0, 2.0], [0.0, 3.0]]) == 0.0
    # column 2 has no pivot left once rows 1 and 2 cancel exactly
    assert _small_det([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]]) == 0.0
    assert _small_det([[0.0]]) == 0.0


def test_small_det_sign_follows_the_row_swaps():
    # a permuted diagonal is reduced without rounding: each pivot search
    # swaps in the one nonzero entry of its column
    from kpzlab.exact import _small_det

    scale = (2.0, 3.0, 5.0, 7.0)
    for perm in itertools.permutations(range(4)):
        rows = [[scale[i] if j == perm[i] else 0.0 for j in range(4)] for i in range(4)]
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(4), 2))
        assert _small_det(rows) == (-1.0) ** inversions * 210.0
    assert _small_det([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0, rel=1e-15)


def test_single_particle_transition_is_the_entry():
    for x, y, t in ((3, 0, 0.7), (0, 0, 0.0), (-1, 2, 1.3), (5, -2, 2.0)):
        assert schuetz_transition((x,), (y,), t) == schuetz_F(0, x - y, t)


def test_transition_sum_same_with_cold_and_warm_memo():
    y, t = (0, -2), 0.7

    def total():
        return sum(
            schuetz_transition((x1, x2), y, t) for x1 in range(0, 15) for x2 in range(-2, x1)
        )

    _schuetz_F.cache_clear()
    cold = total()
    hits = _schuetz_F.cache_info().hits
    assert hits > 0  # entries are reused inside one sum
    assert total().hex() == cold.hex()
    assert _schuetz_F.cache_info().hits > hits


def test_transition_normalisation():
    t = 0.7
    y = (0, -2)
    total = 0.0
    for x1 in range(0, 15):
        for x2 in range(-2, x1):
            total += schuetz_transition((x1, x2), y, t)
    assert total == pytest.approx(1.0, abs=2e-7)


def test_transition_semigroup():
    x, y = (2, -1), (0, -2)
    ts, ss = 0.6, 0.7
    total = 0.0
    for w1 in range(-14, 16):
        for w2 in range(-16, w1):
            p1 = schuetz_transition((w1, w2), y, ts)
            if p1 == 0.0:
                continue
            total += p1 * schuetz_transition(x, (w1, w2), ss)
    direct = schuetz_transition(x, y, ts + ss)
    assert total == pytest.approx(direct, rel=1e-10)


def _two_particle_forward(y, x, t, jumps=80):
    """P(y -> x in time t) for two particles by uniformization of the forward
    equation: with total rate at most 2 per state, the law is a Poisson(2t)
    mixture of powers of a nonnegative stochastic matrix, so no term cancels."""
    reach = jumps + 1
    lead = np.arange(y[0], y[0] + reach)
    follow = np.arange(y[1], y[1] + reach)
    mass = np.zeros((reach, reach))
    mass[0, 0] = 1.0
    total = 0.0
    weight = math.exp(-2.0 * t)
    for k in range(jumps + 1):
        total += weight * mass[x[0] - y[0], x[1] - y[1]]
        blocked = follow[None, :] + 1 >= lead[:, None]
        nxt = 0.5 * mass * blocked
        nxt[1:, :] += 0.5 * mass[:-1, :]
        nxt[:, 1:] += 0.5 * (mass * ~blocked)[:, :-1]
        mass = nxt
        weight *= 2.0 * t / (k + 1)
    return total


def test_transition_far_tail_matches_forward_equation():
    # 21 leader jumps in t = 1.6276: the true value is 2.77e-17 (scipy expm
    # agrees); residue sums that cancel to it must not leave 1e-11 behind
    x, y, t = (23, 1), (2, -1), 1.6276
    want = _two_particle_forward(y, x, t)
    assert want == pytest.approx(2.770970109e-17, rel=1e-6)
    assert abs(schuetz_transition(x, y, t) - want) <= 1e-15
    for xx in ((3, 0), (5, -1), (9, 4)):
        assert schuetz_transition(xx, y, t) == pytest.approx(
            _two_particle_forward(y, xx, t), rel=1e-12, abs=1e-16
        )


# ---- triangular array sums -------------------------------------------------


def test_array_sum_matches_determinant():
    cases = [
        ((1, -2), (0, -3), 1.0, 24),
        ((2, 0, -3), (1, -1, -4), 0.7, 20),
        ((1, -1, -2, -4), (0, -1, -3, -5), 0.5, 16),
    ]
    for x, y, t, pad in cases:
        got = gt_pattern_sum(x, y, t, pad=pad)
        want = schuetz_transition(x, y, t)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_array_sum_pads_agree():
    # the array sum's truncation: doubling the pad moves it by almost nothing
    value = gt_pattern_sum((1, -2), (0, -3), 1.0, pad=24)
    assert type(value) is float
    assert value == pytest.approx(schuetz_transition((1, -2), (0, -3), 1.0))
    assert abs(value - gt_pattern_sum((1, -2), (0, -3), 1.0, pad=12)) < 1e-10


def test_array_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        gt_pattern_sum((0, 1), (0, -1), 0.5)
    with pytest.raises(ValueError):
        gt_pattern_sum((1, 0), (0, -1), 0.5, pad=0)
    with pytest.raises(ValueError):
        gt_pattern_sum((5, 4, 3, 2, 1), (4, 3, 2, 1, 0), 0.5)


def test_interlacing_indicator_examples():
    assert gt_indicator([]) == 1
    assert gt_indicator([(0,)]) == 1
    assert gt_indicator([(0,), (-2, 0)]) == 1
    assert gt_indicator([(0,), (-2, 1)]) == 1
    assert gt_indicator([(0,), (0, 1)]) == 0
    assert gt_indicator([(0,), (-2, -1)]) == 0
    five = [(0,), (-1, 1), (-2, 0, 2), (-3, -1, 1, 3), (-4, -2, 0, 2, 4)]
    assert gt_indicator(five) == 1
    assert gt_indicator(five[:4] + [(-4, -2, 0, 3, 4)]) == 0
    assert gt_indicator(five[:4] + [(-4, -1, 0, 2, 4)]) == 0
    with pytest.raises(ValueError, match="level 1"):
        gt_indicator([(0, 1)])
    with pytest.raises(ValueError, match="level 2"):
        gt_indicator([(0,), (1,)])
    with pytest.raises(ValueError, match="level 4"):
        gt_indicator(five[:3] + [(-3, -1, 1)])


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=10, max_size=10))
def test_interlacing_indicator_property(raw):
    levels = (raw[:1], sorted(raw[1:3]), sorted(raw[3:6]), sorted(raw[6:10]))
    # every prefix is checked: four random levels rarely interlace, three often do
    ok = gt_indicator(levels[:1]) == 1
    for k in range(2, 5):
        prev, row = levels[k - 2], levels[k - 1]
        ok = ok and all(row[i] < p <= row[i + 1] for i, p in enumerate(prev))
        assert gt_indicator(levels[:k]) == ok


def test_increasing_tuples_in_combinations_order():
    for base in (np.arange(-3, 9), np.array([-7, -2, 0, 5, 6]), np.arange(3), np.arange(2)):
        for r in (1, 2, 3):
            got = np.stack(_increasing_tuples(base, r), 1).tolist()
            assert got == [list(c) for c in itertools.combinations(base.tolist(), r)]


# ---- joint laws ------------------------------------------------------------


def test_joint_single_matches_free_particle():
    for t, a in ((1.0, -1), (1.0, 1), (2.3, 0)):
        got = multipoint_probability(t, STEP, [(1, a)])
        assert got == pytest.approx(poisson.sf(a + 1, t), rel=1e-9, abs=1e-12)
    got = multipoint_probability(0.8, EXPL, [(1, 4)])
    assert got == pytest.approx(poisson.sf(1, 0.8), rel=1e-9)


def test_joint_two_particles_brute():
    data = make_initial(kind="explicit", entries=(0, -3))
    t, a = 1.1, (-1, -3)
    want = 0.0
    for x1 in range(a[0] + 1, 15):
        for x2 in range(a[1] + 1, min(x1, 12)):
            want += schuetz_transition((x1, x2), (0, -3), t)
    got = multipoint_probability(t, data, [(1, a[0]), (2, a[1])])
    assert got == pytest.approx(want, rel=1e-9)


def test_joint_three_particles_brute():
    data = make_initial(kind="explicit", entries=(1, -2, -4))
    t = 0.8
    want = 0.0
    for x1 in range(2, 15):
        for x2 in range(-1, min(x1, 12)):
            for x3 in range(-3, min(x2, 10)):
                want += schuetz_transition((x1, x2, x3), (1, -2, -4), t)
    got = multipoint_probability(t, data, [(1, 1), (2, -2), (3, -4)])
    assert got == pytest.approx(want, rel=1e-9)


def test_joint_bounds_and_monotonicity():
    t = 1.0
    vals = [
        multipoint_probability(t, STEP, [(1, a), (2, -3)]) for a in (-2, -1, 0, 1)
    ]
    for v in vals:
        assert 0.0 <= v <= 1.0
    for lowa, higha in zip(vals, vals[1:]):
        assert higha <= lowa + 1e-12


def test_joint_trivial_and_invalid_events():
    assert multipoint_probability(1.0, STEP, [(1, -math.inf)]) == 1.0
    with pytest.raises(ValueError):
        multipoint_probability(1.0, STEP, [(1, math.inf)])
    with pytest.raises(ValueError):
        multipoint_probability(1.0, STEP, [])
    with pytest.raises(ValueError):
        multipoint_probability(1.0, STEP, [(2, 0), (1, 0)])
    with pytest.raises(ValueError):
        multipoint_probability(1.0, STEP, [(1, 0)] * 5)
    with pytest.raises(ValueError):
        multipoint_probability(1.0, STEP, [(0, 0)])


@pytest.mark.parametrize("route", [multipoint_probability, path_integral_probability])
def test_joint_rejects_fractional_labels_and_nan_thresholds(route):
    # int() truncated a label 1.5 to label 1's value, and a NaN threshold
    # reached int() as numpy's bare conversion error
    with pytest.raises(ValueError, match=r"^labels must be an integer"):
        route(1.0, STEP, [(1.5, 0)])
    with pytest.raises(ValueError, match=r"^thresholds must be real or -inf"):
        route(1.0, STEP, [(1, 0), (2, math.nan)])
    assert route(1.0, STEP, [(np.int64(1), 0), (2.0, -2)]) == route(1.0, STEP, [(1, 0), (2, -2)])


@pytest.mark.parametrize("route", [multipoint_probability, path_integral_probability])
def test_joint_probability_is_certified(route):
    values = []
    for tol in (1e-9, 1e-12):
        value = route(1.0, STEP, [(1, -1), (2, -3)], tol=tol)
        assert isinstance(value, Certified) and 0.0 <= value <= 1.0
        # a depth is certified by the one before it, so never the first; the
        # floors (-2 and -3) lie within the first depth, so both rungs are
        # the whole support and the change between them is exactly 0
        assert value.error == 0.0 and value.order == WINDOW_DEPTHS[1] and value.seconds > 0
        values.append(value)
    assert abs(values[0] - values[1]) <= 1e-9
    certain = route(1.0, STEP, [(2, -math.inf)])
    assert certain == Certified(1.0) and certain.error == 0.0 and certain.order == 0


def test_joint_leading_infinite_prefix_relabels():
    padded = make_initial(
        kind="explicit", entries=(math.inf, math.inf, 2, 0, -1, -4)
    )
    bare = make_initial(kind="explicit", entries=(2, 0, -1, -4))
    t = 0.9
    got = multipoint_probability(t, padded, [(3, 1), (5, -2)])
    want = multipoint_probability(t, bare, [(1, 1), (3, -2)])
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        multipoint_probability(t, padded, [(2, 0)])


def test_path_product_matches_extended():
    cases = [
        (1.0, STEP, [(1, -1), (3, -4)]),
        (1.0, STEP, [(1, -1), (2, -2), (3, -3)]),
        (0.9, EXPL, [(2, 2), (4, -2)]),
        (
            0.9,
            make_initial(kind="explicit", entries=(math.inf, math.inf, 2, 0, -1, -4)),
            [(3, 2), (5, 0)],
        ),
        (1.2, make_initial(kind="periodic", d=2), [(1, 0), (3, -3)]),
        # half-flat data, and a step three- and four-point, along the scaling
        (2 * 0.05**-1.5, make_initial(kind="periodic", d=2), [(40, 10), (56, -12)]),
        (2 * 0.05**-1.5, STEP, [(36, 19), (46, 0), (56, -21)]),
        (2 * 0.1**-1.5, STEP, [(8, 15), (12, 9), (18, -1), (22, -11)]),
        (
            3.0,
            make_initial(kind="explicit", entries=(5, 4, 2, -1, -2, -3, -7)),
            [(2, 6), (5, 1), (7, -3)],
        ),
    ]
    for t, data, events in cases:
        got = path_integral_probability(t, data, events)
        want = multipoint_probability(t, data, events)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-10)


# The first two window depths share one kernel build.  The step events are
# h(0) <= -1 and h(+-1/2) <= -1/2 of the rescaled height at t = 2 eps^(-3/2),
# as test_scaling.py builds them, at eps = 0.1, 0.01 and 0.005.
LADDER_CASES = [
    (multipoint_probability, 2 * 0.1**-1.5, STEP, [(18, -1)]),
    (multipoint_probability, 2 * 0.1**-1.5, STEP, [(12, 9), (22, -11)]),
    (multipoint_probability, 2 * 0.01**-1.5, STEP, [(505, -1)]),
    (multipoint_probability, 2 * 0.01**-1.5, STEP, [(453, 99), (553, -101)]),
    (multipoint_probability, 0.9, EXPL, [(2, 2), (4, -2)]),
    (path_integral_probability, 2 * 0.1**-1.5, STEP, [(18, -1)]),
    (path_integral_probability, 2 * 0.1**-1.5, STEP, [(12, 9), (22, -11)]),
    (path_integral_probability, 0.9, EXPL, [(2, 2), (4, -2)]),
    (path_integral_probability, 2 * 0.01**-1.5, STEP, [(505, -1)]),
    (path_integral_probability, 2 * 0.005**-1.5, STEP, [(1422, -1)]),
    (path_integral_probability, 2 * 0.01**-1.5, STEP, [(453, 99), (553, -101)]),
]


@pytest.mark.parametrize(
    "route, t, data, events",
    LADDER_CASES,
    ids=["mp-one-0.1", "mp-two-0.1", "mp-one-0.01", "mp-two-0.01", "mp-explicit",
         "path-one-0.1", "path-two-0.1", "path-explicit", "path-one-0.01", "path-one-0.005",
         "path-two-0.01"],
)
def test_first_two_rungs_share_one_build(monkeypatch, route, t, data, events):
    # the first rung's window is a trailing sub-block of the second's.  A
    # deeper site read into it, say 0 * inf from a kernel entry past the
    # double range, would make the rung differ from its own build
    from kpzlab import exact

    kernels, dets, builds = [], [], []
    build = exact._kernel_blocks

    def recorded_det(kernel):
        kernels.append(kernel)
        dets.append(det_window(kernel))
        return dets[-1]

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(exact, "det_window", recorded_det)
    monkeypatch.setattr(exact, "_kernel_blocks", counted_build)
    value = route(t, data, events)
    rungs = WINDOW_DEPTHS.index(value.order) + 1
    assert len(dets) == rungs and float(value) == dets[-1]
    # one build serves the first two rungs, and each deeper rung builds once
    assert len(builds) == rungs - 1
    # a ladder whose two rungs are one depth builds that depth itself
    shared, shared_det = kernels[0], dets[0]
    kernels.clear()
    dets.clear()
    monkeypatch.setattr(exact, "WINDOW_DEPTHS", (WINDOW_DEPTHS[0],) * 2)
    settled = route(t, data, events, tol=0.0)
    assert len(dets) == 2 and settled.order == WINDOW_DEPTHS[0] and settled.error == 0.0
    assert abs(shared_det - dets[0]) <= 4e-16 * abs(dets[0])
    # the same entries, and no more: the matrices agree per entry
    np.testing.assert_allclose(shared, kernels[0], rtol=1e-13, atol=0)


def test_path_product_trivial_events():
    assert path_integral_probability(1.0, STEP, [(2, -math.inf)]) == 1.0
    with pytest.raises(ValueError):
        path_integral_probability(1.0, STEP, [(1, math.inf)])


def test_window_doubling_exhaustion_raises(monkeypatch):
    # a determinant that moves by 1 at every depth never settles
    from kpzlab import exact

    data = make_initial(kind="explicit", entries=(0, -2))
    for route in (multipoint_probability, path_integral_probability):
        values = itertools.count()
        monkeypatch.setattr(exact, "det_window", lambda matrix: float(next(values)))
        with pytest.raises(TruncationError, match="did not settle"):
            route(0.5, data, [(1, 0)])


@pytest.mark.parametrize("tol", [math.nan, -1e-3])
def test_window_ladders_reject_nan_and_negative_tol(tol):
    # a NaN tol walked all five depths and then advised "try a larger tol";
    # tol = 0 stays valid, since a floor-capped window settles with error 0
    for route in (multipoint_probability, path_integral_probability):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            route(1.0, STEP, [(1, 0)], tol=tol)
        assert route(1.0, STEP, [(1, 0)], tol=0.0).error == 0.0


# ---- the exact floor of the windows ------------------------------------------


@pytest.mark.parametrize(
    "data, label_sets",
    [
        (STEP, ([1], [3], [1, 2], [2, 5], [1, 3, 4])),
        (EXPL, ([1], [4], [1, 2], [2, 5], [1, 3, 5])),
        (HALF_FLAT, ([1], [3], [1, 2], [2, 5], [1, 3, 4])),
    ],
    ids=["step", "explicit", "half-flat"],
)
def test_kernel_rows_below_the_exact_floor_vanish(data, label_sets):
    # the inverse flow of n_i vanishes at starts y > x + n_i and no walk
    # from below y_lo = min (entry(n) + n) crosses the data, so a row of
    # block i below y_lo - n_i is zero; the one-sided Q^(n_j - n_i) needs
    # x - y >= n_j - n_i, which a kept column y >= y_lo - n_j of a later
    # block j cannot meet.  The row at the floor is not zero.  The floor
    # lies at or above min entry(n) + 1 - n_i, below which rows vanish too
    from kpzlab.exact import _kernel_blocks

    for t in (0.4, 1.7):
        for ns in label_sets:
            y_lo = min(int(data.entry(nv)) + nv for nv in ns)
            assert y_lo >= min(int(data.entry(nv)) for nv in ns) + 1
            grid = np.arange(y_lo - ns[-1] - 12, y_lo + 5)
            size = len(grid)
            pairs = [(nv, grid) for nv in ns]
            big = _kernel_blocks(t, data, pairs, pairs)
            for i, n_i in enumerate(ns):
                rows = big[i * size : (i + 1) * size][grid < y_lo - n_i]
                assert len(rows) >= 12
                for j, n_j in enumerate(ns):
                    blk = rows[:, j * size : (j + 1) * size]
                    kept = blk if j <= i else blk[:, grid >= y_lo - n_j]
                    assert np.all(kept == 0.0), (t, ns, i, j)
                at_floor = big[i * size + np.searchsorted(grid, y_lo - n_i)]
                assert np.any(at_floor != 0.0), (t, ns, i)


def _uncapped_rung(route, t, data, events, depth=192):
    """The route's matrix determinant on windows reaching depth sites below
    the smallest threshold with no floor: every block of the extended
    kernel, or the path product expanded as its signed sum over constraint
    subsets, the route's independent reference."""
    from kpzlab.exact import _kernel_blocks, _window_q_power

    ns = [nv for nv, _ in events]
    tops = [math.floor(av) for _, av in events]
    low = min(tops) - depth
    if route is multipoint_probability:
        pairs = [(nv, np.arange(low, top + 1)) for nv, top in zip(ns, tops)]
        return det_window(_kernel_blocks(t, data, pairs, pairs))
    grid = np.arange(low, max(tops) + 1)
    size, m = len(grid), len(ns)
    pairs = [(nv, grid) for nv in ns]
    kernel = _kernel_blocks(t, data, pairs, pairs)
    total = np.zeros((size, size))
    for r in range(1, m + 1):
        for chosen in itertools.combinations(range(m), r):
            term = kernel[(m - 1) * size :, chosen[0] * size : (chosen[0] + 1) * size]
            for j, nxt in zip(chosen, [ns[c] for c in chosen[1:]] + [ns[-1]]):
                term = term * (grid <= tops[j])[None, :]
                if nxt != ns[j]:
                    term = term @ _window_q_power(nxt - ns[j], grid, grid)
            total += (-1.0) ** (r + 1) * term
    return det_window(total)


# step events: h(+-1/2) <= -1/2 and h(0) <= -1 at t = 2 eps^(-3/2), as
# test_scaling.py builds them, at eps = 0.2, 0.1, 0.05 and 0.04, and the
# four-point h(+-1/4) <= -1/2, h(+-3/4) <= -1/2 at eps = 0.05, which takes
# every subset size.  Every floor lies within the first depth but in the
# last case, whose floor -65 lies between the first two rungs' -49 and -97
FLOOR_CASES = [
    (0.9, EXPL, [(2, 2), (4, -2)]),
    (1.7, EXPL, [(1, 3), (3, -1), (5, -6)]),
    (3.0, make_initial(kind="explicit", entries=(5, 4, 2, -1, -2, -3, -7)), [(2, 6), (7, -3)]),
    (2 * 0.2**-1.5, STEP, [(4, 4), (9, -6)]),
    (2 * 0.2**-1.5, STEP, [(7, -1)]),
    (2 * 0.1**-1.5, STEP, [(12, 9), (22, -11)]),
    (2 * 0.1**-1.5, STEP, [(18, -1)]),
    (2 * 0.05**-1.5, STEP, [(36, 19), (56, -21)]),
    (2 * 0.05**-1.5, STEP, [(36, 19), (46, 0), (56, -21)]),
    (2 * 0.05**-1.5, STEP, [(31, 29), (41, 9), (51, -11), (61, -31)]),
    (2 * 0.04**-1.5, STEP, [(65, -1)]),
]


@pytest.mark.parametrize("route", [multipoint_probability, path_integral_probability])
@pytest.mark.parametrize(
    "t, data, events",
    FLOOR_CASES,
    ids=["expl-two", "expl-three", "expl7-two", "two-0.2", "one-0.2", "two-0.1", "one-0.1",
         "two-0.05", "three-0.05", "four-0.05", "one-0.04"],
)
def test_capped_windows_match_an_uncapped_deep_build(route, t, data, events):
    got = route(t, data, events)
    assert abs(got - _uncapped_rung(route, t, data, events)) <= 1e-14


@pytest.mark.parametrize(
    "events",
    [
        [(36, 19), (56, -21)],
        [(36, 19), (46, 0), (56, -21)],
        [(31, 29), (41, 9), (51, -11), (61, -31)],
    ],
    ids=["two-0.05", "three-0.05", "four-0.05"],
)
def test_path_route_takes_one_inverse_flow_per_build(monkeypatch, events):
    # the path product reads only the last label's row of blocks, so one
    # build takes the last label's inverse flow alone, at any label count
    from kpzlab import exact

    builds, flows = [], []
    build, flow = exact._kernel_blocks, exact._transfer_inverse_matrix

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    def counted_flow(*args):
        flows.append(args[1])
        return flow(*args)

    monkeypatch.setattr(exact, "_kernel_blocks", counted_build)
    monkeypatch.setattr(exact, "_transfer_inverse_matrix", counted_flow)
    path_integral_probability(2 * 0.05**-1.5, STEP, events)
    assert len(builds) == 1 and flows == [events[-1][0]]


def test_floor_inside_the_first_rung_settles_with_error_zero():
    # every floor lies within 48 sites of the smallest threshold, so both
    # rungs are the whole support: the same matrix, settled exactly
    for route in (multipoint_probability, path_integral_probability):
        for t, data, events in FLOOR_CASES[:-1]:
            got = route(t, data, events)
            assert got.error == 0.0 and got.order == WINDOW_DEPTHS[1], (route, events)


def test_floor_above_a_threshold_leaves_a_certain_event():
    # particle 1 of EXPL starts at 3, and for labels (1, 5) the floor of
    # label 1 is min (entry(n) + n) - 1 = -3: the event X_t(1) > -9 has an
    # empty block, and the same start points serve the block of label 5
    t = 0.8
    for route in (multipoint_probability, path_integral_probability):
        alone = route(t, EXPL, [(5, -5)])
        both = route(t, EXPL, [(1, -9), (5, -5)])
        assert float(both) == float(alone) and both.error == 0.0
    assert multipoint_probability(t, EXPL, [(1, -9), (5, -12)]) == 1.0


# ---- two-route weight bridge ----------------------------------------------


def test_weight_bridge_two_particles():
    data = make_initial(kind="explicit", entries=(1, -2))
    out = bfps_l_verify(data, 0.8, window=(-20, 12), trials=60)
    assert out["max_kernel_dev"] < 1e-6
    assert abs(out["weight_sign"]) == 1.0
    assert out["max_weight_dev"] < 1e-8
    assert out["indicator_mismatches"] == 0
    assert out["window"] == (-20, 12)


def test_weight_bridge_window_must_cover_checked_sites():
    data = make_initial(kind="explicit", entries=(1, -2))
    with pytest.raises(WindowError, match=r"try \[-14, 11\]"):
        bfps_l_verify(data, 0.8, window=(-14, 10), trials=60)
