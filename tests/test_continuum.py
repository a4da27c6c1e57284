"""Continuum layer checks: S_{t,x} and the Airy kernel against scipy, the
Airy-process determinants against published Tracy-Widom values and a
Painleve II solve, and the paper's S-product fixed-point kernels against
the Airy processes after the 1:2:3 rescaling."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.special import airy, airye

from kpzlab.continuum import airy1_probability, airy2_probability, airy_kernel, s_kernel
from kpzlab.fredholm import ORDER_LADDER, BlockExtendedProblem, Certified, block_extended_det

# ------------------------------------------------------------------ kernels


def test_s_kernel_matches_direct_product():
    worst = 0.0
    for t in (0.3, 1.0, 2.5):
        for x in (-2.0, -0.5, 0.0, 0.7, 2.0):
            z = np.linspace(-8.0, 8.0, 41)
            a = -z * t ** (-1 / 3) + x * x * t ** (-4 / 3)
            want = t ** (-1 / 3) * np.exp(2 * x**3 / (3 * t * t) - z * x / t) * airy(a)[0]
            dev = np.abs(s_kernel(t, x, z) - want) / (1.0 + np.abs(want))
            worst = max(worst, dev.max())
    assert worst < 1e-13


def test_s_kernel_where_the_factors_leave_float_range():
    # S_{1,12}(0) = e^1152 Ai(144): the exponential overflows and Ai
    # underflows, while their product is the scaled Ai, airye(144)
    with np.errstate(over="raise", invalid="raise"):
        got = float(s_kernel(1.0, 12.0, 0.0))
    assert got == pytest.approx(airye(144.0)[0], rel=1e-13)


def test_s_kernel_group_law():
    # int S_{s,x}(z - w) S_{t,y}(w) dw = S_{s+t,x+y}(z), for x, y > 0
    w, ww = np.polynomial.legendre.leggauss(400)
    w, ww = 15.0 * w, 15.0 * ww
    for z in (-2.0, 0.0, 1.5):
        conv = np.sum(ww * s_kernel(0.7, 0.6, z - w) * s_kernel(1.1, 0.9, w))
        assert conv == pytest.approx(float(s_kernel(1.8, 1.5, z)), abs=1e-13)


def test_s_kernel_needs_positive_time():
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            s_kernel(t, 0.0, 0.0)


def test_airy_kernel_matches_lambda_integral():
    for u, v in ((-1.5, 0.4), (0.3, -0.7), (1.2, 1.2), (-2.0, -2.0)):
        want = quad(lambda lam: airy(u + lam)[0] * airy(v + lam)[0], 0.0, 40.0, epsabs=1e-15, limit=200)[0]
        assert float(airy_kernel(u, v)) == pytest.approx(want, abs=1e-13)


# ------------------------------------------------------------- Airy processes


def test_airy2_one_point_is_f_gue():
    # published Tracy-Widom GUE values
    assert airy2_probability([(0.0, -1.0)]) == pytest.approx(0.80721424199929, abs=1e-12)
    assert airy2_probability([(0.0, 0.0)]) == pytest.approx(0.9693728283553, abs=1e-12)


def test_airy2_two_point():
    # the 1:2:3 limit of the step-data TASEP two-point
    got = airy2_probability([(-0.5, -0.25), (0.5, -0.25)])
    assert got == pytest.approx(0.9063952634600856, abs=1e-12)


def test_airy_process_probabilities_are_certified():
    # the continuum layer's stopping tolerance is 1e-12
    points = [(-0.5, -0.25), (0.5, -0.25)]
    for probability in (airy1_probability, airy2_probability):
        got = probability(points)
        assert isinstance(got, Certified) and 0.0 < got < 1.0
        assert got.error <= 1e-12 and got.order in ORDER_LADDER[1:] and got.seconds > 0
        certain = probability([(0.0, math.inf)])
        assert certain == 1.0 and certain.error == 0.0


def test_airy_processes_reject_repeated_x():
    for probability in (airy1_probability, airy2_probability):
        with pytest.raises(ValueError):
            probability([(0.0, 0.0), (0.0, 1.0)])


def test_airy_processes_reject_malformed_points():
    # a point at level +inf still counts toward the four
    five = [(float(k), math.inf if k == 4 else 0.0) for k in range(5)]
    cases = [([(x, 0.0)], "finite x") for x in (math.nan, math.inf, -math.inf)]
    cases += [([], "between 1 and 4 points"), (five, "between 1 and 4 points")]
    for probability in (airy1_probability, airy2_probability):
        for points, message in cases:
            with pytest.raises(ValueError, match=message):
                probability(points)


# The last bits of a determinant follow the BLAS thread count, which is
# fixed when the BLAS loads, so the pinned values come from a fresh process
# at one thread, as the benchmark runs them.
_AIRY_BITS = """
from kpzlab.continuum import airy1_probability, airy2_probability
two = [(-0.5, -0.25), (0.5, -0.25)]
four = [(-1.0, -1.5), (0.0, -1.0), (1.0, -1.5), (2.0, 0.0)]
for probability, points in ((airy2_probability, two), (airy1_probability, two),
                            (airy2_probability, four)):
    got = probability(points)
    print(got.order, float(got).hex())
"""


def test_airy_process_values_to_the_bit():
    # OpenBLAS 0.3.31 at one thread on x86-64
    import kpzlab

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(kpzlab.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", _AIRY_BITS], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    assert run.stdout.split("\n")[:-1] == [
        "80 0x1.d0130a3b9ee95p-1",
        "80 0x1.0d09b303cb38fp-1",
        "160 0x1.892a89a59d9e6p-2",
    ]


def test_infinite_level_drops_its_point():
    for probability in (airy1_probability, airy2_probability):
        assert probability([(0.0, 0.5), (1.0, math.inf)]) == probability([(0.0, 0.5)])
        with pytest.raises(ValueError):
            probability([(0.0, -math.inf)])


def f_goe_painleve(ss, x0=8.0):
    """{s: F_GOE(s)} from the Hastings-McLeod solution of q'' = xq + 2q^3,
    q ~ Ai at +infinity, integrated down from x0 together with int_x^inf q,
    int_x^inf q^2 and int_x^inf (y - x) q(y)^2 dy:
    F_GOE(s) = exp(-(int_s^inf q + int_s^inf (y - s) q(y)^2 dy) / 2)."""
    ai, aip, _, _ = airy(x0)
    tail = quad(lambda x: airy(x)[0], x0, np.inf, epsabs=1e-16)[0]
    moment = quad(lambda x: (x - x0) * airy(x)[0] ** 2, x0, np.inf, epsabs=1e-18)[0]

    def rhs(x, y):
        q, dq, _, q2, _ = y
        return [dq, x * q + 2.0 * q**3, -q, -q * q, -q2]

    ys = sorted(ss, reverse=True)
    start = [ai, aip, tail, aip**2 - x0 * ai**2, moment]
    sol = solve_ivp(rhs, [x0, ys[-1]], start, method="DOP853", rtol=1e-13, atol=1e-16, t_eval=ys)
    return {s: math.exp(-0.5 * (q1 + moment)) for s, (_, _, q1, _, moment) in zip(sol.t, sol.y.T)}


def test_airy1_one_point_is_f_goe():
    # P(A_1(x) <= s/2) = F_GOE(s)
    ss = (-2.0, -1.0, 0.0, 1.0, 2.0)
    oracle = f_goe_painleve(ss)
    for s in ss:
        assert airy1_probability([(0.4, s / 2.0)]) == pytest.approx(oracle[s], abs=2e-9)


# ----------------------------------------------- the fixed point, 1:2:3 scaling


LAM, LAM_WEIGHTS = np.polynomial.legendre.leggauss(200)


def narrow_wedge_product(t, xi, xj, u, v):
    """int_{-inf}^0 S_{t,-xi}(lam - u) S_{t,xj}(lam - v) dlam, on [-20, 0]."""
    lam, w = 10.0 * (LAM - 1.0), 10.0 * LAM_WEIGHTS
    return (s_kernel(t, -xi, lam - u) * w) @ s_kernel(t, xj, lam - v).T


def flat_product(t, xi, xj, u, v):
    """int_R S_{t,-xi}(lam - u) S_{t,xj}(-lam - v) dlam, on [-20, 20]."""
    lam, w = 20.0 * LAM, 20.0 * LAM_WEIGHTS
    return (s_kernel(t, -xi, lam - u) * w) @ s_kernel(t, xj, -lam - v).T


def fixed_point_probability(t, points, product):
    """P(h(t, x_k) <= a_k for every k) = det(I - K) on the direct sum of
    L^2(a_k, inf), K(x_i, u; x_j, v) = product - e^((x_j - x_i) D^2)(u, v)
    1{x_i < x_j}.  block_extended_det reads each block on (-inf, -a_k]."""
    xs = [x for x, _ in points]

    def kernel(i, j, U, V):
        u, v = -U, -V
        out = product(t, xs[i], xs[j], u, v.T)
        gap = xs[j] - xs[i]
        if gap > 0:
            out = out - np.exp(-((u - v) ** 2) / (4.0 * gap)) / math.sqrt(4.0 * math.pi * gap)
        return out

    thresholds = tuple(-a for _, a in points)
    return block_extended_det(BlockExtendedProblem(kernel, thresholds, order=80))


FIXED_POINT_CASES = [
    (1.0, [(0.3, 0.1)]),
    (2.0, [(-0.4, -0.5), (0.6, 0.2)]),
]


@pytest.mark.parametrize("t, points", FIXED_POINT_CASES)
def test_narrow_wedge_is_airy2(t, points):
    # h(t, x) = t^(1/3) A_2(t^(-2/3) x) - x^2 / t
    got = fixed_point_probability(t, points, narrow_wedge_product)
    scaled = [(t ** (-2 / 3) * x, t ** (-1 / 3) * (a + x * x / t)) for x, a in points]
    assert got == pytest.approx(airy2_probability(scaled), abs=1e-10)


@pytest.mark.parametrize("t, points", FIXED_POINT_CASES)
def test_flat_is_airy1(t, points):
    # h(t, x) = (2t)^(1/3) A_1((2t)^(-2/3) x)
    got = fixed_point_probability(t, points, flat_product)
    scaled = [((2 * t) ** (-2 / 3) * x, (2 * t) ** (-1 / 3) * a) for x, a in points]
    assert got == pytest.approx(airy1_probability(scaled), abs=1e-10)


def test_airy2_wide_spacing():
    # a far second point barely constrains the first; each one-point bounds
    # the two-point from above.  The pinned value is the same determinant
    # with 400 lambda nodes on [0, 52]; 600 nodes on [0, 60] move it by
    # 3.9e-10.  A lambda rule cut at 16 is off by 0.27 here.
    got = airy2_probability([(0.0, 0.0), (6.0, 0.0)])
    f_gue_0 = airy2_probability([(0.0, 0.0)])
    assert f_gue_0**2 < got < f_gue_0
    assert got == pytest.approx(0.9398134552849766, abs=1e-9)
    with pytest.raises(ValueError):
        airy2_probability([(0.0, 0.0), (6.5, 0.0)])


def test_airy2_spacing_guard_follows_the_levels():
    # the heat-term subtraction loses about e^(d^3/12 - d(b_i+b_j)/2) ulps:
    # negative levels lose more at the same spacing, positive ones less.
    # Pinned values are the same determinants with 400 and 600 lambda
    # nodes, which agree to 5e-14.
    got = airy2_probability([(0.0, -1.0), (3.0, -1.0)])
    assert got == pytest.approx(0.65921775450865, abs=1e-12)
    got = airy2_probability([(0.0, 2.0), (7.0, 2.0)])
    assert got == pytest.approx(0.99977512360020, abs=1e-12)
    # 6e-7 and 3e-4 off at levels -1 and -2, spacing 6; past spacing 8 the
    # lambda rule overflows whatever the levels
    for points in ([(0.0, -1.0), (6.0, -1.0)], [(0.0, -2.0), (6.0, -2.0)], [(0.0, 5.0), (8.5, 5.0)]):
        with pytest.raises(ValueError):
            airy2_probability(points)
    # a dropped point is not checked
    assert airy2_probability([(0.0, -2.0), (9.0, math.inf)]) == airy2_probability([(0.0, -2.0)])
