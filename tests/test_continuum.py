"""Continuum layer checks: S_{t,x} and the Airy kernel against scipy, the
Airy-process determinants against published Tracy-Widom values and a
Painleve II solve, and the paper's S-product fixed-point kernels against
the Airy processes after the 1:2:3 rescaling."""

import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.special import airy, airye

from kpzlab.continuum import airy1_probability, airy2_probability, airy_kernel, s_kernel
from kpzlab.fredholm import ORDER_LADDER, Certified, HalfLineUp, _quadrature_det

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


def test_s_kernel_rejects_non_finite_arguments():
    # t = inf returned 0.0 and x = nan returned nan, with no error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (math.inf, math.nan, np.float64(math.inf)):
            with pytest.raises(ValueError, match="finite t > 0"):
                s_kernel(t, 0.5, 1.0)
        for x, z, name in ((math.nan, 1.0, "x"), ([0.0, math.inf], 1.0, "x"),
                           (0.5, np.array([[0.0], [-math.inf]]), "z"), (1.0, math.nan, "z")):
            with pytest.raises(ValueError, match=f"finite {name}"):
                s_kernel(1.0, x, z)


def _s_mpmath(t, x, z):
    with mpmath.workdps(50):
        t, x, z = mpmath.mpf(t), mpmath.mpf(x), mpmath.mpf(z)
        c = t ** (-mpmath.mpf(1) / 3)
        return float(c * mpmath.exp(2 * x**3 / (3 * t * t) - z * x / t) * mpmath.airyai(c**4 * x * x - c * z))


def test_s_kernel_in_and_out_of_its_range():
    # (1e-300, 1, 1) and (1, 1e103, 0) gave NaN, and the two overflows inf,
    # each with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the exponent's terms cancel past double precision: refused by name
        for t, x, z in ((1e-300, 1.0, 1.0), (1e-10, 1.0, 1.0), (1.0, 1e103, 0.0), (1.0, 1e10, 1.0)):
            with pytest.raises(ValueError, match=r"\|X\|\^3 \+ \|ZX\| \+ \|X\^2 - Z\|\^\(3/2\) <= 2\^23"):
                s_kernel(t, x, z)
        # values past the double range are +-inf, with Ai(-100)'s sign
        for x, z in ((-10.0, 200.0), (-30.0, 1000.0)):
            assert s_kernel(1.0, x, z) == math.copysign(math.inf, airy(-100.0)[0])
        # e^net past exp's range, whose product with t^(-1/3) Ai is a double
        c = 1e300 ** (-1.0 / 3.0)
        for t, xs, zs in ((1e300, -10.0 / c**2, 150.0 / c), (1e-300, 0.0, -120.0 * 1e-100)):
            want = _s_mpmath(t, xs, zs)
            assert 1e-300 < abs(want) < 1e300
            assert float(s_kernel(t, xs, zs)) == pytest.approx(want, rel=1e-9)
        # near the bound the cancellation costs about 1e-9
        for t, x, z in ((1.0, 140.0, 1.0), (1e-3, 1.0, 1.0), (1.0, 0.0, 30000.0)):
            assert float(s_kernel(t, x, z)) == pytest.approx(_s_mpmath(t, x, z), rel=2e-9)


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
    # five points were refused by a count cap, and now take the four's value
    five = [(float(k), math.inf if k == 4 else 0.0) for k in range(5)]
    cases = [([(x, 0.0)], "finite x") for x in (math.nan, math.inf, -math.inf)]
    cases += [([], "at least one point")]
    for probability in (airy1_probability, airy2_probability):
        for points, message in cases:
            with pytest.raises(ValueError, match=message):
                probability(points)
        assert probability(five) == probability(five[:4])


def test_points_are_read_once_from_any_iterable():
    # a generator raised a bare TypeError on len()
    points = [(-0.5, -0.25), (0.5, -0.25), (1.5, 0.5)]
    for probability in (airy1_probability, airy2_probability):
        want = probability(points)
        assert probability(p for p in points).hex() == want.hex()
        assert probability(iter(points)).hex() == want.hex()


# A mesh of nine points on [-2, 2] at levels below the parabola's, so that
# no one point is all but certain
NINE = [(-2.0 + 0.5 * k, -1.0 + (-2.0 + 0.5 * k) ** 2 / 4.0) for k in range(9)]


@pytest.mark.parametrize("probability", [airy2_probability, airy1_probability], ids=["A2", "A1"])
def test_adding_a_point_never_raises_the_probability(probability):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [probability(NINE[:k]) for k in range(1, len(NINE) + 1)]
    assert all(0.0 < v < 1.0 for v in values)
    assert all(later <= earlier + 1e-12 for earlier, later in zip(values, values[1:])), values


@pytest.mark.parametrize("probability", [airy2_probability, airy1_probability], ids=["A2", "A1"])
def test_a_k_point_with_one_finite_level_is_its_one_point(probability):
    # +inf levels drop their points, so the nine-point is the one-point's
    # determinant itself
    for k, point in enumerate(NINE):
        others = [(x, math.inf) for x, _ in NINE]
        others[k] = point
        assert probability(others).hex() == probability([point]).hex(), point


def test_airy2_on_a_finer_mesh_falls_toward_the_flat_law():
    # P(A_2(y) - y^2 <= -1 on a mesh of [-2, 2]) falls toward the sup over
    # the line, F_GOE(2^(2/3) * (-1)) = 0.39854 (Johansson, CMP 242, 2003),
    # as the spacing goes 1, 1/2, 1/3, 1/4; a trend, not a tight gate, since
    # the gap shrinks only like the root of the spacing
    flat = airy1_probability([(0.0, -1.0 / 2.0 ** (1.0 / 3.0))])
    assert flat == pytest.approx(0.39854, abs=1e-5)
    values = []
    for per_unit in (1, 2, 3, 4):
        ys = [-2.0 + k / per_unit for k in range(4 * per_unit + 1)]
        values.append(airy2_probability([(y, -1.0 + y * y) for y in ys]))
    assert all(v > flat for v in values)
    assert all(finer < coarser for coarser, finer in zip(values, values[1:])), values


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


def _one_thread(script: str) -> list[str]:
    """The lines that script prints, run in a fresh process at one BLAS
    thread on this checkout's kpzlab."""
    import kpzlab

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(kpzlab.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    return run.stdout.split("\n")[:-1]


def test_airy_process_values_to_the_bit():
    # OpenBLAS 0.3.31 at one thread on x86-64
    assert _one_thread(_AIRY_BITS) == [
        "80 0x1.d0130a3b9ee96p-1",
        "80 0x1.0d09b303cb38fp-1",
        "160 0x1.892a89a59d9dap-2",
    ]


# Every call to continuum's Airy evaluator, recorded: the blocks of one
# ladder order share their factors, so no argument array, or its transpose,
# comes twice.  Arrays of different orders differ in shape.
_AIRY_ONCE = """
import numpy as np
from kpzlab import continuum
real, seen = continuum._airy, []

def recording(x, *args, **kwargs):
    seen.append(np.array(x, dtype=float))
    return real(x, *args, **kwargs)

continuum._airy = recording
two = [(-0.5, -0.25), (0.5, -0.25)]
four = [(-1.0, -1.5), (0.0, -1.0), (1.0, -1.5), (2.0, 0.0)]
for probability, points in ((continuum.airy2_probability, two),
                            (continuum.airy2_probability, four),
                            (continuum.airy1_probability, four)):
    seen.clear()
    got = probability(points)
    repeats = sum(any(np.array_equal(x, y) or np.array_equal(x, y.T) for y in seen[:k])
                  for k, x in enumerate(seen))
    print(got.order, float(got).hex(), repeats, sum(x.size for x in seen))
"""


def test_airy_factors_once_per_order_keep_the_pinned_bits():
    # the four-point Airy_2 took 693 600 Ai values, 58 % of them repeats
    lines = [line.split() for line in _one_thread(_AIRY_ONCE)]
    assert [line[:3] for line in lines] == [
        ["80", "0x1.d0130a3b9ee96p-1", "0"],
        ["160", "0x1.892a89a59d9dap-2", "0"],
        ["160", "0x1.46aa858f2974ep-10", "0"],
    ]
    assert int(lines[1][3]) <= 290_400


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
    1{x_i < x_j}.  The quadrature reads each block on [a_k, inf) at 80
    nodes."""
    xs = [x for x, _ in points]

    def kernel(i, j, u, v):
        out = product(t, xs[i], xs[j], u, v.T)
        gap = xs[j] - xs[i]
        if gap > 0:
            out = out - np.exp(-((u - v) ** 2) / (4.0 * gap)) / math.sqrt(4.0 * math.pi * gap)
        return out

    return _quadrature_det(kernel, [HalfLineUp(a) for _, a in points], 80)


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


# ---- what the ladder cannot resolve ------------------------------------------


@pytest.mark.parametrize("probability, name", [(airy2_probability, "A_2"), (airy1_probability, "A_1")])
def test_close_points_name_the_points_and_the_heat_kernel(probability, name):
    # these took fredholm's "try a larger tol", but they take no tol
    from kpzlab.fredholm import ConvergenceError

    for d in (0.1, 0.01, 1e-3, 1e-9):
        with warnings.catch_warnings(), pytest.raises(ConvergenceError) as err:
            warnings.simplefilter("error")
            probability([(0.0, -1.0), (d, -1.0)])
        msg = str(err.value)
        assert f"P({name}(x_k) <= b_k) at the points [(0.0, -1.0), ({d!r}, -1.0)]" in msg
        assert "heat kernel" in msg and "larger tol" not in msg


def test_low_airy1_levels_name_the_level():
    from kpzlab.fredholm import ConvergenceError

    for b in (-10.0, -12.0, -20.0):
        with warnings.catch_warnings(), pytest.raises(ConvergenceError) as err:
            warnings.simplefilter("error")
            airy1_probability([(0.0, b)])
        msg = str(err.value)
        assert f"the level {b} takes the Airy factors to negative arguments" in msg
        assert "larger tol" not in msg


def test_levels_past_the_cut_drop_out_without_warnings():
    # zeta = x^1.5 overflowed past levels of about 1e205, with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for probability in (airy1_probability, airy2_probability):
            for b in (129.0, 1e206, 1e300):
                assert probability([(0.0, b)]) == 1.0
                assert probability([(0.0, 0.5), (1.0, b)]) == probability([(0.0, 0.5)])
