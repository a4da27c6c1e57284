"""Tests for the F family, Airy and the Poisson-Charlier recurrence, and for
the test helpers that check them: the contour quadrature (tests/contour.py)
of the residue sums and the generalized binomial (tests/exact_oracles.py).

Expected values were frozen from independent oracles: mpmath for Airy,
closed-form residue/series identities for the F family.  The recurrence is
checked against the alternating Poisson sums it replaces, summed by mpmath at
high precision, and F_n for n >= 1 against its contour integral.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import airy

from contour import ContourSpec, circle_quadrature
from exact_oracles import gen_binomial
from kpzlab import special
from kpzlab.special import (
    _AIRY_S,
    _AIRY_SERIES,
    QuadratureError,
    _airy,
    _charlier_term,
    _poisson_charlier,
    _schuetz_F,
    airy_ai_kernel,
    schuetz_F,
)

# mpmath.airyai at dps=30, frozen.
AIRY_ORACLE = [
    (-30.0, -0.087968188456842163),
    (-29.5, 0.17161453239606635),
    (-12.0, -0.066555175054373129),
    (-9.5, 0.3191032477191282),
    (-9.0001, -0.022036154154691351),
    (-9.0, -0.022133721547341404),
    (-8.9999, -0.022231286947956548),
    (-8.5, -0.33029023763020888),
    (-7.0, 0.18428083525050564),
    (-2.338107410459767, 2.743319340666283e-17),  # first zero of Ai
    (-1.0, 0.53556088329235212),
    (0.0, 0.35502805388781724),
    (0.5, 0.23169360648083349),
    (1.0, 0.13529241631288142),
    (3.2, 0.0045674392740398194),
    (6.9999, 7.4941372771385925e-07),
    (7.0, 7.4921288639971671e-07),
    (7.0001, 7.4901209753047648e-07),
    (7.5, 1.9172560675134308e-07),
    (10.0, 1.1047532552898686e-10),
    (25.0, 8.1160268246913867e-38),
    (30.0, 3.2082175915504956e-49),
]


def test_airy_frozen_values():
    zs, want = np.array(AIRY_ORACLE).T
    got = airy_ai_kernel(zs)
    for z, g, w in zip(zs, got, want):
        assert abs(g - w) <= 1e-12, f"Ai({z})"
    assert all(abs(airy_ai_kernel(z) - w) <= 1e-12 for z, w in AIRY_ORACLE)  # 0-d input


def test_airy_out_of_range():
    # past +30 Ai is below 3e-48 and reads 0.0; below -30, and NaN, raise
    assert airy_ai_kernel(30.0001) == 0.0 and airy_ai_kernel(math.inf) == 0.0
    for z in (-31.0, -math.inf, math.nan):
        with pytest.raises(ValueError):
            airy_ai_kernel(z)
    with pytest.raises(ValueError):
        airy_ai_kernel(np.array([0.0, math.nan]))


def test_airy_kernel_wrapper():
    vals = airy_ai_kernel(np.array([0.0, 31.0, 1000.0]))
    assert vals[0] == pytest.approx(0.35502805388781724, abs=1e-12)
    assert vals[1] == 0.0 and vals[2] == 0.0
    with pytest.raises(ValueError):
        airy_ai_kernel(np.array([-30.5]))


def test_airy_matches_mpmath_on_dense_grid():
    zs = np.linspace(-30.0, 30.0, 1201)
    want = np.array([float(mpmath.airyai(z)) for z in zs])
    assert np.abs(airy_ai_kernel(zs) - want).max() <= 1e-12


# arguments on both sides of the evaluator's switch from scipy's airy to the
# Chebyshev series at 2, and on both sides of 10, where the error gates change
AIRY_TAIL = [1.999999, 2.0, 2.000001, 9.0, 9.999999, 10.0, 10.000001, 10.5, 12.25, 15.0, 17.3,
             20.0, 24.9, 29.99, 30.0]


def test_airy_ai_kernel_relative_accuracy_past_ten():
    # Ai(10) = 1.1e-10 and Ai(30) = 3.2e-49: an absolute gate says nothing here
    zs = np.array(AIRY_TAIL + list(np.linspace(10.0, 30.0, 41)[1:]))
    with mpmath.workdps(40):
        want = np.array([float(mpmath.airyai(mpmath.mpf(z))) for z in zs])
    assert np.abs(airy_ai_kernel(zs) / want - 1.0).max() <= 1e-13


def test_scaled_airy_relative_accuracy():
    # Ai and Ai' times e^zeta, zeta = (2/3) x^(3/2), as airye gives them
    zs = np.array([1e-3, 0.5, 2.0, 5.0] + AIRY_TAIL + [50.0, 104.0, 110.0, 250.0, 400.0])
    zs = np.concatenate([zs, np.geomspace(1e-2, 400.0, 60)])
    ai, aip = _airy(zs, scaled=True, derivative=True)
    with mpmath.workdps(40):
        for z, a, ap in zip(zs, ai, aip):
            x = mpmath.mpf(z)
            e = mpmath.exp(2 * x**1.5 / 3)
            assert abs(a / float(mpmath.airyai(x) * e) - 1.0) <= 5e-14, z
            assert abs(ap / float(mpmath.airyai(x, derivative=1) * e) - 1.0) <= 5e-14, z
    # unscaled up to the cut, and left of 0 where there is no factor, the
    # values are scipy's
    assert np.array_equal(_airy(zs[zs <= 2.0]), airy(zs[zs <= 2.0])[0])
    left = np.linspace(-30.0, 0.0, 31)
    assert np.array_equal(_airy(left, scaled=True), airy(left)[0])


def _airy_factors(s):
    """g(s) and h(s) of _AIRY_SERIES from mpmath, at s = 1/zeta."""
    x = (3 / (2 * s)) ** (mpmath.mpf(2) / 3)
    c = 2 * mpmath.sqrt(mpmath.pi) * mpmath.exp(1 / s)
    return c * x**0.25 * mpmath.airyai(x), -c * mpmath.airyai(x, derivative=1) / x**0.25


def test_airy_series_literals_rebuild_from_mpmath():
    # the Chebyshev interpolant of g and h at 40 Chebyshev-Gauss nodes on
    # s in [0, 1/zeta(2)], from mpmath at 40 digits, cut before the first
    # coefficient at or below 2e-18
    n = 40
    with mpmath.workdps(40):
        angles = [mpmath.pi * (j + mpmath.mpf(1) / 2) / n for j in range(n)]
        s_max = 3 / (4 * mpmath.sqrt(2))
        vals = [_airy_factors(s_max * (mpmath.cos(a) + 1) / 2) for a in angles]
        want = np.array([
            [float(mpmath.fsum(v[i] * mpmath.cos(k * a) for v, a in zip(vals, angles)) * 2 / n)
             for i in (0, 1)]
            for k in range(n)
        ])
        want[0] /= 2
    assert float(s_max) == _AIRY_S
    assert len(_AIRY_SERIES) == 25
    assert np.abs(_AIRY_SERIES - want[:25]).max() <= 1e-17
    assert np.abs(want[24]).min() > 2e-18 and np.abs(want[25]).max() <= 2e-18


def test_scaled_airy_past_the_cut_within_2e_15():
    # 25 times tighter than test_scaled_airy_relative_accuracy, up to 1e8.
    # At 2 itself the values are scipy's, and its Ai'(2) is 4.7e-15 off.
    zs = np.geomspace(2.0, 1e8, 200)[1:]
    ai, aip = _airy(zs, scaled=True, derivative=True)
    with mpmath.workdps(40):
        for z, a, ap in zip(zs, ai, aip):
            x = mpmath.mpf(z)
            e = mpmath.exp(2 * x**1.5 / 3)
            assert abs(a / float(mpmath.airyai(x) * e) - 1.0) <= 2e-15, z
            assert abs(ap / float(mpmath.airyai(x, derivative=1) * e) - 1.0) <= 2e-15, z


def test_airy_asks_scipy_nothing_past_the_cut(monkeypatch):
    seen = []

    def recording_airy(x):
        seen.append(np.max(x, initial=-np.inf))
        return airy(x)

    monkeypatch.setattr(special, "airy", recording_airy)
    zs = np.concatenate([np.linspace(-30.0, 40.0, 701), [2.0, 2.000001, 1e8, math.inf]])
    for scaled in (False, True):
        for derivative in (False, True):
            _airy(zs, scaled=scaled, derivative=derivative)
            _airy(2.5, scaled=scaled, derivative=derivative)
    airy_ai_kernel(zs[zs <= 30.0])
    assert seen and max(seen) <= 2.0


def test_airy_at_plus_infinity():
    assert _airy(math.inf) == 0.0
    ai, aip = _airy(np.array([math.inf, 1e3]), derivative=True)
    assert ai.tolist() == [0.0, 0.0] and aip.tolist() == [0.0, 0.0]
    ai, aip = _airy(math.inf, scaled=True, derivative=True)
    assert ai == 0.0 and aip == -math.inf  # Ai' e^zeta ~ -x^(1/4) / (2 sqrt(pi))


def test_airy_against_contour_representation():
    # Ai(z) = (1/2 pi i) int over rays at angles +-pi/3 of e^{w^3/3 - z w} dw.
    z = 5.0
    s, wts = np.polynomial.legendre.leggauss(240)
    s = 4.0 * (s + 1.0)  # [0, 8]
    wts = 4.0 * wts
    ray = np.exp(1j * np.pi / 3.0)
    w = s * ray
    vals = np.exp(w**3 / 3.0 - z * w) * ray
    ai = np.sum(wts * vals).imag / np.pi
    assert abs(airy_ai_kernel(z) - ai) <= 1e-10


# ---- contour quadrature (tests/contour.py) ---------------------------------


def test_gamma_contours():
    g0 = ContourSpec.gamma0()
    assert g0.encloses(0) and not g0.encloses(1)
    g01 = ContourSpec.gamma01()
    assert g01.encloses(0) and g01.encloses(1)
    with pytest.raises(ValueError):
        ContourSpec.gamma0(radius=1.5)  # would enclose w = 1
    shifted = ContourSpec(2.0 + 0j, 0.5)  # off-origin circles are allowed
    assert shifted.encloses(2.2) and not shifted.encloses(0)


def test_circle_quadrature_residues():
    # f = 1/w has residue 1; adding an analytic part changes nothing.
    res = circle_quadrature(lambda w: 1.0 / w + np.exp(w), ContourSpec.gamma0())
    assert res.converged
    assert abs(res.value - 1.0) <= 1e-13
    # doubling report: the last two levels agree to the requested tol
    assert abs(res.value - res.prev_value) <= 1e-12 * max(1.0, abs(res.value))


def test_circle_quadrature_divergence_reports_levels():
    # pole sitting exactly on the contour never converges
    with pytest.raises(QuadratureError) as exc:
        circle_quadrature(lambda w: 1.0 / (w - 0.5), ContourSpec.gamma0())
    assert "delta" in str(exc.value)


def test_circle_quadrature_names_the_node_where_f_is_not_finite():
    with pytest.raises(QuadratureError) as exc:
        circle_quadrature(lambda w: 1.0 / (w - 0.5), ContourSpec.gamma0())
    msg = str(exc.value)
    assert "not finite" in msg and "move the contour" in msg
    assert "node 0 of 64" in msg


# ---- Poisson-Charlier recurrence -------------------------------------------


def _mp_poisson_charlier(j, x, t, c):
    """e^(-r) sum_i C(x, i) (-c)^i r^(j-i) / (j-i)!, r = c t, summed by mpmath."""
    r = mpmath.mpf(c) * mpmath.mpf(t)
    term = r**j / mpmath.factorial(j)
    total = mpmath.mpf(0)
    for i in range(j + 1):
        total += term
        if i < j:
            term *= -mpmath.mpf(c) * (x - i) * (j - i) / ((i + 1) * r)
    return mpmath.exp(-r) * total


def _degree_runs(m, xs, *args):
    """Rows 0..m of the Charlier table over xs, row j from its own array
    run of degree j: an array run returns only its top row."""
    return np.array([_poisson_charlier(j, xs, *args) for j in range(m + 1)])


@pytest.mark.parametrize("t", [0.3, 2.0, 179.0, 1000.0])
@pytest.mark.parametrize("c", [0.5, 1.0])
def test_poisson_charlier_matches_mpmath(t, c):
    # r = 1000 runs through the log offset: e^(-r) alone underflows
    xs = np.arange(-40, 2 * int(t) + 60, max(1, int(t) // 8))
    assert _poisson_charlier(60, xs, t, c).shape == xs.shape
    with mpmath.workdps(150):
        for j in (0, 1, 7, 30, 60):
            got = _poisson_charlier(j, xs, t, c)
            want = np.array([float(_mp_poisson_charlier(j, int(x), t, c)) for x in xs])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _mp_charlier_term(p, k, t):
    """E_p(k) = e^(-t) t^(p-m) / p! * Q, m = min(k, p), with the cancelling
    part Q = sum_(j <= m) C(k, j) (-1)^j t^(m-j) p! / (p-j)! in exact
    rationals, so that Q = 0 exactly where E_p(k) vanishes."""
    m, tq = min(k, p), Fraction(t)
    q = sum(
        math.comb(k, j) * (-1) ** j * tq ** (m - j) * math.perm(p, j) for j in range(m + 1)
    )
    t = mpmath.mpf(t)
    weight = mpmath.exp(-t) * t ** (p - m) / mpmath.factorial(p)
    return weight * mpmath.mpf(q.numerator) / q.denominator


@pytest.mark.parametrize("t", [0.3, 2.0, 40.0, 150.0, 384.9])
def test_charlier_term_array_matches_mpmath(t):
    # every entry to itself, right of the Poisson bulk too, where one run
    # over the degree is off by up to 1e230 relative
    ps = np.arange(-5, int(3 * t) + 61)
    for k in (0, 1, 3, 7):
        got = _charlier_term(ps, k, t)
        assert got.shape == ps.shape and not got[:5].any()
        with mpmath.workdps(40):
            want = np.array([float(_mp_charlier_term(int(p), k, t)) for p in ps[5:]])
        assert (np.abs(got[5:] - want) <= 1e-11 * np.abs(want)).all(), k
    # negative k and t = 0 run over p, as a scalar p does
    for k, tt in ((-3, t), (3, 0.0)):
        got = _charlier_term(ps, k, tt)
        want = [_charlier_term(int(p), k, tt) for p in ps]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_poisson_charlier_scalar_is_one_column():
    # scalar x runs on plain floats; it must give the vector runs' column
    xs = np.arange(-5, 30)
    rows = _degree_runs(25, xs, 3.7, 0.5)
    for ix, x in enumerate(xs):
        column = _poisson_charlier(25, int(x), 3.7, 0.5)
        np.testing.assert_allclose(column, rows[:, ix], rtol=1e-14, atol=0)


def test_poisson_charlier_symmetry_and_time_zero():
    # C_j(x) = C_x(j): moving the Poisson weight from degree j to degree x
    t = 4.2
    for j in range(8):
        for x in range(8):
            a = _poisson_charlier(j, x, t)[j]
            b = _poisson_charlier(x, j, t)[x] * t ** (j - x) * math.factorial(x)
            assert a == pytest.approx(b / math.factorial(j), rel=1e-13)
    # t = 0 is the limit (-c)^j C(x, j)
    rows = _degree_runs(6, np.arange(-4, 9), 0.0, 0.5)
    for j in range(7):
        for ix, x in enumerate(range(-4, 9)):
            assert rows[j, ix] == pytest.approx(float((-0.5) ** j * gen_binomial(x, j)), abs=1e-15)


@pytest.mark.parametrize(
    "t, log_scale, rtol",
    [(0.5, -300.0, 1e-14), (1000.0, 1400.0, 1e-14), (0.5, 705.5, 1e-14)],
)
def test_poisson_charlier_scalar_exit_matches_vector_exit(t, log_scale, rtol):
    # Python and numpy scalars exit as a list of plain floats, which must
    # match the vector exit wherever that is finite
    xs = np.arange(0, 6)
    rows = _degree_runs(8, xs, t, 1.0, log_scale)
    assert np.isfinite(rows).all()
    for ix, x in enumerate(xs):
        for scalar in (int(x), np.int64(x), float(x)):
            column = _poisson_charlier(8, scalar, t, 1.0, log_scale)
            assert isinstance(column, list) and all(type(v) is float for v in column)
            np.testing.assert_allclose(column, rows[:, ix], rtol=rtol, atol=0)


def test_poisson_charlier_scalar_exit_past_the_offset_range():
    # e^720 alone overflows and e^-760 alone underflows.  Both exits give
    # each row whose value is in the double range, and +-inf or 0 only for
    # rows whose value is not; a subnormal row may differ in its last bit
    xs = np.array([2, -400])
    base = _degree_runs(40, xs, 0.5)
    for offset in (720.0, -760.0):
        rows = _degree_runs(40, xs, 0.5, 1.0, offset)
        for ix, x in enumerate(xs.tolist()):
            want = [float(mpmath.exp(offset) * v) for v in base[:, ix]]
            for got in (_poisson_charlier(40, x, 0.5, 1.0, offset), rows[:, ix]):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-320)
    # each case has rows on both sides of the range
    high = _poisson_charlier(40, 2, 0.5, 1.0, 720.0)
    low = _poisson_charlier(40, -400, 0.5, 1.0, -760.0)
    assert math.isinf(high[0]) and math.isfinite(high[40]) and high[40] != 0.0
    assert _poisson_charlier(40, 2, 0.5, 1.0, 720.0, rows=(0, 40)) == [high[0], high[40]]
    assert low[0] == 0.0 and low[40] > 1e-300


def _checked_charlier_row(m, x, t, c, log_scale, exp2):
    """E_m over an array x by the recurrence that tests every entry's
    scale on every step and renormalises outside [2^-500, 2^500]: the
    loop that _poisson_charlier's bound replaced, kept as its reference."""
    s, ln2_hi, ln2_lo = log_scale - c * t, 0.693147180369123816490, 1.90821492927058770002e-10
    x, r, k = np.asarray(x, dtype=float), c * t, s / ln2_hi // 1 * (abs(s) >= 300.0)
    prev, cur, e = np.zeros(x.shape), np.ones(x.shape), np.full(x.shape, exp2 + k, dtype=int)
    for j in range(m):
        prev, cur = cur, ((j + t - x) * cur - r * prev) * (c / (j + 1))
        size = abs(cur)
        if size.size and (size.max() > 2.0**500 or size.min() < 2.0**-500):
            f = np.frexp(np.maximum(abs(prev), size))[1]
            prev, cur, e = np.ldexp(prev, -f), np.ldexp(cur, -f), e + f
    with np.errstate(over="ignore"):
        return np.ldexp(cur * np.exp(s - k * ln2_hi - k * ln2_lo), e)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.3, 2.0, 50.0, 500.0, 5657.0])
def test_poisson_charlier_scale_bound_keeps_every_bit(t):
    # renormalising on a bound, not on a test of every entry, moves each
    # entry by exact powers of 2 only: every row keeps its bits, 0 and
    # +-inf past the double range included, and rows handed out at several
    # degrees of one run are those of a run per degree
    rng = np.random.default_rng(int(t * 1000) + 1)
    outside = 0
    for c in (1.0, 0.5, -1.0):
        for _ in range(3):
            m = int(rng.integers(1, 401))
            lo = int(rng.integers(-2 * int(t) - 60, 2 * int(t) + 60))
            xs = np.arange(lo, lo + int(rng.integers(1, 120)))
            log_scale = float(rng.uniform(-100.0, 100.0))
            exp2 = rng.integers(-1300, 1300, xs.shape)
            want = _checked_charlier_row(m, xs, t, c, log_scale, exp2)
            assert _same_bits(_poisson_charlier(m, xs, t, c, log_scale, exp2), want)
            outside += int((~np.isfinite(want) | (want == 0.0)).sum())
            degrees = sorted({0, m, *rng.integers(0, m + 1, 4).tolist()})
            rows = list(_poisson_charlier(m, xs, t, c, log_scale, exp2, degrees))
            assert len(rows) == len(degrees)
            for d, row in zip(degrees, rows):
                assert _same_bits(row, _poisson_charlier(d, xs, t, c, log_scale, exp2))
            column = _poisson_charlier(m, lo, t, c, log_scale, 7)
            picked = _poisson_charlier(m, lo, t, c, log_scale, 7, degrees)
            assert _same_bits(picked, [column[d] for d in degrees])
        empty = np.arange(0)
        assert _poisson_charlier(40, empty, t, c).shape == (0,)
        rows = _poisson_charlier(40, empty, t, c, rows=(3, 40))
        assert [row.shape for row in rows] == [(0,), (0,)]
    assert outside
    if t == 0.0:
        # (-1/2)^j C(x, j) falls by more than the double range on the way
        # to degree 1500, and exp2 lifts the top row back into it
        xs = np.arange(-3, 4)
        want = _checked_charlier_row(1500, xs, t, 0.5, 0.0, 1400)
        assert _same_bits(_poisson_charlier(1500, xs, t, 0.5, 0.0, 1400), want)
        assert np.isfinite(want).all() and want[:3].all()


def test_schuetz_F_frozen():
    assert schuetz_F(0, 0, 0.0) == 1.0
    assert schuetz_F(0, 3, 0.0) == 0.0
    assert schuetz_F(0, -2, 0.0) == 0.0
    assert schuetz_F(-1, -3, 0.0) == 0.0
    assert abs(schuetz_F(0, 2, 1.0) - math.exp(-1) / 2) <= 1e-15
    # F_1(0,1) = sum_{y>=0} e^{-1}/y! = 1 and F_2(0,1) = e^{-1} * 2e = 2
    assert abs(schuetz_F(1, 0, 1.0) - 1.0) <= 1e-9
    assert abs(schuetz_F(2, 0, 1.0) - 2.0) <= 1e-9


def test_schuetz_F_memo_is_the_helper_to_the_bit():
    # each entry is asked for twice, so the second read comes from the memo
    compute = _schuetz_F.__wrapped__
    for t in (0.0, 0.3, 1.7, 40.0):
        for n in range(-4, 5):
            for x in range(-6, 12):
                want = compute(n, x, t).hex()
                assert schuetz_F(n, x, t).hex() == want, (n, x, t)
                assert schuetz_F(n, x, t).hex() == want, (n, x, t)


def test_schuetz_F_numpy_arguments_share_the_entry():
    for n, x, t in ((2, -1, 0.7), (-1, 3, 1.25), (0, 0, 0.0), (-3, 5, 2.0)):
        want = schuetz_F(n, x, t)
        misses = _schuetz_F.cache_info().misses
        for args in (
            (np.int64(n), np.int32(x), np.float64(t)),
            (float(n), np.float64(x), t),
            (np.int8(n), x, int(t) if t.is_integer() else t),
        ):
            got = schuetz_F(*args)
            assert type(got) is float and got.hex() == want.hex(), args
        assert _schuetz_F.cache_info().misses == misses


def test_schuetz_F_checks_come_before_the_memo():
    schuetz_F(1, 2, 0.5)
    for bad in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^t must be finite and nonnegative"):
            schuetz_F(1, 2, bad)
    misses = _schuetz_F.cache_info().misses
    for n, x in ((1, 2.5), (0.5, 2), (np.float64(1.25), 0), (1, math.inf), (1, math.nan)):
        with pytest.raises(ValueError, match=r"must be an integer"):
            schuetz_F(n, x, 0.5)
    assert _schuetz_F.cache_info().misses == misses


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", range(-3, 4))
def test_schuetz_F_summation_identity(n, t):
    # F_{n+1}(x,t) = sum_{y >= x} F_n(y,t).  The tail is cut once terms are
    # dead: Poisson decay guarantees |F_n(y,t)| < 1e-12 before y reaches
    # max(x,0) + t + 30.
    for x in (-4, -1, 0, 2, 5):
        total = 0.0
        small = 0
        for y in range(x, int(max(x, 0) + t + 30)):
            v = schuetz_F(n, y, t)
            total += v
            small = small + 1 if abs(v) < 3e-10 else 0
            if small >= 3 and y > max(x, 0) + t:
                break
        assert abs(schuetz_F(n + 1, x, t) - total) <= 1e-8


@pytest.mark.parametrize("n", range(-2, 3))
def test_schuetz_F_derivative_identity(n):
    # dF_n/dt = -(F_n(x,t) - F_n(x-1,t)), checked by central differences
    t, dt = 1.25, 1e-5
    for x in (-3, 0, 1, 4):
        lhs = (schuetz_F(n, x, t + dt) - schuetz_F(n, x, t - dt)) / (2 * dt)
        rhs = -(schuetz_F(n, x, t) - schuetz_F(n, x - 1, t))
        assert abs(lhs - rhs) <= 1e-6


def test_schuetz_F_backward_identity_exact():
    # for n <= 0: F_{n+1}(x,t) = -sum_{y < x} F_n(y,t), a finite sum
    t = 0.7
    for n in (-3, -2, -1):
        for x in (-1, 0, 2, 4):
            total = -sum(schuetz_F(n, y, t) for y in range(n, x))
            assert abs(schuetz_F(n + 1, x, t) - total) <= 1e-12


def _mp_schuetz_F(n, x, t):
    """F_n(x, t) by its two residues in mpmath, and the size of the residue
    at w = 1 (the scale of the cancellation in the far tail)."""
    t = mpmath.mpf(t)
    at0 = mpmath.mpf(0)
    p = x - n
    if p >= 0:
        # coefficient of w^p in (1 - w)^(-n) e^(tw), times e^(-t)
        term, coeff = t**p / mpmath.factorial(p), mpmath.mpf(1)
        for j in range(min(p, -n) if n <= 0 else p):
            at0 += term * coeff
            term *= (p - j) / t
            coeff *= (n + j) / mpmath.mpf(j + 1)
        at0 = (-1) ** n * mpmath.exp(-t) * (at0 + term * coeff)
    at1 = mpmath.mpf(0)
    if n >= 1:
        at1 = sum(
            mpmath.binomial(n - x - 1, j) * t ** (n - 1 - j) / mpmath.factorial(n - 1 - j)
            for j in range(n)
        )
    return float(at0 + at1), float(abs(at1))


@pytest.mark.parametrize("t", [0.3, 40.0, 800.0])
def test_schuetz_F_matches_mpmath(t):
    # t = 800 runs the degree-swapped n <= 0 branch through the log offset
    with mpmath.workdps(80):
        for n in range(-4, 5):
            for x in list(range(-6, 20)) + list(range(int(t) - 30, int(t) + 60, 11)):
                want, scale = _mp_schuetz_F(n, x, t)
                assert abs(schuetz_F(n, x, t) - want) <= 1e-12 * max(1.0, scale), (n, x)


@pytest.mark.parametrize("t", [0.3, 40.0, 800.0])
def test_schuetz_F_relative_accuracy(t):
    # For n >= 1 the value is a positive series, so it must hold to a
    # relative bound, also far right of the Poisson bulk where the two
    # residues cancel: F_4(294, 0.3) is below 1e-700 while each residue is
    # about 4e6.  The start weight is e^(-a) with a up to a few hundred, so
    # a few ulp of a give the bound.  The oracle is the residue pair at
    # enough digits to survive that cancellation.
    xs = list(range(-6, 20)) + list(range(int(t) - 30, int(t) + 60, 11))
    if t == 0.3:
        xs += [40, 80, 120, 294]
    with mpmath.workdps(900 if t == 0.3 else 120):
        for n in range(1, 5):
            for x in xs:
                want = _mp_schuetz_F(n, x, t)[0]
                assert abs(schuetz_F(n, x, t) - want) <= 2e-13 * abs(want), (n, x)


@pytest.mark.parametrize("t", [0.5, 1.6276, 2.0, 5.0])
def test_schuetz_F_matches_gamma01_contour(t):
    # the contour integral on Gamma_{0,1} is the independent route for n >= 1
    for n in range(1, 5):
        for x in range(-6, 13):

            def f(w):
                return (1.0 - w) ** (-n) * w ** (-(x - n + 1)) * np.exp(t * (w - 1.0))

            try:
                res = circle_quadrature(f, ContourSpec.gamma01())
            except QuadratureError:
                continue
            assert abs(schuetz_F(n, x, t) - ((-1) ** n * res.value).real) <= 1e-11


def test_gen_binomial():
    assert gen_binomial(-1, 2) == 1
    assert isinstance(gen_binomial(-1, 2), Fraction)
    assert gen_binomial(3, 5) == 0
    assert gen_binomial(5, 2) == 10
    assert gen_binomial(-2, 3) == -4
    assert gen_binomial(2.5, 2) == pytest.approx(1.875)
    assert gen_binomial(4, -1) == 0
