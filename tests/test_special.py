"""Tests for contour quadrature, the F family, Airy, and binomials.

Expected values were frozen from independent oracles: mpmath for Airy,
closed-form residue/series identities for the F family.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from kpzlab.special import (
    ContourSpec,
    QuadratureError,
    airy_ai,
    airy_ai_kernel,
    circle_quadrature,
    gen_binomial,
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
    for z, want in AIRY_ORACLE:
        assert abs(airy_ai(z) - want) <= 1e-12, f"Ai({z})"


def test_airy_out_of_range():
    for z in (30.0001, -31.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            airy_ai(z)


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
    assert max(abs(airy_ai(z) - w) for z, w in zip(zs, want)) <= 1e-12


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
    assert abs(airy_ai(z) - ai) <= 1e-10


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


def test_schuetz_F_frozen():
    assert schuetz_F(0, 0, 0.0) == 1.0
    assert schuetz_F(0, 3, 0.0) == 0.0
    assert schuetz_F(0, -2, 0.0) == 0.0
    assert schuetz_F(-1, -3, 0.0) == 0.0
    assert abs(schuetz_F(0, 2, 1.0) - math.exp(-1) / 2) <= 1e-15
    # F_1(0,1) = sum_{y>=0} e^{-1}/y! = 1 and F_2(0,1) = e^{-1} * 2e = 2
    assert abs(schuetz_F(1, 0, 1.0) - 1.0) <= 1e-9
    assert abs(schuetz_F(2, 0, 1.0) - 2.0) <= 1e-9


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", range(-3, 4))
def test_schuetz_F_summation_identity(n, t):
    # F_{n+1}(x,t) = sum_{y >= x} F_n(y,t).  The tail is cut once terms are
    # dead: Poisson decay guarantees |F_n(y,t)| < 1e-12 before y reaches
    # max(x,0) + t + 30, and far beyond that the n >= 1 contour values are
    # pure roundoff noise.
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


def test_gen_binomial():
    assert gen_binomial(-1, 2) == 1
    assert isinstance(gen_binomial(-1, 2), Fraction)
    assert gen_binomial(3, 5) == 0
    assert gen_binomial(5, 2) == 10
    assert gen_binomial(-2, 3) == -4
    assert gen_binomial(2.5, 2) == pytest.approx(1.875)
    assert gen_binomial(4, -1) == 0
