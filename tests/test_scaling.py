"""TASEP along the 1:2:3 scaling, against the KPZ fixed point.

At t = 2 eps^(-3/2) the rescaled height sqrt(eps) (h_t(2x/eps) + eps^(-3/2))
of step data converges to the Airy_2 process minus x^2, so one-point
probabilities approach F_GUE at the rate sqrt(eps), and so does the
kernel itself approach the Airy kernel.  The oracle is the closed-form
Airy kernel and its determinant below, built on scipy alone, not the
library's kernels.  Half-flat data (particles at 0, -2, -4, ...) is flat on
(-inf, 0], and left of the origin its one-points approach the flat law
F_GOE.  Every event comes from simulate.height_events.
"""

import math

import numpy as np
import pytest
from scipy.special import airy

from kpzlab.exact import kt_kernel, multipoint_probability, path_integral_probability
from kpzlab.continuum import airy1_probability
from kpzlab.simulate import height_events, make_initial

STEP = make_initial("step")
HALF_FLAT = make_initial("periodic", d=2)


def airy_kernel(u):
    """The Airy kernel on the points u, (Ai(u)Ai'(v) - Ai'(u)Ai(v))/(u - v),
    with diagonal Ai'^2 - u Ai^2."""
    ai, aip, _, _ = airy(u)
    diff = u[:, None] - u[None, :]
    same = diff == 0.0
    off = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / np.where(same, 1.0, diff)
    return np.where(same, (aip**2 - u * ai**2)[:, None], off)


def f_gue(s, m=96, span=16.0):
    """F_GUE(s) = det(I - K_Ai) on L^2(s, s + span), Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(m)
    u = 0.5 * span * (x + 1.0) + s
    w = 0.5 * span * w
    kernel = airy_kernel(u)
    sq = np.sqrt(w)
    return float(np.linalg.det(np.eye(m) - sq[:, None] * kernel * sq[None, :]))


def test_f_gue_oracle_has_converged():
    # more nodes on a longer interval move nothing at the 1e-12 level
    for s in (-3.0, -1.0, 0.5):
        assert f_gue(s) == pytest.approx(f_gue(s, m=160, span=20.0), abs=1e-12)
    assert f_gue(-1.0) == pytest.approx(0.80721424199929, abs=1e-12)


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.03, 0.02, 0.01, 0.007, 0.005])
def test_one_point_approaches_f_gue(eps):
    t = 2.0 * eps**-1.5
    for r in (-2.0, -1.0, 0.0, 1.0):
        ((event, _, r_mid),) = height_events(STEP, eps, [(0.0, r)])
        p = multipoint_probability(t, STEP, [event])
        assert 0.0 <= p <= 1.0
        assert abs(p - f_gue(r_mid)) <= 0.5 * math.sqrt(eps), (r, p)


@pytest.mark.parametrize("eps", [0.01, 0.005])
def test_kernel_approaches_the_airy_kernel(eps):
    # the notes' central lemma, on objects free of the kernel's gauge
    # g(z1)/g(z2): the diagonal and the products K(z1, z2) K(z2, z1).  Step
    # data at label n = round(t/4), whose mean position a0 = t - 2 sqrt(tn)
    # is near 0, on the sites z = a0 - sigma u with |u| <= 2.  The gap is
    # O(sqrt(eps)) with nothing fitted (0.11 to 0.12 sqrt(eps) on the
    # diagonal, 0.06 to 0.07 on the products, from eps = 0.05 to 0.0025),
    # and the bound was fixed from those readings before this test ran
    t = 2.0 * eps**-1.5
    n = round(t / 4)
    sigma = (t / 2) ** (1 / 3)
    a0 = t - 2.0 * math.sqrt(t * n)
    z = np.arange(math.ceil(a0 - 2 * sigma), math.floor(a0 + 2 * sigma) + 1)
    u = (a0 - z) / sigma
    kernel = kt_kernel(t, STEP, n, n, z, z)
    limit = airy_kernel(u)
    bound = 0.2 * math.sqrt(eps)
    assert np.abs(sigma * np.diag(kernel) - np.diag(limit)).max() <= bound
    assert np.abs(sigma**2 * kernel * kernel.T - limit * limit.T).max() <= bound


# h(+-1/2) <= -1/2 at each eps, as height_events builds them
TWO_POINTS = {
    0.05: [(36, 19), (56, -21)],
    0.03: [(82, 32), (115, -34)],
    0.02: [(154, 49), (204, -51)],
    0.01: [(453, 99), (553, -101)],
    0.005: [(1318, 199), (1518, -201)],
}


@pytest.mark.parametrize("eps", sorted(TWO_POINTS, reverse=True))
def test_two_point_routes_agree(eps):
    t = 2.0 * eps**-1.5
    events = [h.event for h in height_events(STEP, eps, [(0.5, -0.5), (-0.5, -0.5)])]
    assert events == TWO_POINTS[eps]
    a = multipoint_probability(t, STEP, events)
    b = path_integral_probability(t, STEP, events)
    assert abs(a - b) <= 1e-9
    if eps == 0.05:
        assert a == pytest.approx(0.8956800693, abs=1e-9)
    if eps == 0.005:
        # with one event the two routes build the same matrix
        one = [h.event for h in height_events(STEP, eps, [(0.0, -1.0)])]
        a = multipoint_probability(t, STEP, one)
        assert abs(a - path_integral_probability(t, STEP, one)) <= 1e-9


# h(0) <= -1 on half-flat data, whose anchor X_0^(-1)(-1) is 2, not step
# data's 1: the event and the middle of its lattice cell at each eps
HALF_FLAT_ORIGIN = {
    0.1: ((19, -1), -1.068),
    0.05: ((48, -1), -0.795),
    0.03: ((101, -1), -1.134),
    0.02: ((182, -1), -1.053),
    0.01: ((506, -1), -0.900),
    0.005: ((1423, -1), -1.030),
}


def test_height_events_read_the_anchor_from_the_data():
    for eps, (event, r_mid) in HALF_FLAT_ORIGIN.items():
        ((got, x, mid),) = height_events(HALF_FLAT, eps, [(0.0, -1.0)])
        assert (got, x) == (event, 0.0)
        assert mid == pytest.approx(r_mid, abs=5e-4)
        # the cell is [r_mid - sqrt(eps), r_mid + sqrt(eps)): -1 lies in it,
        # and every r in it gives the same event
        assert mid - math.sqrt(eps) <= -1.0 < mid + math.sqrt(eps)
        for r in (mid - 0.999 * math.sqrt(eps), mid + 0.999 * math.sqrt(eps)):
            assert height_events(HALF_FLAT, eps, [(0.0, r)])[0].event == event


def test_half_flat_one_points_approach_f_goe():
    # left of the origin half-flat data is flat: h(1, x) = 2^(1/3) A_1, so
    # P(h <= r) = P(A_1 <= 2^(-1/3) r) = F_GOE(2^(2/3) r), compared at r_mid
    for eps in (0.05, 0.02, 0.01):
        t = 2.0 * eps**-1.5
        for r in (-1.0, 0.0, 1.0):
            ((event, _, r_mid),) = height_events(HALF_FLAT, eps, [(-2.0, r)])
            p = multipoint_probability(t, HALF_FLAT, [event])
            limit = airy1_probability([(0.0, 2.0 ** (-1.0 / 3.0) * r_mid)])
            assert abs(p - limit) <= 0.75 * math.sqrt(eps), (eps, r, p, limit)
