"""Step-data TASEP along the 1:2:3 scaling, against the KPZ fixed point.

At t = 2 eps^(-3/2) the rescaled height sqrt(eps) (h_t(2x/eps) + eps^(-3/2))
converges to the Airy_2 process minus x^2, so one-point probabilities
approach F_GUE at the rate sqrt(eps).  The oracle is the closed-form Airy
kernel determinant below, built on scipy alone, not the library's kernels.
"""

import math

import numpy as np
import pytest
from scipy.special import airy

from kpzlab.exact import TruncationError, multipoint_probability, path_integral_probability
from kpzlab.simulate import make_initial

STEP = make_initial("step")
ANCHOR = 1  # X_0^{-1}(-1) for step data


def f_gue(s, m=96, span=16.0):
    """F_GUE(s) = det(I - K_Ai) on L^2(s, s + span), Gauss-Legendre, with
    the kernel (Ai(u)Ai'(v) - Ai'(u)Ai(v))/(u - v), diagonal Ai'^2 - u Ai^2."""
    x, w = np.polynomial.legendre.leggauss(m)
    u = 0.5 * span * (x + 1.0) + s
    w = 0.5 * span * w
    ai, aip, _, _ = airy(u)
    diff = u[:, None] - u[None, :]
    same = diff == 0.0
    off = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / np.where(same, 1.0, diff)
    kernel = np.where(same, (aip**2 - u * ai**2)[:, None], off)
    sq = np.sqrt(w)
    return float(np.linalg.det(np.eye(m) - sq[:, None] * kernel * sq[None, :]))


def height_event(eps, x, r):
    """The event h(x) <= r of the rescaled height as a (label, threshold)
    event, and the rescaled height of the middle of its lattice cell.

    With h_t(z) = -2(X_t^{-1}(z-1) - ANCHOR) - z, the event is
    X_t(m - 1) > z - 1 for m = ceil(ANCHOR - (level + z)/2).
    """
    z = round(2.0 * x / eps)
    level = eps**-0.5 * r - eps**-1.5
    m = math.ceil(ANCHOR - (level + z) / 2.0)
    h_lattice = -2 * (m - ANCHOR) - z
    return (m - 1, z - 1), math.sqrt(eps) * (h_lattice + 1.0 + eps**-1.5)


def test_f_gue_oracle_has_converged():
    # more nodes on a longer interval move nothing at the 1e-12 level
    for s in (-3.0, -1.0, 0.5):
        assert f_gue(s) == pytest.approx(f_gue(s, m=160, span=20.0), abs=1e-12)
    assert f_gue(-1.0) == pytest.approx(0.80721424199929, abs=1e-12)


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.03, 0.02, 0.01, 0.007, 0.005])
def test_one_point_approaches_f_gue(eps):
    t = 2.0 * eps**-1.5
    for r in (-2.0, -1.0, 0.0, 1.0):
        event, r_mid = height_event(eps, 0.0, r)
        p = multipoint_probability(t, STEP, [event])
        assert 0.0 <= p <= 1.0
        assert abs(p - f_gue(r_mid)) <= 0.5 * math.sqrt(eps), (r, p)


def test_two_point_routes_agree_at_eps_005():
    eps = 0.05
    t = 2.0 * eps**-1.5
    events = sorted(height_event(eps, x, -0.5)[0] for x in (0.5, -0.5))
    assert events == [(36, 19), (56, -21)]
    a = multipoint_probability(t, STEP, events)
    b = path_integral_probability(t, STEP, events)
    assert abs(a - b) <= 1e-9
    assert a == pytest.approx(0.8956800693, abs=1e-9)


def test_one_point_routes_agree_at_eps_0005():
    # the path route's window ends where I - total turns block triangular;
    # past it the conjugated kernel leaves the double range
    eps = 0.005
    t = 2.0 * eps**-1.5
    events = [height_event(eps, 0.0, -1.0)[0]]
    a = multipoint_probability(t, STEP, events)
    b = path_integral_probability(t, STEP, events)
    assert abs(a - b) <= 1e-9


def test_two_point_path_route_refuses_at_eps_001():
    # the path product's determinant leaves the double range on the first
    # rung; it must raise at once, with no overflow warning on the way
    eps = 0.01
    t = 2.0 * eps**-1.5
    events = sorted(height_event(eps, x, -0.5)[0] for x in (0.5, -0.5))
    assert events == [(453, 99), (553, -101)]
    with pytest.raises(TruncationError, match="depth 48 .*multipoint_probability"):
        path_integral_probability(t, STEP, events)
