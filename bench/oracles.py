"""Reference values and result checks, built apart from kpzlab.

Nothing here imports kpzlab.  The Tracy-Widom GUE distribution and the
extended Airy_2 determinant are evaluated from scipy's Airy function with
Gauss-Legendre quadrature on truncated intervals (Bornemann, "On the
numerical evaluation of Fredholm determinants", arXiv:0804.2543), which is
a different evaluator, quadrature and kernel form from the ones the
benchmark drives through the library.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import airy

# Ai(u) < 1e-40 for u > 16, so truncating [b, inf) to [b, b + 16] and the
# lambda integral to [0, 16] loses nothing at double precision.
SPAN = 16.0
NODES = 96

# Slack on probability range checks: round-off only, never a modelling error.
RANGE_SLACK = 1e-12


def _gauss(a: float, b: float, m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


def airy_kernel(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Closed-form Airy kernel (Ai(u)Ai'(v) - Ai'(u)Ai(v))/(u - v) on a grid,
    with the diagonal limit Ai'(u)^2 - u Ai(u)^2."""
    au, apu, _, _ = airy(u)
    av, apv, _, _ = airy(v)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    diff = uu - vv
    same = diff == 0.0
    num = au[:, None] * apv[None, :] - apu[:, None] * av[None, :]
    out = np.where(same, 0.0, num / np.where(same, 1.0, diff))
    diag = apu**2 - u * au**2
    return np.where(same, diag[:, None] * np.ones_like(vv), out)


def f_gue(s: float, m: int = NODES) -> float:
    """F_GUE(s) = det(I - K_Ai) on L^2(s, inf)."""
    x, w = _gauss(s, s + SPAN, m)
    sq = np.sqrt(w)
    k = sq[:, None] * airy_kernel(x, x) * sq[None, :]
    return float(np.linalg.det(np.eye(m) - k))


def _airy2_block(tau_i, u, tau_j, v, lam, wl, ai_lam_u, ai_lam_v):
    """Extended Airy kernel block K(tau_i, u; tau_j, v)."""
    d = tau_i - tau_j
    if d == 0.0:
        return airy_kernel(u, v)
    # int_0^inf e^{-lam d} Ai(u + lam) Ai(v + lam) dlam
    pos = (ai_lam_u * (wl * np.exp(-lam * d))[None, :]) @ ai_lam_v.T
    if d > 0.0:
        return pos
    # d < 0: minus the integral over (-inf, 0] = positive part minus the
    # whole line, whose closed form is a heat kernel
    e = -d
    uu, vv = np.meshgrid(u, v, indexing="ij")
    full = np.exp(-((uu - vv) ** 2) / (4.0 * e) - e * (uu + vv) / 2.0 + e**3 / 12.0)
    return pos - full / math.sqrt(4.0 * math.pi * e)


def airy2_joint(points, m: int = NODES, lam_nodes: int = 160) -> float:
    """P(A_2(x_k) <= b_k for all k) = det(I - K_ext) on the direct sum of
    L^2(b_k, inf), for points [(x_k, b_k), ...]."""
    lam, wl = _gauss(0.0, SPAN, lam_nodes)
    grids = [_gauss(b, b + SPAN, m) for _, b in points]
    ai_lam = [airy(x[:, None] + lam[None, :])[0] for x, _ in grids]
    n = len(points)
    big = np.zeros((n * m, n * m))
    for i, (tau_i, _) in enumerate(points):
        ui, wi = grids[i]
        for j, (tau_j, _) in enumerate(points):
            vj, wj = grids[j]
            blk = _airy2_block(tau_i, ui, tau_j, vj, lam, wl, ai_lam[i], ai_lam[j])
            big[i * m : (i + 1) * m, j * m : (j + 1) * m] = (
                np.sqrt(wi)[:, None] * blk * np.sqrt(wj)[None, :]
            )
    return float(np.linalg.det(np.eye(n * m) - big))


# --------------------------------------------------------------- checks


def probability_ok(p) -> bool:
    """A finite number in [0, 1], up to round-off."""
    return (
        isinstance(p, (int, float))
        and math.isfinite(p)
        and -RANGE_SLACK <= p <= 1.0 + RANGE_SLACK
    )


def nondecreasing_in_r(values) -> bool:
    """A distribution function P(h <= r) must not decrease as r grows.

    `values` holds (r, p) pairs; p is None for a failed operation, which is
    skipped.
    """
    kept = [(r, p) for r, p in sorted(values) if p is not None]
    return all(b >= a - RANGE_SLACK for (_, a), (_, b) in zip(kept, kept[1:]))


def within_limit(p: float, limit: float, eps: float, coeff: float) -> bool:
    """|p - limit| <= coeff * eps^(1/2), the KPZ fluctuation-scale rate."""
    return probability_ok(p) and abs(p - limit) <= coeff * math.sqrt(eps)


def z_ok(freq: float, p: float, n: int, z: float) -> bool:
    """Binomial frequency within z standard errors of p (at least 1/n wide)."""
    se = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
    return abs(freq - p) <= z * se
