"""Scratch prototype for the continuum layer. Run stages by name:

    python3 scratch_continuum.py A B C ...

Uses scipy as an oracle; deleted once tests are frozen.
"""

import math
import sys
import time

import numpy as np
from scipy import special as ss
from scipy.integrate import quad, solve_ivp

from kpzlab.special import ContourSpec, airy_ai_kernel, circle_quadrature
from kpzlab.fredholm import (
    BlockExtendedProblem,
    HalfLineDown,
    HalfLineUp,
    FullLine,
    block_extended_det,
    _gauss01,
)
from kpzlab.exact import transfer_inverse, transfer_extended

LN2 = math.log(2.0)


# ---------------------------------------------------------------- T evaluator


def ai_log_tail(a: float) -> float:
    """log Ai(a) for a >= 7, from the exponentially scaled Ai."""
    return math.log(ss.airye(a)[0]) - 2.0 / 3.0 * a ** 1.5


def t_window(t, x, u_across):
    """Largest z with the Ai argument of T_{t,x}(z - u) still >= -30."""
    return u_across + 30.0 * t ** (1.0 / 3.0) + x * x / t


def t_fac(t, x, z):
    """T_{t,x}(z) for t>0, elementwise over broadcast (x, z), log-space stable."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    x, z = np.broadcast_arrays(x, z)
    a = -z * t ** (-1.0 / 3.0) + x * x * t ** (-4.0 / 3.0)
    m = 2.0 * x ** 3 / (3.0 * t * t) - z * x / t - math.log(t) / 3.0
    out = np.zeros(a.shape)
    lo = a <= 30.0
    if np.any(lo):
        vals = airy_ai_kernel(a[lo])
        mag = np.abs(vals)
        with np.errstate(divide="ignore"):
            lg = np.where(mag > 0.0, np.log(np.where(mag > 0.0, mag, 1.0)), -np.inf)
        out[lo] = np.sign(vals) * np.exp(m[lo] + lg)
    hi = ~lo
    if np.any(hi):
        ah = a[hi]
        mh = m[hi]
        lt = np.array([ai_log_tail(v) for v in ah.ravel()]).reshape(ah.shape)
        out[hi] = np.exp(mh + lt)
    return out


def t_fac_clip(t, x, z):
    """t_fac with arguments past the Ai window zeroed (tiny in the supported
    parameter range; truncation measured against scipy in this prototype)."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    x, z = np.broadcast_arrays(x, z)
    zmax = 30.0 * t ** (1.0 / 3.0) + x * x / t - 1e-9
    out = t_fac(t, x, np.minimum(z, zmax))
    return np.where(z <= zmax, out, 0.0)


def t_kernel(t, x, z):
    """Scalar API: kernel offset z = (row - column)."""
    if t == 0.0:
        raise ValueError("t = 0 excluded")
    if t > 0:
        return float(t_fac(t, x, np.array([z]))[0])
    return float(t_fac(-t, x, np.array([-z]))[0])


def stage_A():
    worst = 0.0
    for t in (0.3, 1.0, 2.5):
        for x in (-2.0, -0.5, 0.0, 0.7, 2.0):
            z = np.linspace(-8, 8, 41)
            mine = t_fac(t, x, z)
            a = -z * t ** (-1 / 3) + x * x * t ** (-4 / 3)
            ref = t ** (-1 / 3) * np.exp(2 * x ** 3 / (3 * t * t) - z * x / t) * ss.airy(a)[0]
            rel = np.max(np.abs(mine - ref) / (1.0 + np.abs(ref)))
            worst = max(worst, rel)
    print("A1 t_fac vs scipy, worst rel:", worst)

    # deep tail region a > 30 vs mpmath-free scipy (scipy ai fine to ~100)
    t, x = 1.0, 3.0
    z = np.linspace(-40.0, -20.0, 11)  # a = -z + 9 in [29, 49]
    mine = t_fac(t, x, z)
    ref = np.exp(2 * x ** 3 / 3 - z * x) * ss.airy(-z + 9.0)[0]
    print("A2 tail rel:", np.max(np.abs(mine - ref) / np.abs(ref)))

    # mass: absolutely convergent for x>0; nodes masked to the Ai window,
    # truncation error ~ exp(-30 x t^{-2/3}) measured against the full scipy value
    for t, x in ((1.0, 0.5), (1.0, 1.0), (0.6, 1.5), (2.0, 1.2)):
        y, w = FullLine(6.0).nodes(400)
        zmax = t_window(t, x, 0.0)
        keep = y <= zmax
        val = float(np.sum(w[keep] * t_fac(t, x, y[keep])))
        a = -y * t ** (-1 / 3) + x * x * t ** (-4 / 3)
        # in log space: Ai(a) = airye(a) exp(-(2/3) a^{3/2}) for a > 0 (airye is
        # NaN for real a < 0), so no exp overflows against an Ai that underflows
        ap = np.maximum(a, 0.0)
        ai = np.where(a > 0, ss.airye(ap)[0], ss.airy(np.minimum(a, 0.0))[0])
        expo = 2 * x ** 3 / (3 * t * t) - y * x / t - 2.0 / 3.0 * ap ** 1.5
        full = float(np.sum(w * t ** (-1 / 3) * ai * np.exp(expo)))
        print(f"A3 mass t={t} x={x}: masked={val:.12f} scipy-full={full:.12f} err={abs(val-1):.2e}")

    # mass at x=0 with oracle tail: int T_{t,0} dz = int Ai(u) du
    t = 1.3
    L = 28.0
    # z in [-hi, +lo]: Ai argument -z t^{-1/3} in [-L, 30] -> z in [-30 t^{1/3}, L t^{1/3}]
    zlo, zhi = -30.0 * t ** (1 / 3), L * t ** (1 / 3)
    xs, ws = _gauss01(400)
    zz = zlo + (zhi - zlo) * xs
    core = float(np.sum(ws * (zhi - zlo) * t_fac(t, 0.0, zz)))
    # tail: int_{-inf}^{-L} Ai du  (z > L t^{1/3} side; arg < -L)
    apt = float(ss.itairy(L)[2])  # int_0^L Ai(-t) dt
    tail_osc = 2.0 / 3.0 - apt    # int_{-inf}^{-L} Ai = int_{-inf}^0 - int_{-L}^0
    # other side: arg > 30: int_{30}^inf Ai ~ 1e-49 ignored
    print("A4 mass x=0 core+tail:", core + tail_osc, " err:", abs(core + tail_osc - 1))

    # group law: (T_{s,x} conv T_{t,y})(z) = T_{s+t,x+y}(z), x,y > 0
    s, t2, x, y0 = 0.7, 1.1, 0.6, 0.9
    w_nodes, w_wts = FullLine(5.0).nodes(600)
    worst = 0.0
    for z in (-2.0, 0.0, 1.5):
        conv = float(np.sum(w_wts * t_fac_clip(s, x, z - w_nodes) * t_fac_clip(t2, y0, w_nodes)))
        tgt = t_kernel(s + t2, x + y0, z)
        worst = max(worst, abs(conv - tgt))
    print("A5 group law err:", worst)

    # (T_{t,x})* T_{t,-x} = I on a Gaussian, windowed uniform grids.
    # antidiffusion e^{-x d^2} needs Gaussian variance > 2x: width 4 covers x=0.8.
    # w-window capped so T_{t,-x}(w-y) stays inside the Ai domain for all y;
    # the discarded tail is damped by the outer e^{-xw/t} factor.
    t, x = 1.0, 0.8
    f = lambda yv: np.exp(-((yv - 0.4) ** 2) / 8.0)
    h = 0.02
    yy = np.arange(-15.6, 16.4 + h / 2, h)
    wmax = 30.0 * t ** (1 / 3) + x * x / t + yy[0] - 0.2
    ww = np.arange(-45.0, wmax + h / 2, h)
    wy = np.full(yy.size, h)
    wy[0] *= 0.5
    wy[-1] *= 0.5
    wwt = np.full(ww.size, h)
    wwt[0] *= 0.5
    wwt[-1] *= 0.5
    # Toeplitz lookup: diffs w_i - y_j lie on a common h-grid
    kmax = ww.size + yy.size - 1
    dvals = ww[0] - yy[-1] + h * np.arange(kmax)
    Tvals = t_fac(t, -x, dvals)
    idx = np.arange(ww.size)[:, None] + (yy.size - 1 - np.arange(yy.size))[None, :]
    M1 = Tvals[idx]
    g_of_w = M1 @ (wy * f(yy))
    worst = 0.0
    for v in (-1.0, 0.0, 1.0):
        val = float(np.sum(wwt * t_fac(t, x, ww - v) * g_of_w))
        worst = max(worst, abs(val - f(v)))
    print("A6 T*T inverse identity err:", worst)


# ------------------------------------------------------- Airy process kernels


def airy2_pos(s, u, v, order=240, scale=3.0):
    """int_0^inf e^{-lam s} Ai(u+lam) Ai(v+lam) dlam (s may be negative: Ai decay wins)."""
    lam, wl = HalfLineUp(0.0).nodes(order, "rational", scale)
    a = airy_ai_kernel(u + lam) * airy_ai_kernel(v + lam)
    m = a != 0.0
    return float(np.sum(wl[m] * np.exp(-lam[m] * s) * a[m]))


def airy2_bilinear_full(s, u, v):
    """int_R e^{-lam s} Ai(u+lam) Ai(v+lam) dlam, closed form, s > 0."""
    return math.exp(-((u - v) ** 2) / (4 * s) - s * (u + v) / 2.0 + s ** 3 / 12.0) / math.sqrt(
        4 * math.pi * s
    )


def airy2_kernel(x, u, xp, up):
    s = x - xp
    if s >= 0:
        return airy2_pos(s, u, up)
    return airy2_pos(s, u, up) - airy2_bilinear_full(-s, u, up)


def stage_B():
    # Mehler-type identity: int_R e^{lam sig} Ai(u+lam) Ai(v+lam) dlam = G(sig)
    # (absolutely convergent for sig > 0: exp decays left, Ai beats it right)
    worst = 0.0
    for sig, u, v in ((0.5, 0.3, -0.7), (1.0, 0.0, 0.0), (2.0, -1.0, 1.2)):
        ref = quad(
            lambda lam: math.exp(lam * sig) * float(ss.airy(u + lam)[0]) * float(ss.airy(v + lam)[0]),
            -150,
            60,
            limit=800,
            epsabs=1e-13,
        )[0]
        worst = max(worst, abs(ref - airy2_bilinear_full(sig, u, v)))
    print("B1 bilinear identity err:", worst)

    # airy2 negative branch vs scipy direct -int_{-inf}^0
    worst = 0.0
    for sig, u, v in ((0.4, 0.2, -0.3), (1.5, -0.5, 0.8)):
        ref = -quad(
            lambda lam: math.exp(lam * sig) * float(ss.airy(u + lam)[0]) * float(ss.airy(v + lam)[0]),
            -150,
            0,
            limit=800,
            epsabs=1e-13,
        )[0]
        mine = airy2_kernel(0.0, u, sig, v)
        print("   B2 values:", ref, mine)
        worst = max(worst, abs(ref - mine))
    print("B2 airy2 x<x' branch err:", worst)

    # diagonal identity K(u,u) = Ai'(u)^2 - u Ai(u)^2
    worst = 0.0
    for u in (-1.5, 0.0, 0.9):
        ai, aip, _, _ = ss.airy(u)
        worst = max(worst, abs(airy2_pos(0.0, u, u) - (aip ** 2 - u * ai ** 2)))
    print("B3 diagonal identity err:", worst)

    # quadrature self-convergence (order 160 vs 320 equivalent): lam order scan
    errs = []
    for order in (80, 160, 240):
        errs.append(airy2_pos(0.0, -2.0, -2.0, order=order))
    print("B4 lam-order scan at u=-2:", [f"{e:.15f}" for e in errs])


# --------------------------------------------- Painleve oracles + Tracy-Widom


def painleve_sol():
    x0 = 8.0
    y0 = [float(ss.airy(x0)[0]), float(ss.airy(x0)[1])]
    rhs = lambda x, y: [y[1], x * y[0] + 2.0 * y[0] ** 3]
    return solve_ivp(rhs, [x0, -11.0], y0, method="DOP853", rtol=3e-13, atol=1e-15, dense_output=True)


_PSOL = None


def q_hm(x):
    global _PSOL
    if _PSOL is None:
        _PSOL = painleve_sol()
    if x >= 8.0:
        return float(ss.airy(x)[0])
    return float(_PSOL.sol(x)[0])


def f2_painleve(s):
    core = quad(lambda x: (x - s) * q_hm(x) ** 2, s, 8.0, limit=400, epsabs=1e-13)[0]
    tail = quad(lambda x: (x - s) * float(ss.airy(x)[0]) ** 2, 8.0, 60.0, limit=200, epsabs=1e-15)[0]
    return math.exp(-(core + tail))


def f1_painleve(s):
    core = quad(q_hm, s, 8.0, limit=400, epsabs=1e-13)[0]
    tail = quad(lambda x: float(ss.airy(x)[0]), 8.0, 60.0, limit=200, epsabs=1e-15)[0]
    return math.exp(-0.5 * (core + tail)) * math.sqrt(f2_painleve(s))


def gue_det(r, order=160, scale=4.0, lam_order=240, lam_scale=3.0):
    y, w = HalfLineUp(r).nodes(order, "rational", scale)
    lam, wl = HalfLineUp(0.0).nodes(lam_order, "rational", lam_scale)
    B = airy_ai_kernel(y[:, None] + lam[None, :])
    K = (B * wl) @ B.T
    sq = np.sqrt(w)
    return float(np.linalg.det(np.eye(order) - sq[:, None] * K * sq[None, :]))


def gue_det_dual(r, order=160, scale=4.0, x_order=240, x_scale=3.0):
    """det(I - chibar_0 (A* chi_r A) chibar_0) on (-inf, 0]."""
    lam, w = HalfLineDown(0.0).nodes(order, "rational", scale)
    xq, wx = HalfLineUp(r).nodes(x_order, "rational", x_scale)
    B = airy_ai_kernel(xq[:, None] - lam[None, :])  # (x, lam)
    G = (B * wx[:, None]).T @ B
    sq = np.sqrt(w)
    return float(np.linalg.det(np.eye(order) - sq[:, None] * G * sq[None, :]))


def goe_det(s, order=160, scale=4.0):
    """F_GOE(s) = det(I - K rho_r K) at r = 4^{-1/3} s, via the Airy-transform
    reduction to kernel 2^{-1/3} Ai(2^{-1/3}(2r + p + q)) on [0, inf)."""
    r = s / 4.0 ** (1.0 / 3.0)
    p, w = HalfLineUp(0.0).nodes(order, "rational", scale)
    c = 2.0 ** (-1.0 / 3.0)
    K = c * airy_ai_kernel(np.minimum(c * (2.0 * r + p[:, None] + p[None, :]), 1e9))
    sq = np.sqrt(w)
    return float(np.linalg.det(np.eye(order) - sq[:, None] * K * sq[None, :]))


def stage_C():
    t0 = time.time()
    print("C1 F2 painleve(0):", f2_painleve(0.0), " frozen cmp 0.9693728283553")
    for r in (-3.0, -1.0, 0.0, 1.0, 3.0):
        g = gue_det(r)
        p = f2_painleve(r)
        print(f"C2 r={r}: gue_det={g:.13f} painleve={p:.13f} diff={g - p:.2e}")
    for r in (-2.0, 0.0, 1.0):
        d = gue_det_dual(r)
        g = gue_det(r)
        print(f"C3 dual r={r}: {d:.13f} vs {g:.13f} diff={d - g:.2e}")
    # order ladder check: 80 vs 160
    for r in (-6.0, -2.0, 2.0):
        d80 = gue_det(r, order=80)
        d160 = gue_det(r, order=160)
        print(f"C4 r={r}: |80-160|={abs(d80 - d160):.2e}")
    # GOE
    for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
        g = goe_det(s)
        p = f1_painleve(s)
        print(f"C5 s={s}: goe_det={g:.13f} painleve_f1={p:.13f} diff={g - p:.2e}")
    for s in (-4.0, 0.0, 2.0):
        print(f"C6 s={s}: |80-160|={abs(goe_det(s, order=80) - goe_det(s, order=160)):.2e}")
    print("C time:", time.time() - t0)


# --------------------------------------------------- scattering / fixed point


def heat_part(dx, u, v):
    return np.exp(-((u - v) ** 2) / (4.0 * dx)) / math.sqrt(4.0 * math.pi * dx)


def kext_nw(t, c, xi, xj, U, V, lam_order=240, lam_scale=3.0):
    """Second term of the nw(c) extended kernel: int_{-inf}^0 T_{t,c-xi}(lam-u) T_{t,xj-c}(lam-v) dlam."""
    lam, wl = HalfLineDown(0.0).nodes(lam_order, "rational", lam_scale)
    F1 = t_fac_clip(t, c - xi, lam[None, :] - U[..., None])     # (..., q)
    F2 = t_fac_clip(t, xj - c, lam[None, :] - V[..., None])
    return np.sum(wl * F1 * F2, axis=-1)


def kext_flat(t, xi, xj, U, V, order=400, scale=5.0):
    """int_R T_{t,-xi}(lam-u) T_{t,xj}(-lam-v) dlam."""
    lam, wl = FullLine(scale).nodes(order)
    F1 = t_fac_clip(t, -xi, lam[None, :] - U[..., None])
    F2 = t_fac_clip(t, xj, -lam[None, :] - V[..., None])
    return np.sum(wl * F1 * F2, axis=-1)


def kext_halfflat(t, xi, xj, U, V, lam_order=240, lam_scale=3.0):
    """int_{-inf}^0 [T_{t,-xi}(lam-u) + T_{t,-xi}(-lam-u)] T_{t,xj}(lam-v) dlam."""
    lam, wl = HalfLineDown(0.0).nodes(lam_order, "rational", lam_scale)
    F1 = t_fac_clip(t, -xi, lam[None, :] - U[..., None]) + t_fac_clip(t, -xi, -lam[None, :] - U[..., None])
    F2 = t_fac_clip(t, xj, lam[None, :] - V[..., None])
    return np.sum(wl * F1 * F2, axis=-1)


def stage_D():
    # nw one-point at t=1, c=0, x=0: kernel == Airy kernel; det == F2(a)
    worst = 0.0
    for u in (-0.5, 0.3):
        for v in (-0.2, 0.8):
            k1 = float(kext_nw(1.0, 0.0, 0.0, 0.0, np.array([u]), np.array([v]))[0])
            k2 = airy2_pos(0.0, u, v)
            worst = max(worst, abs(k1 - k2))
    print("D1 nw kernel t=1 c=x=0 vs Airy kernel:", worst)

    # nw one-point at t=1, c=0.7, x=0.2: conjugated shifted Airy: e^{d(v-u)} K_Ai(u+d^2, v+d^2), d = x-c
    d = 0.2 - 0.7
    worst = 0.0
    for u in (-0.5, 0.3):
        for v in (-0.2, 0.8):
            k1 = float(kext_nw(1.0, 0.7, 0.2, 0.2, np.array([u]), np.array([v]))[0])
            k2 = math.exp(d * (v - u)) * airy2_pos(0.0, u + d * d, v + d * d)
            worst = max(worst, abs(k1 - k2))
    print("D2 nw kernel shifted-conjugated check:", worst)

    # flat kernel closed form (2t)^{-1/3} Ai((u+v)/(2t)^{1/3}) at x=0
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for u, v in ((-0.3, 0.4), (0.9, 0.9)):
            k1 = float(kext_flat(t, 0.0, 0.0, np.array([u]), np.array([v]))[0])
            ct = (2.0 * t) ** (-1.0 / 3.0)
            k2 = ct * float(ss.airy(ct * (u + v))[0])
            worst = max(worst, abs(k1 - k2))
    print("D3 flat closed form:", worst)

    # half-flat second term vs the two-integral display at t=1
    worst = 0.0
    for xi, xj in ((0.3, -0.2), (0.0, 0.5)):
        for u, v in ((-0.4, 0.2), (0.5, -0.1)):
            mine = float(kext_halfflat(1.0, xi, xj, np.array([u]), np.array([v]))[0])

            def integ1(lam):
                return (
                    math.exp(-2 * xi ** 3 / 3 - xi * (u - lam))
                    * float(ss.airy(u - lam + xi ** 2)[0])
                    * math.exp(2 * xj ** 3 / 3 + xj * (v - lam))
                    * float(ss.airy(v - lam + xj ** 2)[0])
                )

            def integ2(lam):
                return (
                    math.exp(-2 * xi ** 3 / 3 - xi * (u + lam))
                    * float(ss.airy(u + lam + xi ** 2)[0])
                    * math.exp(2 * xj ** 3 / 3 + xj * (v - lam))
                    * float(ss.airy(v - lam + xj ** 2)[0])
                )

            ref = (
                quad(integ1, -60, 0, limit=400, epsabs=1e-13)[0]
                + quad(integ2, -60, 0, limit=400, epsabs=1e-13)[0]
            )
            worst = max(worst, abs(mine - ref))
    print("D4 half-flat vs display:", worst)

    # skew identity: K^{hypo(h)}_t(u,u') vs K^{epi(-rho h)}_{-t}(-u',-u).
    # Collapsed absolutely-convergent forms (I - T*P T rewritten via T*Pbar T);
    # each side gets its own node set. t_fac_clip only zeroes where the partner
    # factor is superexponentially dead.
    t = 1.0
    vp, wp = HalfLineUp(0.0).nodes(160, "rational", 3.0)
    vn, wn = HalfLineDown(0.0).nodes(160, "rational", 3.0)
    vp2, wp2 = HalfLineUp(0.0).nodes(160, "rational", 4.5)
    vn2, wn2 = HalfLineDown(0.0).nodes(160, "rational", 4.5)

    def hypo_flat(u, up):
        neg = np.sum(wn * t_fac_clip(t, 0.0, vn - u) * t_fac_clip(t, 0.0, vn - up))
        pos = np.sum(
            wp
            * (
                t_fac_clip(t, 0.0, vp - u) * t_fac_clip(t, 0.0, -vp - up)
                + t_fac_clip(t, 0.0, -vp - u) * t_fac_clip(t, 0.0, vp - up)
                - t_fac_clip(t, 0.0, -vp - u) * t_fac_clip(t, 0.0, -vp - up)
            )
        )
        return float(neg + pos)

    def epi_flat(a, b):
        pos = np.sum(wp2 * t_fac_clip(t, 0.0, a - vp2) * t_fac_clip(t, 0.0, b - vp2))
        neg = np.sum(
            wn2
            * (
                t_fac_clip(t, 0.0, a - vn2) * t_fac_clip(t, 0.0, b + vn2)
                + t_fac_clip(t, 0.0, a + vn2) * t_fac_clip(t, 0.0, b - vn2)
                - t_fac_clip(t, 0.0, a + vn2) * t_fac_clip(t, 0.0, b + vn2)
            )
        )
        return float(pos + neg)

    worst_fl = 0.0
    worst_nw = 0.0
    for u, up in ((-0.3, 0.6), (0.8, 0.1), (0.0, 0.0)):
        lhs = hypo_flat(u, up)
        rhs = epi_flat(-up, -u)
        closed = float((2 * t) ** (-1.0 / 3.0) * airy_ai_kernel(np.array([(u + up) / (2 * t) ** (1.0 / 3.0)]))[0])
        worst_fl = max(worst_fl, abs(lhs - rhs), abs(lhs - closed))
        lhs = float(np.sum(wn * t_fac_clip(t, 0.0, vn - u) * t_fac_clip(t, 0.0, vn - up)))
        rhs = float(np.sum(wp2 * t_fac_clip(t, 0.0, -up - vp2) * t_fac_clip(t, 0.0, -u - vp2)))
        worst_nw = max(worst_nw, abs(lhs - rhs))
    print("D5 skew flat:", worst_fl, " nw:", worst_nw)


# --------------------------------------------------------- fixed point probab


def fp_det_nw(t, c, points, order=160, lam_order=240):
    xs = [p[0] for p in points]
    aa = [p[1] for p in points]

    def kern(i, j, U, V):
        out = kext_nw(t, c, xs[i], xs[j], -U, -V, lam_order=lam_order)
        if xs[i] < xs[j]:
            out = out - heat_part(xs[j] - xs[i], -U, -V)
        return out

    prob = BlockExtendedProblem(kernel=kern, thresholds=tuple(-a for a in aa), order=order)
    return block_extended_det(prob)


def fp_det_flat(t, points, order=160):
    xs = [p[0] for p in points]
    aa = [p[1] for p in points]

    def kern(i, j, U, V):
        out = kext_flat(t, xs[i], xs[j], -U, -V)
        if xs[i] < xs[j]:
            out = out - heat_part(xs[j] - xs[i], -U, -V)
        return out

    prob = BlockExtendedProblem(kernel=kern, thresholds=tuple(-a for a in aa), order=order)
    return block_extended_det(prob)


def airy2_joint(points, order=160):
    """P(A2(x1)<=b1, ...) via the extended Airy kernel."""
    xs = [p[0] for p in points]
    bb = [p[1] for p in points]

    def kern(i, j, U, V):
        s = xs[i] - xs[j]
        u = -U
        v = -V
        lam, wl = HalfLineUp(0.0).nodes(240, "rational", 3.0)
        a = airy_ai_kernel(u[..., None] + lam) * airy_ai_kernel(v[..., None] + lam)
        lam_eff = np.where(a != 0.0, lam, 0.0)
        F = np.sum(wl * np.exp(-lam_eff * s) * a, axis=-1)
        if s < 0:
            uu, vv = np.broadcast_arrays(u, v)
            bil = np.exp(
                -((uu - vv) ** 2) / (4 * (-s)) - (-s) * (uu + vv) / 2.0 + (-s) ** 3 / 12.0
            ) / math.sqrt(4 * math.pi * (-s))
            F = F - bil
        return F

    prob = BlockExtendedProblem(kernel=kern, thresholds=tuple(-b for b in bb), order=order)
    return block_extended_det(prob)


def stage_E():
    # one point: det == F2(t^{-1/3} a + t^{-4/3} (x-c)^2)
    for (t, c, x, a) in ((1.0, 0.0, 0.0, 0.5), (1.0, 0.7, 0.2, 0.0), (2.0, 0.0, 1.0, 1.0)):
        d = fp_det_nw(t, c, [(x, a)])
        arg = t ** (-1 / 3) * a + t ** (-4 / 3) * (x - c) ** 2
        p = f2_painleve(arg)
        print(f"E1 nw t={t} c={c} x={x} a={a}: det={d:.12f} F2={p:.12f} diff={d - p:.2e}")

    # flat one point: det == F1(4^{1/3} a) at t=1
    for a in (-0.5, 0.0, 0.8):
        d = fp_det_flat(1.0, [(0.3, a)])
        p = f1_painleve(4.0 ** (1 / 3) * a)
        g = goe_det(4.0 ** (1 / 3) * a)
        print(f"E2 flat a={a}: det={d:.12f} F1={p:.12f} goe_det={g:.12f} diff={d - p:.2e}")

    # two-point nw vs extended Airy2: P(h(1,xi)<=bi-xi^2) = P(A2(xi)<=bi)
    pts = [(0.0, 0.5), (0.5, 1.0)]  # (x, b)
    lhs = fp_det_nw(1.0, 0.0, [(x, b - x * x) for x, b in pts])
    rhs = airy2_joint(pts)
    print(f"E3 two-point nw: fp={lhs:.12f} airy2={rhs:.12f} diff={lhs - rhs:.2e}")
    pts = [(-0.3, 0.2), (0.4, 0.9)]
    lhs = fp_det_nw(1.0, 0.0, [(x, b - x * x) for x, b in pts])
    rhs = airy2_joint(pts)
    print(f"E4 two-point nw: fp={lhs:.12f} airy2={rhs:.12f} diff={lhs - rhs:.2e}")

    # order self-convergence for the fp dets
    d80 = fp_det_nw(1.0, 0.0, [(0.0, 0.5)], order=80)
    d160 = fp_det_nw(1.0, 0.0, [(0.0, 0.5)], order=160)
    print("E5 fp order 80 vs 160:", abs(d80 - d160))


# ----------------------------------------------------------- contour SM / SN


def sm_contour(t, n, z1, z2, tol=1e-12):
    k = n + 1 + z2 - z1
    if k <= 0:
        return 0.0  # integrand analytic at 0

    def f(w):
        return np.exp(n * np.log1p(-w) - k * np.log(w) - (z2 - z1) * LN2 + t * (w - 0.5))

    res = circle_quadrature(f, ContourSpec.gamma0(), tol=tol, max_nodes=4096)
    return float(np.real(res.value))


def sn_contour(t, n, z1, z2, tol=1e-12):
    def f(w):
        return np.exp((z2 - z1 + n - 1) * np.log1p(-w) - n * np.log(w) - (z1 - z2) * LN2 + t * (w - 0.5))

    res = circle_quadrature(f, ContourSpec.gamma0(), tol=tol, max_nodes=4096)
    return float(np.real(res.value))


def lemma72_row(eps, frakt=1.0, frakx=0.3, fraka=0.0, grid=(-1.0, 0.0, 1.0)):
    t = 2.0 * eps ** -1.5 * frakt
    n = round(0.5 * eps ** -1.5 * frakt - eps ** -1.0 * frakx - 0.5 * eps ** -0.5 * fraka) + 1
    res_m = 0.0
    res_n = 0.0
    for v in grid:
        yp = round(eps ** -0.5 * v)
        v_eff = eps ** 0.5 * yp
        for u in grid:
            z = round(2.0 * eps ** -1.0 * frakx + eps ** -0.5 * (u + fraka) - 2.0)
            u_eff = (z + 2.0 - 2.0 * eps ** -1.0 * frakx) * eps ** 0.5 - fraka
            sm = sm_contour(t, n, yp, z)
            tm = t_kernel(frakt, frakx, u_eff - v_eff)
            res_m = max(res_m, abs(eps ** -0.5 * sm - tm))
            sn = sn_contour(t, n, yp, z)
            tn = t_kernel(frakt, -frakx, u_eff - v_eff)
            res_n = max(res_n, abs(eps ** -0.5 * sn - tn))
    return res_m, res_n


def stage_F():
    # contour vs exact sums at small t
    worst_m = worst_n = 0.0
    for z1 in (-2, 0, 3):
        for z2 in (-3, 1, 4):
            a = sm_contour(1.2, 3, z1, z2)
            b = transfer_inverse(1.2, 3, z1, z2)
            worst_m = max(worst_m, abs(a - b))
            a = sn_contour(1.2, 3, z1, z2)
            b = transfer_extended(1.2, 3, z1, z2)
            worst_n = max(worst_n, abs(a - b))
    print("F1 sm contour vs sum:", worst_m, " sn:", worst_n)

    for eps in (0.2, 0.1, 0.05):
        t0 = time.time()
        rm, rn = lemma72_row(eps)
        print(f"F2 eps={eps}: SM residual={rm:.5f} SN residual={rn:.5f}  ({time.time()-t0:.1f}s)")


# ------------------------------------------------------------------ MC / hit


def hit_epi_mc_proto(gf, t, x, v, u, samples, seed, nstep, smax):
    rng = np.random.default_rng(seed)
    dt = smax / nstep
    tgrid = np.linspace(0.0, smax, nstep + 1)
    gvals = np.array([gf(s) for s in tgrid])
    if v >= gvals[0]:
        val = t_kernel(t, x, v - u)
        return val, 0.0
    est = np.zeros(samples)
    b = np.full(samples, v)
    alive = np.ones(samples, dtype=bool)
    for i in range(nstep):
        if not alive.any():
            break
        g0, g1 = gvals[i], gvals[i + 1]
        step = rng.normal(0.0, math.sqrt(2.0 * dt), size=samples)
        b1 = b + step
        idx = np.where(alive)[0]
        cross = b1[idx] >= g1
        d0 = g0 - b[idx]
        d1 = g1 - b1[idx]
        # bridge correction for non-crossing endpoints
        nc = ~cross
        pc = np.exp(-np.maximum(d0[nc] * d1[nc], 0.0) / dt)
        bridge = rng.random(nc.sum()) < pc
        hit = np.zeros(idx.size, dtype=bool)
        hit[cross] = True
        nc_idx = np.where(nc)[0]
        hit[nc_idx[bridge]] = True
        hit_global = idx[hit]
        if hit_global.size:
            # crossing location: linear clearance interpolation
            dd0 = g0 - b[hit_global]
            dd1 = g1 - b1[hit_global]
            frac = dd0 / np.where(np.abs(dd0 - dd1) < 1e-300, 1e-300, dd0 - dd1)
            frac = np.clip(frac, 0.0, 1.0)
            tau = tgrid[i] + frac * dt
            gtau = np.array([gf(s) for s in tau])
            w = t_fac_clip(t, x - tau, gtau - u)
            est[hit_global] = w
            alive[hit_global] = False
        b = b1
    mean = float(est.mean())
    serr = float(est.std(ddof=1) / math.sqrt(samples))
    return mean, serr


def stage_G():
    # flat barrier 0, reflection closed form
    t, x, v, u = 1.0, 0.0, -0.7, 0.3
    truth = t_kernel(t, 0.0, -v - u)
    for nstep in (200, 400):
        m, se = hit_epi_mc_proto(lambda s: 0.0, t, x, v, u, 200_000, 7, nstep, smax=8.0)
        print(f"G1 nstep={nstep}: est={m:.5f}+-{se:.5f} truth={truth:.5f} dev={(m-truth)/max(se,1e-12):.2f} se")

    # barrier with positive x
    t, x, v, u = 1.0, 0.8, -0.5, 0.2
    truth = t_kernel(t, x, -v - u) if x == 0 else None
    # no closed form for x != 0 with c=0? reflection: Tbar^{epi(0)}_{t,x}(v,u) = T_{t,x}(-v-u)
    truth = t_kernel(t, x, -v - u)
    m, se = hit_epi_mc_proto(lambda s: 0.0, t, x, v, u, 200_000, 11, 400, smax=9.0)
    print(f"G2 x=0.8: est={m:.5f}+-{se:.5f} truth={truth:.5f} dev={(m-truth)/max(se,1e-12):.2f} se")

    # kink barrier stability
    gk = lambda s: 0.5 - 1.2 * s if s < 0.5 else -0.1 - 0.4 * (s - 0.5)
    t, x, v, u = 1.0, 0.0, -0.3, 0.1
    r1 = hit_epi_mc_proto(gk, t, x, v, u, 200_000, 3, 300, smax=8.0)
    r2 = hit_epi_mc_proto(gk, t, x, v, u, 200_000, 5, 600, smax=8.0)
    print(f"G3 kink: {r1[0]:.5f}+-{r1[1]:.5f} vs {r2[0]:.5f}+-{r2[1]:.5f}")

    # corridor closed form CK consistency, linear barrier
    def corr_lin(gl, gr, l1, l2, x1, x2):
        D = l2 - l1
        p = math.exp(-((x2 - x1) ** 2) / (4 * D)) / math.sqrt(4 * math.pi * D)
        return p * (1.0 - math.exp(-max((gl - x1) * (gr - x2), 0.0) / D))

    g = lambda s: 0.8 - 0.5 * s
    l1, l2, m = 0.0, 2.0, 1.3
    x1, x2 = 0.1, -0.4
    direct = corr_lin(g(l1), g(l2), l1, l2, x1, x2)
    ys, wy = HalfLineDown(g(m)).nodes(200, "rational", 3.0)
    comp = float(
        np.sum(wy * np.array([corr_lin(g(l1), g(m), l1, m, x1, yv) * corr_lin(g(m), g(l2), m, l2, yv, x2) for yv in ys]))
    )
    print(f"G4 corridor CK: direct={direct:.12f} composed={comp:.12f} diff={direct-comp:.2e}")


# -------------------------------------------------------------- airy transform


def stage_H():
    # A A* on a wide Gaussian, package-domain-safe truncation
    sig2 = 4.0
    f = lambda yv: np.exp(-(yv ** 2) / (2 * sig2))
    lam_hi = 18.0
    lam_lo = -40.0
    nl = 1200
    xs01, ws01 = _gauss01(nl)
    lam = lam_lo + (lam_hi - lam_lo) * xs01
    wl = ws01 * (lam_hi - lam_lo)
    yy = np.linspace(-12.0, 12.0, 1201)
    wy = np.full(yy.size, yy[1] - yy[0])
    wy[0] *= 0.5
    wy[-1] *= 0.5
    g = (airy_ai_kernel(np.maximum(yy[None, :] - lam[:, None], -30.0)) * (wy * f(yy))[None, :]).sum(axis=1)
    worst = 0.0
    for x in (-1.0, 0.0, 1.5):
        val = float(np.sum(wl * airy_ai_kernel(np.maximum(x - lam, -30.0)) * g))
        worst = max(worst, abs(val - f(x)))
    print("H1 A A* gaussian err:", worst)
    # check the -30 clamps never actually bind with these ranges
    print("H2 min arg outer:", (-1.0 - lam).min(), " inner:", (yy.min() - lam.max()))


STAGES = {"A": stage_A, "B": stage_B, "C": stage_C, "D": stage_D, "E": stage_E, "F": stage_F, "G": stage_G, "H": stage_H}

if __name__ == "__main__":
    for name in sys.argv[1:]:
        print(f"===== stage {name}")
        STAGES[name]()
