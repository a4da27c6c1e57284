"""The correlation kernel of a conditional L-ensemble on a finite space.

An L-ensemble conditioned on a subset Z that carries the points
(Borodin-Ferrari-Praehofer-Sasamoto, J. Stat. Phys. 129, 2007) may have
signed weights; if det(1_Z + L) is nonzero, its correlation kernel is
K = 1_Z - (1_Z + L)^(-1) on Z, and L(1 + L)^(-1) when Z is the whole space.
exact.bfps_l_verify reads this kernel of the TASEP two-level ensemble, so
the module holds that one map on arrays: the space is the rows of L and Z
a boolean mask over them.  Correlations, gap probabilities and the weights
that check them by enumeration live in tests/dpp_oracles.py.  Kernels are
inverted and reduced in np.longdouble (64-bit mantissa on x86): at
cond(1_Z + L) near 10^3, float64 alone leaves errors up to 2·10^-11 on
correlations of order 10^2.
"""

from __future__ import annotations

import numpy as np

_SING_RCOND = 1e-12


def _gauss_jordan(a) -> tuple[np.ndarray | None, np.longdouble]:
    """(a^{-1}, det a) by Gauss-Jordan elimination with partial pivoting in
    np.longdouble; the inverse is None, and det 0, once a pivot vanishes.

    Each pivot step updates only the rows whose multiplier is nonzero, so
    it costs one row operation per nonzero below and above the pivot, not
    one per row: on the block matrices of exact.bfps_l_verify about half
    of the steps touch a single row.  A zero multiplier would subtract
    +-0, so skipping it changes no bit of the inverse or the determinant."""
    m = np.array(a, dtype=np.longdouble)
    det = np.longdouble(1)
    swaps = []
    for k in range(m.shape[0]):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        piv = m[p, k]
        if piv == 0:
            return None, np.longdouble(0)
        if p != k:
            m[[k, p]] = m[[p, k]]
            det = -det
        swaps.append(p)
        det *= piv
        col = m[:, k].copy()
        col[k] = 0
        rows = np.flatnonzero(col)
        m[:, k] = 0
        m[k, k] = 1
        m[k] /= piv
        m[rows] -= np.outer(col[rows], m[k])
    for k in reversed(range(len(swaps))):
        if swaps[k] != k:
            m[:, [k, swaps[k]]] = m[:, [swaps[k], k]]
    return m, det


def conditional_l_to_k(L, z) -> np.ndarray:
    """1_Z - (1_Z + L)^(-1) on Z in np.longdouble, for a square float L and a
    boolean mask z of the rows in Z; its row i is the i-th row in Z.

    Raises ValueError for an empty or non-square L, a mask that is not one
    bool per row, a non-finite entry of L, naming its (i, j), and a 1_Z + L
    whose reciprocal condition number is below 1e-12."""
    L = np.asarray(L, dtype=float)
    z = np.asarray(z)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or not L.size:
        raise ValueError(f"L must be a non-empty square matrix, got shape {L.shape}")
    if z.dtype != bool or z.shape != (len(L),):
        raise ValueError(f"z must be a boolean mask, one entry per row of L, got {z.dtype} {z.shape}")
    bad = np.argwhere(~np.isfinite(L))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"L has a non-finite entry {L[i, j]} at ({i}, {j})")
    m = np.diag(z.astype(np.longdouble)) + L  # 1 + L_ii is exact for |L_ii| >= 2^-11
    near = m.astype(float)
    if np.linalg.slogdet(near)[0] == 0 or np.linalg.cond(near) > 1.0 / _SING_RCOND:
        raise ValueError("1_Z + L is singular (or numerically so)")
    zi = np.flatnonzero(z)
    return np.eye(len(zi)) - _gauss_jordan(m)[0][np.ix_(zi, zi)]
