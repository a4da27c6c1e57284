"""The correlation kernel of a conditional L-ensemble on a finite space.

An L-ensemble conditioned on a subset Z that carries the points
(Borodin-Ferrari-Praehofer-Sasamoto, J. Stat. Phys. 129, 2007) may have
signed weights; if det(1_Z + L) is nonzero, its correlation kernel is
K = 1_Z - (1_Z + L)^(-1) on Z, and L(1 + L)^(-1) when Z is the whole space.
exact.bfps_l_verify reads this kernel of the TASEP two-level ensemble, so
the module holds that one map; correlations, gap probabilities and the
weights that check them by enumeration live in tests/dpp_oracles.py.
Kernels are stored, inverted and reduced in np.longdouble (64-bit mantissa
on x86): at cond(1_Z + L) near 10^3, float64 alone leaves errors up to
2·10^-11 on correlations of order 10^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SING_RCOND = 1e-12


def _as_tuple(p):
    return tuple(p) if isinstance(p, (list, tuple)) else p


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


@dataclass
class FiniteDpp:
    """Point process on an ordered finite set with correlations det[K].

    The kernel is held in np.longdouble; `index` maps each point to its
    row."""

    points: tuple
    kernel: np.ndarray
    index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.points = tuple(_as_tuple(p) for p in self.points)
        self.kernel = np.asarray(self.kernel, dtype=np.longdouble)
        n = len(self.points)
        if self.kernel.shape != (n, n):
            raise ValueError("kernel shape does not match point set")
        if not np.all(np.isfinite(self.kernel)):
            raise ValueError("kernel has non-finite entries")
        self.index = {p: i for i, p in enumerate(self.points)}
        if len(self.index) < n:
            raise ValueError("point set repeats a point, so it does not define a point process")


@dataclass
class LEnsembleSpec:
    """L-ensemble on a finite space, possibly conditioned on a subset Z.

    Weights may be signed; the only structural requirement is that
    det(1_Z + L) is nonzero, which is verified here.
    """

    space: tuple
    L: np.ndarray
    conditioning_subset: tuple

    def __post_init__(self) -> None:
        self.space = tuple(_as_tuple(p) for p in self.space)
        self.L = np.asarray(self.L, dtype=float)
        self.conditioning_subset = tuple(_as_tuple(p) for p in self.conditioning_subset)
        n = len(self.space)
        if n == 0:
            raise ValueError("the space is empty, so it does not define an L-ensemble")
        if self.L.shape != (n, n):
            raise ValueError("L shape does not match space")
        bad = np.argwhere(~np.isfinite(self.L))
        if len(bad):
            i, j = bad[0]
            raise ValueError(
                f"L has a non-finite entry {self.L[i, j]} at ({self.space[i]!r}, {self.space[j]!r})"
            )
        if len(set(self.space)) < n:
            raise ValueError("space repeats a point, so it does not define an L-ensemble")
        zset = set(self.conditioning_subset)
        if not zset <= set(self.space):
            raise ValueError("conditioning subset must lie inside the space")
        self._z_mask = np.array([p in zset for p in self.space])
        m = self.one_z_plus_l().astype(float)
        sign, _ = np.linalg.slogdet(m)
        if sign == 0 or np.linalg.cond(m) > 1.0 / _SING_RCOND:
            raise ValueError("1_Z + L is singular (or numerically so)")

    def one_z_plus_l(self) -> np.ndarray:
        """1_Z + L in np.longdouble, where 1 + L_ii is exact for |L_ii| >= 2^-11."""
        return np.diag(self._z_mask.astype(np.longdouble)) + self.L

    @property
    def z_indices(self) -> np.ndarray:
        return np.flatnonzero(self._z_mask)


def conditional_l_to_k(spec: LEnsembleSpec) -> FiniteDpp:
    """Correlation kernel of the conditional ensemble: 1_Z - (1_Z+L)^{-1} on Z.
    With Z the whole space it is the unconditioned L(1 + L)^{-1}."""
    inv = _gauss_jordan(spec.one_z_plus_l())[0]
    zi = spec.z_indices
    K = np.eye(len(zi)) - inv[np.ix_(zi, zi)]
    pts = tuple(spec.space[i] for i in zi)
    return FiniteDpp(pts, K)
