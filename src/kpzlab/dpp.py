"""Determinantal point processes on finite spaces.

Correlation kernels, gap probabilities, and L-ensembles (conditional ones
too, with signed weights).  Spaces are small and dense by design: everything
here is meant to be checkable against exhaustive enumeration.

Kernels are stored, inverted and reduced to determinants in np.longdouble
(64-bit mantissa on x86): at cond(1_Z + L) near 10^3, float64 alone leaves
errors up to 2·10^-11 on correlations of order 10^2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

ENUM_CAP = 64  # hard cap on space size for the enumeration oracles
_SING_RCOND = 1e-12


def _as_tuple(p):
    return tuple(p) if isinstance(p, (list, tuple)) else p


def _gauss_jordan(a) -> tuple[np.ndarray | None, np.longdouble]:
    """(a^{-1}, det a) by Gauss-Jordan elimination with partial pivoting in
    np.longdouble; the inverse is None, and det 0, once a pivot vanishes."""
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
        m[:, k] = 0
        m[k, k] = 1
        m[k] /= piv
        m -= np.outer(col, m[k])
    for k in reversed(range(len(swaps))):
        if swaps[k] != k:
            m[:, [k, swaps[k]]] = m[:, [swaps[k], k]]
    return m, det


@dataclass
class FiniteDpp:
    """Point process on an ordered finite set determined by det[K]·Πμ.

    The kernel is held in np.longdouble."""

    points: tuple
    kernel: np.ndarray
    measure: np.ndarray
    index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.points = tuple(_as_tuple(p) for p in self.points)
        self.kernel = np.asarray(self.kernel, dtype=np.longdouble)
        self.measure = np.asarray(self.measure, dtype=float)
        n = len(self.points)
        if self.kernel.shape != (n, n):
            raise ValueError("kernel shape does not match point set")
        if self.measure.shape != (n,):
            raise ValueError("measure shape does not match point set")
        if not np.all(np.isfinite(self.kernel)):
            raise ValueError("kernel has non-finite entries")
        if not np.all(self.measure > 0):
            raise ValueError("measure must be strictly positive")
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
        if self.L.shape != (n, n):
            raise ValueError("L shape does not match space")
        self._index = {p: i for i, p in enumerate(self.space)}
        if len(self._index) < n:
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

    @property
    def zc_indices(self) -> np.ndarray:
        return np.flatnonzero(~self._z_mask)

    def index_of(self, p) -> int:
        """Position of the point p in the space; ValueError if p is not in it."""
        try:
            return self._index[_as_tuple(p)]
        except KeyError:
            raise ValueError(f"{p!r} is not a point of the space") from None


def dpp_correlation(dpp: FiniteDpp, pts: Sequence) -> float:
    """n-point correlation det[K(x_i,x_j)] Π μ(x_k); 0 on repeated points."""
    idx = [dpp.index[_as_tuple(p)] for p in pts]
    if len(set(idx)) != len(idx):
        return 0.0
    sub = dpp.kernel[np.ix_(idx, idx)]
    return float(_gauss_jordan(sub)[1] * np.prod(dpp.measure[idx]))


def gap_probability(dpp: FiniteDpp, B: Sequence) -> float:
    """det(I - K) on l^2(B, mu): probability that B holds no points."""
    idx = [dpp.index[_as_tuple(p)] for p in B]
    if not idx:
        return 1.0
    sub = dpp.kernel[np.ix_(idx, idx)] * dpp.measure[idx][None, :]
    return float(_gauss_jordan(np.eye(len(idx)) - sub)[1])


def l_to_k(spec: LEnsembleSpec) -> FiniteDpp:
    """Unconditioned correlation kernel K = L(1+L)^{-1} (requires Z = space)."""
    if len(spec.conditioning_subset) != len(spec.space):
        raise ValueError("l_to_k needs Z = space; use conditional_l_to_k")
    n = len(spec.space)
    K = np.asarray(spec.L, dtype=np.longdouble) @ _gauss_jordan(spec.one_z_plus_l())[0]
    return FiniteDpp(spec.space, K, np.ones(n))


def conditional_l_to_k(spec: LEnsembleSpec) -> FiniteDpp:
    """Correlation kernel of the conditional ensemble: 1_Z - (1_Z+L)^{-1} on Z."""
    inv = _gauss_jordan(spec.one_z_plus_l())[0]
    zi = spec.z_indices
    K = np.eye(len(zi)) - inv[np.ix_(zi, zi)]
    pts = tuple(spec.space[i] for i in zi)
    return FiniteDpp(pts, K, np.ones(len(zi)))


def conditional_weight(spec: LEnsembleSpec, Y: Sequence) -> float:
    """Signed weight W(Y) = det(L_{Y ∪ Z^c}) / det(1_Z + L) for Y ⊆ Z."""
    zset = set(spec.conditioning_subset)
    ypts = [_as_tuple(p) for p in Y]
    if not set(ypts) <= zset:
        raise ValueError("Y must be a subset of Z")
    return float(_weight(spec, ypts, _gauss_jordan(spec.one_z_plus_l())[1]))


def _weight(spec: LEnsembleSpec, ypts, den) -> np.longdouble:
    idx = sorted({spec.index_of(p) for p in ypts} | set(spec.zc_indices.tolist()))
    return _gauss_jordan(spec.L[np.ix_(idx, idx)])[1] / den


def enumerate_weights(spec: LEnsembleSpec) -> dict:
    """All signed weights {frozenset(Y): W(Y)} for Y ⊆ Z, in np.longdouble.
    Exponential; the space is capped so this stays a desk-scale oracle."""
    z = spec.conditioning_subset
    if len(z) > 20 or len(spec.space) > ENUM_CAP:
        raise ValueError("enumeration oracle capped at |Z| <= 20, |space| <= 64")
    den = _gauss_jordan(spec.one_z_plus_l())[1]
    out = {}
    for r in range(len(z) + 1):
        for comb in itertools.combinations(z, r):
            out[frozenset(comb)] = _weight(spec, comb, den)
    return out


def correlation_from_weights(weights: Mapping, pts: Sequence) -> float:
    """Oracle: rho(pts) = sum of W(X) over configurations X containing pts."""
    want = {_as_tuple(p) for p in pts}
    return float(sum(w for X, w in weights.items() if want <= X))


def gap_from_weights(weights: Mapping, B: Sequence) -> float:
    """Oracle: P(no point in B) = sum of W(X) over X disjoint from B."""
    avoid = {_as_tuple(p) for p in B}
    return float(sum(w for X, w in weights.items() if not (X & avoid)))
