"""Finite determinantal measures by exhaustive enumeration: the routes that
check kpzlab.dpp.

kpzlab.dpp keeps the one map the library reads, the conditional kernel
K = 1_Z - (1_Z + L)^(-1) on Z.  The objects here check it: correlations
det[K(x_i, x_j)] and gap probabilities det(I - K) read off a kernel, the
unconditioned L(1 + L)^(-1), and the signed weights
W(Y) = det(L_(Y u Z^c)) / det(1_Z + L) of every configuration Y in Z,
whose sums give the same correlations and gaps with no kernel at all.
Determinants and inverses go through dpp's np.longdouble Gauss-Jordan
elimination, as the kernel does.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from kpzlab.dpp import FiniteDpp, LEnsembleSpec, _as_tuple, _gauss_jordan

ENUM_CAP = 64  # hard cap on space size for the enumeration oracles


def index_of(spec: LEnsembleSpec, p) -> int:
    """Position of the point p in the space; ValueError if p is not in it."""
    try:
        return spec.space.index(_as_tuple(p))
    except ValueError:
        raise ValueError(f"{p!r} is not a point of the space") from None


def l_over_one_plus_l(spec: LEnsembleSpec) -> np.ndarray:
    """The unconditioned kernel L(1 + L)^(-1), which needs Z = space."""
    if len(spec.conditioning_subset) != len(spec.space):
        raise ValueError("L(1 + L)^(-1) needs Z = space")
    return np.asarray(spec.L, dtype=np.longdouble) @ _gauss_jordan(spec.one_z_plus_l())[0]


def dpp_correlation(dpp: FiniteDpp, pts: Sequence) -> float:
    """n-point correlation det[K(x_i, x_j)]; 0 on repeated points."""
    idx = [dpp.index[_as_tuple(p)] for p in pts]
    if len(set(idx)) != len(idx):
        return 0.0
    return float(_gauss_jordan(dpp.kernel[np.ix_(idx, idx)])[1])


def gap_probability(dpp: FiniteDpp, B: Sequence) -> float:
    """det(I - K) on l^2(B): the probability that B holds no points."""
    idx = [dpp.index[_as_tuple(p)] for p in B]
    if not idx:
        return 1.0
    return float(_gauss_jordan(np.eye(len(idx)) - dpp.kernel[np.ix_(idx, idx)])[1])


def _weight(spec: LEnsembleSpec, ypts, den) -> np.longdouble:
    zset = set(spec.conditioning_subset)
    outside = {i for i, p in enumerate(spec.space) if p not in zset}
    idx = sorted({index_of(spec, p) for p in ypts} | outside)
    return _gauss_jordan(spec.L[np.ix_(idx, idx)])[1] / den


def enumerate_weights(spec: LEnsembleSpec) -> dict:
    """All signed weights {frozenset(Y): W(Y)} for Y in Z, in np.longdouble.
    Exponential; the space is capped so this stays a desk-scale oracle."""
    z = spec.conditioning_subset
    if len(z) > 20 or len(spec.space) > ENUM_CAP:
        raise ValueError(f"enumeration oracle capped at |Z| <= 20, |space| <= {ENUM_CAP}")
    den = _gauss_jordan(spec.one_z_plus_l())[1]
    out = {}
    for r in range(len(z) + 1):
        for comb in itertools.combinations(z, r):
            out[frozenset(comb)] = _weight(spec, comb, den)
    return out


def correlation_from_weights(weights: Mapping, pts: Sequence) -> float:
    """rho(pts) = the sum of W(X) over the configurations X that hold pts."""
    want = {_as_tuple(p) for p in pts}
    return float(sum(w for X, w in weights.items() if want <= X))


def gap_from_weights(weights: Mapping, B: Sequence) -> float:
    """P(no point in B) = the sum of W(X) over the X disjoint from B."""
    avoid = {_as_tuple(p) for p in B}
    return float(sum(w for X, w in weights.items() if not (X & avoid)))
