"""Finite determinantal measures by exhaustive enumeration: the routes that
check kpzlab.dpp.

kpzlab.dpp keeps the one map the library reads, the conditional kernel
K = 1_Z - (1_Z + L)^(-1) on Z, on arrays: the space is the rows of L and Z
a boolean mask z over them.  The objects here check it: correlations
det[K(x_i, x_j)] and gap probabilities det(I - K) read off a kernel, the
unconditioned L(1 + L)^(-1), and the signed weights
W(Y) = det(L_(Y u Z^c)) / det(1_Z + L) of every configuration Y in Z,
whose sums give the same correlations and gaps with no kernel at all.
Points are rows of K throughout, so a configuration Y holds positions in
Z's rows in order, not rows of L.  Determinants and inverses go through
dpp's np.longdouble Gauss-Jordan elimination, as the kernel does.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from kpzlab.dpp import _gauss_jordan

ENUM_CAP = 64  # hard cap on space size for the enumeration oracles


def l_over_one_plus_l(L) -> np.ndarray:
    """The unconditioned kernel L(1 + L)^(-1), Z the whole space."""
    L = np.asarray(L, dtype=np.longdouble)
    return L @ _gauss_jordan(np.eye(len(L), dtype=np.longdouble) + L)[0]


def dpp_correlation(K, pts: Sequence[int]) -> float:
    """n-point correlation det[K(x_i, x_j)] at rows pts; 0 on repeated rows."""
    if len(set(pts)) != len(pts):
        return 0.0
    return float(_gauss_jordan(K[np.ix_(pts, pts)])[1])


def gap_probability(K, B: Sequence[int]) -> float:
    """det(I - K) on l^2(B): the probability that the rows B hold no points."""
    if not B:
        return 1.0
    return float(_gauss_jordan(np.eye(len(B)) - K[np.ix_(B, B)])[1])


def enumerate_weights(L, z) -> dict:
    """All signed weights {frozenset(Y): W(Y)} for Y in Z, in np.longdouble,
    with Y's points as positions in Z's rows.  Exponential; the space is
    capped so this stays a desk-scale oracle."""
    L = np.asarray(L, dtype=float)
    rows, outside = np.flatnonzero(z), np.flatnonzero(~np.asarray(z))
    if len(rows) > 20 or len(L) > ENUM_CAP:
        raise ValueError(f"enumeration oracle capped at |Z| <= 20, |space| <= {ENUM_CAP}")
    den = _gauss_jordan(np.diag(np.asarray(z, dtype=np.longdouble)) + L)[1]
    out = {}
    for r in range(len(rows) + 1):
        for comb in itertools.combinations(range(len(rows)), r):
            idx = np.sort(np.concatenate([rows[list(comb)], outside]))
            out[frozenset(comb)] = _gauss_jordan(L[np.ix_(idx, idx)])[1] / den
    return out


def correlation_from_weights(weights: Mapping, pts: Sequence[int]) -> float:
    """rho(pts) = the sum of W(X) over the configurations X that hold pts."""
    want = set(pts)
    return float(sum(w for X, w in weights.items() if want <= X))


def gap_from_weights(weights: Mapping, B: Sequence[int]) -> float:
    """P(no point in B) = the sum of W(X) over the X disjoint from B."""
    avoid = set(B)
    return float(sum(w for X, w in weights.items() if not (X & avoid)))
