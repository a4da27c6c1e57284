"""Fredholm determinants: finite windows and Nystrom quadrature.

Continuum determinants det(I - K) are discretized with Gauss-Legendre nodes
on (0, 1) pushed onto a half-line by the rational map s/(1 - s), in the
symmetrized form det(I - W^{1/2} K W^{1/2}).  Orders walk a fixed ladder
(20, 40, 80, 160) so self-convergence deltas are reproducible.

Kernel callables receive broadcastable arrays (shapes (n,1) and (1,m)) and
return the matrix of kernel values; a kernel with low-rank structure is free
to exploit the shapes instead of evaluating pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

ORDER_LADDER = (20, 40, 80, 160)


class ConvergenceError(RuntimeError):
    """Ladder exhausted before the requested tolerance was met."""


# ------------------------------------------------------------------- domains


@dataclass(frozen=True)
class HalfLineUp:
    """[r, +infinity), mapped from s in (0,1)."""

    r: float

    def nodes(self, order: int):
        s, ws = _gauss01(order)
        return self.r + s / (1.0 - s), ws / (1.0 - s) ** 2


@dataclass(frozen=True)
class HalfLineDown:
    """(-infinity, a], mapped from s in (0,1); nodes descend from a."""

    a: float

    def nodes(self, order: int):
        y, w = HalfLineUp(-self.a).nodes(order)
        return -y, w


def _gauss01(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


# ---------------------------------------------------------------- finite part


def det_window(kernel_matrix: np.ndarray) -> float | complex:
    """det(I - K) on a finite window, LU with partial pivoting."""
    k = np.asarray(kernel_matrix)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("kernel window must be square")
    a = np.eye(k.shape[0], dtype=k.dtype) - k
    out = np.linalg.det(a)
    return complex(out) if np.iscomplexobj(k) else float(out)


# ------------------------------------------------------------------- Nystrom


@dataclass(frozen=True)
class NystromProblem:
    """det(I - K) on `domain` at one ladder order."""

    kernel: Callable
    domain: HalfLineUp | HalfLineDown
    order: int = 80

    def __post_init__(self) -> None:
        if self.order not in ORDER_LADDER:
            raise ValueError(f"order must be one of {ORDER_LADDER}")


@dataclass(frozen=True)
class NystromResult:
    value: float
    delta: float | None  # change from the previous ladder order
    order: int


def _nystrom_value(kernel, domain, order) -> float:
    y, w = domain.nodes(order)
    k = np.asarray(kernel(y[:, None], y[None, :]), dtype=float)
    sq = np.sqrt(w)
    a = np.eye(order) - sq[:, None] * k * sq[None, :]
    return float(np.linalg.det(a))


def nystrom_det(problem: NystromProblem) -> NystromResult:
    """Value at problem.order plus the delta from the previous ladder order."""
    value = _nystrom_value(problem.kernel, problem.domain, problem.order)
    idx = ORDER_LADDER.index(problem.order)
    delta = None
    if idx > 0:
        delta = value - _nystrom_value(problem.kernel, problem.domain, ORDER_LADDER[idx - 1])
    return NystromResult(value, delta, problem.order)


def nystrom_ladder(kernel: Callable, domain, tol: float = 1e-10) -> NystromResult:
    """Walk the order ladder until successive values differ by at most tol."""
    return _walk_ladder(lambda order: _nystrom_value(kernel, domain, order), tol)


def _walk_ladder(value_at: Callable[[int], float], tol: float) -> NystromResult:
    """value_at(order) up the ladder until successive values differ by at
    most tol: the package's one order loop, shared by nystrom_ladder and
    the continuum probabilities."""
    prev = None
    deltas = []
    for order in ORDER_LADDER:
        value = value_at(order)
        if prev is not None:
            delta = value - prev
            deltas.append(delta)
            if abs(delta) <= tol:
                return NystromResult(value, delta, order)
        prev = value
    raise ConvergenceError(
        f"order ladder {ORDER_LADDER} exhausted: last deltas {deltas} above {tol}"
    )


# -------------------------------------------------------------------- blocks


@dataclass(frozen=True)
class BlockExtendedProblem:
    """Multipoint determinant over stacked blocks with projections onto
    (-infinity, a_i].

    kernel(i, j, U, V) returns the smooth part of block (i,j) for broadcast
    U, V.  Pairs listed in identity_pairs get the identity subtracted on
    their block; that needs matching thresholds (shared grid), and is how a
    degenerate transition between equal index points enters.
    """

    kernel: Callable
    thresholds: Sequence[float]
    order: int = 80
    identity_pairs: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if len(self.thresholds) == 0 or len(self.thresholds) > 4:
            raise ValueError("between 1 and 4 blocks")
        if self.order not in ORDER_LADDER:
            raise ValueError(f"order must be one of {ORDER_LADDER}")
        for (i, j) in self.identity_pairs:
            if self.thresholds[i] != self.thresholds[j]:
                raise ValueError(
                    "identity insertion needs equal thresholds (shared grid)"
                )


def block_extended_det(problem: BlockExtendedProblem) -> float:
    """det(I - K) over the concatenated blocks; empty projections drop out."""
    keep = [i for i, a in enumerate(problem.thresholds) if a != -math.inf]
    if not keep:
        return 1.0
    n = problem.order
    grids = {}
    for i in keep:
        grids[i] = HalfLineDown(problem.thresholds[i]).nodes(n)
    m = len(keep)
    big = np.zeros((m * n, m * n))
    for bi, i in enumerate(keep):
        ui, wi = grids[i]
        for bj, j in enumerate(keep):
            uj, wj = grids[j]
            blk = np.asarray(
                problem.kernel(i, j, ui[:, None], uj[None, :]), dtype=float
            )
            if (i, j) in problem.identity_pairs:
                blk = blk - np.diag(1.0 / wi)
            big[bi * n : (bi + 1) * n, bj * n : (bj + 1) * n] = (
                np.sqrt(wi)[:, None] * blk * np.sqrt(wj)[None, :]
            )
    return float(np.linalg.det(np.eye(m * n) - big))
