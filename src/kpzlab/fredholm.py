"""Fredholm determinants: finite windows and Nystrom quadrature.

Continuum determinants det(I - K) are discretized with Gauss-Legendre nodes
on (0, 1) pushed onto a half-line by the rational map s/(1 - s), in the
symmetrized form det(I - W^{1/2} K W^{1/2}).  Orders walk a fixed ladder
(20, 40, 80, 160) so self-convergence deltas are reproducible.

`_settle` is the package's one refinement loop: it walks a ladder of rungs
(Nystrom orders here, window depths in `exact`) until two successive values
agree, and returns the value as a `Certified` float.

Kernel callables receive broadcastable arrays (shapes (n,1) and (1,m)) and
return the matrix of kernel values; a kernel with low-rank structure is free
to exploit the shapes instead of evaluating pointwise.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

ORDER_LADDER = (20, 40, 80, 160)


class ConvergenceError(RuntimeError):
    """Ladder exhausted before the requested tolerance was met."""


class Certified(float):
    """A value that settled on a refinement ladder, with its certificate.

    `error` is the absolute change between the last two rungs, `order` the
    last rung (nodes per block, or window depth) and `seconds` the wall
    time of the walk.  The error is the ladder's stopping test, not a
    bound: round-off that moves every rung alike does not show in it.  On
    the eps = 0.03 step-data two-point the discrete path-product route
    settles 1e-8 to 5e-8 away from the extended-kernel route, depending on
    how its transfer matrices round, while its error reads 0.
    Arithmetic gives plain floats; pickle and copy keep the certificate.
    """

    __slots__ = ("error", "order", "seconds")

    def __new__(cls, value, error: float = 0.0, order: int = 0, seconds: float = 0.0):
        self = super().__new__(cls, value)
        self.error, self.order, self.seconds = error, order, seconds
        return self

    def __reduce__(self):
        return type(self), (float(self), self.error, self.order, self.seconds)


def _settle(
    value_at: Callable[[int], float], rungs, tol: float, error=ConvergenceError
) -> Certified:
    """value_at(rung) up `rungs` until two successive values differ by at
    most tol; raises `error` once the rungs run out.  It stays private:
    bench/tracer.py wraps only public functions, so a determinant evaluated
    in value_at keeps the calling probability as its parent span."""
    start = time.perf_counter()
    values = []
    for rung in rungs:
        values.append(value_at(rung))
        if len(values) > 1:
            change = abs(values[-1] - values[-2])
            if change <= tol:
                return Certified(values[-1], change, rung, time.perf_counter() - start)
    raise error(f"did not settle below {tol} over the rungs {rungs}: last two values {values[-2:]}")


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


@functools.lru_cache(maxsize=32)
def _gauss01(order: int):
    """Gauss-Legendre nodes and weights on (0, 1), built once per order and
    returned read-only, since every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(order)
    s, ws = 0.5 * (x + 1.0), 0.5 * w
    s.setflags(write=False)
    ws.setflags(write=False)
    return s, ws


# ---------------------------------------------------------------- finite part


def det_window(kernel_matrix: np.ndarray) -> float | complex:
    """det(I - K) on a finite window, LU with partial pivoting.  A product
    of pivots past the double range gives inf or nan, without a warning:
    the caller knows what such a window means."""
    k = np.asarray(kernel_matrix)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("kernel window must be square")
    a = np.eye(k.shape[0], dtype=k.dtype) - k
    with np.errstate(over="ignore", invalid="ignore"):
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
    delta: float | None  # absolute change from the previous ladder order
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
        delta = abs(value - _nystrom_value(problem.kernel, problem.domain, ORDER_LADDER[idx - 1]))
    return NystromResult(value, delta, problem.order)


def nystrom_ladder(kernel: Callable, domain, tol: float = 1e-10) -> NystromResult:
    """Walk the order ladder until successive values differ by at most tol."""
    res = _settle(lambda order: _nystrom_value(kernel, domain, order), ORDER_LADDER, tol)
    return NystromResult(float(res), res.error, res.order)


# -------------------------------------------------------------------- blocks


@dataclass(frozen=True)
class BlockExtendedProblem:
    """Multipoint determinant over stacked blocks with projections onto
    (-infinity, a_i].

    kernel(i, j, U, V) returns block (i,j) of the kernel for broadcast U, V.
    """

    kernel: Callable
    thresholds: Sequence[float]
    order: int = 80

    def __post_init__(self) -> None:
        if len(self.thresholds) == 0 or len(self.thresholds) > 4:
            raise ValueError("between 1 and 4 blocks")
        if self.order not in ORDER_LADDER:
            raise ValueError(f"order must be one of {ORDER_LADDER}")


def block_extended_det(problem: BlockExtendedProblem) -> float:
    """det(I - K) over the concatenated blocks; empty projections drop out."""
    keep = [i for i, a in enumerate(problem.thresholds) if a != -math.inf]
    if not keep:
        return 1.0
    n = problem.order
    grids = {}
    for i in keep:
        u, w = HalfLineDown(problem.thresholds[i]).nodes(n)
        grids[i] = u, np.sqrt(w)
    m = len(keep)
    big = np.zeros((m * n, m * n))
    for bi, i in enumerate(keep):
        ui, sqi = grids[i]
        for bj, j in enumerate(keep):
            uj, sqj = grids[j]
            blk = np.asarray(
                problem.kernel(i, j, ui[:, None], uj[None, :]), dtype=float
            )
            big[bi * n : (bi + 1) * n, bj * n : (bj + 1) * n] = (
                sqi[:, None] * blk * sqj[None, :]
            )
    return float(np.linalg.det(np.eye(m * n) - big))
