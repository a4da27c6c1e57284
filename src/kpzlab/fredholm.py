"""Fredholm determinants: finite windows and quadrature on half-lines.

`det_window` is the package's one det(I - K), on exact kernel windows and
on quadrature matrices alike.  One core, `_quadrature_det`, discretizes
continuum determinants over stacked blocks (Bornemann, arXiv:0804.2543):
Gauss-Legendre nodes on (0, 1) pushed onto each half-line by s/(1 - s), in
the symmetrized form det(I - W^{1/2} K W^{1/2}).  Nystrom on one half-line
is its one-block case.  Orders walk a fixed ladder (20, 40, 80, 160) so
self-convergence deltas are reproducible.

`_settle` is the package's one refinement loop: it walks a ladder of rungs
(quadrature orders here, window depths in `exact`) until two successive
values agree, and returns the value as a `Certified` float.

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
# _quadrature_det's rows, blocks times order: a 512 MiB float64 stack, and
# about three times that at the peak, with det_window's I - K and LAPACK's
# working copy beside it
MAX_STACKED_ROWS = 2**13


class ConvergenceError(RuntimeError):
    """A refinement ladder ran out before two successive rungs agreed to
    tol; `exact` names it TruncationError for its window depths."""


class Certified(float):
    """A value that settled on a refinement ladder, with its certificate.

    `error` is the absolute change between the last two rungs, `order` the
    last rung (nodes per block, or window depth) and `seconds` the wall
    time of the walk.  The error is the ladder's stopping test, not a
    bound: round-off that moves every rung alike does not show in it.
    Arithmetic gives plain floats; pickle and copy keep the certificate.
    """

    __slots__ = ("error", "order", "seconds")

    def __new__(cls, value, error: float = 0.0, order: int = 0, seconds: float = 0.0):
        self = super().__new__(cls, value)
        self.error, self.order, self.seconds = error, order, seconds
        return self

    def __reduce__(self):
        return type(self), (float(self), self.error, self.order, self.seconds)


def _settle(value_at: Callable[[int], float], rungs, tol: float) -> Certified:
    """value_at(rung) up `rungs` until two successive values differ by at
    most tol, else ConvergenceError.  A NaN or negative tol raises
    ValueError before the first rung; tol = 0 is valid, since a ladder
    that reaches an exact value settles with a change of 0.  It stays
    private: bench/tracer.py wraps only public functions, so a determinant
    evaluated in value_at keeps the calling probability as its parent
    span."""
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    start = time.perf_counter()
    values = []
    for rung in rungs:
        values.append(value_at(rung))
        if len(values) > 1:
            change = abs(values[-1] - values[-2])
            if change <= tol:
                return Certified(values[-1], change, rung, time.perf_counter() - start)
    raise ConvergenceError(
        f"did not settle below {tol} over the rungs {rungs}: last two values"
        f" {values[-2:]}; try a larger tol"
    )


# ------------------------------------------------------------------- domains


@dataclass(frozen=True)
class HalfLineUp:
    """[r, +infinity), mapped from s in (0,1).  r = +inf is the empty
    half-line: _quadrature_det drops it and its blocks, so a determinant on
    it is 1 and its kernel is never evaluated.  A NaN r, or r = -inf, which
    makes it the whole line, raises ValueError.  It is the one domain:
    block_extended_det reads (-infinity, a] as [-a, +infinity)."""

    r: float

    def __post_init__(self) -> None:
        if not self.r > -math.inf:
            raise ValueError(f"a half-line [r, inf) needs r > -inf, got {self.r!r}")

    def nodes(self, order: int):
        s, ws = _gauss01(order)
        return self.r + s / (1.0 - s), ws / (1.0 - s) ** 2


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


def det_window(kernel_matrix: np.ndarray) -> float:
    """det(I - K) on a finite real window, LU with partial pivoting.
    np.linalg.det does not multiply the pivots u_ii: it returns
    sign * exp(sum ln|u_ii|), so a value carries a relative error of about
    eps |ln value| on top of the factorisation's: det(diag(2, 3, 5, 7)) is
    209.99999999999994 and det(1e-100 I_3) is 9.9999999999991e-301.  A
    value past the double range gives inf or nan, without a warning: the
    caller knows what such a window means."""
    k = np.asarray(kernel_matrix)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("kernel window must be square")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.det(np.eye(k.shape[0]) - k))


def _quadrature_det(block: Callable, domains, order: int) -> float:
    """det(I - K) on the direct sum of L^2(domain_i) at `order` nodes each,
    block (i, j) of K being block(i, j, U, V) for broadcast U, V, entries
    symmetrized as sqrt(w_i) K_ij sqrt(w_j).  Empty domains, HalfLineUp(inf),
    drop out with their blocks unevaluated; block sees the others by their
    indices in `domains`, and with none left the value is 1.0.  Past
    MAX_STACKED_ROWS rows a ValueError comes before the matrix does."""
    keep = [i for i, domain in enumerate(domains) if domain.r < math.inf]
    if not keep:
        return 1.0
    rows = len(keep) * order
    if rows > MAX_STACKED_ROWS:
        raise ValueError(f"{len(keep)} blocks at order {order} stack a {rows} x {rows} matrix, past the"
                         f" {MAX_STACKED_ROWS} rows of fredholm.MAX_STACKED_ROWS; use fewer points")
    grids = [(y, np.sqrt(w)) for y, w in (domains[i].nodes(order) for i in keep)]

    def weighted(i, j):
        (yi, sqi), (yj, sqj) = grids[i], grids[j]
        k = np.asarray(block(keep[i], keep[j], yi[:, None], yj[None, :]), dtype=float)
        return sqi[:, None] * k * sqj[None, :]

    big = np.zeros((rows, rows))
    for i in range(len(grids)):
        for j in range(len(grids)):
            big[i * order : (i + 1) * order, j * order : (j + 1) * order] = weighted(i, j)
    return det_window(big)


# ------------------------------------------------------------------- Nystrom


@dataclass(frozen=True)
class NystromProblem:
    """det(I - K) on `domain` at one ladder order."""

    kernel: Callable
    domain: HalfLineUp
    order: int = 80

    def __post_init__(self) -> None:
        if self.order not in ORDER_LADDER:
            raise ValueError(f"order must be one of {ORDER_LADDER}")


@dataclass(frozen=True)
class NystromResult:
    """A Nystrom value, its absolute change from the previous ladder order
    (None at the first order), and the order."""

    value: float
    delta: float | None
    order: int


def _nystrom_value(kernel, domain, order) -> float:
    return _quadrature_det(lambda i, j, u, v: kernel(u, v), [domain], order)


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
    (-infinity, a_i], at least one, and -inf an empty one; only
    MAX_STACKED_ROWS bounds their number.  A NaN or +inf threshold, which
    would make its half-line the whole line, raises ValueError.

    kernel(i, j, U, V) returns block (i,j) of the kernel for broadcast U, V.
    """

    kernel: Callable
    thresholds: Sequence[float]
    order: int = 80

    def __post_init__(self) -> None:
        if len(self.thresholds) == 0:
            raise ValueError("needs at least one block")
        for a in self.thresholds:
            if not a < math.inf:
                raise ValueError(f"a half-line (-inf, a] needs a < inf, got {a!r}")
        if self.order not in ORDER_LADDER:
            raise ValueError(f"order must be one of {ORDER_LADDER}")


def block_extended_det(problem: BlockExtendedProblem) -> float:
    """det(I - K) over the concatenated blocks; empty projections drop out.
    (-infinity, a_i] is read as [-a_i, +infinity), with the kernel at
    (-u, -v): negation is exact, so these are the mirrored nodes and
    weights to the bit."""
    kernel, domains = problem.kernel, [HalfLineUp(-a) for a in problem.thresholds]
    return _quadrature_det(lambda i, j, u, v: kernel(i, j, -u, -v), domains, problem.order)
