"""Determinant engine checks against analytic and enumeration oracles."""

import copy
import itertools
import math
import pickle
import warnings

import numpy as np
import pytest

from kpzlab import fredholm
from kpzlab.continuum import airy_kernel
from kpzlab.fredholm import (
    MAX_STACKED_ROWS,
    ORDER_LADDER,
    BlockExtendedProblem,
    Certified,
    ConvergenceError,
    HalfLineUp,
    NystromProblem,
    block_extended_det,
    det_window,
    nystrom_det,
    nystrom_ladder,
    _gauss01,
    _quadrature_det,
    _settle,
)
from kpzlab.exact import TruncationError
from kpzlab.special import airy_ai_kernel


def leibniz_det(a):
    n = a.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            sign *= -1 if ln % 2 == 0 else 1
        total += sign * math.prod(a[i, perm[i]] for i in range(n))
    return total


# ----------------------------------------------------------------- det_window


def test_det_window_zero():
    assert det_window(np.zeros((5, 5))) == 1.0


def test_det_window_rank_one():
    rng = np.random.default_rng(5)
    u = rng.normal(size=7)
    v = rng.normal(size=7)
    got = det_window(np.outer(u, v))
    assert got == pytest.approx(1.0 - v @ u, rel=1e-12)


def test_det_window_diagonal():
    d = np.array([0.3, -0.2, 0.9, 0.05])
    got = det_window(np.diag(d))
    assert got == pytest.approx(np.prod(1.0 - d), abs=1e-14)


def test_det_window_matches_leibniz():
    rng = np.random.default_rng(11)
    k = rng.normal(size=(5, 5)) * 0.4
    assert det_window(k) == pytest.approx(leibniz_det(np.eye(5) - k), rel=1e-12)


def test_det_window_rejects_non_square():
    with pytest.raises(ValueError):
        det_window(np.zeros((3, 4)))


# ---------------------------------------------------------------- nystrom_det


def test_nystrom_zero_kernel():
    prob = NystromProblem(lambda x, y: np.zeros(np.broadcast(x, y).shape), HalfLineUp(0.0), order=20)
    res = nystrom_det(prob)
    assert res.value == 1.0


def test_nystrom_exponential_rank_one():
    # K(x,y) = e^{-x-y} on [0, inf): det = 1 - int e^{-2x} dx = 1/2
    prob = NystromProblem(lambda x, y: np.exp(-x - y), HalfLineUp(0.0), order=40)
    res = nystrom_det(prob)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.delta is not None and abs(res.delta) < 1e-8


def test_nystrom_exponential_shifted():
    r = 0.7
    prob = NystromProblem(lambda x, y: np.exp(-x - y), HalfLineUp(r), order=40)
    res = nystrom_det(prob)
    assert res.value == pytest.approx(1.0 - 0.5 * math.exp(-2 * r), abs=1e-12)


def airy_kernel_matrix():
    # K_Ai(x,y) = int_0^inf Ai(x+s) Ai(y+s) ds, evaluated in factored form
    lam, wl = HalfLineUp(0.0).nodes(120)

    def k(x, y):
        # x shape (n,1), y shape (1,m): factor through the s-quadrature
        bx = airy_ai_kernel(x[:, 0][:, None] + lam[None, :])
        by = airy_ai_kernel(y[0, :][:, None] + lam[None, :])
        return (bx * wl[None, :]) @ by.T

    return k


def test_nystrom_airy_gue_value():
    # Tracy-Widom GUE at 0, pinned against a Hastings-McLeod solve of
    # Painleve II (two independent routes agree to 1e-13)
    res = nystrom_det(NystromProblem(airy_kernel_matrix(), HalfLineUp(0.0), order=160))
    assert res.delta is not None and abs(res.delta) < 1e-10
    assert res.value == pytest.approx(0.9693728283553, abs=1e-9)


def test_ladder_monotone_deltas():
    vals = [
        nystrom_det(NystromProblem(airy_kernel_matrix(), HalfLineUp(-2.0), order=o))
        for o in (40, 80, 160)
    ]
    deltas = [abs(v.delta) for v in vals]
    assert deltas[0] > deltas[1] > deltas[2]


def test_ladder_exhaustion_raises():
    # a kernel with a jump: the Gauss rules converge like 1/order, and the
    # ladder's last change, about 1e-4, stays above tol
    def kernel(x, y):
        return 0.5 * ((x < 1.0) & (y < 1.0))

    with pytest.raises(ConvergenceError):
        nystrom_ladder(kernel, HalfLineUp(0.0), tol=1e-6)


# ------------------------------------------------------------------ certificates


def test_settle_certifies_the_last_rung():
    # value_at(k) = 1 + 2^-k settles once the change 2^-k falls below tol
    got = _settle(lambda k: 1.0 + 2.0**-k, (1, 2, 4, 8, 16), tol=0.1)
    assert isinstance(got, Certified)
    assert got == 1.0 + 2.0**-8 and got.error == 2.0**-4 - 2.0**-8
    assert got.order == 8 and got.seconds > 0
    with pytest.raises(ConvergenceError, match="did not settle.*try a larger tol"):
        _settle(lambda k: float(k), (1, 2, 3), tol=0.5)


@pytest.mark.parametrize("tol", [math.nan, -1e-3])
def test_settle_rejects_nan_and_negative_tol_before_the_first_rung(tol):
    # a NaN tol walked every rung and then advised "try a larger tol"
    calls = []
    with pytest.raises(ValueError, match="tol must be >= 0"):
        _settle(calls.append, (1, 2, 3), tol)
    assert calls == []
    with pytest.raises(ValueError, match="tol must be >= 0"):
        nystrom_ladder(lambda x, y: np.exp(-x - y), HalfLineUp(0.0), tol=tol)
    assert _settle(lambda k: 0.5, (1, 2), 0.0) == 0.5


def test_one_ladder_error():
    # exact's window ladder raises the same class under its own name
    assert TruncationError is ConvergenceError


def test_nystrom_ladder_certificate():
    res = nystrom_ladder(airy_kernel_matrix(), HalfLineUp(0.0), tol=1e-10)
    assert res.order in ORDER_LADDER[1:] and 0.0 <= res.delta <= 1e-10
    assert type(res.value) is float
    # F_GUE(0), as in test_nystrom_airy_gue_value; a second walk reads the
    # cached Gauss rules and must repeat the first bit for bit
    assert res.value == pytest.approx(0.9693728283553, abs=1e-9)
    assert nystrom_ladder(airy_kernel_matrix(), HalfLineUp(0.0), tol=1e-10) == res


def test_gauss_rules_are_cached_and_read_only():
    for order in ORDER_LADDER + (96, 120):
        s, w = _gauss01(order)
        assert _gauss01(order)[0] is s and _gauss01(order)[1] is w
        for a in (s, w):
            with pytest.raises(ValueError):
                a[0] = 0.5
        x, v = np.polynomial.legendre.leggauss(order)
        for r in (-3.0, 0.0, 1.5):
            y, wy = HalfLineUp(r).nodes(order)
            s0 = 0.5 * (x + 1.0)
            assert np.array_equal(y, r + s0 / (1.0 - s0))
            assert np.array_equal(wy, 0.5 * v / (1.0 - s0) ** 2)
            assert y.flags.writeable and wy.flags.writeable


def test_certified_is_a_float_that_keeps_its_slots():
    c = Certified(0.25, 1e-13, 80, 0.5)
    assert c == 0.25 and isinstance(c, float) and not hasattr(c, "__dict__")
    for r in (c + 1.0, 2.0 * c, c - c, -c, abs(c), c**2, float(c)):
        assert type(r) is float
    copies = [copy.copy(c), copy.deepcopy(c)]
    copies += [pickle.loads(pickle.dumps(c, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is Certified and other == c
        assert (other.error, other.order, other.seconds) == (1e-13, 80, 0.5)
    assert (Certified(1.0).error, Certified(1.0).order, Certified(1.0).seconds) == (0.0, 0, 0.0)


def test_ladder_stops_early():
    res = nystrom_ladder(lambda x, y: np.exp(-x - y), HalfLineUp(0.0), tol=1e-9)
    assert res.order <= 80
    assert res.value == pytest.approx(0.5, abs=1e-9)


def test_cyclic_property():
    # det(I - AB) = det(I - BA) with A, B discretized on the same rule
    y, w = HalfLineUp(0.0).nodes(60)
    sq = np.sqrt(w)
    a = sq[:, None] * np.exp(-y[:, None] - 2.0 * y[None, :]) * sq[None, :]
    b = sq[:, None] * np.exp(-2.0 * y[:, None] - y[None, :]) * sq[None, :]
    da = np.linalg.det(np.eye(60) - a @ b)
    db = np.linalg.det(np.eye(60) - b @ a)
    assert da == pytest.approx(db, abs=1e-10)


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        NystromProblem(lambda x, y: x * y, HalfLineUp(0.0), order=33)


def test_half_lines_refuse_nan_and_whole_line_ends():
    # HalfLineUp(nan) and HalfLineUp(-inf) walked every order on NaN and then
    # raised ConvergenceError, advising a larger tol
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for end in (math.nan, -math.inf, np.float64(math.nan)):
            with pytest.raises(ValueError, match=r"\[r, inf\) needs r > -inf"):
                HalfLineUp(end)
        for end in (math.nan, math.inf, np.float64(math.nan)):
            with pytest.raises(ValueError, match=r"\(-inf, a\] needs a < inf"):
                BlockExtendedProblem(exp_block_kernel, [end])
        with pytest.raises(ValueError, match="needs a < inf"):
            block_extended_det(BlockExtendedProblem(exp_block_kernel, [0.0, math.inf], order=20))
        # the empty half-lines stay valid, and their determinant is 1
        assert nystrom_ladder(airy_kernel_matrix(), HalfLineUp(math.inf)).value == 1.0
        assert block_extended_det(BlockExtendedProblem(exp_block_kernel, [-math.inf])) == 1.0



# ---------------------------------------------------------------- block dets


def exp_block_kernel(i, j, u, v):
    # decays toward -inf on each block, suitable for (-inf, a] grids
    return np.exp(u + v - 2.0)


def test_single_block_reduces_to_nystrom():
    # (-inf, 1] is read as [-1, inf) with the kernel at (-u, -v); negation
    # is exact, so the reflected problem gives the same bits
    for order in ORDER_LADDER:
        got = block_extended_det(BlockExtendedProblem(exp_block_kernel, [1.0], order=order))
        want = nystrom_det(
            NystromProblem(lambda x, y: np.exp(-x - y - 2.0), HalfLineUp(-1.0), order=order)
        ).value
        assert got == want


def test_all_thresholds_minus_inf():
    prob = BlockExtendedProblem(exp_block_kernel, [-math.inf, -math.inf], order=20)
    assert block_extended_det(prob) == 1.0


def test_minus_inf_block_dropped():
    keep = BlockExtendedProblem(exp_block_kernel, [0.3], order=40)
    mixed = BlockExtendedProblem(exp_block_kernel, [0.3, -math.inf], order=40)
    assert block_extended_det(mixed) == pytest.approx(
        block_extended_det(keep), rel=1e-13
    )


def test_block_count_is_bounded_by_the_stacked_rows(monkeypatch):
    # four blocks were a count cap; the one limit now is the stacked
    # matrix's rows.  exp_block_kernel is rank one across all blocks, so
    # det(I - K) = 1 - sum_i int_(-inf)^(a_i) e^(2u - 2) du
    def closed_form(thresholds):
        return 1.0 - sum(math.exp(2.0 * a - 2.0) / 2.0 for a in thresholds)

    thresholds = [-1.0 - 0.1 * k for k in range(10)]
    got = block_extended_det(BlockExtendedProblem(exp_block_kernel, thresholds, order=40))
    assert got == pytest.approx(closed_form(thresholds), abs=1e-13)
    with pytest.raises(ValueError, match="at least one block"):
        BlockExtendedProblem(exp_block_kernel, [])

    def never(i, j, u, v):
        raise AssertionError("the kernel was evaluated")

    # the check comes before the kernel and the matrix: 52 blocks at order
    # 160 would take 554 MB
    assert MAX_STACKED_ROWS == 2**13
    with pytest.raises(ValueError, match=r"^52 blocks at order 160 stack a 8320 x 8320 matrix, past the 8192 rows"):
        block_extended_det(BlockExtendedProblem(never, [0.0] * 52, order=160))
    with pytest.raises(ValueError, match="use fewer points"):
        _quadrature_det(never, [HalfLineUp(0.0)] * 103, 80)
    # the bound is inclusive, and counts only the blocks that are kept
    monkeypatch.setattr(fredholm, "MAX_STACKED_ROWS", 120)
    kept = [-1.0, -math.inf, -1.5, -2.0, -math.inf]
    got = block_extended_det(BlockExtendedProblem(exp_block_kernel, kept, order=40))
    assert got == pytest.approx(closed_form([-1.0, -1.5, -2.0]), abs=1e-13)
    with pytest.raises(ValueError, match="4 blocks at order 40 stack a 160 x 160 matrix"):
        block_extended_det(BlockExtendedProblem(exp_block_kernel, [-1.0] * 4, order=40))


def test_empty_half_lines_drop_out_before_their_kernel_is_evaluated():
    # u - v is NaN at u = v = inf, with numpy's "invalid value" warning:
    # continuum.airy_kernel on HalfLineUp(inf) raised it under the suite's
    # error::RuntimeWarning.  An empty half-line and its blocks drop out,
    # and the kernel sees the others by their own indices
    line, empty = HalfLineUp, math.inf
    calls = []

    def block(i, j, u, v):
        calls.append((i, j))
        return np.exp(-np.abs(u - v) - (u + v) - i - j)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _quadrature_det(block, [line(empty), line(0.5), line(empty), line(-0.5), line(empty)], 40)
        assert sorted(set(calls)) == [(1, 1), (1, 3), (3, 1), (3, 3)]
        calls.clear()
        want = _quadrature_det(lambda i, j, u, v: block(2 * i + 1, 2 * j + 1, u, v), [line(0.5), line(-0.5)], 40)
        assert got.hex() == want.hex()
        calls.clear()
        assert _quadrature_det(block, [line(empty)] * 3, 40) == 1.0 and not calls
        one = nystrom_ladder(lambda u, v: block(0, 0, u, v), line(empty))
        assert one.value == 1.0 and one.delta == 0.0 and not calls
        assert nystrom_ladder(airy_kernel, HalfLineUp(math.inf)).value == 1.0

