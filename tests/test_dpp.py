"""Determinantal-measure algebra vs exhaustive enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kpzlab.dpp import (
    FiniteDpp,
    LEnsembleSpec,
    conditional_l_to_k,
    conditional_weight,
    correlation_from_weights,
    dpp_correlation,
    enumerate_weights,
    gap_from_weights,
    gap_probability,
    karlin_mcgregor_det,
    l_to_k,
    vicious_walk_kernel,
)

RNG = np.random.default_rng(20230817)


def random_lensemble(n, z=None, scale=1.0, rng=RNG):
    L = rng.uniform(-scale, scale, size=(n, n))
    space = tuple(range(n))
    return LEnsembleSpec(space, L, space if z is None else tuple(z))


def test_dpp_correlation_basics():
    K = np.array([[0.3, 0.1], [0.1, 0.5]])
    mu = np.array([2.0, 1.0])
    d = FiniteDpp((0, 1), K, mu)
    assert dpp_correlation(d, (0,)) == pytest.approx(0.3 * 2.0)
    assert dpp_correlation(d, (0, 0)) == 0.0
    got = dpp_correlation(d, (0, 1))
    assert got == pytest.approx((0.3 * 0.5 - 0.1 * 0.1) * 2.0)


def test_two_point_correlation_matches_enumeration():
    spec = random_lensemble(6)
    d = l_to_k(spec)
    weights = enumerate_weights(spec)
    for pts in [(0, 3), (1, 5), (2, 4)]:
        want = correlation_from_weights(weights, pts)
        assert dpp_correlation(d, pts) == pytest.approx(want, abs=1e-12)


def test_gap_probability_trivial():
    d = FiniteDpp((0, 1, 2), np.zeros((3, 3)), np.ones(3))
    assert gap_probability(d, (0, 2)) == pytest.approx(1.0)
    # rank-1 projection onto site 0: the point is almost surely there
    K = np.zeros((3, 3))
    K[0, 0] = 1.0
    d = FiniteDpp((0, 1, 2), K, np.ones(3))
    assert gap_probability(d, (0,)) == pytest.approx(0.0)
    assert gap_probability(d, ()) == 1.0


def test_gap_probability_signed_weights():
    spec = random_lensemble(8, scale=0.8)
    d = l_to_k(spec)
    weights = enumerate_weights(spec)
    for B in [(0,), (1, 4), (2, 3, 7), tuple(range(8))]:
        want = gap_from_weights(weights, B)
        assert gap_probability(d, B) == pytest.approx(want, abs=1e-12)


def test_l_to_k_scalars():
    spec = LEnsembleSpec((0,), np.array([[1.0]]), (0,))
    assert l_to_k(spec).kernel[0, 0] == pytest.approx(0.5)
    spec = LEnsembleSpec((0, 1), np.zeros((2, 2)), (0, 1))
    assert np.allclose(l_to_k(spec).kernel, 0.0)


def test_l_to_k_random_vs_enumeration():
    spec = random_lensemble(5)
    d = l_to_k(spec)
    weights = enumerate_weights(spec)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    for r in (1, 2, 3):
        for pts in itertools.combinations(range(5), r):
            want = correlation_from_weights(weights, pts)
            assert dpp_correlation(d, pts) == pytest.approx(want, abs=1e-12)


def test_singular_one_z_plus_l_rejected():
    with pytest.raises(ValueError):
        LEnsembleSpec((0,), np.array([[-1.0]]), (0,))


def test_conditional_reduces_to_unconditional():
    spec = random_lensemble(6)
    a = l_to_k(spec)
    b = conditional_l_to_k(spec)
    assert np.max(np.abs(a.kernel - b.kernel)) <= 1e-13


def test_conditional_weights_sum_to_one():
    rng = np.random.default_rng(7)
    n, z = 8, tuple(range(6))
    for _ in range(4):
        L = rng.uniform(-1, 1, size=(n, n))
        try:
            spec = LEnsembleSpec(tuple(range(n)), L, z)
        except ValueError:
            continue
        total = sum(enumerate_weights(spec).values())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_conditional_correlations_vs_enumeration():
    rng = np.random.default_rng(11)
    n, z = 7, (0, 2, 4, 6)
    L = rng.uniform(-1, 1, size=(n, n))
    spec = LEnsembleSpec(tuple(range(n)), L, z)
    d = conditional_l_to_k(spec)
    weights = enumerate_weights(spec)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    for r in (1, 2, 3):
        for pts in itertools.combinations(z, r):
            want = correlation_from_weights(weights, pts)
            assert dpp_correlation(d, pts) == pytest.approx(want, abs=1e-12)
    for B in [(0,), (2, 6), z]:
        assert gap_probability(d, B) == pytest.approx(
            gap_from_weights(weights, B), abs=1e-12
        )


def symmetric_step(a, b):
    return 0.5 if abs(a - b) == 1 else 0.0


def test_karlin_mcgregor_single_walk():
    # one walk: det is just the t-step probability
    got = karlin_mcgregor_det(symmetric_step, [0], [2], 4)
    assert got == pytest.approx(math.comb(4, 3) / 16)
    assert karlin_mcgregor_det(symmetric_step, [0, 0], [1, 3], 5) == pytest.approx(0.0)


def test_karlin_mcgregor_vs_path_enumeration():
    starts, ends, t = (0, 2), (0, 2), 4
    total = 0.0
    for steps1 in itertools.product((-1, 1), repeat=t):
        for steps2 in itertools.product((-1, 1), repeat=t):
            w1 = np.concatenate(([starts[0]], starts[0] + np.cumsum(steps1)))
            w2 = np.concatenate(([starts[1]], starts[1] + np.cumsum(steps2)))
            if w1[-1] != ends[0] or w2[-1] != ends[1]:
                continue
            if np.all(w1 < w2):
                total += 0.5 ** (2 * t)
    got = karlin_mcgregor_det(symmetric_step, starts, ends, t)
    assert got == pytest.approx(total, abs=1e-14)


def _cycle_step_probs(m):
    def p(a, b):
        return 0.5 if (a - b) % m in (1, m - 1) else 0.0

    return p


def _t_step_matrix(space, p, t):
    P1 = np.array([[p(a, b) for b in space] for a in space])
    return np.linalg.matrix_power(P1, t)


def test_vicious_walk_single():
    space = tuple(range(12))
    t = 3
    Pt = _t_step_matrix(space, _cycle_step_probs(12), t)
    pi = {u: 1.0 for u in space}
    d = vicious_walk_kernel(space, lambda a, b: Pt[a, b], pi, (0,))
    a11 = (Pt @ Pt)[0, 0]
    for u in space:
        want = Pt[0, u] ** 2 / a11
        assert dpp_correlation(d, (u,)) == pytest.approx(want, abs=1e-13)


def test_vicious_walk_pair_on_cycle():
    # two pinned walks on the 12-cycle; mid-time configuration law
    space = tuple(range(12))
    t = 3
    Pt = _t_step_matrix(space, _cycle_step_probs(12), t)
    pi = {u: 1.0 for u in space}
    xs = (0, 4)
    d = vicious_walk_kernel(space, lambda a, b: Pt[a, b], pi, xs)
    norm = np.linalg.det(np.array([[(Pt @ Pt)[a, b] for b in xs] for a in xs]))
    total = 0.0
    for z in itertools.combinations(space, 2):
        fwd = np.linalg.det(np.array([[Pt[a, b] for b in z] for a in xs]))
        back = np.linalg.det(np.array([[Pt[a, b] for b in xs] for a in z]))
        want = fwd * back / norm
        got = dpp_correlation(d, z)
        assert got == pytest.approx(want, abs=1e-12)
        assert dpp_correlation(d, (z[1], z[0])) == pytest.approx(got, abs=1e-13)
        total += want
    assert total == pytest.approx(1.0, abs=1e-12)


def test_vicious_walk_nonuniform_reversible():
    # 3-site path chain with stationary weights (1,2,1)
    space = (0, 1, 2)
    P1 = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    Pt = np.linalg.matrix_power(P1, 2)
    pi = {0: 1.0, 1: 2.0, 2: 1.0}
    d = vicious_walk_kernel(space, lambda a, b: Pt[a, b], pi, (1,))
    p4 = np.linalg.matrix_power(P1, 4)
    for z in space:
        want = Pt[1, z] * Pt[z, 1] / p4[1, 1]
        assert dpp_correlation(d, (z,)) == pytest.approx(want, abs=1e-13)


def test_vicious_walk_rejects_bad_pi():
    space = (0, 1, 2)
    P1 = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    Pt = np.linalg.matrix_power(P1, 2)
    pi = {0: 1.0, 1: 5.0, 2: 0.3}  # not reversible for this chain
    with pytest.raises(ValueError):
        vicious_walk_kernel(space, lambda a, b: Pt[a, b], pi, (0, 2))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 7),
    seed=st.integers(0, 10_000),
    zsize=st.integers(1, 7),
)
def test_def31_identity_property(n, seed, zsize):
    rng = np.random.default_rng(seed)
    L = rng.uniform(-1.0, 1.0, size=(n, n))
    z = tuple(range(min(zsize, n)))
    try:
        spec = LEnsembleSpec(tuple(range(n)), L, z)
    except ValueError:
        assume(False)
    d = conditional_l_to_k(spec)
    weights = enumerate_weights(spec)
    for r in (1, 2, 3):
        for pts in itertools.combinations(z, min(r, len(z))):
            want = correlation_from_weights(weights, pts)
            assert dpp_correlation(d, pts) == pytest.approx(want, abs=1e-12)
