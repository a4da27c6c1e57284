"""The conditional kernel of kpzlab.dpp against exhaustive enumeration
(tests/dpp_oracles.py)."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpp_oracles import (
    correlation_from_weights,
    dpp_correlation,
    enumerate_weights,
    gap_from_weights,
    gap_probability,
    index_of,
    l_over_one_plus_l,
)
from kpzlab.dpp import FiniteDpp, LEnsembleSpec, conditional_l_to_k

RNG = np.random.default_rng(20230817)


def random_lensemble(n, z=None, scale=1.0, rng=RNG):
    L = rng.uniform(-scale, scale, size=(n, n))
    space = tuple(range(n))
    return LEnsembleSpec(space, L, space if z is None else tuple(z))


def test_dpp_correlation_basics():
    # a reference measure mu folds into the kernel as K(x, y) mu(y)
    K = np.array([[0.3, 0.1], [0.1, 0.5]])
    mu = np.array([2.0, 1.0])
    d = FiniteDpp((0, 1), K * mu[None, :])
    assert dpp_correlation(d, (0,)) == pytest.approx(0.3 * 2.0)
    assert dpp_correlation(d, (0, 0)) == 0.0
    got = dpp_correlation(d, (0, 1))
    assert got == pytest.approx((0.3 * 0.5 - 0.1 * 0.1) * 2.0)


def test_two_point_correlation_matches_enumeration():
    spec = random_lensemble(6)
    d = conditional_l_to_k(spec)
    weights = enumerate_weights(spec)
    for pts in [(0, 3), (1, 5), (2, 4)]:
        want = correlation_from_weights(weights, pts)
        assert dpp_correlation(d, pts) == pytest.approx(want, abs=1e-12)


def test_gap_probability_trivial():
    d = FiniteDpp((0, 1, 2), np.zeros((3, 3)))
    assert gap_probability(d, (0, 2)) == pytest.approx(1.0)
    # rank-1 projection onto site 0: the point is almost surely there
    K = np.zeros((3, 3))
    K[0, 0] = 1.0
    d = FiniteDpp((0, 1, 2), K)
    assert gap_probability(d, (0,)) == pytest.approx(0.0)
    assert gap_probability(d, ()) == 1.0


def test_gap_probability_signed_weights():
    spec = random_lensemble(8, scale=0.8)
    d = conditional_l_to_k(spec)
    weights = enumerate_weights(spec)
    for B in [(0,), (1, 4), (2, 3, 7), tuple(range(8))]:
        want = gap_from_weights(weights, B)
        assert gap_probability(d, B) == pytest.approx(want, abs=1e-12)


def test_l_to_k_scalars():
    # with Z the whole space the map is L(1 + L)^(-1)
    spec = LEnsembleSpec((0,), np.array([[1.0]]), (0,))
    assert conditional_l_to_k(spec).kernel[0, 0] == pytest.approx(0.5)
    spec = LEnsembleSpec((0, 1), np.zeros((2, 2)), (0, 1))
    assert np.allclose(conditional_l_to_k(spec).kernel, 0.0)


def test_l_to_k_random_vs_enumeration():
    spec = random_lensemble(5)
    d = conditional_l_to_k(spec)
    weights = enumerate_weights(spec)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    for r in (1, 2, 3):
        for pts in itertools.combinations(range(5), r):
            want = correlation_from_weights(weights, pts)
            assert dpp_correlation(d, pts) == pytest.approx(want, abs=1e-12)


def test_singular_one_z_plus_l_rejected():
    with pytest.raises(ValueError):
        LEnsembleSpec((0,), np.array([[-1.0]]), (0,))


def test_non_finite_l_rejected_by_entry():
    # a NaN reached slogdet ("invalid value" warning, then a bare
    # LinAlgError); +inf was reported as a singular 1_Z + L
    for bad in (math.nan, math.inf, -math.inf):
        L = 0.1 * np.eye(3)
        L[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^L has a non-finite entry {bad} at \('c', 'b'\)$"):
                LEnsembleSpec(("a", "b", "c"), L, ("a", "b"))


def test_empty_space_rejected():
    # np.linalg.cond raised a bare LinAlgError on the 0 x 0 matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="space is empty"):
            LEnsembleSpec((), np.zeros((0, 0)), ())


def test_space_with_a_repeated_point_rejected():
    with pytest.raises(ValueError, match="repeats a point"):
        LEnsembleSpec(((1, 0), (2, 0), (1, 0)), np.eye(3), ((2, 0),))


def test_point_set_with_a_repeated_point_rejected():
    # the index kept the last copy, so the one-point function at 0 read 0.125
    with pytest.raises(ValueError, match="repeats a point"):
        FiniteDpp((0, 1, 0), np.diag([0.5, 0.25, 0.125]))


def test_index_of_reads_positions_and_rejects_missing_points():
    space = ((1, 0), (2, -1), (2, 3))
    spec = LEnsembleSpec(space, np.eye(3), space[1:])
    assert [index_of(spec, list(p)) for p in space] == [0, 1, 2]
    with pytest.raises(ValueError, match="not a point of the space"):
        index_of(spec, (1, 1))


def test_conditional_reduces_to_unconditional():
    # 1 - (1 + L)^(-1) = L(1 + L)^(-1)
    spec = random_lensemble(6)
    b = conditional_l_to_k(spec)
    assert np.max(np.abs(l_over_one_plus_l(spec) - b.kernel)) <= 1e-13


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
