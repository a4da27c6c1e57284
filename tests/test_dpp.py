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
    l_over_one_plus_l,
)
from kpzlab.dpp import conditional_l_to_k

RNG = np.random.default_rng(20230817)


def random_lensemble(n, scale=1.0, rng=RNG):
    """A random L on n rows, unconditioned: the mask holds every row."""
    return rng.uniform(-scale, scale, size=(n, n)), np.ones(n, dtype=bool)


def test_dpp_correlation_basics():
    # a reference measure mu folds into the kernel as K(x, y) mu(y)
    K = np.array([[0.3, 0.1], [0.1, 0.5]])
    mu = np.array([2.0, 1.0])
    d = K * mu[None, :]
    assert dpp_correlation(d, (0,)) == pytest.approx(0.3 * 2.0)
    assert dpp_correlation(d, (0, 0)) == 0.0
    got = dpp_correlation(d, (0, 1))
    assert got == pytest.approx((0.3 * 0.5 - 0.1 * 0.1) * 2.0)


def test_two_point_correlation_matches_enumeration():
    L, z = random_lensemble(6)
    d = conditional_l_to_k(L, z)
    weights = enumerate_weights(L, z)
    for pts in [(0, 3), (1, 5), (2, 4)]:
        want = correlation_from_weights(weights, pts)
        assert dpp_correlation(d, pts) == pytest.approx(want, abs=1e-12)


def test_gap_probability_trivial():
    d = np.zeros((3, 3))
    assert gap_probability(d, (0, 2)) == pytest.approx(1.0)
    # rank-1 projection onto site 0: the point is almost surely there
    d = np.zeros((3, 3))
    d[0, 0] = 1.0
    assert gap_probability(d, (0,)) == pytest.approx(0.0)
    assert gap_probability(d, ()) == 1.0


def test_gap_probability_signed_weights():
    L, z = random_lensemble(8, scale=0.8)
    d = conditional_l_to_k(L, z)
    weights = enumerate_weights(L, z)
    for B in [(0,), (1, 4), (2, 3, 7), tuple(range(8))]:
        want = gap_from_weights(weights, B)
        assert gap_probability(d, B) == pytest.approx(want, abs=1e-12)


def test_l_to_k_scalars():
    # with Z the whole space the map is L(1 + L)^(-1)
    assert conditional_l_to_k(np.array([[1.0]]), np.array([True]))[0, 0] == pytest.approx(0.5)
    assert np.allclose(conditional_l_to_k(np.zeros((2, 2)), np.ones(2, dtype=bool)), 0.0)


def test_l_to_k_random_vs_enumeration():
    L, z = random_lensemble(5)
    d = conditional_l_to_k(L, z)
    weights = enumerate_weights(L, z)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    for r in (1, 2, 3):
        for pts in itertools.combinations(range(5), r):
            want = correlation_from_weights(weights, pts)
            assert dpp_correlation(d, pts) == pytest.approx(want, abs=1e-12)


def test_singular_one_z_plus_l_rejected():
    with pytest.raises(ValueError, match="singular"):
        conditional_l_to_k(np.array([[-1.0]]), np.array([True]))


def test_non_finite_l_rejected_by_entry():
    # a NaN reached slogdet ("invalid value" warning, then a bare
    # LinAlgError); +inf was reported as a singular 1_Z + L
    for bad in (math.nan, math.inf, -math.inf):
        L = 0.1 * np.eye(3)
        L[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^L has a non-finite entry {bad} at \(2, 1\)$"):
                conditional_l_to_k(L, np.array([True, True, False]))


def test_empty_space_rejected():
    # np.linalg.cond raised a bare LinAlgError on the 0 x 0 matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
            conditional_l_to_k(np.zeros((0, 0)), np.zeros(0, dtype=bool))


@pytest.mark.parametrize(
    "L, z, message",
    [
        (np.eye(3)[:2], np.ones(2, dtype=bool), r"square matrix, got shape \(2, 3\)"),
        (np.ones(3), np.ones(3, dtype=bool), r"square matrix, got shape \(3,\)"),
        (np.eye(3), np.ones(2, dtype=bool), r"one entry per row of L, got bool \(2,\)"),
        # row indices are not a mask: [1, 2] read as a mask would be all True
        (np.eye(2), np.array([1, 2]), r"boolean mask, one entry per row of L, got int"),
    ],
    ids=["not-square", "not-a-matrix", "short-mask", "row-indices"],
)
def test_l_must_be_square_with_one_mask_entry_per_row(L, z, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            conditional_l_to_k(L, z)


def test_conditional_reduces_to_unconditional():
    # 1 - (1 + L)^(-1) = L(1 + L)^(-1)
    L, z = random_lensemble(6)
    assert np.max(np.abs(l_over_one_plus_l(L) - conditional_l_to_k(L, z))) <= 1e-13


def test_conditional_weights_sum_to_one():
    rng = np.random.default_rng(7)
    n, z = 8, np.arange(8) < 6
    for _ in range(4):
        L = rng.uniform(-1, 1, size=(n, n))
        try:
            conditional_l_to_k(L, z)
        except ValueError:
            continue
        total = sum(enumerate_weights(L, z).values())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_conditional_correlations_vs_enumeration():
    rng = np.random.default_rng(11)
    # Z is the rows 0, 2, 4 and 6 of L, so the points are the kernel's rows 0-3
    n, z = 7, np.arange(7) % 2 == 0
    L = rng.uniform(-1, 1, size=(n, n))
    d = conditional_l_to_k(L, z)
    weights = enumerate_weights(L, z)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    for r in (1, 2, 3):
        for pts in itertools.combinations(range(4), r):
            want = correlation_from_weights(weights, pts)
            assert dpp_correlation(d, pts) == pytest.approx(want, abs=1e-12)
    for B in [(0,), (1, 3), (0, 1, 2, 3)]:
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
    z = np.arange(n) < zsize
    try:
        d = conditional_l_to_k(L, z)
    except ValueError:
        assume(False)
    weights = enumerate_weights(L, z)
    for r in (1, 2, 3):
        for pts in itertools.combinations(range(len(d)), min(r, len(d))):
            want = correlation_from_weights(weights, pts)
            assert dpp_correlation(d, pts) == pytest.approx(want, abs=1e-12)
