"""The library's typed errors that no other test reaches: each one by its
type and message, with every warning an error."""

import math
import warnings

import numpy as np
import pytest

from kpzlab.exact import bfps_l_verify, gt_pattern_sum, kt_step_closed
from kpzlab.fredholm import BlockExtendedProblem
from kpzlab.simulate import ParticleState, height, initial_state, make_initial, rescale_height
from kpzlab.special import _poisson_charlier

STEP = make_initial("step")
THREE = initial_state(STEP, n_particles=3)


def zero_kernel(i, j, u, v):
    return 0.0 * (u + v)


ERRORS = {
    "make_initial_empty": (lambda: make_initial("explicit", entries=()), "^explicit data needs entries$"),
    "make_initial_minus_inf": (
        lambda: make_initial("explicit", entries=(0, -math.inf)),
        r"^each entry must be an integer, got -inf; for data with m leading \+inf entries, drop"
        " them and subtract m from every label$",
    ),
    "entry_label_zero": (lambda: STEP.entry(0), "^labels start at 1$"),
    "entry_beyond_explicit": (
        lambda: make_initial("explicit", entries=(0, -2)).entry(3), "^label 3 beyond explicit data$"
    ),
    "state_without_positions": (
        lambda: ParticleState(np.array([], dtype=np.int64), 1, 0.0, 1, True), "^need at least one particle$"
    ),
    "state_increasing": (
        lambda: ParticleState(np.array([-2, 0]), 1, 0.0, 1, True), "^positions must be strictly decreasing$"
    ),
    "initial_state_without_a_count": (
        lambda: initial_state(STEP), r"^need n_particles or \(z_lo, duration\)$"
    ),
    "initial_state_zero_particles": (
        lambda: initial_state(STEP, n_particles=0), "^need at least one particle$"
    ),
    "height_reversed_window": (lambda: height(THREE, 2, 1), "^empty window$"),
    "rescale_height_eps_zero": (
        lambda: rescale_height(height(THREE, -2, 1), 0, 1.0), r"^need 0 < eps <= 1$"
    ),
    "array_sum_unequal_sizes": (
        lambda: gt_pattern_sum((1, 0), (0,), 0.5), "^configurations must have equal size$"
    ),
    "kt_step_closed_label_zero": (lambda: kt_step_closed(0.5, 0, 1, 0, 0), "^labels start at 1$"),
    "bfps_three_particles": (
        lambda: bfps_l_verify(make_initial("explicit", entries=(2, 0, -2)), 0.5, (-20, 12)),
        "^this check is specific to two finite particles$",
    ),
    "block_problem_order_33": (
        lambda: BlockExtendedProblem(zero_kernel, [0.0], order=33),
        r"^order must be one of \(20, 40, 80, 160\)$",
    ),
}


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_typed_error(name):
    call, message = ERRORS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message) as info:
            call()
    assert type(info.value) is ValueError


def test_array_run_hands_out_degree_zero():
    # rows=(0,) yields the start row e^(-ct) 2^exp2 and stops; with a later
    # degree the run goes on to it, with the bits of a run to that degree
    xs = np.array([0.0, 2.0, 3.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,) = _poisson_charlier(5, xs, 1.5, rows=(0,))
        assert row.tolist() == [float(np.exp(-1.5))] * 4
        (scaled,) = _poisson_charlier(5, xs, 1.5, exp2=3, rows=(0,))
        assert scaled.tolist() == [8.0 * float(np.exp(-1.5))] * 4
        first, third = _poisson_charlier(5, xs, 1.5, rows=(0, 3))
        assert first.tolist() == row.tolist() and third.tolist() == _poisson_charlier(3, xs, 1.5).tolist()
