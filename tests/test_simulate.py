"""Simulator checks: law-exactness smoke tests, invariants, height algebra."""

import hashlib
import math

import numpy as np
import pytest

from kpzlab.simulate import (
    HeightField,
    InitialData,
    evolve,
    evolve_events,
    height,
    initial_state,
    inverse_label,
    make_initial,
    particles_needed,
    rescale_height,
    stream_base,
)


# ---------------------------------------------------------------- initial data


def test_step_entries():
    init = make_initial("step")
    assert [init.entry(k) for k in (1, 2, 3)] == [-1, -2, -3]
    assert init.anchor() == 1


def test_periodic_entries():
    init = make_initial("periodic", d=2)
    assert [init.entry(k) for k in (1, 2, 3)] == [0, -2, -4]
    assert init.anchor() == 2
    init3 = make_initial("periodic", d=3)
    assert [init3.entry(k) for k in (1, 2)] == [0, -3]


def test_periodic_needs_d_at_least_2():
    with pytest.raises(ValueError):
        make_initial("periodic", d=1)
    with pytest.raises(ValueError):
        make_initial("periodic")


def test_explicit_stored_as_given():
    init = make_initial("explicit", entries=(5, 2, 0))
    assert init.entries == (5, 2, 0)
    assert [init.entry(k) for k in (1, 2, 3)] == [5, 2, 0]
    assert init.anchor() == 4  # complete family, everyone right of -1


def test_explicit_rejects_non_decreasing():
    with pytest.raises(ValueError):
        make_initial("explicit", entries=(0, 2, 5))
    with pytest.raises(ValueError):
        make_initial("explicit", entries=(3, 3))


def test_explicit_infinities():
    init = make_initial("explicit", entries=(math.inf, math.inf, 4, 1))
    assert init.entry(2) == math.inf
    with pytest.raises(ValueError):
        make_initial("explicit", entries=(3, math.inf, 1))
    with pytest.raises(ValueError):
        initial_state(init)  # not simulatable


def test_unknown_kind():
    with pytest.raises(ValueError):
        make_initial("stationary")


def test_light_cone_count():
    init = make_initial("step")
    n = particles_needed(init, z_lo=-5, duration=3.0)
    # labels 1..6 sit at -1..-6 >= z_lo - 1 = -6, plus 30 light-cone, plus pad
    assert n == 6 + 30 + 8
    state = initial_state(init, z_lo=-5, duration=3.0)
    assert state.positions.size == n
    assert not state.complete


# ------------------------------------------------------------------- evolution


def test_duration_zero_is_identity():
    state = initial_state(make_initial("step"), n_particles=12)
    out = evolve(state, 0.0, seed=7)
    assert np.array_equal(out.positions, state.positions)
    assert out.time == 0.0


def test_negative_duration_rejected():
    state = initial_state(make_initial("step"), n_particles=3)
    with pytest.raises(ValueError):
        evolve(state, -1.0, seed=0)


def test_determinism_same_seed():
    state = initial_state(make_initial("step"), n_particles=40)
    a = evolve(state, 4.0, seed=123)
    b = evolve(state, 4.0, seed=123)
    assert np.array_equal(a.positions, b.positions)
    c = evolve(state, 4.0, seed=124)
    assert not np.array_equal(a.positions, c.positions)


# sha256 over seeds 0..19 of each jump log's and end state's bytes.  Any
# change to the draws or to how they are used fails here, even one that keeps
# TASEP's law.
TRAJECTORY_DIGESTS = {
    "step": "dcd22676e2d6fba003e54076b925b517beb3c9be59b877c7f991be85f7e32d03",
    "periodic": "355114340b1de3e40c09643ed55d58141c05edb38b13213328632214bdca956b",
    "blocked": "88748c3d9b274b875709d03882cc1cc255eb5ceb628e68c380b1cd7a96661d26",
    "continuation": "912b86fb66f67c121cbb0b0f3039ccfb7d4cd828d718cd75c8a471f343fd1f91",
}


def _golden_start(case, seed):
    if case == "step":
        return initial_state(make_initial("step"), n_particles=30), 4.0
    if case == "periodic":
        return initial_state(make_initial("periodic", d=3), n_particles=25), 4.0
    if case == "blocked":
        entries = (5, 4, 2, -1, -2, -3, -7)
        return initial_state(make_initial("explicit", entries=entries)), 3.0
    step = initial_state(make_initial("step"), n_particles=30)
    return evolve(step, 2.0, seed + 500), 2.5


@pytest.mark.parametrize("case", sorted(TRAJECTORY_DIGESTS))
def test_trajectories_are_pinned(case):
    digest = hashlib.sha256()
    for seed in range(20):
        state, duration = _golden_start(case, seed)
        out, events = evolve_events(state, duration, seed)
        assert np.array_equal(evolve(state, duration, seed).positions, out.positions)
        digest.update(events.tobytes())
        digest.update(out.positions.tobytes())
    assert digest.hexdigest() == TRAJECTORY_DIGESTS[case]


def test_exclusion_and_order_preserved():
    state = initial_state(make_initial("step"), n_particles=30)
    out, events = evolve_events(state, 5.0, seed=42)
    assert np.all(np.diff(out.positions) < 0)
    assert out.time == 5.0
    # replay: every jump targets an empty site and advances by exactly 1
    pos = {int(lab): int(x) for lab, x in zip(state.labels, state.positions)}
    occupied = set(pos.values())
    last_t = 0.0
    for t, lab, x in events:
        t, lab, x = float(t), int(lab), int(x)
        assert t >= last_t
        last_t = t
        assert x == pos[lab] + 1
        assert x not in occupied
        occupied.discard(pos[lab])
        occupied.add(x)
        pos[lab] = x
    final = {int(lab): int(x) for lab, x in zip(out.labels, out.positions)}
    assert pos == final


def test_single_particle_mean_jump_count():
    # one free particle jumps Poisson(1)-many times in unit time
    init = make_initial("explicit", entries=(0,))
    state = initial_state(init)
    total = 0
    n_runs = 10_000
    for k in range(n_runs):
        _, events = evolve_events(state, 1.0, seed=900_000 + k)
        total += events.shape[0]
    mean = total / n_runs
    assert abs(mean - 1.0) < 0.035  # 3.5 sigma at this sample size


def test_blocked_particle_never_jumps():
    # two adjacent particles: the follower cannot move before the leader
    init = make_initial("explicit", entries=(1, 0))
    state = initial_state(init)
    for seed in range(30):
        _, events = evolve_events(state, 0.8, seed=seed)
        times_1 = events["time"][events["label"] == 1]
        times_2 = events["time"][events["label"] == 2]
        if times_2.size:
            assert times_1.size and times_2[0] > times_1[0]


# ---------------------------------------------------------------------- height


def test_step_height_is_minus_abs():
    state = initial_state(make_initial("step"), n_particles=20)
    h = height(state, -8, 8)
    assert np.array_equal(h.values, -np.abs(np.arange(-8, 9)))


def test_periodic_height_profile():
    # the sawtooth holds up to z = 2; right of the last particle the profile
    # ramps down, h(z) = 2 - z
    state = initial_state(make_initial("periodic", d=2), n_particles=20)
    h = height(state, -10, 8)
    for z, v in zip(h.z, h.values):
        if z <= 2:
            assert v == (0 if z % 2 == 0 else 1)
        else:
            assert v == 2 - z


def test_height_window_guard():
    state = initial_state(make_initial("step"), n_particles=5)
    # tracked particles end at -5; z-1 below that is undetermined
    with pytest.raises(ValueError):
        height(state, -7, 0)
    h = height(state, -4, 3)
    assert h.values[4] == 0  # z = 0


def test_complete_family_height_everywhere():
    state = initial_state(make_initial("explicit", entries=(2, 0, -1)))
    assert inverse_label(state, -5) == 4
    h = height(state, -6, 4)
    assert np.all(np.abs(np.diff(h.values)) == 1)


def test_height_decreases_under_flow():
    init = make_initial("step")
    state0 = initial_state(init, z_lo=-10, duration=2.0)
    state1 = evolve(state0, 2.0, seed=5)
    h0 = height(state0, -9, 9)
    h1 = height(state1, -9, 9)
    assert h1.time == 2.0
    assert np.all(h1.values <= h0.values)
    assert np.all((h1.values - h0.values) % 2 == 0)


def test_height_field_validates_increments():
    with pytest.raises(ValueError):
        HeightField(0, np.array([0, 2, 1]), 0.0)


# ------------------------------------------------------------------- rescaling


def test_rescaled_step_profile_at_time_zero():
    eps = 0.04
    state = initial_state(make_initial("step"), n_particles=80)
    h = height(state, -60, 60)
    prof = rescale_height(h, eps, 0.0)
    for x in (-1.0, -0.5, 0.0, 0.26, 1.0):
        assert prof(x) == pytest.approx(-2.0 * eps**-0.5 * abs(x), abs=1e-12)


def test_rescaled_flat_profile_sup():
    # sup over the flat part of the window (z <= 2, where the sawtooth lives)
    eps = 0.09
    state = initial_state(make_initial("periodic", d=2), n_particles=80)
    h = height(state, -60, 2)
    prof = rescale_height(h, eps, 0.0)
    xs = np.linspace(prof.x[0], prof.x[-1], 1001)
    vals = prof(xs)
    assert np.max(np.abs(vals)) == pytest.approx(math.sqrt(eps), abs=1e-12)


def test_rescaled_flat_at_eps_one():
    state = initial_state(make_initial("periodic", d=2), n_particles=40)
    h = height(state, -20, 2)
    prof = rescale_height(h, 1.0, 0.0)
    lattice_vals = prof(prof.x)
    assert set(np.round(lattice_vals).astype(int)) == {0, 1}
    assert np.allclose(lattice_vals, np.round(lattice_vals))


def test_rescale_rejects_wrong_time():
    state = initial_state(make_initial("step"), n_particles=10)
    h = height(state, -5, 5)
    with pytest.raises(ValueError):
        rescale_height(h, 0.25, 1.0)  # state time 0 is not 2 eps^{-3/2}


def test_rescale_out_of_window():
    state = initial_state(make_initial("step"), n_particles=10)
    h = height(state, -5, 5)
    prof = rescale_height(h, 0.5, 0.0)
    with pytest.raises(ValueError):
        prof(10.0)
    with pytest.raises(ValueError):
        prof(-10.0)


def test_rescaled_interpolation_is_linear():
    state = initial_state(make_initial("step"), n_particles=20)
    h = height(state, -10, 10)
    prof = rescale_height(h, 0.25, 0.0)
    xa, xb = prof.x[3], prof.x[4]
    mid = 0.5 * (xa + xb)
    assert prof(mid) == pytest.approx(0.5 * (prof(xa) + prof(xb)), rel=1e-12)


# ------------------------------------------------------------------- plumbing


def test_stream_bases_distinct():
    seen = {stream_base(s, l) for s in range(20) for l in range(1, 51)}
    assert len(seen) == 20 * 50
