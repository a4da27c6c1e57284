"""Simulator checks: law-exactness smoke tests, invariants, height algebra."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import pdtrc

from kpzlab.exact import multipoint_probability
from kpzlab.simulate import (
    TRUNCATION_RISK,
    HeightField,
    InitialData,
    ParticleState,
    evolve,
    evolve_events,
    height,
    height_events,
    initial_state,
    inverse_label,
    jump_bound,
    make_initial,
    particles_needed,
    rescale_height,
)
from kpzlab.simulate import _keys, _label_range_mix, _mix_labels


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
    # data with m leading +inf entries are the rest relabeled, and the
    # message says how; -inf and NaN are no positions either
    fix = "; for data with m leading +inf entries, drop them and subtract m from every label"
    for entries in ((math.inf, math.inf, 4, 1), (3, math.inf, 1), (0, -math.inf), (np.float64(np.nan), -2)):
        bad = next(e for e in entries if not math.isfinite(e))
        with warnings.catch_warnings(), pytest.raises(ValueError) as info:
            warnings.simplefilter("error")
            make_initial("explicit", entries=entries)
        assert type(info.value) is ValueError
        assert str(info.value) == f"each entry must be an integer, got {bad!r}{fix}"


def test_unknown_kind():
    with pytest.raises(ValueError):
        make_initial("stationary")


def test_periodic_gap_must_be_integral():
    # a gap of 2.5 gave entries 0, -2.5, ..., simulated at 0, -2, -5
    with pytest.raises(ValueError, match="gap d must be an integer, got 2.5"):
        make_initial("periodic", d=2.5)


def test_explicit_entries_must_be_integral():
    # the simulator placed an entry of 1.5 at 1
    with pytest.raises(ValueError, match="entry must be an integer, got 1.5"):
        make_initial("explicit", entries=(1.5, -2))


def test_explicit_entries_must_not_be_nan():
    # NaN passed every order check, and a one-point on it read 1.0
    with pytest.raises(ValueError, match="entry must be an integer, got nan"):
        make_initial("explicit", entries=(math.nan, -2))


def test_integral_floats_are_accepted_as_data():
    # and numpy ints: the gap, the entries and every entry(k) are kept as
    # Python ints, whatever integral type they were given as
    data = [
        make_initial("step"),
        *(make_initial("periodic", d=d) for d in (2, 2.0, np.int64(3))),
        make_initial("explicit", entries=(5.0, np.float64(2.0), -1.0)),
        make_initial("explicit", entries=np.array([5, 2, -1], dtype=np.int64)),
        make_initial("explicit", entries=(np.int32(5), np.uint8(2), -1)),
    ]
    for init in data:
        assert all(type(init.entry(k)) is int for k in (1, 2, 3))
        if init.kind == "periodic":
            assert type(init.d) is int
        if init.kind == "explicit":
            assert type(init.entries) is tuple and init.entries == (5, 2, -1)
            assert all(type(e) is int for e in init.entries)
    assert [init.entry(3) for init in data] == [-3, -4, -4, -6, -1, -1, -1]


def test_light_cone_count():
    init = make_initial("step")
    n = particles_needed(init, z_lo=-5, duration=3.0)
    # the first label at or left of z_lo - 1 - jump_bound(3) = -6 - 28
    assert jump_bound(3.0) == 28
    assert n == 6 + 28
    state = initial_state(init, z_lo=-5, duration=3.0)
    assert state.positions.size == n
    assert not state.complete


@pytest.mark.parametrize("t", [0.0, 0.5, 8.0, 179.0, 5657.0])
def test_jump_bound_is_the_least_tail_bound(t):
    m = jump_bound(t)
    assert m == {0.0: 0, 0.5: 15, 8.0: 43, 179.0: 308, 5657.0: 6329}[t]
    assert pdtrc(m, t) <= TRUNCATION_RISK
    if m > 0:
        assert pdtrc(m - 1, t) > TRUNCATION_RISK


def test_jump_bound_rejects_bad_durations():
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            jump_bound(t)
    # 1e300 asked numpy for 10 sqrt(1e300) floats ("Maximum allowed size
    # exceeded"); past 2^52 the span's sites are not exact doubles
    for t in (1e300, 1e30):
        with warnings.catch_warnings(), pytest.raises(ValueError, match=r"at most 2\^52 = 4503599627370496"):
            warnings.simplefilter("error")
            jump_bound(t)


@pytest.mark.parametrize("t", [0.3, 2.0**20 + 0.5, 1e12, 2.0**52])
def test_jump_bound_bisects_to_the_least_tail_bound(t):
    m = jump_bound(t)
    assert pdtrc(m, t) <= TRUNCATION_RISK < pdtrc(m - 1, t)


def test_initial_state_rejects_a_fractional_count():
    # n_particles = 2.5 built three particles
    for bad in (2.5, math.nan):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="n_particles must be an integer"):
            warnings.simplefilter("error")
            initial_state(make_initial("step"), n_particles=bad)
    assert initial_state(make_initial("periodic", d=2), n_particles=3.0).positions.tolist() == [0, -2, -4]


def test_light_cone_rejects_a_fractional_or_nan_z_lo():
    # z_lo = nan tracked 1 particle of periodic data at duration 8, and
    # z_lo = 1.5 tracked 23
    init = make_initial("periodic", d=2)
    for bad in (1.5, math.nan):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="z_lo must be an integer"):
            warnings.simplefilter("error")
            particles_needed(init, bad, 8.0)
        with warnings.catch_warnings(), pytest.raises(ValueError, match="z_lo must be an integer"):
            warnings.simplefilter("error")
            initial_state(init, z_lo=bad, duration=8.0)
    assert particles_needed(init, -20.0, 8.0) == particles_needed(init, -20, 8.0)


def _first_label_below(init, edge):
    k = 1
    while init.entry(k) > edge:
        k += 1
    return k


def test_light_cone_closed_form_matches_the_entries():
    data = [make_initial("step"), make_initial("periodic", d=2), make_initial("periodic", d=3)]
    for init in data:
        for z_lo in (-40, -21, -20, -5, 0, 3, 40):
            for t in (0.0, 0.5, 3.0, 8.0):
                edge = z_lo - 1 - jump_bound(t)
                assert particles_needed(init, z_lo, t) == _first_label_below(init, edge)
    explicit = make_initial("explicit", entries=(5, 2, 0, -40, -90))
    assert particles_needed(explicit, 0, 3.0) == 4
    assert particles_needed(explicit, -60, 3.0) == 5


def test_inverse_label_is_the_first_label_at_or_below():
    # one evaluator of X_0^(-1) for every kind; an integral float gap gives
    # int labels, as the integer gap does
    data = [make_initial("step"), make_initial("periodic", d=2), make_initial("periodic", d=3),
            make_initial("periodic", d=2.0), make_initial("explicit", entries=(5, 2.0, 0, -40))]
    for init in data:
        for z in range(-45, 8):
            label = init.inverse_label(z)
            assert type(label) is int
            if init.kind == "explicit" and z < -40:
                assert label == 5  # past the last particle
            else:
                assert label == _first_label_below(init, z), (init, z)
        assert init.anchor() == init.inverse_label(-1)


def _pad_count(init, z_lo, duration):
    """The tracked count of the former rule: every particle at or right of
    z_lo - 1, plus 10 per unit time, plus 8."""
    in_window = _first_label_below(init, z_lo - 2) - 1
    return in_window + math.ceil(10 * duration) + 8


@pytest.mark.parametrize(
    "kind, d, z_lo, z_hi, duration",
    [("step", None, -5, 5, 3.0), ("periodic", 2, -20, 20, 8.0), ("periodic", 3, -10, 10, 5.0)],
)
def test_light_cone_runs_are_bit_equal_to_padded_runs(kind, d, z_lo, z_hi, duration):
    init = make_initial(kind, d=d)
    cone = initial_state(init, z_lo=z_lo, duration=duration)
    padded = initial_state(init, n_particles=_pad_count(init, z_lo, duration))
    n = cone.positions.size
    assert n < padded.positions.size
    for seed in range(50):
        out, log = evolve_events(cone, duration, seed)
        ref, ref_log = evolve_events(padded, duration, seed)
        assert out.positions.tobytes() == ref.positions[:n].tobytes()
        assert height(out, z_lo, z_hi).values.tobytes() == height(ref, z_lo, z_hi).values.tobytes()
        assert log.tobytes() == ref_log[ref_log["label"] <= n].tobytes()


def test_evolving_past_the_light_cone_names_the_fix():
    init = make_initial("step")
    state = initial_state(init, z_lo=-5, duration=1.0)
    last = state.positions.size
    assert last == 6 + jump_bound(1.0)
    height(evolve(state, 1.0, seed=3), -5, 5)
    with pytest.raises(ValueError, match=rf"site -6 .* label {last} .*initial_state.*n_particles"):
        height(evolve(state, 200.0, seed=3), -5, 5)


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


@pytest.mark.parametrize("duration", [math.inf, math.nan])
def test_duration_must_be_finite(duration):
    # inf raised a bare OverflowError from math.ceil, NaN a conversion error
    state = initial_state(make_initial("step"), n_particles=3)
    for run in (evolve, evolve_events):
        with pytest.raises(ValueError, match="duration must be finite and >= 0"):
            run(state, duration, 1)


def test_seed_must_be_an_integer():
    # a seed of 1.5 ran as seed 1
    state = initial_state(make_initial("step"), n_particles=3)
    for run in (evolve, evolve_events):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            run(state, 1.0, 1.5)
    assert np.array_equal(evolve(state, 1.0, 1.0).positions, evolve(state, 1.0, 1).positions)


@pytest.mark.parametrize("time", [-1.0, math.inf, math.nan])
def test_state_time_must_be_finite_and_nonnegative(time):
    # a NaN or infinite time was accepted, and the first particle's draw row
    # would then have doubled without bound in evolve
    with warnings.catch_warnings(), pytest.raises(ValueError, match="time must be finite and >= 0"):
        warnings.simplefilter("error")
        ParticleState(np.array([0, -2]), 1, time, 2, complete=False)


def test_run_ending_past_2_52_raises_before_any_draw(monkeypatch):
    # at time 1e20 every draw was lost to rounding (t + w == t), so the first
    # particle's draw row doubled until memory ran out
    from kpzlab import simulate

    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(simulate, "_keys", no_run)
    state = ParticleState(np.array([0]), 1, 1e20, 1, complete=True)
    late = ParticleState(np.array([0]), 1, 2.0**52 - 8, 1, complete=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (evolve, evolve_events):
            for start, duration in ((state, 1.0), (state, 0.0), (late, 9.0)):
                msg = r"2\^52 .* " + re.escape(f"got time {start.time!r} + duration {duration!r}")
                with pytest.raises(ValueError, match=msg):
                    run(start, duration, 1)
    monkeypatch.undo()
    assert evolve(late, 8.0, 1).time == 2.0**52  # ending at 2^52 is allowed


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


# A scalar copy of the recursion, one splitmix64 call in Python ints per
# draw, as the simulator ran before its draws came from a table.  It shares
# no code with kpzlab.simulate.
_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def _mix_ref(z):
    z = (z + _GOLD) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _stream_ref(seed, label):
    s = _mix_ref(int(seed) & _MASK)
    return _mix_ref(s ^ _mix_ref((label * _GOLD + 0x7F4A7C15) & _MASK))


def _last_passage_ref(state, duration, seed):
    """(end positions, jump times per particle, number of draws)."""
    t_end = state.time + duration
    jumps = []
    draws = 0
    lead, ahead = None, None
    for i, x in enumerate(state.positions.tolist()):
        key = _stream_ref(seed, state.first_label + i)
        free = 0 if lead is None else ahead - x - 1
        own = []
        t = state.time
        while True:
            m = len(own) - free
            if lead is not None and m >= 0:
                if m >= len(lead):
                    break
                t = max(t, lead[m])
            u = (_mix_ref(key) >> 11) * 2.0**-53
            key += _GOLD
            draws += 1
            t = t - math.log(1.0 - u)
            if t > t_end:
                break
            own.append(t)
        jumps.append(own)
        lead, ahead = own, x
    return state.positions + [len(own) for own in jumps], jumps, draws


def _reference_cases():
    lone = initial_state(make_initial("explicit", entries=(0,)))
    for seed in range(200):
        yield "lone", lone, 60.0, seed
    blocked = initial_state(make_initial("explicit", entries=(5, 4, 2, -1, -2, -3, -7)))
    for seed in range(20):
        yield "blocked", blocked, 3.0, seed
    step = initial_state(make_initial("step"), n_particles=30)
    for seed in range(10):
        mid = evolve(step, 1.5, seed + 300)
        tail = ParticleState(mid.positions[6:], 7, mid.time, mid.anchor0, complete=False)
        yield "continuation", tail, 2.0, seed
    for seed in (2**63, 2**63 + 1, 2**64 - 1, 2**64 + 5, -1, -(2**63)):
        yield "large seed", step, 4.0, seed
    # label 2 jumps 9 times by t = 4 right behind label 1, so its row runs
    # past the table's first block while the leader term is in force
    yield "follower", step, 4.0, 828
    # label 2 starts 59 free sites behind label 1 and jumps 55 times by
    # t = 40, so its row runs past the first block before the leader's term
    # applies
    yield "distant", initial_state(make_initial("explicit", entries=(0, -60))), 40.0, 11


def test_last_passage_matches_scalar_reference():
    # bit for bit, in jump times and end positions; np.log in place of
    # math.log changes about 0.35 % of draws, so over 10^4 draws it fails
    total = 0
    longest = 0
    follower = distant = 0
    for case, state, duration, seed in _reference_cases():
        want_pos, want_jumps, draws = _last_passage_ref(state, duration, seed)
        total += draws
        longest = max(longest, max(len(own) for own in want_jumps))
        if case == "follower":
            follower = len(want_jumps[1])
        if case == "distant":
            distant = len(want_jumps[1])
        out, events = evolve_events(state, duration, seed)
        assert np.array_equal(out.positions, want_pos), (case, seed)
        assert out.time == state.time + duration
        for i, own in enumerate(want_jumps):
            got = events["time"][events["label"] == state.first_label + i]
            assert got.tobytes() == np.array(own, dtype=np.float64).tobytes(), (case, seed, i)
    # some row outgrew the first block of the table, 1 + ceil(t + sqrt(t))
    # draws wide: the lone particle's at t = 60, a follower's at t = 4, and
    # at t = 40 a follower's before its 59 free sites ran out
    assert longest >= 1 + math.ceil(60 + math.sqrt(60))
    assert follower > 1 + math.ceil(4 + math.sqrt(4))
    assert 1 + math.ceil(40 + math.sqrt(40)) < distant < 59
    assert total >= 10_000


def _stream_keys(seed, labels):
    """The simulator's stream key of each label, as Python ints."""
    return _keys(seed, _mix_labels(np.asarray(labels).reshape(-1))).tolist()


def test_stream_base_over_labels():
    labels = np.arange(1, 60)
    for seed in (0, 17, 2**63 + 3, 2**64 - 1, -5):
        keys = _keys(seed, _mix_labels(labels))
        assert keys.dtype == np.uint64
        want = [_stream_ref(seed, int(lab)) for lab in labels]
        assert keys.tolist() == want
        assert all(_stream_keys(seed, int(lab)) == [w] for lab, w in zip(labels, want))
    assert _stream_keys(-1, 4) == _stream_keys(2**64 - 1, 4)


def test_label_range_keys_match_the_reference():
    # the per-range memo of the seed-free label mix, past label 1 too
    for first, count in ((1, 4), (2, 5), (7, 24), (1000, 3)):
        for seed in (0, 17, 2**64 - 1):
            keys = _keys(seed, _label_range_mix(first, count))
            assert keys.tolist() == [_stream_ref(seed, lab) for lab in range(first, first + count)]
            assert keys.tolist() == _stream_keys(seed, np.arange(first, first + count))


def test_label_range_mix_is_read_only():
    mixed = _label_range_mix(3, 6)
    with pytest.raises(ValueError):
        mixed[0] = 0
    assert _label_range_mix(3, 6) is mixed


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1, -1])
def test_large_seeds_raise_no_warning(seed):
    state = initial_state(make_initial("step"), n_particles=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve(state, 2.0, seed)
        evolve_events(state, 2.0, seed)
        _stream_keys(seed, 3)


def _simulated_starts():
    """Start states that initial_state builds, a later one that evolve
    builds, and the duration to run each for."""
    step = initial_state(make_initial("step"), n_particles=30)
    yield step, 5.0
    yield initial_state(make_initial("periodic", d=2), z_lo=-10, duration=4.0), 4.0
    # an integral float gap still builds int64 positions
    yield initial_state(make_initial("periodic", d=3.0), n_particles=20), 6.0
    yield initial_state(make_initial("explicit", entries=(6, 3, 2.0, 0, -4, -5, -9))), 3.0
    yield evolve(step, 1.5, 7), 2.5


def _assert_simulated(state, time):
    # the simulator's states skip ParticleState's check, so hold them to it
    assert state.positions.dtype == np.int64 and np.all(np.diff(state.positions) < 0)
    assert type(state.time) is float and state.time == time
    assert type(state.first_label) is int and state.first_label >= 1


def test_exclusion_and_order_preserved():
    for state, duration in _simulated_starts():
        _assert_simulated(state, state.time)
        for seed in range(20):
            out, events = evolve_events(state, duration, seed)
            _assert_simulated(out, state.time + duration)
            _assert_simulated(evolve(state, duration, seed), state.time + duration)
            # replay: every jump targets an empty site and advances by exactly 1
            pos = {int(lab): int(x) for lab, x in zip(state.labels, state.positions)}
            occupied = set(pos.values())
            last_t = state.time
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


def test_half_flat_frequency_at_eps_005_matches_exact():
    # h^eps(1, 0) <= -1 for half-flat data at eps = 0.05, t = 2 eps^(-3/2),
    # as the particle event height_events gives for it: X_t(48) > -1
    eps = 0.05
    t = 2.0 * eps**-1.5
    init = make_initial("periodic", d=2)
    ((event, _, _),) = height_events(init, eps, [(0.0, -1.0)])
    n, a = event
    exact = multipoint_probability(t, init, [event])
    assert exact == pytest.approx(0.50708, abs=1e-5)
    seeds = np.random.SeedSequence([7]).generate_state(400, dtype=np.uint64).tolist()
    start = initial_state(init, n_particles=n)
    finals = [evolve(start, t, s).positions for s in seeds]
    freq = sum(pos[n - 1] > a for pos in finals) / len(seeds)
    assert abs(freq - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / len(seeds))
    # the light cone of the window [-180, 180] keeps the same trajectories,
    # and the forward map rescale_height reads the same event off the height
    cone = initial_state(init, z_lo=-180, duration=t)
    assert cone.positions.size == 246
    for s, pos in zip(seeds[:6], finals):
        out = evolve(cone, t, s)
        assert out.positions[:n].tobytes() == pos.tobytes()
        h = rescale_height(height(out, -180, 180), eps, 1.0)
        assert (h(0.0) <= -1.0) == (pos[n - 1] > a)


def test_height_events_sorts_by_label_and_refuses():
    step = make_initial("step")
    # x = 1/2 lies right of x = -1/2, so its particle has the smaller label
    got = height_events(step, 0.05, [(-0.5, -0.5), (0.5, -0.5)])
    assert [(h.event, h.x) for h in got] == [((36, 19), 0.5), ((56, -21), -0.5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (0.0, -0.1, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="0 < eps <= 1"):
                height_events(step, eps, [(0.0, -1.0)])
        # a level above the whole initial profile: every label past 1 is
        # below it, so the event holds for sure
        with pytest.raises(ValueError, match="certain"):
            height_events(step, 0.05, [(0.0, 1e6)])
        # two levels a lattice step apart at one site fall on one label
        with pytest.raises(ValueError, match="both fall on label 48"):
            height_events(make_initial("periodic", d=2), 0.05, [(0.0, -1.0), (0.0, -0.9)])
        for point in ((math.nan, 0.0), (0.0, math.inf), (0.0, -math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                height_events(step, 0.05, [point])


def test_height_events_run_numpy_floats_as_python_floats():
    # a float16 eps ran the map in half precision: at eps = 1/4 the point
    # (-2, -2.01) fell on the event (15, -17) with r_mid -1.5, not on
    # (16, -17) with -2.5, and a float32 eps returned x and r_mid as
    # np.float32 scalars
    flat = make_initial("periodic", d=2)

    def bits(eps, x, r):
        return [
            (h.event, type(h.x), h.x.hex(), type(h.r_mid), h.r_mid.hex())
            for h in height_events(flat, eps, [(x, r)])
        ]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (2.0**-2, 2.0**-6):
            for x in (0.0, -2.0):
                for r in np.linspace(-3.0, -1.0, 201).astype(np.float32):
                    want = bits(eps, float(np.float32(x)), float(r))
                    for dtype in (np.float16, np.float32):
                        assert bits(dtype(eps), np.float32(x), r) == want, (eps, x, r, dtype)
        assert bits(np.float16(0.25), -2.0, -2.01) == bits(0.25, -2.0, -2.01)


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
    assert inverse_label(state, np.array([], dtype=np.int64)).size == 0


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


def _height_cases():
    step = initial_state(make_initial("step"), n_particles=40)
    half = initial_state(make_initial("periodic", d=2), n_particles=30)
    flat = initial_state(make_initial("periodic", d=3), n_particles=30)
    full = initial_state(make_initial("explicit", entries=(6, 3, 2, 0, -4, -5, -9)))
    for seed in range(20):
        for start in (step, half, flat, full):
            yield evolve(start, 0.5 + 0.7 * seed, seed)
        mid = evolve(step, 1.0, seed)
        yield ParticleState(mid.positions[3:], 4, mid.time, mid.anchor0, complete=False)


def test_height_matches_per_site_inverse_label():
    for state in _height_cases():
        pos = state.positions
        lo = pos[-1] - 6 if state.complete else pos[-1] + 1
        h = height(state, lo, pos[0] + 6)
        # height's fields skip HeightField's check, so hold them to it
        assert h.values.dtype == np.int64 and np.all(np.abs(np.diff(h.values)) == 1)
        assert type(h.time) is float and h.time == state.time
        want = [
            -2 * (inverse_label(state, z - 1) - state.anchor0) - z for z in range(lo, pos[0] + 7)
        ]
        assert h.values.tolist() == want
        # X^{-1}(z) is one more than the number of particles right of z
        count = [state.first_label + int(np.sum(pos > z - 1)) for z in range(lo, pos[0] + 7)]
        assert [inverse_label(state, z - 1) for z in range(lo, pos[0] + 7)] == count
        if not state.complete:
            with pytest.raises(ValueError):
                height(state, lo - 1, pos[0])


def test_height_rejects_fractional_or_nan_window_ends():
    # -20.5 gave a field anchored at -20.5 with integer heights, 20.5 was
    # cut to 20, and NaN raised numpy's "arange: cannot compute length"
    state = initial_state(make_initial("periodic", d=2), z_lo=-20, duration=8.0)
    for lo, hi, name in ((-20.5, 20, "z_lo"), (-20, 20.5, "z_hi"), (math.nan, 20, "z_lo"), (-20, math.nan, "z_hi")):
        with warnings.catch_warnings(), pytest.raises(ValueError, match=f"{name} must be an integer"):
            warnings.simplefilter("error")
            height(state, lo, hi)
    assert height(state, -20.0, 20.0).values.tolist() == height(state, -20, 20).values.tolist()


def test_particle_state_refuses_what_the_package_refuses():
    # positions [3.7, 1.2] were cut to [3, 1]; a first label of 0 or -5
    # wrapped the stream keys, and one of 1.5 gave labels [1.5, 2.5]
    bad = (
        (([3.7, 1.2], 1, 0.0, 1), "each position must be an integer, got 3.7"),
        (([3, math.nan], 1, 0.0, 1), "each position must be an integer, got nan"),
        (([3, 1], 0, 0.0, 1), "first_label must be an integer >= 1, got 0"),
        (([3, 1], -5, 0.0, 1), "first_label must be an integer >= 1, got -5"),
        (([3, 1], 1.5, 0.0, 1), "first_label must be an integer, got 1.5"),
        (([3, 1], 1, 0.0, 2.5), "anchor0 must be an integer, got 2.5"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (positions, first, time, anchor), msg in bad:
            with pytest.raises(ValueError, match=re.escape(msg)):
                ParticleState(np.array(positions), first, time, anchor, False)
        # integral floats are kept as int64 positions and Python ints
        state = ParticleState(np.array([3.0, 1.0]), 2.0, np.float32(0.5), 1.0, False)
    assert state.positions.dtype == np.int64 and state.positions.tolist() == [3, 1]
    assert (type(state.first_label), type(state.anchor0), type(state.time)) == (int, int, float)


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
    # NaN passed the window check, and np.interp returned it
    for x in (10.0, -10.0, math.inf, -math.inf, math.nan, [0.0, math.nan]):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="simulated window"):
            warnings.simplefilter("error")
            prof(x)


def test_rescaled_interpolation_is_linear():
    state = initial_state(make_initial("step"), n_particles=20)
    h = height(state, -10, 10)
    prof = rescale_height(h, 0.25, 0.0)
    xa, xb = prof.x[3], prof.x[4]
    mid = 0.5 * (xa + xb)
    assert prof(mid) == pytest.approx(0.5 * (prof(xa) + prof(xb)), rel=1e-12)


# ------------------------------------------------------------------- plumbing


def test_stream_bases_distinct():
    seen = {key for s in range(20) for key in _stream_keys(s, np.arange(1, 51))}
    assert len(seen) == 20 * 50
