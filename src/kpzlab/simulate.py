"""Continuous-time TASEP: last-passage simulation, heights, 1:2:3 rescaling.

Particles jump right at rate 1 when the target site is free, labels increase
to the left.  A run is last-passage percolation over exponential draws (Rost
1981; Johansson, math/9903134): the k-th jump of a particle comes one draw
after the later of its own (k-1)-th jump and the jump of the particle ahead
that empties its target site.  Exponential clocks are memoryless, so starting
each clock when the site frees gives TASEP's law.  Randomness is counter-based
and keyed by (seed, particle label, jump number), so a trajectory is
reproducible no matter how runs are scheduled.

The same recursion bounds what a run must track.  Particle n's trajectory
depends only on its own draws and on particle n - 1's trajectory, so the
particles behind the last tracked label never influence the tracked ones:
dropping them changes no tracked jump time, and outputs are bit-identical
for every truncation.  What a truncation can lose is the height at a site
the tracked particles no longer reach.  The last tracked particle jumps at
most as often as partial sums of its own unit-mean draws stay within the
duration, a Poisson(duration) count, so starting it `jump_bound(duration)`
sites left of the window keeps it out except with probability at most
2^-60; if it does enter, `inverse_label` raises rather than guess.

The draws come from a table: one numpy pass mixes every tracked particle's
counter-based uniforms, (splitmix64(key + k·GOLD) >> 11)·2^-53 for its first
1 + ceil(duration + sqrt(duration)) jump numbers k, and a row that runs out
is doubled by the same routine.  An unobstructed particle takes
1 + Poisson(duration) draws, so the width is their mean plus one standard
deviation: most rows fit, and the table is not mixed and converted far
beyond what a run reads.  The seed-free half of a key, mix(label·GOLD +
salt), is memoised per tracked label range.  Since the draws are
counter-based, neither choice changes a trajectory.  The recursion over the
table stays in Python, and so does the logarithm: it is `math.log`, not
`np.log`, whose vectorised kernels differ from libm in the last bit on about
0.35 % of draws, so that trajectories would change with numpy's build and
the host's instruction set.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import pdtrc

from .special import _integer

# The last-passage recursion is the one simulator path and needs no compiler;
# the flag stays because the benchmark records it with its results.
HAVE_NUMBA = False

_MASK = 0xFFFFFFFFFFFFFFFF
# uint64 constants as 0-d arrays, which ufuncs take without converting a
# numpy scalar on every call
_GOLD, _MIX1, _MIX2, _LABEL_SALT, _S11, _S27, _S30, _S31 = (
    np.array(v, dtype=np.uint64)
    for v in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0x7F4A7C15, 11, 27, 30, 31)
)
_TWO_NEG53 = 2.0**-53

TRUNCATION_RISK = 2.0**-60  # per-run chance that the light cone is too short


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array.  Array arithmetic on uint64
    wraps mod 2^64 without a warning; numpy scalars would warn, so callers
    pass arrays, of one element if need be."""
    z = z + _GOLD
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def _keys(seed: int, label_mix: np.ndarray) -> np.ndarray:
    """Stream keys mix(mix(seed) ^ label_mix) for labels already mixed."""
    seed = _integer(seed, "seed")
    return _mix(_mix(np.array([seed & _MASK], dtype=np.uint64)) ^ label_mix)


def _mix_labels(labels: np.ndarray) -> np.ndarray:
    """mix(label·GOLD + SALT), the seed-free half of each stream key."""
    return _mix(labels.astype(np.uint64) * _GOLD + _LABEL_SALT)


@functools.lru_cache(maxsize=64)
def _label_range_mix(first: int, count: int) -> np.ndarray:
    """`_mix_labels` over labels first .. first + count - 1, read-only: every
    run over the same tracked range shares it, whatever its seed."""
    mixed = _mix_labels(np.arange(first, first + count))
    mixed.flags.writeable = False
    return mixed


def stream_base(seed: int, label: int | np.ndarray) -> int | np.ndarray:
    """Per-particle stream key; mixing keeps streams decorrelated.

    `label` is one label, for which the key is a Python int, or an array of
    labels, for which the keys come back as a uint64 array.
    """
    labels = np.asarray(label)
    keys = _keys(seed, _mix_labels(labels.reshape(-1)))
    return int(keys[0]) if labels.ndim == 0 else keys.reshape(labels.shape)


def _uniforms(keys: np.ndarray, start: int, width: int) -> np.ndarray:
    """Draw table u[i, c] = (mix(keys[i] + (start + c)·GOLD) >> 11)·2^-53
    for c < width; the uint64-to-float conversion is exact."""
    steps = np.arange(start, start + width, dtype=np.uint64) * _GOLD
    return (_mix(keys[:, None] + steps[None, :]) >> _S11) * _TWO_NEG53


@dataclass(frozen=True)
class InitialData:
    """Right-finite initial configuration X_0(1) > X_0(2) > ...

    `kind` is one of step/periodic/explicit.  Step is X_0(k) = -k; periodic
    with gap d >= 2 is X_0(k) = -d(k-1); explicit stores the entries, which
    may include +inf leading entries (those are meaningful to the exact
    solvers but not simulatable).  The gap and every finite entry must be
    integral; an integral float is accepted and kept as given.
    """

    kind: str
    d: int | None = None
    entries: tuple | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("step", "periodic", "explicit"):
            raise ValueError(f"unknown initial data kind: {self.kind!r}")
        if self.kind == "periodic":
            if self.d is None or _integer(self.d, "gap d") < 2:
                raise ValueError("periodic data needs an integer gap d >= 2")
        if self.kind == "explicit":
            if not self.entries:
                raise ValueError("explicit data needs entries")
            if any(e == -math.inf for e in self.entries):
                raise ValueError("-inf entries not allowed")
            seen_finite = False
            for e in self.entries:
                if math.isinf(e):
                    if seen_finite:
                        raise ValueError("+inf entries must lead")
                else:
                    seen_finite = True
            finite = [_integer(e, "each finite entry") for e in self.entries if not math.isinf(e)]
            if any(finite[i] <= finite[i + 1] for i in range(len(finite) - 1)):
                raise ValueError("explicit entries must be strictly decreasing")

    def entry(self, k: int) -> float:
        """X_0(k), 1-based label."""
        if k < 1:
            raise ValueError("labels start at 1")
        if self.kind == "step":
            return -k
        if self.kind == "periodic":
            return -self.d * (k - 1)
        if k > len(self.entries):
            raise ValueError(f"label {k} beyond explicit data")
        return self.entries[k - 1]

    @property
    def n_finite(self) -> float:
        if self.kind == "explicit":
            return sum(1 for e in self.entries if not math.isinf(e))
        return math.inf

    def anchor(self) -> int:
        """X_0^{-1}(-1) = min{k : X_0(k) <= -1}.

        For a complete finite family with every particle right of -1 this is
        N+1 (the empty half-line below the last particle is determined).
        """
        if self.kind == "step":
            return 1
        if self.kind == "periodic":
            return 2
        for k, e in enumerate(self.entries, start=1):
            if e <= -1:
                return k
        return len(self.entries) + 1


@dataclass
class ParticleState:
    """Ordered particle configuration at a fixed time."""

    positions: np.ndarray  # strictly decreasing, int64
    first_label: int
    time: float
    anchor0: int  # X_0^{-1}(-1) cached from the initial data
    complete: bool  # True if this is the whole family, not a truncation

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.int64)
        if self.positions.ndim != 1 or self.positions.size == 0:
            raise ValueError("need at least one particle")
        if np.any(self.positions[1:] >= self.positions[:-1]):
            raise ValueError("positions must be strictly decreasing")
        if self.time < 0:
            raise ValueError("time must be nonnegative")

    @property
    def labels(self) -> np.ndarray:
        return self.first_label + np.arange(self.positions.size)


@dataclass
class HeightField:
    """Integer height profile h(z) on a window starting at `anchor`."""

    anchor: int
    values: np.ndarray
    time: float

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.int64)
        if not np.all(np.abs(self.values[1:] - self.values[:-1]) == 1):
            raise ValueError("height increments must be +-1")

    @property
    def z(self) -> np.ndarray:
        return self.anchor + np.arange(self.values.size)


def make_initial(kind: str, *, d: int | None = None, entries: Sequence | None = None) -> InitialData:
    """InitialData of `kind`: "step", "periodic" with gap d, or "explicit"
    with the entries X_0(1) > X_0(2) > ... as any sequence."""
    return InitialData(kind, d=d, entries=tuple(entries) if entries is not None else None)


def jump_bound(duration: float) -> int:
    """The least m with P(Poisson(duration) > m) <= TRUNCATION_RISK.

    m is at least floor(duration), and Bennett's inequality puts it at most
    duration + 28.8 + 9.2·sqrt(duration), so one `pdtrc` call over that span
    finds it.  The last 256 durations are memoised.
    """
    if not duration >= 0 or math.isinf(duration):
        raise ValueError("duration must be finite and >= 0")
    return _jump_bound(duration)


@functools.lru_cache(maxsize=256)
def _jump_bound(duration: float) -> int:
    lo = math.floor(duration)
    tail = pdtrc(np.arange(lo, lo + 32 + int(10 * math.sqrt(duration))), duration)
    return lo + int(np.argmax(tail <= TRUNCATION_RISK))


def particles_needed(init: InitialData, z_lo: int, duration: float) -> int:
    """Light-cone truncation for heights on sites >= z_lo within `duration`.

    Returns the first label N with X_0(N) <= z_lo - 1 - jump_bound(duration)
    (or the last label, for explicit data that has none).  Labels behind N
    never influence labels 1..N, and N itself stays at or left of z_lo - 1
    unless it jumps more than jump_bound(duration) times, which happens with
    probability at most TRUNCATION_RISK; see the module docstring.
    """
    edge = z_lo - 1 - jump_bound(duration)
    if init.kind == "step":
        return max(1, -edge)
    if init.kind == "periodic":
        return 1 + max(0, -(edge // init.d))
    return next(
        (k for k, e in enumerate(init.entries, start=1) if e <= edge), len(init.entries)
    )


def initial_state(
    init: InitialData,
    n_particles: int | None = None,
    z_lo: int | None = None,
    duration: float | None = None,
) -> ParticleState:
    """Materialize a tracked configuration at time 0.

    Either pass n_particles directly or (z_lo, duration) for the light-cone
    rule of `particles_needed`.  Explicit data is always materialized in
    full.
    """
    if init.kind == "explicit":
        if any(math.isinf(e) for e in init.entries):
            raise ValueError("cannot simulate data with +inf entries")
        pos = np.array(init.entries, dtype=np.int64)
        return ParticleState(pos, 1, 0.0, init.anchor(), complete=True)
    if n_particles is None:
        if z_lo is None or duration is None:
            raise ValueError("need n_particles or (z_lo, duration)")
        n_particles = particles_needed(init, z_lo, duration)
    if init.kind == "step":
        pos = -np.arange(1, n_particles + 1)
    else:
        pos = -init.d * np.arange(n_particles)
    return ParticleState(pos, 1, 0.0, init.anchor(), complete=False)


def evolve(state: ParticleState, duration: float, seed: int) -> ParticleState:
    """Run the dynamics for `duration`; returns a new state."""
    return _last_passage(state, duration, seed)[0]


def evolve_events(
    state: ParticleState, duration: float, seed: int
) -> tuple[ParticleState, np.ndarray]:
    """Like evolve, but also returns the jump log as a structured array with
    fields (time, label, position), ordered by time."""
    new_state, jumps = _last_passage(state, duration, seed)
    counts = new_state.positions - state.positions
    index = np.repeat(np.arange(counts.size), counts)
    rank = np.arange(index.size) - np.repeat(np.cumsum(counts) - counts, counts)
    times = np.fromiter(itertools.chain.from_iterable(jumps), np.float64, index.size)
    order = np.argsort(times, kind="stable")
    events = np.empty(
        index.size, dtype=[("time", np.float64), ("label", np.int64), ("position", np.int64)]
    )
    events["time"] = times[order]
    events["label"] = state.first_label + index[order]
    events["position"] = (state.positions[index] + rank + 1)[order]
    return new_state, events


def _last_passage(state, duration, seed):
    """The state after `duration` and each particle's jump times.

    Particle i's k-th jump happens at
    J[i,k] = max(J[i,k-1], J[i-1, k-g]) + w[i,k], with J[i,0] = t0, g the
    number of free sites ahead of particle i at t0, and the leader's term t0
    while its index is not positive.  The recursion stops at the first jump
    past t0 + duration, or at a jump whose leader term never happens by then.
    w[i,k] = -log(1 - u[i,k]) is the k-th draw of the particle's stream: u
    is read from the draw table, 1 + ceil(duration + sqrt(duration)) columns
    wide, whose rows double when a particle needs more draws, and the log is
    taken per draw with `math.log` so that trajectories do not depend on
    numpy's vector kernels.
    """
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration must be finite and >= 0, got {duration!r}")
    t0 = state.time
    t_end = t0 + duration
    keys = _keys(seed, _label_range_mix(state.first_label, state.positions.size))
    rows = _uniforms(keys, 0, 1 + math.ceil(duration + math.sqrt(duration))).tolist()
    log = math.log
    jumps = []
    lead, ahead = None, None  # jump times and start of the particle ahead
    for i, x in enumerate(state.positions.tolist()):
        row = rows[i]
        free = -1 if lead is None else ahead - x - 1  # -1: nothing ahead
        own = []
        t = t0
        k = 0  # draws taken; equal to len(own) at the top of the loop
        while True:
            if 0 <= free <= k:
                if k - free == len(lead):
                    break
                freed = lead[k - free]
                if freed > t:
                    t = freed
            if k == len(row):  # out of draws: double the row
                row += _uniforms(keys[i : i + 1], k, k).tolist()[0]
            t = t - log(1.0 - row[k])
            if t > t_end:
                break
            own.append(t)
            k += 1
        jumps.append(own)
        lead, ahead = own, x
    positions = state.positions + [len(own) for own in jumps]
    new_state = ParticleState(positions, state.first_label, t_end, state.anchor0, state.complete)
    return new_state, jumps


def inverse_label(state: ParticleState, z: int | np.ndarray) -> int | np.ndarray:
    """X_t^{-1}(z) = min{k : X_t(k) <= z} at a site, or at an array of sites;
    raises outside the determined region."""
    pos = state.positions
    # positions decrease with index; find the first index with pos <= z
    idx = np.searchsorted(-pos, -np.asarray(z), side="left")
    if not state.complete and np.any(idx == pos.size):
        last = state.first_label + pos.size - 1
        raise ValueError(
            f"site {np.min(z)} lies left of every tracked particle: "
            f"the last tracked label {last} is at {pos[-1]}; evolve no longer than "
            "the duration given to initial_state, or pass a larger n_particles"
        )
    labels = state.first_label + idx
    return int(labels) if labels.ndim == 0 else labels


def height(state: ParticleState, z_lo: int, z_hi: int) -> HeightField:
    """h_t(z) = -2(X_t^{-1}(z-1) - X_0^{-1}(-1)) - z on [z_lo, z_hi]."""
    if z_hi < z_lo:
        raise ValueError("empty window")
    z = np.arange(z_lo, z_hi + 1)
    vals = -2 * (inverse_label(state, z - 1) - state.anchor0) - z
    return HeightField(z_lo, vals, state.time)


@dataclass
class RescaledHeight:
    """h^eps(t, x) sampled on the rescaled lattice, linearly interpolated."""

    eps: float
    t: float
    x: np.ndarray
    values: np.ndarray

    def __call__(self, x) -> np.ndarray:
        xq = np.asarray(x, dtype=float)
        if np.any(xq < self.x[0]) or np.any(xq > self.x[-1]):
            raise ValueError("requested x outside the simulated window")
        return np.interp(xq, self.x, self.values)


def rescale_height(h: HeightField, eps: float, t: float) -> RescaledHeight:
    """h^eps(t,x) = eps^{1/2} [h_{2 eps^{-3/2} t}(2 eps^{-1} x) + eps^{-3/2} t]."""
    if not 0 < eps <= 1:
        raise ValueError("need 0 < eps <= 1")
    t_micro = 2.0 * eps ** -1.5 * t
    if not math.isclose(h.time, t_micro, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(
            f"height was computed at time {h.time}, rescaling needs {t_micro}"
        )
    x = 0.5 * eps * h.z
    vals = math.sqrt(eps) * (h.values + eps ** -1.5 * t)
    return RescaledHeight(eps, t, x, vals)

