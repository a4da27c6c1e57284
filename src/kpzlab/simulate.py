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
2^-60; if it does enter, `height` and `inverse_label` raise rather than
guess.

The draws come from a table: one numpy pass mixes every tracked particle's
counter-based uniforms, (splitmix64(key + k·GOLD) >> 11)·2^-53 for its first
1 + ceil(duration + sqrt(duration)) jump numbers k, and a row that runs out
is doubled by the same routine.  An unobstructed particle takes
1 + Poisson(duration) draws, so the width is their mean plus one standard
deviation: most rows fit, and the table is not mixed and converted far
beyond what a run reads.  A key is mix(mix(seed) ^ mix(label·GOLD + salt)).
Its seed-free half is memoised per tracked label range, and the seed is
mixed once per run in Python ints, so one array pass makes every key.  The
step offsets (start + c)·GOLD are memoised per block of columns.  Since the
draws are counter-based, none of these choices changes a trajectory.  The
recursion over the table stays in Python, and so does the logarithm: it is
`math.log`, not `np.log`, whose vectorised kernels differ from libm in the
last bit on about 0.35 % of draws, so that trajectories would change with
numpy's build and the host's instruction set.

Each particle's recursion runs in two phases, so that a draw costs only its
own arithmetic.  With g free sites ahead of it at the start, its first g
draws never read the leader (all of them, when nothing is ahead); after
that, each draw pairs with the next jump of the leader's list, until that
list or the clock runs out.  A particle blocked by a leader that never
moved takes no draw.

The states and height fields the simulator builds skip their classes'
checks: `initial_state`'s start, the end state of `evolve` and
`evolve_events`, and `height`'s field.  What those checks test holds by
construction there (exclusion keeps positions strictly decreasing, and a
height steps by +-1 from one site to the next), and the other fields come
from data or a state that was checked.  A state built from caller input
goes through every check.

`height` reads the whole window in one `searchsorted` over the sites z - 1,
which `inverse_label` shares.  X_t^{-1} does not increase in z, so only the
window's leftmost site can lie past a truncated state's last particle.

The 1:2:3 scaling h^eps(1, x) = eps^(1/2) [h_t(2x/eps) + eps^(-3/2)] at
t = 2 eps^(-3/2) runs both ways.  `rescale_height` takes a simulated height
field to h^eps; `height_events` takes events h^eps(1, x) <= r to the
particle events X_t(n) > a that the exact layer evaluates.  Since
h_t(z) = -2(X_t^{-1}(z - 1) - X_0^{-1}(-1)) - z, an event reads the anchor
X_0^{-1}(-1) from the data, and it is the same event for every r in one
lattice cell of width 2 eps^(1/2); its r_mid, the cell's middle, is where
a limit law should be compared.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import pdtrc

from .special import _integer, _integers

# The last-passage recursion is the one simulator path and needs no compiler;
# the flag stays because the benchmark records it with its results.
HAVE_NUMBA = False

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLD_INT, _MIX1_INT, _MIX2_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# uint64 constants as 0-d arrays, which ufuncs take without converting a
# numpy scalar on every call
_GOLD, _MIX1, _MIX2, _LABEL_SALT, _S11, _S27, _S30, _S31 = (
    np.array(v, dtype=np.uint64)
    for v in (_GOLD_INT, _MIX1_INT, _MIX2_INT, 0x7F4A7C15, 11, 27, 30, 31)
)
_TWO_NEG53 = 2.0**-53

TRUNCATION_RISK = 2.0**-60  # per-run chance that the light cone is too short
_MAX_DURATION = 2.0**52  # the longest duration jump_bound takes, and a run's latest end


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a fresh uint64 array, in place; returns it.
    Array arithmetic on uint64 wraps mod 2^64 without a warning."""
    z += _GOLD
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def _mix_int(z: int) -> int:
    """splitmix64 finalizer of one Python int in [0, 2^64)."""
    z = (z + _GOLD_INT) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK
    return z ^ (z >> 31)


def _keys(seed: int, label_mix: np.ndarray) -> np.ndarray:
    """Stream keys mix(mix(seed) ^ label_mix) for labels already mixed; the
    seed is mixed once, in Python ints."""
    return _mix(label_mix ^ _mix_int(_integer(seed, "seed") & _MASK))


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


@functools.lru_cache(maxsize=64)
def _step_offsets(start: int, width: int) -> np.ndarray:
    """(start + c)·GOLD for c < width, read-only: every draw table with the
    same columns shares it."""
    steps = np.arange(start, start + width, dtype=np.uint64) * _GOLD
    steps.flags.writeable = False
    return steps


def _uniforms(keys: np.ndarray, start: int, width: int) -> np.ndarray:
    """Draw table u[i, c] = (mix(keys[i] + (start + c)·GOLD) >> 11)·2^-53
    for c < width; the uint64-to-float conversion is exact."""
    bits = _mix(keys[:, None] + _step_offsets(start, width))
    bits >>= _S11
    return bits * _TWO_NEG53


@dataclass(frozen=True)
class InitialData:
    """Right-finite initial configuration X_0(1) > X_0(2) > ...

    `kind` is one of step/periodic/explicit.  Step and periodic data are
    the progression X_0(k) = x_1 - d(k - 1), (x_1, d) = (-1, 1) for step
    and (0, d) for periodic with gap d >= 2; explicit data stores its
    entries, finite and strictly decreasing.  The gap and the entries are
    kept as Python ints; integral floats and numpy ints are accepted.  Data
    with m leading +inf entries are the rest relabeled from 1.  X_0^{-1}
    has one evaluator, `inverse_label`: `anchor` is its value at -1.
    """

    kind: str
    d: int | None = None
    entries: tuple | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("step", "periodic", "explicit"):
            raise ValueError(f"unknown initial data kind: {self.kind!r}")
        if self.kind == "periodic":
            d = None if self.d is None else _integer(self.d, "gap d")
            if d is None or d < 2:
                raise ValueError("periodic data needs an integer gap d >= 2")
            object.__setattr__(self, "d", d)
        if self.kind == "explicit":
            if not self.entries:
                raise ValueError("explicit data needs entries")
            bad = [e for e in self.entries if not (type(e) is int or math.isfinite(e))]
            if bad:
                raise ValueError(f"each entry must be an integer, got {bad[0]!r}; for data with m"
                                 " leading +inf entries, drop them and subtract m from every label")
            entries = tuple([_integer(e, "each entry") for e in self.entries])
            if any(map(operator.le, entries, entries[1:])):
                raise ValueError("explicit entries must be strictly decreasing")
            object.__setattr__(self, "entries", entries)

    @property
    def _progression(self) -> tuple[int, int]:
        """(x_1, d) of step and periodic data."""
        return (-1, 1) if self.kind == "step" else (0, self.d)

    def entry(self, k: int) -> int:
        """X_0(k), 1-based label."""
        if k < 1:
            raise ValueError("labels start at 1")
        if self.kind == "explicit":
            if k > len(self.entries):
                raise ValueError(f"label {k} beyond explicit data")
            return self.entries[k - 1]
        x1, d = self._progression
        return x1 - d * (k - 1)

    def inverse_label(self, z: int) -> int:
        """X_0^{-1}(z) = min{k : X_0(k) <= z} for an integer z; explicit
        data with every particle right of z gives N + 1 (the empty
        half-line below the last particle is determined)."""
        if self.kind == "explicit":
            return next((k for k, e in enumerate(self.entries, start=1) if e <= z), len(self.entries) + 1)
        x1, d = self._progression
        return 1 + max(0, -((z - x1) // d))

    def anchor(self) -> int:
        """X_0^{-1}(-1), the label that a height is counted from."""
        return self.inverse_label(-1)


@dataclass
class ParticleState:
    """Ordered particle configuration at a fixed time.

    Positions must be integral and strictly decreasing, and are kept as
    int64; `first_label` must be an integer >= 1 and `anchor0` an integer;
    the time must be finite and >= 0, and is kept as a Python float."""

    positions: np.ndarray  # strictly decreasing, int64
    first_label: int
    time: float
    anchor0: int  # X_0^{-1}(-1) cached from the initial data
    complete: bool  # True if this is the whole family, not a truncation

    def __post_init__(self) -> None:
        self.positions = _integers(self.positions, "each position")
        if self.positions.ndim != 1 or self.positions.size == 0:
            raise ValueError("need at least one particle")
        if (self.positions[1:] >= self.positions[:-1]).any():
            raise ValueError("positions must be strictly decreasing")
        first = _integer(self.first_label, "first_label")
        if first < 1:
            raise ValueError(f"first_label must be an integer >= 1, got {self.first_label!r}")
        self.first_label = first
        self.anchor0 = _integer(self.anchor0, "anchor0")
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"time must be finite and >= 0, got {self.time!r}")
        self.time = float(self.time)

    @property
    def labels(self) -> np.ndarray:
        return self.first_label + np.arange(self.positions.size)


def _particle_state(positions, first_label, time, anchor0, complete) -> ParticleState:
    """A ParticleState that skips __post_init__: the simulator's own states,
    whose int64 positions strictly decrease by construction and whose other
    fields are a Python-float time and fields of a checked state or data."""
    state = object.__new__(ParticleState)
    state.positions = positions
    state.first_label = first_label
    state.time = time
    state.anchor0 = anchor0
    state.complete = complete
    return state


@dataclass
class HeightField:
    """Integer height profile h(z) on a window starting at `anchor`."""

    anchor: int
    values: np.ndarray
    time: float

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.int64)
        if not (np.abs(self.values[1:] - self.values[:-1]) == 1).all():
            raise ValueError("height increments must be +-1")
        self.time = float(self.time)

    @property
    def z(self) -> np.ndarray:
        return self.anchor + np.arange(self.values.size)


def _height_field(anchor, values, time) -> HeightField:
    """A HeightField that skips __post_init__: `height`'s, whose int64
    values step by +-1 by construction, at a checked state's time."""
    field = object.__new__(HeightField)
    field.anchor = anchor
    field.values = values
    field.time = time
    return field


def make_initial(kind: str, *, d: int | None = None, entries: Sequence | None = None) -> InitialData:
    """InitialData of `kind`: "step", "periodic" with gap d, or "explicit"
    with the entries X_0(1) > X_0(2) > ... as any sequence."""
    return InitialData(kind, d=d, entries=tuple(entries) if entries is not None else None)


def jump_bound(duration: float) -> int:
    """The least m with P(Poisson(duration) > m) <= TRUNCATION_RISK.

    m is at least floor(duration), and Bennett's inequality puts it below
    floor(duration) + 32 + 10·sqrt(duration), so a bisection of `pdtrc`
    over that span finds it in about log2(10·sqrt(duration)) calls.  The
    duration must be at most _MAX_DURATION = 2^52, past which the span's
    sites are no longer exact doubles.  The last 256 durations are
    memoised.
    """
    # converted before the comparison, where float16 would cast 2^52 to inf
    if not (math.isfinite(duration) and 0 <= float(duration) <= _MAX_DURATION):
        raise ValueError(
            f"duration must be finite, >= 0 and at most 2^52 = {_MAX_DURATION:.0f}, got {duration!r}"
        )
    return _jump_bound(float(duration))


@functools.lru_cache(maxsize=256)
def _jump_bound(duration: float) -> int:
    lo = math.floor(duration)
    hi = lo + 32 + int(10 * math.sqrt(duration))
    while lo < hi:
        mid = (lo + hi) // 2
        if pdtrc(mid, duration) <= TRUNCATION_RISK:
            hi = mid
        else:
            lo = mid + 1
    return lo


def particles_needed(init: InitialData, z_lo: int, duration: float) -> int:
    """Light-cone truncation for heights on sites >= z_lo within `duration`.

    Returns the first label N with X_0(N) <= z_lo - 1 - jump_bound(duration)
    (or the last label, for explicit data that has none).  Labels behind N
    never influence labels 1..N, and N itself stays at or left of z_lo - 1
    unless it jumps more than jump_bound(duration) times, which happens with
    probability at most TRUNCATION_RISK; see the module docstring.
    """
    edge = _integer(z_lo, "z_lo") - 1 - jump_bound(duration)
    n = init.inverse_label(edge)
    return min(n, len(init.entries)) if init.kind == "explicit" else n


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
        pos = np.array(init.entries, dtype=np.int64)
        return _particle_state(pos, 1, 0.0, init.anchor(), True)
    if n_particles is None:
        if z_lo is None or duration is None:
            raise ValueError("need n_particles or (z_lo, duration)")
        n_particles = particles_needed(init, z_lo, duration)
    n_particles = _integer(n_particles, "n_particles")
    if n_particles < 1:
        raise ValueError("need at least one particle")
    x1, d = init._progression
    pos = np.arange(x1, x1 - d * n_particles, -d, dtype=np.int64)
    return _particle_state(pos, 1, 0.0, init.anchor(), False)


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
    It runs in two phases: draws k < g, where the leader is never read
    (every draw, for the first particle), then one draw per jump in the
    leader's list, which ends the particle when it runs out.  The end state
    is built without ParticleState's check, which the recursion satisfies:
    no particle passes the one ahead, and the positions are int64.
    w[i,k] = -log(1 - u[i,k]) is the k-th draw of the particle's stream: u
    is read from the draw table, 1 + ceil(duration + sqrt(duration)) columns
    wide, whose rows double when a particle needs more draws, and the log is
    taken per draw with `math.log` so that trajectories do not depend on
    numpy's vector kernels.  A run must end by _MAX_DURATION = 2^52: past
    it a draw below half a unit is lost to rounding, t + w == t, and at
    time 1e20 every draw is, so the first particle never reaches t_end.
    """
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration must be finite and >= 0, got {duration!r}")
    duration = float(duration)
    t0 = state.time
    t_end = t0 + duration
    if t_end > _MAX_DURATION:
        raise ValueError(
            f"a run must end by time 2^52 = {_MAX_DURATION:.0f}, past which draws round"
            f" away; got time {t0!r} + duration {duration!r}"
        )
    keys = _keys(seed, _label_range_mix(state.first_label, state.positions.size))
    block = 1 + math.ceil(duration + math.sqrt(duration))
    rows = _uniforms(keys, 0, block).tolist()
    log = math.log
    jumps = []
    lead, ahead = None, None  # jump times and start of the particle ahead
    for i, x in enumerate(state.positions.tolist()):
        row = rows[i]
        width = block  # len(row), kept as an int
        own = []
        t = t0
        k = 0  # draws taken; equal to len(own) at the top of each loop
        # first phase: the draws before the leader's term applies, every
        # draw for the particle with no leader
        free = math.inf if lead is None else ahead - x - 1
        while k < free:
            if k == width:  # out of draws: double the row
                row += _uniforms(keys[i : i + 1], k, k).tolist()[0]
                width += k
            t = t - log(1.0 - row[k])
            if t > t_end:
                break
            own.append(t)
            k += 1
        else:  # second phase: one draw per leader jump, until the list runs out
            for freed in lead:
                if freed > t:
                    t = freed
                if k == width:
                    row += _uniforms(keys[i : i + 1], k, k).tolist()[0]
                    width += k
                t = t - log(1.0 - row[k])
                if t > t_end:
                    break
                own.append(t)
                k += 1
        jumps.append(own)
        lead, ahead = own, x
    positions = state.positions + np.fromiter(map(len, jumps), np.int64, len(jumps))
    new_state = _particle_state(positions, state.first_label, t_end, state.anchor0, state.complete)
    return new_state, jumps


def _label_index(state: ParticleState, z_min: int, neg_z) -> np.ndarray:
    """Index in `state.positions` of the first particle at or left of each
    site, the sites given negated as `neg_z` with z_min the leftmost; raises
    if a truncated state has every tracked particle right of z_min."""
    pos = state.positions
    if not state.complete and z_min < pos[-1]:
        last = state.first_label + pos.size - 1
        raise ValueError(
            f"site {z_min} lies left of every tracked particle: "
            f"the last tracked label {last} is at {pos[-1]}; evolve no longer than "
            "the duration given to initial_state, or pass a larger n_particles"
        )
    # positions decrease with index, so -pos increases
    return np.searchsorted(-pos, neg_z, side="left")


def inverse_label(state: ParticleState, z: int | np.ndarray) -> int | np.ndarray:
    """X_t^{-1}(z) = min{k : X_t(k) <= z} at a site, or at an array of sites;
    raises outside the determined region."""
    z = np.asarray(z)
    # the initial value lets an empty array of sites through
    labels = state.first_label + _label_index(state, z.min(initial=state.positions[-1]), -z)
    return int(labels) if labels.ndim == 0 else labels


def height(state: ParticleState, z_lo: int, z_hi: int) -> HeightField:
    """h_t(z) = -2(X_t^{-1}(z-1) - X_0^{-1}(-1)) - z on [z_lo, z_hi], in one
    searchsorted over the sites 1 - z."""
    z_lo, z_hi = _integer(z_lo, "z_lo"), _integer(z_hi, "z_hi")
    if z_hi < z_lo:
        raise ValueError("empty window")
    neg = np.arange(1 - z_lo, -z_hi, -1)  # 1 - z, the sites z - 1 negated
    idx = _label_index(state, z_lo - 1, neg)
    # -2(first_label + idx - anchor0) - z, with -z = neg - 1
    vals = neg + (2 * (state.anchor0 - state.first_label) - 1) - 2 * idx
    return _height_field(z_lo, vals, state.time)


@dataclass
class RescaledHeight:
    """h^eps(t, x) sampled on the rescaled lattice, linearly interpolated."""

    eps: float
    t: float
    x: np.ndarray
    values: np.ndarray

    def __call__(self, x) -> np.ndarray:
        xq = np.asarray(x, dtype=float)
        # written so that NaN fails too
        if not ((xq >= self.x[0]).all() and (xq <= self.x[-1]).all()):
            raise ValueError(
                f"requested x must be a number in the simulated window [{self.x[0]}, {self.x[-1]}]"
            )
        return np.interp(xq, self.x, self.values)


def rescale_height(h: HeightField, eps: float, t: float) -> RescaledHeight:
    """h^eps(t,x) = eps^{1/2} [h_{2 eps^{-3/2} t}(2 eps^{-1} x) + eps^{-3/2} t]."""
    if not 0 < eps <= 1:
        raise ValueError("need 0 < eps <= 1")
    eps, t = float(eps), float(t)
    t_micro = 2.0 * eps ** -1.5 * t
    if not math.isclose(h.time, t_micro, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(
            f"height was computed at time {h.time}, rescaling needs {t_micro}"
        )
    x = 0.5 * eps * h.z
    vals = math.sqrt(eps) * (h.values + eps ** -1.5 * t)
    return RescaledHeight(eps, t, x, vals)


class HeightEvent(NamedTuple):
    """The event h^eps(1, x) <= r as the particle event X_t(n) > a at
    t = 2 eps^(-3/2): `event` is (n, a), `x` the point's lattice site
    eps z / 2, and `r_mid` the rescaled height at the middle of the event's
    cell, every r of which gives the same event."""

    event: tuple[int, int]
    x: float
    r_mid: float


def height_events(init: InitialData, eps: float, points) -> list[HeightEvent]:
    """The events h^eps(1, x_i) <= r_i for points (x_i, r_i), sorted by label.

    Each x rounds to the site z = round(2x/eps), and the rescaled level r to
    the microscopic one h = eps^(-1/2) r - eps^(-3/2).  With the anchor
    A = X_0^{-1}(-1) of the data, h_t(z) <= h holds exactly when
    X_t^{-1}(z - 1) >= m for m = ceil(A - (h + z)/2), that is X_t(m - 1) >
    z - 1.  The largest height in the event is -2(m - A) - z, so its cell
    is [that, that + 2) and r_mid is its middle, rescaled.  A certain event
    (m < 2), two points on one label, a non-finite point and an eps outside
    (0, 1] raise ValueError.
    """
    if not 0 < eps <= 1:
        raise ValueError(f"need 0 < eps <= 1, got {eps!r}")
    eps = float(eps)  # a NumPy float16 eps would run the map in half precision
    anchor = init.anchor()
    out = []
    for x, r in points:
        if not (math.isfinite(x) and math.isfinite(r)):
            raise ValueError(f"point ({x!r}, {r!r}) must be finite")
        x, r = float(x), float(r)
        z = round(2.0 * x / eps)
        level = eps**-0.5 * r - eps**-1.5
        m = math.ceil(anchor - (level + z) / 2.0)
        if m < 2:
            raise ValueError(f"h^eps(1, {x!r}) <= {r!r} is certain for this data: nothing to compute")
        h_lattice = -2 * (m - anchor) - z
        r_mid = math.sqrt(eps) * (h_lattice + 1.0 + eps**-1.5)
        out.append(HeightEvent((m - 1, z - 1), 0.5 * eps * z, r_mid))
    out.sort(key=lambda e: e.event[0])
    for a, b in zip(out, out[1:]):
        if a.event[0] == b.event[0]:
            raise ValueError(f"the points at x = {a.x} and {b.x} both fall on label {a.event[0]}")
    return out
