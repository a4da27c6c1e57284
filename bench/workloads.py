"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in its constructor,
makes its first calls in `warm_up` and computes its references apart from
the library in `references`.  A round runs `run_op` on every entry of `ops`
in order; `check` checks one round's outcomes.  Library calls go through the
module objects (`exact.multipoint_probability`, ...) so that the tracer's
patches are seen.

An operation that raises one of kpzlab's errors, or returns something that
is not a probability, has failed; it is counted, not checked.  Every other
result is checked, and a check that does not hold makes the run incorrect.
"""

from __future__ import annotations

import math
import random
import time
import warnings

import numpy as np
from scipy.special import pdtr, pdtrc

import oracles
from kpzlab import exact, fredholm, simulate, special

# Errors the library raises when a method cannot reach its tolerance.
LIBRARY_ERRORS = (
    exact.TruncationError,
    exact.WindowError,
    fredholm.ConvergenceError,
    special.QuadratureError,
)


class Outcome:
    """Result of one operation: a value, or the error that stopped it, and
    the seconds it took.  A probability outside [0, 1] is a failure too."""

    __slots__ = ("key", "value", "error", "probability", "seconds")

    def __init__(self, key, value=None, error=None, probability=False, seconds=0.0):
        self.key, self.value, self.error = key, value, error
        self.probability, self.seconds = probability, seconds

    @property
    def failed(self) -> bool:
        if self.error is not None:
            return True
        return self.probability and not oracles.probability_ok(self.value)


def attempt(key, func, *args, probability=True, **kwargs) -> Outcome:
    with warnings.catch_warnings():
        # overflow warnings from the large-t kernels are part of the failures
        # this benchmark counts, not output it should print
        warnings.simplefilter("ignore", RuntimeWarning)
        t0 = time.perf_counter()
        try:
            value = func(*args, **kwargs)
        except LIBRARY_ERRORS as exc:
            return Outcome(key, error=type(exc).__name__, seconds=time.perf_counter() - t0)
        seconds = time.perf_counter() - t0
    if isinstance(value, (float, np.floating)):
        value = float(value)
    return Outcome(key, value, probability=probability, seconds=seconds)


def height_event(anchor: int, z: int, level: float) -> tuple[tuple[int, int], float]:
    """The event h_t(z) <= level as a (label, threshold) event.

    With h_t(z) = -2(X_t^{-1}(z-1) - anchor) - z, the event is X_t^{-1}(z-1)
    >= m for m = ceil(anchor - (level + z)/2), that is X_t(m-1) > z-1.  Also
    returns the largest attainable height in the event; the event is the
    same for every level in [that height, that height + 2).
    """
    m = math.ceil(anchor - (level + z) / 2.0)
    if m < 2:
        raise ValueError("event is certain; nothing to compute")
    return (m - 1, z - 1), float(-2 * (m - anchor) - z)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self) -> None:
        raise NotImplementedError

    def references(self) -> None:
        raise NotImplementedError

    def run_op(self, op) -> list[Outcome]:
        """Run one entry of `ops`: one or a few library calls."""
        raise NotImplementedError

    def check(self, outcomes: list[Outcome]) -> list[str]:
        """Descriptions of every check that does not hold."""
        raise NotImplementedError


def _close(a: float, b: float, rel: float, abs_: float) -> bool:
    return abs(a - b) <= max(rel * abs(b), abs_)


# ---------------------------------------------------------------------------


class TasepScaling(Workload):
    """Step data at t = 2 eps^{-3/2}, on the way to the 1:2:3 limit.  The
    inputs are a fixed grid and do not depend on the seed."""

    name = "tasep-scaling"
    EPS = (0.2, 0.1, 0.05, 0.04)
    R_ONE = (-2.0, -1.0, 0.0, 1.0)
    TWO_POINT = ((0.5, -0.5), (-0.5, -0.5))  # (x, r) pairs
    PATH_EPS_MIN = 0.1  # path-product route is run at eps >= this
    ONE_POINT_COEFF = 0.5  # |P - F_GUE| <= coeff * eps^(1/2)
    TWO_POINT_COEFF = 0.25  # |P - Airy_2 two-point| <= coeff * eps^(1/2)
    ROUTES_AGREE = 1e-9
    ANCHOR = 1  # X_0^{-1}(-1) for step data

    def __init__(self, seed: int):
        super().__init__(seed)
        self.init = simulate.make_initial("step")
        self.ops = []  # (key, t, events)
        self.limit_points = {}  # key -> [(x, lattice-matched r), ...]
        for eps in self.EPS:
            t = 2.0 * eps**-1.5
            for r in self.R_ONE:
                ev, r_mid = self._event(eps, 0.0, r)
                self.limit_points[("one", eps, r)] = [(0.0, r_mid)]
                self._add(("one", eps, r), eps, t, [ev])
            evs, pts = [], []
            for x, r in self.TWO_POINT:
                ev, r_mid = self._event(eps, x, r)
                evs.append(ev)
                pts.append((x, r_mid))
            order = np.argsort([label for label, _ in evs])
            self.limit_points[("two", eps)] = [pts[i] for i in order]
            self._add(("two", eps), eps, t, [evs[i] for i in order])

    def _event(self, eps: float, x: float, r: float):
        """h^eps(1, x) <= r as a (label, threshold) event, and the rescaled
        height of the middle of its lattice cell."""
        z = round(2.0 * x / eps)
        level = eps**-0.5 * r - eps**-1.5
        ev, h_lat = height_event(self.ANCHOR, z, level)
        return ev, math.sqrt(eps) * (h_lat + 1.0 + eps**-1.5)

    def _add(self, key, eps, t, events):
        self.ops.append((("multipoint",) + key, t, events))
        if eps >= self.PATH_EPS_MIN:
            self.ops.append((("path",) + key, t, events))

    def warm_up(self) -> None:
        exact.multipoint_probability(0.5, self.init, [(1, 0)])
        exact.path_integral_probability(0.5, self.init, [(1, 0)])

    def references(self) -> None:
        self.limits = {}
        for key, pts in self.limit_points.items():
            if len(pts) == 1:
                x, r = pts[0]
                self.limits[key] = oracles.f_gue(r + x * x)
            else:
                self.limits[key] = oracles.airy2_joint([(x, r + x * x) for x, r in pts])

    def run_op(self, op) -> list[Outcome]:
        key, t, events = op
        func = (
            exact.multipoint_probability
            if key[0] == "multipoint"
            else exact.path_integral_probability
        )
        return [attempt(key, func, t, self.init, events)]

    def check(self, outcomes):
        bad = []
        got = {o.key: o.value for o in outcomes if not o.failed}
        for key, value in got.items():
            kind, eps = key[1], key[2]
            coeff = self.ONE_POINT_COEFF if kind == "one" else self.TWO_POINT_COEFF
            if not oracles.within_limit(value, self.limits[key[1:]], eps, coeff):
                bad.append(f"{key}: {value!r} vs limit {self.limits[key[1:]]!r}")
            other = got.get(("path" if key[0] == "multipoint" else "multipoint",) + key[1:])
            if other is not None and abs(other - value) > self.ROUTES_AGREE:
                bad.append(f"{key}: routes differ, {value!r} vs {other!r}")
        for route in ("multipoint", "path"):
            for eps in self.EPS:
                pairs = [(r, got.get((route, "one", eps, r))) for r in self.R_ONE]
                if not oracles.nondecreasing_in_r(pairs):
                    bad.append(f"{route} eps={eps}: one-points decrease in r: {pairs}")
        return bad


# ---------------------------------------------------------------------------


class TasepFinite(Workload):
    """Hundreds of small exact problems, N <= 4 particles, t <= 2."""

    name = "tasep-finite"
    # The shapes of the problems are fixed, so that every seed asks for the
    # same work; the seed draws times, positions and array configurations.
    N_ONE = 40
    # (gap, offset of the label-1 threshold or None, offset of label 2)
    JOINT2 = [
        (g, k1, k2) for g in (1, 2, 3) for k1, k2 in ((None, 0), (0, 1), (1, 0), (2, 2), (3, 1))
    ]
    # (gaps, offsets of the label-1 and label-3 thresholds)
    JOINT3 = (((1, 2), (0, 1)), ((2, 1), (1, 0)))
    ARRAY_SUMS = {2: 40, 3: 30, 4: 12}
    KERNEL_X = ((-6, -6), (-6, 3), (-3, 0), (-1, -4), (0, 2), (2, -1), (3, 4), (4, -5))
    # Kernel times are fixed, not drawn: the node count kt_step_closed's
    # double contour needs, and with it the run's peak memory, depends on t.
    # The order gives (n_i, n_j, x1, x2) = (4, 4, 3, 4) t = 0.3.  That is the
    # one entry of the grid where kt_step_closed raises TruncationError (it
    # does at t <= 0.3), so the fault is one counted failure every round.
    KERNEL_T = (0.7, 0.3, 1.1, 1.6, 2.0)
    BFPS_GAPS = (2, 3, 4)
    PAD = 20  # gt_pattern_sum window pad
    # Brute Schuetz sums with more than one particle stay at t <= 1, where
    # a displacement reach of 15 leaves a Poisson tail below 1e-13; past
    # that reach schuetz_transition loses its accuracy (see CHANGES.md).
    T_BRUTE = 1.0
    REACH = 15
    REACH_ONE = 21  # one particle: exact residue sums, Poisson(2) tail < 1e-14
    REL, ABS = 1e-9, 1e-12
    KERNEL_REL, KERNEL_ABS = 1e-10, 1e-11

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rng = rng = random.Random(f"{self.name}:{seed}")
        self.step = simulate.make_initial("step")
        self.ops = []
        for _ in range(self.N_ONE):
            y = rng.randint(-3, 3)
            t = rng.uniform(0.2, 2.0)
            self.ops.append(("joint", (y,), t, ((1, y + rng.randint(0, 4)),)))
        for gap, k1, k2 in self.JOINT2:
            y1 = rng.randint(-2, 2)
            y = (y1, y1 - gap)
            events = ((2, y[1] + k2),) if k1 is None else ((1, y1 + k1), (2, y[1] + k2))
            self.ops.append(("joint", y, rng.uniform(0.2, self.T_BRUTE), events))
        for (g1, g2), (k1, k3) in self.JOINT3:
            y1 = rng.randint(-1, 1)
            y = (y1, y1 - g1, y1 - g1 - g2)
            events = ((1, y1 + k1), (3, y[2] + k3))
            self.ops.append(("joint", y, rng.uniform(0.2, self.T_BRUTE), events))
        for n, count in self.ARRAY_SUMS.items():
            for _ in range(count):
                y = self._config(n)
                x = self._moved(y)
                self.ops.append(("array", x, y, rng.uniform(0.2, 2.0)))
        kernel_args = [
            (ni, nj, x1, x2) for ni in range(1, 5) for nj in range(1, 5) for x1, x2 in self.KERNEL_X
        ]
        for k, args in enumerate(kernel_args):
            self.ops.append(("kernel", self.KERNEL_T[k % len(self.KERNEL_T)]) + args)
        for gap in self.BFPS_GAPS:
            y1 = rng.randint(-1, 2)
            y = (y1, y1 - gap)
            self.ops.append(("bfps", y, rng.uniform(0.4, 1.2), (y[1] - 18, y1 + 12)))
        rng.shuffle(self.ops)

    def _config(self, n):
        y = [self.rng.randint(-2, 2)]
        for _ in range(n - 1):
            y.append(y[-1] - self.rng.randint(1, 3))
        return tuple(y)

    def _moved(self, y):
        """A reachable configuration: particles only move right, never past
        the one ahead."""
        x = []
        for i, yi in enumerate(y):
            cap = yi + 3 if i == 0 else min(yi + 3, x[-1] - 1)
            x.append(self.rng.randint(yi, cap))
        return tuple(x)

    def warm_up(self) -> None:
        exact.schuetz_transition((1, -1), (0, -2), 0.5)
        exact.gt_pattern_sum((1, -1), (0, -2), 0.5, pad=4)
        exact.multipoint_probability(0.5, simulate.make_initial("explicit", entries=(0, -2)), [(1, 0)])
        exact.kt_kernel(0.5, self.step, 1, 2, 0, 0)
        exact.kt_step_closed(0.5, 1, 2, 0, 0)

    def references(self) -> None:
        """Only one-particle problems have a reference outside kpzlab."""
        self.poisson = {}
        for op in self.ops:
            if op[0] == "joint" and len(op[1]) == 1:
                (y,), t, ((_, a),) = op[1], op[2], op[3]
                self.poisson[op] = float(pdtrc(a - y, t))

    def _brute_sum(self, y, t, events):
        """P(X_t(n) > a for every event) as a sum of Schuetz transition
        probabilities over configurations of particles 1..max label."""
        n = max(label for label, _ in events)
        y = y[:n]
        reach = self.REACH_ONE if n == 1 else self.REACH
        lower = list(y)
        for label, a in events:
            lower[label - 1] = max(lower[label - 1], a + 1)
        total = 0.0

        def walk(prefix):
            nonlocal total
            i = len(prefix)
            if i == n:
                total += exact.schuetz_transition(prefix, y, t)
                return
            hi = y[0] + reach if i == 0 else prefix[-1] - 1
            for xi in range(lower[i], hi + 1):
                walk(prefix + (xi,))

        walk(())
        return total

    def run_op(self, op) -> list[Outcome]:
        kind = op[0]
        if kind == "joint":
            _, y, t, events = op
            data = simulate.make_initial("explicit", entries=y)
            return [
                attempt((op, "multipoint"), exact.multipoint_probability, t, data, events),
                attempt((op, "brute"), self._brute_sum, y, t, events),
            ]
        if kind == "array":
            _, x, y, t = op
            return [
                attempt((op, "array"), exact.gt_pattern_sum, x, y, t, pad=self.PAD),
                attempt((op, "det"), exact.schuetz_transition, x, y, t),
            ]
        if kind == "kernel":
            _, t, ni, nj, x1, x2 = op
            return [
                attempt((op, "kernel"), exact.kt_kernel, t, self.step, ni, nj, x1, x2,
                        probability=False),
                attempt((op, "closed"), exact.kt_step_closed, t, ni, nj, x1, x2,
                        probability=False),
            ]
        _, y, t, window = op
        data = simulate.make_initial("explicit", entries=y)
        return [
            attempt((op, "bfps"), exact.bfps_l_verify, data, t, window, trials=60,
                    probability=False)
        ]

    def check(self, outcomes):
        bad = []
        got = {o.key: o.value for o in outcomes if not o.failed}
        pairs = {"multipoint": "brute", "array": "det", "kernel": "closed"}
        for (op, route), value in got.items():
            if route in pairs:
                other = got.get((op, pairs[route]))
                rel, abs_ = (
                    (self.KERNEL_REL, self.KERNEL_ABS) if route == "kernel" else (self.REL, self.ABS)
                )
                if other is not None and not _close(value, other, rel, abs_):
                    bad.append(f"{op}: {route} {value!r} vs {pairs[route]} {other!r}")
            if op in self.poisson and route in ("multipoint", "brute"):
                if not _close(value, self.poisson[op], self.REL, self.ABS):
                    bad.append(f"{op}: {route} {value!r} vs Poisson tail {self.poisson[op]!r}")
            if route == "bfps":
                if not (
                    value["max_kernel_dev"] < 1e-6
                    and abs(value["weight_sign"]) == 1.0
                    and value["max_weight_dev"] < 1e-8
                    and value["indicator_mismatches"] == 0
                ):
                    bad.append(f"{op}: bfps_l_verify deviations {value!r}")
        return bad


# ---------------------------------------------------------------------------


class FixedPoint(Workload):
    """F_GUE and an Airy_2 two-point from special's Airy function.  The
    inputs are fixed and do not depend on the seed."""

    name = "fixed-point"
    S_GUE = (-3.0, -1.0, 0.0, 1.0)
    TOL = 1e-10
    LAMBDA_NODES = 120  # lambda-quadrature nodes of the kernel
    LAMBDA_CUT = 40.0  # Ai(u + lam) is 0.0 in special's evaluator past here
    # P(A_2(-1/2) <= -1/4, A_2(1/2) <= -1/4): the limit of the two-point
    # of tasep-scaling
    AIRY2_POINTS = ((-0.5, -0.25), (0.5, -0.25))
    AIRY2_ORDERS = (40, 80)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.lam, self.wl = fredholm.HalfLineUp(0.0).nodes(self.LAMBDA_NODES)
        self.ops = [("gue", s) for s in self.S_GUE]
        self.ops += [("airy2", order) for order in self.AIRY2_ORDERS]

    def _ai(self, u):
        return special.airy_ai_kernel(u[:, None] + self.lam[None, :])

    def airy_kernel(self, x, y):
        """K_Ai(x, y) = int_0^inf Ai(x + lam) Ai(y + lam) dlam, factored."""
        bx = self._ai(x[:, 0])
        by = self._ai(y[0, :])
        return (bx * self.wl[None, :]) @ by.T

    def airy2_kernel(self, i, j, U, V):
        """Extended Airy kernel block, reflected onto (-inf, -b] so that
        block_extended_det's projections apply."""
        d = self.AIRY2_POINTS[i][0] - self.AIRY2_POINTS[j][0]
        u, v = -U[:, 0], -V[0, :]
        cut = self.lam < self.LAMBDA_CUT
        w = np.where(cut, self.wl * np.exp(-np.where(cut, self.lam, 0.0) * d), 0.0)
        out = (self._ai(u) * w[None, :]) @ self._ai(v).T
        if d < 0:
            e = -d
            uu, vv = u[:, None], v[None, :]
            out = out - np.exp(
                -((uu - vv) ** 2) / (4.0 * e) - e * (uu + vv) / 2.0 + e**3 / 12.0
            ) / math.sqrt(4.0 * math.pi * e)
        return out

    def warm_up(self) -> None:
        special.airy_ai_kernel(np.linspace(-1.0, 1.0, 4))
        fredholm.nystrom_det(
            fredholm.NystromProblem(lambda x, y: np.exp(-x - y), fredholm.HalfLineUp(0.0), order=20)
        )

    def references(self) -> None:
        self.gue = {s: oracles.f_gue(s) for s in self.S_GUE}
        self.airy2 = oracles.airy2_joint(self.AIRY2_POINTS)
        self.airy2_marginals = [oracles.f_gue(b) for _, b in self.AIRY2_POINTS]

    def run_op(self, op) -> list[Outcome]:
        if op[0] == "gue":
            res = attempt(
                op, fredholm.nystrom_ladder, self.airy_kernel, fredholm.HalfLineUp(op[1]), tol=self.TOL
            )
            if res.error is None:
                res.value = res.value.value
            return [res]
        problem = fredholm.BlockExtendedProblem(
            self.airy2_kernel, tuple(-b for _, b in self.AIRY2_POINTS), order=op[1]
        )
        return [attempt(op, fredholm.block_extended_det, problem)]

    def check(self, outcomes):
        bad = []
        for o in outcomes:
            if o.failed:
                continue
            want = self.gue[o.key[1]] if o.key[0] == "gue" else self.airy2
            if abs(o.value - want) > self.TOL:
                bad.append(f"{o.key}: {o.value!r} vs {want!r}")
            if o.key[0] == "airy2" and o.value > min(self.airy2_marginals) + oracles.RANGE_SLACK:
                bad.append(f"{o.key}: two-point {o.value!r} above a one-point")
        return bad


# ---------------------------------------------------------------------------


class MonteCarlo(Workload):
    """Flat data (every second site) simulated to t = 8 over a fixed batch."""

    name = "monte-carlo"
    T = 8.0
    D = 2
    WINDOW = (-20, 20)  # height window; sets the light-cone truncation
    BATCH = 400
    RECORD_EVERY = 8  # every 8th seed also runs through evolve_events
    # h_8(z) <= level at two bulk sites, each near its marginal's median;
    # listed right to left so that the labels come out increasing
    EVENT = ((0, -3.0), (-8, -3.0))
    Z = 5.0  # z-bound for frequencies and the Poisson mean

    def __init__(self, seed: int):
        super().__init__(seed)
        self.init = simulate.make_initial("periodic", d=self.D)
        anchor = self.init.anchor()
        self.events = [height_event(anchor, z, level)[0] for z, level in self.EVENT]
        ss = np.random.SeedSequence([seed, 0x6D63])
        self.ops = list(enumerate(int(s) for s in ss.generate_state(self.BATCH, dtype=np.uint64)))

    def warm_up(self) -> None:
        state = simulate.initial_state(self.init, z_lo=self.WINDOW[0], duration=0.5)
        simulate.height(simulate.evolve(state, 0.5, 0), *self.WINDOW)
        simulate.evolve_events(state, 0.5, 0)

    def references(self) -> None:
        self.exact = exact.multipoint_probability(self.T, self.init, self.events)

    def run_op(self, op) -> list[Outcome]:
        k, s = op
        state = simulate.initial_state(self.init, z_lo=self.WINDOW[0], duration=self.T)
        final = simulate.evolve(state, self.T, s)
        out = [Outcome(("run", s), (state, final, simulate.height(final, *self.WINDOW)))]
        if k % self.RECORD_EVERY == 0:
            out.append(Outcome(("log", s), simulate.evolve_events(state, self.T, s)))
        return out  # simulate raises no library error, so no outcome fails

    def check(self, outcomes):
        bad = []
        runs = {o.key[1]: o.value for o in outcomes if o.key[0] == "run"}
        hits = 0
        first = []
        for s, (state, final, h) in runs.items():
            in_event_h = all(
                h.values[z - h.anchor] <= level for z, level in self.EVENT
            )
            in_event_x = all(final.positions[n - 1] > a for n, a in self.events)
            if in_event_h != in_event_x:
                bad.append(f"seed {s}: height and positions disagree on the event")
            hits += in_event_x
            first.append(int(final.positions[0] - state.positions[0]))
        n = len(runs)
        freq = hits / n
        if not oracles.z_ok(freq, self.exact, n, self.Z):
            bad.append(f"event frequency {freq} vs exact {self.exact} over {n} runs")
        mean = float(np.mean(first))
        if abs(mean - self.T) > self.Z * math.sqrt(self.T / n):
            bad.append(f"particle 1 mean displacement {mean} vs Poisson mean {self.T}")
        below = sum(d <= self.T for d in first) / n
        if not oracles.z_ok(below, float(pdtr(self.T, self.T)), n, self.Z):
            bad.append(f"P(displacement <= t) {below} vs Poisson {float(pdtr(self.T, self.T))}")
        for o in outcomes:
            if o.key[0] == "log":
                state, evolved, _ = runs[o.key[1]]
                final, log = o.value
                bad += _replay(state, final, log, evolved, o.key[1])
        return bad


def _replay(state, final, log, evolved, seed) -> list[str]:
    """Apply a jump log to the initial positions: every jump must land on a
    free site, and the end state must match both evolve_events' own state
    and evolve's for the same seed."""
    pos = state.positions.copy()
    occupied = set(pos.tolist())
    times = log["time"]
    if np.any(np.diff(times) < 0):
        return [f"seed {seed}: jump times not ordered"]
    for label, x in zip(log["label"].tolist(), log["position"].tolist()):
        i = label - state.first_label
        if x != pos[i] + 1 or x in occupied:
            return [f"seed {seed}: jump of label {label} to {x} is not onto a free site"]
        occupied.discard(int(pos[i]))
        occupied.add(x)
        pos[i] = x
    if not (np.array_equal(pos, final.positions) and np.array_equal(pos, evolved.positions)):
        return [f"seed {seed}: replayed log does not reproduce evolve"]
    return []


WORKLOADS = {w.name: w for w in (TasepScaling, TasepFinite, FixedPoint, MonteCarlo)}
