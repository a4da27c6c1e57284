"""Span tracing of kpzlab's layers, installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules with
a wrapper that opens a span, and does so in the defining module and in every
kpzlab module that imported the same function object,
so a call from one layer into another is caught as a child span.  Spans are
kept in memory as (id, parent, name, start, end); each span's self time is
its duration minus the time its direct children cover.

A few wrappers also read arguments or results to count work where it
happens: Airy values, quadrature nodes, determinant sizes, ladder rungs and
simulated jumps.  Kernel callables handed to the Nystrom and block solvers
are wrapped as `kernel` spans, so the solvers' self time excludes them.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import time
from collections import defaultdict

import numpy as np

LAYERS = ("special", "dpp", "fredholm", "exact", "simulate")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._ids = itertools.count()

    # ------------------------------------------------------------- records

    def _open(self, name: str) -> None:
        self._stack.append([next(self._ids), name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, parent[0] if parent else -1, name, start, end))
        self.self_time[name] += dur - child
        self.total_time[name] += dur
        self.calls[name] += 1

    def parent_name(self) -> str | None:
        return self._stack[-2][1] if len(self._stack) >= 2 else None

    # ------------------------------------------------------------ wrapping

    def _wrap(self, qualname: str, func):
        hook = _HOOKS.get(qualname)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self._open(qualname)
            try:
                if hook is not None:
                    return hook(self, func, args, kwargs)
                return func(*args, **kwargs)
            finally:
                self._close()

        return traced

    def kernel(self, func):
        """Wrap a kernel callback so its time is not charged to the solver."""

        def traced_kernel(*args):
            self._open("kernel")
            try:
                return func(*args)
            finally:
                self._close()

        return traced_kernel

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        targets = [self.package, *self.modules.values()]
        for ns in targets:
            for name, obj in list(vars(ns).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((ns, name, obj))
                    setattr(ns, name, hit[1])

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._saved):
            setattr(ns, name, obj)
        self._saved.clear()

    # ------------------------------------------------------------- reports

    def self_s(self, *names: str) -> float:
        return sum(self.self_time.get(n, 0.0) for n in names)

    def total_s(self, *names: str) -> float:
        return sum(self.total_time.get(n, 0.0) for n in names)

    def n_calls(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)


# Hooks run inside the span of the function they serve.


def _count_airy(tr, func, args, kwargs):
    tr.counts["airy_values"] += np.size(args[0])
    return func(*args, **kwargs)


def _count_quadrature(tr, func, args, kwargs):
    res = func(*args, **kwargs)
    tr.counts["quadrature_nodes"] += res.nodes
    return res


def _count_det_window(tr, func, args, kwargs):
    n = len(args[0])
    tr.counts["det_window_flops"] += 2.0 * n**3 / 3.0
    tr.counts["det_window_dim_max"] = max(tr.counts["det_window_dim_max"], n)
    if tr.parent_name() == "exact.multipoint_probability":
        tr.counts["window_levels"] += 1
    return func(*args, **kwargs)


def _nystrom_ladder(tr, func, args, kwargs):
    from kpzlab.fredholm import ORDER_LADDER

    args = (tr.kernel(args[0]),) + tuple(args[1:])
    res = func(*args, **kwargs)
    tr.counts["nystrom_orders"] += ORDER_LADDER.index(res.order) + 1
    return res


def _kernel_problem(tr, func, args, kwargs):
    problem = dataclasses.replace(args[0], kernel=tr.kernel(args[0].kernel))
    return func(problem, *args[1:], **kwargs)


def _count_jumps(tr, func, args, kwargs):
    out = func(*args, **kwargs)
    new_state = out[0] if isinstance(out, tuple) else out
    tr.counts["jumps"] += int((new_state.positions - args[0].positions).sum())
    return out


_HOOKS = {
    "special.airy_ai": _count_airy,
    "special.airy_ai_kernel": _count_airy,
    "special.circle_quadrature": _count_quadrature,
    "fredholm.det_window": _count_det_window,
    "fredholm.nystrom_ladder": _nystrom_ladder,
    "fredholm.nystrom_det": _kernel_problem,
    "fredholm.block_extended_det": _kernel_problem,
    "simulate.evolve": _count_jumps,
    "simulate.evolve_events": _count_jumps,
}


def per_layer_metrics(
    tr: Tracer, rounds: int, overhead_s: float, calibration_s: float, scale: float
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, per round, as (value,
    unit).  Times are self times, failed calls included, multiplied by
    `scale` to bring them to the benchmark's reference speed; the simulate
    entries include their calls within the layer (stream keys, inverse
    labels).  Rates are taken over all traced rounds."""
    per = 1.0 / rounds

    def s(*names):
        return tr.self_s(*names) * scale

    def total(*names):
        return tr.total_s(*names) * scale

    n, c = tr.n_calls, tr.counts
    airy_s = s("special.airy_ai", "special.airy_ai_kernel")
    mp_calls = n("exact.multipoint_probability")
    evolve_s = total("simulate.evolve")
    record_s = total("simulate.evolve_events")
    return {
        "special.airy_values": (c["airy_values"] * per, "count"),
        "special.airy_s": (airy_s * per, "s"),
        "special.airy_values_per_s": (c["airy_values"] / airy_s if airy_s else 0.0, "1/s"),
        "special.quadrature_calls": (n("special.circle_quadrature") * per, "count"),
        "special.quadrature_nodes": (c["quadrature_nodes"] * per, "count"),
        "special.quadrature_s": (s("special.circle_quadrature") * per, "s"),
        "special.schuetz_F_s": (s("special.schuetz_F") * per, "s"),
        "fredholm.nystrom_s": (s("fredholm.nystrom_ladder", "fredholm.nystrom_det") * per, "s"),
        "fredholm.nystrom_orders": (c["nystrom_orders"] * per, "count"),
        "fredholm.block_det_s": (s("fredholm.block_extended_det") * per, "s"),
        "fredholm.det_window_calls": (n("fredholm.det_window") * per, "count"),
        "fredholm.det_window_s": (s("fredholm.det_window") * per, "s"),
        "fredholm.det_window_dim_max": (c["det_window_dim_max"], "count"),
        "fredholm.det_window_flops": (c["det_window_flops"] * per, "flop"),
        "exact.multipoint_calls": (mp_calls * per, "count"),
        "exact.multipoint_s": (s("exact.multipoint_probability") * per, "s"),
        "exact.window_levels": (c["window_levels"] / mp_calls if mp_calls else 0.0, "count"),
        "exact.epi_transfer_s": (s("exact.epi_transfer_matrix") * per, "s"),
        "exact.hitting_s": (s("exact.hitting_profile") * per, "s"),
        "exact.path_product_s": (s("exact.path_integral_probability") * per, "s"),
        "exact.transition_s": (s("exact.schuetz_transition") * per, "s"),
        "exact.array_sum_s": (s("exact.gt_pattern_sum") * per, "s"),
        "exact.kt_kernel_s": (s("exact.kt_kernel") * per, "s"),
        "dpp.conditional_s": (s("dpp.conditional_l_to_k") * per, "s"),
        "simulate.runs": (n("simulate.evolve", "simulate.evolve_events") * per, "count"),
        "simulate.jumps": (c["jumps"] * per, "count"),
        "simulate.evolve_s": (evolve_s * per, "s"),
        "simulate.jumps_per_s": (
            c["jumps"] / (evolve_s + record_s) if evolve_s + record_s else 0.0,
            "1/s",
        ),
        "simulate.record_s": (record_s * per, "s"),
        "simulate.height_s": (total("simulate.height") * per, "s"),
        "simulate.initial_state_s": (total("simulate.initial_state") * per, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "host.calibration_s": (calibration_s, "s"),
    }
