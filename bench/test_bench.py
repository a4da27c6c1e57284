"""Checks of the benchmark's own oracles, result checks and tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from kpzlab import exact, fredholm, simulate  # noqa: E402

# ------------------------------------------------------------------ oracles


def test_f_gue_matches_published_values():
    # Tracy-Widom GUE distribution, as tabulated from Painleve II
    assert oracles.f_gue(-1.0) == pytest.approx(0.80721424199929, abs=1e-13)
    assert oracles.f_gue(0.0) == pytest.approx(0.9693728283553, abs=1e-12)


def test_airy_kernel_diagonal_is_the_limit():
    u = np.array([-1.3, 0.2, 2.5])
    near = oracles.airy_kernel(u, u + 1e-7)
    exact_diag = oracles.airy_kernel(u, u)
    assert np.allclose(np.diag(near), np.diag(exact_diag), atol=1e-6)


@pytest.mark.parametrize("x, b", [(0.0, -1.0), (0.7, 0.5), (-2.0, -2.5)])
def test_airy2_single_block_is_f_gue(x, b):
    assert oracles.airy2_joint([(x, b)]) == pytest.approx(oracles.f_gue(b), abs=1e-14)


def test_airy2_two_point_is_symmetric_and_within_frechet_bounds():
    a, b = (-0.5, -0.25), (0.5, 0.3)
    p = oracles.airy2_joint([a, b])
    assert oracles.airy2_joint([b, a]) == pytest.approx(p, abs=1e-13)
    fa, fb = oracles.f_gue(a[1]), oracles.f_gue(b[1])
    assert fa + fb - 1.0 < p < min(fa, fb)


# ------------------------------------------------------------------- checks


@pytest.mark.parametrize(
    "value", [4.5624, 1.0463, 1.4487, 1227395128.5, -1e-6, math.nan, math.inf]
)
def test_probability_check_rejects(value):
    assert not oracles.probability_ok(value)


@pytest.mark.parametrize("value", [0.0, 1.0, 0.5, 1.0 + 1e-13, -1e-13])
def test_probability_check_accepts(value):
    assert oracles.probability_ok(value)


def test_limit_check_rejects_out_of_range_values_near_the_limit():
    # 1.0463 is within 0.5 eps^(1/2) of F_GUE(0) at eps = 0.04, but is no
    # probability
    assert abs(1.0463 - oracles.f_gue(0.0)) < 0.5 * math.sqrt(0.04)
    assert not oracles.within_limit(1.0463, oracles.f_gue(0.0), 0.04, 0.5)


def test_limit_check_scales_with_sqrt_eps():
    limit = 0.5
    assert oracles.within_limit(0.45, limit, 0.04, 0.5)
    assert not oracles.within_limit(0.45, limit, 0.0025, 0.5)


def test_monotonicity_check():
    assert oracles.nondecreasing_in_r([(-1, 0.3), (0, 0.7), (1, 0.9)])
    assert oracles.nondecreasing_in_r([(-1, 0.3), (0, None), (1, 0.9)])
    assert not oracles.nondecreasing_in_r([(-1, 0.3), (0, 0.2), (1, 0.9)])


def test_z_check():
    assert oracles.z_ok(0.52, 0.5, 400, 5.0)
    assert not oracles.z_ok(0.7, 0.5, 400, 5.0)


def test_height_event_matches_height_field():
    rng = np.random.default_rng(3)
    for kind, d in (("step", None), ("periodic", 2)):
        init = simulate.make_initial(kind, d=d)
        start = simulate.initial_state(init, 40)
        for seed in rng.integers(0, 2**32, size=20):
            state = simulate.evolve(start, 3.0, int(seed))
            h = simulate.height(state, -6, 6)
            for z in range(-6, 7):
                for level in (-7.5, -5.0, -3.0, -2.2, 0.0, 4.0):
                    in_h = h.values[z + 6] <= level
                    try:
                        (n, a), h_lat = workloads.height_event(init.anchor(), z, level)
                    except ValueError:  # the event holds for every path
                        assert in_h
                        continue
                    assert in_h == (state.positions[n - 1] > a)
                    assert in_h == (h.values[z + 6] <= h_lat)


# ------------------------------------------------------------------- tracer


def test_tracer_catches_calls_between_layers_and_uninstalls():
    import kpzlab

    original = fredholm.det_window
    tr = tracer.Tracer(kpzlab)
    tr.install()
    try:
        assert exact.det_window is fredholm.det_window is not original
        exact.multipoint_probability(0.5, simulate.make_initial("step"), [(1, 0)])
    finally:
        tr.uninstall()
    assert exact.det_window is original and fredholm.det_window is original
    names = {sid: name for sid, _, name, _, _ in tr.spans}
    parents = {names[parent] for _, parent, name, _, _ in tr.spans if name == "fredholm.det_window"}
    assert parents == {"exact.multipoint_probability"}
    assert tr.counts["window_levels"] == tr.n_calls("fredholm.det_window") >= 2
    total = sum(end - start for _, parent, _, start, end in tr.spans if parent == -1)
    assert sum(tr.self_time.values()) == pytest.approx(total, rel=1e-9)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import kpzlab

    got = tracer.per_layer_metrics(tracer.Tracer(kpzlab), 1, 0.0, 0.1, 1.0)
    assert list(got) == [m["name"] for m in spec["per_layer"]]
    assert all(got[m["name"]][1] == m["unit"] for m in spec["per_layer"])
