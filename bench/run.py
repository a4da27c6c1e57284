"""Run one kpzlab benchmark workload and print its metrics.

    python3 bench/run.py --workload tasep-scaling --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
The workload repeats whole rounds of its fixed operations until `--seconds`
have passed (at least one round) and checks every round.  With `--trace 0`
the end-to-end metrics are reported; with `--trace 1` half the time runs
untraced and half traced, and the per-layer metrics and the tracing
overhead are reported.  A round's solve time leaves out the time spent in
operations that failed, which is printed apart.  Times are given at a
reference speed: each 0.5 s of work is scaled by CAL_REF_S over the time of
calibrate() around it, because the host's own speed drifts (see README.md).
`--workload all` runs the four workloads in one process.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, whatever the environment asks for, set before numpy is
# imported: the workloads are single-threaded, and the large-t failures of
# tasep-scaling change form (a wrong value or TruncationError, at another
# cost) with the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 4  # extra fresh-process set-ups; setup_s is the median of 5
PROBE_TIMEOUT_S = 60
TRACE_DIR = ROOT / ".bench_out"
# Times are reported at the speed at which calibrate() takes this long.
CAL_REF_S = 0.1
SEGMENT_S = 0.5  # work between calibrations


def import_library():
    """Import kpzlab from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(ROOT / "src"))
    import kpzlab

    where = Path(kpzlab.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"kpzlab imported from {where}, not from {ROOT / 'src'}")
    return kpzlab


def set_up(name: str, seed: int):
    """Import, build the inputs and make the first calls."""
    import_library()
    from workloads import WORKLOADS

    work = WORKLOADS[name](seed)
    work.warm_up()
    return work


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    import numpy
    import scipy
    from kpzlab import simulate

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "cpus": os.cpu_count(),
        "numba": simulate.HAVE_NUMBA,
    }


def calibrate() -> float:
    """Seconds taken by a fixed piece of work that uses no kpzlab code:
    Python loops, numpy scalar indexing and small LAPACK determinants."""
    import numpy as np

    m = np.random.default_rng(0).random((160, 160))
    t0 = time.perf_counter()
    s = 0
    for i in range(450_000):
        s += i * i % 7
    a = np.arange(64.0)
    x = 0.0
    for i in range(200_000):
        x += a[i & 63] * 0.5
    for _ in range(140):
        np.linalg.det(m)
    return time.perf_counter() - t0


def run_rounds(work, seconds: float):
    """Whole rounds until `seconds` have passed, at least one.

    Each round starts from a collected heap and is checked before the next.
    A round's solve time is the time of its operations less the time spent
    in the ones that failed; that time is kept apart, so that a failure that
    becomes quicker or slower does not move the solve time.  calibrate()
    runs whenever SEGMENT_S of work has passed, and at the end of each
    round; each segment's times are scaled by CAL_REF_S over the mean of the
    two calibrations around it.  Returns each round's solve time and failed
    time at the reference speed, the calibration times, the operation and
    failure counts and the failed checks."""
    times, failed_times, cals = [], [], [calibrate()]
    attempted, failed, failures = 0, 0, []
    start = time.perf_counter()
    while True:
        gc.collect()
        out, solve_s, failed_s = [], 0.0, 0.0
        seg, wall = 0, 0.0
        for k, op in enumerate(work.ops):
            t0 = time.perf_counter()
            out += work.run_op(op)
            wall += time.perf_counter() - t0
            if wall >= SEGMENT_S or k == len(work.ops) - 1:
                cals.append(calibrate())
                scale = CAL_REF_S / (0.5 * (cals[-2] + cals[-1]))
                lost = sum(o.seconds for o in out[seg:] if o.failed)
                solve_s += (wall - lost) * scale
                failed_s += lost * scale
                seg, wall = len(out), 0.0
        times.append(solve_s)
        failed_times.append(failed_s)
        attempted += len(out)
        failed += sum(o.failed for o in out)
        failures += work.check(out)
        del out
        if time.perf_counter() - start >= seconds:
            return times, failed_times, cals, attempted, failed, failures


def setup_probe_times(name: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def write_spans(tracer, name: str, seed: int) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"spans-{name}-seed{seed}.csv"
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_s,end_s\n")
        for sid, parent, span, start, end in tracer.spans:
            fh.write(f"{sid},{parent},{span},{start:.9f},{end:.9f}\n")
    return path


def run_workload(work, setup_s: float, seconds: float, trace: bool) -> dict:
    name = work.name
    work.references()
    if trace:
        import kpzlab
        from tracer import Tracer, per_layer_metrics

        plain, failed_times, cals, attempted, failed, failures = run_rounds(work, seconds / 2.0)
        tracer = Tracer(kpzlab)
        tracer.install()
        try:
            traced, more_failed, more_cals, *counts = run_rounds(work, seconds / 2.0)
        finally:
            tracer.uninstall()
        attempted, failed, failures = attempted + counts[0], failed + counts[1], failures + counts[2]
        failed_times += more_failed
        cals += more_cals
        overhead = statistics.median(traced) - statistics.median(plain)
        scale = CAL_REF_S / statistics.median(more_cals)
        metrics = per_layer_metrics(tracer, len(traced), overhead, statistics.median(cals), scale)
        print(f"# spans: {write_spans(tracer, name, work.seed).relative_to(ROOT)}")
        times = plain + traced
    else:
        times, failed_times, cals, attempted, failed, failures = run_rounds(work, seconds)
        setups = [setup_s] + setup_probe_times(name, work.seed)
        solve_s = statistics.median(times)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (solve_s, "s"),
            "ops_per_s": ((attempted - failed) / len(times) / solve_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print("# set-up times: " + ", ".join(f"{s:.4g}" for s in setups) + " s")
        print(f"# wall clock: solve {solve_s * statistics.median(cals) / CAL_REF_S:.4g} s;"
              f" calibration {statistics.median(cals):.4g} s against {CAL_REF_S} s")
    rounds = len(times)
    print(f"# {name}: {rounds} rounds, {attempted} operations, {failed} failed;"
          f" per round {statistics.median(times):.4g} s solving,"
          f" {statistics.median(failed_times):.4g} s in failed operations")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    for line in dict.fromkeys(failures):
        print(f"# CHECK FAILED {name}: {line}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        first = set_up("tasep-scaling" if args.workload == "all" else args.workload, args.seed)
    except (ImportError, KeyError) as exc:
        print(f"bench: cannot set up {args.workload!r}: {exc!r}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    print("# env: " + json.dumps(environment()))
    if args.workload != "all":
        result = run_workload(first, setup_s, args.seconds, bool(args.trace))
    else:
        from workloads import WORKLOADS

        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name, cls in WORKLOADS.items():
            if name == first.name:
                work, s = first, setup_s
            else:
                t0 = time.perf_counter()
                work = cls(args.seed)
                work.warm_up()
                s = time.perf_counter() - t0
            one = run_workload(work, s, args.seconds, bool(args.trace))
            result["correct"] &= one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
