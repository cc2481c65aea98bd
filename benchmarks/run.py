"""Benchmark of the w1clt Monte Carlo pipelines, one workload per invocation.

    python3 benchmarks/run.py --workload doubling_dependent --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from the `src/` tree next to this
directory, so the numbers belong to that source.  The workload's inputs are
built from `--seed`, then the whole pipeline (inputs to verdict) runs again
and again, at the harness's `threads=2`, until `--seconds` would be
exceeded, always at least twice.  Every run is checked against the
acceptance suite's tolerances and must give the same output digest as the
first.

`--trace 0` reports the end-to-end metrics (medians over the runs):

* `wall_s`: inputs to verdict, including calibration, covariance, limit
  sampling, the T_n replicates, the checkers and the comparison, but not
  the benchmark's own recomputations that check the output;
* `tn_rows_per_s`: T_n replicates per second of the harness call that makes
  them (`run_clt_experiment` or `divergence_probe`);
* `setup_s`: importing w1clt and building the specs, models, grids and config,
  timed in fresh interpreters (median of at least SETUP_SAMPLES, taken
  between the pipeline runs so they meet the same machine state, after one
  untimed interpreter that warms the file cache and compiles bytecode);
* `peak_rss_mb`: peak resident memory of this process;
* `ok_frac`: operations that did not fail over those attempted (T_n
  replicates, limit draws and correctness checks).

`--trace 1` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones (see spans.py), plus `trace.overhead_frac`.  The
spans of the last traced run are written to `.bench_out/` at the repo root.
The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 15
MIN_RUNS = 2


def _use_source_tree() -> None:
    if not (SRC / "w1clt" / "__init__.py").is_file():
        sys.exit(f"benchmark: no w1clt package under {SRC}")
    sys.path.insert(0, str(SRC))


def setup_child(name: str, seed: int) -> None:
    """Time import plus input building in this fresh interpreter; print seconds."""
    start = time.perf_counter()
    _use_source_tree()
    import workloads

    wl = workloads.WORKLOADS[name]
    wl.setup(wl.full, seed)
    print(repr(time.perf_counter() - start))


def setup_seconds(name: str, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"benchmark: set-up of {name} failed")
    return float(proc.stdout.strip().splitlines()[-1])


def environment(threads: int, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "harness_threads": threads,
        "seed": seed,
    }


def _blas_threads(np):
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _use_source_tree()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    wl, threads = workloads.WORKLOADS[args.workload], workloads.THREADS
    env = environment(threads, args.seed)
    print("environment " + json.dumps(env, sort_keys=True), flush=True)

    setup = []
    if not args.trace:
        setup_seconds(wl.name, args.seed)  # untimed warm-up
    inputs = wl.setup(wl.full, args.seed)

    walls = {False: [], True: []}  # traced? -> wall seconds
    rates, layers, outcomes = [], [], []
    recorder = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        rec = spans.Recorder() if traced else spans.NullRecorder()
        t0 = time.perf_counter()
        if traced:
            with rec.installed(inputs.reference_models):
                out = wl.run(inputs, threads, rec)
        else:
            out = wl.run(inputs, threads, rec)
        wall = time.perf_counter() - t0
        out.verify()
        walls[traced].append(wall)
        outcomes.append(out)
        if traced:
            layers.append(spans.layer_metrics(rec, out, threads))
            recorder = rec
        else:
            rates.append(out.tn_rows / out.tn_s)
        print(f"run {len(outcomes)}: {'traced' if traced else 'untraced'} wall {wall:.3f} s, "
              f"{out.tn_rows} T_n rows in {out.tn_s:.3f} s, digest {out.digest}", flush=True)
        done = len(outcomes)
        elapsed = time.perf_counter() - start
        step = elapsed / done * (2 if args.trace else 1)
        if not args.trace:
            runs_left = int(max(0.0, args.seconds - elapsed) / step)
            missing = SETUP_SAMPLES - len(setup)
            for _ in range(max(1, math.ceil(missing / max(1, runs_left)))):
                setup.append(setup_seconds(wl.name, args.seed))
            elapsed = time.perf_counter() - start
        enough = (done >= MIN_RUNS and len(setup) >= (0 if args.trace else SETUP_SAMPLES)
                  and (not args.trace or done % 2 == 0))
        if enough and elapsed + step > args.seconds:
            break

    first = outcomes[0]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for name, ok, detail in first.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}: {detail}")
    for name, detail in first.margins:
        print(f"margin (not gated): {name}: {detail}")
    stable = all(o.digest == first.digest and o.digest for o in outcomes)
    attempted += 1
    failed += 0 if stable else 1
    print(f"check {'PASS' if stable else 'FAIL'}: digest repeats over {len(outcomes)} runs: "
          f"sha256 {first.digest}")
    if any(not ok for o in outcomes for _, ok, _ in o.checks):
        for i, o in enumerate(outcomes, 1):
            for name, ok, detail in o.checks:
                if not ok:
                    print(f"run {i} FAIL: {name}: {detail}")

    if args.trace:
        metrics = spans.median_metrics(layers)
        metrics["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        units = spans.PER_LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "tn_rows_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kb / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"wall_s": "s", "tn_rows_per_s": "1/s", "setup_s": "s",
                 "peak_rss_mb": "MB", "ok_frac": "frac"}
        print(f"setup samples (s): {[round(s, 4) for s in setup]}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--setup-child":
        setup_child(sys.argv[2], int(sys.argv[4]))
    else:
        sys.exit(main())
