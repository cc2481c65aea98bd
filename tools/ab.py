"""Paired A/B timing of single w1clt calls in a parent and a child source tree.

Usage, from anywhere::

    python tools/ab.py PARENT CHILD [--pairs 40] [--cases w1_pareto,...] [--json FILE]

PARENT and CHILD are repository roots, each with ``src/w1clt`` (an archive
of a commit unpacked in a scratch directory, say).  Two worker processes stay
alive, each importing one tree, and run one call of a case when asked.  Pair
i asks for every case in turn, from both trees, the parent first when i is
even and the child first when it is odd.  After half of the pairs the
workers are restarted with the trees swapped, so a bias of one worker slot
(which started first, which CPU it landed on) falls on both trees alike.

For each case the log ratios log(child time / parent time) of the pairs are
summarised by their median, with a percentile bootstrap interval of the
median (2,000 resamples of the pairs, 95%), and the outputs of the two
trees are compared by the SHA-256 digest of their bytes.  A layer ratio is
evidence about one call, not an end-to-end gain; the benchmark's
alternating pairs stay the gate.

The cases are the exact W1 against each reference kind, stream seeding, and
the T_n rows of the two per-row dependent variants end to end:

* ``w1_pareto``: 64 rows of 10**4 draws against ``ParetoTail(1, 4)``;
* ``w1_tabulated``: 64 rows of 8,192 heavy-tailed draws against a 2,050-knot
  ``Tabulated`` table calibrated from 2**17 draws of the same law;
* ``w1_uniform``: 256 rows of 2,048 uniform draws against ``Uniform(0, 1)``;
* ``stream_seeding``: ``generate_batch`` of 1,536 one-value iid rows, one
  stream each, so that seeding the streams is most of the call;
* ``tn_doubling``: ``run_clt_experiment`` at one process of 256 doubling-map
  rows of 10**4 values against ``ParetoTail(1, 4)``, ``doubling_dependent``'s
  rows at half its replicates;
* ``tn_linear``: ``run_clt_experiment`` at one process of 256 MA(inf) rows
  (``PolynomialCoeffs(3)``, J = 1,024, uniform innovations) at each of n =
  1,024 and 2,048 against a table calibrated from 20,480 values, as in
  ``linear_long_memory``.

The W1 inputs come from numpy's own generator, not from w1clt, so both trees
score the same bytes; the T_n cases' rows come from w1clt's seeded streams,
so their equal bytes show that both trees generate and score alike.  It
needs only numpy and the standard library.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

CASES = ("w1_pareto", "w1_tabulated", "w1_uniform", "stream_seeding", "tn_doubling",
         "tn_linear")
TREES = ("parent", "child")


# ---------------------------------------------------------------------------
# the controller: a schedule of pairs, and its summary
# ---------------------------------------------------------------------------

def schedule(pairs: int) -> list[tuple[str, str, bool]]:
    """For each pair, the tree that runs first, the other, and whether the
    workers run swapped (worker 0 on the child) from then on: from pair
    ``pairs // 2``."""
    return [(TREES[i % 2], TREES[1 - i % 2], i >= pairs // 2) for i in range(pairs)]


def worker_of(tree: str, swapped: bool) -> int:
    """The worker slot running ``tree``: 0 runs the parent until the swap."""
    return int((tree == "child") != swapped)


def run_pairs(pairs: int, call, cases=CASES, restart=None) -> dict:
    """Timings and digests of ``pairs`` pairs of each case.

    ``call(slot, case)`` runs one call in a worker and returns its seconds and
    digest; ``restart(swapped)`` is called before the first pair and at the
    swap, to (re)start the workers with their trees.
    """
    times = {case: {tree: [] for tree in TREES} for case in cases}
    digests = {case: {tree: set() for tree in TREES} for case in cases}
    state = None
    for first, second, swapped in schedule(pairs):
        if swapped != state:
            state = swapped
            if restart is not None:
                restart(swapped)
        for case in cases:
            for tree in (first, second):
                seconds, digest = call(worker_of(tree, swapped), case)
                times[case][tree].append(seconds)
                digests[case][tree].add(digest)
    return {"times": times, "digests": digests}


def log_ratios(parent, child) -> np.ndarray:
    return np.log(np.asarray(child, dtype=float) / np.asarray(parent, dtype=float))


def bootstrap_median_interval(values, draws: int = 2000, level: float = 0.95,
                              seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap interval of the median of ``values``."""
    values = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    medians = np.median(values[rng.integers(0, len(values), size=(draws, len(values)))],
                        axis=1)
    tail = (1.0 - level) / 2.0
    low, high = np.quantile(medians, [tail, 1.0 - tail])
    return float(low), float(high)


def summarize(run: dict) -> list[dict]:
    """One row per case: pairs, median log ratio with its interval, the child's
    time over the parent's, each tree's median seconds and whether the output
    bytes matched (one digest per tree, and the same one)."""
    rows = []
    for case, by_tree in run["times"].items():
        ratios = log_ratios(by_tree["parent"], by_tree["child"])
        low, high = bootstrap_median_interval(ratios)
        median = float(np.median(ratios))
        seen = run["digests"][case]
        rows.append({
            "case": case, "pairs": len(ratios), "median_log_ratio": median,
            "interval": [low, high], "child_over_parent": math.exp(median),
            "parent_median_s": float(np.median(by_tree["parent"])),
            "child_median_s": float(np.median(by_tree["child"])),
            "bytes_equal": len(seen["parent"]) == 1 and seen["parent"] == seen["child"],
        })
    return rows


# ---------------------------------------------------------------------------
# the worker: one tree, its inputs built once, one timed call per request
# ---------------------------------------------------------------------------

def _inputs(case: str):
    """The call of ``case``; a W1 case's inputs are built from numpy's generator."""
    from w1clt.harness import ExperimentConfig, run_clt_experiment
    from w1clt.models import ParetoTail, Uniform
    from w1clt.processes import (IID, CausalLinear, DoublingMap, PolynomialCoeffs,
                                 generate_batch, tabulate_cdf)
    from w1clt.transport import w1_sample_vs_model

    rng = np.random.default_rng(20240501)
    if case == "w1_pareto":
        rows = (1.0 - rng.random((64, 10_000))) ** -0.25
        return lambda: w1_sample_vs_model(rows, ParetoTail(1.0, 4.0))
    if case == "w1_tabulated":
        law = lambda u: (1.0 - u) ** (-1.0 / 2.25)
        calib = law(rng.random(2**17))
        table = tabulate_cdf(calib, np.quantile(calib, (np.arange(2050) + 0.5) / 2050))
        rows = law(rng.random((64, 8192)))
        return lambda: w1_sample_vs_model(rows, table)
    if case == "w1_uniform":
        rows = rng.random((256, 2048))
        return lambda: w1_sample_vs_model(rows, Uniform(0.0, 1.0))
    if case == "stream_seeding":
        return lambda: generate_batch(IID(Uniform(0.0, 1.0)), 1, 1536, seed=7)
    if case == "tn_doubling":
        cfg = ExperimentConfig(DoublingMap(0.25, burn_in=0), [10_000], 256, 3,
                               reference_model=ParetoTail(1.0, 4.0))
    elif case == "tn_linear":
        cfg = ExperimentConfig(CausalLinear(PolynomialCoeffs(3.0), Uniform(-1.0, 1.0), 1024),
                               [1024, 2048], 256, 3, calibration_length=20_480)
    else:
        raise SystemExit(f"ab: unknown case {case}")
    return lambda: np.concatenate([s.values for s in run_clt_experiment(cfg).values()])


def _serve() -> None:
    """Answer one JSON request a line on stdin: run the case once, untimed the
    first time, and reply with its seconds and output digest."""
    calls = {}
    for line in sys.stdin:
        case = json.loads(line)["case"]
        if case not in calls:
            calls[case] = _inputs(case)
            calls[case]()
        start = time.perf_counter()
        out = calls[case]()
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
        print(json.dumps({"seconds": seconds, "digest": digest}), flush=True)


class _Workers:
    def __init__(self, parent: Path, child: Path):
        self.trees = {"parent": parent, "child": child}
        self.procs = []

    def restart(self, swapped: bool) -> None:
        self.close()
        order = ("child", "parent") if swapped else ("parent", "child")
        for tree in order:
            env = {**os.environ, "PYTHONPATH": str(self.trees[tree] / "src")}
            self.procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--worker"], env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))

    def call(self, slot: int, case: str) -> tuple[float, str]:
        proc = self.procs[slot]
        proc.stdin.write(json.dumps({"case": case}) + "\n")
        proc.stdin.flush()
        reply = proc.stdout.readline()
        if not reply:
            raise SystemExit(f"ab: worker {slot} exited on case {case}")
        reply = json.loads(reply)
        return reply["seconds"], reply["digest"]

    def close(self) -> None:
        for proc in self.procs:
            proc.stdin.close()
            proc.wait()
        self.procs = []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", type=Path)
    ap.add_argument("child", nargs="?", type=Path)
    ap.add_argument("--pairs", type=int, default=40)
    ap.add_argument("--cases", default=",".join(CASES))
    ap.add_argument("--json", type=Path)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _serve()
        return 0
    if args.parent is None or args.child is None:
        ap.error("PARENT and CHILD are required")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    cases = tuple(args.cases.split(","))
    for tree in (args.parent, args.child):
        if not (tree / "src" / "w1clt" / "__init__.py").is_file():
            ap.error(f"no w1clt package under {tree / 'src'}")
    workers = _Workers(args.parent.resolve(), args.child.resolve())
    try:
        rows = summarize(run_pairs(args.pairs, workers.call, cases, workers.restart))
    finally:
        workers.close()
    for row in rows:
        low, high = row["interval"]
        print(f"{row['case']:>15}  child/parent {row['child_over_parent']:.3f}  "
              f"log ratio {row['median_log_ratio']:+.4f} [{low:+.4f}, {high:+.4f}]  "
              f"{row['parent_median_s'] * 1e3:.2f} -> {row['child_median_s'] * 1e3:.2f} ms  "
              f"bytes {'equal' if row['bytes_equal'] else 'differ'}")
    if args.json is not None:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
