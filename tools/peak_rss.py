"""Peak resident memory of a benchmark workload's caller and its helper processes.

Usage, from anywhere::

    python tools/peak_rss.py TREE [TREE ...] [--workload doubling_dependent]
                             [--seed 1] [--runs 8] [--json FILE]

Each TREE is a repository root with ``src/w1clt`` and ``benchmarks/`` (an
archive of a commit unpacked in a scratch directory, say).  A run is one
fresh interpreter that imports the tree's ``benchmarks/workloads.py``, builds
the workload's full-size inputs from ``--seed``, runs its pipeline twice at
the benchmark's process count, as the benchmark runs it at least twice, and
checks the outputs.  It then reports ``getrusage``'s peak resident set of
itself (``RUSAGE_SELF``, the caller) and of its largest finished child
(``RUSAGE_CHILDREN``: the forked harness helpers, which the pool joins before
each pipeline returns).  The benchmark's own ``peak_rss_mb`` is the caller's
alone.  Runs alternate between the trees, in the given order in runs 1, 3,
5, ... and in reverse in the others, so machine drift falls on every tree
alike.

It needs only the standard library; the workload imports numpy and scipy.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def measure(tree: Path, workload: str, seed: int) -> dict:
    """Run the workload of ``tree`` twice in this interpreter; the caller's and the
    largest helper's peaks in MB, and the output digest."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks")]
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs = wl.setup(wl.full, seed)
    for _ in range(2):
        out = wl.run(inputs, workloads.THREADS, spans.NullRecorder())
        out.verify()
        if out.failed:
            raise SystemExit(f"peak_rss: {workload} failed {out.failed} operations")
    # ru_maxrss is in KiB on Linux
    return {"self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "digest": out.digest}


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """``measure`` on ``tree`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(tree), "--measure",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"peak_rss: the run on {tree} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", type=Path)
    ap.add_argument("--workload", default="doubling_dependent")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=8)
    ap.add_argument("--json", type=Path)
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    trees = [t.resolve() for t in args.trees]
    for tree in trees:
        if not (tree / "src" / "w1clt" / "__init__.py").is_file():
            ap.error(f"no w1clt package under {tree / 'src'}")
    if args.measure:
        print(json.dumps(measure(trees[0], args.workload, args.seed)))
        return 0
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    runs = {str(t): [] for t in trees}
    for i in range(args.runs):
        for tree in (trees if i % 2 == 0 else trees[::-1]):
            runs[str(tree)].append(run_once(tree, args.workload, args.seed))
    summary = {}
    for tree, rows in runs.items():
        summary[tree] = {
            "self_mb": [r["self_mb"] for r in rows],
            "children_mb": [r["children_mb"] for r in rows],
            "median_self_mb": statistics.median(r["self_mb"] for r in rows),
            "median_children_mb": statistics.median(r["children_mb"] for r in rows),
            "median_total_mb": statistics.median(r["self_mb"] + r["children_mb"] for r in rows),
            "digests": sorted({r["digest"] for r in rows}),
        }
        s = summary[tree]
        print(f"{tree}: caller {s['median_self_mb']:.1f} MB, largest helper "
              f"{s['median_children_mb']:.1f} MB, sum {s['median_total_mb']:.1f} MB "
              f"(medians of {len(rows)}), digests {s['digests']}")
    if args.json is not None:
        args.json.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                         "trees": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
