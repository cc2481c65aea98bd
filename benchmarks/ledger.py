"""Run the benchmark repeatedly and write a ledger of medians and quartiles.

    python3 benchmarks/ledger.py [--out FILE]

Each workload of BENCHMARK.json runs RUNS times untraced, seed FIRST_SEED + i
on run i, then TRACED_RUNS times traced on the first seed so the per-layer
counts can be seen to repeat.  The ledger goes to `benchmarks/baseline.json`
unless `--out` names another file.  For every metric it keeps the values,
their median and quartiles (`statistics.quantiles(values, n=4)`) and the
spread, the interquartile distance as a share of the median.  Runs are
sequential, so they never compete for the cores they measure.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
FIRST_SEED = 101
TRACED_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"ledger: {' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("environment "))
    return {"seed": seed, "environment": env, **json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=BENCH_DIR / "baseline.json")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ledger = {"run_seconds": bench["run_seconds"], "cpu_model": cpu_model(), "workloads": {}}
    for wl in (w["name"] for w in bench["workloads"]):
        untraced = [run_once(wl, FIRST_SEED + i, bench["run_seconds"], 0) for i in range(RUNS)]
        traced = [run_once(wl, FIRST_SEED, bench["run_seconds"], 1) for _ in range(TRACED_RUNS)]
        ledger["environment"] = untraced[0]["environment"]
        entry = {
            "seeds": [r["seed"] for r in untraced],
            "all_correct": all(r["correct"] for r in untraced + traced),
            "failed": sum(r["failed"] for r in untraced + traced),
            "end_to_end": summarize(untraced),
        }
        entry["per_layer"] = summarize(traced)
        ledger["workloads"][wl] = entry
        print(f"{wl}: correct={entry['all_correct']} failed={entry['failed']}")
        for name, s in entry["end_to_end"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  <-- spread > bound/3"
            print(f"  {name:<14} median {s['median']:.6g} {s['unit']:<5} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}{flag}")
        for name, s in entry["per_layer"].items():
            print(f"  {name:<36} {[round(v, 6) for v in s['values']]}")
        sys.stdout.flush()
    args.out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
