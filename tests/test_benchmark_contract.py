"""The benchmark's workloads still run on this source tree, traced.

`benchmarks/` imports w1clt names and hooks some of them by module attribute
(see `benchmarks/spans.py`), so a rename or deletion there breaks the
benchmark without failing any other test.  Each reduced workload runs once
under the span recorder, with its output checks.
"""
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path[:0] = [str(_BENCH.parent / "src"), str(_BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_workload_runs_traced(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(wl.reduced, 20261017)
    rec = spans.Recorder()
    with rec.installed(inputs.reference_models):
        out = wl.run(inputs, workloads.THREADS, rec)
    out.verify()
    assert out.attempted > 0 and out.failed == 0, [c for c in out.checks if not c[1]]
    assert any(s.name == "transport.w1" for s in rec.spans)
