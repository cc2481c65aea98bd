"""Each workload, at reduced size, gives identical output digests at 1 and 2 threads.

This extends acceptance criterion 9 (doubling map only) to the intermittent
and linear generators and to the limit-law path.  Run with

    python3 -m pytest benchmarks/test_determinism.py -q
"""
import sys
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_independent_of_threads(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(wl.reduced, 20261017)
    digests = {t: wl.run(inputs, t, spans.NullRecorder()).digest for t in (1, 2)}
    assert digests[1], "the run produced no output digest"
    assert digests[1] == digests[2]
