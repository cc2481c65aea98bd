"""scipy is loaded only by the calls that use it, and never first in a forked helper.

The pytest process has scipy loaded already (the test modules import it), so
each case runs a fresh interpreter.  The script wraps ``harness._tn_chunk``
before any helper is forked; every chunk, in the caller or a helper, prints
its process id and the scipy modules loaded when it starts and when it ends.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import w1clt

SRC = str(Path(w1clt.__file__).resolve().parents[1])

PRELUDE = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import w1clt, w1clt.cli
from w1clt import harness
from w1clt.conditions import (AlphaPolynomial, PhiGeometric, check_alpha_condition,
                              check_phi_condition, lag_cutoff)
from w1clt.harness import ExperimentConfig, divergence_probe, run_clt_experiment
from w1clt.models import ParetoTail, Uniform
from w1clt.processes import CausalLinear, DoublingMap, PolynomialCoeffs, generate_batch

def loaded():
    return [m for m in ("scipy.special", "scipy.integrate") if m in sys.modules]

def emit(record):  # one write per line, so lines of concurrent processes never interleave
    os.write(1, (json.dumps(record) + "\\n").encode())

chunk = harness._tn_chunk

def watched(*args):
    before = loaded()
    out = chunk(*args)
    emit({"pid": os.getpid(), "before": before, "after": loaded()})
    return out

harness._tn_chunk = watched
emit({"caller": os.getpid(), "after_import": loaded()})
"""

NUMPY_ONLY = """
lag_cutoff(PhiGeometric(1, 0.5))  # the checker calls of the doubling and probe workloads
check_phi_condition(PhiGeometric(1, 0.5), ParetoTail(1, 4))
check_alpha_condition(AlphaPolynomial(1, 0.25), ParetoTail(1, 1.875))
divergence_probe(0.25, 0.4, [64, 128], 40, seed=3, burn_in=100, threads=2)
run_clt_experiment(ExperimentConfig(DoublingMap(0.25, burn_in=0), [200], 512, 4,
                                    reference_model=ParetoTail(1.0, 4.0)), threads=2)
generate_batch(CausalLinear(PolynomialCoeffs(3.0), Uniform(-1, 1), 50), 100, 4, 5)
emit({"end": loaded()})
"""

DEFAULT_TRUNCATION = """
run_clt_experiment(ExperimentConfig(CausalLinear(PolynomialCoeffs(3.0), Uniform(-1, 1)),
                                    [64], 512, 6, reference_model=Uniform(-1, 1)), threads=2)
"""


def _run(body: str):
    """The caller's pid and first record, and every chunk record, of a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", PRELUDE + body, SRC], capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    head = records[0]
    chunks = [r for r in records if "pid" in r]
    helpers = [r for r in chunks if r["pid"] != head["caller"]]
    return head, chunks, helpers, records[-1]


def _helpers_fork() -> bool:
    return sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) >= 2


def test_numpy_only_pipelines_never_load_scipy():
    head, chunks, helpers, last = _run(NUMPY_ONLY)
    assert head["after_import"] == []
    assert last == {"end": []}
    assert chunks and all(r["before"] == r["after"] == [] for r in chunks)
    if _helpers_fork():
        assert helpers, "no chunk ran in a helper"


@pytest.mark.skipif(not _helpers_fork(), reason="needs Linux and 2 usable CPUs for a helper")
def test_helpers_inherit_scipy_from_the_caller():
    # the default truncation rule evaluates zeta; its J is resolved before the fork
    head, chunks, helpers, _ = _run(DEFAULT_TRUNCATION)
    assert head["after_import"] == []
    assert helpers, "no chunk ran in a helper"
    assert all(r["before"] == r["after"] == ["scipy.special"] for r in chunks)
