"""The pairing, swap and bootstrap of ``tools/ab.py`` on synthetic timings.

No assertion here reads a clock: the calls are simulated, with a worker-slot
bias and multiplicative noise drawn from a seeded generator.
"""
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


@pytest.mark.parametrize("pairs", [2, 3, 10, 41])
def test_schedule_alternates_the_first_tree_and_swaps_halfway(pairs):
    plan = ab.schedule(pairs)
    assert len(plan) == pairs
    for i, (first, second, swapped) in enumerate(plan):
        assert {first, second} == {"parent", "child"}
        assert first == ("parent" if i % 2 == 0 else "child")
        assert swapped == (i >= pairs // 2)
    # each tree runs on each slot before and after the swap
    slots = {(tree, ab.worker_of(tree, s)) for _, _, s in plan for tree in ab.TREES}
    assert slots == {("parent", 0), ("parent", 1), ("child", 0), ("child", 1)}


def _simulated(child_factor, slot_bias, seed, noise=0.05):
    """A ``call`` whose case takes 1 s on the parent, ``child_factor`` s on the
    child, times (1 + slot_bias) on worker slot 1, times lognormal noise; the
    workers' trees follow the last ``restart``."""
    rng = np.random.default_rng(seed)
    state = {"swapped": None}
    restarts = []

    def restart(swapped):
        state["swapped"] = swapped
        restarts.append(swapped)

    def call(slot, case):
        tree = ab.TREES[slot ^ int(state["swapped"])]
        base = child_factor if tree == "child" else 1.0
        return base * (1.0 + slot_bias * slot) * math.exp(noise * rng.standard_normal()), tree

    return call, restart, restarts


def test_run_pairs_restarts_once_at_the_swap_and_keeps_tree_outputs_apart():
    call, restart, restarts = _simulated(1.0, 0.0, seed=1)
    run = ab.run_pairs(10, call, cases=("a", "b"), restart=restart)
    assert restarts == [False, True]
    for case in ("a", "b"):
        assert [len(run["times"][case][t]) for t in ab.TREES] == [10, 10]
        # the simulated digest is the tree that answered: each tree's calls reached it
        assert run["digests"][case] == {"parent": {"parent"}, "child": {"child"}}
    assert [row["bytes_equal"] for row in ab.summarize(run)] == [False, False]


def test_an_a_a_run_with_a_biased_slot_centres_on_zero_after_the_swap():
    # stated first: a 4% slot bias with 5% noise over 200 pairs; unswapped, every
    # ratio would carry the bias, and the swap must put 0 inside the interval,
    # which is narrower than the bias
    call, restart, _ = _simulated(1.0, 0.04, seed=2)
    row = ab.summarize(ab.run_pairs(200, call, cases=("a",), restart=restart))[0]
    low, high = row["interval"]
    assert low <= 0.0 <= high
    assert high - low < math.log(1.04)


def test_a_child_slowed_by_five_percent_is_detected():
    call, restart, _ = _simulated(1.05, 0.04, seed=3)
    row = ab.summarize(ab.run_pairs(200, call, cases=("a",), restart=restart))[0]
    low, high = row["interval"]
    assert 0.0 < low <= math.log(1.05) <= high
    assert row["child_over_parent"] == pytest.approx(1.05, abs=0.02)


def test_bootstrap_interval_of_the_median():
    assert ab.bootstrap_median_interval([0.3] * 7) == (0.3, 0.3)
    values = np.random.default_rng(4).normal(0.1, 0.05, size=101)
    low, high = ab.bootstrap_median_interval(values)
    assert low < np.median(values) < high
    # the same seed draws the same resamples
    assert ab.bootstrap_median_interval(values) == (low, high)
    # a median's interval narrows like 1/sqrt(pairs)
    wide = ab.bootstrap_median_interval(values[:25])
    assert wide[1] - wide[0] > high - low


def test_log_ratios_are_child_over_parent():
    assert ab.log_ratios([1.0, 2.0], [2.0, 2.0]).tolist() == [math.log(2.0), 0.0]
