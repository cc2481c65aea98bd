import argparse
import json
import math
import multiprocessing
import os
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from w1clt import harness, transport
from w1clt.cli import _build_parser, cli_main
from w1clt.errors import DivergenceError, ValidationError
from w1clt.harness import (
    ExperimentConfig,
    auto_calibration_grid,
    compare_against_limit,
    compare_distributions,
    divergence_probe,
    ks_two_sample,
    resolve_reference,
    run_clt_experiment,
)
from w1clt.limitlaw import StatisticSample
from w1clt.models import ParetoTail, Tabulated, Uniform
from w1clt.processes import (IID, CausalLinear, DoublingMap, IntermittentMap, PolynomialCoeffs,
                             generate, generate_batch)
from w1clt.transport import w1_sample_vs_model


def _sample(values, kind="finite_n", **meta):
    return StatisticSample(np.asarray(values, dtype=float), kind, meta)


# ---------------------------------------------------------------------------
# ks and comparisons
# ---------------------------------------------------------------------------

def test_ks_matches_scipy():
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=int(rng.integers(5, 200)))
        y = rng.uniform(-1, 2, size=int(rng.integers(5, 200)))
        assert ks_two_sample(x, y) == pytest.approx(
            ks_2samp(x, y).statistic, abs=1e-12
        )


def test_compare_identity():
    a = _sample([0.1, 0.5, 0.9])
    rep = compare_distributions(a, a)
    assert rep.ks_two_sample == 0.0
    assert rep.w1_between_statistics == 0.0
    assert rep.mean_gap == 0.0


def test_compare_shift():
    rng = np.random.default_rng(2)
    base = rng.uniform(0, 1, size=100)
    rep = compare_distributions(_sample(base), _sample(base + 0.25))
    assert rep.w1_between_statistics == pytest.approx(0.25, abs=1e-12)
    assert rep.mean_gap == pytest.approx(0.25, abs=1e-12)


def test_compare_against_limit_table():
    finite = {10: _sample([1.0, 2.0], n=10), 100: _sample([1.5, 2.5], n=100)}
    limit = _sample([1.2, 2.2], kind="limit_functional")
    rep = compare_against_limit(finite, limit)
    assert [row["n"] for row in rep.table] == [10, 100]
    assert "n=100" in rep.verdict
    with pytest.raises(ValidationError, match="no finite-n samples"):
        compare_against_limit({}, limit)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _uniform_config(**overrides):
    base = dict(
        process=IID(Uniform(0, 1)),
        n_values=[16, 64],
        replications=40,
        base_seed=91,
        reference_model=Uniform(0, 1),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_single_sample_statistic_is_mean_absolute_deviation():
    cfg = _uniform_config(n_values=[1])
    out = run_clt_experiment(cfg)
    path = generate(cfg.process, 1, cfg.base_seed, stream=0)
    y = float(path.values[0])
    # T_1 = d1(delta_y, F) = E|Y - y|
    expected = w1_sample_vs_model([y], Uniform(0, 1))
    assert out[1].values[0] == pytest.approx(expected, abs=1e-15)
    assert np.all(out[1].values >= 0)


def test_experiment_deterministic_across_thread_counts():
    runs = [run_clt_experiment(_uniform_config(), threads=t) for t in (1, 4)]
    for n in (16, 64):
        assert np.array_equal(runs[0][n].values, runs[1][n].values)


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(IntermittentMap(0.25, 0.4, burn_in=50), [16, 48, 100], 300, 5,
                     calibration_length=2000),
    ExperimentConfig(CausalLinear(PolynomialCoeffs(2.5), Uniform(-1, 1), truncation=32),
                     [16, 48, 100], 300, 6, calibration_length=2000),
    ExperimentConfig(IID(ParetoTail(1.0, 3.0)), [16, 48, 100], 300, 7,
                     reference_model=ParetoTail(1.0, 3.0)),
    ExperimentConfig(DoublingMap(0.25, burn_in=100), [16, 48, 100], 300, 8,
                     reference_model=ParetoTail(1.0, 4.0)),
    ExperimentConfig(CausalLinear(PolynomialCoeffs(2.5), Uniform(-1, 1), truncation=2000),
                     [16, 48, 100], 300, 9, calibration_length=2000),
], ids=["intermittent", "causal_linear", "iid_pareto", "doubling", "causal_linear_long"])
def test_experiment_rows_equal_one_stream_recomputation(cfg):
    # At one process a chunk is all 300 replicates, at two 150.  With blocks of
    # 2**14 values a W1 block at n = 100 holds 164 rows, so the 300-row chunk
    # (and the intermittent 300-lane batch) ends in a ragged block of 136; the
    # forked helpers inherit the patched block size.  The doubling burn-in is
    # not a whole number of 64-bit words, and J = 2000 puts 8 or 4 rows in a
    # transform group of a linear block (L = 2048 or 4096), the last group of a
    # 300-row block at n = 48 ragged.  The rows equal one-stream calls and
    # generate_batch + w1_sample_vs_model, bit for bit.
    reference, _ = resolve_reference(cfg)
    assert isinstance(reference, Tabulated) == (cfg.reference_model is None)
    for threads in (1, 2):
        with mock.patch.object(transport, "_W1_BLOCK_VALUES", 2**14):
            assert transport.w1_block_rows(100) == 164
            out = run_clt_experiment(cfg, threads=threads)
        for i, n in enumerate(cfg.n_values):
            expected = [
                math.sqrt(n) * w1_sample_vs_model(
                    generate(cfg.process, n, cfg.base_seed, (i << 32) | r).values, reference
                )
                for r in range(cfg.replications)
            ]
            assert out[n].values.tolist() == expected
            batch = generate_batch(cfg.process, n, cfg.replications, cfg.base_seed, i << 32)
            assert out[n].values.tobytes() == (
                math.sqrt(n) * w1_sample_vs_model(batch, reference)).tobytes()


def _record_chunks(monkeypatch, log, process):
    """Log (pid, n, rows) of every chunk to the file ``log``, from the call that
    makes its rows: ``generate_batch`` for the intermittent map's lane batch,
    ``row_blocks`` for a per-row variant."""
    def write(n, rows):
        # a file, so that the calls made in forked helpers are seen too
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {n} {rows}\n")

    if isinstance(process, IntermittentMap):
        real_batch = harness.generate_batch

        def recording(spec, n, n_paths, seed, first_stream=0):
            write(n, n_paths)
            return real_batch(spec, n, n_paths, seed, first_stream=first_stream)

        monkeypatch.setattr(harness, "generate_batch", recording)
    else:
        real_blocks = harness.row_blocks

        def recording(spec, n, seed, streams, rows):
            write(n, len(streams))
            return real_blocks(spec, n, seed, streams, rows)

        monkeypatch.setattr(harness, "row_blocks", recording)


def _read_batches(log):
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(IntermittentMap(0.25, 0.4, burn_in=50), [16, 48], 61, 5,
                     calibration_length=2000),
    ExperimentConfig(IID(Uniform(0, 1)), [16, 48], 61, 5, reference_model=Uniform(0, 1)),
], ids=["intermittent", "iid"])
def test_chunks_split_by_budget(cfg, monkeypatch, tmp_path):
    # 8 * 48 * 8 bytes: a process's share is 8 // p lanes at n = 48 and 24 // p at
    # n = 16, so 61 intermittent replicates make at least 3 chunks per n, the last
    # one ragged, for every p up to 4.  A per-row chunk holds one block at a time,
    # so the budget does not bind it: its chunks are ceil(61 / p) rows
    monkeypatch.setattr(harness, "_CHUNK_BUDGET", 8 * 48 * 8)
    reference, _ = resolve_reference(cfg)
    log = tmp_path / "calls.txt"
    _record_chunks(monkeypatch, log, cfg.process)
    lane_batch = isinstance(cfg.process, IntermittentMap)
    for threads in (1, 4):
        log.write_text("")
        out = run_clt_experiment(cfg, threads=threads)
        calls = _read_batches(log)
        p = harness._process_count(threads)
        pids = {pid for pid, _, _ in calls}
        assert len(pids) <= p and os.getpid() in pids
        for i, n in enumerate(cfg.n_values):
            if lane_batch:
                lanes = harness._CHUNK_BUDGET // (8 * n * p)
            else:
                lanes = -(-cfg.replications // p)
            sizes = [count for _, m, count in calls if m == n]
            assert len(sizes) >= 3 or not lane_batch
            # helpers finish in any order: every chunk full but one ragged
            full, rest = divmod(cfg.replications, lanes)
            assert sorted(sizes, reverse=True) == [lanes] * full + [rest] * (rest > 0)
            expected = [
                math.sqrt(n) * w1_sample_vs_model(
                    generate(cfg.process, n, cfg.base_seed, (i << 32) | r).values, reference
                )
                for r in range(cfg.replications)
            ]
            assert out[n].values.tolist() == expected


@pytest.mark.skipif(harness._process_count(2) < 2, reason="needs 2 usable CPUs")
def test_one_n_per_row_run_splits_across_processes(monkeypatch, tmp_path):
    # 200 replicates at 2 processes make two 100-row chunks, the second a helper's
    cfg = _uniform_config(n_values=[64], replications=200)
    log = tmp_path / "calls.txt"
    _record_chunks(monkeypatch, log, cfg.process)
    out = run_clt_experiment(cfg, threads=2)
    calls = _read_batches(log)
    assert sorted(rows for _, _, rows in calls) == [100, 100]
    assert len({pid for pid, _, _ in calls}) == 2
    expected = [8.0 * w1_sample_vs_model(generate(cfg.process, 64, cfg.base_seed, r).values,
                                         cfg.reference_model)
                for r in range(cfg.replications)]
    assert out[64].values.tolist() == expected


@pytest.mark.parametrize("error", [
    ValidationError("bad chunk"),
    DivergenceError("chunk diverges", diagnostic="tail exponent r=0.5"),
], ids=["validation", "divergence"])
def test_helper_errors_reach_the_caller_and_no_helper_outlives_the_call(monkeypatch, error):
    # 600 replicates make two 300-row chunks per n at 2 processes; the caller
    # computes chunks 0 and 2 and a helper the rest, so stream 300 (chunk 1) is
    # a helper's
    cfg = _uniform_config(n_values=[16, 64], replications=600)
    assert harness._plan_chunks(cfg, 2)[1] == (16, 300, 300)
    run_clt_experiment(cfg, threads=2)
    assert multiprocessing.active_children() == []
    real = harness.row_blocks

    def failing(spec, n, seed, streams, rows):
        if streams[0] == 300:
            raise error
        return real(spec, n, seed, streams, rows)

    monkeypatch.setattr(harness, "row_blocks", failing)
    with pytest.raises(type(error)) as caught:
        run_clt_experiment(cfg, threads=2)
    assert type(caught.value) is type(error) and str(caught.value) == str(error)
    assert getattr(caught.value, "diagnostic", None) == getattr(error, "diagnostic", None)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("spec, reference, n, rows, bound", [
    (DoublingMap(0.25, burn_in=0), ParetoTail(1.0, 4.0), 10_000, 256, 4 * 2**20),
    (CausalLinear(PolynomialCoeffs(3.0), Uniform(-1, 1), truncation=7070), Uniform(-2, 2),
     64, 512, 8 * 2**20),
], ids=["doubling", "linear"])
def test_per_row_chunk_memory_is_about_one_block(spec, reference, n, rows, bound):
    # A (256, 10**4) chunk array alone is 19.5 MiB; a block is 4 rows of it.  At
    # n = 64 and J = 7,070 a block holds 512 rows, and a transform of all of
    # them at L = 8,192 would take 128 MiB: the groups keep it at 2 rows.
    harness._tn_chunk(spec, reference, 3, n, 0, rows)  # numpy's lazy set-up
    tracemalloc.start()
    try:
        harness._tn_chunk(spec, reference, 3, n, 0, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_experiment_statistics_are_nonnegative_and_reasonable():
    cfg = _uniform_config(n_values=[256], replications=200)
    out = run_clt_experiment(cfg)
    vals = out[256].values
    assert np.all(vals >= 0)
    # crude location check: mean should be within 3 sigma of the limit constant
    assert abs(float(np.mean(vals)) - math.sqrt(2 * math.pi) / 8) < 0.05


def test_config_validation():
    with pytest.raises(ValidationError):
        _uniform_config(n_values=[64, 16])
    with pytest.raises(ValidationError):
        _uniform_config(replications=1)
    with pytest.raises(ValidationError):
        ExperimentConfig(
            process=IID(Uniform(0, 1)), n_values=[8], replications=4, base_seed=0
        )
    for tol in (0.0, -1e-12, math.nan):  # rejected before any calibration or replicate
        with pytest.raises(ValidationError, match="tail_tol"):
            _uniform_config(tail_tol=tol)


def test_config_json_roundtrip():
    d = {
        "schema_version": 1,
        "process": {"variant": "iid", "model": {"kind": "uniform", "lo": 0, "hi": 1}},
        "n_values": [8, 32],
        "replications": 4,
        "base_seed": 5,
        "reference": {"analytic": {"kind": "uniform", "lo": 0, "hi": 1}},
    }
    cfg = ExperimentConfig.from_dict(json.loads(json.dumps(d)))
    assert cfg.n_values == [8, 32]
    assert cfg.reference_model == Uniform(0, 1)
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({**d, "schema_version": 2})
    # sections nothing reads are rejected, not silently ignored
    for key, value in (("grid", {"size": 64}), ("limit", {"lag_cutoff": 0}),
                       ("out_dir", "out"), ("replication", 4)):
        with pytest.raises(ValidationError, match=key):
            ExperimentConfig.from_dict({**d, key: value})
    # an analytic reference calibrates nothing, so it reads no calibration key
    with pytest.raises(ValidationError, match="calibration_length"):
        ExperimentConfig.from_dict({**d, "reference": {**d["reference"],
                                                       "calibration_length": 64}})


def _calibrated_dict(length):
    return {
        "schema_version": 1,
        "process": {"variant": "iid", "model": {"kind": "uniform", "lo": 0, "hi": 1}},
        "n_values": [8, 32],
        "replications": 4,
        "base_seed": 5,
        "reference": {"calibration_length": length, "calibration_grid_size": 64},
    }


def test_config_auto_calibration_length():
    cfg = ExperimentConfig.from_dict(_calibrated_dict("auto"))
    assert cfg.calibration_length == 320  # 10 * max(n_values)
    assert cfg.calibration_grid_size == 64
    out = run_clt_experiment(cfg)
    assert out[32].metadata["calibration_length"] == 320


def test_auto_calibration_grid_of_a_constant_orbit():
    # one distinct value gives no interval, so the grid falls back to [v, v + 1]
    np.testing.assert_array_equal(auto_calibration_grid(np.full(50, 3.5), 16), [3.5, 4.5])


@pytest.mark.parametrize("length", [0, -5])
def test_config_rejects_calibration_length_below_one(length):
    with pytest.raises(ValidationError, match="calibration_length"):
        ExperimentConfig.from_dict(_calibrated_dict(length))


@pytest.mark.parametrize("size", [0, -3])
def test_calibration_grid_size_below_one_rejected(size):
    # below 1, auto_calibration_grid would fall back to the 2-point grid [min, max]
    cfg = _calibrated_dict(100)
    cfg["reference"]["calibration_grid_size"] = size
    with pytest.raises(ValidationError, match="calibration_grid_size"):
        ExperimentConfig.from_dict(cfg)


def test_config_rejects_calibration_beside_an_analytic_reference():
    # the calibration was once accepted and silently ignored
    with pytest.raises(ValidationError, match="exactly one reference"):
        _uniform_config(calibration_length=100)
    with pytest.raises(ValidationError, match="exactly one reference"):
        _uniform_config(reference_model=None)


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(threads):
    with pytest.raises(ValidationError, match="threads"):
        run_clt_experiment(_uniform_config(), threads=threads)
    with pytest.raises(ValidationError, match="threads"):
        divergence_probe(0.25, 0.1, [64, 128], replications=8, seed=3, threads=threads)


# ---------------------------------------------------------------------------
# divergence probe
# ---------------------------------------------------------------------------

def test_probe_insufficient_data():
    rep = divergence_probe(0.25, 0.4, [1024], replications=8, seed=3)
    assert rep.verdict == "insufficient data"


def _no_orbit(*args, **kwargs):
    raise AssertionError("an orbit was generated before the input was checked")


@pytest.mark.parametrize("kwargs, named", [
    ({"gamma": -1.0}, "gamma"),
    ({"a": 0.0}, "observable exponent"),
    ({"burn_in": -1}, "burn_in"),
    ({"n_values": [0]}, "n_values"),
    ({"n_values": [0, 5]}, "n_values"),
    ({"replications": 1}, "replications"),
], ids=["gamma", "a", "burn-in", "zero-n", "zero-n-of-two", "one-replication"])
def test_probe_checks_input_before_any_work(kwargs, named, monkeypatch):
    # a single n gives "insufficient data" only for otherwise valid input
    monkeypatch.setattr(harness, "generate", _no_orbit)
    monkeypatch.setattr(harness, "generate_batch", _no_orbit)
    args = {"gamma": 0.25, "a": 0.4, "n_values": [512], "replications": 8, "seed": 3,
            **kwargs}
    with pytest.raises(ValidationError, match=named):
        divergence_probe(**args)


@pytest.mark.parametrize("process", [
    {"variant": "iid", "model": {"kind": "uniform", "lo": 0, "hi": 1}},
    {"variant": "intermittent", "gamma": 0.25, "observable_exponent": 0.4, "burn_in": 0},
], ids=["iid", "intermittent"])
def test_config_rejects_sample_size_below_one(process):
    cfg = {**_calibrated_dict(100), "process": process, "n_values": [0, 5]}
    with pytest.raises(ValidationError, match="n_values"):
        ExperimentConfig.from_dict(cfg)


def test_probe_runs_small():
    rep = divergence_probe(0.25, 0.1, [128, 256], replications=16, seed=3, burn_in=200)
    assert set(rep.medians) == {128, 256}
    assert all(v > 0 for v in rep.medians.values())
    assert len(rep.ratios) == 1


@pytest.mark.parametrize("medians, verdict", [
    ([4.0, 5.0, 4.0], "stabilizing"),  # ratios exactly 1.25 and 0.8
    ([2.0, 2.5, 3.0], "non-stabilizing"),  # strictly rising, growth exactly 1.5
    ([2.0, 2.0], "stabilizing"),  # a ratio of exactly 1.0 ...
    ([1.0, 1.0, 10.0], "indeterminate"),  # ... is never rising, whatever the growth
    ([4.0, 2.0, 4.0], "indeterminate"),  # a fall, then a rise
], ids=["band-edges", "least-growth", "flat", "flat-then-jump", "fall-then-rise"])
def test_probe_verdict_rule_on_given_medians(medians, verdict, monkeypatch):
    def medians_as_samples(cfg, threads):
        return {n: _sample([m]) for n, m in zip(cfg.n_values, medians)}

    monkeypatch.setattr(harness, "run_clt_experiment", medians_as_samples)
    n_values = [64 << i for i in range(len(medians))]
    rep = divergence_probe(0.25, 0.4, n_values, replications=8, seed=3)
    assert list(rep.medians.values()) == medians
    assert rep.verdict == verdict and rep.growth_factor == 1.5


def test_probe_flags_growing_medians_as_non_stabilizing():
    # a + gamma = 1.15, far above the threshold 1/2, so T_n diverges
    rep = divergence_probe(0.25, 0.9, [64, 256, 1024], replications=32, seed=3, burn_in=200)
    assert rep.verdict == "non-stabilizing"
    assert all(r > 1.0 for r in rep.ratios)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_unknown_subcommand():
    assert cli_main(["frobnicate"]) == 1  # usage error, not a numerical failure
    assert cli_main([]) == 1
    assert cli_main(["--help"]) == 0


def _parser_flags():
    """{subcommand: the long flags it takes}, read from the parser."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
            for name, p in sub.choices.items()}


def test_readme_command_table_matches_the_parser():
    # one row per subcommand, naming every flag it takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {m[1]: set(re.findall(r"`(--[a-z-]+)`", m[2]))
             for m in re.finditer(r"^\| `([a-z0-9]+)` \| (.*) \|$", readme, re.MULTILINE)}
    assert table == _parser_flags()


def test_cli_config_subcommands_take_no_input_flag():
    # each input has one source: a config-driven subcommand reads seeds, output names
    # and check parameters from its config, and its flags say only where and how to run
    driven = {name: flags for name, flags in _parser_flags().items() if "--config" in flags}
    assert sorted(driven) == ["check", "experiment", "generate", "limit", "report"]
    for name, flags in driven.items():
        assert flags == {"--config", "--out-dir"} | ({"--threads"} if name == "experiment"
                                                     else set()), name


def test_cli_check_threshold(tmp_path, capsys):
    cfg = tmp_path / "threshold.json"
    cfg.write_text(json.dumps(_THRESHOLD))
    code = cli_main(["check", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "converges"
    assert json.loads((tmp_path / "check.json").read_text())["verdict"] == "converges"


def test_cli_w1_identical_files(tmp_path, capsys):
    f = tmp_path / "a.csv"
    f.write_text("value\n0.25\n1.5\n")
    code = cli_main(["w1", "--x", str(f), "--y", str(f)])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


@pytest.mark.parametrize("text", ["values\n0.25\n", "# no rows\n\n"],
                         ids=["wrong-header", "no-header"])
def test_cli_w1_rejects_csv_without_value_header(text, tmp_path, capsys):
    f = tmp_path / "a.csv"
    f.write_text(text)
    assert cli_main(["w1", "--x", str(f), "--y", str(f)]) == 1
    assert "expected a 'value' header row" in capsys.readouterr().err


def test_cli_generate_and_compare(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "process": {"variant": "iid", "model": {"kind": "uniform", "lo": 0, "hi": 1}},
        "n": 50,
        "seed": 3,
    }
    cfg_file = tmp_path / "gen.json"
    cfg_file.write_text(json.dumps(cfg))
    assert cli_main(["generate", "--config", str(cfg_file),
                     "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert cli_main(["compare", "--a", str(tmp_path / "path.csv"),
                     "--b", str(tmp_path / "path.csv"),
                     "--out-dir", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ks_two_sample"] == 0.0


def test_cli_compare_names_both_inputs(tmp_path, capsys):
    tn = tmp_path / "tn_64.csv"
    tn.write_text("value\n0.5\n1.0\n1.5\n")
    limit = tmp_path / "limit.csv"
    limit.write_text("value\n0.75\n1.25\n")
    assert cli_main(["compare", "--a", str(tn), "--b", str(limit),
                     "--out-dir", str(tmp_path)]) == 0
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict.endswith(f"between {tn} (R=3) and {limit} (R=2)")


def test_cli_experiment_matches_library_and_threads(tmp_path):
    cfg = {
        "schema_version": 1,
        "process": {"variant": "iid", "model": {"kind": "uniform", "lo": 0, "hi": 1}},
        "n_values": [16, 32],
        "replications": 20,
        "base_seed": 7,
        "reference": {"analytic": {"kind": "uniform", "lo": 0, "hi": 1}},
    }
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps(cfg))
    outs = {}
    for threads in ("1", "3"):
        out_dir = tmp_path / f"t{threads}"
        assert cli_main(["experiment", "--config", str(cfg_file),
                         "--threads", threads, "--out-dir", str(out_dir)]) == 0
        outs[threads] = {
            n: (out_dir / f"tn_{n}.csv").read_bytes() for n in (16, 32)
        }
    assert outs["1"] == outs["3"]  # byte-identical across thread counts

    # pipeline consistency: CLI output equals direct library values
    direct = run_clt_experiment(ExperimentConfig.from_dict(cfg))
    for n in (16, 32):
        text = outs["1"][n].decode()
        vals = [float(line) for line in text.splitlines()[1:]]
        np.testing.assert_array_equal(np.sort(direct[n].values), np.asarray(vals))


def test_cli_probe_and_report(tmp_path, capsys):
    code = cli_main([
        "probe", "--gamma", "0.25", "--a", "0.1", "--n-values", "64,128",
        "--replications", "8", "--seed", "2", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["medians"]) == {"64", "128"}

    # report: build artifacts then summarize
    a = tmp_path / "tn.csv"
    a.write_text("value\n" + "\n".join(str(v / 10) for v in range(1, 11)) + "\n")
    b = tmp_path / "lim.csv"
    b.write_text("value\n" + "\n".join(str(v / 10) for v in range(1, 11)) + "\n")
    rcfg = tmp_path / "report.json"
    rcfg.write_text(json.dumps({"schema_version": 1, "finite_n": {"100": str(a)},
                                "limit": str(b)}))
    assert cli_main(["report", "--config", str(rcfg), "--out-dir", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ks_two_sample"] == 0.0


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not valid JSON")
    return json.loads(text, parse_constant=reject)


def test_cli_writes_strict_json(tmp_path, capsys):
    # a divergent series sums to +inf and a single-n probe has no median: both are null
    cfg, out = tmp_path / "cfg", tmp_path / "out"
    configs = {
        "generate": {**_GENERATE, "process": {"variant": "doubling",
                                              "observable_exponent": 0.25, "burn_in": 5}},
        "threshold": _THRESHOLD,
        "alpha": {"schema_version": 1, "kind": "alpha", "gamma": 0.5,
                  "model": {"kind": "pareto_tail", "scale": 1, "exponent": 2}},
        "limit": _LIMIT,
        "experiment": {**_EXPERIMENT, "tail_tol": math.inf},  # echoed as null
        "report": {"schema_version": 1, "finite_n": {"8": str(out / "tn_8.csv")},
                   "limit": str(out / "limit.csv")},
    }
    cfg.mkdir()
    for name, d in configs.items():
        (cfg / f"{name}.json").write_text(json.dumps(d))
    commands = [
        ["generate", "--config", str(cfg / "generate.json")],
        ["check", "--config", str(cfg / "alpha.json")],
        ["check", "--config", str(cfg / "threshold.json")],
        ["limit", "--config", str(cfg / "limit.json")],
        ["experiment", "--config", str(cfg / "experiment.json")],
        ["compare", "--a", str(out / "tn_8.csv"), "--b", str(out / "limit.csv")],
        ["report", "--config", str(cfg / "report.json")],
        ["probe", "--gamma", "0.25", "--a", "0.1", "--n-values", "64,128",
         "--replications", "8"],
        ["probe", "--gamma", "0.25", "--a", "0.4", "--n-values", "512"],
    ]
    printed = []
    for argv in commands:
        assert cli_main([*argv, "--out-dir", str(out)]) == 0, argv
        text = capsys.readouterr().out
        if argv[0] != "generate":  # generate prints the path it wrote
            printed.append(_strict_json(text))
        for written in out.glob("*.json"):
            _strict_json(written.read_text())
    assert cli_main(["w1", "--x", str(out / "path.csv"), "--y", str(out / "limit.csv")]) == 0
    _strict_json(capsys.readouterr().out)
    header = (out / "path.csv").read_text().splitlines()[0]
    _strict_json(header.removeprefix("# w1clt-path "))
    assert printed[0]["verdict"] == "diverges" and printed[0]["partial_sum"] is None
    assert printed[3]["config"]["tail_tol"] is None
    assert printed[-1] == {"growth_factor": 1.5, "medians": {"512": None}, "ratios": [],
                           "verdict": "insufficient data"}


def test_cli_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    assert cli_main(["experiment", "--config", str(bad)]) == 1
    unread = tmp_path / "unread.json"
    unread.write_text(json.dumps({**_calibrated_dict("auto"), "out_dir": "out"}))
    assert cli_main(["experiment", "--config", str(unread)]) == 1
    assert cli_main(["check", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("kind, key, rest", [("phi", "c1", '"rho": 0.5'),
                                             ("alpha", "c_gamma", '"gamma": 0.1')])
def test_cli_check_rejects_an_infinite_bound_constant(tmp_path, kind, key, rest, capsys):
    # JSON reads 1e999 as inf: the phi check reported "converges" with a NaN tail
    # bound, written as null, and exited 0; the alpha check raised a numpy warning
    cfg = tmp_path / "bound.json"
    cfg.write_text(f'{{"schema_version": {harness.SCHEMA_VERSION}, "kind": "{kind}", '
                   f'"{key}": 1e999, {rest}, "model": {{"kind": "uniform", "lo": 0, "hi": 1}}}}')
    assert cli_main(["check", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    assert f"finite {key} > 0" in capsys.readouterr().err
    assert not (tmp_path / "check.json").exists()


def test_cli_limit_iid(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "model": {"kind": "uniform", "lo": 0, "hi": 1},
        "grid": {"size": 32},
        "replications": 500,
        "seed": 4,
    }
    f = tmp_path / "limit.json"
    for scheme in ("quantile", "vartail"):
        f.write_text(json.dumps({**cfg, "grid": {"size": 32, "scheme": scheme}}))
        assert cli_main(["limit", "--config", str(f), "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "limit.csv") as fh:
            vals = StatisticSample.read_csv_values(fh)
        assert vals.size == 500
        assert np.all(vals >= 0)


def test_cli_limit_dependent(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "model": {"kind": "pareto_tail", "scale": 1, "exponent": 4},
        "process": {"variant": "doubling", "observable_exponent": 0.25},
        "grid": {"size": 16},
        "lag_cutoff": 5,
        "sim_length": 5000,
        "replications": 200,
        "seed": 3,
    }
    f = tmp_path / "limit.json"
    f.write_text(json.dumps(cfg))
    assert cli_main(["limit", "--config", str(f), "--out-dir", str(tmp_path)]) == 0
    covariance = json.loads(capsys.readouterr().out)["covariance"]
    assert covariance["source"] == "simulated_dependent"
    assert covariance["lag_cutoff"] == 5 and len(covariance["grid"]) == 16
    with open(tmp_path / "limit.csv") as fh:
        vals = StatisticSample.read_csv_values(fh)
    assert vals.size == 200 and np.all(vals >= 0)


def test_cli_check_phi(tmp_path, capsys):
    f = tmp_path / "phi.json"
    f.write_text(json.dumps({"schema_version": 1, "kind": "phi", "rho": 0.5,
                             "model": {"kind": "uniform", "lo": 0, "hi": 1}}))
    assert cli_main(["check", "--config", str(f), "--out-dir", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "converges"


def test_cli_check_slow_geometric_tail_mode(tmp_path, capsys):
    # the rest of sum rho**(k/2) at rho = 0.99999 spans millions of lags
    f = tmp_path / "linear.json"
    f.write_text(json.dumps({"schema_version": 1, "kind": "linear", "mode": "tail_314", "r": 4,
                             "coefficients": {"family": "geometric", "rho": 0.99999},
                             "innovation": {"kind": "uniform", "lo": -1, "hi": 1}}))
    assert cli_main(["check", "--config", str(f), "--out-dir", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "converges" and math.isfinite(report["tail_bound"])


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # an infinite-mean reference makes W1 diverge: exit 2, with the diagnostic
    pareto = {"kind": "pareto_tail", "scale": 1, "exponent": 0.8}
    f = tmp_path / "exp.json"
    f.write_text(json.dumps({**_EXPERIMENT, "process": {"variant": "iid", "model": pareto},
                             "reference": {"analytic": pareto}}))
    assert cli_main(["experiment", "--config", str(f), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: W1 against a model with infinite mean diverges")
    assert "tail exponent r=0.8" in err


_UNIFORM = {"kind": "uniform", "lo": 0, "hi": 1}
_GENERATE = {"schema_version": 1, "process": {"variant": "iid", "model": _UNIFORM}, "n": 10}
_LIMIT = {"schema_version": 1, "model": _UNIFORM, "grid": {"size": 8}, "replications": 10}
_EXPERIMENT = {
    "schema_version": 1,
    "process": {"variant": "iid", "model": _UNIFORM},
    "n_values": [8, 16],
    "replications": 4,
    "base_seed": 1,
    "reference": {"analytic": _UNIFORM},
}
_THRESHOLD = {"schema_version": 1, "kind": "threshold", "gamma": 0.25, "a": 0.2}
_LINEAR = {"schema_version": 1, "kind": "linear", "mode": "rio_312", "innovation": _UNIFORM,
           "coefficients": {"family": "geometric", "rho": 0.5}}
_ALPHA = {"schema_version": 1, "kind": "alpha", "gamma": 0.25, "model": _UNIFORM}
_INTERMITTENT = {"variant": "intermittent", "gamma": 0.25, "observable_exponent": 0.4,
                 "burn_in": 0}
_CFG = ["--config", "{cfg}"]
# a probe writes probe.json to --out-dir when it runs
_PROBE = ["probe", "--gamma", "0.25", "--a", "0.4", "--out-dir", "{out}", "--n-values"]


@pytest.mark.parametrize("argv, config, named", [
    (["check", *_CFG, "--threads", "0"], _THRESHOLD, "unrecognized arguments: --threads 0"),
    (["check", *_CFG, "--gamma", "0.25", "--a", "0.2"], _THRESHOLD,
     "unrecognized arguments: --gamma 0.25 --a 0.2"),
    (["check", "--gamma", "0.25", "--a", "0.2"], None,
     "required: --config; unrecognized arguments: --gamma 0.25 --a 0.2"),
    (["compare", "--seed", "5"], None, "required: --a, --b; unrecognized arguments: --seed 5"),
    (["generate", *_CFG, "--seed", "5"], _GENERATE, "unrecognized arguments: --seed 5"),
    (["limit", *_CFG, "--seed", "5"], _LIMIT, "unrecognized arguments: --seed 5"),
    (["w1", "--x", "{csv}", "--y", "{csv}", "--seed", "5"], None, "--seed"),
    (["experiment", *_CFG, "--seed", "5"], _EXPERIMENT, "--seed"),
    (["probe", "--gamma", "0.25", "--a", "0.4", "--n-values", "64,128", "--config", "x.json"],
     None, "--config"),
    (["probe", "--gamma", "0.25", "--a", "0.4", "--n-values", "64,128", "--threads", "2"],
     None, "--threads"),
    (["limit", *_CFG], {**_LIMIT, "model": {"kind": "uniform", "hgh": 5}}, "hgh"),
    (["generate", *_CFG], {**_GENERATE, "process": {
        "variant": "intermittent", "gamma": 0.25, "observable_exponent": 0.1, "burnin": 0}},
     "burnin"),
    (["generate", *_CFG], {**_GENERATE, "process": {
        "variant": "causal_linear", "coefficients": {"family": "polynomial", "beta": 2,
                                                     "ofset": 1},
        "innovation": _UNIFORM}}, "ofset"),
    (["limit", *_CFG], {**_LIMIT, "lag": 3}, "lag"),
    (["limit", *_CFG], {**_LIMIT, "lag_cutoff": 2}, "lag_cutoff"),
    (["generate", *_CFG], {**_GENERATE, "seeds": 3}, "seeds"),
    (["generate", *_CFG], {**_GENERATE, "out": "path.csv"}, "generate config key(s) ['out']"),
    (["generate", *_CFG], {**_GENERATE, "out": "../path.csv"}, "generate config key(s) ['out']"),
    (["limit", *_CFG], {**_LIMIT, "out": "limit.csv"}, "limit config key(s) ['out']"),
    (["check", *_CFG], {**_THRESHOLD, "verbose": True}, "verbose"),
    (["experiment", *_CFG], {**_EXPERIMENT, "reference": {"calibraton_length": 100}},
     "calibraton_length"),
    (["limit", *_CFG], {**_LIMIT, "model": {"kind": "uniform", "lo": "x", "hi": 1}}, "'x'"),
    (["experiment", *_CFG], {**_EXPERIMENT, "n_values": 5}, "n_values"),
    (["limit", *_CFG], {**_LIMIT, "grid": {"size": 8, "scheme": "vartial"}}, "vartial"),
    (["report", *_CFG], {"schema_version": 1, "finite_n": {"100": "{csv}", "0100": "{csv}"},
                         "limit": "{csv}"}, "0100"),
    (["experiment", *_CFG], {**_EXPERIMENT, "tail_tol": 0}, "tail_tol"),
    (["limit", *_CFG], {**_LIMIT, "model": {"kind": "power_pushforward", "exponent": 1.0, "base": {
        "kind": "tabulated", "grid": [0.2, 0.5, 1.0], "cdf_values": [0.3, 0.6, 1.0],
        "interp": "step"}}}, "linear"),
    (["experiment", *_CFG], {**_EXPERIMENT, "reference": {
        "calibration_length": 1000, "calibration_grid_size": 0}}, "calibration_grid_size"),
    (["experiment", *_CFG], {**_EXPERIMENT, "reference": {
        "calibration_length": 1000, "calibration_grid_size": -3}}, "calibration_grid_size"),
    (["experiment", *_CFG], {**_EXPERIMENT, "reference": {"analytic": {
        "kind": "tabulated", "grid": [0, 0.5, 1], "cdf_values": [0, math.nan, 1]}}},
     "tabulated grid and cdf values must be finite"),
    (["experiment", *_CFG], {**_EXPERIMENT, "reference": {"analytic": {
        "kind": "tabulated", "grid": [0, 1, math.inf], "cdf_values": [0, 0.5, 1]}}},
     "tabulated grid and cdf values must be finite"),
    # JSON reads 1e999 as inf
    (["limit", *_CFG], {**_LIMIT, "model": {"kind": "pareto_tail", "scale": 1e999}},
     "finite scale"),
    (["limit", *_CFG], {**_LIMIT, "model": {"kind": "pareto_tail", "exponent": 1e999}},
     "finite exponent"),
    (["generate", *_CFG], {**_GENERATE, "process": {
        "variant": "causal_linear", "coefficients": {"family": "polynomial", "beta": 1e999},
        "innovation": _UNIFORM}}, "finite beta"),
    (["generate", *_CFG], {**_GENERATE, "process": {
        "variant": "causal_linear", "coefficients": {"family": "polynomial", "beta": 3,
                                                     "offset": 1e999},
        "innovation": _UNIFORM}}, "finite offset"),
    (["check", *_CFG], {**_LINEAR, "terms": 200}, "unknown linear check config key(s) ['terms']"),
    (["check", *_CFG], {**_ALPHA, "terms": 200}, "unknown alpha check config key(s) ['terms']"),
    (["check", *_CFG], {**_LINEAR, "mode": "moment_313", "r": 1e999}, "finite r > 2, got inf"),
    (["check", *_CFG], {**_LINEAR, "mode": "tail_314", "r": 1e999}, "finite r > 2, got inf"),
    (["check", *_CFG], {**_THRESHOLD, "a": math.inf}, "a must be finite and positive, got inf"),
    (["check", *_CFG], {**_LINEAR, "r": 4}, "does not read 'r'"),
    (["check", *_CFG], {**_LINEAR, "mode": "exact_311", "r": 4, "marginal": _UNIFORM},
     "does not read 'r'"),
    (["check", *_CFG], {**_LINEAR, "marginal": _UNIFORM}, "'marginal'"),
    (["check", *_CFG], {**_LINEAR, "mode": "tail_314", "r": 4, "marginal": _UNIFORM},
     "'marginal'"),
    ([*_PROBE, "512", "--gamma", "-1"], None, "gamma"),
    ([*_PROBE, "0"], None, "n_values"),
    ([*_PROBE, "512", "--replications", "1"], None, "replications"),
    ([*_PROBE, "512", "--growth-factor", "2"], None, "unrecognized arguments: --growth-factor"),
    (["experiment", *_CFG], {**_EXPERIMENT, "n_values": [0, 5]}, "n_values"),
    (["experiment", *_CFG], {**_EXPERIMENT, "n_values": [0, 5], "process": _INTERMITTENT,
                             "reference": {"calibration_length": 50}}, "n_values"),
    (["experiment", *_CFG], {**_EXPERIMENT, "reference": 5}, "reference must be an object"),
], ids=["check-threads", "check-gamma-a", "check-flags-only", "compare-flags-only",
        "generate-seed", "limit-seed",
        "w1-seed", "experiment-seed", "probe-config", "probe-threads",
        "model-typo", "spec-typo", "coefficients-typo", "limit-key", "iid-limit-lag",
        "generate-key", "generate-out", "out-path", "limit-out", "check-key", "reference-typo",
        "string-number", "scalar-list", "grid-scheme", "report-same-n", "zero-tail-tol",
        "step-pushforward-base", "zero-calibration-grid", "negative-calibration-grid",
        "nan-tabulated-cdf", "inf-tabulated-knot", "inf-pareto-scale", "inf-pareto-exponent",
        "inf-polynomial-beta", "inf-polynomial-offset", "linear-terms",
        "alpha-terms", "moment-inf-r", "tail-inf-r", "threshold-inf-a", "rio-unread-r", "exact-unread-r", "rio-unread-marginal",
        "tail-unread-marginal", "probe-gamma", "probe-zero-n", "probe-one-replication",
        "probe-growth-factor", "iid-zero-n", "intermittent-zero-n",
        "number-reference"])
def test_cli_rejects_unread_input(argv, config, named, tmp_path, capsys):
    csv = tmp_path / "a.csv"
    csv.write_text("value\n0.5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config).replace("{csv}", str(csv)))
    argv = [a.format(csv=csv, cfg=cfg, out=tmp_path) for a in argv]
    assert cli_main([*argv, "--out-dir", str(tmp_path)] if config else argv) == 1
    err = capsys.readouterr().err
    assert "validation error" in err
    assert named in err
