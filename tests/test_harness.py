import json
import math
import threading

import numpy as np
import pytest

from w1clt import harness
from w1clt.cli import cli_main
from w1clt.errors import ValidationError
from w1clt.harness import (
    ExperimentConfig,
    compare_against_limit,
    compare_distributions,
    divergence_probe,
    ks_two_sample,
    resolve_reference,
    run_clt_experiment,
)
from w1clt.limitlaw import StatisticSample
from w1clt.models import ParetoTail, Tabulated, Uniform
from w1clt.processes import IID, CausalLinear, IntermittentMap, PolynomialCoeffs, generate
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
    ExperimentConfig(IntermittentMap(0.25, 0.4, burn_in=50), [16, 48], 300, 5,
                     calibration_length=2000),
    ExperimentConfig(CausalLinear(PolynomialCoeffs(2.5), Uniform(-1, 1), truncation=32),
                     [16, 48], 300, 6, calibration_length=2000),
    ExperimentConfig(IID(ParetoTail(1.0, 3.0)), [16, 48], 300, 7,
                     reference_model=ParetoTail(1.0, 3.0)),
], ids=["intermittent", "causal_linear", "iid_pareto"])
def test_experiment_rows_equal_one_stream_recomputation(cfg):
    # 300 replicates make two 256-row chunks of the per-row generators, so the
    # per-n terms are shared across chunks; the intermittent case is one lane batch
    reference, _ = resolve_reference(cfg)
    assert isinstance(reference, Tabulated) == (cfg.reference_model is None)
    for threads in (1, 2):
        out = run_clt_experiment(cfg, threads=threads)
        for i, n in enumerate(cfg.n_values):
            expected = [
                math.sqrt(n) * w1_sample_vs_model(
                    generate(cfg.process, n, cfg.base_seed, (i << 32) | r).values, reference
                )
                for r in range(cfg.replications)
            ]
            assert out[n].values.tolist() == expected


def test_intermittent_lane_batches_split_by_budget(monkeypatch):
    # 8 * 48 * 7 bytes: 7 lanes per batch at n = 48 and 21 at n = 16, so 50
    # replicates make 8 and 3 batches, each with a ragged last one
    monkeypatch.setattr(harness, "_LANE_BUDGET", 8 * 48 * 7)
    cfg = ExperimentConfig(IntermittentMap(0.25, 0.4, burn_in=50), [16, 48], 50, 5,
                           calibration_length=2000)
    reference, _ = resolve_reference(cfg)
    calls = []
    real = harness.generate_batch

    def recording(spec, n, n_paths, seed, first_stream=0):
        calls.append((n, n_paths, threading.current_thread() is threading.main_thread()))
        return real(spec, n, n_paths, seed, first_stream=first_stream)

    monkeypatch.setattr(harness, "generate_batch", recording)
    for threads in (1, 4):
        calls.clear()
        out = run_clt_experiment(cfg, threads=threads)
        for i, n in enumerate(cfg.n_values):
            lanes = harness._LANE_BUDGET // (8 * n)
            sizes = [count for m, count, _ in calls if m == n]
            assert len(sizes) >= 3 and sum(sizes) == cfg.replications
            assert max(sizes) <= lanes and sizes[-1] < lanes
            expected = [
                math.sqrt(n) * w1_sample_vs_model(
                    generate(cfg.process, n, cfg.base_seed, (i << 32) | r).values, reference
                )
                for r in range(cfg.replications)
            ]
            assert out[n].values.tolist() == expected
        assert all(on_main for _, _, on_main in calls)


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
    with pytest.raises(ValidationError, match="calibration_grid_size"):
        divergence_probe(0.25, 0.1, [64, 128], replications=8, seed=3,
                         calibration_grid_size=size)


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
    ({"growth_factor": math.nan}, "growth_factor"),
    ({"growth_factor": math.inf}, "growth_factor"),
    ({"growth_factor": 1.0}, "growth_factor"),
], ids=["gamma", "a", "burn-in", "zero-n", "zero-n-of-two", "one-replication",
        "nan-growth", "inf-growth", "unit-growth"])
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
    rep = divergence_probe(
        0.25, 0.1, [128, 256], replications=16, seed=3, burn_in=200,
        calibration_factor=20,
    )
    assert set(rep.medians) == {128, 256}
    assert all(v > 0 for v in rep.medians.values())
    assert len(rep.ratios) == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_unknown_subcommand():
    assert cli_main(["frobnicate"]) == 1  # usage error, not a numerical failure
    assert cli_main([]) == 1
    assert cli_main(["--help"]) == 0


def test_cli_check_threshold(tmp_path, capsys):
    code = cli_main(["check", "--gamma", "0.25", "--a", "0.2",
                     "--out-dir", str(tmp_path)])
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


def test_cli_generate_and_compare(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "process": {"variant": "iid", "model": {"kind": "uniform", "lo": 0, "hi": 1}},
        "n": 50,
        "seed": 3,
        "out": "path.csv",
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


def test_cli_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    assert cli_main(["experiment", "--config", str(bad)]) == 1
    unread = tmp_path / "unread.json"
    unread.write_text(json.dumps({**_calibrated_dict("auto"), "out_dir": "out"}))
    assert cli_main(["experiment", "--config", str(unread)]) == 1
    assert cli_main(["check", "--config", str(tmp_path / "missing.json")]) == 1


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
_INTERMITTENT = {"variant": "intermittent", "gamma": 0.25, "observable_exponent": 0.4,
                 "burn_in": 0}
_CFG = ["--config", "{cfg}"]
# a probe writes probe.json to --out-dir when it runs
_PROBE = ["probe", "--gamma", "0.25", "--a", "0.4", "--out-dir", "{out}", "--n-values"]


@pytest.mark.parametrize("argv, config, named", [
    (["check", "--gamma", "0.25", "--a", "0.2", "--threads", "0"], None, "--threads"),
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
    (["generate", *_CFG], {**_GENERATE, "out": "../path.csv"}, "../path.csv"),
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
    (["check", *_CFG], {**_LINEAR, "terms": -3}, "terms must be >= 1"),
    (["check", *_CFG], {**_LINEAR, "terms": 0}, "terms must be >= 1"),
    (["check", *_CFG], {**_LINEAR, "r": 4}, "does not read 'r'"),
    (["check", *_CFG], {**_LINEAR, "mode": "exact_311", "r": 4, "marginal": _UNIFORM},
     "does not read 'r'"),
    (["check", *_CFG], {**_LINEAR, "marginal": _UNIFORM}, "'marginal'"),
    (["check", *_CFG], {**_LINEAR, "mode": "tail_314", "r": 4, "marginal": _UNIFORM},
     "'marginal'"),
    ([*_PROBE, "512", "--gamma", "-1"], None, "gamma"),
    ([*_PROBE, "0"], None, "n_values"),
    ([*_PROBE, "512", "--replications", "1"], None, "replications"),
    ([*_PROBE, "512", "--growth-factor", "nan"], None, "growth_factor"),
    ([*_PROBE, "512", "--growth-factor", "0.5"], None, "growth_factor"),
    (["experiment", *_CFG], {**_EXPERIMENT, "n_values": [0, 5]}, "n_values"),
    (["experiment", *_CFG], {**_EXPERIMENT, "n_values": [0, 5], "process": _INTERMITTENT,
                             "reference": {"calibration_length": 50}}, "n_values"),
], ids=["check-threads", "w1-seed", "experiment-seed", "probe-config", "probe-threads",
        "model-typo", "spec-typo", "coefficients-typo", "limit-key", "iid-limit-lag",
        "generate-key", "out-path", "check-key", "reference-typo", "string-number",
        "scalar-list", "grid-scheme", "report-same-n", "zero-tail-tol",
        "step-pushforward-base", "zero-calibration-grid", "negative-calibration-grid",
        "nan-tabulated-cdf", "inf-tabulated-knot", "inf-pareto-scale", "inf-pareto-exponent",
        "inf-polynomial-beta", "inf-polynomial-offset", "linear-negative-terms",
        "linear-zero-terms", "rio-unread-r", "exact-unread-r", "rio-unread-marginal",
        "tail-unread-marginal", "probe-gamma", "probe-zero-n", "probe-one-replication",
        "probe-nan-growth", "probe-small-growth", "iid-zero-n", "intermittent-zero-n"])
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
