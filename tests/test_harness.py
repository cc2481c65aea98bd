import json
import math

import numpy as np
import pytest

from w1clt.cli import cli_main
from w1clt.errors import ValidationError
from w1clt.harness import (
    ExperimentConfig,
    compare_against_limit,
    compare_distributions,
    divergence_probe,
    ks_two_sample,
    run_clt_experiment,
)
from w1clt.limitlaw import StatisticSample
from w1clt.models import Uniform
from w1clt.processes import IID, generate
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


def test_config_json_roundtrip():
    d = {
        "schema_version": 1,
        "process": {"variant": "iid", "model": {"kind": "uniform", "lo": 0, "hi": 1}},
        "n_values": [8, 32],
        "replications": 4,
        "base_seed": 5,
        "reference": {"analytic": {"kind": "uniform", "lo": 0, "hi": 1}},
    }
    cfg = ExperimentConfig.from_json(json.dumps(d))
    assert cfg.n_values == [8, 32]
    assert cfg.reference_model == Uniform(0, 1)
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({**d, "schema_version": 2})
    # sections nothing reads are rejected, not silently ignored
    for key, value in (("grid", {"size": 64}), ("limit", {"lag_cutoff": 0}),
                       ("out_dir", "out"), ("replication", 4)):
        with pytest.raises(ValidationError, match=key):
            ExperimentConfig.from_dict({**d, key: value})


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


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(threads, tmp_path):
    with pytest.raises(ValidationError, match="threads"):
        run_clt_experiment(_uniform_config(), threads=threads)
    with pytest.raises(ValidationError, match="threads"):
        divergence_probe(0.25, 0.1, [64, 128], replications=8, seed=3, threads=threads)
    assert cli_main(["probe", "--gamma", "0.25", "--a", "0.1", "--n-values", "64,128",
                     "--replications", "8", "--threads", str(threads),
                     "--out-dir", str(tmp_path)]) == 1


# ---------------------------------------------------------------------------
# divergence probe
# ---------------------------------------------------------------------------

def test_probe_insufficient_data():
    rep = divergence_probe(0.25, 0.4, [1024], replications=8, seed=3)
    assert rep.verdict == "insufficient data"


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
    assert json.load(open(tmp_path / "check.json"))["verdict"] == "converges"


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
    rcfg.write_text(json.dumps({"finite_n": {"100": str(a)}, "limit": str(b)}))
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
    f.write_text(json.dumps(cfg))
    assert cli_main(["limit", "--config", str(f), "--out-dir", str(tmp_path)]) == 0
    vals = StatisticSample.read_csv_values(open(tmp_path / "limit.csv"))
    assert vals.size == 500
    assert np.all(vals >= 0)
