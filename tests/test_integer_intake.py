"""Every count, seed and stream of the Python API goes through ``errors.count``.

A non-integral value (2.5, a bool, a string, None) or one below the
parameter's minimum raises ValidationError naming the parameter before any
orbit, calibration, covariance or sampling work starts; an integral float or
a numpy int gives the bytes of the plain int.  Its twin ``errors.real`` takes
every scalar real field of a model, coefficient family, process, bound or
experiment config, and every real argument of a function.
"""
import io
import json

import numpy as np
import pytest

import w1clt.harness as harness
import w1clt.limitlaw as limitlaw
import w1clt.processes as processes
from w1clt.conditions import (
    AlphaPolynomial,
    ConstantBound,
    PhiGeometric,
    alpha_forms_pair,
    check_intermittent_threshold,
    check_linear_conditions,
    lag_cutoff,
)
from w1clt.errors import ValidationError, count
from w1clt.harness import (
    ExperimentConfig,
    auto_calibration_grid,
    divergence_probe,
    run_clt_experiment,
)
from w1clt.limitlaw import (
    brownian_bridge_oracle,
    covariance_dependent,
    covariance_iid,
    quantile_grid,
    sample_limit_functional,
    variance_length_grid,
)
from w1clt.models import Exponential, ParetoTail, Uniform, power_pushforward
from w1clt.processes import (
    IID,
    CausalLinear,
    DoublingMap,
    GeometricCoeffs,
    IntermittentMap,
    PolynomialCoeffs,
    generate,
    generate_batch,
    spawn_rng,
)
from w1clt.transport import quantile_tail_integral, sqrt_tail_integral, w1_sample_vs_model

U = Uniform(0, 1)
INTERMITTENT = IntermittentMap(0.25, 0.4, burn_in=0)


def _config(**kwargs):
    args = {"process": IID(U), "n_values": [16, 32], "replications": 4, "base_seed": 5,
            "reference_model": U, **kwargs}
    return ExperimentConfig(**args)


def _calibrated(**kwargs):
    return _config(reference_model=None, calibration_length=64, **kwargs)


# (entry point, parameter, least or None, call taking the value under test)
CASES = [
    ("spawn_rng", "seed", None, lambda v: spawn_rng(v, 0)),
    ("spawn_rng", "stream", 0, lambda v: spawn_rng(1, v)),
    ("spawn_rng", "purpose", 0, lambda v: spawn_rng(1, 0, v)),
    ("generate", "n", 1, lambda v: generate(IID(U), v, 1)),
    ("generate", "seed", None, lambda v: generate(IID(U), 8, v)),
    ("generate", "stream", 0, lambda v: generate(IID(U), 8, 1, stream=v)),
    ("generate_intermittent", "stream", 0, lambda v: generate(INTERMITTENT, 8, 1, stream=v)),
    ("generate_batch", "n", 1, lambda v: generate_batch(IID(U), v, 2, 1)),
    ("generate_batch", "n_paths", 1, lambda v: generate_batch(IID(U), 8, v, 1)),
    ("generate_batch", "seed", None, lambda v: generate_batch(INTERMITTENT, 8, 2, v)),
    ("ExperimentConfig", "n_values", 1, lambda v: _config(n_values=[v])),
    ("ExperimentConfig", "replications", 2, lambda v: _config(replications=v)),
    ("ExperimentConfig", "base_seed", None, lambda v: _config(base_seed=v)),
    ("ExperimentConfig", "calibration_length", 1,
     lambda v: _config(reference_model=None, calibration_length=v)),
    ("ExperimentConfig", "calibration_grid_size", 1,
     lambda v: _calibrated(calibration_grid_size=v)),
    ("run_clt_experiment", "threads", 1, lambda v: run_clt_experiment(_calibrated(), v)),
    ("divergence_probe", "threads", 1,
     lambda v: divergence_probe(0.25, 0.4, [64, 128], 4, 3, threads=v)),
    ("divergence_probe", "n_values", 1, lambda v: divergence_probe(0.25, 0.4, [v], 4, 3)),
    ("divergence_probe", "seed", None, lambda v: divergence_probe(0.25, 0.4, [64, 128], 4, v)),
    ("auto_calibration_grid", "size", 1, lambda v: auto_calibration_grid(np.arange(5.0), v)),
    ("quantile_grid", "size", 1, lambda v: quantile_grid(U, v)),
    ("variance_length_grid", "size", 2, lambda v: variance_length_grid(U, v)),
    ("covariance_dependent", "lag_cutoff", 0,
     lambda v: covariance_dependent(DoublingMap(0.25), [0.5, 2.0], v, 100, 1)),
    ("covariance_dependent", "sim_length", 1,
     lambda v: covariance_dependent(DoublingMap(0.25), [0.5, 2.0], 0, v, 1)),
    ("covariance_dependent", "seed", None,
     lambda v: covariance_dependent(DoublingMap(0.25), [0.5, 2.0], 2, 100, v)),
    ("sample_limit_functional", "replications", 1,
     lambda v: sample_limit_functional(covariance_iid(U, [0.25, 0.75]), v, 1)),
    ("sample_limit_functional", "seed", None,
     lambda v: sample_limit_functional(covariance_iid(U, [0.25, 0.75]), 4, v)),
    ("brownian_bridge_oracle", "replications", 1, lambda v: brownian_bridge_oracle(U, v, 8, 1)),
    ("brownian_bridge_oracle", "mesh", 1, lambda v: brownian_bridge_oracle(U, 4, v, 1)),
    ("brownian_bridge_oracle", "seed", None, lambda v: brownian_bridge_oracle(U, 4, 8, v)),
    ("alpha_forms_pair", "k", 1,
     lambda v: alpha_forms_pair(AlphaPolynomial(1.0, 0.5), ParetoTail(1.0, 3.0), v)),
]


# parameters for which None is a valid choice: no calibration
NONE_ALLOWED = {("ExperimentConfig", "calibration_length")}


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the input was checked")


@pytest.mark.parametrize("entry, name, least, call", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_counts_seeds_and_streams_are_integers_checked_before_any_work(
        entry, name, least, call, monkeypatch):
    for module, attr in ((processes, "_rows"), (processes, "_intermittent_orbit"),
                         (processes, "_intermittent_orbit_batch"), (harness, "generate"),
                         (harness, "generate_batch"), (limitlaw, "generate"),
                         (limitlaw, "spawn_rng")):
        monkeypatch.setattr(module, attr, _no_work)
    for bad in (2.5, True, "3") + (() if (entry, name) in NONE_ALLOWED else (None,)):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            call(bad)
    if least is not None:
        with pytest.raises(ValidationError, match=f"{name} must be >= {least}, got {least - 1}"):
            call(least - 1)


# (record, field, call building it with the value under test, a valid value)
REALS = [
    ("Uniform", "lo", lambda v: Uniform(v, 2.0), 0.5),
    ("Uniform", "hi", lambda v: Uniform(0.0, v), 0.5),
    ("Exponential", "rate", lambda v: Exponential(v), 2.0),
    ("ParetoTail", "scale", lambda v: ParetoTail(v, 3.0), 2.0),
    ("ParetoTail", "exponent", lambda v: ParetoTail(1.0, v), 2.0),
    ("GeometricCoeffs", "rho", lambda v: GeometricCoeffs(v), 0.5),
    ("PolynomialCoeffs", "beta", lambda v: PolynomialCoeffs(v), 3.0),
    ("PolynomialCoeffs", "offset", lambda v: PolynomialCoeffs(3.0, v), 2.0),
    ("IntermittentMap", "gamma", lambda v: IntermittentMap(v, 0.4), 0.5),
    ("IntermittentMap", "observable_exponent", lambda v: IntermittentMap(0.25, v), 2.0),
    ("DoublingMap", "observable_exponent", lambda v: DoublingMap(v), 2.0),
    ("PhiGeometric", "c1", lambda v: PhiGeometric(v, 0.5), 2.0),
    ("PhiGeometric", "rho", lambda v: PhiGeometric(1.0, v), 0.5),
    ("AlphaPolynomial", "c_gamma", lambda v: AlphaPolynomial(v, 0.25), 2.0),
    ("AlphaPolynomial", "gamma", lambda v: AlphaPolynomial(1.0, v), 0.5),
    ("ConstantBound", "value", lambda v: ConstantBound(v), 0.5),
    ("ExperimentConfig", "tail_tol", lambda v: _config(tail_tol=v), 0.5),
]


@pytest.mark.parametrize("record, name, call, good", REALS,
                         ids=[f"{c[0]}-{c[1]}" for c in REALS])
def test_real_fields_are_numbers(record, name, call, good):
    # True once built a ParetoTail of scale 1 and '2' raised a raw TypeError
    for bad in (True, False, np.bool_(True), "2", None):
        with pytest.raises(ValidationError, match=f"{name} must be a number"):
            call(bad)
    for same in (good, np.float64(good), np.float32(good)):
        value = getattr(call(same), name)
        assert type(value) is float and value == good
    if good == 2.0:  # an int counts as the number it is
        assert call(2) == call(2.0)


# (function, argument, call taking the value under test, a valid value)
ARGUMENT_REALS = [
    ("check_intermittent_threshold", "gamma", lambda v: check_intermittent_threshold(v, 0.5),
     0.25),
    ("check_intermittent_threshold", "a", lambda v: check_intermittent_threshold(0.25, v), 0.5),
    ("lag_cutoff", "tol", lambda v: lag_cutoff(PhiGeometric(1.0, 0.5), tol=v), 0.5),
    ("quantile_tail_integral", "alpha", lambda v: quantile_tail_integral(U, v), 0.5),
    ("sqrt_tail_integral", "lower", lambda v: sqrt_tail_integral(U, v), 0.5),
    ("power_pushforward", "exponent", lambda v: power_pushforward(v), 0.5),
    ("check_linear_conditions", "r",
     lambda v: check_linear_conditions(GeometricCoeffs(0.5), U, "tail_314", r=v), 4.0),
    ("w1_sample_vs_model", "tail_tol", lambda v: w1_sample_vs_model([0.2, 0.7], U, v), 0.5),
]


@pytest.mark.parametrize("function, name, call, good", ARGUMENT_REALS,
                         ids=[f"{c[0]}-{c[1]}" for c in ARGUMENT_REALS])
def test_real_arguments_are_numbers(function, name, call, good):
    # True once gave a threshold verdict and '0.2' raised a raw TypeError
    for bad in (True, False, np.bool_(True), "2", "x"):
        with pytest.raises(ValidationError, match=f"{name} must be a number"):
            call(bad)
    if name != "r":  # r=None is a mode that reads no r: a ValidationError of its own
        with pytest.raises(ValidationError, match=f"{name} must be a number"):
            call(None)
    for same in (np.float64(good), np.float32(good)):
        assert call(same) == call(good)


def test_count_takes_integral_values_only():
    for good in (16, 16.0, np.int64(16), np.float64(16.0), np.array(16)):
        out = count(good, "n", 16)
        assert out == 16 and type(out) is int
    for bad in (np.bool_(True), np.float64(16.5), float("nan"), float("inf"), [16]):
        with pytest.raises(ValidationError, match="n must be an integer"):
            count(bad, "n")
    assert count(-7, "seed") == -7  # no bound unless one is given


@pytest.mark.parametrize("bad", [None, 64, 2.5, "64", [[64]]])
def test_n_values_must_be_a_list(bad):
    with pytest.raises(ValidationError, match="n_values"):
        _config(n_values=bad)
    with pytest.raises(ValidationError, match="n_values"):
        divergence_probe(0.25, 0.4, bad, 4, 3)


SPECS = [
    IID(U),
    IntermittentMap(0.25, 0.4, burn_in=16),
    DoublingMap(0.25, burn_in=16),
    CausalLinear(GeometricCoeffs(0.5), Uniform(-1, 1), truncation=16),
]


def _csv(path):
    buf = io.StringIO()
    path.to_csv(buf)
    return buf.getvalue()


@pytest.mark.parametrize("make", [float, np.int64], ids=["float", "numpy_int"])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_integral_floats_and_numpy_ints_give_the_bytes_of_ints(spec, make):
    # the CSV header carries the seed and stream, so a numpy int must come out an int
    assert _csv(generate(spec, make(16), make(16), stream=make(16))) == \
        _csv(generate(spec, 16, 16, stream=16))
    batch = generate_batch(spec, make(16), make(3), make(16), first_stream=make(16))
    assert batch.tobytes() == generate_batch(spec, 16, 3, 16, first_stream=16).tobytes()


@pytest.mark.parametrize("make", [float, np.int64], ids=["float", "numpy_int"])
def test_experiment_takes_integral_floats_and_numpy_ints(make):
    def run(f):
        cfg = ExperimentConfig(DoublingMap(0.25, burn_in=16), [f(16), f(32)], f(4), f(16),
                               calibration_length=f(320), calibration_grid_size=f(64))
        return run_clt_experiment(cfg, threads=f(2))

    got, want = run(make), run(int)
    assert [type(n) for n in got] == [int, int] and list(got) == list(want)
    for n in want:
        assert got[n].values.tobytes() == want[n].values.tobytes()
        assert json.dumps(got[n].metadata) == json.dumps(want[n].metadata)
