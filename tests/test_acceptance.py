"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s``).  Every tolerance is pinned here;
seeds are fixed and printed where a criterion asks for them.  Beside
criterion 9, one more determinism test covers the intermittent map.
"""
import math
import time

import numpy as np
from scipy import integrate

from w1clt.conditions import (
    ConstantBound,
    PhiGeometric,
    alpha_forms_pair,
    check_intermittent_threshold,
    check_linear_conditions,
    lag_cutoff,
)
from w1clt.harness import (
    ExperimentConfig,
    divergence_probe,
    ks_two_sample,
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
from w1clt.models import Exponential, ParetoTail, Uniform
from w1clt.processes import DoublingMap, IID, IntermittentMap, PolynomialCoeffs
from w1clt.transport import (
    lambda21,
    quantile_tail_integral,
    w1_two_samples,
)

SQRT_2PI_OVER_8 = math.sqrt(2.0 * math.pi) / 8.0
THREADS = 4


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_w1_identities():
    # 1e4 randomized equal-size pairs (n <= 256): CDF-integral form vs the
    # order-statistic coupling to 1e-12; triangle inequality and translation
    # equivariance exact at float resolution.  Runtime < 10 s.
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_gap = 0.0
    triangle_ok = True
    translation_worst = 0.0
    for i in range(10_000):
        n = int(rng.integers(1, 257))
        scale = rng.uniform(0.3, 3.0)
        x = rng.normal(size=n) * scale
        y = rng.normal(loc=rng.uniform(-2, 2), size=n)
        gap = abs(w1_two_samples(x, y) - float(np.mean(np.abs(np.sort(x) - np.sort(y)))))
        worst_gap = max(worst_gap, gap)
        if i % 10 == 0:
            z = rng.uniform(-1, 2, size=int(rng.integers(1, 257)))
            if w1_two_samples(x, z) > w1_two_samples(x, y) + w1_two_samples(y, z) + 1e-12:
                triangle_ok = False
            c = float(rng.uniform(-5, 5))
            translation_worst = max(
                translation_worst, abs(w1_two_samples(x + c, x) - abs(c))
            )
    elapsed = time.monotonic() - start
    ok = (worst_gap <= 1e-12 and triangle_ok and translation_worst <= 1e-12
          and elapsed < 10.0)
    _criterion(1, ok, f"coupling gap {worst_gap:.2e} <= 1e-12, triangle holds, "
                      f"translation gap {translation_worst:.2e}, {elapsed:.1f}s < 10s")


def test_criterion_2_analytic_integrals():
    start = time.monotonic()
    l_uni = float(lambda21(Uniform(0, 1)))
    l_exp = float(lambda21(Exponential(1.0)))
    pareto2 = lambda21(ParetoTail(1.0, 2.0))
    qti = float(quantile_tail_integral(Uniform(0, 1), 0.25))
    elapsed = time.monotonic() - start
    ok = (abs(l_uni - 2.0 / 3.0) <= 1e-9 and abs(l_exp - 2.0) <= 1e-9
          and pareto2.is_infinite and abs(qti - 11.0 / 12.0) <= 1e-9
          and elapsed < 1.0)
    _criterion(2, ok, f"lambda21(U)={l_uni:.12f}, lambda21(Exp)={l_exp:.12f}, "
                      f"Pareto r=2 flagged +inf, qti={qti:.12f}, {elapsed:.2f}s < 1s")


def test_criterion_3_min_form_identity():
    # 50 (model, alpha) pairs over Uniform / Exponential / Pareto(r > 2):
    # both forms agree to relative 1e-6; worked Uniform alpha = 0.25 instance.
    rng = np.random.default_rng(303)
    models = [Uniform(0, 1), Uniform(0, 3), Exponential(1.0), Exponential(0.4),
              ParetoTail(1.0, 3.0), ParetoTail(1.0, 4.0), ParetoTail(0.5, 6.0),
              ParetoTail(2.0, 2.5)]
    start = time.monotonic()
    worst_rel = 0.0
    for i in range(50):
        m = models[i % len(models)]
        alpha = float(rng.uniform(0.01, 1.0))
        left, right = alpha_forms_pair(ConstantBound(alpha), m, k=1)
        worst_rel = max(worst_rel, abs(left - right) / (1.0 + abs(right)))
    left, right = alpha_forms_pair(ConstantBound(0.25), Uniform(0, 1), k=1)
    worked = abs(left - 11.0 / 24.0) <= 1e-9 and abs(right - 11.0 / 24.0) <= 1e-9
    elapsed = time.monotonic() - start
    ok = worst_rel <= 1e-6 and worked and elapsed < 5.0
    _criterion(3, ok, f"50 pairs, worst relative gap {worst_rel:.2e} <= 1e-6, "
                      f"worked instance = 0.458333..., {elapsed:.1f}s < 5s")


def test_criterion_4_iid_limit_mean():
    # Uniform iid, n = 1e4, R = 2000: |mean(T_n) - sqrt(2 pi)/8| <= 0.015.
    # The constant is re-derived by independent quadrature first.
    const, _ = integrate.quad(
        lambda u: math.sqrt(2.0 * u * (1.0 - u) / math.pi), 0.0, 1.0
    )
    assert abs(const - SQRT_2PI_OVER_8) < 1e-10
    beta_check, _ = integrate.quad(lambda u: math.sqrt(u * (1.0 - u)), 0.0, 1.0)
    assert abs(beta_check - math.pi / 8.0) < 1e-10
    cfg = ExperimentConfig(
        process=IID(Uniform(0, 1)), n_values=[10_000], replications=2000,
        base_seed=20260810, reference_model=Uniform(0, 1),
    )
    mean_tn = float(np.mean(run_clt_experiment(cfg, threads=THREADS)[10_000].values))
    gap = abs(mean_tn - SQRT_2PI_OVER_8)
    _criterion(4, gap <= 0.015,
               f"mean(T_n)={mean_tn:.6f}, sqrt(2pi)/8={SQRT_2PI_OVER_8:.6f}, "
               f"gap {gap:.4f} <= 0.015 (seed 20260810)")


def test_criterion_5_oracle_equivalence():
    # Brownian-bridge oracle vs Gaussian-vector route, R = 1e5, 512 points.
    bridge = brownian_bridge_oracle(Uniform(0, 1), 100_000, mesh=512, seed=1001)
    cg = covariance_iid(Uniform(0, 1), quantile_grid(Uniform(0, 1), 512))
    direct = sample_limit_functional(cg, 100_000, seed=1002)
    ks = ks_two_sample(bridge.values, direct.values)
    _criterion(5, ks < 0.01, f"two-sample KS {ks:.5f} < 0.01 at R=1e5 "
                             f"(seeds 1001/1002)")


def test_criterion_6_dependent_convergence_in_law():
    # Doubling map with f(x) = x**-0.25 (geometric phi bound holds); the
    # marginal is exactly Pareto(1, 4).  n = 1e4, R = 2000 against the
    # simulated dependent limit; KS <= 0.07 (statistical tolerance).
    model = ParetoTail(1.0, 4.0)
    k_lag = lag_cutoff(PhiGeometric(1.0, 0.5), tol=1e-3)
    grid = variance_length_grid(model, 64)
    cg = covariance_dependent(DoublingMap(0.25, burn_in=0), grid, k_lag,
                              sim_length=1_000_000, seed=501)
    limit = sample_limit_functional(cg, 20_000, seed=502)
    cfg = ExperimentConfig(
        process=DoublingMap(0.25, burn_in=0), n_values=[10_000], replications=2000,
        base_seed=601, reference_model=model,
    )
    finite = run_clt_experiment(cfg, threads=THREADS)[10_000]
    ks = ks_two_sample(finite.values, limit.values)
    _criterion(6, ks <= 0.07,
               f"KS {ks:.4f} <= 0.07 (K={k_lag}, sim 1e6, grid 64 vartail, "
               f"seeds: covariance 501, limit 502, paths 601)")


def test_criterion_7_intermittent_threshold_behavior():
    # gamma = 0.25.  Convergent side a = 0.1: median ratios across octaves in
    # [0.8, 1.25].  Divergent side a = 0.4: strictly increasing medians with
    # cumulative factor >= 1.5.  Property-based surrogates at desk scale.
    n_values = [2**12, 2**14, 2**16]
    conv = divergence_probe(0.25, 0.1, n_values, replications=2000, seed=777,
                            burn_in=10_000, threads=THREADS)
    div = divergence_probe(0.25, 0.4, n_values, replications=2000, seed=777,
                           burn_in=10_000, threads=THREADS)
    conv_ok = all(0.8 <= r <= 1.25 for r in conv.ratios)
    div_cumulative = div.medians[n_values[-1]] / div.medians[n_values[0]]
    div_ok = (all(r > 1.0 for r in div.ratios) and div_cumulative >= 1.5
              and div.verdict == "non-stabilizing")
    detail = (
        f"a=0.1 medians {[round(conv.medians[n], 4) for n in n_values]} "
        f"ratios {[round(r, 3) for r in conv.ratios]} in [0.8, 1.25]; "
        f"a=0.4 medians {[round(div.medians[n], 4) for n in n_values]} "
        f"cumulative {div_cumulative:.3f} >= 1.5 (seed 777)"
    )
    _criterion(7, conv_ok and div_ok, detail)


def test_criterion_8_condition_checker_truth_table():
    start = time.monotonic()
    grid_ok = True
    for gamma in np.linspace(0.05, 0.95, 19):
        for a in np.linspace(0.02, 0.6, 30):
            margin = 0.5 - gamma - a
            if abs(margin) <= 1e-3:
                continue
            verdict = check_intermittent_threshold(float(gamma), float(a)).verdict
            expected = "converges" if margin > 0 else "diverges"
            if verdict != expected:
                grid_ok = False
    linear_ok = True
    families = [(beta, r) for beta in (1.5, 2.0, 2.5, 3.0, 4.0) for r in (3.0, 4.0)]
    assert len(families) == 10
    for beta, r in families:
        critical = r / (r - 2.0)
        if beta == critical:
            expected = "undetermined"  # exact critical exponent
        else:
            expected = "converges" if beta > critical else "diverges"
        for mode in ("moment_313", "tail_314"):
            rep = check_linear_conditions(
                PolynomialCoeffs(beta), Uniform(-1, 1), mode, r=r
            )
            if rep.verdict != expected:
                linear_ok = False
    elapsed = time.monotonic() - start
    ok = grid_ok and linear_ok and elapsed < 10.0
    _criterion(8, ok, f"(gamma, a) grid matches sign(1/2 - gamma - a); 10 linear "
                      f"families match hand exponents; {elapsed:.1f}s < 10s")


def test_criterion_9_determinism_across_threads(tmp_path):
    # Same config and seeds, different thread counts: byte-identical CSVs.
    import json

    from w1clt.cli import cli_main

    cfg = {
        "schema_version": 1,
        "process": {"variant": "doubling", "observable_exponent": 0.25, "burn_in": 0},
        "n_values": [512, 2048],
        "replications": 300,
        "base_seed": 424242,
        "reference": {"analytic": {"kind": "pareto_tail", "scale": 1.0, "exponent": 4.0}},
    }
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps(cfg))
    outputs = {}
    for threads in ("1", "5"):
        out_dir = tmp_path / f"threads{threads}"
        code = cli_main(["experiment", "--config", str(cfg_file),
                         "--threads", threads, "--out-dir", str(out_dir)])
        assert code == 0
        outputs[threads] = tuple(
            (out_dir / f"tn_{n}.csv").read_bytes() for n in (512, 2048)
        )
    ok = outputs["1"] == outputs["5"]
    _criterion(9, ok, "experiment CSVs byte-identical for --threads 1 vs 5 "
                      "(seed 424242)")


def test_intermittent_determinism_across_processes():
    # Criterion 9's contract for the intermittent map, whose lane batches are
    # sized by the process count: 3 n values and a ragged R give identical
    # T_n bytes, in stream order, at 1, 2 and 3 processes.
    cfg = ExperimentConfig(IntermittentMap(0.25, 0.4, burn_in=100), [64, 256, 1024], 301,
                           20261019, calibration_length=10_240)
    runs = {t: run_clt_experiment(cfg, threads=t) for t in (1, 2, 3)}
    for n in cfg.n_values:
        assert runs[1][n].values.tobytes() == runs[2][n].values.tobytes()
        assert runs[1][n].values.tobytes() == runs[3][n].values.tobytes()
