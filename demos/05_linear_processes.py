"""Causal linear processes: coefficient summability decides the CLT.

Y_k = sum_j a_j eps_{k-j} satisfies the empirical CLT when the coefficient
tail is light enough relative to the innovation moments; the four checker
modes are different sufficient routes to the same conclusion.  Simulation
truncates the series at J with a closed-form error bound.
"""
import numpy as np

from w1clt import (
    CausalLinear,
    ExperimentConfig,
    GeometricCoeffs,
    PolynomialCoeffs,
    Uniform,
    check_linear_conditions,
    generate,
    run_clt_experiment,
    tabulate_cdf,
)

innovation = Uniform(-1.0, 1.0)

print("== checker modes on two families (innovation density bound K = 0.5) ==")
for fam, label in [
    (GeometricCoeffs(0.5), "geometric rho=0.5"),
    (PolynomialCoeffs(4.0), "a_k = (k+1)^-4"),
    (PolynomialCoeffs(1.2), "a_k = (k+1)^-1.2"),
]:
    verdicts = []
    for mode, r in [("rio_312", None), ("moment_313", 3.0), ("tail_314", 3.0)]:
        rep = check_linear_conditions(fam, innovation, mode, r=r)
        verdicts.append(f"{mode}={rep.verdict}")
    print(f"  {label:<18}: " + ", ".join(verdicts))

print("\n== truncation bookkeeping ==")
spec = CausalLinear(GeometricCoeffs(0.9), innovation)
path = generate(spec, 2000, seed=21)
print(f"  default rule picks J so the coefficient tail < 1e-8; "
      f"truncation error bound = {path.truncation_error_bound:.2e}")

print("\n== exact_311 with a calibrated marginal ==")
marginal = tabulate_cdf(generate(spec, 200_000, seed=22).values, np.linspace(-6, 6, 1001))
rep = check_linear_conditions(
    GeometricCoeffs(0.9), innovation, "exact_311", marginal=marginal
)
print(f"  verdict: {rep.verdict}; partial sum {rep.partial_sum:.4f}")

print("\n== T_n for the MA process against its calibrated marginal ==")
cfg = ExperimentConfig(
    process=spec, n_values=[500, 2000], replications=300, base_seed=23,
    calibration_length=400_000,
)
for n, sample in run_clt_experiment(cfg, threads=4).items():
    print(f"  n={n:>5}: mean(T_n) = {np.mean(sample.values):.4f}, "
          f"sd = {np.std(sample.values):.4f}")
