"""The benchmark's three pipeline workloads: inputs from a seed, the run, its checks.

Each workload has a `setup` (specs, models, grids and config; what `setup_s`
times) and a `run` (inputs to verdict; what `wall_s` times).  `run` counts
every operation it attempts and every one that fails: T_n replicates, limit
draws and correctness checks.  A pipeline call that raises counts all of its
operations as failed and is reported, not fatal.

Gated checks hold for every seed tried: the checkers' verdicts, T_n rows
that match a one-stream-at-a-time recomputation bit for bit, and statistical
conditions with tolerances that no seed's correct output comes near.  The
recomputations are the benchmark's own work, so `run` leaves them in
`Outcome.deferred` for the caller to run after its clock stops.

Two acceptance conditions are printed as margins on every run, not gated.
Criterion 6's KS <= 0.07 fails for most covariance-path seeds at this
workload's sizes (and for 5 of seeds 1-13 at the criterion's own): the
limit law from `covariance_dependent` comes out wider than the T_n
replicates, by up to 60% in mean, apparently when one extreme value of the
single long path lands among the far-tail grid points.  That looks like an
estimator defect, not sampling noise, and is left for the limitlaw layer to
fix.  The gates on the limit law are instead a band on its mean relative to
the T_n replicates' (LIMIT_MEAN_RATIO) and the sampler's mean against the
one its covariance implies (SAMPLER_Z).  Criterion 7's cumulative growth
>= 1.5 missed at one seed with R = 512.

The sizes are below the acceptance criteria's so that one run of a workload
takes a second or two: CPU speed on small shared machines swings by up to
half for tens of seconds at a time, and only a median over many short runs
rides that out.  Each size keeps the layer mix the workload is there
for, and at least two 256-row harness chunks per n so both threads work.
"""
from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from w1clt.conditions import (
    AlphaPolynomial,
    PhiGeometric,
    check_alpha_condition,
    check_intermittent_threshold,
    check_linear_conditions,
    check_phi_condition,
    lag_cutoff,
)
from w1clt.harness import (
    ExperimentConfig,
    auto_calibration_grid,
    compare_distributions,
    divergence_probe,
    run_clt_experiment,
)
from w1clt.limitlaw import covariance_dependent, sample_limit_functional, variance_length_grid
from w1clt.models import ParetoTail, Uniform
from w1clt.processes import CausalLinear, DoublingMap, PolynomialCoeffs, generate, tabulate_cdf
from w1clt.transport import w1_sample_vs_model

THREADS = 2

KS_BOUND = 0.07  # acceptance criterion 6, printed as a margin
# Limit-sample mean over T_n mean on doubling_dependent.  This code gave
# 0.946-1.627 on seeds 0-339 (long above: the tail-covariance defect);
# dropping the lag terms of the covariance gives 0.59-0.77 (seeds 0-39).
LIMIT_MEAN_RATIO = (0.85, 2.5)
# Standard errors allowed between the limit sample's mean and the one its
# covariance implies; seeds 0-339 gave |z| <= 3.2.
SAMPLER_Z = 5.0
RATIO_RANGE = (0.8, 1.25)  # acceptance criterion 7, the stabilizing side
GAMMA = 0.25
PROBE_A = 0.4


@dataclass
class Outcome:
    """Counts, checks and digest of one run of a workload."""

    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)  # (name, ok, detail)
    margins: list = field(default_factory=list)  # (name, detail), reported, not gated
    digest: str = ""
    tn_rows: int = 0
    tn_s: float = 0.0  # wall time of the harness call that made the T_n rows
    lag_cutoff: int = 0
    covariance: object = None  # the CovarianceGrid, on doubling_dependent
    deferred: list = field(default_factory=list)  # checks to run once the clock stops

    def verify(self) -> None:
        """Run the deferred checks; they recompute pipeline output, so are not timed."""
        for fn in self.deferred:
            fn()
        self.deferred.clear()

    def stage(self, ops: int, fn):
        """Run one pipeline call worth `ops` operations; None if it raised.

        Checker calls are worth 0: the check on their verdict is the operation.
        """
        self.attempted += ops
        try:
            return fn()
        except Exception:  # counted and reported; the remaining stages still run
            traceback.print_exc(file=sys.stderr)
            self.failed += ops
            return None

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append((name, bool(ok), detail))

    def margin(self, name: str, detail: str) -> None:
        self.margins.append((name, detail))

    def timed_harness(self, rec, rows: int, fn):
        start = time.perf_counter()
        with rec.span("harness"):
            result = self.stage(rows, fn)
        self.tn_s = time.perf_counter() - start
        self.tn_rows = rows
        return result


def check_rows(out: Outcome, cfg: ExperimentConfig, reference, tn) -> None:
    """Recompute T_n rows one stream at a time; they must equal the harness's bit for bit.

    Rows: the first, both sides of the harness's 256-row chunk boundary, the last.
    """
    rows = [(i, n, r) for i, n in enumerate(cfg.n_values)
            for r in sorted({0, 255, 256, cfg.replications - 1} & set(range(cfg.replications)))]
    wrong = []
    for i, n, r in rows:
        path = generate(cfg.process, n, cfg.base_seed, stream=(i << 32) | r).values
        if tn[n].values[r] != math.sqrt(n) * w1_sample_vs_model(path, reference, cfg.tail_tol):
            wrong.append((n, r))
    out.check("T_n rows equal one-stream recomputation", not wrong,
              f"{len(rows)} rows recomputed; (n, r) that differ: {wrong}")


def digest(*arrays) -> str:
    """SHA-256 of the sorted float64 bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.sort(np.asarray(a, dtype=np.float64).ravel()).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# doubling_dependent: acceptance criterion 6 (limitlaw covariance dominates)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoublingParams:
    grid_size: int = 64
    sim_length: int = 250_000  # criterion 6: 1e6
    limit_replications: int = 5000  # criterion 6: 20 000
    n: int = 10_000
    replications: int = 512  # criterion 6: 2000


@dataclass
class DoublingInputs:
    params: DoublingParams
    seed: int
    spec: DoublingMap
    marginal: ParetoTail
    grid: np.ndarray
    config: ExperimentConfig
    reference_models: tuple


def setup_doubling(p: DoublingParams, seed: int) -> DoublingInputs:
    spec = DoublingMap(0.25, burn_in=0)
    marginal = ParetoTail(1.0, 4.0)  # the exact marginal of x**-0.25
    # A separate instance for the reference, so a traced run counts the T_n
    # loop's model calls and not the grid's or the checkers'.
    reference = ParetoTail(1.0, 4.0)
    config = ExperimentConfig(
        process=spec, n_values=[p.n], replications=p.replications,
        base_seed=seed + 2, reference_model=reference,
    )
    grid = variance_length_grid(marginal, p.grid_size)
    return DoublingInputs(p, seed, spec, marginal, grid, config, (reference,))


def run_doubling(inp: DoublingInputs, threads: int, rec) -> Outcome:
    p, out = inp.params, Outcome()
    phi_bound = PhiGeometric(1.0, 0.5)
    with rec.span("conditions"):
        lag = out.stage(0, lambda: lag_cutoff(phi_bound, tol=1e-3))
        phi = out.stage(0, lambda: check_phi_condition(phi_bound, inp.marginal))
    out.check("phi checker converges", phi is not None and phi.verdict == "converges",
              f"verdict {getattr(phi, 'verdict', None)}")
    out.lag_cutoff = lag or 0

    def limit_law():
        with rec.span("limitlaw.covariance"):
            cg = covariance_dependent(inp.spec, inp.grid, lag, p.sim_length, inp.seed)
        out.covariance = cg
        with rec.span("limitlaw.sample"):
            return sample_limit_functional(cg, p.limit_replications, inp.seed + 1)

    limit = out.stage(p.limit_replications, limit_law)
    tn = out.timed_harness(rec, p.replications,
                           lambda: run_clt_experiment(inp.config, threads=threads))
    if tn is not None and limit is not None:
        finite = tn[p.n]
        report = compare_distributions(finite, limit)
        ratio = float(np.mean(limit.values) / np.mean(finite.values))
        lo, hi = LIMIT_MEAN_RATIO
        out.check("limit mean over T_n mean", lo <= ratio <= hi,
                  f"{ratio:.4f} in [{lo}, {hi}]")
        out.margin("finite-n vs limit KS", f"{report.ks_two_sample:.4f}, criterion 6 "
                   f"passes at <= {KS_BOUND} (L={lag})")
        out.digest = digest(finite.values, limit.values)
        out.deferred.append(lambda: check_sampler(out, limit.values, out.covariance))
    else:
        out.check("limit mean over T_n mean", False, "a pipeline stage raised")
    if tn is not None:  # the marginal equals the reference and is not watched
        out.deferred.append(lambda: check_rows(out, inp.config, inp.marginal, tn))
    return out


def check_sampler(out: Outcome, values, cg) -> None:
    """The limit sample's mean against sqrt(2/pi) * sum_i w_i sd_i, exact for |G| on the grid."""
    weights = np.zeros(len(cg.grid))
    weights[:-1] += 0.5 * np.diff(cg.grid)  # trapezoid, as the sampler integrates
    weights[1:] += 0.5 * np.diff(cg.grid)
    sd = np.sqrt(np.clip(np.diag(cg.matrix), 0.0, None))
    expected = math.sqrt(2.0 / math.pi) * float(weights @ sd)
    z = (np.mean(values) - expected) / (np.std(values, ddof=1) / math.sqrt(len(values)))
    out.check("limit sample mean matches its covariance", abs(z) <= SAMPLER_Z,
              f"z = {z:+.3f}, |z| <= {SAMPLER_Z}")


# ---------------------------------------------------------------------------
# intermittent_probe: the divergent side of acceptance criterion 7
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeParams:
    n_values: tuple = (2**9, 2**11, 2**13)  # criterion 7: 2**12 .. 2**16
    replications: int = 512  # criterion 7: 2000
    burn_in: int = 1000  # criterion 7: 10 000


@dataclass
class ProbeInputs:
    params: ProbeParams
    seed: int
    alpha_bound: AlphaPolynomial
    marginal: ParetoTail
    reference_models: tuple = ()  # calibrated inside the probe


def setup_probe(p: ProbeParams, seed: int) -> ProbeInputs:
    # x**-a under the map's invariant density has tail exponent (1-gamma)/a.
    marginal = ParetoTail(1.0, (1.0 - GAMMA) / PROBE_A)
    return ProbeInputs(p, seed, AlphaPolynomial(1.0, GAMMA), marginal)


def run_probe(inp: ProbeInputs, threads: int, rec) -> Outcome:
    p, out = inp.params, Outcome()
    with rec.span("conditions"):
        threshold = out.stage(0, lambda: check_intermittent_threshold(GAMMA, PROBE_A))
        alpha = out.stage(0, lambda: check_alpha_condition(inp.alpha_bound, inp.marginal))
    out.check("threshold checker diverges",
              threshold is not None and threshold.verdict == "diverges",
              f"verdict {getattr(threshold, 'verdict', None)}")
    out.check("alpha checker diverges", alpha is not None and alpha.verdict == "diverges",
              f"verdict {getattr(alpha, 'verdict', None)}")
    rows = p.replications * len(p.n_values)
    probe = out.timed_harness(rec, rows, lambda: divergence_probe(
        GAMMA, PROBE_A, list(p.n_values), p.replications, inp.seed,
        burn_in=p.burn_in, threads=threads))
    if probe is not None:
        meds = [probe.medians[n] for n in p.n_values]
        out.check("medians increase across octaves", all(r > 1.0 for r in probe.ratios),
                  f"medians {[round(m, 4) for m in meds]}, "
                  f"ratios {[round(r, 4) for r in probe.ratios]} > 1")
        out.margin("probe verdict", f"{probe.verdict}, cumulative growth "
                   f"{meds[-1] / meds[0]:.3f}; criterion 7 needs >= {probe.growth_factor}")
        # The probe returns medians, not replicates; they are its output bytes.
        out.digest = digest(meds, probe.ratios)
    else:
        out.check("medians increase across octaves", False, "the probe raised")
    return out


# ---------------------------------------------------------------------------
# linear_long_memory: MA(infinity) with polynomial coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearParams:
    n_values: tuple = (1024, 2048)
    replications: int = 512
    calibration_length: int = 20_480
    # The 1e-8 tail rule would pick J = 7070; each path's convolution costs
    # (n + J) * J, so J = 1024 keeps np.convolve dominant in the T_n rows at
    # a seventh of the cost.  The checkers see the untruncated family.
    truncation: int = 1024


@dataclass
class LinearInputs:
    params: LinearParams
    seed: int
    family: PolynomialCoeffs
    innovation: Uniform
    config: ExperimentConfig
    reference_models: tuple = ()  # calibrated inside the harness


def setup_linear(p: LinearParams, seed: int) -> LinearInputs:
    family, innovation = PolynomialCoeffs(3.0), Uniform(-1.0, 1.0)
    config = ExperimentConfig(
        process=CausalLinear(family, innovation, p.truncation), n_values=list(p.n_values),
        replications=p.replications, base_seed=seed,
        calibration_length=p.calibration_length,
    )
    return LinearInputs(p, seed, family, innovation, config)


def run_linear(inp: LinearInputs, threads: int, rec) -> Outcome:
    p, out = inp.params, Outcome()
    reports = {}
    with rec.span("conditions"):
        # rio_312 is left out: one call takes 9-13 s (a quadrature per term),
        # which would make this workload a slow, noisy checker benchmark.
        for mode, r in (("moment_313", 4.0), ("tail_314", 4.0)):
            reports[mode] = out.stage(0, lambda: check_linear_conditions(
                inp.family, inp.innovation, mode, r=r))
    for mode, rep in reports.items():
        out.check(f"{mode} converges", rep is not None and rep.verdict == "converges",
                  f"verdict {getattr(rep, 'verdict', None)}")
    rows = p.replications * len(p.n_values)
    tn = out.timed_harness(rec, rows, lambda: run_clt_experiment(inp.config, threads=threads))
    if tn is not None:
        meds = [float(np.median(tn[n].values)) for n in p.n_values]
        ratios = [b / a for a, b in zip(meds, meds[1:])]
        lo, hi = RATIO_RANGE
        out.check("median ratio stabilizes", all(lo <= r <= hi for r in ratios),
                  f"ratios {[round(r, 4) for r in ratios]} in [{lo}, {hi}]")
        out.digest = digest(*(tn[n].values for n in p.n_values))
        out.deferred.append(
            lambda: check_rows(out, inp.config, calibrated_reference(inp.config), tn))
    else:
        out.check("median ratio stabilizes", False, "the experiment raised")
    return out


def calibrated_reference(cfg: ExperimentConfig):
    """The harness's reference calibration, recomputed as an independent cross-check."""
    values = generate(cfg.process, cfg.calibration_length, cfg.base_seed + 0x5EED).values
    return tabulate_cdf(values, auto_calibration_grid(values, cfg.calibration_grid_size))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object
    full: object
    reduced: object  # small enough for the determinism test, still > 1 chunk


WORKLOADS = {
    w.name: w
    for w in (
        Workload("doubling_dependent", setup_doubling, run_doubling, DoublingParams(),
                 DoublingParams(grid_size=16, sim_length=20_000, limit_replications=2000,
                                n=1000, replications=600)),
        Workload("intermittent_probe", setup_probe, run_probe, ProbeParams(),
                 ProbeParams(n_values=(256, 1024), replications=600, burn_in=1000)),
        Workload("linear_long_memory", setup_linear, run_linear, LinearParams(),
                 LinearParams(n_values=(256, 512), replications=600,
                              calibration_length=5120, truncation=256)),
    )
}
