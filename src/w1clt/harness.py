"""Monte Carlo experiments: finite-n statistics vs the sampled limit law.

Replicate r of the n_values[i] run draws from stream (i << 32) | r of the
configured base seed, so outputs are byte-identical for any process count.

``run_clt_experiment`` plans every (n, first stream, count) chunk up front:
as many rows as fit in one process's share of _CHUNK_BUDGET bytes (one row at
least, ceil(R / p) at most).  The per-row generators also stop at
_REPLICATE_CHUNK rows, since larger chunks of theirs ran slower and used more
memory; the intermittent map's lanes advance together in one numpy loop, so
its chunks take no such cap.  ``threads`` is the number of processes p: the
calling process computes every p-th chunk and p - 1 helper processes, forked
from it once per call, compute the rest.  p is capped by the CPUs this
process may run on and by the number of chunks, and is 1 off Linux, where
fork is unsafe (macOS) or absent (Windows).  The chunks are joined in stream
order.  Each chunk's T_n values come from one stacked ``w1_sample_vs_model``
call on its ``(rows, n)`` array, which equals the rows' one-at-a-time calls
bit for bit.
"""
from __future__ import annotations

import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import JsonRecord, ValidationError, count, read_key, real, reject_unknown_keys
from .limitlaw import StatisticSample
from .models import DistributionModel, model_from_dict
from .processes import (
    IntermittentMap,
    ProcessSpec,
    generate,
    generate_batch,
    spec_from_dict,
    tabulate_cdf,
    with_truncation,
)
from .transport import ks_two_sample, w1_sample_vs_model, w1_two_samples

__all__ = [
    "ExperimentConfig",
    "ComparisonReport",
    "ProbeReport",
    "ks_two_sample",
    "run_clt_experiment",
    "compare_distributions",
    "compare_against_limit",
    "divergence_probe",
    "auto_calibration_grid",
]

_REPLICATE_CHUNK = 256
_CHUNK_BUDGET = 256 * 2**20  # bytes of one chunk's (rows, n) float64 array
SCHEMA_VERSION = 1
_CONFIG_KEYS = {"schema_version", "process", "n_values", "replications", "base_seed",
                "reference", "tail_tol"}
_REFERENCE_KEYS = ("analytic", "calibration_length", "calibration_grid_size")
# an "auto" config and the divergence probe calibrate from this many times max(n) values
_CALIBRATION_FACTOR = 10
_GROWTH_FACTOR = 1.5  # least cumulative growth of medians the probe calls non-stabilizing


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _sample_sizes(n_values) -> list[int]:
    """``n_values`` as a nonempty increasing list of sample sizes n >= 1."""
    if np.ndim(n_values) != 1:
        raise ValidationError(f"n_values must be a list, got {n_values!r}")
    sizes = [count(n, "n_values", 1) for n in n_values]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError("n_values must be a nonempty increasing list")
    return sizes


@dataclass
class ExperimentConfig:
    process: ProcessSpec
    n_values: list[int]
    replications: int
    base_seed: int
    reference_model: DistributionModel | None = None
    calibration_length: int | None = None  # orbit length when calibrating
    calibration_grid_size: int = 2048
    tail_tol: float = 1e-12  # must be > 0; no built-in reference model reads it

    def __post_init__(self):
        self.n_values = _sample_sizes(self.n_values)
        self.replications = count(self.replications, "replications", 2)
        self.base_seed = count(self.base_seed, "base_seed")
        if (self.reference_model is None) == (self.calibration_length is None):
            raise ValidationError("supply exactly one reference CDF: reference_model or "
                                  "calibration_length")
        if self.calibration_length is not None:
            self.calibration_length = count(self.calibration_length, "calibration_length", 1)
        self.calibration_grid_size = count(self.calibration_grid_size, "calibration_grid_size", 1)
        self.tail_tol = real(self.tail_tol, "tail_tol")
        if not (self.tail_tol > 0):
            raise ValidationError("tail_tol must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        what = "experiment config"
        reject_unknown_keys(d, _CONFIG_KEYS, what)
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValidationError(f"config schema_version must be {SCHEMA_VERSION}")
        n_values = read_key(d, "n_values", [int], what)
        ref = reject_unknown_keys(d.get("reference", {}), _REFERENCE_KEYS, "reference")
        model = None
        if "analytic" in ref:  # nothing is calibrated, so no calibration key is read
            reject_unknown_keys(ref, ("analytic",), "analytic reference")
            model = model_from_dict(ref["analytic"])
        if ref.get("calibration_length") == "auto":
            cal = _CALIBRATION_FACTOR * max(n_values, default=0)
        else:
            cal = read_key(ref, "calibration_length", int, "reference", None)
        return cls(
            process=spec_from_dict(read_key(d, "process", dict, what)),
            n_values=n_values,
            replications=read_key(d, "replications", int, what),
            base_seed=read_key(d, "base_seed", int, what),
            reference_model=model,
            calibration_length=cal,
            calibration_grid_size=read_key(ref, "calibration_grid_size", int, "reference", 2048),
            tail_tol=read_key(d, "tail_tol", float, what, 1e-12),
        )


@dataclass
class ComparisonReport(JsonRecord):
    ks_two_sample: float
    w1_between_statistics: float
    mean_gap: float
    table: list[dict] = field(default_factory=list)
    verdict: str = ""


@dataclass
class ProbeReport(JsonRecord):
    medians: dict  # n -> median T_n; NaN, written as null, when nothing was run
    ratios: list[float]
    verdict: str  # "stabilizing" | "non-stabilizing" | "indeterminate" | "insufficient data"
    growth_factor: float


# ---------------------------------------------------------------------------
# reference resolution
# ---------------------------------------------------------------------------

def auto_calibration_grid(values: np.ndarray, size: int) -> np.ndarray:
    """Quantile-based grid over an orbit's observed range."""
    size = count(size, "size", 1)
    levels = (np.arange(size) + 0.5) / size
    grid = np.quantile(values, levels)
    grid = np.unique(np.concatenate([[values.min()], grid, [values.max()]]))
    if len(grid) < 2:
        grid = np.array([values.min(), values.min() + 1.0])
    return grid


def resolve_reference(cfg: ExperimentConfig) -> tuple[DistributionModel, dict]:
    """The analytic reference, or the CDF tabulated from one long calibration orbit."""
    if cfg.reference_model is not None:
        return cfg.reference_model, {"reference": "analytic"}
    path = generate(cfg.process, cfg.calibration_length, cfg.base_seed + 0x5EED, stream=0)
    # one long orbit; the calibration stream is disjoint from every replicate
    grid = auto_calibration_grid(path.values, cfg.calibration_grid_size)
    model = tabulate_cdf(path.values, grid)
    meta = {
        "reference": "calibrated",
        "calibration_length": cfg.calibration_length,
        "calibration_grid_size": len(grid),
    }
    return model, meta


# ---------------------------------------------------------------------------
# the experiment
# ---------------------------------------------------------------------------

def _tn_chunk(spec: ProcessSpec, reference: DistributionModel, seed: int,
              n: int, first_stream: int, rows: int) -> np.ndarray:
    values = generate_batch(spec, n, rows, seed, first_stream=first_stream)
    return math.sqrt(n) * w1_sample_vs_model(values, reference)


# (spec, reference, seed): set by _init_helper, only in a helper process
_helper_state: tuple = ()


def _init_helper(*state) -> None:
    # runs in the forked helper, so the state is inherited, never pickled
    global _helper_state
    _helper_state = state


def _helper_chunk(n: int, first_stream: int, rows: int) -> np.ndarray:
    return _tn_chunk(*_helper_state, n, first_stream, rows)


def _process_count(threads: int) -> int:
    """Processes to use: ``threads``, at most the usable CPUs; 1 off Linux."""
    # fork is unsafe on macOS (system libraries may start threads) and absent on Windows
    if not sys.platform.startswith("linux"):
        return 1
    return min(threads, len(os.sched_getaffinity(0)))


def _plan_chunks(cfg: ExperimentConfig, processes: int) -> list[tuple[int, int, int]]:
    """Every (n, first stream, count) chunk of the experiment, in stream order."""
    reps = cfg.replications
    chunks = []
    for i, n in enumerate(cfg.n_values):
        size = max(1, min(_CHUNK_BUDGET // (8 * n * processes), -(-reps // processes)))
        if not isinstance(cfg.process, IntermittentMap):
            size = min(size, _REPLICATE_CHUNK)
        chunks += [(n, (i << 32) + start, min(size, reps - start))
                   for start in range(0, reps, size)]
    return chunks


def _run_chunks(chunks: list, state: tuple, processes: int) -> list[np.ndarray]:
    """T_n of every chunk, in order: every p-th here, the rest in p - 1 forked helpers."""
    if processes == 1:
        return [_tn_chunk(*state, *c) for c in chunks]
    pool = ProcessPoolExecutor(processes - 1, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_helper, initargs=state)
    try:
        helped = {j: pool.submit(_helper_chunk, *c)
                  for j, c in enumerate(chunks) if j % processes}
        own = {j: _tn_chunk(*state, *c) for j, c in enumerate(chunks) if j % processes == 0}
        return [own[j] if j in own else helped[j].result() for j in range(len(chunks))]
    finally:
        pool.shutdown(cancel_futures=True)


def run_clt_experiment(cfg: ExperimentConfig, threads: int = 1) -> dict[int, StatisticSample]:
    """R replicates of T_n = sqrt(n) * d1(F_n, F) for each configured n.

    ``threads`` is the number of processes that compute them (see the module
    docstring); the output does not depend on it.
    """
    threads = count(threads, "threads", 1)
    reference, ref_meta = resolve_reference(cfg)
    processes = _process_count(threads)
    chunks = _plan_chunks(cfg, processes)
    # J of the linear default truncation rule is resolved here, before any fork
    spec = with_truncation(cfg.process)
    results = _run_chunks(chunks, (spec, reference, cfg.base_seed), min(processes, len(chunks)))
    out: dict[int, StatisticSample] = {}
    for n in cfg.n_values:
        values = np.concatenate([r for c, r in zip(chunks, results) if c[0] == n])
        out[n] = StatisticSample(
            values,
            "finite_n",
            metadata={
                "n": n,
                "replications": cfg.replications,
                "base_seed": cfg.base_seed,
                "stream_rule": "stream = (n_index << 32) | replicate",
                "process": cfg.process.to_dict(),
                **ref_meta,
            },
        )
    return out


def compare_distributions(a: StatisticSample, b: StatisticSample,
                          names: tuple[str, str] | None = None) -> ComparisonReport:
    """KS statistic, W1 distance and mean gap between two statistic samples.

    The verdict names the samples by ``names``, or by their kinds when None.
    """
    ks = ks_two_sample(a.values, b.values)
    w1 = w1_two_samples(a.values, b.values)
    mean_gap = abs(float(np.mean(a.values)) - float(np.mean(b.values)))
    row = {
        "n": a.metadata.get("n"),
        "ks": ks,
        "w1": w1,
        "mean_gap": mean_gap,
    }
    name_a, name_b = names or (a.kind, b.kind)
    verdict = (
        f"KS={ks:.4f}, W1={w1:.4g}, mean gap={mean_gap:.4g} between "
        f"{name_a} (R={a.values.size}) and {name_b} (R={b.values.size})"
    )
    return ComparisonReport(ks, w1, mean_gap, [row], verdict)


def compare_against_limit(finite: dict[int, StatisticSample],
                          limit: StatisticSample) -> ComparisonReport:
    """Per-n comparison table against one limit sample (largest n on top-level)."""
    if not finite:
        raise ValidationError("no finite-n samples to compare")
    table = []
    last = None
    for n in sorted(finite):
        rep = compare_distributions(finite[n], limit)
        table.append(rep.table[0])
        last = rep
    verdict = (
        "KS gap by n: "
        + ", ".join(f"n={row['n']}: {row['ks']:.4f}" for row in table)
    )
    return ComparisonReport(
        last.ks_two_sample, last.w1_between_statistics, last.mean_gap, table, verdict
    )


# ---------------------------------------------------------------------------
# intermittent-map divergence probe
# ---------------------------------------------------------------------------

def divergence_probe(gamma: float, a: float, n_values: list[int], replications: int,
                     seed: int, burn_in: int = 10_000, threads: int = 1) -> ProbeReport:
    """Median T_n across n for the intermittent map, with a growth verdict.

    "non-stabilizing" needs strictly increasing medians with cumulative growth
    >= _GROWTH_FACTOR (1.5), the report's ``growth_factor``; otherwise
    "stabilizing" needs all consecutive ratios inside [0.8, 1.25].  The
    replicates come from run_clt_experiment, against a reference calibrated
    by the rule of an ``"auto"`` config: the CDF at 2048 quantiles of one
    orbit of _CALIBRATION_FACTOR (10) * max(n) values.
    ``threads`` is run_clt_experiment's process count.  Every argument is
    checked, also when a single n gives "insufficient data" without running
    anything.
    """
    threads = count(threads, "threads", 1)
    n_values = _sample_sizes(n_values)
    cfg = ExperimentConfig(
        process=IntermittentMap(gamma, a, burn_in),
        n_values=n_values,
        replications=replications,
        base_seed=seed,
        calibration_length=_CALIBRATION_FACTOR * max(n_values, default=0),
    )
    if len(n_values) < 2:
        return ProbeReport({n: math.nan for n in n_values}, [], "insufficient data",
                           _GROWTH_FACTOR)
    samples = run_clt_experiment(cfg, threads)
    medians = {n: float(np.median(samples[n].values)) for n in n_values}
    med_list = list(medians.values())
    ratios = [m2 / m1 for m1, m2 in zip(med_list, med_list[1:])]
    cumulative = med_list[-1] / med_list[0]
    if all(r > 1.0 for r in ratios) and cumulative >= _GROWTH_FACTOR:
        verdict = "non-stabilizing"
    elif all(0.8 <= r <= 1.25 for r in ratios):
        verdict = "stabilizing"
    else:
        verdict = "indeterminate"
    return ProbeReport(medians, ratios, verdict, _GROWTH_FACTOR)

