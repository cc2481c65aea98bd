"""Monte Carlo experiments: finite-n statistics vs the sampled limit law.

Replicate r of the n_values[i] run draws from stream (i << 32) | r of the
configured base seed, so outputs are byte-identical for any worker count.

``threads`` spreads 256-row chunks over a thread pool for the per-row
generators.  The intermittent map advances all lanes of a batch in one
numpy loop that holds the GIL, so its batches run on the calling thread,
each as wide as fits in _LANE_BUDGET bytes (one lane at least).
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ValidationError, read_key, reject_unknown_keys
from .limitlaw import StatisticSample
from .models import DistributionModel, model_from_dict
from .processes import (
    IntermittentMap,
    ProcessSpec,
    generate,
    generate_batch,
    spec_from_dict,
    tabulate_cdf,
)
from .transport import level_terms, w1_sample_vs_model, w1_two_samples

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
_LANE_BUDGET = 256 * 2**20  # bytes of one intermittent lane batch (lanes x n float64)
SCHEMA_VERSION = 1
_CONFIG_KEYS = {"schema_version", "process", "n_values", "replications", "base_seed",
                "reference", "tail_tol"}
_REFERENCE_KEYS = ("analytic", "calibration_length", "calibration_grid_size")


def ks_two_sample(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup CDF gap)."""
    xs = np.sort(np.asarray(x, dtype=float).ravel())
    ys = np.sort(np.asarray(y, dtype=float).ravel())
    if xs.size == 0 or ys.size == 0:
        raise ValidationError("samples must be nonempty")
    merged = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, merged, side="right") / xs.size
    fy = np.searchsorted(ys, merged, side="right") / ys.size
    return float(np.max(np.abs(fx - fy)))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

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
        if len(self.n_values) == 0 or any(
            b <= a for a, b in zip(self.n_values, self.n_values[1:])
        ):
            raise ValidationError("n_values must be a nonempty increasing list")
        if self.n_values[0] < 1:
            raise ValidationError(f"n_values must be >= 1, got {self.n_values[0]}")
        if self.replications < 2:
            raise ValidationError("need at least 2 replications")
        if self.reference_model is None and self.calibration_length is None:
            raise ValidationError(
                "no reference CDF: supply reference_model or calibration_length"
            )
        if self.calibration_length is not None and self.calibration_length < 1:
            raise ValidationError("calibration_length must be >= 1")
        if self.calibration_grid_size < 1:
            raise ValidationError("calibration_grid_size must be >= 1")
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
            cal = 10 * max(n_values, default=0)
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
class ComparisonReport:
    ks_two_sample: float
    w1_between_statistics: float
    mean_gap: float
    table: list[dict] = field(default_factory=list)
    verdict: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ProbeReport:
    medians: dict
    ratios: list[float]
    verdict: str  # "stabilizing" | "non-stabilizing" | "indeterminate" | "insufficient data"
    growth_factor: float

    def to_dict(self) -> dict:
        return {
            "medians": {str(k): v for k, v in self.medians.items()},
            "ratios": self.ratios,
            "verdict": self.verdict,
            "growth_factor": self.growth_factor,
        }


# ---------------------------------------------------------------------------
# reference resolution
# ---------------------------------------------------------------------------

def auto_calibration_grid(values: np.ndarray, size: int) -> np.ndarray:
    """Quantile-based grid over an orbit's observed range."""
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

def _tn_chunk(spec: ProcessSpec, reference: DistributionModel, n: int, seed: int,
              first_stream: int, count: int, terms) -> np.ndarray:
    values = generate_batch(spec, n, count, seed, first_stream=first_stream)
    root_n = math.sqrt(n)
    return np.array([
        root_n * w1_sample_vs_model(values[r], reference, terms=terms)
        for r in range(count)
    ])


def _tn_sample(spec: ProcessSpec, reference: DistributionModel, n: int,
               replications: int, seed: int, n_index: int, threads: int) -> np.ndarray:
    base_stream = n_index << 32
    size = _REPLICATE_CHUNK
    if isinstance(spec, IntermittentMap):  # GIL-bound: wide batches, one thread
        size, threads = max(1, _LANE_BUDGET // (8 * n)), 1
    chunks = [
        (base_stream + start, min(size, replications - start))
        for start in range(0, replications, size)
    ]
    terms = level_terms(reference, n)  # read-only, shared by every chunk

    def work(arg):
        first, count = arg
        return _tn_chunk(spec, reference, n, seed, first, count, terms)

    # both maps return the chunks in stream order
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.concatenate(list(pool.map(work, chunks)))
    return np.concatenate([work(c) for c in chunks])


def run_clt_experiment(cfg: ExperimentConfig, threads: int = 1) -> dict[int, StatisticSample]:
    """R replicates of T_n = sqrt(n) * d1(F_n, F) for each configured n."""
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    reference, ref_meta = resolve_reference(cfg)
    out: dict[int, StatisticSample] = {}
    for i, n in enumerate(cfg.n_values):
        values = _tn_sample(
            cfg.process, reference, n, cfg.replications, cfg.base_seed, i, threads
        )
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
    if a.values.size == 0 or b.values.size == 0:
        raise ValidationError("cannot compare empty samples")
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
                     seed: int, burn_in: int = 10_000, growth_factor: float = 1.5,
                     calibration_factor: int = 10, calibration_grid_size: int = 2048,
                     threads: int = 1) -> ProbeReport:
    """Median T_n across n for the intermittent map, with a growth verdict.

    "non-stabilizing" needs strictly increasing medians with cumulative growth
    >= growth_factor; "stabilizing" needs all consecutive ratios inside
    [0.8, 1.25].  The replicates and the reference, calibrated from an orbit
    of calibration_factor * max(n) values, come from run_clt_experiment.
    ``threads`` must be >= 1 but does not change how lanes are scheduled:
    intermittent lane batches always run on the calling thread.  Every
    argument is checked, also when a single n gives "insufficient data"
    without running anything.
    """
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    # at or below 1 the growth test cannot fail once every ratio is above 1
    if not (math.isfinite(growth_factor) and growth_factor > 1.0):
        raise ValidationError(f"growth_factor must be a finite number > 1, got {growth_factor}")
    n_values = [int(n) for n in n_values]
    cfg = ExperimentConfig(
        process=IntermittentMap(gamma, a, burn_in),
        n_values=n_values,
        replications=replications,
        base_seed=seed,
        calibration_length=calibration_factor * max(n_values, default=0),
        calibration_grid_size=calibration_grid_size,
    )
    if len(n_values) < 2:
        return ProbeReport({n: math.nan for n in n_values}, [], "insufficient data",
                           growth_factor)
    samples = run_clt_experiment(cfg, threads)
    medians = {n: float(np.median(samples[n].values)) for n in n_values}
    med_list = list(medians.values())
    ratios = [m2 / m1 for m1, m2 in zip(med_list, med_list[1:])]
    cumulative = med_list[-1] / med_list[0]
    if all(r > 1.0 for r in ratios) and cumulative >= growth_factor:
        verdict = "non-stabilizing"
    elif all(0.8 <= r <= 1.25 for r in ratios):
        verdict = "stabilizing"
    else:
        verdict = "indeterminate"
    return ProbeReport(medians, ratios, verdict, growth_factor)

