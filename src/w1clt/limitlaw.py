"""The limiting Gaussian field on a grid and its L1 functional.

The weak limit of sqrt(n) * (F_n - F) is a centered Gaussian field G with
covariance C(s, t) = F(min(s,t)) - F(s)F(t) + sum over lags of the joint-CDF
excess terms.  We realize G on a finite grid (analytic formula in the iid
case, otherwise lagged joint CDFs along one long path cumulated from binned
counts), repair the estimated matrix to positive semidefiniteness, draw
Gaussian vectors through a symmetric factorization, and integrate |G| by the
trapezoid rule.

The iid case has an independent oracle: the Brownian bridge composed with F,
sampled by the exact bridge transition recursion.
"""
from __future__ import annotations

import io
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .models import DistributionModel
from .processes import (
    PURPOSE_BRIDGE,
    PURPOSE_GAUSSIAN,
    ProcessSpec,
    generate,
    spawn_rng,
)
from .transport import quad

__all__ = [
    "PsdRepair",
    "CovarianceGrid",
    "StatisticSample",
    "quantile_grid",
    "variance_length_grid",
    "grid_tail_report",
    "covariance_iid",
    "covariance_dependent",
    "sample_limit_functional",
    "brownian_bridge_oracle",
]

_SAMPLE_CHUNK = 8192  # fixed so chunking never affects the drawn values
_VARTAIL_MESH = 40_001  # levels at which variance_length_grid integrates sqrt(F(1-F))


@dataclass(frozen=True)
class PsdRepair:
    jitter_added: float = 0.0
    eigenvalues_clipped: int = 0


@dataclass
class CovarianceGrid:
    """A grid, the limit covariance matrix on it, and PSD-repair metadata."""

    grid: np.ndarray
    matrix: np.ndarray
    lag_cutoff: int
    psd_repair: PsdRepair
    source: str  # "analytic_iid" | "simulated_dependent"

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.matrix = np.asarray(self.matrix, dtype=float)
        m = len(self.grid)
        if self.matrix.shape != (m, m):
            raise ValidationError("matrix shape must match the grid")
        if not np.all(np.diff(self.grid) > 0):
            raise ValidationError("grid must be strictly increasing")
        if np.max(np.abs(self.matrix - self.matrix.T)) > 1e-12:
            raise ValidationError("covariance matrix must be symmetric to 1e-12")
        if np.any(np.diag(self.matrix) < -1e-15):
            raise ValidationError("diagonal entries must be nonnegative")
        trace = float(np.trace(self.matrix))
        w = np.linalg.eigvalsh(self.matrix)
        if w.min() < -1e-10 * max(trace, 1e-300):
            raise ValidationError("matrix not PSD after repair")

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.tolist(),
            "matrix": self.matrix.tolist(),
            "lag_cutoff": self.lag_cutoff,
            "psd_repair": asdict(self.psd_repair),
            "source": self.source,
        }


@dataclass
class StatisticSample:
    """Replicates of a nonnegative scalar statistic plus run metadata."""

    values: np.ndarray
    kind: str  # "finite_n" | "limit_functional"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size and (
            not np.all(np.isfinite(self.values)) or np.any(self.values < 0)
        ):
            raise ValidationError("statistic replicates must be finite and nonnegative")
        if self.kind not in ("finite_n", "limit_functional"):
            raise ValidationError("kind must be finite_n or limit_functional")

    def to_csv(self, fileobj: io.TextIOBase) -> None:
        fileobj.write("value\n")
        for v in np.sort(self.values):  # order-independent emission
            fileobj.write(f"{float(v)!r}\n")

    @staticmethod
    def read_csv_values(fileobj: io.TextIOBase) -> np.ndarray:
        values = []
        header_seen = False
        for line in fileobj:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != "value":
                    raise ValidationError("expected a 'value' header row")
                header_seen = True
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValidationError(f"expected one number per row, got {line!r}") from None
        if not header_seen:
            raise ValidationError("expected a 'value' header row")
        return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def quantile_grid(model: DistributionModel, size: int) -> np.ndarray:
    """Quantile-spaced grid F^{-1}((i - 1/2) / size)."""
    if size < 1:
        raise ValidationError("grid size must be >= 1")
    u = (np.arange(size) + 0.5) / size
    g = model.quantile(u)
    if not np.all(np.diff(g) > 0):
        g = np.unique(g)
    return g

def variance_length_grid(model: DistributionModel, size: int) -> np.ndarray:
    """Grid equalizing each segment's share of int sqrt(F(1-F)) dt.

    For heavy tails the plain quantile grid concentrates where F moves but
    leaves most of the sqrt-variance mass (which is what |G| integrates)
    beyond its last point; spacing by the sqrt-variance measure instead keeps
    both the truncated tail mass and the per-segment trapezoid error at
    O(1/size).
    """
    if size < 2:
        raise ValidationError("grid size must be >= 2")
    u = np.linspace(1e-9, 1.0 - 1e-9, _VARTAIL_MESH)
    t = model.quantile(u)
    f = model.cdf(t)
    integrand = np.sqrt(np.clip(f * (1.0 - f), 0.0, None))
    h = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t))])
    levels = (np.arange(size) + 0.5) / size * h[-1]
    grid = np.interp(levels, h, t)
    return np.unique(grid)


def grid_tail_report(model: DistributionModel, grid: np.ndarray) -> dict:
    """Sqrt-variance mass the grid leaves out on each side (quadrature bias bound)."""
    lo, hi = model.support()
    fn = lambda t: math.sqrt(max(model.cdf(t) * (1.0 - model.cdf(t)), 0.0))
    left = quad(fn, lo, float(grid[0])) if grid[0] > lo else 0.0
    r = model.tail_exponent()
    if math.isfinite(hi):
        right = quad(fn, float(grid[-1]), hi) if grid[-1] < hi else 0.0
    elif r > 2.0:
        right = quad(fn, float(grid[-1]), math.inf)
    else:
        right = math.inf
    return {"sqrt_variance_mass_below": left, "sqrt_variance_mass_above": right}


# ---------------------------------------------------------------------------
# covariance construction
# ---------------------------------------------------------------------------

def _repair_psd(matrix: np.ndarray) -> tuple[np.ndarray, PsdRepair]:
    sym = 0.5 * (matrix + matrix.T)
    trace = max(float(np.trace(sym)), 1e-300)
    jitter = 0.0
    for attempt in range(8):
        try:
            w, v = np.linalg.eigh(sym + jitter * np.eye(len(sym)))
        except np.linalg.LinAlgError:
            jitter = max(jitter, 1e-12 * trace) * 10.0 if jitter else 1e-12 * trace
            continue
        clipped = int(np.sum(w < 0))
        w = np.clip(w, 0.0, None)
        repaired = (v * w) @ v.T
        repaired = 0.5 * (repaired + repaired.T)
        return repaired, PsdRepair(jitter_added=jitter, eigenvalues_clipped=clipped)
    raise NumericalError("eigendecomposition failed after jitter escalation")


def covariance_iid(model: DistributionModel, grid) -> CovarianceGrid:
    """C(t_i, t_j) = F(min) - F(t_i) F(t_j): the Brownian-bridge kernel in F."""
    grid = np.asarray(grid, dtype=float)
    f = model.cdf(grid)
    matrix = np.minimum.outer(f, f) - np.outer(f, f)
    return CovarianceGrid(grid, matrix, 0, PsdRepair(), "analytic_iid")


def covariance_dependent(spec: ProcessSpec, grid, lag_cutoff: int, sim_length: int,
                         seed: int) -> CovarianceGrid:
    """Covariance with lagged joint-CDF terms estimated along one long path.

    The series is truncated at `lag_cutoff` and symmetrized lag by lag,
    C += cov_k + cov_k.T, which is the covariance the general operator form
    prescribes (and agrees with the one-sided series for reversible chains).
    One counting pass over binned values: with L = lag_cutoff and m grid
    points, O(sim_length * (L+1) + (L+1) * m^2) time, O(sim_length + m^2)
    memory.
    """
    if lag_cutoff < 0:
        raise ValidationError("lag cutoff must be >= 0")
    if lag_cutoff >= sim_length / 10:
        raise ValidationError("lag cutoff too large for sim_length (noisy tails)")
    grid = np.asarray(grid, dtype=float)
    m = len(grid)
    y = generate(spec, sim_length, seed, stream=0).values
    n = y.size

    # y <= grid[i] exactly when b <= i, so every joint CDF is a cumulated
    # count of bin pairs (b_t, b_{t+k}); the counts are exact integers.
    b = np.searchsorted(grid, y)
    f_hat = np.cumsum(np.bincount(b, minlength=m + 1))[:m] / n
    base = np.outer(f_hat, f_hat)
    matrix = np.minimum.outer(f_hat, f_hat) - base
    for k in range(1, lag_cutoff + 1):
        pairs = np.bincount(b[: n - k] * (m + 1) + b[k:], minlength=(m + 1) ** 2)
        joint = pairs.reshape(m + 1, m + 1).cumsum(axis=0).cumsum(axis=1)[:m, :m]
        cov_k = joint / (n - k) - base
        matrix += cov_k + cov_k.T
    repaired, repair = _repair_psd(matrix)
    return CovarianceGrid(grid, repaired, lag_cutoff, repair, "simulated_dependent")


# ---------------------------------------------------------------------------
# sampling the limit functional
# ---------------------------------------------------------------------------

def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.zeros(len(grid))
    d = np.diff(grid)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def sample_limit_functional(cg: CovarianceGrid, replications: int, seed: int) -> StatisticSample:
    """Replicates of the trapezoid integral of |G| over the grid.

    G is drawn through the symmetric eigenfactorization of the (repaired)
    covariance matrix; replicates are generated in fixed-size chunks with
    counter-split seeds, so the values do not depend on scheduling.
    """
    if replications < 1:
        raise ValidationError("need at least one replication")
    try:
        w, v = np.linalg.eigh(cg.matrix)
    except np.linalg.LinAlgError as exc:  # matrix already repaired; should not happen
        raise NumericalError(f"factorization failed: {exc}") from exc
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    weights = _trapezoid_weights(cg.grid)
    out = np.empty(replications)
    for chunk_index, start in enumerate(range(0, replications, _SAMPLE_CHUNK)):
        stop = min(start + _SAMPLE_CHUNK, replications)
        rng = spawn_rng(seed, chunk_index, PURPOSE_GAUSSIAN)
        z = rng.standard_normal((stop - start, len(cg.grid)))
        g = z @ factor.T
        out[start:stop] = np.abs(g) @ weights
    return StatisticSample(
        out,
        "limit_functional",
        metadata={
            "replications": replications,
            "seed": seed,
            "grid_size": len(cg.grid),
            "lag_cutoff": cg.lag_cutoff,
            "source": cg.source,
            "psd_repair": asdict(cg.psd_repair),
        },
    )


def brownian_bridge_oracle(model: DistributionModel, replications: int, mesh: int,
                           seed: int) -> StatisticSample:
    """Independent iid-case oracle: int |B(F(t))| dt via the bridge recursion.

    Sampling B on the uniform mesh u_i = i/(mesh+1) by the exact conditional
    transition and weighting by the quantile derivative turns the statistic
    into int_0^1 |B(u)| (F^-1)'(u) du; for Uniform(0,1) this is the plain
    integral of |B|.  Models without a differentiable quantile are rejected.
    """
    if replications < 1 or mesh < 1:
        raise ValidationError("replications and mesh must be >= 1")
    u = np.arange(1, mesh + 1) / (mesh + 1)
    qd = model.quantile_density(u)  # raises if unavailable
    if not np.all(np.isfinite(qd)):
        raise ValidationError("quantile derivative must be finite on the mesh")
    du = 1.0 / (mesh + 1)
    out = np.empty(replications)
    for chunk_index, start in enumerate(range(0, replications, _SAMPLE_CHUNK)):
        stop = min(start + _SAMPLE_CHUNK, replications)
        rng = spawn_rng(seed, chunk_index, PURPOSE_BRIDGE)
        rows = stop - start
        b = np.zeros(rows)
        acc = np.zeros(rows)
        u_prev = 0.0
        for i in range(mesh):
            ui = u[i]
            shrink = (1.0 - ui) / (1.0 - u_prev)
            sd = math.sqrt((ui - u_prev) * shrink)
            b = b * shrink + sd * rng.standard_normal(rows)
            acc += np.abs(b) * qd[i]
            u_prev = ui
        out[start:stop] = acc * du
    return StatisticSample(
        out,
        "limit_functional",
        metadata={"replications": replications, "seed": seed, "mesh": mesh,
                  "oracle": "brownian_bridge"},
    )
