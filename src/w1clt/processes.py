"""Seeded generators for stationary sequences and empirical CDF tabulation.

Four stationary mechanisms are provided: iid draws from a reference model,
forward orbits of the intermittent interval map with the neutral fixed point
at 0 (observable x**-a), forward orbits of the doubling map 2x mod 1
(realized on a 128-bit sliding bit window so chaoticity survives far past the
53 iterations native floats allow), and causal linear (MA-infinity) processes
with truncated coefficient families.

Randomness is counter-split: stream `s` of a run with base seed `k` draws
from ``Philox(key=k, counter=[0, 0, purpose, s])``.  Streams are disjoint for
fewer than 2**128 draws each, so replication-level parallelism cannot change
any result.
"""
from __future__ import annotations

import io
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta

from .errors import ValidationError, WireRecord, from_wire
from .models import DistributionModel, Tabulated, model_from_dict

__all__ = [
    "IID",
    "IntermittentMap",
    "DoublingMap",
    "CausalLinear",
    "GeometricCoeffs",
    "PolynomialCoeffs",
    "Path",
    "spawn_rng",
    "generate",
    "generate_batch",
    "tabulate_cdf",
    "spec_from_dict",
]

logger = logging.getLogger(__name__)

_TINY = math.ulp(0.0)
_BELOW_ONE = math.nextafter(1.0, 0.0)
_STORE_ROWS = 256  # recorded lane steps buffered as rows before one transposed copy

# purpose ids for the counter-splitting rule
PURPOSE_PATH = 0
PURPOSE_RESEED = 1
PURPOSE_GAUSSIAN = 2
PURPOSE_BRIDGE = 3

# resource ceiling for n * (J + 1) work in linear-process generation
_LINEAR_WORK_LIMIT = 2**28
_TRUNCATION_CAP = 2**22
_TRUNCATION_TOL = 1e-8  # the default truncation J leaves a coefficient tail below this


def spawn_rng(seed: int, stream: int = 0, purpose: int = PURPOSE_PATH) -> np.random.Generator:
    """Independent generator for (seed, stream, purpose) via Philox counters."""
    if not (0 <= int(stream) < 2**64):
        raise ValidationError("stream must fit in 64 bits")
    key = int(seed) % 2**128
    return np.random.Generator(
        np.random.Philox(key=key, counter=[0, 0, int(purpose), int(stream)])
    )


# ---------------------------------------------------------------------------
# coefficient families for the linear process
# ---------------------------------------------------------------------------

class CoeffFamily(WireRecord):
    """A coefficient family a_j of the linear process; its wire tag is "family"."""

    TAG = "family"


@dataclass(frozen=True)
class GeometricCoeffs(CoeffFamily):
    """a_j = rho**j; rho = 0 degenerates to the single coefficient a_0 = 1."""

    rho: float

    kind = "geometric"

    def __post_init__(self):
        if not (0.0 <= self.rho < 1.0):
            raise ValidationError("geometric family needs rho in [0, 1)")

    def coeff(self, j):
        j_arr = np.asarray(j, dtype=float)
        return np.where(j_arr == 0, 1.0, self.rho ** j_arr)

    def abs_tail(self, j: int) -> float:
        if self.rho == 0.0:
            return 0.0
        return self.rho ** (j + 1) / (1.0 - self.rho)

    def decay_exponent(self) -> float:
        return math.inf


@dataclass(frozen=True)
class PolynomialCoeffs(CoeffFamily):
    """a_j = (j + offset)**-beta with finite beta > 1 (absolute summability)."""

    beta: float
    offset: float = 1.0

    kind = "polynomial"

    def __post_init__(self):
        if not (1.0 < self.beta < math.inf):
            raise ValidationError("polynomial family needs finite beta > 1")
        if not (0.0 < self.offset < math.inf):
            raise ValidationError("polynomial family needs finite offset > 0 (a_0 != 0)")

    def coeff(self, j):
        return (np.asarray(j, dtype=float) + self.offset) ** (-self.beta)

    def abs_tail(self, j: int) -> float:
        return float(zeta(self.beta, j + 1 + self.offset))

    def decay_exponent(self) -> float:
        return self.beta


def coeffs_from_dict(d: dict) -> CoeffFamily:
    return from_wire(d, (GeometricCoeffs, PolynomialCoeffs), "coefficients")


# ---------------------------------------------------------------------------
# process specifications
# ---------------------------------------------------------------------------

class ProcessSpec(WireRecord):
    """A stationary mechanism that ``generate`` realizes; its wire tag is "variant"."""

    TAG = "variant"


@dataclass(frozen=True)
class IID(ProcessSpec):
    model: DistributionModel = field(metadata={"decode": model_from_dict})

    kind = "iid"


@dataclass(frozen=True)
class IntermittentMap(ProcessSpec):
    """Orbit of T(x) = x(1 + 2^gamma x^gamma) on [0,1/2), 2x-1 on [1/2,1]."""

    gamma: float
    observable_exponent: float
    burn_in: int = 10_000

    kind = "intermittent"

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValidationError("gamma must lie in (0, 1)")
        if not (self.observable_exponent > 0.0):
            raise ValidationError("observable exponent must be positive")
        if self.burn_in < 0:
            raise ValidationError("burn_in must be nonnegative")


@dataclass(frozen=True)
class DoublingMap(ProcessSpec):
    observable_exponent: float
    burn_in: int = 10_000

    kind = "doubling"

    def __post_init__(self):
        if not (self.observable_exponent > 0.0):
            raise ValidationError("observable exponent must be positive")
        if self.burn_in < 0:
            raise ValidationError("burn_in must be nonnegative")


@dataclass(frozen=True)
class CausalLinear(ProcessSpec):
    """Y_k = sum_{j=0}^{J} a_j eps_{k-j}; J = None picks J from the 1e-8 tail rule."""

    coefficients: CoeffFamily = field(metadata={"decode": coeffs_from_dict})
    innovation: DistributionModel = field(metadata={"decode": model_from_dict})
    truncation: int | None = None

    kind = "causal_linear"

    def __post_init__(self):
        if self.truncation is not None and self.truncation < 1:
            raise ValidationError("truncation must be >= 1")


def spec_from_dict(d: dict) -> ProcessSpec:
    return from_wire(d, (IID, IntermittentMap, DoublingMap, CausalLinear), "process")


@dataclass
class Path:
    """A realized trajectory; a deterministic function of (spec, n, seed, stream)."""

    values: np.ndarray
    spec: ProcessSpec
    seed: int
    stream: int = 0
    truncation_error_bound: float = 0.0

    def to_csv(self, fileobj: io.TextIOBase) -> None:
        header = {
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "stream": self.stream,
            "truncation_error_bound": self.truncation_error_bound,
        }
        fileobj.write(f"# w1clt-path {json.dumps(header, sort_keys=True)}\n")
        fileobj.write("value\n")
        for v in self.values:
            fileobj.write(f"{float(v)!r}\n")


# ---------------------------------------------------------------------------
# the intermittent map
# ---------------------------------------------------------------------------

# Single orbits and batches realize the same floats: both take x**gamma from
# numpy's pow (libm's differs in the last ulp), share the rules below and
# clamp every state into [_TINY, _BELOW_ONE].

def _intermittent_start(rng: np.random.Generator) -> float:
    """Lebesgue-random initial state; an exact 0 (the neutral fixed point) is redrawn."""
    x = float(rng.random())
    while x == 0.0:
        x = float(rng.random())
    return x


def _reseed(rngs: dict, seed: int, stream: int) -> float:
    """New state for a lane at exact 0: one PURPOSE_RESEED generator per lane, drawn in order."""
    if stream not in rngs:
        rngs[stream] = spawn_rng(seed, stream, PURPOSE_RESEED)
    return max(float(rngs[stream].random()), _TINY)


def _log_reseeds(count: int) -> None:
    if count:
        logger.info("intermittent orbit re-randomized %d exact-zero state(s)", count)


def _intermittent_orbit(spec: IntermittentMap, n: int, seed: int, stream: int,
                        rng: np.random.Generator) -> np.ndarray:
    # A one-lane batch would give the same floats at over 10x the cost per step.
    gamma = np.float64(spec.gamma)
    c = 2.0**spec.gamma
    x = _intermittent_start(rng)
    rngs, reseeds = {}, 0
    out = np.empty(n)
    for i in range(spec.burn_in + n):
        if x < 0.5:
            x = x * (1.0 + c * float(np.power(x, gamma)))
        else:
            x = 2.0 * x - 1.0
        if x == 0.0:
            x = _reseed(rngs, seed, stream)
            reseeds += 1
        elif x > _BELOW_ONE:  # any other state is >= _TINY already
            x = _BELOW_ONE
        if i >= spec.burn_in:
            out[i - spec.burn_in] = x
    _log_reseeds(reseeds)
    out **= -spec.observable_exponent
    return out


def _intermittent_orbit_batch(spec: IntermittentMap, n: int, seed: int,
                              streams: np.ndarray) -> np.ndarray:
    gamma = np.float64(spec.gamma)
    c = 2.0**spec.gamma
    x = np.array([_intermittent_start(spawn_rng(seed, int(s), PURPOSE_PATH)) for s in streams])
    rngs, reseeds = {}, 0
    out = np.empty((len(streams), n))
    y, lower = np.empty_like(x), np.empty(x.shape, dtype=bool)
    rows = min(_STORE_ROWS, n)
    block = np.empty((rows, len(streams)))
    for i in range(spec.burn_in + n):
        # in place, the same operations as x * (1 + c * x**gamma) on [0, 1/2), 2x - 1 above
        np.less(x, 0.5, out=lower)
        np.power(x, gamma, out=y)
        y *= c
        y += 1.0
        y *= x
        x *= 2.0
        x -= 1.0
        np.copyto(x, y, where=lower)
        if np.count_nonzero(x) < len(x):  # some lane is at exact 0; counting beats x.all()
            for lane in np.flatnonzero(x == 0.0):
                x[lane] = _reseed(rngs, seed, int(streams[lane]))
                reseeds += 1
        np.minimum(x, _BELOW_ONE, out=x)  # any other state is >= _TINY already
        k = i - spec.burn_in
        if k >= 0:
            # a contiguous row per step; a strided column store into out costs as much as the step
            row = k % rows
            block[row] = x
            if row == rows - 1 or k == n - 1:
                out[:, k - row:k + 1] = block[:row + 1].T
    _log_reseeds(reseeds)
    out **= -spec.observable_exponent
    return out


# ---------------------------------------------------------------------------
# the doubling map on a 128-bit sliding bit window
# ---------------------------------------------------------------------------

def _doubling_orbit(spec: DoublingMap, n: int, rng: np.random.Generator) -> np.ndarray:
    # Orbit step k of 2x mod 1 from a Lebesgue-random start is the 128-bit
    # window at bit offset k of one random bit stream; drawing the stream
    # lazily realizes the uniform x0 with as many bits as the orbit needs.
    offsets = spec.burn_in + np.arange(n, dtype=np.int64)
    n_words = int(offsets[-1] // 64) + 4
    words = rng.integers(
        0, np.iinfo(np.uint64).max, size=n_words, dtype=np.uint64, endpoint=True
    )
    q, s = np.divmod(offsets, 64)
    s = s.astype(np.uint64)
    rs = np.where(s == 0, np.uint64(63), np.uint64(64) - s)

    def window(idx):
        w0, w1 = words[idx], words[idx + 1]
        high = (w0 << s) | np.where(s == 0, np.uint64(0), w1 >> rs)
        return high

    hi = window(q)
    lo = window(q + 1)
    x = hi * 2.0**-64 + lo * 2.0**-128
    np.maximum(x, 2.0**-128, out=x)
    return x ** (-spec.observable_exponent)


# ---------------------------------------------------------------------------
# linear process
# ---------------------------------------------------------------------------

def first_index_below(tail, tol: float, cap: int) -> int | None:
    """Smallest k in [0, cap] with tail(k) < tol for a nonincreasing tail; None if none.

    Doubling brackets k, bisection finds it: O(log k) evaluations of tail.
    """
    if tail(0) < tol:
        return 0
    lo, hi = 0, min(1, cap)  # tail(lo) >= tol throughout
    while tail(hi) >= tol:
        if hi >= cap:
            return None
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi


def _resolve_truncation(family: CoeffFamily, requested: int | None) -> int:
    """The requested J, or the smallest J >= 1 with abs_tail(J) < 1e-8."""
    if requested is not None:
        return int(requested)
    j = first_index_below(family.abs_tail, _TRUNCATION_TOL, _TRUNCATION_CAP)
    if j is None:
        raise ValidationError(
            "coefficient tail decays too slowly for the default truncation rule; "
            "set an explicit truncation"
        )
    return max(j, 1)


def _linear_path(spec: CausalLinear, n: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    j_max = _resolve_truncation(spec.coefficients, spec.truncation)
    if n * (j_max + 1) > _LINEAR_WORK_LIMIT:
        raise ValidationError(
            f"n * (J + 1) = {n * (j_max + 1)} exceeds the resource limit {_LINEAR_WORK_LIMIT}"
        )
    coeffs = np.asarray(spec.coefficients.coeff(np.arange(j_max + 1)), dtype=float)
    eps = spec.innovation.quantile(rng.random(n + j_max))
    y = np.convolve(coeffs, eps)[j_max : j_max + n]
    bound = spec.coefficients.abs_tail(j_max) * spec.innovation.mean_abs()
    return y, bound


# ---------------------------------------------------------------------------
# public generation surface
# ---------------------------------------------------------------------------

def generate(spec: ProcessSpec, n: int, seed: int, stream: int = 0) -> Path:
    """Realize one trajectory of length n; bitwise reproducible given inputs."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng = spawn_rng(seed, stream, PURPOSE_PATH)
    bound = 0.0
    if isinstance(spec, IID):
        values = spec.model.quantile(rng.random(n))
    elif isinstance(spec, IntermittentMap):
        values = _intermittent_orbit(spec, n, seed, stream, rng)
    elif isinstance(spec, DoublingMap):
        values = _doubling_orbit(spec, n, rng)
    elif isinstance(spec, CausalLinear):
        values, bound = _linear_path(spec, n, rng)
    else:
        raise ValidationError(f"unknown process spec {type(spec).__name__}")
    return Path(values, spec, int(seed), int(stream), bound)


def generate_batch(spec: ProcessSpec, n: int, n_paths: int, seed: int,
                   first_stream: int = 0) -> np.ndarray:
    """Stack of ``n_paths`` trajectories, one per stream, shape (n_paths, n).

    Row r equals ``generate(spec, n, seed, first_stream + r).values`` bit for
    bit.  The intermittent map iterates all lanes at once; lane values do not
    depend on how a batch is chunked, so parallel replication is
    scheduling-invariant.
    """
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    streams = first_stream + np.arange(n_paths)
    if isinstance(spec, IntermittentMap):
        if n < 1:
            raise ValidationError("n must be >= 1")
        return _intermittent_orbit_batch(spec, n, seed, streams)
    rows = [generate(spec, n, seed, int(s)).values for s in streams]
    return np.stack(rows, axis=0)


def tabulate_cdf(values, grid) -> Tabulated:
    """Empirical CDF of `values` sampled on `grid`, monotone by construction.

    The last grid point absorbs any mass beyond it (documented tail cutoff).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing with >= 2 points")
    v = np.sort(np.asarray(values, dtype=float).ravel())
    cdf = np.searchsorted(v, grid, side="right") / v.size
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
    cdf[-1] = 1.0
    return Tabulated(grid, cdf, interp="linear")
