"""Seeded generators for stationary sequences and empirical CDF tabulation.

Four stationary mechanisms are provided: iid draws from a reference model,
forward orbits of the intermittent interval map with the neutral fixed point
at 0 (observable x**-a), forward orbits of the doubling map 2x mod 1
(realized on a 128-bit sliding bit window so chaoticity survives far past the
53 iterations native floats allow), and causal linear (MA-infinity) processes
with truncated coefficient families.  The geometric and polynomial families
share their decay laws, c * rho**k and c * (k + offset)**-theta, with the
dependence bounds of ``conditions``.

The iid, doubling-map and linear variants are per-row: ``row_blocks`` makes
a chunk of rows as an iterator of blocks, so a caller can score each block
while it is in cache and never hold the chunk.  What every row shares is
computed once per chunk: the linear transform length and its resource check
and the coefficients' spectrum, or the doubling map's word offset and bit
shifts.  A doubling row builds one table of every 64-bit window of its words;
step k reads its high window and, only when that puts x below 2**-10, its
low window 64 entries later.  ``generate`` and ``generate_batch`` take one
block of all their rows; ``generate`` alone computes the linear truncation
error bound, which it returns on ``Path``.  The intermittent map has a scalar
orbit for one path and a lane batch for many, kept as a cross-checking pair.

Linear rows are convolutions by real FFT of length L, the smallest power of
two >= n + J, in groups of max(1, 2**14 // L) rows of a block.  A row's
floats do not depend on its group or block, but they differ from the direct
sums in the last bits, within eps * (log2(L) + 2) * sum_j |a_j| * max |eps_k|
in the tests.  One row's transform takes 32 bytes a point of L, and L is
capped at 256 MiB / 32 = 2**23.

Only the decay laws' tails load scipy (``zeta``, and ``gammaincc`` for a
geometric power tail, imported on first use); of the generators, the linear
default truncation rule and the truncation error bound of a polynomial
family.  Every other generator runs on numpy alone.

Randomness is counter-split: stream `s` of a run with base seed `k` draws
from ``Philox(key=k, counter=[0, 0, purpose, s])``, its words written exactly
for every s below 2**64.  Streams are disjoint for fewer than 2**128 draws
each, so replication-level parallelism cannot change any result.  A chunk's
rows and lane starts re-state one generator to each stream in turn;
``spawn_rng`` builds one for a caller that keeps it.
"""
from __future__ import annotations

import io
import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ValidationError, WireRecord, as_sorted_sample, count, from_wire, jsonable,
                     real)
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

# bytes of one linear row's transform of length L: four float64 buffers of L points (the
# innovations, their spectrum, the coefficients' spectrum and the output), so L <= 2**23
_FFT_BUDGET = 256 * 2**20
_FFT_BLOCK = 2**14  # points of L per transformed group of rows; one row at a time ran slower
_TRUNCATION_CAP = 2**22
_TRUNCATION_TOL = 1e-8  # the default truncation J leaves a coefficient tail below this


def _philox_state(seed: int, stream: int, purpose: int) -> dict:
    """The state of ``Philox(key=seed % 2**128, counter=[0, 0, purpose, stream])``
    before its first draw: the key's two words low first, the counter's four
    words and an empty buffer.  The words are written as uint64, since numpy
    turns a counter list holding an int past the int64 range into float64."""
    key = seed % 2**128
    return {"bit_generator": "Philox",
            "state": {"counter": np.array([0, 0, purpose, stream], dtype=np.uint64),
                      "key": np.array([key % 2**64, key >> 64], dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}


def _counter_word(value, name: str) -> int:
    """A stream or purpose: an int in [0, 2**64), one word of the Philox counter."""
    value = count(value, name, 0)
    if value >= 2**64:
        raise ValidationError(f"{name} must fit in 64 bits")
    return value


def _stream_rngs(seed: int, streams, purpose: int = PURPOSE_PATH):
    """The generator of each stream s in turn: one generator re-stated in place,
    so each must be spent before the next is taken.  Setting a state costs about
    a tenth of building a Philox, most of whose cost is seeding it."""
    rng = np.random.Generator(np.random.Philox(0))
    for stream in streams:
        rng.bit_generator.state = _philox_state(seed, stream, purpose)
        yield rng


def spawn_rng(seed: int, stream: int = 0, purpose: int = PURPOSE_PATH) -> np.random.Generator:
    """Independent generator for (seed, stream, purpose) via Philox counters,
    one of its own, for a caller that keeps it."""
    state = _philox_state(count(seed, "seed"), _counter_word(stream, "stream"),
                          _counter_word(purpose, "purpose"))
    rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = state
    return rng


# ---------------------------------------------------------------------------
# decay laws, and the coefficient families of the linear process
# ---------------------------------------------------------------------------

class GeometricLaw:
    """c * rho**k, rho in [0, 1), c a read-only scale; log rho = -inf at rho = 0,
    where every log-space value past k = 0, and every tail, is then exactly 0."""

    scale = 1.0
    _log_rho = property(lambda self: math.log(self.rho) if self.rho > 0.0 else -math.inf)

    def log_coeff(self, k):
        """log(c * rho**k), finite where the law underflows."""
        return math.log(self.scale) + np.asarray(k, dtype=float) * self._log_rho

    def abs_tail(self, k: int) -> float:
        """sum_{j>k} c * rho**j."""
        return self.scale * self.rho ** (k + 1) / (1.0 - self.rho)

    def level_lag(self, log_u: float) -> tuple[float, float]:
        """The lag x with c * rho**x = u, given log u, and dx/dlog(u)."""
        return (log_u - math.log(self.scale)) / self._log_rho, 1.0 / self._log_rho

    def decay_exponent(self) -> float:
        return math.inf

    def power_tail(self, s: float, q: float, k: int) -> float:
        """An upper bound on sum_{j>k} j**s (c * rho**j)**q, s >= 0, q > 0: with lam =
        -q log rho, int_k^inf f, f(x) = x**s exp(-lam x), plus the largest term when
        the terms peak past k (s / lam > k).  For s < 1, as in every checker (0 for
        tail_314, 1/(r-1) for moment_313), and k >= 1 that term is slack: by
        Euler-Maclaurin the sum is int_k^inf f - f(k)/2 + int_k^inf ({x} - 1/2) f',
        whose last term is at most the total variation of f' on [k, inf) over 8,
        f'(k) + 2 max|f'| <= (s/k) f(k) + 2 lam f(s/lam) <= 3 (s/k) f(k)."""
        from scipy.special import gammaincc

        lam = -q * self._log_rho
        peak = s / lam
        top = peak**s * math.exp(-s) if peak > k else 0.0
        return self.scale**q * (math.gamma(s + 1.0) * float(gammaincc(s + 1.0, lam * k))
                                / lam ** (s + 1.0) + top)


class PolynomialLaw:
    """c * (k + offset)**-theta, theta >= 0, with c, offset and theta read-only."""

    scale = offset = 1.0

    def log_coeff(self, k):
        """log(c * (k + offset)**-theta), finite where the law underflows."""
        return math.log(self.scale) - self.theta * np.log(np.asarray(k, dtype=float) + self.offset)

    def abs_tail(self, k: int) -> float:
        """sum_{j>k} c * (j + offset)**-theta; inf for theta <= 1."""
        return self.power_tail(0.0, 1.0, k + 1)

    def level_lag(self, log_u: float) -> tuple[float, float]:
        """The lag x with c * (x + offset)**-theta = u, given log u, and dx/dlog(u)."""
        y = math.exp((math.log(self.scale) - log_u) / self.theta)
        return y - self.offset, -y / self.theta

    def decay_exponent(self) -> float:
        return self.theta

    def power_tail(self, s: float, q: float, k: int) -> float:
        """sum_{j>=k} (j + offset)**(s - theta q) c**q, s >= 0, q > 0, which bounds
        sum_{j>k} j**s (c * (j + offset)**-theta)**q; inf where it diverges."""
        if self.theta * q - s <= 1.0:
            return math.inf
        from scipy.special import zeta

        return self.scale**q * float(zeta(self.theta * q - s, k + self.offset))


class CoeffFamily(WireRecord):
    """A coefficient family a_j of the linear process; its wire tag is "family"."""

    TAG = "family"


@dataclass(frozen=True)
class GeometricCoeffs(CoeffFamily, GeometricLaw):
    """a_j = rho**j; rho = 0 degenerates to the single coefficient a_0 = 0**0 = 1."""

    rho: float

    kind = "geometric"

    def __post_init__(self):
        object.__setattr__(self, "rho", real(self.rho, "rho"))
        if not (0.0 <= self.rho < 1.0):
            raise ValidationError("geometric family needs rho in [0, 1)")

    def coeff(self, j):
        return self.rho ** np.asarray(j, dtype=float)


@dataclass(frozen=True)
class PolynomialCoeffs(CoeffFamily, PolynomialLaw):
    """a_j = (j + offset)**-beta with finite beta > 1 (absolute summability)."""

    beta: float
    offset: float = 1.0

    kind = "polynomial"
    theta = property(lambda self: self.beta)

    def __post_init__(self):
        for name in ("beta", "offset"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not (1.0 < self.beta < math.inf):
            raise ValidationError("polynomial family needs finite beta > 1")
        if not (0.0 < self.offset < math.inf):
            raise ValidationError("polynomial family needs finite offset > 0 (a_0 != 0)")

    def coeff(self, j):
        return (np.asarray(j, dtype=float) + self.offset) ** (-self.beta)


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
        for name in ("gamma", "observable_exponent"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not (0.0 < self.gamma < 1.0):
            raise ValidationError("gamma must lie in (0, 1)")
        if not (0.0 < self.observable_exponent < math.inf):
            raise ValidationError("observable exponent must be finite and positive")
        object.__setattr__(self, "burn_in", count(self.burn_in, "burn_in", 0))


@dataclass(frozen=True)
class DoublingMap(ProcessSpec):
    observable_exponent: float
    burn_in: int = 10_000

    kind = "doubling"

    def __post_init__(self):
        object.__setattr__(self, "observable_exponent",
                           real(self.observable_exponent, "observable_exponent"))
        if not (0.0 < self.observable_exponent < math.inf):
            raise ValidationError("observable exponent must be finite and positive")
        object.__setattr__(self, "burn_in", count(self.burn_in, "burn_in", 0))


@dataclass(frozen=True)
class CausalLinear(ProcessSpec):
    """Y_k = sum_{j=0}^{J} a_j eps_{k-j}; J = None picks J from the 1e-8 tail rule.

    A path of length n draws n + J innovations and convolves them with a_0..a_J
    by FFT of length L, the smallest power of two >= n + J; n + J may be at
    most 2**23.
    """

    coefficients: CoeffFamily = field(metadata={"decode": coeffs_from_dict})
    innovation: DistributionModel = field(metadata={"decode": model_from_dict})
    truncation: int | None = None

    kind = "causal_linear"

    def __post_init__(self):
        if self.truncation is not None:
            object.__setattr__(self, "truncation", count(self.truncation, "truncation", 1))


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
        header = jsonable({"spec": self.spec, "seed": self.seed, "stream": self.stream,
                           "truncation_error_bound": self.truncation_error_bound})
        fileobj.write(f"# w1clt-path {json.dumps(header, sort_keys=True, allow_nan=False)}\n")
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


def _log_reseeds(reseeds: int) -> None:
    if reseeds:
        logger.info("intermittent orbit re-randomized %d exact-zero state(s)", reseeds)


def _intermittent_orbit(spec: IntermittentMap, n: int, seed: int, stream: int) -> np.ndarray:
    # A one-lane batch would give the same floats at over 10x the cost per step.
    gamma = np.float64(spec.gamma)
    c = 2.0**spec.gamma
    x = _intermittent_start(spawn_rng(seed, stream, PURPOSE_PATH))
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
                              streams: range) -> np.ndarray:
    gamma = np.float64(spec.gamma)
    c = 2.0**spec.gamma
    x = np.array([_intermittent_start(rng) for rng in _stream_rngs(seed, streams)])
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
                x[lane] = _reseed(rngs, seed, streams[lane])
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
# the per-row variants: iid draws, the doubling map and the linear process
# ---------------------------------------------------------------------------

# Each variant's filler computes once what every row of a chunk shares and
# returns ``fill(out, rngs)``, which fills the rows of one block ``out`` from
# the chunk's next streams.  ``zip(out, rngs)`` names ``out`` first, so a full
# block stops the zip before it takes the next block's stream.

def _iid_filler(spec: IID, n: int):
    def fill(out, rngs):
        for x, rng in zip(out, rngs):
            x[:] = spec.model.quantile(rng.random(n))
        return out
    return fill


def _unit_float(u: np.ndarray, scale: float) -> np.ndarray:
    """``u * scale`` for uint64 words u and a power of two scale, with one rounding.

    The halves u >> 32 and u & (2**32 - 1) convert to floats exactly, and
    their scaled sum rounds once, to the float nearest u times scale, as the
    direct conversion does; numpy's uint64-to-float cast has no vector loop,
    its int64 cast has.
    """
    high = (u >> np.uint64(32)).view(np.int64).astype(float)
    low = (u & np.uint64(0xFFFFFFFF)).view(np.int64).astype(float)
    high *= scale * 2.0**32
    low *= scale
    high += low
    return high


def _doubling_filler(spec: DoublingMap, n: int):
    # Orbit step k of 2x mod 1 from a Lebesgue-random start is the 128-bit
    # window at bit offset k of one random bit stream; drawing the stream
    # lazily realizes the uniform x0 with as many bits as the orbit needs.
    first, lead = divmod(spec.burn_in, 64)  # the word and bit of step 0
    n_words = (spec.burn_in + n - 1) // 64 + 4
    shifts = np.arange(64, dtype=np.uint64)
    back = np.uint64(64) - shifts  # numpy's >> 64 gives 0

    def fill(out, rngs):
        for x, rng in zip(out, rngs):
            words = rng.integers(
                0, np.iinfo(np.uint64).max, size=n_words, dtype=np.uint64, endpoint=True
            )[first:]
            # entry 64 m + s is the 64-bit window at bit s of word m, so step k's
            # high window is entry lead + k and its low one lies 64 entries later
            table = (words[:-1, None] << shifts | words[1:, None] >> back).ravel()
            x[:] = _unit_float(table[lead:lead + n], 2.0**-64)
            # x = t1 + t2 rounded once, t2 = RN(low window * 2**-128) <= 2**-64, and
            # at least 2**-128.  Where t1 >= 2**-10, ulp(t1) >= 2**-62 > 2 * 2**-64
            # >= 2 * t2, so t1 + t2 rounds to t1 and the floor cannot bind: only the
            # few steps below 2**-10 take the low word
            low = np.flatnonzero(x < 2.0**-10)
            x[low] = np.maximum(x[low] + _unit_float(table[lead + 64 + low], 2.0**-128),
                                2.0**-128)
            x **= -spec.observable_exponent
        return out
    return fill


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


def with_truncation(spec: ProcessSpec) -> ProcessSpec:
    """``spec``, with a linear process's default truncation J written out.

    The default J is the smallest J >= 1 with abs_tail(J) < 1e-8.  The rows
    equal ``spec``'s bit for bit.  A caller about to fork resolves J first, so
    helpers inherit the scipy import a polynomial tail needs instead of each
    repeating it.
    """
    if not isinstance(spec, CausalLinear) or spec.truncation is not None:
        return spec
    j = first_index_below(spec.coefficients.abs_tail, _TRUNCATION_TOL, _TRUNCATION_CAP)
    if j is None:
        raise ValidationError(
            "coefficient tail decays too slowly for the default truncation rule; "
            "set an explicit truncation"
        )
    return replace(spec, truncation=max(j, 1))


def _linear_filler(spec: CausalLinear, n: int):
    """The filler of a spec whose truncation J is explicit (``with_truncation``).

    Each row is the circular convolution of length L, the smallest power of
    two >= n + J, of the coefficients and the row's n + J innovations; on the
    kept outputs [J, J + n) it equals the linear one, since nothing wraps
    around.  The resource check and the coefficients' spectrum come once per
    chunk; a block's innovations are transformed in groups of
    max(1, 2**14 // L) rows, one 2-D transform each, so a transform stays
    bounded by L however many rows a block holds.
    """
    j_max = spec.truncation
    size = 1 << (n + j_max - 1).bit_length()
    if 32 * size > _FFT_BUDGET:
        raise ValidationError(
            f"n + J = {n + j_max} needs a transform of length {size}, over the resource "
            f"limit of {_FFT_BUDGET // 32} ({_FFT_BUDGET} bytes at 32 a point)"
        )
    coeffs = np.asarray(spec.coefficients.coeff(np.arange(j_max + 1)), dtype=float)
    transfer = np.fft.rfft(coeffs, size)
    group = max(1, _FFT_BLOCK // size)

    def fill(out, rngs):
        for start in range(0, len(out), group):
            rows = out[start:start + group]
            eps = np.empty((len(rows), n + j_max))
            for e, rng in zip(eps, rngs):
                e[:] = spec.innovation.quantile(rng.random(n + j_max))
            spectrum = np.fft.rfft(eps, size, axis=1)
            spectrum *= transfer
            rows[:] = np.fft.irfft(spectrum, size, axis=1)[:, j_max:j_max + n]
        return out
    return fill


def row_blocks(spec: ProcessSpec, n: int, seed: int, streams, rows: int):
    """The rows of a per-row variant, row r from stream streams[r], as an
    iterator of blocks of ``rows`` rows (the last may hold fewer).

    What the chunk's rows share is computed once, before this returns: the
    linear resource check and spectrum, or the doubling word offset and bit
    shifts, and one Philox re-stated to each stream in turn.  A row's floats
    do not depend on its block.  A linear spec's truncation is explicit.
    """
    if isinstance(spec, IID):
        fill = _iid_filler(spec, n)
    elif isinstance(spec, DoublingMap):
        fill = _doubling_filler(spec, n)
    elif isinstance(spec, CausalLinear):
        fill = _linear_filler(spec, n)
    else:
        raise ValidationError(f"unknown process spec {type(spec).__name__}")
    rngs = _stream_rngs(seed, streams)
    return (fill(np.empty((min(rows, len(streams) - start), n)), rngs)
            for start in range(0, len(streams), rows))


# ---------------------------------------------------------------------------
# public generation surface
# ---------------------------------------------------------------------------

def generate(spec: ProcessSpec, n: int, seed: int, stream: int = 0) -> Path:
    """Realize one trajectory of length n; bitwise reproducible given inputs."""
    n, seed, stream = count(n, "n", 1), count(seed, "seed"), _counter_word(stream, "stream")
    if isinstance(spec, IntermittentMap):
        return Path(_intermittent_orbit(spec, n, seed, stream), spec, seed, stream)
    explicit = with_truncation(spec)
    values = next(row_blocks(explicit, n, seed, (stream,), 1))[0]
    bound = 0.0
    if isinstance(explicit, CausalLinear):  # E|Y_k - its truncation at J|
        tail = explicit.coefficients.abs_tail(explicit.truncation)
        bound = tail * explicit.innovation.mean_abs()
    return Path(values, spec, seed, stream, bound)


def generate_batch(spec: ProcessSpec, n: int, n_paths: int, seed: int,
                   first_stream: int = 0) -> np.ndarray:
    """Stack of ``n_paths`` trajectories, one per stream, shape (n_paths, n).

    Row r equals ``generate(spec, n, seed, first_stream + r).values`` bit for
    bit, for every stream below 2**64.  The intermittent map iterates all
    lanes at once; lane values do not depend on how a batch is chunked, so
    parallel replication is scheduling-invariant.  A batch of a per-row
    variant is one block of ``row_blocks``: a linear batch takes the
    coefficients' spectrum once and transforms its innovations in groups of
    max(1, 2**14 // L) rows; a row's floats do not depend on its group.
    """
    n, n_paths, seed = count(n, "n", 1), count(n_paths, "n_paths", 1), count(seed, "seed")
    first_stream = count(first_stream, "first_stream", 0)
    if first_stream + n_paths > 2**64:
        raise ValidationError("streams must fit in 64 bits")
    streams = range(first_stream, first_stream + n_paths)
    if isinstance(spec, IntermittentMap):
        return _intermittent_orbit_batch(spec, n, seed, streams)
    return next(row_blocks(with_truncation(spec), n, seed, streams, n_paths))


def tabulate_cdf(values, grid) -> Tabulated:
    """Empirical CDF of `values` sampled on `grid`, monotone by construction.

    The last grid point absorbs any mass beyond it (documented tail cutoff).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing with >= 2 points")
    v = as_sorted_sample(values)
    # counts over a strictly increasing grid, so nondecreasing and within [0, 1]
    cdf = np.searchsorted(v, grid, side="right") / v.size
    cdf[-1] = 1.0
    return Tabulated(grid, cdf, interp="linear")
