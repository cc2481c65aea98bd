"""Reference distribution models with exact CDF, quantile and tail integrals.

Every model exposes the same surface:

* ``cdf(t)``                 distribution function F
* ``quantile(u)``            generalized (cadlag) inverse of F
* ``tail(t)``                P(|Y| > t)
* ``tail_quantile(u)``       cadlag inverse of the tail function of |Y|
* ``cdf_antiderivative(t)``  t -> integral of F over (-inf, t] (finite because
                             every kind here has support bounded below)
* ``upper_mean_excess(t)``   integral of 1 - F over [t, inf)
* ``quantile_tail_integral_exact(alpha)``
                             integral of tail_quantile(u)/sqrt(u) over (0, alpha]

plus metadata used by the convergence checkers: ``support()``,
``tail_exponent()`` (the r such that tail(t) ~ t**-r, ``inf`` for bounded or
exponential tails), ``density_bound`` and ``mean_abs()``.

Each kind gives the |Y| functionals in closed form.  ``Uniform`` reads all but
``tail`` from the equal linear ``Tabulated`` table, for every support, and
``Tabulated._folded`` builds the |Y| table of a signed support once.  The
square-root tail integral int_0^inf sqrt(tail(t)) dt has no method of its
own: it is half the quantile tail integral at alpha = 1, which is how
``transport.lambda21`` takes it.

The six pointwise methods above and ``quantile_density(u)`` (the quantile's
derivative, which ``Tabulated`` lacks) are defined once, on
``DistributionModel``: each converts its query to a float array, calls the
kind's array kernel, named like the method with a leading underscore
(``_cdf``, ``_tail_quantile``, ...), and returns a Python float for a scalar
or 0-d query, a float array of the query's shape otherwise.  A scalar query
answers bit for bit like the same value inside an array query, and a 2-D
query (a stack of samples, as ``transport.w1_sample_vs_model`` passes) like
each of its rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ValidationError, WireRecord, as_sorted_sample, from_wire, read_key,
                     real, reject_unknown_keys)

__all__ = [
    "DistributionModel",
    "Uniform",
    "Exponential",
    "ParetoTail",
    "Tabulated",
    "power_pushforward",
    "model_from_dict",
]

# buckets per knot of Tabulated's knot lookup (it gets half to all of this many):
# on the calibrated 2,050-knot tables of two benchmark workloads, 4 and 8 left at
# most 3 and 2 knots a bucket, so 2 bisection rounds, and timed alike; 1 and 2
# took 4 and 3 rounds.  At 4 the int32 starts take at most 16 bytes a knot
_BUCKETS_PER_KNOT = 4


def _pointwise(kernel, x):
    """The kernel at x as a float array; a Python float when the query is scalar or 0-d.

    A scalar query runs the kernel on a one-element array: on numpy scalars
    ``**`` calls the C library's pow, while an array takes numpy's vector
    power loop, and the two can differ in the last bits.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(kernel(x.reshape(1))[0])
    return kernel(x)


class DistributionModel(WireRecord):
    """Common behaviour; every concrete kind implements each closed form."""

    density_bound: float | None = None

    # --- evaluation surface; the kernels take and return float arrays -------
    def cdf(self, t):
        return _pointwise(self._cdf, t)

    def quantile(self, u):
        return _pointwise(self._quantile, u)

    def tail(self, t):
        return _pointwise(self._tail, t)

    def tail_quantile(self, u):
        """Cadlag inverse of ``tail``: inf{t >= 0 : tail(t) <= u}."""
        return _pointwise(self._tail_quantile, u)

    def cdf_antiderivative(self, t):
        return _pointwise(self._cdf_antiderivative, t)

    def upper_mean_excess(self, t):
        return _pointwise(self._upper_mean_excess, t)

    def quantile_density(self, u):
        """Derivative of the quantile function; not all kinds have one."""
        return _pointwise(self._quantile_density, u)

    def _quantile_density(self, u):
        raise ValidationError(f"{self.kind} model has no differentiable quantile")

    # --- metadata -----------------------------------------------------------
    @property
    def has_finite_mean(self) -> bool:
        return self.tail_exponent() > 1.0

    def mean_abs(self) -> float:
        """E|Y| via E|Y| = int_0^inf tail = upper_mean_excess(0) + cdf_antiderivative(0)."""
        return self.upper_mean_excess(0.0) + self.cdf_antiderivative(0.0)


@dataclass(frozen=True)
class Uniform(DistributionModel):
    lo: float = 0.0
    hi: float = 1.0

    kind = "uniform"

    def __post_init__(self):
        for name in ("lo", "hi"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.hi > self.lo):
            raise ValidationError("Uniform requires finite lo < hi")
        # the same law as a linear table, which folds a signed support exactly, once
        object.__setattr__(self, "_table", Tabulated([self.lo, self.hi], [0.0, 1.0]))

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def density_bound(self):
        return 1.0 / self.width

    def _cdf(self, t):
        return np.clip((t - self.lo) / self.width, 0.0, 1.0)

    def _quantile(self, u):
        return self.lo + u * self.width

    # a closed form on purpose: it is the integrand of transport.sqrt_tail_integral's
    # quadrature, the route kept independent of the table's |Y| functionals
    def _tail(self, t):
        upper = np.clip((self.hi - t) / self.width, 0.0, 1.0)
        lower = np.clip((-t - self.lo) / self.width, 0.0, 1.0)
        return np.where(t < 0.0, 1.0, np.clip(upper + lower, 0.0, 1.0))

    def _tail_quantile(self, u):
        return self._table._tail_quantile(u)

    def _cdf_antiderivative(self, t):
        inside = np.clip(t, self.lo, self.hi) - self.lo
        return inside * inside / (2.0 * self.width) + np.maximum(t - self.hi, 0.0)

    def _upper_mean_excess(self, t):
        inside = self.hi - np.clip(t, self.lo, self.hi)
        return inside * inside / (2.0 * self.width) + np.maximum(self.lo - t, 0.0)

    def _quantile_density(self, u):
        return np.full(u.shape, float(self.width))

    def support(self):
        return (self.lo, self.hi)

    def tail_exponent(self):
        return math.inf

    def quantile_tail_integral_exact(self, alpha):
        return self._table.quantile_tail_integral_exact(alpha)


@dataclass(frozen=True)
class Exponential(DistributionModel):
    rate: float = 1.0

    kind = "exponential"

    def __post_init__(self):
        object.__setattr__(self, "rate", real(self.rate, "rate"))
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValidationError("Exponential requires rate > 0")

    @property
    def density_bound(self):
        return self.rate

    def _cdf(self, t):
        return np.where(t <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(t, 0.0)))

    # the quantile kernels are +inf at the infinite end of the support
    @np.errstate(divide="ignore")
    def _quantile(self, u):
        return -np.log1p(-u) / self.rate

    def _tail(self, t):
        return np.where(t <= 0.0, 1.0, np.exp(-self.rate * np.maximum(t, 0.0)))

    @np.errstate(divide="ignore")
    def _tail_quantile(self, u):
        return np.where(u >= 1.0, 0.0, -np.log(np.minimum(u, 1.0)) / self.rate)

    def _cdf_antiderivative(self, t):
        t = np.maximum(t, 0.0)
        return t + np.expm1(-self.rate * t) / self.rate

    def _upper_mean_excess(self, t):
        return np.exp(-self.rate * np.maximum(t, 0.0)) / self.rate - np.minimum(t, 0.0)

    @np.errstate(divide="ignore")
    def _quantile_density(self, u):
        return 1.0 / (self.rate * (1.0 - u))

    def support(self):
        return (0.0, math.inf)

    def tail_exponent(self):
        return math.inf

    def quantile_tail_integral_exact(self, alpha):
        # Q(u) = -ln(u) / rate
        return 2.0 * math.sqrt(alpha) * (2.0 - math.log(alpha)) / self.rate


@dataclass(frozen=True)
class ParetoTail(DistributionModel):
    """P(Y > t) = (scale/t)**exponent for t >= scale; support [scale, inf)."""

    scale: float = 1.0
    exponent: float = 3.0

    kind = "pareto_tail"

    def __post_init__(self):
        for name in ("scale", "exponent"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not (0.0 < self.scale < math.inf and 0.0 < self.exponent < math.inf):
            raise ValidationError("ParetoTail requires finite scale > 0 and finite exponent > 0")

    @property
    def density_bound(self):
        return self.exponent / self.scale

    def _cdf(self, t):
        safe = np.maximum(t, self.scale)
        return np.where(t < self.scale, 0.0, 1.0 - (self.scale / safe) ** self.exponent)

    # the quantile kernels round to +inf at and near the infinite end of the support
    @np.errstate(divide="ignore", over="ignore")
    def _quantile(self, u):
        return self.scale * (1.0 - u) ** (-1.0 / self.exponent)

    def _tail(self, t):
        safe = np.maximum(t, self.scale)
        return np.where(t < self.scale, 1.0, (self.scale / safe) ** self.exponent)

    @np.errstate(divide="ignore", over="ignore")
    def _tail_quantile(self, u):
        return np.where(u >= 1.0, 0.0, self.scale * np.minimum(u, 1.0) ** (-1.0 / self.exponent))

    def _ratio(self, s):
        """s / c, and the mask of the entries where it overflows (None when c >= 1,
        since s / c <= s then)."""
        with np.errstate(over="ignore"):
            ratio = s / self.scale
        return ratio, (np.isinf(ratio) if self.scale < 1.0 else None)

    def _scaled_power(self, s):
        """c**r * s**(1 - r) for s >= c, written c * (s / c)**(1 - r) because c**r
        underflows for a tiny scale; from logarithms where s / c overflows."""
        c, r = self.scale, self.exponent
        ratio, far = self._ratio(s)
        out = ratio ** (1.0 - r)
        out *= c
        if far is not None:
            out[far] = np.exp(r * math.log(c) + (1.0 - r) * np.log(s[far]))
        return out

    def _cdf_antiderivative(self, t):
        c, r = self.scale, self.exponent
        safe = np.maximum(t, c)
        if r == 1.0:
            ratio, far = self._ratio(safe)
            tail_part = c * np.log(ratio)
            if far is not None:
                tail_part[far] = c * (np.log(safe[far]) - math.log(c))
        else:
            tail_part = self._scaled_power(safe)
            tail_part -= c
            tail_part /= 1.0 - r
        # in place: W1 calls this on blocks of 2**14 values and more, where each
        # fresh temporary costs as much as its arithmetic
        safe -= c
        safe -= tail_part
        safe[t < c] = 0.0
        return safe

    def _upper_mean_excess(self, t):
        c, r = self.scale, self.exponent
        if r <= 1.0:
            raise ValidationError(f"mean excess diverges: tail exponent {r} <= 1")
        return self._scaled_power(np.maximum(t, c)) / (r - 1.0) + np.maximum(c - t, 0.0)

    @np.errstate(divide="ignore", over="ignore")
    def _quantile_density(self, u):
        c, r = self.scale, self.exponent
        return (c / r) * (1.0 - u) ** (-1.0 - 1.0 / r)

    def support(self):
        return (self.scale, math.inf)

    def tail_exponent(self):
        return self.exponent

    def quantile_tail_integral_exact(self, alpha):
        # Q(u)/sqrt(u) = scale * u**(e - 1)
        e = 0.5 - 1.0 / self.exponent
        if e <= 0.0:
            return math.inf
        return self.scale * alpha**e / e


@dataclass
class Tabulated(DistributionModel):
    """CDF given by values on a strictly increasing grid.

    ``interp="linear"`` linearly interpolates between knots (with a jump of
    ``cdf_values[0]`` at ``grid[0]``); ``interp="step"`` is the right-continuous
    step CDF, which represents an empirical CDF exactly.  The last value must
    be 1: mass beyond the grid is a documented tail cutoff the caller controls
    through the grid extent.  Knot gaps must be finite, and so must a linear
    table's slopes.  The |Y| functionals are piecewise closed forms; a grid
    starting below 0 is folded into the |Y| table once, at construction.
    """

    grid: np.ndarray
    cdf_values: np.ndarray
    interp: str = "linear"

    kind = "tabulated"

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.cdf_values = np.asarray(self.cdf_values, dtype=float)
        if self.grid.ndim != 1 or len(self.grid) < 2:
            raise ValidationError("tabulated grid needs at least 2 points")
        if not (np.all(np.isfinite(self.grid)) and np.all(np.isfinite(self.cdf_values))):
            raise ValidationError("tabulated grid and cdf values must be finite")
        with np.errstate(over="ignore"):
            gaps = np.diff(self.grid)
        if not np.all(gaps > 0):
            raise ValidationError("tabulated grid must be strictly increasing")
        if not np.all(np.isfinite(gaps)):
            raise ValidationError("tabulated knot gaps must be finite")
        if len(self.cdf_values) != len(self.grid):
            raise ValidationError("grid and cdf_values length mismatch")
        if np.any(np.diff(self.cdf_values) < 0):
            raise ValidationError("cdf values must be nondecreasing")
        if self.cdf_values[0] < 0 or abs(self.cdf_values[-1] - 1.0) > 1e-9:
            raise ValidationError("cdf values must lie in [0, 1] and end at 1")
        if self.interp not in ("linear", "step"):
            raise ValidationError("interp must be 'linear' or 'step'")
        # values within the 1e-9 end tolerance above 1 are clipped, so F stays in [0, 1]
        self.cdf_values = np.minimum(self.cdf_values, 1.0)
        self.cdf_values[-1] = 1.0
        self._tails = 1.0 - self.cdf_values  # P(Y > knot); _folded sets P(|Y| > knot)
        self._build_antiderivative(gaps)
        self._build_lookup()
        if self.grid[0] < 0.0:
            try:
                self._abs = self._folded()
            except ValidationError:
                raise ValidationError(
                    "tabulated law of |Y| overflows a cdf slope: knots too close to 0"
                ) from None

    def __eq__(self, other):
        # the generated dataclass __eq__ would compare arrays to an ambiguous truth value
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.interp == other.interp and np.array_equal(self.grid, other.grid)
                and np.array_equal(self.cdf_values, other.cdf_values))

    @classmethod
    def from_sample(cls, values) -> "Tabulated":
        """Step CDF placing mass 1/n at every observation (ties merge)."""
        v = as_sorted_sample(values)
        uniq, counts = np.unique(v, return_counts=True)
        if len(uniq) < 2:
            uniq = np.concatenate([uniq, uniq + max(1.0, abs(uniq[0]))])
            counts = np.concatenate([counts, [0]])
        cdf = np.cumsum(counts) / len(v)
        return cls(uniq, cdf, interp="step")

    def _build_antiderivative(self, gaps):
        v = self.cdf_values
        if self.interp == "step":
            piece = v[:-1] * gaps
        else:
            with np.errstate(over="ignore"):
                self._half_slopes = 0.5 * ((v[1:] - v[:-1]) / gaps)
            if not np.all(np.isfinite(self._half_slopes)):
                raise ValidationError("linear tabulated cdf slope overflows: knot gap too small")
            piece = 0.5 * (v[:-1] + v[1:]) * gaps
        self._a_knots = np.concatenate([[0.0], np.cumsum(piece)])

    def _build_lookup(self):
        """``_knot_count``'s bucket starts and steps, built once: forked helpers inherit them."""
        g = self.grid
        with np.errstate(over="ignore"):
            self._key_bounds = [int(b) for b in (np.array([g[1], g[-1]]) - g[0]).view(np.int64)]
        k1, top = self._key_bounds
        self._shift = ((top - k1) // (_BUCKETS_PER_KNOT * len(g))).bit_length()
        # starts[j]: the knots in buckets below j (the knots' buckets are nondecreasing)
        buckets = np.arange(((top - k1) >> self._shift) + 1)
        self._starts = np.searchsorted(self._bucket(g), buckets).astype(np.int32)
        fullest = int(np.max(np.diff(self._starts, append=len(g))))
        self._steps = [1 << i for i in reversed(range(fullest.bit_length()))]

    def _bucket(self, t):
        """(bits(t - g0) clipped to [k1, top] - k1) >> shift, where k1 and top are the
        int64 bits of g1 - g0 and g[-1] - g0; a negative t - g0 clips to k1, so
        subtracting k1 cannot wrap."""
        with np.errstate(over="ignore"):
            key = (t - self.grid[0]).view(np.int64)
        np.clip(key, *self._key_bounds, out=key)
        key -= self._key_bounds[0]
        key >>= self._shift
        return key

    def _knot_count(self, t):
        """``searchsorted(grid, t, side="right")`` for every t but NaN, by bisection from
        the start of t's bucket in bit_length(fullest bucket) rounds.  A read past the
        last knot clips to it, <= t only where the count is len(grid): hence the minimum."""
        count = self._starts[self._bucket(t)].astype(np.intp)
        for step in self._steps:
            # grid[step - 1:][count] is grid[count + step - 1], clipped to the last knot
            hit = np.take(self.grid[step - 1:], count, mode="clip") <= t
            count += hit * step if step > 1 else hit
        return np.minimum(count, len(self.grid), out=count)

    def _cdf(self, t, side="right"):
        """F(t) for side "right", the left limit F(t-) for side "left"."""
        g, v = self.grid, self.cdf_values
        if self.interp == "step":
            return np.concatenate([[0.0], v])[np.searchsorted(g, t, side=side)]
        below = t < g[0] if side == "right" else t <= g[0]
        return np.where(below, 0.0, np.interp(t, g, v))

    def _quantile(self, u, v=None):
        """Q(u), or the same inverse of the knots' values v if another array is given."""
        g, v = self.grid, self.cdf_values if v is None else v
        idx = np.searchsorted(v, u, side="left")
        idx = np.clip(idx, 0, len(g) - 1)
        if self.interp == "step":
            return g[idx]
        left = np.clip(idx - 1, 0, len(g) - 1)
        dv = v[idx] - v[left]
        frac = np.where(dv > 0, (u - v[left]) / np.where(dv > 0, dv, 1.0), 0.0)
        return np.where(idx == 0, g[0], g[left] + frac * (g[idx] - g[left]))

    def _tail(self, t):
        out = (1.0 - self._cdf(t)) + self._cdf(-t, "left")
        return np.where(t < 0.0, 1.0, np.clip(out, 0.0, 1.0))

    def _folded(self) -> "Tabulated":
        """The law of |Y| as a table with the same interpolation, for ``grid[0] < 0``.

        F_|Y|(t) = F(t) - F(-t^-) is taken at 0 and the knots |grid|, between
        which it interpolates like F.  The one exception is |grid[0]|, where
        a linear table's atom of mass ``cdf_values[0]`` at ``grid[0]`` makes
        F_|Y| jump; the knot one ulp below |grid[0]| keeps that jump.
        """
        g = self.grid
        t = np.unique(np.concatenate([[0.0, np.nextafter(-g[0], 0.0)], np.abs(g)]))
        f_abs = np.maximum.accumulate(self._cdf(t) - self._cdf(-t, "left"))
        table = Tabulated(t, f_abs, interp=self.interp)
        # P(|Y| > t) itself, as 1 - f_abs rounds away a tail mass below an ulp of 1
        table._tails = np.minimum.accumulate(self._tail(t))
        return table

    def _tail_quantile(self, u):
        if self.grid[0] < 0.0:
            return self._abs._tail_quantile(u)
        # inverts the tails themselves, as 1 - u would round away a tail mass below an ulp of 1
        return np.where(u >= 1.0, 0.0, self._quantile(-u, -self._tails))

    def _cdf_antiderivative(self, t):
        """Integral of F over (-inf, t], knot interval by knot interval.

        Every t finds its interval from ``_knot_count(t)``, which equals
        ``searchsorted(grid, t, side="right")`` exactly: t's bucket does not
        decrease as t grows, since t - g0 rounds monotonically and the int64
        bits of nonnegative floats order like their values, so the knots in
        lower buckets are <= t, those in higher ones > t, and only t's own
        bucket needs a search.
        """
        g, v = self.grid, self.cdf_values
        idx = self._knot_count(t)
        np.clip(np.subtract(idx, 1, out=idx), 0, len(g) - 2, out=idx)
        # in place: the same operations as
        # a[idx] + (v[idx] dt + slope[idx] / 2 * dt**2), products and sums commuted
        dt = np.clip(t, g[0], g[-1])
        dt -= g[idx]
        out = v[idx]
        out *= dt
        if self.interp == "linear":
            dt *= dt
            dt *= self._half_slopes[idx]
            out += dt
        out += self._a_knots[idx]
        out += np.maximum(t - g[-1], 0.0)
        return np.where(t < g[0], 0.0, out)

    def _upper_mean_excess(self, t):
        g = self.grid
        t_in = np.clip(t, g[0], g[-1])
        # the public method, not the kernel: benchmarks/spans.py times it by wrapping it per model
        out = (g[-1] - t_in) - (self._a_knots[-1] - self.cdf_antiderivative(t_in))
        out = out + np.maximum(g[0] - t, 0.0)
        return np.where(t > g[-1], 0.0, out)

    def support(self):
        return (float(self.grid[0]), float(self.grid[-1]))

    def tail_exponent(self):
        return math.inf

    def quantile_tail_integral_exact(self, alpha):
        if self.grid[0] < 0.0:
            return self._abs.quantile_tail_integral_exact(alpha)
        # with tail u = 1 - v, piece i covers [u[i + 1], u[i]], where the tail
        # quantile runs linearly from g[i + 1] down to g[i] (stays at g[i + 1] for a
        # step table); the top piece, [u[0], 1], has the constant quantile g[0]
        g = self.grid
        u = self._tails
        u_lo = np.concatenate([u[1:], [u[0]]])
        u_hi = np.concatenate([u[:-1], [1.0]])
        q_lo = np.concatenate([g[1:], [g[0]]])
        q_hi = np.concatenate([g[:-1] if self.interp == "linear" else g[1:], [g[0]]])
        lo = np.clip(u_lo, 0.0, alpha)
        hi = np.clip(u_hi, 0.0, alpha)
        keep = hi > lo
        u_lo, u_hi, q_lo, q_hi, lo, hi = (x[keep] for x in (u_lo, u_hi, q_lo, q_hi, lo, hi))
        # Q at the clipped ends, then the integral of (linear Q)/sqrt(u) written as
        # (s - r) [2 Q(hi) + (2/3) (Q(lo) - Q(hi)) (2s + r) / (s + r)] with
        # s = sqrt(hi), r = sqrt(lo): no term exceeds the quantiles, so a nearly
        # flat cdf piece (a huge slope of Q) cancels nothing
        span = u_hi - u_lo
        with np.errstate(over="ignore"):
            drop = (q_lo - q_hi) / span
        # a piece of subnormal tail mass can have a slope past the float range;
        # its clipped ends are then taken as fractions of the piece
        far = np.isinf(drop)
        drop[far] = 0.0
        at_lo = q_hi + drop * (u_hi - lo)
        at_hi = q_hi + drop * (u_hi - hi)
        gap = (q_lo - q_hi)[far]
        at_lo[far] += gap * ((u_hi - lo)[far] / span[far])
        at_hi[far] += gap * ((u_hi - hi)[far] / span[far])
        s, r = np.sqrt(hi), np.sqrt(lo)
        pieces = (hi - lo) / (s + r) * (2.0 * at_hi
                                        + (2.0 / 3.0) * (at_lo - at_hi) * (2.0 * s + r) / (s + r))
        return float(np.sum(pieces))


def power_pushforward(exponent: float, base="lebesgue") -> DistributionModel:
    """Law of Y = X**(-exponent) for X ~ base measure on (0, 1).

    The Lebesgue base gives exactly ``ParetoTail(1, 1/exponent)``.  A linearly
    interpolated ``Tabulated`` base CDF G is transformed knot for knot
    (F_Y(x**-a) = 1 - G(x)) into a linear ``Tabulated``; mass below the first
    base knot becomes the tail cutoff of the transformed table.  A step base
    is rejected: its jumps do not map onto linear interpolation between knots.
    """
    exponent = real(exponent, "exponent")
    if not (exponent > 0.0 and math.isfinite(exponent)):
        raise ValidationError("power pushforward requires exponent > 0")
    if base == "lebesgue":
        return ParetoTail(scale=1.0, exponent=1.0 / exponent)
    if not isinstance(base, Tabulated):
        raise ValidationError("base must be 'lebesgue' or a Tabulated model")
    if base.interp != "linear":
        raise ValidationError("power pushforward needs a linearly interpolated base")
    g, v = base.grid, base.cdf_values
    if g[0] <= 0.0 or g[-1] > 1.0:
        raise ValidationError("tabulated base must live on (0, 1]")
    y_cdf = 1.0 - v[::-1]
    y_cdf[-1] = 1.0
    return Tabulated(g[::-1] ** (-exponent), y_cdf, interp="linear")


def model_from_dict(d: dict) -> DistributionModel:
    """Rebuild a model from its ``to_dict`` form (the JSON wire format).

    ``power_pushforward`` is an input-only kind, read as the law it equals.
    """
    if isinstance(d, dict) and d.get("kind") == "power_pushforward":
        what = "power_pushforward model"
        reject_unknown_keys(d, ("kind", "exponent", "base"), what)
        base = d.get("base", "lebesgue")
        return power_pushforward(read_key(d, "exponent", float, what),
                                 base if isinstance(base, str) else model_from_dict(base))
    return from_wire(d, (Uniform, Exponential, ParetoTail, Tabulated), "model",
                     input_only=("power_pushforward",))
