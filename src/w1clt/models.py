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
* ``sqrt_tail_integral_exact()``
                             integral of sqrt(tail(t)) over [0, inf)

plus metadata used by the convergence checkers: ``support()``,
``tail_exponent()`` (the r such that tail(t) ~ t**-r, ``inf`` for bounded or
exponential tails), ``density_bound`` and ``mean_abs()``.

Each kind gives the |Y| functionals in closed form.  A signed support is
folded into the law of |Y| once: ``Uniform`` goes through the equal linear
``Tabulated`` table, and ``Tabulated._folded`` builds the |Y| table.

The six pointwise methods above and ``quantile_density(u)`` (the quantile's
derivative, which ``Tabulated`` lacks) are defined once, on
``DistributionModel``: each converts its query to a float array, calls the
kind's array kernel, named like the method with a leading underscore
(``_cdf``, ``_tail_quantile``, ...), and returns a Python float for a scalar
or 0-d query, a float array of the query's shape otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, WireRecord, from_wire, read_key, reject_unknown_keys

__all__ = [
    "DistributionModel",
    "Uniform",
    "Exponential",
    "ParetoTail",
    "Tabulated",
    "power_pushforward",
    "model_from_dict",
]


def _pointwise(kernel, x):
    """The kernel at x as a float array; a Python float when the query is scalar or 0-d."""
    x = np.asarray(x, dtype=float)
    out = kernel(x)
    return float(out) if x.ndim == 0 else out


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
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def tail_exponent(self) -> float:
        """Polynomial decay rate r of P(|Y|>t); math.inf if faster than any power."""
        raise NotImplementedError

    @property
    def has_finite_mean(self) -> bool:
        return self.tail_exponent() > 1.0

    def mean_abs(self) -> float:
        """E|Y| via E|Y| = int_0^inf tail = upper_mean_excess(0) + cdf_antiderivative(0)."""
        return self.upper_mean_excess(0.0) + self.cdf_antiderivative(0.0)

    def sqrt_tail_integral_exact(self) -> float:
        """Closed form of int_0^inf sqrt(tail(t)) dt."""
        raise NotImplementedError

    def quantile_tail_integral_exact(self, alpha: float) -> float:
        """Closed form of int_0^alpha Q(u)/sqrt(u) du, Q the tail quantile of |Y|."""
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(DistributionModel):
    lo: float = 0.0
    hi: float = 1.0

    kind = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.hi > self.lo):
            raise ValidationError("Uniform requires finite lo < hi")

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

    def _tail(self, t):
        upper = np.clip((self.hi - t) / self.width, 0.0, 1.0)
        lower = np.clip((-t - self.lo) / self.width, 0.0, 1.0)
        return np.where(t < 0.0, 1.0, np.clip(upper + lower, 0.0, 1.0))

    def _table(self):
        """The same law as a linear ``Tabulated``, which folds a signed support exactly."""
        return Tabulated([self.lo, self.hi], [0.0, 1.0])

    def _tail_quantile(self, u):
        if self.lo < 0.0:
            return self._table()._tail_quantile(u)
        return np.where(u >= 1.0, 0.0, self.hi - u * self.width)

    def _cdf_antiderivative(self, t):
        inside = np.clip(t, self.lo, self.hi) - self.lo
        return inside**2 / (2.0 * self.width) + np.maximum(t - self.hi, 0.0)

    def _upper_mean_excess(self, t):
        inside = self.hi - np.clip(t, self.lo, self.hi)
        return inside**2 / (2.0 * self.width) + np.maximum(self.lo - t, 0.0)

    def _quantile_density(self, u):
        return np.full(u.shape, self.width)

    def support(self):
        return (self.lo, self.hi)

    def tail_exponent(self):
        return math.inf

    def sqrt_tail_integral_exact(self):
        if self.lo < 0.0:
            return self._table().sqrt_tail_integral_exact()
        # int_0^lo 1 dt + int_lo^hi sqrt((hi-t)/w) dt
        return self.lo + 2.0 * self.width / 3.0

    def quantile_tail_integral_exact(self, alpha):
        return self._table().quantile_tail_integral_exact(alpha)


@dataclass(frozen=True)
class Exponential(DistributionModel):
    rate: float = 1.0

    kind = "exponential"

    def __post_init__(self):
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

    def sqrt_tail_integral_exact(self):
        return 2.0 / self.rate

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

    def _cdf_antiderivative(self, t):
        c, r = self.scale, self.exponent
        safe = np.maximum(t, c)
        if r == 1.0:
            tail_part = c * np.log(safe / c)
        else:
            tail_part = c**r * (safe ** (1.0 - r) - c ** (1.0 - r)) / (1.0 - r)
        return np.where(t < c, 0.0, (safe - c) - tail_part)

    def _upper_mean_excess(self, t):
        c, r = self.scale, self.exponent
        if r <= 1.0:
            raise ValidationError(f"mean excess diverges: tail exponent {r} <= 1")
        beyond = c**r * np.maximum(t, c) ** (1.0 - r) / (r - 1.0)
        return beyond + np.maximum(c - t, 0.0)

    @np.errstate(divide="ignore", over="ignore")
    def _quantile_density(self, u):
        c, r = self.scale, self.exponent
        return (c / r) * (1.0 - u) ** (-1.0 - 1.0 / r)

    def support(self):
        return (self.scale, math.inf)

    def tail_exponent(self):
        return self.exponent

    def sqrt_tail_integral_exact(self):
        if self.exponent <= 2.0:
            return math.inf
        return self.scale * self.exponent / (self.exponent - 2.0)

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
        self._build_antiderivative(gaps)
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
        v = np.sort(np.asarray(values, dtype=float).ravel())
        if len(v) == 0 or not np.all(np.isfinite(v)):
            raise ValidationError("sample must be nonempty and finite")
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

    def _cdf(self, t, side="right"):
        """F(t) for side "right", the left limit F(t-) for side "left"."""
        g, v = self.grid, self.cdf_values
        if self.interp == "step":
            return np.concatenate([[0.0], v])[np.searchsorted(g, t, side=side)]
        below = t < g[0] if side == "right" else t <= g[0]
        return np.where(below, 0.0, np.interp(t, g, v))

    def _quantile(self, u):
        g, v = self.grid, self.cdf_values
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
        return Tabulated(t, f_abs, interp=self.interp)

    def _tail_quantile(self, u):
        if self.grid[0] < 0.0:
            return self._abs._tail_quantile(u)
        return np.where(u >= 1.0, 0.0, self._quantile(1.0 - u))

    def _cdf_antiderivative(self, t):
        """Integral of F over (-inf, t], knot interval by knot interval.

        A 1-D sorted t longer than twice the grid finds its intervals by one
        merge of the grid into t; any other t by ``searchsorted(grid, t)``.
        Both give the same indices, so the same floats.
        """
        g, v = self.grid, self.cdf_values
        size = t.size
        if t.ndim == 1 and size > 2 * len(g) and np.all(t[1:] >= t[:-1]):
            # idx[j] counts the interior knots g[1:-1] at or below t[j]
            first_at = np.searchsorted(t, g[1:-1], side="left")
            idx = np.cumsum(np.bincount(first_at, minlength=size + 1)[:size])
        else:
            idx = np.clip(np.searchsorted(g, t, side="right") - 1, 0, len(g) - 2)
        # in place (a 0-d t stays numpy scalars): the same operations as
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

    def sqrt_tail_integral_exact(self):
        if self.grid[0] < 0.0:
            return self._abs.sqrt_tail_integral_exact()
        # the tail is 1 below grid[0]; on a knot interval it is 1 - v[i] for a
        # step table, and for a linear one it runs linearly from a = 1 - v[i]
        # to b = 1 - v[i + 1], where the integral of its root is
        # gap * (2/3) (a + sqrt(ab) + b) / (sqrt(a) + sqrt(b))
        gaps = np.diff(self.grid)
        a = np.maximum(1.0 - self.cdf_values, 0.0)
        root = np.sqrt(a)
        if self.interp == "step":
            pieces = gaps * root[:-1]
        else:
            den = root[:-1] + root[1:]
            num = (2.0 / 3.0) * gaps * (a[:-1] + root[:-1] * root[1:] + a[1:])
            pieces = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
        return float(self.grid[0] + np.sum(pieces))

    def quantile_tail_integral_exact(self, alpha):
        if self.grid[0] < 0.0:
            return self._abs.quantile_tail_integral_exact(alpha)
        # the tail quantile is piecewise linear in u (breakpoints 1 - v[i]),
        # so each segment integrates to (A + B u)/sqrt(u) in closed form
        g, v = self.grid, self.cdf_values
        u_lo = 1.0 - v[1:]
        u_hi = 1.0 - v[:-1]
        if self.interp == "step":
            a_coef = g[1:].copy()
            b_coef = np.zeros(len(g) - 1)
        else:
            dv = np.diff(v)
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = np.where(dv > 0, np.diff(g) / np.where(dv > 0, dv, 1.0), 0.0)
            a_coef = g[:-1] + (1.0 - v[:-1]) * slope
            b_coef = -slope
        # top piece: u in [1 - v[0], 1] has constant quantile g[0]
        u_lo = np.concatenate([u_lo, [1.0 - v[0]]])
        u_hi = np.concatenate([u_hi, [1.0]])
        a_coef = np.concatenate([a_coef, [g[0]]])
        b_coef = np.concatenate([b_coef, [0.0]])
        lo = np.clip(u_lo, 0.0, alpha)
        hi = np.clip(u_hi, 0.0, alpha)
        keep = hi > lo
        lo, hi = lo[keep], hi[keep]
        root_lo, root_hi = np.sqrt(lo), np.sqrt(hi)
        pieces = 2.0 * a_coef[keep] * (root_hi - root_lo)
        pieces += (2.0 / 3.0) * b_coef[keep] * (root_hi**3 - root_lo**3)
        return float(np.sum(pieces))


def power_pushforward(exponent: float, base="lebesgue") -> DistributionModel:
    """Law of Y = X**(-exponent) for X ~ base measure on (0, 1).

    The Lebesgue base gives exactly ``ParetoTail(1, 1/exponent)``.  A linearly
    interpolated ``Tabulated`` base CDF G is transformed knot for knot
    (F_Y(x**-a) = 1 - G(x)) into a linear ``Tabulated``; mass below the first
    base knot becomes the tail cutoff of the transformed table.  A step base
    is rejected: its jumps do not map onto linear interpolation between knots.
    """
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
