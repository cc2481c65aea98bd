"""Exact 1-D Wasserstein-1 distances and the associated tail integrals.

In one dimension ``d1(P, Q) = int |F_P - F_Q| dt``, which is computable
exactly for step CDFs (finite sums over merged breakpoints) and for
sample-vs-model comparisons (signed antiderivative differences split at the
single crossing point inside each order-statistic interval).  The same
distance equals the supremum of mean differences over 1-Lipschitz test
functions; that dual form is recorded here as an identity only and never
computed.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DivergenceError, NumericalError, ValidationError
from .models import DistributionModel

__all__ = [
    "ExtendedReal",
    "as_sorted_sample",
    "w1_two_samples",
    "w1_sample_vs_model",
    "level_terms",
    "lambda21",
    "quantile_tail_integral",
    "sqrt_tail_integral",
]


@dataclass(frozen=True)
class ExtendedReal:
    """A nonnegative value that may be +inf, with a divergence diagnostic."""

    value: float
    diagnostic: str | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValidationError("ExtendedReal carries nonnegative quantities")
        if math.isinf(self.value) and self.diagnostic is None:
            raise ValidationError("infinite ExtendedReal requires a diagnostic")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    def __float__(self) -> float:
        return self.value


def as_sorted_sample(values) -> np.ndarray:
    """Validate a finite nonempty 1-D sample and return its order statistics."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValidationError("sample must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("sample contains non-finite values")
    return np.sort(arr)


def quad(fn, a, b, *, epsrel=1e-9):
    """scipy.integrate.quad (epsabs 1e-13, 200 subintervals) with an accuracy
    check instead of warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        res = integrate.quad(fn, a, b, epsabs=1e-13, epsrel=epsrel, limit=200, full_output=1)
    val, abserr = res[0], res[1]
    if abserr > 1e-6 * max(1.0, abs(val)):
        raise NumericalError(
            f"quadrature on [{a}, {b}] did not converge (value {val}, abserr {abserr})"
        )
    return val


def w1_two_samples(x, y) -> float:
    """Exact W1 between two empirical distributions.

    Computed as the integral of |F_x - F_y| over the merged breakpoints of the
    two step CDFs.  For equal sample sizes this coincides with the mean
    absolute difference of paired order statistics.
    """
    xs = as_sorted_sample(x)
    ys = as_sorted_sample(y)
    merged = np.sort(np.concatenate([xs, ys]))
    deltas = np.diff(merged)
    fx = np.searchsorted(xs, merged[:-1], side="right") / xs.size
    fy = np.searchsorted(ys, merged[:-1], side="right") / ys.size
    return float(np.sum(np.abs(fx - fy) * deltas))


def level_terms(model: DistributionModel, n: int):
    """The per-n terms of ``w1_sample_vs_model``: levels i/n, Q(i/n) and their antiderivatives.

    They depend on n and the model only, so a caller computing many
    replicates of one n computes them once and passes them as ``terms``.
    The arrays are read-only, so threads can share them.
    """
    levels = np.arange(1, n) / n
    q = np.array(model.quantile(levels), dtype=float)
    terms = (levels, q, np.array(model.cdf_antiderivative(q), dtype=float))
    for t in terms:
        t.flags.writeable = False
    return terms


def w1_sample_vs_model(sample, model: DistributionModel, tail_tol: float = 1e-12,
                       terms=None) -> float:
    """Exact ``int |F_n - F| dt`` for a sample against a reference model.

    Between consecutive order statistics F_n is the constant i/n, and |i/n - F|
    changes sign at most once; each piece is an exact difference of CDF
    antiderivatives split at quantile(i/n) clamped to the interval.  Tail
    pieces use the model's closed-form mean-excess integrals, exact for all
    built-in kinds.  ``tail_tol`` is the additive error allowed to a
    quadrature-backed model; no built-in model is one, so none reads it and
    it is only checked to be positive.  ``terms`` is ``level_terms(model, n)``
    for the sample size n; it is computed here when not given.

    Raises
    ------
    DivergenceError
        If the model has an infinite first moment (the integral is +inf).
    """
    if not (tail_tol > 0):
        raise ValidationError("tail_tol must be positive")
    if not model.has_finite_mean:
        r = model.tail_exponent()
        raise DivergenceError(
            "W1 against a model with infinite mean diverges",
            diagnostic=f"tail exponent r={r} <= 1: integral of 1-F diverges like t^{1 - r}",
        )
    s = as_sorted_sample(sample)
    n = s.size
    if terms is None:
        terms = level_terms(model, n)
    levels, q, a_q = terms
    if not len(levels) == len(q) == len(a_q) == n - 1:
        raise ValidationError(f"level terms must have length n - 1 = {n - 1}")
    a_s = model.cdf_antiderivative(s)
    total = float(a_s[0])  # int_{-inf}^{s_(1)} F dt
    lo, hi = s[:-1], s[1:]
    t_star = np.clip(q, lo, hi)
    # the antiderivative at t_star, taken from the values already known at q and s
    a_t = np.where(q < lo, a_s[:-1], np.where(q > hi, a_s[1:], a_q))
    below = levels * (t_star - lo) - (a_t - a_s[:-1])
    above = (a_s[1:] - a_t) - levels * (hi - t_star)
    total += float(np.sum(np.maximum(below, 0.0) + np.maximum(above, 0.0)))
    total += model.upper_mean_excess(s[-1])
    return total


def _divergence_diag(r: float, power: float, context: str) -> str:
    return f"{context} integrand decays like t^{-r * power:g} with tail exponent r={r:g}"


def sqrt_tail_integral(model: DistributionModel, lower: float = 0.0) -> ExtendedReal:
    """``int_lower^inf sqrt(P(|Y|>t)) dt`` by direct quadrature in t.

    Kept independent of the quantile-substitution route so the two forms can
    be checked against each other.
    """
    r = model.tail_exponent()
    if r <= 2.0:
        return ExtendedReal(math.inf, _divergence_diag(r, 0.5, "sqrt-tail"))
    lo, hi = model.support()
    upper = max(abs(lo), abs(hi))
    fn = lambda t: math.sqrt(model.tail(t))
    if math.isfinite(upper):
        if lower >= upper:
            return ExtendedReal(0.0)
        return ExtendedReal(quad(fn, lower, upper))
    return ExtendedReal(quad(fn, lower, math.inf))


def lambda21(model: DistributionModel) -> ExtendedReal:
    """The square-root tail integral ``int_0^inf sqrt(P(|Y|>t)) dt``.

    Finite exactly when the tail exponent exceeds 2; the finiteness of this
    functional is what separates samples whose W1 statistic admits a Gaussian
    limit from those that do not.
    """
    r = model.tail_exponent()
    if r <= 2.0:
        return ExtendedReal(math.inf, _divergence_diag(r, 0.5, "sqrt-tail"))
    return ExtendedReal(float(model.sqrt_tail_integral_exact()))


def quantile_tail_integral(model: DistributionModel, alpha: float) -> ExtendedReal:
    """``int_0^alpha Q(u)/sqrt(u) du`` for the tail-quantile Q of |Y|.

    Every built-in model gives it in closed form
    (``quantile_tail_integral_exact``); a tail exponent r <= 2 makes it
    infinite.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValidationError("alpha must lie in (0, 1]")
    r = model.tail_exponent()
    if r <= 2.0:
        return ExtendedReal(
            math.inf,
            f"Q(u)/sqrt(u) ~ u^{-(0.5 + 1.0 / r):g} near 0 with tail exponent r={r:g}",
        )
    return ExtendedReal(float(model.quantile_tail_integral_exact(alpha)))
