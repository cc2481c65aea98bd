"""Exact 1-D Wasserstein-1 distances and the associated tail integrals.

In one dimension ``d1(P, Q) = int |F_P - F_Q| dt``, which is computable
exactly for step CDFs (finite sums over merged breakpoints) and for
sample-vs-model comparisons (signed antiderivative differences on each
order-statistic interval, split at Q(i/n) only where it lies inside).
``w1_sample_vs_model`` scores every sample as a stack of rows (a 1-D sample
is a one-row stack): it computes the level terms i/n, Q(i/n) and A(Q(i/n))
once per call and scores the rows in blocks of 2**14 to 2**15 values, one
vector call per model function and block, with one W1 per row.  An interval
with Q(i/n) outside it takes one signed difference; only the few holding
Q(i/n) are split there.  The same distance equals the
supremum of mean differences over 1-Lipschitz test functions; that dual
form is recorded here as an identity only and never computed.

Of the tail integrals, ``lambda21`` is half ``quantile_tail_integral`` at
alpha = 1 (a Fubini identity); the quadrature in t of ``sqrt_tail_integral``
is kept only as its independent cross-check.

``as_sorted_sample`` (defined in ``errors``, below ``models``) is the only
sample intake: every distance here, ``processes.tabulate_cdf`` and
``Tabulated.from_sample`` sort through it, so NaN, inf or empty input fails
alike.

Only ``quad`` loads scipy, on its first call; its callers are
``sqrt_tail_integral`` here, the condition checkers' integral-test tails and
``limitlaw.grid_tail_report``.  The exact distances run on numpy alone.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NumericalError, ValidationError, as_sorted_sample, real
from .models import DistributionModel

__all__ = [
    "ExtendedReal",
    "as_sorted_sample",
    "ks_two_sample",
    "w1_two_samples",
    "w1_sample_vs_model",
    "lambda21",
    "quantile_tail_integral",
    "sqrt_tail_integral",
]

# values per block of rows that a stacked W1 call scores at once, rounded up to
# whole rows (so a block holds 2**14 to 2**15 values, or one longer row); on a
# 2-vCPU x86-64 machine 2**13 to 2**15 were within a few percent of each other
# at n = 128 to 8192, and 2**12 or 2**16 slower
_W1_BLOCK_VALUES = 2**14


@dataclass(frozen=True)
class ExtendedReal:
    """A nonnegative value that may be +inf, with a divergence diagnostic."""

    value: float
    diagnostic: str | None = None

    def __post_init__(self):
        if not (self.value >= 0):
            raise ValidationError("ExtendedReal carries nonnegative quantities")
        if math.isinf(self.value) and self.diagnostic is None:
            raise ValidationError("infinite ExtendedReal requires a diagnostic")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    def __float__(self) -> float:
        return self.value


def quad(fn, a, b):
    """scipy.integrate.quad (epsabs 1e-13, epsrel 1e-9, 200 subintervals) with an accuracy
    check instead of warnings; scipy.integrate is imported on the first call."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        res = integrate.quad(fn, a, b, epsabs=1e-13, epsrel=1e-9, limit=200, full_output=1)
    val, abserr = res[0], res[1]
    if not (math.isfinite(val) and abserr <= 1e-6 * max(1.0, abs(val))):
        raise NumericalError(
            f"quadrature on [{a}, {b}] did not converge (value {val}, abserr {abserr})"
        )
    return val


def _ecdf_gaps(x, y):
    """The sorted merged points of two samples and |F_x - F_y| at each of them."""
    xs = as_sorted_sample(x)
    ys = as_sorted_sample(y)
    merged = np.sort(np.concatenate([xs, ys]))
    fx = np.searchsorted(xs, merged, side="right") / xs.size
    fy = np.searchsorted(ys, merged, side="right") / ys.size
    return merged, np.abs(fx - fy)


def ks_two_sample(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup CDF gap)."""
    return float(np.max(_ecdf_gaps(x, y)[1]))


def w1_two_samples(x, y) -> float:
    """Exact W1 between two empirical distributions.

    Computed as the integral of |F_x - F_y| over the merged breakpoints of the
    two step CDFs.  For equal sample sizes this coincides with the mean
    absolute difference of paired order statistics.
    """
    merged, gaps = _ecdf_gaps(x, y)
    return float(np.sum(gaps[:-1] * np.diff(merged)))


def w1_sample_vs_model(sample, model: DistributionModel,
                       tail_tol: float = 1e-12) -> float | np.ndarray:
    """Exact ``int |F_n - F| dt`` for a sample against a reference model.

    Between consecutive order statistics F_n is the constant i/n, and |i/n - F|
    changes sign at most once, at quantile(i/n); each piece is an exact
    difference of CDF antiderivatives, split there when quantile(i/n) lies in
    the interval and otherwise of one sign, fixed by which side it lies on.  Tail
    pieces use the model's closed-form mean-excess integrals, exact for all
    built-in kinds.  ``tail_tol`` is the additive error allowed to a
    quadrature-backed model; no built-in model is one, so none reads it and
    it is only checked to be positive.

    A 2-D ``sample`` is a stack of samples of one size n, one per row, and
    the result is an array of one W1 per row; a 1-D (or 0-d) sample is a
    one-row stack whose W1 is returned as a float, so a 1-D call on a row
    equals that row of the stacked result bit for bit.  The levels i/n,
    Q(i/n) and A(Q(i/n)) are computed once per call and shared by every row.
    The rows are scored in blocks of ``ceil(_W1_BLOCK_VALUES / n)`` rows, 2**14
    to 2**15 values unless one row is longer: one row-wise sort, one
    antiderivative call and one upper-tail call per block.

    Raises
    ------
    DivergenceError
        If the model has an infinite first moment (the integral is +inf).
    """
    if not (real(tail_tol, "tail_tol") > 0):
        raise ValidationError("tail_tol must be positive")
    if not model.has_finite_mean:
        r = model.tail_exponent()
        raise DivergenceError(
            "W1 against a model with infinite mean diverges",
            diagnostic=f"tail exponent r={r} <= 1: integral of 1-F diverges like t^{1 - r}",
        )
    x = np.asarray(sample, dtype=float)
    if x.ndim > 2:
        raise ValidationError("sample must be 1-D, or 2-D for a stack of samples; "
                              f"got {x.ndim} dimensions")
    if x.size == 0:
        raise ValidationError("sample must be nonempty")
    stack = x if x.ndim == 2 else x.reshape(1, -1)
    n = stack.shape[1]
    levels = np.arange(1, n) / n
    q = model.quantile(levels)
    terms = (levels, q, model.cdf_antiderivative(q))
    step = -(-_W1_BLOCK_VALUES // n)
    out = np.concatenate([_w1_sorted(as_sorted_sample(stack[i:i + step], rows=True), model, terms)
                          for i in range(0, len(stack), step)])
    return out if x.ndim == 2 else float(out[0])


def _w1_sorted(s, model: DistributionModel, terms):
    """W1 of each row of a 2-D block ``s`` of sorted samples."""
    levels, q, a_q = terms
    a_s = model.cdf_antiderivative(s)
    lo, hi = s[:, :-1], s[:, 1:]
    a_lo, a_hi = a_s[:, :-1], a_s[:, 1:]
    # On an interval [lo, hi] with q = Q(i/n) outside it, i/n - F keeps one sign
    # and the piece is +-d: +d where q < lo (F above i/n), -d where q > hi.  The
    # negation is exact and + 0.0 turns -0.0 into 0.0, as the sum of the two
    # clipped halves of the crossing formula below does.
    piece = (a_hi - a_lo) - levels * (hi - lo)
    over = q > hi
    np.negative(piece, out=piece, where=over)
    np.maximum(piece, 0.0, out=piece)
    piece += 0.0
    # the few intervals holding q split there; A(q) is known.  (The row and
    # column of each come from its flat index: 2-D nonzero is ten times slower.)
    r, c = np.divmod(np.flatnonzero(~over & (q >= lo)), piece.shape[1])
    qc, ac, lv = q[c], a_q[c], levels[c]
    below = lv * (qc - lo[r, c]) - (ac - a_lo[r, c])
    above = (a_hi[r, c] - ac) - lv * (hi[r, c] - qc)
    piece[r, c] = np.maximum(below, 0.0) + np.maximum(above, 0.0)
    # int_{-inf}^{s_(1)} F dt, the n - 1 inner pieces, then the upper tail
    return (a_s[:, 0] + np.sum(piece, axis=1)) + model.upper_mean_excess(s[:, -1])


def _divergence_diag(r: float, power: float, context: str) -> str:
    return f"{context} integrand decays like t^{-r * power:g} with tail exponent r={r:g}"


def sqrt_tail_integral(model: DistributionModel, lower: float = 0.0) -> ExtendedReal:
    """``int_lower^inf sqrt(P(|Y|>t)) dt`` by direct quadrature in t.

    Kept independent of the quantile-substitution route that ``lambda21``
    takes, so the two forms can be checked against each other.  Below the
    lower end a of the support of |Y| the tail is 1, and that part is exact;
    ``quad`` runs from max(lower, a) on, in units of that point (of 1 at 0),
    so a kink at a or a tail far from the scale 1 is not missed.  A quadrature
    that fails or returns a negative value raises ``NumericalError``.
    """
    lower = real(lower, "lower")
    if not (lower > -math.inf):
        raise ValidationError(f"lower must be a number above -inf, got {lower}")
    r = model.tail_exponent()
    if r <= 2.0:
        return ExtendedReal(math.inf, _divergence_diag(r, 0.5, "sqrt-tail"))
    lo, hi = model.support()
    upper = max(abs(lo), abs(hi))
    if lower >= upper:
        return ExtendedReal(0.0)
    start = max(lower, lo, -hi, 0.0)
    unit = start if start > 0.0 else 1.0
    curved = unit * quad(lambda s: math.sqrt(model.tail(start + unit * s)), 0.0,
                         (upper - start) / unit)
    if not curved >= 0.0:
        raise NumericalError(f"sqrt-tail quadrature from {start} returned {curved}")
    return ExtendedReal(max(start - lower, 0.0) + curved)


def lambda21(model: DistributionModel) -> ExtendedReal:
    """The square-root tail integral ``int_0^inf sqrt(P(|Y|>t)) dt``.

    Finite exactly when the tail exponent exceeds 2; the finiteness of this
    functional is what separates samples whose W1 statistic admits a Gaussian
    limit from those that do not.  Q(u) > t exactly when u < P(|Y| > t), so by
    Fubini it is ``1/2 int_0^1 Q(u)/sqrt(u) du``, half the quantile tail integral
    at 1: the min-form identity of ``conditions.alpha_forms_pair`` at alpha = 1.
    """
    r = model.tail_exponent()
    if r <= 2.0:
        return ExtendedReal(math.inf, _divergence_diag(r, 0.5, "sqrt-tail"))
    return ExtendedReal(0.5 * model.quantile_tail_integral_exact(1.0))


def quantile_tail_integral(model: DistributionModel, alpha: float) -> ExtendedReal:
    """``int_0^alpha Q(u)/sqrt(u) du`` for the tail-quantile Q of |Y|.

    Every built-in model gives it in closed form
    (``quantile_tail_integral_exact``); a tail exponent r <= 2 makes it
    infinite.
    """
    alpha = real(alpha, "alpha")
    if not (0.0 < alpha <= 1.0):
        raise ValidationError("alpha must lie in (0, 1]")
    r = model.tail_exponent()
    if r <= 2.0:
        return ExtendedReal(
            math.inf,
            f"Q(u)/sqrt(u) ~ u^{-(0.5 + 1.0 / r):g} near 0 with tail exponent r={r:g}",
        )
    return ExtendedReal(float(model.quantile_tail_integral_exact(alpha)))
