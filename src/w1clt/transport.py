"""Exact 1-D Wasserstein-1 distances and the associated tail integrals.

In one dimension ``d1(P, Q) = int |F_P - F_Q| dt``, which is computable
exactly for step CDFs (finite sums over merged breakpoints) and for
sample-vs-model comparisons (signed antiderivative differences on each
order-statistic interval, split at Q(i/n) only where it lies inside).
``w1_sample_vs_model`` scores every sample as a stack of rows (a 1-D sample
is a one-row stack): it computes the level terms i/n, Q(i/n) and A(Q(i/n))
once per call and scores the rows in blocks of 2**15 to 2**16 values, one
sort and one call per model function a block, with one W1 per row.  It also
takes the blocks as an iterator and scores each as it arrives, which is how
the harness scores rows generated block by block.  Along a
row i/n - F changes sign only O(sqrt(n)) times, as sqrt(n) (F_n - F) is close
to a Gaussian process, so a whole run of intervals of one sign takes one
difference of A between its ends, and only the few intervals holding Q(i/n)
are split there: A is evaluated at run ends, not at every order statistic.
The same distance equals the supremum of mean differences over 1-Lipschitz
test functions; that dual form is recorded here as an identity only and
never computed.

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
from collections.abc import Iterator
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
    "w1_block_rows",
    "lambda21",
    "quantile_tail_integral",
    "sqrt_tail_integral",
]

# values per block of rows that a stacked W1 call scores at once, rounded up to
# whole rows (so a block holds 2**15 to 2**16 values, or one longer row); on a
# 2-vCPU x86-64 machine 2**15 took 12-20% less time than 2**14 and 12-32% less
# than 2**16 at n = 512 to 10**4, against Pareto, Uniform and 2,050-knot
# Tabulated references
_W1_BLOCK_VALUES = 2**15


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


def w1_block_rows(n: int) -> int:
    """Rows of n values in one W1 block: ceil(_W1_BLOCK_VALUES / n)."""
    return -(-_W1_BLOCK_VALUES // n)


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
    equals that row of the stacked result bit for bit.  The rows are scored
    in blocks of ``w1_block_rows(n)`` rows, 2**15 to 2**16 values unless one
    row is longer: one row-wise sort, one antiderivative call at the ends of
    the runs where i/n - F keeps one sign (see ``_w1_sorted``) and one
    upper-tail call per block.  ``sample`` may also be an iterator of such
    blocks, 2-D stacks of one row length: each is scored as it arrives, so a
    caller that generates rows block by block never holds them all, and the
    result equals the call on the stacked blocks bit for bit.  Either way the
    levels i/n, Q(i/n) and A(Q(i/n)) are computed once per call and shared by
    every row.

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
    if isinstance(sample, Iterator):
        blocks, stacked = sample, True
    else:
        x = np.asarray(sample, dtype=float)
        if x.ndim > 2:
            raise ValidationError("sample must be 1-D, or 2-D for a stack of samples; "
                                  f"got {x.ndim} dimensions")
        if x.size == 0:
            raise ValidationError("sample must be nonempty")
        stack = x if x.ndim == 2 else x.reshape(1, -1)
        step = w1_block_rows(stack.shape[1])
        blocks, stacked = (stack[i:i + step] for i in range(0, len(stack), step)), x.ndim == 2
    scores, n = [], None
    for block in blocks:
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != (n or block.shape[1]):
            raise ValidationError("blocks must be 2-D stacks of rows of one length; "
                                  f"got a block of shape {block.shape}")
        s = as_sorted_sample(block, rows=True)
        if n is None:
            n = s.shape[1]
            levels = np.arange(1, n) / n
            q = model.quantile(levels)
            terms = (levels, q, model.cdf_antiderivative(q))
        scores.append(_w1_sorted(s, model, terms))
    if not scores:
        raise ValidationError("sample must be nonempty")
    out = np.concatenate(scores)
    return out if stacked else float(out[0])


def _w1_sorted(s, model: DistributionModel, terms):
    """W1 of each row of a 2-D block ``s`` of sorted samples, scored by runs.

    On the interval [s_j, s_j+1] at level L = (j + 1)/n, with q = Q(L) outside
    it, F - L keeps one sign: + where q < s_j, - where q > s_j+1.  A maximal
    run of such intervals of one sign sigma, from point a to point b, adds
    ``max(sigma ((A(s_b) - A(s_a)) - sum_j L (s_j+1 - s_j)), 0)``: the interval
    pieces telescope, so A is evaluated only at run ends.  An interval holding
    q is a segment of its own, split at q as ``A(q)`` is known.  A row's
    segments tile its n - 1 intervals, and their ends, the row's first and
    last point among them, are the only points A is evaluated at: at most
    #sign changes + 2 #crossings + 2 of them.  Each segment sum is taken over
    the segment alone, and the segments are added up row by row in order, so
    a row's bits do not depend on its block.

    Rounding, with the A values taken as given: with u = 2**-53 and
    g_k = k u / (1 - k u), a segment of m intervals errs by at most
    g_(m+2) (|A(s_a)| + |A(s_b)| + S), S its level sum sum L (s_j+1 - s_j) of
    nonnegative terms; a crossing's two halves err by g_3 each, and add
    2 |A(q)| to that sum.  The k segments, A(s_0) and the upper tail U(s_n-1)
    are added with k + 2 roundings more, so with m, k < n a row errs by at most
    g_(2n+4) times |A(s_0)| + |U(s_n-1)| + the sum over segments of
    |A(s_a)| + |A(s_b)| + S + the sum over crossings of 2 |A(q)|.  (numpy sums
    each segment pairwise, so the error is far below this in practice.)
    Clamping at 0 only moves a segment toward its exact value, which is
    nonnegative.  Summing signed pieces over a whole row, not run by run,
    would cancel far larger partial sums.
    """
    levels, q, a_q = terms
    rows, n = s.shape
    lo, hi = s[:, :-1], s[:, 1:]
    over, under = q > hi, q < lo
    # a point ends a segment unless the intervals on its two sides are one run
    ends = np.ones((rows, n), dtype=bool)
    np.logical_not((over[:, :-1] & over[:, 1:]) | (under[:, :-1] & under[:, 1:]),
                   out=ends[:, 1:-1])
    at = np.flatnonzero(ends)
    flat = s.ravel()
    a = model.cdf_antiderivative(flat[at])
    col = at % n
    # segment k runs from end b[k] (point at[b[k]], in row r[k]) to end b[k] + 1;
    # its first interval has flat index j[k] = at[b[k]] - r[k] and level index col[b[k]]
    b = np.flatnonzero(col != n - 1)
    r = at[b] // n
    j = at[b] - r
    width = hi - lo
    width *= levels
    seg = (a[b + 1] - a[b]) - np.add.reduceat(width.ravel(), j)
    sign = over.ravel()[j]
    np.negative(seg, out=seg, where=sign)
    # the few intervals holding q split there
    k = np.flatnonzero(~(sign | under.ravel()[j]))
    bk, ck = b[k], col[b[k]]
    qc, ac, lv = q[ck], a_q[ck], levels[ck]
    below = lv * (qc - flat[at[bk]]) - (ac - a[bk])
    above = (a[bk + 1] - ac) - lv * (flat[at[bk] + 1] - qc)
    seg[k] = np.maximum(below, 0.0) + np.maximum(above, 0.0)
    np.maximum(seg, 0.0, out=seg)
    # int_{-inf}^{s_(1)} F dt, the segments row by row, then the upper tail
    inner = np.bincount(r, weights=seg, minlength=rows)
    return (a[col == 0] + inner) + model.upper_mean_excess(s[:, -1])


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
