"""Numerical evaluation of the summability conditions governing the CLT.

Verdicts are constant-independent: each series is classified by comparing its
symbolically derived decay exponent with the critical value -1, with a 1e-9
band mapped to "undetermined".  Reported magnitudes combine a numeric partial
sum with the integral-test tail bound int_K^inf term, started at the last
summed lag K (``terms`` for the alpha check, ``terms - 1`` for the linear
ones, which start at k = 0); it bounds sum_{k>K} term(k) when the terms do not
increase past K.  They are nonincreasing by construction except in moment_313,
whose terms rise from 0 at k = 0 before they fall, so that bound holds only
for K past the peak: below k = 1 for convergent polynomial families, at
k = 1/((r-2) log(1/rho)) for geometric ones (4.7 at rho = 0.9, r = 4).
The unknown theory constants default to 1 and never affect a verdict.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import zeta

from .errors import DivergenceError, ValidationError
from .models import DistributionModel
from .processes import CoeffFamily, first_index_below
from .transport import quad, quantile_tail_integral, sqrt_tail_integral, lambda21

__all__ = [
    "PhiGeometric",
    "AlphaPolynomial",
    "ConstantBound",
    "ConditionReport",
    "check_phi_condition",
    "check_alpha_condition",
    "alpha_forms_pair",
    "check_intermittent_threshold",
    "check_linear_conditions",
    "lag_cutoff",
]

_CRITICAL_BAND = 1e-9
_MAX_LAG = 10**7


# ---------------------------------------------------------------------------
# mixing-coefficient decay bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiGeometric:
    """phi-coefficient bound c1 * rho**k (BV-contracting maps)."""

    c1: float = 1.0
    rho: float = 0.5

    def __post_init__(self):
        if not (self.c1 > 0 and 0.0 < self.rho < 1.0):
            raise ValidationError("PhiGeometric needs c1 > 0 and rho in (0, 1)")

    def __call__(self, k):
        k_arr = np.asarray(k, dtype=float)
        return np.clip(self.c1 * self.rho**k_arr, 0.0, 1.0)

    def abs_tail(self, k: int) -> float:
        """sum_{j>k} c1 * rho**j: the tail of the unclipped bound."""
        return self.c1 * self.rho ** (k + 1) / (1.0 - self.rho)

    def decay_exponent(self) -> float:
        return math.inf


@dataclass(frozen=True)
class AlphaPolynomial:
    """alpha-coefficient bound c_gamma / (k+1)**((1-gamma)/gamma)."""

    c_gamma: float = 1.0
    gamma: float = 0.25

    def __post_init__(self):
        if not (self.c_gamma > 0 and 0.0 < self.gamma < 1.0):
            raise ValidationError("AlphaPolynomial needs c_gamma > 0 and gamma in (0, 1)")

    @property
    def theta(self) -> float:
        return (1.0 - self.gamma) / self.gamma

    def __call__(self, k):
        k_arr = np.asarray(k, dtype=float)
        return np.clip(self.c_gamma / (k_arr + 1.0) ** self.theta, 0.0, 1.0)

    def abs_tail(self, k: int) -> float:
        """sum_{j>k} c_gamma / (j+1)**theta: the tail of the unclipped bound."""
        if self.theta <= 1.0:
            return math.inf
        return self.c_gamma * float(zeta(self.theta, k + 2))

    def decay_exponent(self) -> float:
        return self.theta


@dataclass(frozen=True)
class ConstantBound:
    """A non-decaying bound (no mixing); useful as a divergent reference."""

    value: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.value <= 1.0):
            raise ValidationError("ConstantBound needs value in (0, 1]")

    def __call__(self, k):
        return np.full_like(np.asarray(k, dtype=float), self.value)

    def abs_tail(self, k: int) -> float:
        return math.inf

    def decay_exponent(self) -> float:
        return 0.0


@dataclass
class ConditionReport:
    verdict: str  # "converges" | "diverges" | "undetermined"
    partial_sum: float
    terms_used: int
    tail_bound: float | None
    notes: str

    def to_dict(self) -> dict:
        return asdict(self)


def _verdict_from_exponent(exponent: float, critical: float = -1.0) -> str:
    if exponent < critical - _CRITICAL_BAND:
        return "converges"
    if exponent > critical + _CRITICAL_BAND:
        return "diverges"
    return "undetermined"


def _series(term, ks: np.ndarray, exponent: float, notes: str) -> ConditionReport:
    """Sum of the vectorized ``term`` over the lags ks; for a convergent
    series, tail bound int_{ks[-1]}^inf term."""
    verdict = _verdict_from_exponent(exponent)
    tail = None
    if verdict == "converges":
        tail = quad(lambda x: float(term(np.array([x]))[0]), ks[-1], math.inf, epsrel=1e-6)
    return ConditionReport(verdict, float(np.sum(term(ks))), len(ks), tail, notes)


def _qti_alpha_exponent(model: DistributionModel) -> float | None:
    """e such that quantile_tail_integral(m, a) ~ a**e for small a; None if divergent."""
    r = model.tail_exponent()
    if r <= 2.0:
        return None
    if math.isinf(r):
        return 0.5
    return (r - 2.0) / (2.0 * r)


# ---------------------------------------------------------------------------
# phi-dependence condition: sum sqrt(phi(k)/k) plus finite sqrt-tail integral
# ---------------------------------------------------------------------------

def check_phi_condition(bound: PhiGeometric, model: DistributionModel,
                        terms: int | None = None) -> ConditionReport:
    """Joint check: sum_k sqrt(phi(k)/k) < inf and the sqrt-tail integral < inf.

    For a geometric phi bound the series always converges; the verdict then
    hinges on the tail-integral side.  The partial sum grows adaptively until
    the closed-form geometric tail bound is negligible (or `terms` is hit).
    """
    if not isinstance(bound, PhiGeometric):
        raise ValidationError("phi condition requires a geometric bound")
    if terms is not None and terms < 1:
        raise ValidationError(f"terms must be >= 1, got {terms}")
    sqrt_rho = math.sqrt(bound.rho)

    def tail_bound_after(k: int) -> float:
        return math.sqrt(bound.c1 / (k + 1)) * sqrt_rho ** (k + 1) / (1.0 - sqrt_rho)

    partial = 0.0
    used = 0
    cap = terms if terms is not None else 2_000_000
    block = 512
    while used < cap:
        count = min(block, cap - used)
        ks = np.arange(used + 1, used + count + 1, dtype=float)
        partial += float(np.sum(np.sqrt(np.asarray(bound(ks)) / ks)))
        used += count
        block = min(block * 2, 262_144)
        if terms is None and tail_bound_after(used) <= 1e-9 * max(partial, 1e-300):
            break
    tail = tail_bound_after(used)

    lam = lambda21(model)
    if lam.is_infinite:
        verdict = "diverges"
        notes = (
            f"series sum sqrt(phi(k)/k) converges (geometric bound), but the "
            f"sqrt-tail integral is infinite: {lam.diagnostic}"
        )
    else:
        verdict = "converges"
        notes = (
            f"geometric phi bound (c1={bound.c1:g}, rho={bound.rho:g}); "
            f"sqrt-tail integral = {float(lam):.9g}; constants default to 1 and do "
            f"not affect the verdict"
        )
    return ConditionReport(verdict, partial, used, tail, notes)


# ---------------------------------------------------------------------------
# alpha-dependence condition: sum k^{-1/2} * int_0^{alpha(k)} Q(u)/sqrt(u) du
# ---------------------------------------------------------------------------

def check_alpha_condition(bound, model: DistributionModel, terms: int = 200) -> ConditionReport:
    if terms < 10:
        raise ValidationError("need at least 10 terms")
    e_q = _qti_alpha_exponent(model)
    if e_q is None:
        r = model.tail_exponent()
        return ConditionReport(
            "diverges", math.inf, 0, None,
            f"every term is infinite: quantile tail integral diverges (tail exponent "
            f"r={r:g} <= 2)",
        )
    theta = bound.decay_exponent()
    exponent = -0.5 - theta * e_q  # -inf for a geometric bound

    def term(ks):
        return np.array([float(quantile_tail_integral(model, max(float(bound(k)), 1e-300)))
                         / math.sqrt(k) for k in ks])

    notes = (
        f"term exponent -1/2 - theta*e_q = {exponent:.6g} with theta={theta:g}, "
        f"e_q={e_q:g}; integral-test tail bound valid (terms nonincreasing); "
        f"magnitudes use default constants (=1), verdict is constant-independent"
    )
    return _series(term, np.arange(1, terms + 1, dtype=float), exponent, notes)


def alpha_forms_pair(bound, model: DistributionModel, k: int) -> tuple[float, float]:
    """Both forms of the lag-k summand; the pair must agree.

    Left: direct t-space quadrature of ``int min(sqrt(alpha_k), sqrt(tail))``.
    Right: half the quantile-substitution integral.  The two routes share no
    quadrature code.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    alpha = float(bound(k))
    r = model.tail_exponent()
    if r <= 2.0:
        raise DivergenceError(
            "both forms are infinite",
            diagnostic=f"tail exponent r={r:g} <= 2",
        )
    t_alpha = model.tail_quantile(alpha)
    left = math.sqrt(alpha) * t_alpha + float(sqrt_tail_integral(model, t_alpha))
    right = 0.5 * float(quantile_tail_integral(model, alpha))
    return left, right


# ---------------------------------------------------------------------------
# intermittent-map threshold
# ---------------------------------------------------------------------------

def check_intermittent_threshold(gamma: float, a: float) -> ConditionReport:
    """Strict comparison of the observable exponent with 1/2 - gamma."""
    if not (0.0 < gamma < 1.0):
        raise ValidationError("gamma must lie in (0, 1)")
    if not (a > 0.0):
        raise ValidationError("a must be positive")
    margin = 0.5 - gamma - a
    notes = (
        f"threshold margin (1/2 - gamma - a) = {margin:.6g}; strict inequality "
        f"required, |margin| <= {_CRITICAL_BAND:g} reported as undetermined"
    )
    verdict = _verdict_from_exponent(-margin, critical=0.0)
    return ConditionReport(verdict, margin, 0, None, notes)


# ---------------------------------------------------------------------------
# causal linear process conditions
# ---------------------------------------------------------------------------

_LINEAR_MODES = ("exact_311", "rio_312", "moment_313", "tail_314")


def check_linear_conditions(family: CoeffFamily, innovation: DistributionModel,
                            mode: str, r: float | None = None,
                            marginal: DistributionModel | None = None,
                            terms: int = 200) -> ConditionReport:
    """Summability checks for the MA-infinity coefficient conditions.

    Modes: ``exact_311`` sums the quantile-tail integrals of the marginal
    at a_k**2 (needs `marginal`); ``rio_312`` the same with the innovation
    quantile; ``moment_313`` sums k^{1/(r-1)} |a_k|^{(r-2)/(r-1)};
    ``tail_314`` sums |a_k|^{1-2/r}.  Moment/tail modes need r > 2; a mode
    given `r` or `marginal` that it does not read is rejected.
    """
    if mode not in _LINEAR_MODES:
        raise ValidationError(f"mode must be one of {_LINEAR_MODES}")
    if terms < 1:
        raise ValidationError(f"terms must be >= 1, got {terms}")
    if mode in ("moment_313", "tail_314"):
        if r is None or not (r > 2.0):
            raise ValidationError("moment/tail modes require r > 2")
    elif r is not None:
        raise ValidationError(f"{mode} does not read 'r'")
    if (marginal is None) == (mode == "exact_311"):
        raise ValidationError(f"'marginal' is required by exact_311 and read by no other "
                              f"mode, got mode {mode}")

    beta = family.decay_exponent()  # inf for geometric, so every exponent is -inf
    m = marginal if mode == "exact_311" else innovation
    if mode in ("exact_311", "rio_312"):
        e_q = _qti_alpha_exponent(m)
        if e_q is None:
            whose = "marginal" if mode == "exact_311" else "innovation"
            return ConditionReport("diverges", math.inf, 0, None, f"quantile tail integral of "
                                   f"the {whose} diverges (tail exponent <= 2)")
        exponent = -2.0 * beta * e_q
    elif mode == "moment_313":
        exponent = (1.0 - beta * (r - 2.0)) / (r - 1.0)
    else:  # tail_314
        exponent = -beta * (1.0 - 2.0 / r)

    def term(ks):
        a = np.abs(family.coeff(ks))
        if mode == "moment_313":
            return ks ** (1.0 / (r - 1.0)) * a ** ((r - 2.0) / (r - 1.0))
        if mode == "tail_314":
            return a ** (1.0 - 2.0 / r)
        return np.array([float(quantile_tail_integral(m, min(max(x * x, 1e-300), 1.0)))
                         for x in a])

    k_density = innovation.density_bound
    notes = (
        f"mode {mode}: term exponent {exponent:.6g} vs critical -1; "
        f"|a_0| = {abs(float(family.coeff(0))):g} (nonzero required); "
        f"innovation density bound K = "
        f"{'unknown' if k_density is None else format(k_density, 'g')} "
        f"(hypothesis of the Gaussian limit, recorded not enforced)"
    )
    return _series(term, np.arange(0, terms, dtype=float), exponent, notes)


# ---------------------------------------------------------------------------
# lag cutoff for covariance truncation
# ---------------------------------------------------------------------------

def lag_cutoff(bound, tol: float = 1e-3) -> int:
    """Smallest K <= 10**7 with sum_{k>K} bound(k) < tol, read from ``bound.abs_tail``."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    k = first_index_below(bound.abs_tail, tol, _MAX_LAG)
    if k is None:
        raise ValidationError(f"lag cutoff exceeds max_lag = {_MAX_LAG}; decay too slow")
    return k
