"""Numerical evaluation of the summability conditions governing the CLT.

Verdicts are constant-independent: each series is classified by comparing its
symbolically derived decay exponent with the critical value -1, with a 1e-9
band mapped to "undetermined".  Reported magnitudes combine a numeric partial
sum with an integral-test tail bound (terms are nonincreasing by
construction, which is the monotonicity certificate the integral test needs).
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


def _verdict_from_exponent(exponent: float) -> str:
    if exponent < -1.0 - _CRITICAL_BAND:
        return "converges"
    if exponent > -1.0 + _CRITICAL_BAND:
        return "diverges"
    return "undetermined"


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
    exponent = -0.5 - theta * e_q if math.isfinite(theta) else -math.inf
    verdict = _verdict_from_exponent(exponent)

    def term(k):
        return float(quantile_tail_integral(model, max(float(bound(k)), 1e-300))) / math.sqrt(k)

    partial = float(np.sum([term(k) for k in np.arange(1, terms + 1)]))
    tail = quad(term, float(terms), math.inf, epsrel=1e-6) if verdict == "converges" else None
    notes = (
        f"term exponent -1/2 - theta*e_q = {exponent:.6g} with theta={theta:g}, "
        f"e_q={e_q:g}; integral-test tail bound valid (terms nonincreasing); "
        f"magnitudes use default constants (=1), verdict is constant-independent"
    )
    return ConditionReport(verdict, partial, int(terms), tail, notes)


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
    t_alpha = float(model.tail_quantile(alpha))
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
    if abs(margin) <= _CRITICAL_BAND:
        verdict = "undetermined"
    elif margin > 0:
        verdict = "converges"
    else:
        verdict = "diverges"
    notes = (
        f"threshold margin (1/2 - gamma - a) = {margin:.6g}; strict inequality "
        f"required, |margin| <= {_CRITICAL_BAND:g} reported as undetermined"
    )
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
    ``tail_314`` sums |a_k|^{1-2/r}.  Moment/tail modes need r > 2.
    """
    if mode not in _LINEAR_MODES:
        raise ValidationError(f"mode must be one of {_LINEAR_MODES}")
    if mode in ("moment_313", "tail_314"):
        if r is None or not (r > 2.0):
            raise ValidationError("moment/tail modes require r > 2")
    if mode == "exact_311" and marginal is None:
        raise ValidationError("exact_311 requires a marginal model (supplied or calibrated)")

    beta = family.decay_exponent()  # inf for geometric
    ks = np.arange(0, terms, dtype=float)
    a_k = np.abs(np.asarray(family.coeff(ks), dtype=float))

    if mode in ("exact_311", "rio_312"):
        m = marginal if mode == "exact_311" else innovation
        e_q = _qti_alpha_exponent(m)
        if e_q is None:
            return ConditionReport(
                "diverges", math.inf, 0, None,
                f"quantile tail integral of the {'marginal' if mode == 'exact_311' else 'innovation'} "
                f"diverges (tail exponent <= 2)",
            )
        exponent = -2.0 * beta * e_q if math.isfinite(beta) else -math.inf

        def term(k, a):
            return float(quantile_tail_integral(m, min(max(a * a, 1e-300), 1.0)))

        vals = np.array([term(k, a) for k, a in zip(ks, a_k)])
    elif mode == "moment_313":
        exponent = (1.0 - beta * (r - 2.0)) / (r - 1.0) if math.isfinite(beta) else -math.inf

        def term(k, a):
            return k ** (1.0 / (r - 1.0)) * a ** ((r - 2.0) / (r - 1.0))

        vals = term(ks, a_k)
    else:  # tail_314
        exponent = -beta * (1.0 - 2.0 / r) if math.isfinite(beta) else -math.inf

        def term(k, a):
            return a ** (1.0 - 2.0 / r)

        vals = term(ks, a_k)

    verdict = _verdict_from_exponent(exponent)
    partial = float(np.sum(vals))
    tail = None
    if verdict == "converges":
        tail = quad(lambda x: term(x, abs(float(family.coeff(x)))), float(terms), math.inf,
                    epsrel=1e-6)

    k_density = innovation.density_bound
    notes = (
        f"mode {mode}: term exponent {exponent:.6g} vs critical -1; "
        f"|a_0| = {abs(float(family.coeff(0))):g} (nonzero required); "
        f"innovation density bound K = "
        f"{'unknown' if k_density is None else format(k_density, 'g')} "
        f"(hypothesis of the Gaussian limit, recorded not enforced)"
    )
    return ConditionReport(verdict, partial, int(terms), tail, notes)


# ---------------------------------------------------------------------------
# lag cutoff for covariance truncation
# ---------------------------------------------------------------------------

def lag_cutoff(bound, tol: float = 1e-3, max_lag: int = 10**7) -> int:
    """Smallest K with sum_{k>K} bound(k) < tol (closed-form family tails)."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if isinstance(bound, PhiGeometric):
        def tail(k):
            return bound.c1 * bound.rho ** (k + 1) / (1.0 - bound.rho)
    elif isinstance(bound, AlphaPolynomial):
        if bound.theta <= 1.0:
            raise ValidationError(
                f"bound with decay exponent {bound.theta:g} <= 1 is not summable"
            )

        def tail(k):
            return bound.c_gamma * float(zeta(bound.theta, k + 2))
    else:
        raise ValidationError("lag_cutoff needs a summable decay bound")
    k = first_index_below(tail, tol, max_lag)
    if k is None:
        raise ValidationError("lag cutoff exceeds max_lag; decay too slow")
    return k
