"""Numerical evaluation of the summability conditions governing the CLT.

Verdicts are constant-independent: each series is classified by comparing its
symbolically derived decay exponent with the critical value -1, with a 1e-9
band mapped to "undetermined".  Every check sums _LAGS = 200 lags (k = 1..200
for phi and alpha, 0..199 for the linear modes), so ``terms_used`` is 200, and
a convergent report's ``tail_bound`` bounds the rest from above, up to
quadrature error, by one rule per mode from the last summed lag K on.  Phi
and the power modes tail_314 and moment_313 have closed forms: erfc for phi;
a Hurwitz zeta majorant for polynomial coefficients; for geometric ones an
upper incomplete gamma function, plus the largest term when moment_313's
rising terms peak past K.  The power modes take |a_k|**q from log |a_k| where
|a_k| lies below the normal float range, since for q near 0 the power need
not be small there.  Alpha, rio_312 and exact_311, whose terms do not
increase, take int_K^inf term on the level axis u = alpha(x) or |a_x|: the
finite interval (0, u(K)]; their terms and that axis go by log u, from
log alpha(k) or log |a_k| where alpha(k) or a_k**2 is below the normal range.
The unknown theory constants default to 1 and never affect a verdict.  The
bounds' and families' logs, tails and lags come from the decay laws of ``processes``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, JsonRecord, ValidationError, count, real
from .models import DistributionModel
from .processes import CoeffFamily, GeometricLaw, PolynomialLaw, first_index_below
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
_LAGS = 200  # lags summed by every series check
_FLOOR = np.finfo(float).tiny  # the smallest level a quantile tail integral is taken at


# ---------------------------------------------------------------------------
# mixing-coefficient decay bounds
# ---------------------------------------------------------------------------

# The bounds are min(law, 1), with their laws from ``processes``.  A bound's
# log_coeff is its unclipped law's log: the checkers read it only below level 1.

@dataclass(frozen=True)
class PhiGeometric(GeometricLaw):
    """phi-coefficient bound c1 * rho**k (BV-contracting maps)."""

    c1: float = 1.0
    rho: float = 0.5

    scale = property(lambda self: self.c1)

    def __post_init__(self):
        for name in ("c1", "rho"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not (0.0 < self.c1 < math.inf and 0.0 < self.rho < 1.0):
            raise ValidationError("PhiGeometric needs finite c1 > 0 and rho in (0, 1)")

    def __call__(self, k):
        k_arr = np.asarray(k, dtype=float)
        return np.clip(self.c1 * self.rho**k_arr, 0.0, 1.0)


@dataclass(frozen=True)
class AlphaPolynomial(PolynomialLaw):
    """alpha-coefficient bound c_gamma / (k+1)**((1-gamma)/gamma)."""

    c_gamma: float = 1.0
    gamma: float = 0.25

    scale = property(lambda self: self.c_gamma)
    theta = property(lambda self: (1.0 - self.gamma) / self.gamma)

    def __post_init__(self):
        for name in ("c_gamma", "gamma"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if not (0.0 < self.c_gamma < math.inf and 0.0 < self.gamma < 1.0):
            raise ValidationError("AlphaPolynomial needs finite c_gamma > 0 and gamma in (0, 1)")

    def __call__(self, k):
        k_arr = np.asarray(k, dtype=float)
        with np.errstate(over="ignore"):  # (k+1)**theta = inf is the bound's underflow to 0
            return np.clip(self.c_gamma / (k_arr + 1.0) ** self.theta, 0.0, 1.0)


@dataclass(frozen=True)
class ConstantBound(PolynomialLaw):
    """A non-decaying bound (no mixing), the polynomial law at theta = 0; useful as a
    divergent reference."""

    value: float = 1.0

    scale = property(lambda self: self.value)
    theta = 0.0

    def __post_init__(self):
        object.__setattr__(self, "value", real(self.value, "value"))
        if not (0.0 < self.value <= 1.0):
            raise ValidationError("ConstantBound needs value in (0, 1]")

    def __call__(self, k):
        return np.full_like(np.asarray(k, dtype=float), self.value)


@dataclass
class ConditionReport(JsonRecord):
    verdict: str  # "converges" | "diverges" | "undetermined"
    partial_sum: float  # +inf, written as null, for a divergent series
    terms_used: int
    tail_bound: float | None
    notes: str


def _verdict_from_exponent(exponent: float, critical: float = -1.0) -> str:
    if exponent < critical - _CRITICAL_BAND:
        return "converges"
    if exponent > critical + _CRITICAL_BAND:
        return "diverges"
    return "undetermined"


def _series(term, ks: np.ndarray, exponent: float, notes: str, remainder) -> ConditionReport:
    """Sum of the vectorized ``term`` over the lags ks; for a convergent
    series, ``remainder()`` bounds the sum past ks[-1]."""
    verdict = _verdict_from_exponent(exponent)
    tail = remainder() if verdict == "converges" else None
    return ConditionReport(verdict, float(np.sum(term(ks))), len(ks), tail, notes)


def _level_tail(fn, decay, log_top: float, gamma: float) -> float:
    """int_K^inf fn(log u(x), x) dx on the level axis (0, u(K)], given log u(K).
    That integrand falls like u**(gamma - 1) as u -> 0, so it is taken in
    v = u**gamma, where it is flat up to slowly varying factors, with u and the
    lag from log u = log(v) / gamma; it is extended as a constant past the lag
    1e300, where a polynomial decay's lag would overflow."""
    lowest = float(decay.log_coeff(1e300))

    def integrand(v):
        log_u = math.log(v) / gamma
        if log_u < lowest:
            log_u, v = lowest, math.exp(gamma * lowest)
        x, dx = decay.level_lag(log_u)
        return -fn(log_u, x) * dx / (gamma * v)

    top = math.exp(gamma * log_top)
    return quad(integrand, 0.0, top) if top > 0 else 0.0


def _qti(model: DistributionModel, level: float) -> float:
    """quantile_tail_integral at min(level, 1); 0 at a level that underflowed to 0."""
    return float(quantile_tail_integral(model, min(level, 1.0))) if level > 0 else 0.0


def _qti_at_log(model: DistributionModel, e_q: float, log_level: float) -> float:
    """qti at the level exp(log_level) <= 1; below the normal range, on the power law
    level**e_q through qti(_FLOOR) (see ``check_linear_conditions``)."""
    if log_level < math.log(_FLOOR):
        return _qti(model, _FLOOR) * math.exp(e_q * (log_level - math.log(_FLOOR)))
    return _qti(model, math.exp(log_level))


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

def check_phi_condition(bound: PhiGeometric, model: DistributionModel) -> ConditionReport:
    """Joint check: sum_k sqrt(phi(k)/k) < inf and the sqrt-tail integral < inf.

    For a geometric phi bound the series always converges; the verdict then
    hinges on the tail-integral side.  The partial sum takes lags 1..200, so
    ``terms_used`` is 200, and ``tail_bound`` bounds the rest from above by
    int_200^inf sqrt(phi(x) / x) dx: with lam = log(1/rho) / 2 that is
    sqrt(c1 pi / lam) erfc(sqrt(200 lam)), plus, for c1 > 1, the stretch from
    200 on to x(1) where phi is clipped at 1.
    """
    if not isinstance(bound, PhiGeometric):
        raise ValidationError("phi condition requires a geometric bound")
    ks = np.arange(1, _LAGS + 1, dtype=float)
    partial = float(np.sum(np.sqrt(np.asarray(bound(ks)) / ks)))
    rate = -math.log(bound.rho) / 2.0
    start = max(bound.level_lag(0.0)[0], _LAGS)  # phi is clipped at 1 up to x(1)
    tail = (2.0 * (math.sqrt(start) - math.sqrt(_LAGS))
            + math.sqrt(bound.c1 * math.pi / rate) * math.erfc(math.sqrt(start * rate)))

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
    return ConditionReport(verdict, partial, _LAGS, tail, notes)


# ---------------------------------------------------------------------------
# alpha-dependence condition: sum k^{-1/2} * int_0^{alpha(k)} Q(u)/sqrt(u) du
# ---------------------------------------------------------------------------

def check_alpha_condition(bound, model: DistributionModel) -> ConditionReport:
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

    def term(ks):  # from log alpha(k) where alpha(k) is below the normal range
        return np.array([_qti_at_log(model, e_q, float(bound.log_coeff(k)))
                         if (a := float(bound(k))) < _FLOOR else _qti(model, a) for k in ks]
                        ) / np.sqrt(ks)

    def remainder():
        start = max(bound.level_lag(0.0)[0], _LAGS)  # alpha is clipped at 1 up to x(1)
        flat = 2.0 * (math.sqrt(start) - math.sqrt(_LAGS)) * _qti(model, 1.0)
        gamma = e_q - 0.5 / theta
        return flat + _level_tail(lambda log_u, x: _qti_at_log(model, e_q, log_u) / math.sqrt(x),
                                  bound, float(bound.log_coeff(start)), gamma)

    notes = (
        f"term exponent -1/2 - theta*e_q = {exponent:.6g} with theta={theta:g}, "
        f"e_q={e_q:g}; integral-test tail bound valid (terms nonincreasing); "
        f"magnitudes use default constants (=1), verdict is constant-independent"
    )
    return _series(term, np.arange(1, _LAGS + 1, dtype=float), exponent, notes, remainder)


def alpha_forms_pair(bound, model: DistributionModel, k: int) -> tuple[float, float]:
    """Both forms of the lag-k summand; the pair must agree.

    Left: direct t-space quadrature of ``int min(sqrt(alpha_k), sqrt(tail))``.
    Right: half the quantile-substitution integral.  The two routes share no
    quadrature code.
    """
    k = count(k, "k", 1)
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
    gamma, a = real(gamma, "gamma"), real(a, "a")
    if not (0.0 < gamma < 1.0):
        raise ValidationError(f"gamma must lie in (0, 1), got {gamma}")
    if not (0.0 < a < math.inf):
        raise ValidationError(f"a must be finite and positive, got {a}")
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
                            marginal: DistributionModel | None = None) -> ConditionReport:
    """Summability checks for the MA-infinity coefficient conditions.

    Modes: ``exact_311`` sums the quantile-tail integrals of the marginal
    at a_k**2 (needs `marginal`); ``rio_312`` the same with the innovation
    quantile; ``moment_313`` sums k^{1/(r-1)} |a_k|^{(r-2)/(r-1)};
    ``tail_314`` sums |a_k|^{1-2/r}.  Moment/tail modes need a finite r > 2;
    a mode given `r` or `marginal` that it does not read is rejected.

    Where a_k**2 is below the normal range, the quantile modes take the term
    qti(2.2e-308) (a_k**2 / 2.2e-308)**e_q from log |a_k|: exact for
    ``ParetoTail``, an estimate for e_q = 1/2 (bounded or exponential tails),
    where every such term is below qti(2.2e-308), i.e. 3e-154 max |Y| or 2.1e-151 / rate.
    """
    if mode not in _LINEAR_MODES:
        raise ValidationError(f"mode must be one of {_LINEAR_MODES}")
    r = None if r is None else real(r, "r")
    if mode in ("moment_313", "tail_314"):
        if r is None or not (2.0 < r < math.inf):
            raise ValidationError(f"moment/tail modes require a finite r > 2, got {r}")
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
        s, q = 1.0 / (r - 1.0), (r - 2.0) / (r - 1.0)
        exponent = (1.0 - beta * (r - 2.0)) / (r - 1.0)
    else:  # tail_314
        s, q = 0.0, 1.0 - 2.0 / r
        exponent = -beta * q

    def term(ks):
        a = np.abs(family.coeff(ks))
        if mode in ("moment_313", "tail_314"):
            out = ks**s * a**q
            # |a_k|**q need not be small for q near 0 where |a_k| has lost its
            # digits below the normal range: take it from log |a_k| there
            low = np.flatnonzero(a < _FLOOR)
            out[low] = ks[low]**s * np.exp(q * family.log_coeff(ks[low]))
            return out
        a = np.minimum(a, 1.0)  # _qti caps the level at 1; a_k**2 could overflow
        out = np.array([_qti(m, x * x) for x in a])
        # likewise where a_k**2 lies below the normal range: from log |a_k|
        low = np.flatnonzero(a * a < _FLOOR)
        out[low] = [_qti_at_log(m, e_q, 2.0 * x) for x in family.log_coeff(ks[low])]
        return out

    last = _LAGS - 1

    def remainder():
        if mode in ("moment_313", "tail_314"):
            return family.power_tail(s, q, last)
        return _level_tail(lambda log_u, x: _qti_at_log(m, e_q, 2.0 * log_u), family,
                           float(family.log_coeff(last)), 2.0 * e_q - 1.0 / beta)

    k_density = innovation.density_bound
    notes = (
        f"mode {mode}: term exponent {exponent:.6g} vs critical -1; "
        f"|a_0| = {abs(float(family.coeff(0))):g} (nonzero required); "
        f"innovation density bound K = "
        f"{'unknown' if k_density is None else format(k_density, 'g')} "
        f"(hypothesis of the Gaussian limit, recorded not enforced)"
    )
    return _series(term, np.arange(0, _LAGS, dtype=float), exponent, notes, remainder)


# ---------------------------------------------------------------------------
# lag cutoff for covariance truncation
# ---------------------------------------------------------------------------

def lag_cutoff(bound, tol: float = 1e-3) -> int:
    """Smallest K <= 10**7 with sum_{k>K} bound(k) < tol, read from ``bound.abs_tail``."""
    tol = real(tol, "tol")
    if not (tol > 0):
        raise ValidationError("tol must be positive")
    k = first_index_below(bound.abs_tail, tol, _MAX_LAG)
    if k is None:
        raise ValidationError(f"lag cutoff exceeds max_lag = {_MAX_LAG}; decay too slow")
    return k
