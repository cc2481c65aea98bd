import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from w1clt import conditions
from w1clt.conditions import (
    AlphaPolynomial,
    ConstantBound,
    PhiGeometric,
    alpha_forms_pair,
    check_alpha_condition,
    check_intermittent_threshold,
    check_linear_conditions,
    check_phi_condition,
    lag_cutoff,
)
from w1clt.errors import DivergenceError, ValidationError
from w1clt.models import Exponential, ParetoTail, Tabulated, Uniform
from w1clt.processes import GeometricCoeffs, PolynomialCoeffs
from w1clt.transport import quantile_tail_integral


# ---------------------------------------------------------------------------
# mixing bounds
# ---------------------------------------------------------------------------

def test_bounds_are_clamped_and_nonincreasing():
    b = PhiGeometric(c1=5.0, rho=0.5)
    ks = np.arange(0, 30)
    vals = np.asarray(b(ks))
    assert vals[0] == 1.0  # clamped
    assert np.all(np.diff(vals) <= 0)
    assert np.all((vals >= 0) & (vals <= 1))
    a = AlphaPolynomial(c_gamma=2.0, gamma=0.25)
    vals = np.asarray(a(ks))
    assert np.all(np.diff(vals) <= 0)
    assert a.theta == pytest.approx(3.0)


@pytest.mark.parametrize("cls, args", [
    (PhiGeometric, (0.0, 0.5)), (PhiGeometric, (1.0, 1.0)),
    (AlphaPolynomial, (0.0, 0.25)), (AlphaPolynomial, (1.0, 1.0)),
    (ConstantBound, (0.0,)), (ConstantBound, (1.5,)),
    (PhiGeometric, (math.inf, 0.5)), (AlphaPolynomial, (math.inf, 0.1)),
], ids=["phi-c1", "phi-rho", "alpha-c", "alpha-gamma", "constant-0", "constant-above-1",
        "phi-c1-inf", "alpha-c-inf"])
def test_bounds_reject_out_of_range_parameters(cls, args):
    with pytest.raises(ValidationError, match=f"{cls.__name__} needs"):
        cls(*args)


# ---------------------------------------------------------------------------
# phi condition
# ---------------------------------------------------------------------------

def test_phi_geometric_uniform_converges():
    rep = check_phi_condition(PhiGeometric(1.0, 0.5), Uniform(0, 1))
    assert rep.verdict == "converges"
    assert rep.tail_bound is not None and math.isfinite(rep.tail_bound)
    assert rep.partial_sum > 0


def test_phi_with_heavy_marginal_diverges():
    rep = check_phi_condition(PhiGeometric(1.0, 0.5), ParetoTail(1.0, 2.0))
    assert rep.verdict == "diverges"
    assert "infinite" in rep.notes


def test_phi_near_one_matches_brute_force():
    # rho = 0.999: compare 200 lags plus the erfc tail against a 1e6-term direct sum
    bound = PhiGeometric(1.0, 0.999)
    rep = check_phi_condition(bound, Uniform(0, 1))
    ks = np.arange(1, 1_000_001, dtype=float)
    brute = float(np.sum(np.sqrt(np.asarray(bound(ks)) / ks)))
    value = rep.partial_sum + rep.tail_bound
    assert rep.verdict == "converges"
    assert abs(value - brute) / brute < 1e-3


# ---------------------------------------------------------------------------
# alpha condition
# ---------------------------------------------------------------------------

def _at_lags(lags, check, *args, **kwargs):
    """``check(*args, **kwargs)`` summing ``lags`` lags instead of the fixed count."""
    with mock.patch.object(conditions, "_LAGS", lags):
        return check(*args, **kwargs)


def test_alpha_intermittent_convergent_side():
    # gamma = 0.25, observable exponent a = 0.2 < 1/2 - gamma
    gamma, a = 0.25, 0.2
    marginal = ParetoTail(1.0, (1.0 - gamma) / a)
    rep = check_alpha_condition(AlphaPolynomial(1.0, gamma), marginal)
    assert rep.verdict == "converges"
    assert rep.tail_bound is not None


def test_alpha_no_mixing_diverges():
    rep = check_alpha_condition(ConstantBound(1.0), Uniform(0, 1))
    assert rep.verdict == "diverges"
    assert "-0.5" in rep.notes or "exponent" in rep.notes


def test_alpha_constant_bound_below_the_normal_range_diverges_with_a_finite_sum():
    # raised AttributeError: the bound had no log_coeff for its terms below 2.2e-308.
    # Each term is qti(1e-310) / sqrt(k), with qti(a) = 2 sqrt(a) - (2/3) a**1.5
    bound = ConstantBound(1e-310)
    rep = check_alpha_condition(bound, Uniform(0, 1))
    assert rep.verdict == "diverges" and rep.tail_bound is None
    expected = 2.0 * math.sqrt(1e-310) * sum(k**-0.5 for k in range(1, 201))
    assert rep.partial_sum == pytest.approx(expected, rel=1e-9)
    assert bound.abs_tail(0) == math.inf and bound.decay_exponent() == 0.0


def test_alpha_heavy_marginal_diverges_with_infinite_terms():
    rep = check_alpha_condition(AlphaPolynomial(1.0, 0.25), ParetoTail(1.0, 1.5))
    assert rep.verdict == "diverges"
    assert math.isinf(rep.partial_sum)


def test_alpha_partial_sum_matches_term_by_term_quadrature():
    # independent oracle, k <= 1000: alpha(k) = (k + 1)**-3 at gamma = 1/4, and for
    # U(0, 1) the quadrature int_0^alpha (1 - u) / sqrt(u) du = 2 sqrt(alpha) - (2/3) alpha**1.5
    terms = 1000
    rep = _at_lags(terms, check_alpha_condition, AlphaPolynomial(1.0, 0.25), Uniform(0, 1))
    alpha = [(k + 1.0) ** -3.0 for k in range(1, terms + 1)]
    total = math.fsum((2.0 * math.sqrt(a) - (2.0 / 3.0) * a**1.5) / math.sqrt(k)
                      for k, a in enumerate(alpha, start=1))
    assert rep.partial_sum == pytest.approx(total, rel=1e-6)


def test_alpha_geometric_bound_converges_quickly():
    rep = check_alpha_condition(PhiGeometric(1.0, 0.5), Exponential(1.0))
    assert rep.verdict == "converges"


def test_partial_sums_monotone_and_verdicts_stable():
    bound = AlphaPolynomial(1.0, 0.25)
    reports = [_at_lags(t, check_alpha_condition, bound, Uniform(0, 1)) for t in (10, 40, 160)]
    sums = [r.partial_sum for r in reports]
    assert sums[0] < sums[1] < sums[2]
    assert len({r.verdict for r in reports}) == 1
    lin = [_at_lags(t, check_linear_conditions, PolynomialCoeffs(3.0), Uniform(0, 1),
                    "tail_314", r=4.0)
           for t in (20, 80, 320)]
    assert lin[0].partial_sum < lin[1].partial_sum < lin[2].partial_sum
    assert len({r.verdict for r in lin}) == 1


# ---------------------------------------------------------------------------
# the (3.5) <-> (3.6) identity
# ---------------------------------------------------------------------------

def test_alpha_forms_pair_uniform_quarter():
    bound = ConstantBound(0.25)
    left, right = alpha_forms_pair(bound, Uniform(0, 1), k=1)
    assert left == pytest.approx(11.0 / 24.0, abs=1e-9)
    assert right == pytest.approx(11.0 / 24.0, abs=1e-9)


def test_alpha_forms_pair_full_bound_is_sqrt_tail_integral():
    left, right = alpha_forms_pair(ConstantBound(1.0), Uniform(0, 1), k=3)
    assert left == pytest.approx(2.0 / 3.0, rel=1e-8)
    assert right == pytest.approx(2.0 / 3.0, rel=1e-8)


def test_alpha_forms_pair_pareto():
    left, right = alpha_forms_pair(ConstantBound(0.1), ParetoTail(1.0, 4.0), k=1)
    assert abs(left - right) <= 1e-6 * (1.0 + abs(right))


def test_alpha_forms_pair_many_models():
    rng = np.random.default_rng(0)
    models = [Uniform(0, 1), Exponential(1.0), ParetoTail(1.0, 3.0), ParetoTail(0.5, 6.0)]
    for _ in range(25):
        m = models[int(rng.integers(len(models)))]
        k = int(rng.integers(1, 20))
        bound = AlphaPolynomial(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.1, 0.9)))
        left, right = alpha_forms_pair(bound, m, k)
        assert abs(left - right) <= 1e-6 * (1.0 + abs(right))


def test_alpha_forms_pair_on_a_tail_mass_below_an_ulp_of_one():
    # P(|Y| > t) = 2.96e-16 for t < 10, so Q(u) = 10 for u below it and both forms
    # are 10 sqrt(alpha).  Inverting 1 - u against F_|Y| lost that mass: the tail
    # quantile read 0 and the left form 1.7206e-7 against 1.7029e-7
    table = Tabulated([-10.0, 0.0], [2.96059473e-16, 1.0], interp="step")
    assert table.tail_quantile(2.9e-16) == 10.0
    left, right = alpha_forms_pair(ConstantBound(2.9e-16), table, 1)
    assert left == pytest.approx(10.0 * math.sqrt(2.9e-16), rel=1e-12)
    assert right == pytest.approx(10.0 * math.sqrt(2.9e-16), rel=1e-12)


def test_alpha_forms_pair_divergent_flag():
    with pytest.raises(DivergenceError):
        alpha_forms_pair(ConstantBound(0.5), ParetoTail(1.0, 2.0), k=1)


# ---------------------------------------------------------------------------
# intermittent threshold
# ---------------------------------------------------------------------------

def test_threshold_truth_table():
    assert check_intermittent_threshold(0.25, 0.2).verdict == "converges"
    assert check_intermittent_threshold(0.25, 0.3).verdict == "diverges"
    assert check_intermittent_threshold(0.25, 0.25).verdict == "undetermined"


def test_threshold_validates_inputs():
    for gamma, a, match in [(1.5, 0.2, "gamma must lie in"), (0.5, -0.1, "got -0.1"),
                            (0.25, math.inf, "a must be finite and positive, got inf"),
                            (0.25, math.nan, "got nan")]:
        with pytest.raises(ValidationError, match=match):
            check_intermittent_threshold(gamma, a)


def test_alpha_condition_agrees_with_threshold_on_grid():
    # the alpha-series verdict for the induced Pareto marginal must match the
    # closed-form threshold away from a 1e-3 boundary band
    for gamma in [0.1, 0.2, 0.3, 0.4]:
        for a in [0.05, 0.1, 0.2, 0.3, 0.45]:
            if abs(0.5 - gamma - a) <= 1e-3:
                continue
            marginal_exponent = (1.0 - gamma) / a
            if marginal_exponent <= 2.0:
                expected = "diverges"
            else:
                expected = check_intermittent_threshold(gamma, a).verdict
            rep = check_alpha_condition(AlphaPolynomial(1.0, gamma),
                                        ParetoTail(1.0, marginal_exponent))
            assert rep.verdict == expected, (gamma, a)


# ---------------------------------------------------------------------------
# linear process conditions
# ---------------------------------------------------------------------------

def test_linear_tail_mode_geometric_converges():
    rep = check_linear_conditions(
        GeometricCoeffs(0.5), Uniform(-1, 1), "tail_314", r=4.0
    )
    assert rep.verdict == "converges"


def test_linear_moment_mode_example():
    # a_k = (k+1)^-4, r = 3: sum k^{1/2} k^{-2} converges
    rep = check_linear_conditions(
        PolynomialCoeffs(4.0), Uniform(-1, 1), "moment_313", r=3.0
    )
    assert rep.verdict == "converges"


def test_linear_tail_mode_slow_family_diverges():
    # a_k = (k+1)^-1.1, r = 3: exponent -1.1/3 > -1
    rep = check_linear_conditions(
        PolynomialCoeffs(1.1000001), Uniform(-1, 1), "tail_314", r=3.0
    )
    assert rep.verdict == "diverges"


def test_linear_modes_match_hand_exponents():
    # hand rule: moment_313 and tail_314 both converge iff beta > r/(r-2)
    cases = []
    for beta in [1.5, 2.0, 2.5, 3.0, 4.0]:
        for r in [3.0, 4.0]:
            cases.append((beta, r))
    assert len(cases) == 10
    for beta, r in cases:
        critical = r / (r - 2.0)
        if beta > critical:
            expected = "converges"
        elif beta == critical:  # exact critical exponent: the documented band
            expected = "undetermined"
        else:
            expected = "diverges"
        for mode in ("moment_313", "tail_314"):
            rep = check_linear_conditions(
                PolynomialCoeffs(beta), Uniform(-1, 1), mode, r=r
            )
            assert rep.verdict == expected, (beta, r, mode)


def test_linear_rio_mode_bounded_innovation():
    rep = check_linear_conditions(PolynomialCoeffs(2.0), Uniform(0, 1), "rio_312")
    assert rep.verdict == "converges"
    assert "K = 1" in rep.notes  # density bound surfaced


def test_linear_rio_mode_heavy_innovation_diverges():
    rep = check_linear_conditions(GeometricCoeffs(0.5), ParetoTail(1.0, 1.5), "rio_312")
    assert rep.verdict == "diverges" and rep.partial_sum == math.inf
    assert "quantile tail integral of the innovation diverges" in rep.notes


def test_linear_exact_mode_requires_marginal():
    with pytest.raises(ValidationError):
        check_linear_conditions(GeometricCoeffs(0.5), Uniform(0, 1), "exact_311")
    rep = check_linear_conditions(
        GeometricCoeffs(0.5), Uniform(0, 1), "exact_311", marginal=Uniform(0, 2)
    )
    assert rep.verdict == "converges"


def test_linear_moment_mode_validates_r():
    with pytest.raises(ValidationError):
        check_linear_conditions(GeometricCoeffs(0.5), Uniform(0, 1), "moment_313", r=2.0)
    with pytest.raises(ValidationError):
        check_linear_conditions(GeometricCoeffs(0.5), Uniform(0, 1), "tail_314")


def test_linear_check_rejects_arguments_it_does_not_read():
    fam, inn = GeometricCoeffs(0.5), Uniform(-1, 1)
    for kwargs, match in [
        ({"mode": "moment_313", "r": math.inf}, "finite r > 2, got inf"),
        ({"mode": "tail_314", "r": math.inf}, "finite r > 2, got inf"),
        ({"mode": "tail_314", "r": math.nan}, "finite r > 2, got nan"),
        ({"mode": "rio_312", "r": 4.0}, "does not read 'r'"),
        ({"mode": "exact_311", "r": 4.0, "marginal": inn}, "does not read 'r'"),
        ({"mode": "rio_312", "marginal": inn}, "'marginal'"),
        ({"mode": "moment_313", "r": 4.0, "marginal": inn}, "'marginal'"),
        ({"mode": "tail_314", "r": 4.0, "marginal": inn}, "'marginal'"),
        ({"mode": "exact_312"}, "mode must be one of"),
    ]:
        with pytest.raises(ValidationError, match=match):
            check_linear_conditions(fam, inn, **kwargs)
    with pytest.raises(ValidationError, match="geometric bound"):
        check_phi_condition(AlphaPolynomial(1.0, 0.25), Uniform(0, 1))


def _linear_terms(family, innovation, mode, r, marginal, ks):
    """The lag-k summands of each linear mode, written out from their formulas."""
    a = np.abs(np.asarray(family.coeff(ks), dtype=float))
    if mode == "moment_313":
        return ks ** (1.0 / (r - 1.0)) * a ** ((r - 2.0) / (r - 1.0))
    if mode == "tail_314":
        return a ** (1.0 - 2.0 / r)
    m = marginal if mode == "exact_311" else innovation
    return np.array([float(quantile_tail_integral(m, min(max(x * x, 1e-300), 1.0)))
                     for x in a])


_SHORT = [(mode, rho, 20, 2020) for mode in ("exact_311", "rio_312", "moment_313", "tail_314")
          for rho in (0.5, 0.9)]
# moment_313's terms rise to a peak near k = 1/((r - 2) log(1/rho)): at r = 4
# near 50, 500 and 5000 for these rho, the last two past the 200 summed lags
_SLOW = [("moment_313", rho, 200, 2 * 10**5) for rho in (0.99, 0.999, 0.9999)]


@pytest.mark.parametrize("mode, rho, lags, direct_lags", _SHORT + _SLOW,
                         ids=[f"{c[0]}-{c[1]}" for c in _SHORT]
                         + [f"{c[0]}-{c[1]}-200-lags" for c in _SLOW])
def test_linear_tail_bound_bounds_the_rest_of_the_series(mode, rho, lags, direct_lags):
    # partial_sum + tail_bound must be at least the series summed far past the lags
    family, innovation, marginal = GeometricCoeffs(rho), Uniform(-1, 1), Uniform(-2, 2)
    r = 4.0 if mode in ("moment_313", "tail_314") else None
    rep = _at_lags(lags, check_linear_conditions, family, innovation, mode, r=r,
                   marginal=marginal if mode == "exact_311" else None)
    assert rep.verdict == "converges" and rep.terms_used == lags
    ks = np.arange(0, direct_lags, dtype=float)
    direct = float(np.sum(_linear_terms(family, innovation, mode, r, marginal, ks)))
    assert direct > rep.partial_sum
    assert rep.partial_sum + rep.tail_bound >= direct


def test_alpha_tail_bound_bounds_the_rest_of_the_series():
    bound, m = AlphaPolynomial(1.0, 0.25), Uniform(0, 1)
    rep = _at_lags(10, check_alpha_condition, bound, m)
    ks = np.arange(1, 5001)
    direct = sum(float(quantile_tail_integral(m, float(bound(k)))) / math.sqrt(k) for k in ks)
    assert direct > rep.partial_sum
    assert rep.partial_sum + rep.tail_bound >= direct


# ---------------------------------------------------------------------------
# partial_sum + tail_bound against exact sums
# ---------------------------------------------------------------------------

def _assert_brackets(rep, exact_lo, exact_hi, largest):
    """exact_lo (1 - 1e-6) <= partial_sum + tail_bound <= exact_hi (1 + 1e-6) + 2 largest,
    where ``largest`` is the largest term at or after the last summed lag."""
    assert rep.verdict == "converges" and rep.terms_used == 200
    assert math.isfinite(rep.tail_bound) and rep.tail_bound >= 0.0
    total = rep.partial_sum + rep.tail_bound
    assert exact_lo * (1.0 - 1e-6) <= total, (total, exact_lo)
    assert total <= exact_hi * (1.0 + 1e-6) + 2.0 * largest, (total, exact_hi, largest)


_RHOS = (0.5, 0.9, 0.999, 0.99999, 0.999999)
_POWER_CASES = [(mode, rho, r) for mode in ("tail_314", "moment_313") for rho in _RHOS
                for r in (2.01, 4.0, 50.0)]
# moment_313 terms peaking far past the last summed lag, at 1 / ((r - 2) log(1 / rho))
_POWER_CASES += [("moment_313", rho, r) for rho in (0.99, 0.9999) for r in (2.0001, 2.001)]


def _geometric_power_exact(mode, rho, r):
    """The geometric series sum_{k>=0} of the mode's term as (lower, upper, largest term
    at k >= 199)."""
    lam = -math.log(rho)
    if mode == "tail_314":
        p = 1.0 - 2.0 / r
        exact = 1.0 / -math.expm1(p * math.log(rho))
        return exact, exact, rho ** (199 * p)
    # k**s exp(-q lam k) is unimodal with its peak at s / (q lam), so the sum is within
    # the largest term of the integral over [0, inf)
    s, q = 1.0 / (r - 1.0), (r - 2.0) / (r - 1.0)
    integral = math.gamma(s + 1.0) / (q * lam) ** (s + 1.0)
    peak = s / (q * lam)
    term = lambda k: k ** s * math.exp(-q * lam * k)
    top = max(term(math.floor(peak)), term(math.ceil(peak)))
    after = max([term(199)] + [term(k) for k in (math.floor(peak), math.ceil(peak)) if k >= 199])
    return integral - top, integral + top, after


@pytest.mark.parametrize("mode, rho, r", _POWER_CASES, ids=[f"{m}-{rho}-{r}" for m, rho, r
                                                          in _POWER_CASES])
def test_geometric_power_modes_bracket_the_exact_sum(mode, rho, r):
    rep = check_linear_conditions(GeometricCoeffs(rho), Uniform(-1, 1), mode, r=r)
    _assert_brackets(rep, *_geometric_power_exact(mode, rho, r))


_POLY_TAIL_CASES = [(beta, r) for beta in (1.5, 3.0) for r in (2.01, 4.0, 50.0)
                    if beta * (1.0 - 2.0 / r) > 1.0]


@pytest.mark.parametrize("beta, r", _POLY_TAIL_CASES, ids=[f"beta{b}-r{r}" for b, r
                                                           in _POLY_TAIL_CASES])
def test_polynomial_tail_mode_brackets_the_exact_sum(beta, r):
    assert len(_POLY_TAIL_CASES) == 3
    rep = check_linear_conditions(PolynomialCoeffs(beta), Uniform(-1, 1), "tail_314", r=r)
    bp = beta * (1.0 - 2.0 / r)
    exact = float(special.zeta(bp, 1.0))
    _assert_brackets(rep, exact, exact, 200.0 ** -bp)


@pytest.mark.parametrize("mode", ["rio_312", "exact_311"])
@pytest.mark.parametrize("rho", _RHOS)
def test_quantile_modes_bracket_the_exact_sum(mode, rho):
    # |Y| ~ U(0, 1): Q(u) = 1 - u, so the term at a_k = rho**k is 2 rho**k - (2/3) rho**(3k);
    # the marginal U(-2, 2) doubles it
    scale = 2.0 if mode == "exact_311" else 1.0
    rep = check_linear_conditions(GeometricCoeffs(rho), Uniform(-1, 1), mode,
                                  marginal=Uniform(-2, 2) if mode == "exact_311" else None)
    exact = scale * (2.0 / (1.0 - rho) - (2.0 / 3.0) / (1.0 - rho**3))
    _assert_brackets(rep, exact, exact, scale * (2.0 * rho**199 - (2.0 / 3.0) * rho**597))


def _phi_series(rho):
    """sum_{k>=1} rho**(k/2) / sqrt(k) = Li_{1/2}(e**-mu), mu = log(1/rho) / 2, by its
    expansion sqrt(pi / mu) + sum_j zeta(1/2 - j) (-mu)**j / j! (valid for mu < 2 pi)."""
    mu = -math.log(rho) / 2.0
    return math.sqrt(math.pi / mu) + sum(float(special.zeta(0.5 - j)) * (-mu) ** j
                                         / math.factorial(j) for j in range(40))


def test_phi_series_expansion_matches_a_direct_sum():
    ks = np.arange(1, 200_001, dtype=float)
    for rho in (0.5, 0.999):
        direct = float(np.sum(rho ** (ks / 2.0) / np.sqrt(ks)))
        assert _phi_series(rho) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("rho", [0.5, 0.999, 0.999999])
def test_phi_brackets_the_exact_sum(rho):
    rep = check_phi_condition(PhiGeometric(1.0, rho), Uniform(0, 1))
    exact = _phi_series(rho)
    _assert_brackets(rep, exact, exact, math.sqrt(rho**200 / 200.0))


def test_phi_tail_covers_a_bound_clipped_past_the_summed_lags():
    # 5 * 0.999**k stays above 1, so phi(k) = 1, up to k = 1608 > 200
    bound = PhiGeometric(5.0, 0.999)
    rep = check_phi_condition(bound, Uniform(0, 1))
    ks = np.arange(1, 2 * 10**6 + 1, dtype=float)
    direct = float(np.sum(np.sqrt(np.asarray(bound(ks)) / ks)))  # the rest is below 1e-300
    _assert_brackets(rep, direct, direct, 1.0 / math.sqrt(200.0))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 0.999999), st.floats(2.01, 50.0))
def test_geometric_tail_mode_brackets_the_exact_sum_everywhere(rho, r):
    rep = check_linear_conditions(GeometricCoeffs(rho), Uniform(-1, 1), "tail_314", r=r)
    _assert_brackets(rep, *_geometric_power_exact("tail_314", rho, r))


_UNDERFLOW_CASES = [(mode, rho, r) for mode in ("tail_314", "moment_313") for rho in (0.01, 1e-5)
                    for r in (2.001, 2.01, 4.0)]


@pytest.mark.parametrize("mode, rho, r", _UNDERFLOW_CASES, ids=[f"{m}-{rho}-{r}" for m, rho, r
                                                              in _UNDERFLOW_CASES])
def test_power_modes_bracket_the_exact_sum_past_underflowing_coefficients(mode, rho, r):
    # rho**k leaves the float range within the 200 summed lags, but |a_k|**q with q
    # near 0 does not: 0.01**(k q) at r = 2.001 falls by only 0.23% a lag.  The exact
    # sum is taken term by term from logarithms; past 10**6 lags the terms are below
    # e**-2000
    rep = check_linear_conditions(GeometricCoeffs(rho), Uniform(-1, 1), mode, r=r)
    s, q = (0.0, 1.0 - 2.0 / r) if mode == "tail_314" else (1.0 / (r - 1.0), (r - 2.0) / (r - 1.0))
    ks = np.arange(1, 10**6, dtype=float)
    terms = np.exp(s * np.log(ks) + q * math.log(rho) * ks)
    exact = float(np.sum(terms)) + (1.0 if mode == "tail_314" else 0.0)  # plus the k = 0 term
    _assert_brackets(rep, exact, exact, float(terms[198:].max()))


def test_polynomial_tail_mode_brackets_the_exact_sum_past_underflowing_coefficients():
    # (k + 1)**-1000 underflows from k = 2 on, while its power q = 1 - 2/r leaves
    # (k + 1)**-1.4978
    rep = check_linear_conditions(PolynomialCoeffs(1000.0), Uniform(-1, 1), "tail_314", r=2.003)
    bp = 1000.0 * (1.0 - 2.0 / 2.003)
    exact = float(special.zeta(bp, 1.0))
    _assert_brackets(rep, exact, exact, 200.0 ** -bp)


@pytest.mark.parametrize("mode", ["rio_312", "exact_311"])
def test_quantile_modes_take_a_coefficient_whose_square_overflows(mode):
    # a_0 = 0.5**-1000 = 1.07e301: its square overflowed (a numpy warning, an error
    # here), but the level clips to 1 and a_k**2 <= 1.5**-2000 vanishes for k >= 1,
    # so the sum is qti(1) = 2 - 2/3 for U(-1, 1)
    rep = check_linear_conditions(PolynomialCoeffs(1000.0, 0.5), Uniform(-1, 1), mode,
                                  marginal=Uniform(-1, 1) if mode == "exact_311" else None)
    assert rep.verdict == "converges" and rep.partial_sum == pytest.approx(4.0 / 3.0, rel=1e-12)


_QUANTILE_UNDERFLOW_CASES = [(mode, rho, r) for mode in ("rio_312", "exact_311")
                             for rho in (0.01, 1e-5) for r in (2.001, 2.01, 4.0)]


@pytest.mark.parametrize("mode, rho, r", _QUANTILE_UNDERFLOW_CASES,
                         ids=[f"{m}-{rho}-{r}" for m, rho, r in _QUANTILE_UNDERFLOW_CASES])
def test_quantile_modes_sum_and_bound_the_rest_past_underflowing_coefficients(mode, rho, r):
    # a_k**2 = rho**(2k) underflows within the 200 summed lags, but the Pareto term
    # (a_k**2)**e / e, e = 1/2 - 1/r, need not be small: at rho = 0.01, r = 2.001 it
    # falls by 0.23% a lag, lags 0-199 sum to 642,219.917 and the rest to 1,098,697.39
    pareto = ParetoTail(1.0, r)
    rep = check_linear_conditions(GeometricCoeffs(rho), Uniform(-1, 1) if mode == "exact_311"
                                  else pareto, mode,
                                  marginal=pareto if mode == "exact_311" else None)
    e = 0.5 - 1.0 / r
    step = 2.0 * e * math.log(rho)  # log of the ratio of consecutive terms
    partial = -math.expm1(200 * step) / -math.expm1(step) / e
    rest = math.exp(200 * step) / -math.expm1(step) / e
    assert rep.verdict == "converges" and rep.partial_sum == pytest.approx(partial, rel=1e-9)
    # the tail bound alone covers the rest, within two of its largest terms
    assert rest * (1.0 - 1e-9) <= rep.tail_bound <= rest + 2.0 * math.exp(199 * step) / e


def test_zero_rho_family_reports_zero_tails_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode, r, marginal in [("exact_311", None, Uniform(-2, 2)), ("rio_312", None, None),
                                  ("moment_313", 4.0, None), ("tail_314", 4.0, None)]:
            rep = check_linear_conditions(GeometricCoeffs(0.0), Uniform(-1, 1), mode, r=r,
                                          marginal=marginal)
            assert rep.verdict == "converges" and rep.tail_bound == 0.0, mode


def _pareto_qti_at_log(r):
    """log level -> quantile_tail_integral of ParetoTail(1, r), level**e / e."""
    e = 0.5 - 1.0 / r
    return lambda log_a: np.exp(e * log_a) / e


def _uniform_qti_at_log(log_a):
    """log level -> quantile_tail_integral of Uniform(0, 1), 2 sqrt(a) - (2/3) a**1.5."""
    return 2.0 * np.exp(0.5 * log_a) - (2.0 / 3.0) * np.exp(1.5 * log_a)


_ALPHA_UNDERFLOW_CASES = [
    # (bound, model, exact term at log alpha(k)); log alpha(k) is written out below
    (PhiGeometric(1.0, 0.01), ParetoTail(1.0, 2.001), _pareto_qti_at_log(2.001)),
    (PhiGeometric(1.0, 0.01), ParetoTail(1.0, 4.0), _pareto_qti_at_log(4.0)),
    (PhiGeometric(2.0, 1e-5), ParetoTail(1.0, 2.01), _pareto_qti_at_log(2.01)),
    (PhiGeometric(1.0, 0.01), Uniform(0, 1), _uniform_qti_at_log),
    # alpha(200) = 0.3**200 is normal, but the level axis of the rest reaches below it
    (PhiGeometric(1.0, 0.3), ParetoTail(1.0, 2.001), _pareto_qti_at_log(2.001)),
    (AlphaPolynomial(1.0, 0.005), ParetoTail(1.0, 3.0), _pareto_qti_at_log(3.0)),
]


@pytest.mark.parametrize("bound, model, qti_at_log", _ALPHA_UNDERFLOW_CASES,
                         ids=[f"{b!r}-{m!r}" for b, m, _ in _ALPHA_UNDERFLOW_CASES])
def test_alpha_sums_and_bounds_the_rest_past_an_underflowing_bound(bound, model, qti_at_log):
    # alpha(k) underflows within the 200 summed lags (0.01**k from k = 162 on,
    # 201**-199 at k = 200) or past them, but a Pareto term alpha(k)**e / e need not
    # be small: at rho = 0.01, r = 2.001 it falls by 0.12% a lag, lags 1-200 sum to
    # 99,347.12 and the rest to 103,916.09
    rep = check_alpha_condition(bound, model)
    ks = np.arange(1, 10**6 + 1, dtype=float)
    if isinstance(bound, PhiGeometric):
        log_alpha = np.minimum(math.log(bound.c1) + ks * math.log(bound.rho), 0.0)
    else:
        log_alpha = math.log(bound.c_gamma) - bound.theta * np.log(ks + 1.0)
    terms = qti_at_log(log_alpha) / np.sqrt(ks)
    partial, rest = math.fsum(terms[:200]), math.fsum(terms[200:])
    assert terms[-1] < 1e-20 * rest  # past 10**6 the rest is negligible
    assert rep.verdict == "converges" and rep.partial_sum == pytest.approx(partial, rel=1e-9)
    # the tail bound alone covers the rest, within two of its largest terms
    assert rest * (1.0 - 1e-9) <= rep.tail_bound <= rest + 2.0 * terms[199]


def test_alpha_tail_bound_covers_a_bound_clipped_past_the_summed_lags():
    # c_gamma / (k+1)**3 stays above 1, so alpha(k) = 1, up to k = 463 > 200
    bound, m = AlphaPolynomial(1e8, 0.25), Uniform(0, 1)
    rep = check_alpha_condition(bound, m)
    ks = np.arange(1, 10**5 + 1, dtype=float)
    alpha = np.asarray(bound(ks))
    terms = (2.0 * np.sqrt(alpha) - (2.0 / 3.0) * alpha**1.5) / np.sqrt(ks)
    # past 10**5 the terms are below 2 sqrt(c_gamma) k**-2, which sums to under 2e4 / 10**5
    _assert_brackets(rep, float(np.sum(terms)), float(np.sum(terms)) + 0.2, float(terms[199]))


def test_alpha_tail_bound_brackets_a_near_critical_polynomial_bound():
    # theta = 1.01: the Uniform term falls like k**-1.005, and the level axis reaches
    # levels whose lag passes 1e300, past which its integrand is held constant
    bound, m = AlphaPolynomial(1.0, 1.0 / 2.01), Uniform(0, 1)
    rep = check_alpha_condition(bound, m)
    ks = np.arange(1, 10**6 + 1, dtype=float)
    alpha = np.asarray(bound(ks))
    terms = (2.0 * np.sqrt(alpha) - (2.0 / 3.0) * alpha**1.5) / np.sqrt(ks)
    # past 10**6 a term lies between 2 (1 - 1e-6) (k+1)**-p and 2 k**-p, p = (theta + 1) / 2
    p, n = (bound.theta + 1.0) / 2.0, 10**6
    body = math.fsum(terms)
    _assert_brackets(rep, body + 2.0 * (1.0 - 1e-6) * float(special.zeta(p, n + 2)),
                     body + 2.0 * float(special.zeta(p, n + 1)), float(terms[199]))


# ---------------------------------------------------------------------------
# the decay laws the families and the bounds share
# ---------------------------------------------------------------------------

_LAWS = st.one_of(
    st.builds(GeometricCoeffs, st.floats(0.0, 0.999)),
    st.builds(PhiGeometric, st.floats(1e-3, 1e3), st.floats(1e-3, 0.999)),
    st.builds(PolynomialCoeffs, st.floats(1.01, 50.0), st.floats(0.1, 10.0)),
    st.builds(AlphaPolynomial, st.floats(1e-3, 1e3), st.floats(0.05, 0.95)),
    st.builds(ConstantBound, st.floats(1e-300, 1.0)),
)


def _law_log(law, x):
    """log of the unclipped law at the lags x > 0, written out from its fields."""
    x = np.asarray(x, dtype=float)
    if isinstance(law, ConstantBound):
        return np.full_like(x, math.log(law.value))
    if isinstance(law, (GeometricCoeffs, PhiGeometric)):
        with np.errstate(divide="ignore"):  # log 0 = -inf: rho = 0 is 0 past k = 0
            return math.log(getattr(law, "c1", 1.0)) + x * np.log(law.rho)
    if isinstance(law, AlphaPolynomial):
        return math.log(law.c_gamma) - (1.0 - law.gamma) / law.gamma * np.log(x + 1.0)
    return -law.beta * np.log(x + law.offset)


@settings(max_examples=200, deadline=None)
@given(_LAWS, st.floats(1e-3, 1e4))
def test_level_lag_inverts_log_coeff(law, x):
    log_u = float(law.log_coeff(x))
    assert log_u == pytest.approx(float(_law_log(law, x)), rel=1e-12, abs=1e-12)
    if law.decay_exponent() == 0.0 or getattr(law, "rho", 1.0) == 0.0:
        return  # constant, or 0 past k = 0: no lag has a level of its own
    lag, slope = law.level_lag(log_u)
    assert lag == pytest.approx(x, rel=1e-9, abs=1e-9)
    h = 1e-6 * max(1.0, abs(log_u))
    diff = (law.level_lag(log_u + h)[0] - law.level_lag(log_u - h)[0]) / (2.0 * h)
    assert slope == pytest.approx(diff, rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(_LAWS, st.integers(1, 300), st.floats(0.0, 2.0), st.floats(0.05, 1.0))
def test_abs_tail_and_power_tail_bound_brute_force_sums(law, k, s, q):
    # sum_{j>k} law(j) and sum_{j>k} j**s law(j)**q over 10**5 lags, from logarithms,
    # up to 1e-300: a tail below the normal range keeps few digits, or none
    j = np.arange(k + 1, k + 100_001, dtype=float)
    log_law = _law_log(law, j)
    assert law.abs_tail(k) >= float(np.sum(np.exp(log_law))) * (1.0 - 1e-12) - 1e-300
    power = float(np.sum(np.exp(s * np.log(j) + q * log_law)))
    assert law.power_tail(s, q, k) >= power * (1.0 - 1e-9) - 1e-300


def test_linear_partial_sum_matches_direct_sum():
    fam = PolynomialCoeffs(4.0)
    r = 3.0
    rep = check_linear_conditions(fam, Uniform(-1, 1), "moment_313", r=r)
    ks = np.arange(0, 200, dtype=float)  # the fixed 200 lags
    direct = float(np.sum(ks ** (1.0 / (r - 1.0)) * (ks + 1.0) ** (-4.0 * (r - 2.0) / (r - 1.0))))
    assert rep.partial_sum == pytest.approx(direct, rel=1e-12)


def test_linear_rio_partial_sum_matches_qti():
    fam = GeometricCoeffs(0.5)
    inn = Uniform(0, 1)
    rep = check_linear_conditions(fam, inn, "rio_312")
    direct = sum(
        float(quantile_tail_integral(inn, min(max(0.5 ** (2 * k), 1e-300), 1.0)))
        for k in range(200)
    )
    assert rep.partial_sum == pytest.approx(direct, rel=1e-9)


# ---------------------------------------------------------------------------
# lag cutoff rule
# ---------------------------------------------------------------------------

def test_lag_cutoff_geometric():
    k = lag_cutoff(PhiGeometric(1.0, 0.5), tol=1e-3)
    # sum_{j > k} 0.5^j = 0.5^k
    assert 0.5**k < 1e-3 <= 0.5 ** (k - 1)


def test_lag_cutoff_polynomial():
    b = AlphaPolynomial(1.0, 0.25)  # theta = 3
    k = lag_cutoff(b, tol=1e-3)
    from scipy.special import zeta

    assert zeta(3.0, k + 2) < 1e-3 <= zeta(3.0, k + 1)


def _first_k_below(tail, tol, max_lag=10**7):
    """Linear scan: the first k in [0, max_lag] with tail(k) < tol, in blocks; None if none."""
    start, block = 0, 1024
    while start <= max_lag:
        ks = np.arange(start, min(start + block, max_lag + 1))
        below = np.flatnonzero(tail(ks) < tol)
        if below.size:
            return int(ks[below[0]])
        start, block = start + block, min(2 * block, 2**20)
    return None


_CUTOFF_BOUNDS = [
    *(PhiGeometric(c1, rho) for c1 in (0.1, 1.0, 3.0) for rho in (0.05, 0.3, 0.5, 0.9, 0.99)),
    *(AlphaPolynomial(c, g) for c in (0.5, 1.0, 2.0) for g in (0.05, 0.1, 0.2, 0.25, 0.3, 0.35)),
]


def _bound_tail(bound):
    """sum_{j > k} bound(j) in closed form, vectorized over k."""
    from scipy.special import zeta

    if isinstance(bound, PhiGeometric):
        return lambda k: bound.c1 * bound.rho ** (k + 1.0) / (1.0 - bound.rho)
    return lambda k: bound.c_gamma * zeta(bound.theta, k + 2.0)


@pytest.mark.parametrize("bound", _CUTOFF_BOUNDS, ids=repr)
def test_lag_cutoff_equals_linear_scan(bound):
    for tol in (1e-2, 1e-3, 1e-4, 1e-6):
        expected = _first_k_below(_bound_tail(bound), tol)
        if expected is None:
            with pytest.raises(ValidationError, match="max_lag"):
                lag_cutoff(bound, tol)
        else:
            assert lag_cutoff(bound, tol) == expected, tol


def test_lag_cutoff_gives_up_fast():
    # the tail decays like k**-0.22, so no k <= max_lag reaches tol
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="max_lag"):
        lag_cutoff(AlphaPolynomial(1.0, 0.45), 1e-3)
    assert time.perf_counter() - start < 1.0


def test_lag_cutoff_rejects_nonsummable():
    with pytest.raises(ValidationError):
        lag_cutoff(AlphaPolynomial(1.0, 0.6))  # theta < 1
    with pytest.raises(ValidationError):
        lag_cutoff(ConstantBound(1.0))
    for tol in (0.0, -1e-3, math.nan):
        with pytest.raises(ValidationError, match="tol must be positive"):
            lag_cutoff(PhiGeometric(1.0, 0.5), tol)


def test_report_json_fields():
    rep = check_intermittent_threshold(0.25, 0.2)
    import json

    d = json.loads(json.dumps(rep.to_dict()))
    assert set(d) == {"verdict", "partial_sum", "terms_used", "tail_bound", "notes"}
