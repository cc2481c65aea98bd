import math
import time

import numpy as np
import pytest
from scipy import integrate

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
from w1clt.models import Exponential, ParetoTail, Uniform
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
    # rho = 0.999: compare the adaptive value against a 1e6-term direct sum
    bound = PhiGeometric(1.0, 0.999)
    rep = check_phi_condition(bound, Uniform(0, 1))
    ks = np.arange(1, 1_000_001, dtype=float)
    brute = float(np.sum(np.sqrt(np.asarray(bound(ks)) / ks)))
    value = rep.partial_sum + rep.tail_bound
    assert rep.verdict == "converges"
    assert abs(value - brute) / brute < 1e-3


def test_phi_partial_sums_monotone_in_terms():
    bound = PhiGeometric(1.0, 0.9)
    sums = [check_phi_condition(bound, Uniform(0, 1), terms=t).partial_sum
            for t in (50, 200, 1000)]
    assert sums[0] < sums[1] < sums[2]
    verdicts = {check_phi_condition(bound, Uniform(0, 1), terms=t).verdict
                for t in (50, 200, 1000)}
    assert verdicts == {"converges"}


# ---------------------------------------------------------------------------
# alpha condition
# ---------------------------------------------------------------------------

def test_alpha_intermittent_convergent_side():
    # gamma = 0.25, observable exponent a = 0.2 < 1/2 - gamma
    gamma, a = 0.25, 0.2
    marginal = ParetoTail(1.0, (1.0 - gamma) / a)
    rep = check_alpha_condition(AlphaPolynomial(1.0, gamma), marginal, terms=50)
    assert rep.verdict == "converges"
    assert rep.tail_bound is not None


def test_alpha_no_mixing_diverges():
    rep = check_alpha_condition(ConstantBound(1.0), Uniform(0, 1), terms=50)
    assert rep.verdict == "diverges"
    assert "-0.5" in rep.notes or "exponent" in rep.notes


def test_alpha_heavy_marginal_diverges_with_infinite_terms():
    rep = check_alpha_condition(AlphaPolynomial(1.0, 0.25), ParetoTail(1.0, 1.5), terms=50)
    assert rep.verdict == "diverges"
    assert math.isinf(rep.partial_sum)


def test_alpha_partial_sum_matches_term_by_term_quadrature():
    # independent oracle: direct quadrature of Q(u)/sqrt(u) per term, k <= 1000
    bound = AlphaPolynomial(1.0, 0.25)
    m = Uniform(0, 1)
    terms = 1000
    rep = check_alpha_condition(bound, m, terms=terms)
    total = 0.0
    for k in range(1, terms + 1):
        alpha = float(bound(k))
        piece, _ = integrate.quad(
            lambda u: float(m.tail_quantile(u)) / math.sqrt(u), 0.0, alpha,
            epsabs=1e-13, limit=200,
        )
        total += piece / math.sqrt(k)
    assert rep.partial_sum == pytest.approx(total, rel=1e-6)


def test_alpha_geometric_bound_converges_quickly():
    rep = check_alpha_condition(PhiGeometric(1.0, 0.5), Exponential(1.0), terms=30)
    assert rep.verdict == "converges"


def test_alpha_requires_enough_terms():
    with pytest.raises(ValidationError):
        check_alpha_condition(AlphaPolynomial(1.0, 0.25), Uniform(0, 1), terms=5)


def test_partial_sums_monotone_and_verdicts_stable():
    bound = AlphaPolynomial(1.0, 0.25)
    reports = [check_alpha_condition(bound, Uniform(0, 1), terms=t)
               for t in (10, 40, 160)]
    sums = [r.partial_sum for r in reports]
    assert sums[0] < sums[1] < sums[2]
    assert len({r.verdict for r in reports}) == 1
    lin = [check_linear_conditions(PolynomialCoeffs(3.0), Uniform(0, 1),
                                   "tail_314", r=4.0, terms=t)
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
    with pytest.raises(ValidationError):
        check_intermittent_threshold(1.5, 0.2)
    with pytest.raises(ValidationError):
        check_intermittent_threshold(0.5, -0.1)


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
            rep = check_alpha_condition(
                AlphaPolynomial(1.0, gamma), ParetoTail(1.0, marginal_exponent), terms=10
            )
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


def test_linear_partial_sum_matches_direct_sum():
    fam = PolynomialCoeffs(4.0)
    r = 3.0
    rep = check_linear_conditions(fam, Uniform(-1, 1), "moment_313", r=r, terms=100)
    ks = np.arange(0, 100, dtype=float)
    direct = float(np.sum(ks ** (1.0 / (r - 1.0)) * (ks + 1.0) ** (-4.0 * (r - 2.0) / (r - 1.0))))
    assert rep.partial_sum == pytest.approx(direct, rel=1e-12)


def test_linear_rio_partial_sum_matches_qti():
    fam = GeometricCoeffs(0.5)
    inn = Uniform(0, 1)
    rep = check_linear_conditions(fam, inn, "rio_312", terms=20)
    direct = sum(
        float(quantile_tail_integral(inn, min(max(0.5 ** (2 * k), 1e-300), 1.0)))
        for k in range(20)
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


def test_report_json_fields():
    rep = check_intermittent_threshold(0.25, 0.2)
    import json

    d = json.loads(json.dumps(rep.to_dict()))
    assert set(d) == {"verdict", "partial_sum", "terms_used", "tail_bound", "notes"}
