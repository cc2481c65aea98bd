import math

import numpy as np
import pytest

from w1clt.errors import ValidationError
from w1clt.models import (
    Exponential,
    ParetoTail,
    Tabulated,
    Uniform,
    model_from_dict,
    power_pushforward,
)

MODELS = [
    Uniform(0.0, 1.0),
    Uniform(-1.0, 2.0),
    Exponential(1.0),
    Exponential(0.5),
    ParetoTail(1.0, 3.0),
    ParetoTail(2.0, 4.5),
    power_pushforward(0.25),
    Tabulated([0.0, 0.5, 1.0, 2.0], [0.0, 0.3, 0.8, 1.0], interp="linear"),
    Tabulated([0.0, 0.5, 1.0, 2.0], [0.1, 0.3, 0.8, 1.0], interp="step"),
]


def _probe_points(model):
    lo, hi = model.support()
    lo = lo if math.isfinite(lo) else -10.0
    hi = hi if math.isfinite(hi) else lo + 50.0
    pad = 0.5 * (hi - lo)
    return np.linspace(lo - pad, hi + pad, 401)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_cdf_monotone_and_limits(model):
    t = _probe_points(model)
    f = np.asarray(model.cdf(t))
    assert np.all(np.diff(f) >= -1e-15)
    assert f[0] == 0.0
    assert np.all((f >= 0) & (f <= 1))
    assert model.cdf(float(model.quantile(1.0 - 1e-10))) >= 1.0 - 1e-9


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_quantile_is_generalized_inverse(model):
    u = np.linspace(0.01, 0.99, 99)
    q = np.asarray(model.quantile(u))
    assert np.all(np.diff(q) >= -1e-12)
    # cadlag inverse: F(Q(u)) >= u and F(Q(u) - eps) < u
    f_at = np.asarray(model.cdf(q))
    assert np.all(f_at >= u - 1e-9)
    eps = 1e-9 * np.maximum(1.0, np.abs(q))
    f_before = np.asarray(model.cdf(q - eps))
    assert np.all(f_before < u + 1e-7)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_tail_matches_cdf_on_nonnegative_support(model):
    lo, _ = model.support()
    if lo < 0:
        pytest.skip("signed support handled separately")
    t = np.abs(_probe_points(model))
    np.testing.assert_allclose(
        np.asarray(model.tail(t)), 1.0 - np.asarray(model.cdf(t)), atol=1e-12
    )


def test_tail_with_signed_support():
    m = Uniform(-1.0, 2.0)
    # P(|Y| > 0.5) = P(Y > 0.5) + P(Y < -0.5) = 1.5/3 + 0.5/3
    assert m.tail(0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert m.tail(-3.0) == 1.0
    assert m.tail(2.5) == 0.0
    # bisection inverse agrees
    for u in [0.9, 2.0 / 3.0, 0.3, 0.05]:
        t = m.tail_quantile(u)
        assert m.tail(t) <= u + 1e-9
        assert m.tail(t - 1e-9) >= u - 1e-7


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_antiderivative_differentiates_to_cdf(model):
    lo, hi = model.support()
    hi = hi if math.isfinite(hi) else lo + 20.0
    t = np.linspace(lo, hi, 201)[1:-1]
    h = 1e-6 * max(1.0, hi - lo)
    a = np.asarray(model.cdf_antiderivative(t))
    a_plus = np.asarray(model.cdf_antiderivative(t + h))
    deriv = (a_plus - a) / h
    f_mid = np.asarray(model.cdf(t + 0.5 * h))
    assert np.max(np.abs(deriv - f_mid)) < 1e-4


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_upper_mean_excess_matches_riemann(model):
    if not model.has_finite_mean:
        pytest.skip("infinite mean")
    lo, hi = model.support()
    t0 = lo + 0.3 * ((hi if math.isfinite(hi) else lo + 5.0) - lo)
    top = hi if math.isfinite(hi) else model.quantile(1.0 - 1e-12)
    mesh = np.linspace(t0, top, 400_001)
    riemann = np.trapezoid(1.0 - np.asarray(model.cdf(mesh)), mesh)
    assert model.upper_mean_excess(t0) == pytest.approx(riemann, rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_mean_abs_matches_quantile_integral(model):
    # E|Y| = int_0^1 Q_|Y|(u) du, midpoint rule
    if model.support()[0] < 0:
        # signed support: check the analytic value instead
        assert model.mean_abs() == pytest.approx(5.0 / 6.0, rel=1e-9)
        return
    u = (np.arange(200_000) + 0.5) / 200_000
    q = np.asarray(model.tail_quantile(u))
    assert model.mean_abs() == pytest.approx(float(np.mean(q)), rel=2e-3)


def test_power_pushforward_lebesgue_is_pareto():
    m = power_pushforward(0.25)
    assert m == ParetoTail(1.0, 4.0)
    assert m.density_bound == 4.0
    t = np.linspace(0.5, 30.0, 200)
    expected = np.where(t < 1.0, 0.0, 1.0 - np.minimum(t, 1e300) ** -4.0)
    np.testing.assert_allclose(np.asarray(m.cdf(t)), expected, atol=1e-12)
    assert model_from_dict({"kind": "power_pushforward", "exponent": 0.25}) == m


def test_power_pushforward_tabulated_base_roundtrip():
    # base CDF G(x) = x on a fine grid: pushforward should match the Pareto law
    x = np.linspace(1e-4, 1.0, 4001)
    base = Tabulated(x, x / x[-1], interp="linear")
    m = power_pushforward(0.25, base)
    assert isinstance(m, Tabulated) and m.interp == "linear"
    exact = power_pushforward(0.25)
    t = np.linspace(1.0, 8.0, 50)
    np.testing.assert_allclose(
        np.asarray(m.cdf(t)), np.asarray(exact.cdf(t)), atol=2e-4
    )


def test_power_pushforward_rejects_step_base():
    # a step base's jumps do not map onto the transformed table's linear pieces
    step = Tabulated([0.2, 0.5, 1.0], [0.3, 0.6, 1.0], "step")
    with pytest.raises(ValidationError, match="linear"):
        power_pushforward(1.0, step)
    with pytest.raises(ValidationError, match="linear"):
        model_from_dict({"kind": "power_pushforward", "exponent": 1.0, "base": step.to_dict()})
    for base in ("uniform", Uniform(0.0, 1.0)):
        with pytest.raises(ValidationError, match="lebesgue"):
            power_pushforward(1.0, base)


def test_tabulated_from_sample_is_empirical_cdf():
    v = [3.0, 1.0, 2.0, 2.0]
    m = Tabulated.from_sample(v)
    assert m.cdf(0.9) == 0.0
    assert m.cdf(1.0) == pytest.approx(0.25)
    assert m.cdf(2.0) == pytest.approx(0.75)
    assert m.cdf(3.5) == 1.0
    # cadlag inverse on the tabulated grid
    assert m.quantile(0.25) == 1.0
    assert m.quantile(0.26) == 2.0
    assert m.quantile(0.75) == 2.0
    assert m.quantile(1.0) == 3.0


def test_tabulated_validation_errors():
    with pytest.raises(ValidationError):
        Tabulated([0.0, 0.0, 1.0], [0.0, 0.5, 1.0])
    with pytest.raises(ValidationError):
        Tabulated([0.0, 1.0], [0.5, 0.4])
    with pytest.raises(ValidationError):
        Tabulated([0.0, 1.0], [0.0, 0.7])


def test_tabulated_equality_compares_arrays():
    grid, cdf = [0.1, 0.5, 1.0], [0.2, 0.6, 1.0]
    tab = Tabulated(grid, cdf)
    same = Tabulated(np.array(grid), np.array(cdf))
    assert tab == same and not tab != same
    assert tab != Tabulated(grid, [0.2, 0.7, 1.0])
    assert tab != Tabulated([0.1, 0.6, 1.0], cdf)
    assert tab != Tabulated(grid, cdf, interp="step")
    assert tab != Uniform(0.1, 1.0)
    assert power_pushforward(0.3, tab) == power_pushforward(0.3, same)
    assert power_pushforward(0.3, tab) != power_pushforward(0.3, Tabulated(grid, [0.2, 0.7, 1.0]))
    assert power_pushforward(0.3, tab) != power_pushforward(0.4, tab)


def test_model_dict_roundtrip():
    for m in MODELS:
        m2 = model_from_dict(m.to_dict())
        t = _probe_points(m)
        np.testing.assert_allclose(
            np.asarray(m.cdf(t)), np.asarray(m2.cdf(t)), atol=1e-14
        )
        with pytest.raises(ValidationError, match="stray"):
            model_from_dict({**m.to_dict(), "stray": 1})


def test_density_bound_metadata():
    assert Uniform(0, 2).density_bound == pytest.approx(0.5)
    assert Exponential(3.0).density_bound == pytest.approx(3.0)
    assert ParetoTail(1.0, 3.0).density_bound == pytest.approx(3.0)
    assert Tabulated([0, 1], [0, 1]).density_bound is None
