import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate
from test_dict_properties import MODELS as ANY_MODEL, _tabulated

from w1clt.errors import ValidationError
from w1clt.models import (
    Exponential,
    ParetoTail,
    Tabulated,
    Uniform,
    model_from_dict,
    power_pushforward,
)
from w1clt.transport import lambda21, quantile_tail_integral, w1_sample_vs_model

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
    # the tail quantile inverts it
    for u in [0.9, 2.0 / 3.0, 0.3, 0.05]:
        t = m.tail_quantile(u)
        assert m.tail(t) <= u + 1e-9
        assert m.tail(t - 1e-9) >= u - 1e-7


def _bisect_tail_quantile(model, u, iters=64):
    """inf{t >= 0 : tail(t) <= u} by vectorized bisection on [0, max |support|]."""
    lo = np.zeros_like(u)
    hi = np.full_like(u, max(abs(b) for b in model.support()))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = np.asarray(model.tail(mid)) <= u
        lo, hi = np.where(below, lo, mid), np.where(below, mid, hi)
    return hi


@settings(max_examples=60, deadline=None)
@given(ANY_MODEL, st.floats(1e-6, 1.0))
# a linear table with an atom of mass 0.1 at its negative first knot
@example(Tabulated([-2.0, -0.5, 0.3, 1.0], [0.1, 0.4, 0.7, 1.0]), 1.0)
# a tail exponent just above 2, where the integral is about 4e5
@example(ParetoTail(1.0, 2.00001), 1.0)
# a linear table whose |Y| cdf rises by about 1e-16 over a knot interval, so the
# tail quantile's slope there is about 1e16
@example(Tabulated([-10.0, -7.647058823529411, -6.470588235294118, -4.117647058823529,
                    0.5882352941176467, 5.294117647058824],
                   [0.0, 0.0, 0.19999999999999996, 0.20000000000000015,
                    0.20000000000000015, 1.0]), 1.0)
def test_tail_quantile_and_its_integral_invert_tail(model, alpha):
    got = quantile_tail_integral(model, alpha)
    if model.tail_exponent() <= 2.0:
        assert got.is_infinite
        return
    # midpoints of 2 int_0^sqrt(alpha) Q(v^2) dv
    n = 2**14
    h = math.sqrt(alpha) / n
    u = ((np.arange(n) + 0.5) * h) ** 2
    q = np.asarray(model.tail_quantile(u))
    # Q(u) = inf{t >= 0 : tail(t) <= u}, up to 1e-9 (1 + t) in t and rounding in u
    dt = 1e-9 * (1.0 + q)
    assert np.all(np.asarray(model.tail(q + dt)) <= u + 1e-14)
    assert np.all(np.asarray(model.tail(q - dt)) >= u - 1e-14)
    top = max(abs(b) for b in model.support())
    if math.isfinite(top):
        # Q(v^2) is nonincreasing and at most top, so the midpoint rule is
        # within 2 h top of the integral whatever the jumps
        yard = 2.0 * h * float(np.sum(_bisect_tail_quantile(model, u)))
        tol = 2.0 * h * top + 1e-9 * (yard + top)
    else:
        # quad's own error estimate sets the tolerance. Q(v^2) grows like
        # v^(-2/r) at 0, so for finite r quad takes that power as its weight:
        # near r = 2 plain quadrature misses almost all of the mass there.
        # The weighted rule samples v = 0, where Q is infinite; the factor
        # left over is read just off it
        r = model.tail_exponent()
        if math.isfinite(r):
            def f(v):
                v = max(v, 1e-150)
                return float(model.tail_quantile(v * v)) * v ** (2.0 / r)
            weight = "alg"
        else:
            f, weight = (lambda v: float(model.tail_quantile(v * v))), None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, abserr = integrate.quad(f, 0.0, math.sqrt(alpha), limit=200, weight=weight,
                                         wvar=(-2.0 / r, 0.0) if weight else None)
        yard, tol = 2.0 * val, 2.0 * abserr + 1e-9 * 2.0 * val
    assert abs(float(got) - yard) <= tol


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


def _antiderivative_per_point_slopes(model, t):
    """Tabulated.cdf_antiderivative forming each slope from four gathers per point."""
    g, v = model.grid, model.cdf_values
    idx = np.clip(np.searchsorted(g, t, side="right") - 1, 0, len(g) - 2)
    dt = np.clip(t, g[0], g[-1]) - g[idx]
    if model.interp == "step":
        local = v[idx] * dt
    else:
        slope = (v[idx + 1] - v[idx]) / (g[idx + 1] - g[idx])
        local = v[idx] * dt + 0.5 * slope * dt**2
    out = model._a_knots[idx] + local + np.maximum(t - g[-1], 0.0)
    return np.where(t < g[0], 0.0, out)


@pytest.mark.parametrize("interp", ["linear", "step"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_antiderivative_per_knot_slopes_bit_identical(interp, data):
    # the slopes are computed once per table; the floats must not move by an ulp
    model = data.draw(_tabulated(interps=(interp,)), label="model")
    g = model.grid
    inside = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    fracs = data.draw(st.lists(inside, min_size=len(g) - 1, max_size=len(g) - 1))
    offsets = data.draw(st.lists(st.floats(1e-9, 1e3), min_size=2, max_size=2))
    t = np.concatenate([
        [g[0] - offsets[0]],  # below
        g,  # on every knot
        g[:-1] + np.asarray(fracs) * np.diff(g),  # between
        [g[-1] + offsets[1]],  # above
    ])
    assert model.cdf_antiderivative(t).tobytes() == _antiderivative_per_point_slopes(
        model, t).tobytes()
    # every t takes the one bucketed knot lookup: long and short sorted t with
    # ties on the knots and points below and above the grid, an unsorted t, a
    # stack of sorted rows and a stack with one unsorted row
    m = len(g)
    extra = data.draw(st.lists(st.floats(g[0] - 5.0, g[-1] + 5.0), min_size=1,
                               max_size=3 * m), label="extra")
    fill = np.linspace(g[0] - 5.0, g[-1] + 5.0, 2048)
    long_sorted = np.sort(np.concatenate([t, g, extra, fill]))
    short_sorted = np.sort(np.concatenate([t, g, extra]))
    unsorted = long_sorted[::-1].copy()
    sorted_stack = np.stack([long_sorted, long_sorted + offsets[1], long_sorted - offsets[0]])
    mixed_stack = np.stack([long_sorted, unsorted])
    for u in (long_sorted, short_sorted, unsorted, sorted_stack, mixed_stack):
        assert model.cdf_antiderivative(u).tobytes() == _antiderivative_per_point_slopes(
            model, u).tobytes()


@st.composite
def _wide_grids(draw):
    """A strictly increasing grid of finite knots, signed or not, whose gaps run
    from a few ulps to 1e300."""
    x = draw(st.floats(-1e300, 1e300))
    grid = [x]
    for ulps, power in draw(st.lists(st.tuples(st.integers(1, 4), st.floats(-300.0, 300.0)),
                                     min_size=1, max_size=40)):
        if draw(st.booleans()):
            for _ in range(ulps):
                x = np.nextafter(x, math.inf)
        else:
            x = max(x + 10.0**power, np.nextafter(x, math.inf))
        assume(math.isfinite(x))
        grid.append(float(x))
    return np.array(grid)


@settings(max_examples=300, deadline=None)
@given(_wide_grids(), st.lists(st.floats(allow_nan=False), max_size=20))
def test_knot_count_is_searchsorted(grid, extra):
    # step tables, since a linear one's slope overflows across a gap of a few ulps
    model = Tabulated(grid, np.linspace(0.0, 1.0, len(grid)), interp="step")
    t = np.sort(np.concatenate([
        grid, np.nextafter(grid, -math.inf), np.nextafter(grid, math.inf),
        [0.0, -0.0, math.inf, -math.inf, grid[0] - 1.0, grid[-1] + 1.0], extra,
    ]))
    assert np.array_equal(model._knot_count(t), np.searchsorted(grid, t, side="right"))
    stack = np.stack([t, t[::-1]])
    assert np.array_equal(model._knot_count(stack), np.searchsorted(grid, stack, side="right"))
    # the invariant the lookup rests on: the bucket does not decrease as t grows
    assert np.all(np.diff(model._bucket(t)) >= 0)
    fullest = int(np.max(np.bincount(model._bucket(grid))))
    assert len(model._steps) <= fullest.bit_length()
    # the lookup's one array stays within the table's own knot arrays
    knot_bytes = grid.nbytes + model.cdf_values.nbytes + model._a_knots.nbytes
    assert model._starts.nbytes <= knot_bytes


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
    for grid, cdf in (([0.0, 0.5, 1.0], [0.0, math.nan, 1.0]),
                      ([0.0, 1.0, math.inf], [0.0, 0.5, 1.0]),
                      ([-math.inf, 0.0, 1.0], [0.0, 0.5, 1.0]),
                      ([0.0, math.nan, 1.0], [0.0, 0.5, 1.0])):
        with pytest.raises(ValidationError, match="must be finite"):
            Tabulated(grid, cdf)


@pytest.mark.parametrize("make, match", [
    (lambda: Exponential(0.0), "rate > 0"),
    (lambda: Exponential(math.inf), "rate > 0"),
    (lambda: power_pushforward(0.0), "exponent > 0"),
    (lambda: power_pushforward(1.0, Tabulated([0.5, 2.0], [0.0, 1.0])), "live on"),
    (lambda: Tabulated([0.0], [1.0]), "at least 2 points"),
    (lambda: Tabulated([0.0, 1.0, 2.0], [0.0, 1.0]), "length mismatch"),
    (lambda: Tabulated([0.0, 1.0], [0.0, 1.0], interp="cubic"), "interp"),
], ids=["exponential-zero-rate", "exponential-inf-rate", "pushforward-exponent",
        "pushforward-base-above-1", "tabulated-one-knot", "tabulated-lengths",
        "tabulated-interp"])
def test_models_reject_out_of_range_parameters(make, match):
    with pytest.raises(ValidationError, match=match):
        make()


def _scaled_quad(fn, scale, lo, hi):
    """int_{scale * lo}^{scale * hi} fn(t) dt, integrated in u = t / scale."""
    val, abserr = integrate.quad(lambda u: float(fn(scale * u)), lo, hi, epsabs=0.0,
                                 epsrel=1e-12, limit=200)
    assert abserr <= 1e-10 * abs(val)
    return scale * val


@pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 7.5])
def test_pareto_tiny_scale_keeps_its_tail(scale):
    # c**r underflowed for a tiny scale: mean_abs read 1e-150 for 1.5e-150
    model = ParetoTail(scale, 3.0)
    assert model.mean_abs() == pytest.approx(1.5 * scale, rel=1e-14)
    assert model.mean_abs() == pytest.approx(
        _scaled_quad(model.tail, scale, 0.0, 1.0) + _scaled_quad(model.tail, scale, 1.0, math.inf),
        rel=1e-10)
    excess = model.upper_mean_excess(2 * scale)
    assert excess == pytest.approx(_scaled_quad(model.tail, scale, 2.0, math.inf), rel=1e-10)
    assert excess == pytest.approx(0.125 * scale, rel=1e-14)  # 1.25e-151 at scale 1e-150


@pytest.mark.parametrize("scale, exponent", [(10, 400), (0.1, 400), (1e200, 2), (1e200, 3),
                                             (1e-200, 3)])
def test_pareto_closed_forms_where_powers_of_the_scale_overflow(scale, exponent):
    # c**r or c**(1 - r) overflows, and no closed form computes either
    model = ParetoTail(scale, exponent)
    t = scale * np.array([0.5, 1.0, 2.0, 1e6])
    u = np.linspace(0.0, 0.99, 7)
    for values in (model.cdf(t), model.quantile(u), model.tail(t), model.tail_quantile(1.0 - u),
                   model.cdf_antiderivative(t), model.upper_mean_excess(t),
                   w1_sample_vs_model(np.stack([t, 2.0 * t]), model)):
        assert np.all(np.isfinite(values))
    assert model.mean_abs() == pytest.approx(
        _scaled_quad(model.tail, scale, 0.0, 1.0) + _scaled_quad(model.tail, scale, 1.0, math.inf),
        rel=1e-10)
    assert model.upper_mean_excess(2 * scale) == pytest.approx(
        _scaled_quad(model.tail, scale, 2.0, math.inf), rel=1e-10)
    assert model.cdf_antiderivative(2 * scale) == pytest.approx(
        _scaled_quad(model.cdf, scale, 1.0, 2.0), rel=1e-10)
    # the |Y| tail integrals are finite exactly when r > 2
    tails = (float(lambda21(model)), model.quantile_tail_integral_exact(0.3))
    assert all(math.isfinite(v) == (exponent > 2) for v in tails)


@pytest.mark.parametrize("scale", [1e-150, 0.5, 2.0])
def test_pareto_exponent_one_antiderivative_matches_quadrature(scale):
    model = ParetoTail(scale, 1.0)
    for t in (0.5 * scale, 1.5 * scale, 40.0 * scale):
        expected = _scaled_quad(model.cdf, scale, 1.0, max(t / scale, 1.0))
        assert model.cdf_antiderivative(t) == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("scale, exponent, t", [(1e-10, 1.001, 1e299), (1e-10, 1.5, 1e299),
                                                (1e-300, 0.01, 1e300), (1e-10, 1.0, 1e299)])
def test_pareto_closed_forms_where_t_over_scale_overflows(scale, exponent, t):
    # c**r * t**(1 - r), and log(t / c) at r = 1, are finite here although t / c is not
    if exponent == 1.0:
        expected = (t - scale) - scale * (math.log(t) - math.log(scale))
    else:
        power = scale**exponent * t ** (1.0 - exponent)
        expected = (t - scale) - (power - scale) / (1.0 - exponent)
    assert ParetoTail(scale, exponent).cdf_antiderivative(t) == pytest.approx(expected, rel=1e-12)
    if exponent > 1.0:
        excess = ParetoTail(scale, exponent).upper_mean_excess(t)
        assert excess == pytest.approx(power / (exponent - 1.0), rel=1e-12)


@pytest.mark.parametrize("scale, exponent", [(1.0, 4.0), (2.0, 1.5), (1e-10, 3.0), (0.5, 1.0)])
def test_pareto_antiderivative_in_place_keeps_the_expression_bits(scale, exponent):
    # the kernel works in place; the whole-expression form it replaced, with the
    # ratio's overflow patched from logarithms, is the bit-for-bit reference
    model = ParetoTail(scale, exponent)
    t = np.concatenate([[-1.0, 0.0, scale], scale * np.geomspace(1.0, 1e6, 997), [1e300]])
    safe = np.maximum(t, scale)
    with np.errstate(over="ignore"):
        ratio = safe / scale
    far = np.isinf(ratio)
    if exponent == 1.0:
        tail_part = scale * np.log(ratio)
        tail_part[far] = scale * (np.log(safe[far]) - math.log(scale))
    else:
        power = scale * ratio ** (1.0 - exponent)
        power[far] = np.exp(exponent * math.log(scale) + (1.0 - exponent) * np.log(safe[far]))
        tail_part = (power - scale) / (1.0 - exponent)
    expected = np.where(t < scale, 0.0, (safe - scale) - tail_part)
    assert model.cdf_antiderivative(t).tobytes() == expected.tobytes()


# supports where every |Y| functional kept its bits when the nonnegative closed
# forms were retired, then nonnegative ones where tail_quantile's last bits moved
_SUPPORTS = [(0.0, 1.0), (-1.0, 1.0), (-1.0, 2.0), (-1.0, 3.0), (0.0, 2.0),
             (0.0, 3.0), (0.5, 1.0), (2.0, 5.0), (0.0, 0.1), (1e-3, 7.3), (0.25, 0.75)]


@pytest.mark.parametrize("lo, hi", _SUPPORTS)
def test_uniform_abs_functionals_are_its_table(lo, hi, monkeypatch):
    model = Uniform(lo, hi)
    table = Tabulated([lo, hi], [0.0, 1.0])
    u = np.linspace(0.0, 1.0, 2001)

    def functionals(m):
        return (m.tail_quantile(u), m.tail_quantile(0.3), m.quantile_tail_integral_exact(0.3),
                m.quantile_tail_integral_exact(1.0))

    expected = functionals(table)
    built = []
    monkeypatch.setattr(Tabulated, "__post_init__", lambda self: built.append(self))
    got = functionals(model)
    assert built == []  # no table is built, so none is folded, per call
    assert np.array_equal(got[0], expected[0])
    assert got[1:] == expected[1:]  # bit for bit
    # the closed-form tail, the quadrature route's integrand, agrees with the table's
    t = np.linspace(-0.5, max(abs(lo), abs(hi)) + 0.5, 2001)
    assert np.allclose(model.tail(t), table.tail(t), rtol=0.0, atol=1e-15)
    if lo >= 0.0:
        # within rounding of the retired closed form hi - u (hi - lo)
        old = np.where(u >= 1.0, 0.0, hi - u * (hi - lo))
        assert np.allclose(got[0], old, rtol=1e-12, atol=0.0)
        assert float(lambda21(model)) == lo + 2.0 * (hi - lo) / 3.0


def test_tabulated_clips_values_within_end_tolerance_above_one():
    tab = Tabulated([0.0, 1.0, 2.0], [0.0, 1.0 + 5e-10, 1.0 + 5e-10])
    assert tab.cdf_values.tolist() == [0.0, 1.0, 1.0]
    assert tab.cdf(1.0) == 1.0
    assert tab.quantile(1.0) == 1.0


def test_tabulated_rejects_overflowing_gaps_and_slopes():
    # a subnormal knot gap overflows the linear slope, which made W1 NaN
    with pytest.raises(ValidationError, match="slope overflows"):
        Tabulated([0.0, 5e-324, 1.0], [0.0, 0.5, 1.0])
    with pytest.raises(ValidationError, match="gaps must be finite"):
        Tabulated([-1e308, 1e308], [0.0, 1.0], interp="step")
    # folding a signed table puts its atom at |grid[0]| one ulp above a knot
    with pytest.raises(ValidationError, match="too close to 0"):
        Tabulated([-1e-300, 1.0], [0.5, 1.0])
    # a step table has no slopes to overflow
    step = Tabulated([0.0, 5e-324, 1.0], [0.0, 0.5, 1.0], interp="step")
    assert w1_sample_vs_model([0.0, 0.3, 0.9], step) == pytest.approx(0.2, rel=1e-12)


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



_POINTWISE = ("cdf", "quantile", "tail", "tail_quantile", "cdf_antiderivative",
              "upper_mean_excess", "quantile_density")
_LEVEL_QUERIES = ("quantile", "tail_quantile", "quantile_density")


@settings(max_examples=60, deadline=None)
@given(ANY_MODEL, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=40), st.booleans())
# a scalar ** 2 (pow) was one ulp off the array path's square here
@example(Uniform(1.8784595318082893, 80.87845953180829), [0.0], [79.95444542789775], False)
# numpy's scalar power (the C library's pow) was off the vector power loop in the
# last bits here, for tail and upper_mean_excess at 30.292 and 61.881 and for
# every level query at 0.7223702289359587
@example(ParetoTail(1.0, 4.0), [0.7223702289359587], [30.292, 61.881, 1.942], False)
# integer bounds made quantile_density's array an int64 one
@example(Uniform(-1, 3), [0.5], [0.0], False)
def test_pointwise_contract(model, levels, points, ascending):
    # a scalar or 0-d query returns a float, a 1-D query a float64 array of its
    # shape holding the scalar results bit for bit, and a 2-D query stacks
    # them by row
    for name in _POINTWISE:
        method = getattr(model, name)
        x = np.array(levels if name in _LEVEL_QUERIES else points)
        if ascending:
            x = np.sort(x)
        queries = [(xi, q) for xi in x for q in (float(xi), np.float64(xi), np.array(xi))]
        if ((name == "quantile_density" and isinstance(model, Tabulated))
                or (name == "upper_mean_excess" and not model.has_finite_mean)):
            for q in (x, *(q for _, q in queries)):
                with pytest.raises(ValidationError):
                    method(q)
            continue
        out = method(x)
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == x.shape
        assert method(np.stack([x, x])).tobytes() == np.stack([out, out]).tobytes(), name
        for i, (xi, q) in enumerate(queries):
            got = method(q)
            assert type(got) is float
            assert np.float64(got).tobytes() == out[i // 3].tobytes(), (name, xi)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_quantile_ends_raise_no_warning(model):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = [model.quantile(1.0), model.tail_quantile(0.0),
                *model.quantile(np.array([1.0])), *model.tail_quantile(np.array([0.0]))]
        if isinstance(model, Tabulated):
            with pytest.raises(ValidationError, match="no differentiable quantile"):
                model.quantile_density(1.0)
        else:
            ends += [model.quantile_density(1.0), *model.quantile_density(np.array([1.0]))]
    if math.isinf(model.support()[1]):  # Exponential and ParetoTail
        assert all(e == math.inf for e in ends)
    else:
        assert all(math.isfinite(e) for e in ends)
