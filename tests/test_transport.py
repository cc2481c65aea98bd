import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.stats import wasserstein_distance

from test_dict_properties import MODELS, _tabulated, _uniform
from w1clt import transport
from w1clt.errors import DivergenceError, NumericalError, ValidationError
from w1clt.models import Exponential, ParetoTail, Tabulated, Uniform
from w1clt.processes import tabulate_cdf
from w1clt.transport import (
    ExtendedReal,
    as_sorted_sample,
    ks_two_sample,
    lambda21,
    quantile_tail_integral,
    sqrt_tail_integral,
    w1_sample_vs_model,
    w1_two_samples,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def riemann_w1_two_samples(x, y, mesh=1e-5):
    """Brute-force grid integration of |F_x - F_y|."""
    x = np.sort(np.asarray(x, float))
    y = np.sort(np.asarray(y, float))
    lo = min(x[0], y[0]) - 1.0
    hi = max(x[-1], y[-1]) + 1.0
    t = np.arange(lo, hi, mesh)
    fx = np.searchsorted(x, t, side="right") / x.size
    fy = np.searchsorted(y, t, side="right") / y.size
    return float(np.sum(np.abs(fx - fy)) * mesh)


def riemann_w1_sample_vs_model(sample, model, mesh):
    s = np.sort(np.asarray(sample, float))
    lo = min(model.support()[0], s[0]) - 0.5
    hi = max(model.quantile(1 - 1e-9), s[-1]) + 0.5
    t = np.arange(lo, hi, mesh)
    fn = np.searchsorted(s, t, side="right") / s.size
    return float(np.sum(np.abs(fn - np.asarray(model.cdf(t)))) * mesh)


def midpoint_qti(model, alpha, eps, cells=200_000):
    """Log-spaced midpoint rule for int_eps^alpha Q(u)/sqrt(u) du."""
    edges = np.exp(np.linspace(math.log(eps), math.log(alpha), cells + 1))
    mid = np.sqrt(edges[:-1] * edges[1:])
    q = np.asarray(model.tail_quantile(mid))
    return float(np.sum(q / np.sqrt(mid) * np.diff(edges)))


# ---------------------------------------------------------------------------
# w1_two_samples
# ---------------------------------------------------------------------------

def test_point_masses_distance():
    assert w1_two_samples([0, 0, 0], [1, 1, 1]) == pytest.approx(1.0, abs=1e-15)


def test_translation_by_one():
    assert w1_two_samples([1, 2, 3], [2, 3, 4]) == pytest.approx(1.0, abs=1e-12)


def test_unequal_sizes_vs_riemann_oracle():
    x = [0.0, 1.0]
    y = [0.0, 0.0, 3.0, 3.0]
    exact = w1_two_samples(x, y)
    assert exact == pytest.approx(riemann_w1_two_samples(x, y), abs=1e-4)
    assert exact == pytest.approx(1.0, abs=1e-12)  # |F| gap is 0.5 on [1, 3)


def test_rejects_non_finite():
    with pytest.raises(ValidationError):
        w1_two_samples([0.0, np.nan], [1.0])
    with pytest.raises(ValidationError):
        w1_two_samples([], [1.0])


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [0.5, np.inf], [-np.inf], []],
                         ids=["nan", "inf", "minus-inf", "empty"])
def test_every_sample_intake_rejects_non_finite_and_empty(bad):
    # ks_two_sample([nan, 1], [0.5, 2]) once returned 0.5, and tabulate_cdf
    # counted a NaN as mass beyond the grid
    good = [0.5, 2.0]
    for call in (lambda: ks_two_sample(bad, good), lambda: ks_two_sample(good, bad),
                 lambda: tabulate_cdf(bad, [0.0, 1.0]), lambda: Tabulated.from_sample(bad)):
        with pytest.raises(ValidationError, match="sample"):
            call()


_SMALL_SAMPLE = st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=30)


@given(_SMALL_SAMPLE, _SMALL_SAMPLE)
@settings(max_examples=100, deadline=None)
def test_ks_is_sup_gap_over_pooled_points(x, y):
    # the pooled-sample formula the statistic always had, for ties too
    xs, ys = np.sort(x), np.sort(y)
    pooled = np.concatenate([xs, ys])
    expected = np.max(np.abs(np.searchsorted(xs, pooled, side="right") / xs.size
                             - np.searchsorted(ys, pooled, side="right") / ys.size))
    assert ks_two_sample(x, y) == float(expected)


def test_coupling_identity_randomized():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 128))
        x = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        y = rng.normal(size=n) + rng.uniform(-2, 2)
        lhs = w1_two_samples(x, y)
        rhs = float(np.mean(np.abs(np.sort(x) - np.sort(y))))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_matches_scipy_reference():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.exponential(size=int(rng.integers(1, 60)))
        y = rng.normal(size=int(rng.integers(1, 60)))
        assert w1_two_samples(x, y) == pytest.approx(
            wasserstein_distance(x, y), rel=1e-10, abs=1e-12
        )


def test_triangle_inequality_randomized():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.normal(size=20)
        y = rng.uniform(-1, 4, size=35)
        z = rng.exponential(size=11)
        assert w1_two_samples(x, z) <= w1_two_samples(x, y) + w1_two_samples(y, z) + 1e-12


def test_translation_equivariance():
    rng = np.random.default_rng(11)
    for c in [-2.5, -0.1, 0.7, 10.0]:
        x = rng.normal(size=64)
        assert w1_two_samples(x + c, x) == pytest.approx(abs(c), abs=1e-12)


# ---------------------------------------------------------------------------
# w1_sample_vs_model
# ---------------------------------------------------------------------------

def test_single_point_vs_uniform():
    assert w1_sample_vs_model([0.5], Uniform(0, 1)) == pytest.approx(0.25, abs=1e-15)


def test_quantile_midpoints_vs_riemann_oracle():
    m = Uniform(0, 1)
    s = np.asarray(m.quantile((np.arange(1, 5) - 0.5) / 4))
    exact = w1_sample_vs_model(s, m)
    oracle = riemann_w1_sample_vs_model(s, m, mesh=1e-6)
    assert exact == pytest.approx(oracle, abs=1e-5)
    assert exact == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_identity_against_own_empirical_cdf():
    rng = np.random.default_rng(5)
    s = rng.normal(size=40)
    m = Tabulated.from_sample(s)
    assert w1_sample_vs_model(s, m) == pytest.approx(0.0, abs=1e-12)


def test_random_samples_vs_riemann_oracle():
    rng = np.random.default_rng(9)
    for m in [Uniform(0, 1), Exponential(1.0), ParetoTail(1.0, 4.0)]:
        s = np.asarray(m.quantile(rng.uniform(0.001, 0.999, size=23)))
        exact = w1_sample_vs_model(s, m)
        oracle = riemann_w1_sample_vs_model(s, m, mesh=2e-5)
        assert exact == pytest.approx(oracle, rel=1e-3, abs=2e-4)


def test_samples_outside_model_support():
    # order statistics below/above the support exercise the pure tail pieces
    cases = [
        ([-1.0, 0.2, 0.8, 3.0], Uniform(0, 1)),
        ([-2.0, -1.0], Uniform(0, 1)),
        ([5.0, 6.0], Uniform(0, 1)),
        ([-1.0, 0.5, 10.0], Exponential(1.0)),
        ([0.2, 0.5, 2.0], ParetoTail(1.0, 4.0)),
    ]
    for sample, m in cases:
        exact = w1_sample_vs_model(sample, m)
        assert exact == pytest.approx(riemann_w1_sample_vs_model(sample, m, 1e-5),
                                      rel=1e-3, abs=5e-4)
    # entirely-below case has a closed form: distance to U(0,1) mean structure
    assert w1_sample_vs_model([-2.0, -1.0], Uniform(0, 1)) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
def test_w1_rejects_nonpositive_or_nan_tail_tol(tol):
    with pytest.raises(ValidationError, match="tail_tol"):
        w1_sample_vs_model([0.2, 0.7], Uniform(0, 1), tol)


def test_infinite_mean_model_raises_with_diagnostic():
    heavy = ParetoTail(1.0, 0.9)
    with pytest.raises(DivergenceError) as err:
        w1_sample_vs_model([1.0, 2.0], heavy)
    assert "r=0.9" in err.value.diagnostic


def test_quantile_form_agreement():
    # int |F_n - F| dt = int_0^1 |F_n^{-1}(u) - F^{-1}(u)| du
    rng = np.random.default_rng(13)
    for m in [Uniform(0, 1), Exponential(1.0)]:
        s = np.sort(np.asarray(m.quantile(rng.uniform(0.01, 0.99, size=16))))
        n = s.size
        total = 0.0
        for i in range(n):
            piece, _ = integrate.quad(
                lambda u, si=s[i]: abs(si - float(m.quantile(u))),
                i / n,
                (i + 1) / n,
                epsabs=1e-12,
                limit=100,
            )
            total += piece
        assert w1_sample_vs_model(s, m) == pytest.approx(total, abs=1e-6)


def test_permutation_invariance():
    rng = np.random.default_rng(21)
    s = rng.exponential(size=50)
    m = Exponential(1.0)
    assert w1_sample_vs_model(s[::-1], m) == w1_sample_vs_model(s, m)


# ---------------------------------------------------------------------------
# w1_sample_vs_model properties, every model kind
# ---------------------------------------------------------------------------

def clip_then_antiderivative_w1(sample, model):
    """The W1 formula with A evaluated at the clipped quantiles.

    A copy kept as the bit-for-bit yardstick of the fast path, which selects
    A(t*) from the values already known at Q(i/n) and at the order statistics.
    """
    s = np.sort(np.asarray(sample, dtype=float))
    n = s.size
    a_s = np.asarray(model.cdf_antiderivative(s), dtype=float)
    total = float(np.atleast_1d(a_s)[0])
    if n > 1:
        levels = np.arange(1, n) / n
        t_star = np.clip(np.asarray(model.quantile(levels), dtype=float), s[:-1], s[1:])
        a_t = np.asarray(model.cdf_antiderivative(t_star), dtype=float)
        below = levels * (t_star - s[:-1]) - (a_t - a_s[:-1])
        above = (a_s[1:] - a_t) - levels * (s[1:] - t_star)
        total += float(np.sum(np.maximum(below, 0.0) + np.maximum(above, 0.0)))
    total += float(model.upper_mean_excess(s[-1]))
    return total


@st.composite
def model_and_sample(draw):
    """A finite-mean model and a sample with ties, of any size from 1, reaching
    past both ends of the model's support."""
    model = draw(MODELS.filter(lambda m: m.has_finite_mean))
    lo, hi = model.support()
    if not math.isfinite(hi):
        hi = float(model.quantile(0.999))
    width = max(hi - lo, 1e-3)
    inside = st.floats(0.0, 0.999).map(lambda u: float(model.quantile(u)))
    anywhere = st.floats(lo - width, hi + width, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.one_of(inside, anywhere), min_size=1, max_size=8))
    sample = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    return model, np.asarray(sample)


_w1_settings = settings(max_examples=100, deadline=None)


@settings(max_examples=200, deadline=None)
@given(model_and_sample())
def test_w1_fast_path_matches_clip_formula_bit_for_bit(case):
    model, x = case
    expected = clip_then_antiderivative_w1(x, model)
    assert w1_sample_vs_model(x, model) == expected


@st.composite
def model_and_stack(draw):
    """A finite-mean model, a stack of rows of one length drawn (with ties)
    from values inside and past both ends of its support, and a block size."""
    model, pool = draw(model_and_sample())
    n = draw(st.sampled_from([1, 2, 8, 9, 129]))
    rows = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    stack = rng.choice(pool, size=(rows, n))
    # from one row per block to every row in one block, most leaving a ragged last block
    block = draw(st.integers(1, rows * n + n))
    return model, stack, block


@_w1_settings
@given(model_and_stack())
def test_w1_stacked_rows_equal_one_row_calls(case):
    # a 1-D call is a one-row stack; blocks of one row up to every row must
    # give the same bits
    model, stack, block = case
    single = np.array([w1_sample_vs_model(row, model) for row in stack])
    with mock.patch.object(transport, "_W1_BLOCK_VALUES", block):
        out = w1_sample_vs_model(stack, model)
    assert type(out) is np.ndarray and out.shape == (len(stack),)
    assert out.tobytes() == single.tobytes()


@pytest.mark.parametrize("model", [Uniform(0, 1), Exponential(1.0), ParetoTail(1.0, 3.0),
                                   Tabulated([0.0, 0.5, 1.0, 2.0], [0.0, 0.3, 0.8, 1.0],
                                             interp="linear")], ids=repr)
def test_w1_matches_clip_formula_with_quantiles_on_order_statistics(model):
    # samples drawn from the quantiles Q(i/n) and their float neighbours, with ties,
    # so that Q(i/n) falls exactly on an interval's lower or upper end, or inside
    rng = np.random.default_rng(31)
    on_lo = on_hi = 0
    for n in (2, 3, 8, 33):
        q = model.quantile(np.arange(1, n) / n)
        pool = np.concatenate([q, np.nextafter(q, -np.inf), np.nextafter(q, np.inf)])
        stack = rng.choice(pool, size=(6, n))
        out = w1_sample_vs_model(stack, model)
        for row, got in zip(stack, out):
            assert got == clip_then_antiderivative_w1(row, model)
            s = np.sort(row)
            on_lo += np.count_nonzero(q == s[:-1])
            on_hi += np.count_nonzero((q == s[1:]) & (s[:-1] < s[1:]))
    assert on_lo and on_hi


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("block", [4, 2**14])
def test_w1_stack_with_one_bad_value_raises(bad, block):
    stack = np.tile(np.linspace(0.1, 0.9, 4), (5, 1))
    stack[3, 2] = bad  # in the last of several blocks, or in the only one
    with mock.patch.object(transport, "_W1_BLOCK_VALUES", block):
        with pytest.raises(ValidationError, match="non-finite"):
            w1_sample_vs_model(stack, Uniform(0, 1))


@pytest.mark.parametrize("sample", [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((2, 2, 2))],
                         ids=["no rows", "empty rows", "3-D"])
def test_w1_rejects_empty_or_3d_stacks(sample):
    with pytest.raises(ValidationError, match="nonempty|2-D"):
        w1_sample_vs_model(sample, Uniform(0, 1))


@_w1_settings
@given(model_and_sample())
def test_w1_zero_against_own_empirical_cdf(case):
    _, x = case
    # zero up to rounding: the step table's antiderivative is a cumulative sum
    w1 = w1_sample_vs_model(x, Tabulated.from_sample(x))
    assert 0.0 <= w1 <= 1e-12 * (1.0 + float(np.max(np.abs(x))))


@_w1_settings
@given(model_and_sample())
def test_w1_bounds_mean_gap(case):
    model, x = case
    # E Y = int_0^inf (1 - F) - int_-inf^0 F
    mean = float(model.upper_mean_excess(0.0)) - float(model.cdf_antiderivative(0.0))
    gap = abs(float(np.mean(x)) - mean)
    scale = 1.0 + abs(mean) + float(np.max(np.abs(x)))
    assert w1_sample_vs_model(x, model) >= gap - 1e-12 * scale


# ---------------------------------------------------------------------------
# lambda21 / quantile_tail_integral
# ---------------------------------------------------------------------------

def test_lambda21_uniform():
    assert float(lambda21(Uniform(0, 1))) == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_lambda21_exponential():
    assert float(lambda21(Exponential(1.0))) == pytest.approx(2.0, abs=1e-9)


def test_lambda21_pareto_divergence_flag():
    res = lambda21(ParetoTail(1.0, 2.0))
    assert res.is_infinite
    assert "r=2" in res.diagnostic


def test_lambda21_closed_form_vs_quadrature_route():
    for m in [Uniform(0, 1), Exponential(2.0), ParetoTail(1.5, 3.5)]:
        assert float(lambda21(m)) == pytest.approx(
            float(sqrt_tail_integral(m, 0.0)), rel=1e-8
        )


def test_sqrt_tail_integral_divergent_and_past_the_support():
    res = sqrt_tail_integral(ParetoTail(1.0, 2.0))
    assert res.is_infinite and "r=2" in res.diagnostic
    assert float(sqrt_tail_integral(Uniform(0, 1), lower=2.0)) == 0.0


@pytest.mark.parametrize("lower", [math.nan, -math.inf])
def test_sqrt_tail_integral_rejects_nan_or_minus_infinity_lower(lower):
    with pytest.raises(ValidationError, match="lower"):
        sqrt_tail_integral(Exponential(1.0), lower=lower)


def test_quad_raises_where_it_does_not_converge():
    with pytest.raises(NumericalError, match="did not converge"):
        transport.quad(lambda t: math.sin(1.0 / t) / t, 1e-12, 1.0)
    # a NaN value and error estimate fail the accuracy check too
    with pytest.raises(NumericalError, match="did not converge"):
        transport.quad(lambda t: math.nan, 0.0, 1.0)


@pytest.mark.parametrize("value, match", [(-1.0, "nonnegative"), (math.nan, "nonnegative"),
                                          (math.inf, "diagnostic")])
def test_extended_real_rejects_negative_or_unexplained_infinity(value, match):
    with pytest.raises(ValidationError, match=match):
        ExtendedReal(value)


def _midpoint_sqrt_tail(model, per_piece=2000):
    """Midpoint rule for int_0^inf sqrt(tail) between the breakpoints 0 and |knot| of a
    Tabulated (its grid) or Uniform (its support) model.  Where the tail falls to 0 at
    a knot its root does too, which costs the rule about 1e-6 relative at 2,000 points
    a piece and 3e-8 at 20,000."""
    points = model.grid if isinstance(model, Tabulated) else model.support()
    knots = np.unique(np.concatenate([[0.0], np.abs(points)]))
    gaps = np.diff(knots)
    t = knots[:-1, None] + gaps[:, None] * ((np.arange(per_piece) + 0.5) / per_piece)
    roots = np.sqrt(np.asarray(model.tail(t.ravel()))).reshape(t.shape)
    return float(np.sum(roots.mean(axis=1) * gaps))


def _calibrated_pareto4(knots):
    x = ParetoTail(1.0, 4.0).quantile(np.random.default_rng(3).random(200_000))
    return tabulate_cdf(x, np.quantile(x, (np.arange(knots) + 0.5) / knots))


@pytest.mark.parametrize("table", [
    _calibrated_pareto4(60),
    _calibrated_pareto4(2048),  # global quadrature over this many kinks does not converge
    Tabulated([-1.3, -0.2, 0.4, 0.9, 2.5], [0.05, 0.3, 0.45, 0.8, 1.0]),
    Tabulated([-1.3, -0.2, 0.4, 0.9, 2.5], [0.05, 0.3, 0.45, 0.8, 1.0], interp="step"),
], ids=["calibrated-60", "calibrated-2048", "signed-linear", "signed-step"])
def test_lambda21_tabulated_closed_form(table):
    assert float(lambda21(table)) == pytest.approx(_midpoint_sqrt_tail(table), rel=1e-6)


_LAMBDA21_MODELS = st.one_of(_uniform, st.builds(Exponential, st.floats(0.01, 100.0)),
                             st.builds(ParetoTail, st.floats(0.1, 10.0), st.floats(2.01, 100.0)),
                             _tabulated())


@settings(max_examples=200, deadline=None)
@given(_LAMBDA21_MODELS)
# a tail mass below an ulp of 1, which 1 - F_|Y| at the folded knots rounded away
@example(Tabulated([-10.0, 0.0], [2.96059473e-16, 1.0], interp="step"))
def test_lambda21_matches_a_t_space_route_for_every_kind(model):
    # lambda21 is half the quantile tail integral at 1; both references integrate
    # sqrt(tail) in t.  Tabulated and Uniform tails have kinks at |knots|, which the
    # midpoint rule takes piece by piece; the other tails are smooth past the one
    # kink sqrt_tail_integral starts its quadrature at
    if isinstance(model, (Tabulated, Uniform)):
        reference = _midpoint_sqrt_tail(model, per_piece=20_000)
    else:
        reference = float(sqrt_tail_integral(model))
    assert float(lambda21(model)) == pytest.approx(reference, rel=1e-6)


@pytest.mark.parametrize("model", [Uniform(-10.0, -9.99), ParetoTail(1e-3, 200.0),
                                   ParetoTail(1e6, 5.0), ParetoTail(1.6640625, 4.0)], ids=repr)
def test_sqrt_tail_integral_meets_lambda21_across_a_kink_far_from_scale_one(model):
    # one quad across the kink at the support's lower end read 10.0 (9.996667),
    # 5.1e-36 (1.0101e-3), raised, and 3.3281291 (3.328125), in this order
    assert float(sqrt_tail_integral(model)) == pytest.approx(float(lambda21(model)), rel=1e-9)


def test_sqrt_tail_integral_rejects_a_negative_quadrature():
    # the integrand is nonnegative, so a negative result is a failed quadrature
    with mock.patch.object(transport, "quad", return_value=-1e-3):
        with pytest.raises(NumericalError, match="returned"):
            sqrt_tail_integral(ParetoTail(1e6, 5.0))


def test_qti_uniform_quarter():
    val = quantile_tail_integral(Uniform(0, 1), 0.25)
    assert float(val) == pytest.approx(11.0 / 12.0, abs=1e-9)


def test_qti_vanishing_alpha():
    # vanishes as alpha -> 0+, at the model's own rate
    for m in [Uniform(0, 1), Exponential(1.0), ParetoTail(1.0, 3.0)]:
        tiny = float(quantile_tail_integral(m, 1e-12))
        assert 0.0 < tiny < 0.05 * float(quantile_tail_integral(m, 1.0))
        assert tiny < float(quantile_tail_integral(m, 1e-6))


def test_qti_pareto_vs_midpoint_oracle():
    m = ParetoTail(1.0, 3.0)
    exact = float(quantile_tail_integral(m, 0.5))
    # eps-extrapolated midpoint oracle: value(eps) + known eps^{1/6} head term
    vals = []
    for eps in [1e-6, 1e-8]:
        head = 6.0 * eps ** (1.0 / 6.0)  # int_0^eps u^{-5/6} du
        vals.append(midpoint_qti(m, 0.5, eps) + head)
    assert exact == pytest.approx(vals[-1], rel=1e-4)
    assert exact == pytest.approx(6.0 * 0.5 ** (1.0 / 6.0), rel=1e-9)


def test_qti_divergent_flag():
    res = quantile_tail_integral(ParetoTail(1.0, 1.5), 0.5)
    assert res.is_infinite


def test_qti_tabulated_exact_piecewise():
    # fine linear tabulation of Uniform(0,1): exact piecewise value must match
    # the analytic 2 sqrt(a) - (2/3) a^(3/2)
    grid = np.linspace(0.0, 1.0, 2001)
    tab = Tabulated(grid, grid)
    for alpha in [0.03, 0.25, 0.9, 1.0]:
        analytic = 2.0 * math.sqrt(alpha) - (2.0 / 3.0) * alpha**1.5
        assert float(quantile_tail_integral(tab, alpha)) == pytest.approx(
            analytic, rel=1e-6
        )
    # step mode against the log-midpoint oracle
    rng = np.random.default_rng(8)
    step = Tabulated.from_sample(rng.exponential(size=50))
    val = float(quantile_tail_integral(step, 0.7))
    oracle = midpoint_qti(step, 0.7, 1e-10)
    assert val == pytest.approx(oracle, rel=1e-4)


def test_qti_tabulated_signed_support_folds_to_abs():
    # tabulation of Uniform(-1, 2): the |Y| law has P(|Y| <= t) = 2t/3 on
    # [0, 1] and (1 + t)/3 on [1, 2]; compare against a direct quadrature of
    # its tail quantile
    grid = np.linspace(-1.0, 2.0, 1501)
    tab = Tabulated(grid, (grid + 1.0) / 3.0)
    got = float(quantile_tail_integral(tab, 0.6))
    exact_model = Uniform(-1.0, 2.0)
    oracle = integrate.quad(
        lambda u: float(exact_model.tail_quantile(u)) / math.sqrt(u), 0.0, 0.6,
        epsabs=1e-12, limit=200,
    )[0]
    assert got == pytest.approx(oracle, rel=1e-5)


def test_qti_validates_alpha():
    with pytest.raises(ValidationError):
        quantile_tail_integral(Uniform(0, 1), 0.0)
    with pytest.raises(ValidationError):
        quantile_tail_integral(Uniform(0, 1), 1.5)


def test_fubini_identity_min_form():
    # int_0^inf min(sqrt(a), sqrt(tail)) dt == 0.5 * qti(m, a)
    for m, alpha in [
        (Uniform(0, 1), 0.25),
        (Uniform(0, 1), 0.9),
        (Exponential(1.0), 0.1),
        (ParetoTail(1.0, 4.0), 0.3),
    ]:
        t_alpha = float(m.tail_quantile(alpha))
        lhs = math.sqrt(alpha) * t_alpha + float(sqrt_tail_integral(m, t_alpha))
        rhs = 0.5 * float(quantile_tail_integral(m, alpha))
        assert lhs == pytest.approx(rhs, rel=1e-6)
    # worked instance
    t_alpha = float(Uniform(0, 1).tail_quantile(0.25))
    lhs = 0.5 * t_alpha + float(sqrt_tail_integral(Uniform(0, 1), t_alpha))
    assert lhs == pytest.approx(11.0 / 24.0, abs=1e-9)


def test_sorted_sample_contract():
    s = as_sorted_sample([3.0, 1.0, 2.0])
    assert list(s) == [1.0, 2.0, 3.0]
    with pytest.raises(ValidationError):
        as_sorted_sample([np.inf])
    stack = [[3.0, 1.0], [0.0, -1.0]]
    assert as_sorted_sample(stack).tolist() == [-1.0, 0.0, 1.0, 3.0]
    assert as_sorted_sample(stack, rows=True).tolist() == [[1.0, 3.0], [-1.0, 0.0]]
    with pytest.raises(ValidationError, match="non-finite"):
        as_sorted_sample([[0.0, 1.0], [np.nan, 2.0]], rows=True)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 4), n=st.integers(1, 9), data=st.data(),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_sorted_sample_rejects_a_non_finite_value_anywhere(rows, n, data, bad):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    stack = np.array(data.draw(st.lists(finite, min_size=rows * n, max_size=rows * n)))
    stack = stack.reshape(rows, n)
    stack[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, n - 1))] = bad
    for sample, kwargs in ((stack.ravel(), {}), (stack, {"rows": True}), (stack, {})):
        with pytest.raises(ValidationError, match="non-finite"):
            as_sorted_sample(sample, **kwargs)
