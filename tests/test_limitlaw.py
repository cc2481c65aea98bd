import math

import numpy as np
import pytest
from scipy import integrate

from w1clt.conditions import PhiGeometric, lag_cutoff
from w1clt.errors import NumericalError, ValidationError
from w1clt.limitlaw import (
    CovarianceGrid,
    PsdRepair,
    StatisticSample,
    _repair_psd,
    brownian_bridge_oracle,
    covariance_dependent,
    covariance_iid,
    grid_tail_report,
    quantile_grid,
    sample_limit_functional,
    variance_length_grid,
)
from w1clt.models import ParetoTail, Tabulated, Uniform
from w1clt.processes import (
    IID,
    CausalLinear,
    DoublingMap,
    GeometricCoeffs,
    IntermittentMap,
    PolynomialCoeffs,
    generate,
    with_truncation,
)
from w1clt.harness import ks_two_sample

SQRT_2PI_OVER_8 = math.sqrt(2.0 * math.pi) / 8.0
HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# covariance construction
# ---------------------------------------------------------------------------

def test_covariance_iid_single_point():
    cg = covariance_iid(Uniform(0, 1), [0.5])
    assert cg.matrix == pytest.approx(np.array([[0.25]]))
    assert cg.psd_repair == PsdRepair()


def test_covariance_iid_two_points():
    cg = covariance_iid(Uniform(0, 1), [0.25, 0.75])
    expected = np.array([[0.1875, 0.0625], [0.0625, 0.1875]])
    np.testing.assert_allclose(cg.matrix, expected, atol=1e-15)


def test_covariance_iid_degenerate_point():
    cg = covariance_iid(Uniform(0, 1), [-0.5, 0.5])
    assert np.all(cg.matrix[0] == 0.0)
    assert np.all(cg.matrix[:, 0] == 0.0)


def test_covariance_iid_psd_without_repair_512():
    grid = quantile_grid(Uniform(0, 1), 512)
    cg = covariance_iid(Uniform(0, 1), grid)
    assert cg.psd_repair.jitter_added == 0.0
    w = np.linalg.eigvalsh(cg.matrix)
    assert w.min() >= -1e-10 * np.trace(cg.matrix)


def test_covariance_dependent_iid_cross_check():
    grid = quantile_grid(Uniform(0, 1), 16)
    cg = covariance_dependent(IID(Uniform(0, 1)), grid, lag_cutoff=5,
                              sim_length=1_000_000, seed=31)
    ref = covariance_iid(Uniform(0, 1), grid)
    assert np.max(np.abs(cg.matrix - ref.matrix)) < 5e-3


def test_covariance_dependent_lag0_is_empirical_iid():
    grid = np.array([0.2, 0.5, 0.9])
    spec = IID(Uniform(0, 1))
    cg = covariance_dependent(spec, grid, lag_cutoff=0, sim_length=5000, seed=7)
    from w1clt.processes import generate

    y = generate(spec, 5000, 7, stream=0).values
    f_hat = np.array([(y <= t).mean() for t in grid])
    expected = np.minimum.outer(f_hat, f_hat) - np.outer(f_hat, f_hat)
    np.testing.assert_allclose(cg.matrix, expected, atol=1e-12)


def test_covariance_dependent_doubling_psd_after_repair():
    model = ParetoTail(1.0, 4.0)
    grid = variance_length_grid(model, 64)
    cg = covariance_dependent(DoublingMap(0.25, burn_in=0), grid, lag_cutoff=40,
                              sim_length=200_000, seed=11)
    trace = float(np.trace(cg.matrix))
    assert cg.psd_repair.jitter_added <= 1e-8 * trace
    assert np.linalg.eigvalsh(cg.matrix).min() >= -1e-10 * trace


def _indicator_matmul_reference(y, grid, lag_cutoff):
    """Unrepaired matrix by the former estimator: float matmuls of 0/1 indicators.

    It summed the same integer counts in row chunks to bound memory; chunking
    changes no exact integer sum, so one block gives the same bytes.
    """
    n = y.size
    block = (y[:, None] <= grid[None, :]).astype(float)
    f_hat = block.sum(axis=0) / n
    base = np.outer(f_hat, f_hat)
    matrix = block.T @ block / n - base
    for k in range(1, lag_cutoff + 1):
        cov_k = block[: n - k].T @ block[k:] / (n - k) - base
        matrix += cov_k + cov_k.T
    return matrix


def _right_side_counting_pass(y, grid, lag_cutoff):
    """The binned-count estimator with bins closed on the wrong side (y < grid)."""
    n, m = y.size, len(grid)
    b = np.searchsorted(grid, y, side="right")
    f_hat = np.cumsum(np.bincount(b, minlength=m + 1))[:m] / n
    base = np.outer(f_hat, f_hat)
    matrix = np.minimum.outer(f_hat, f_hat) - base
    for k in range(1, lag_cutoff + 1):
        pairs = np.bincount(b[: n - k] * (m + 1) + b[k:], minlength=(m + 1) ** 2)
        joint = pairs.reshape(m + 1, m + 1).cumsum(axis=0).cumsum(axis=1)[:m, :m]
        cov_k = joint / (n - k) - base
        matrix += cov_k + cov_k.T
    return matrix


_STEP = Tabulated([0.0, 1.0, 2.0, 3.0], [0.2, 0.5, 0.8, 1.0], interp="step")

# (spec, grid, lag_cutoff, sim_length, seed)
_IDENTITY_CASES = {
    "iid_uniform": (IID(Uniform(0, 1)), quantile_grid(Uniform(0, 1), 16), 5, 50_000, 3),
    "iid_step_ties": (IID(_STEP), np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]), 3, 20_000, 4),
    "doubling": (DoublingMap(0.25, burn_in=0), variance_length_grid(ParetoTail(1.0, 4.0), 64),
                 10, 100_000, 501),
    "intermittent": (IntermittentMap(0.25, 0.2, burn_in=1000),
                     quantile_grid(Uniform(1.0, 3.0), 24), 8, 30_000, 6),
    "causal_linear": (CausalLinear(GeometricCoeffs(0.5), Uniform(-1, 1)),
                      quantile_grid(Uniform(-2, 2), 20), 12, 40_000, 8),
    "lag_0": (IID(Uniform(0, 1)), quantile_grid(Uniform(0, 1), 8), 0, 5000, 7),
    "one_point_grid": (DoublingMap(0.25, burn_in=0), np.array([1.2]), 4, 10_000, 9),
    # the largest lag_cutoff that lag_cutoff < sim_length / 10 admits
    "largest_lag": (IID(Uniform(0, 1)), quantile_grid(Uniform(0, 1), 8), 499, 5000, 12),
}


@pytest.mark.parametrize("case", sorted(_IDENTITY_CASES))
def test_covariance_dependent_equals_indicator_matmul_byte_for_byte(case):
    spec, grid, lag, sim_length, seed = _IDENTITY_CASES[case]
    cg = covariance_dependent(spec, grid, lag, sim_length, seed)
    y = generate(spec, sim_length, seed, stream=0).values
    expected, repair = _repair_psd(_indicator_matmul_reference(y, grid, lag))
    assert np.array_equal(cg.matrix, expected)
    assert cg.psd_repair == repair


def test_ties_case_tells_bin_sides_apart():
    # the step law's atoms sit on grid points, so y <= t and y < t differ
    spec, grid, lag, sim_length, seed = _IDENTITY_CASES["iid_step_ties"]
    y = generate(spec, sim_length, seed, stream=0).values
    assert np.isin(y, grid).all()
    reference = _indicator_matmul_reference(y, grid, lag)
    assert not np.array_equal(_right_side_counting_pass(y, grid, lag), reference)


def _doubling_covariance_exact(u, lag_cutoff):
    """Truncated lag series of the indicators {X <= u_i} along the doubling map, exactly.

    X is uniform and T^k X = 2^k X mod 1 is uniform on each of the 2^k dyadic
    pieces of [0, 1), so P(X <= u_s, T^k X <= u_t) = G_k(u_s, u_t) with
    G_k(z, v) = (floor(2^k z) v + min(frac(2^k z), v)) / 2^k.  The complements
    {X > u_i} have the same covariance.
    """
    u = np.asarray(u, dtype=float)
    base = np.outer(u, u)
    matrix = np.minimum.outer(u, u) - base
    for k in range(1, lag_cutoff + 1):
        z = np.ldexp(u, k)
        whole = np.floor(z)
        joint = (whole[:, None] * u[None, :]
                 + np.minimum((z - whole)[:, None], u[None, :])) / 2.0**k
        cov_k = joint - base
        matrix += cov_k + cov_k.T
    return matrix


@pytest.mark.parametrize("sim_length", [2**18, 2**20])
def test_covariance_dependent_doubling_matches_closed_form(sim_length):
    # Criterion 6's grid and lag.  The error is O(1/sqrt(sim_length)): over
    # seeds 1-10 and sim_length 2^16-2^20, max bulk error * sqrt(sim_length)
    # read 2.0-7.6, so c = 12 leaves room for seed-to-seed spread while
    # staying far below the lag terms the estimator must get right.
    c = 12.0
    model = ParetoTail(1.0, 4.0)
    grid = variance_length_grid(model, 64)
    lag = lag_cutoff(PhiGeometric(1.0, 0.5), tol=1e-3)
    assert lag == 10
    # Y = X**-0.25, so {Y <= t} = {X >= t**-4}
    exact = _doubling_covariance_exact(grid ** -4.0, lag)
    bulk = np.asarray(model.tail(grid)) > 1e-3
    assert bulk.sum() == 37
    assert np.linalg.eigvalsh(exact).min() > 0.0
    tol = c / math.sqrt(sim_length)
    lag_part = exact - covariance_iid(model, grid).matrix
    assert np.abs(lag_part[np.ix_(bulk, bulk)]).max() > 10.0 * tol
    cg = covariance_dependent(DoublingMap(0.25, burn_in=0), grid, lag, sim_length, seed=501)
    assert np.abs(cg.matrix - exact)[np.ix_(bulk, bulk)].max() < tol


@pytest.mark.parametrize("sim_length", [2**18, 2**20])
def test_covariance_dependent_linear_matches_the_reversed_doubling_map(sim_length):
    # Y_k = sum_{j<=60} 2^-j eps_{k-j} with fair +-1 innovations is 4 x_k - 2
    # for x_k = 0.b_k b_{k-1}... in binary (eps = 2b - 1), up to 2^-59: the
    # doubling map x_{k-1} = 2 x_k mod 1 run backwards, with Y uniform on
    # (-2, 2).  Time reversal transposes each lag term and the series sums
    # cov_k + cov_k.T, so the limit covariance is the doubling map's at
    # u = (t + 2) / 4.  The tolerance is the doubling test's c / sqrt(sim_length).
    c = 12.0
    step = Tabulated([-1.0, 1.0], [0.5, 1.0], interp="step")
    spec = CausalLinear(GeometricCoeffs(0.5), step, truncation=60)
    grid = quantile_grid(Uniform(-2, 2), 32)
    exact = _doubling_covariance_exact((grid + 2.0) / 4.0, 40)
    tol = c / math.sqrt(sim_length)
    assert np.abs(exact - covariance_iid(Uniform(-2, 2), grid).matrix).max() > 10.0 * tol
    cg = covariance_dependent(spec, grid, 40, sim_length, seed=501)
    assert np.abs(cg.matrix - exact).max() < tol


def test_covariance_dependent_takes_a_long_polynomial_path():
    # the default J = 7070 of PolynomialCoeffs(3.0) once capped sim_length at
    # 37,962 (n * (J + 1) <= 2**28); the transform length n + J <= 2**23 admits it
    spec = CausalLinear(PolynomialCoeffs(3.0), Uniform(-1, 1))
    assert with_truncation(spec).truncation == 7070
    grid = quantile_grid(Uniform(-1, 1), 12)
    cg = covariance_dependent(spec, grid, 12, 60_000, 8)
    assert cg.matrix.shape == (12, 12) and np.isfinite(cg.matrix).all()
    assert np.array_equal(cg.matrix, cg.matrix.T)


def test_covariance_dependent_validates_lag():
    with pytest.raises(ValidationError):
        covariance_dependent(IID(Uniform(0, 1)), [0.5], lag_cutoff=1000,
                             sim_length=5000, seed=0)


def test_covariance_grid_validates_symmetry():
    with pytest.raises(ValidationError):
        CovarianceGrid(np.array([0.0, 1.0]),
                       np.array([[1.0, 0.5], [0.2, 1.0]]), 0, PsdRepair(), "analytic_iid")


@pytest.mark.parametrize("grid, matrix, match", [
    ([0.0, 1.0], np.eye(3), "shape"),
    ([1.0, 0.0], np.eye(2), "strictly increasing"),
    ([0.0, 1.0], np.diag([-1.0, 1.0]), "diagonal"),
    ([0.0, 1.0], [[1.0, 2.0], [2.0, 1.0]], "PSD"),
], ids=["shape", "decreasing-grid", "negative-diagonal", "indefinite"])
def test_covariance_grid_validates_shape_grid_and_psd(grid, matrix, match):
    with pytest.raises(ValidationError, match=match):
        CovarianceGrid(np.array(grid), np.array(matrix), 0, PsdRepair(), "analytic_iid")


# ---------------------------------------------------------------------------
# sampling the limit functional
# ---------------------------------------------------------------------------

def test_degenerate_zero_covariance():
    cg = CovarianceGrid(np.array([0.5]), np.array([[0.0]]), 0, PsdRepair(), "analytic_iid")
    s = sample_limit_functional(cg, 100, seed=1)
    assert np.all(s.values == 0.0)


def test_single_point_half_normal_mean():
    # one grid point, unit variance: trapezoid weight degenerates to 0 width,
    # so use two close points bracketing it instead of a special case
    cg = CovarianceGrid(np.array([0.0, 1.0]), np.eye(2), 0, PsdRepair(), "analytic_iid")
    s = sample_limit_functional(cg, 200_000, seed=5)
    # integral = 0.5 * (|G0| + |G1|), each |G_i| half-normal with mean 0.797885
    assert float(np.mean(s.values)) == pytest.approx(HALF_NORMAL_MEAN, abs=3e-3)
    assert HALF_NORMAL_MEAN == pytest.approx(0.797885, abs=1e-6)
    assert np.all(s.values >= 0)


def test_scaling_covariance_scales_replicates():
    grid = quantile_grid(Uniform(0, 1), 32)
    cg1 = covariance_iid(Uniform(0, 1), grid)
    c = 2.0
    cg4 = CovarianceGrid(grid, c**2 * cg1.matrix, 0, PsdRepair(), "analytic_iid")
    s1 = sample_limit_functional(cg1, 500, seed=9)
    s4 = sample_limit_functional(cg4, 500, seed=9)
    np.testing.assert_allclose(s4.values, c * s1.values, rtol=1e-9, atol=1e-12)


def test_limit_mean_matches_brownian_bridge_constant():
    grid = quantile_grid(Uniform(0, 1), 512)
    cg = covariance_iid(Uniform(0, 1), grid)
    s = sample_limit_functional(cg, 30_000, seed=3)
    assert float(np.mean(s.values)) == pytest.approx(SQRT_2PI_OVER_8, abs=3e-3)


def test_grid_refinement_invariance():
    r = 10_000
    samples = []
    for size in (256, 512):
        cg = covariance_iid(Uniform(0, 1), quantile_grid(Uniform(0, 1), size))
        samples.append(sample_limit_functional(cg, r, seed=13).values)
    assert ks_two_sample(samples[0], samples[1]) < 0.02


# ---------------------------------------------------------------------------
# Brownian bridge oracle
# ---------------------------------------------------------------------------

def test_bridge_constant_verified_by_quadrature_then_sampled():
    # E int_0^1 |B(u)| du = int sqrt(2 u (1-u) / pi) du, checked by quadrature
    target, _ = integrate.quad(lambda u: math.sqrt(2.0 * u * (1.0 - u) / math.pi), 0, 1)
    assert target == pytest.approx(SQRT_2PI_OVER_8, abs=1e-12)
    s = brownian_bridge_oracle(Uniform(0, 1), 30_000, mesh=512, seed=21)
    assert float(np.mean(s.values)) == pytest.approx(SQRT_2PI_OVER_8, abs=3e-3)


def test_bridge_single_interior_point():
    s = brownian_bridge_oracle(Uniform(0, 1), 200_000, mesh=1, seed=2)
    # statistic is 0.5 * |B(0.5)|; E|B(0.5)| = sqrt(1/(2 pi))
    assert float(np.mean(s.values)) == pytest.approx(0.5 * math.sqrt(0.5 / math.pi),
                                                     abs=2e-3)


def test_bridge_matches_covariance_route_in_law():
    size = 256
    r = 20_000
    bridge = brownian_bridge_oracle(Uniform(0, 1), r, mesh=size, seed=17)
    cg = covariance_iid(Uniform(0, 1), quantile_grid(Uniform(0, 1), size))
    direct = sample_limit_functional(cg, r, seed=23)
    assert ks_two_sample(bridge.values, direct.values) < 0.02


def test_bridge_rejects_nondifferentiable_quantile():
    tab = Tabulated([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValidationError):
        brownian_bridge_oracle(tab, 10, mesh=8, seed=0)
    # (1 - u)**(-1 - 1/r) overflows on the mesh for r = 0.001
    with pytest.raises(ValidationError, match="finite on the mesh"):
        brownian_bridge_oracle(ParetoTail(1.0, 0.001), 10, mesh=10, seed=0)


# ---------------------------------------------------------------------------
# grids and reports
# ---------------------------------------------------------------------------

def test_quantile_grid_levels():
    g = quantile_grid(Uniform(0, 1), 4)
    np.testing.assert_allclose(g, [0.125, 0.375, 0.625, 0.875])


def test_variance_length_grid_covers_heavy_tail():
    model = ParetoTail(1.0, 4.0)
    g_q = quantile_grid(model, 64)
    g_v = variance_length_grid(model, 64)
    # the sqrt-variance grid must reach far beyond the quantile grid
    assert g_v[-1] > 3.0 * g_q[-1]
    rep_q = grid_tail_report(model, g_q)
    rep_v = grid_tail_report(model, g_v)
    assert rep_v["sqrt_variance_mass_above"] < 0.1 * rep_q["sqrt_variance_mass_above"]


def test_quantile_grid_drops_tied_quantiles_of_a_step_table():
    # F jumps to 0.5 at 0 and to 0.8 at 1: the eight levels take only three quantiles
    step = Tabulated([0.0, 1.0, 2.0], [0.5, 0.8, 1.0], interp="step")
    np.testing.assert_array_equal(quantile_grid(step, 8), [0.0, 1.0, 2.0])


def test_grid_tail_report_finite_support_and_heavy_tail():
    sd = lambda t: math.sqrt(t * (1.0 - t))
    rep = grid_tail_report(Uniform(0, 1), np.array([0.25, 0.75]))
    mass = integrate.quad(sd, 0.0, 0.25)[0]
    assert rep["sqrt_variance_mass_below"] == pytest.approx(mass, rel=1e-9)
    assert rep["sqrt_variance_mass_above"] == pytest.approx(mass, rel=1e-9)
    assert grid_tail_report(Uniform(0, 1), np.array([0.0, 1.0])) == {
        "sqrt_variance_mass_below": 0.0, "sqrt_variance_mass_above": 0.0}
    # sqrt(1 - F) = t^(-r/2) is not integrable at infinity for r <= 2
    for r in (2.0, 1.5):
        assert grid_tail_report(ParetoTail(1.0, r), np.array([2.0, 3.0]))[
            "sqrt_variance_mass_above"] == math.inf


def _failing_eigh(monkeypatch, failures):
    """Make np.linalg.eigh raise LinAlgError on its first ``failures`` calls;
    returns the list of matrices it was called with."""
    real, calls = np.linalg.eigh, []

    def eigh(matrix):
        calls.append(matrix)
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("forced")
        return real(matrix)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls


def test_repair_psd_escalates_jitter_after_a_failed_eigh(monkeypatch):
    matrix = covariance_iid(Uniform(0, 1), [0.25, 0.5, 0.75]).matrix
    calls = _failing_eigh(monkeypatch, 2)
    repaired, repair = _repair_psd(matrix)
    jitter = 1e-11 * np.trace(matrix)  # 1e-12 trace, then ten times that
    assert repair.jitter_added == pytest.approx(jitter, rel=1e-12)
    assert len(calls) == 3
    np.testing.assert_array_equal(calls[2], matrix + repair.jitter_added * np.eye(3))
    np.testing.assert_allclose(repaired, matrix + jitter * np.eye(3), atol=1e-15)


def test_repair_psd_and_sampler_raise_when_eigh_always_fails(monkeypatch):
    matrix = covariance_iid(Uniform(0, 1), [0.25, 0.75]).matrix
    calls = _failing_eigh(monkeypatch, math.inf)
    with pytest.raises(NumericalError, match="jitter escalation"):
        _repair_psd(matrix)
    assert len(calls) == 8
    cg = CovarianceGrid(np.array([0.25, 0.75]), matrix, 0, PsdRepair(), "analytic_iid")
    with pytest.raises(NumericalError, match="factorization failed"):
        sample_limit_functional(cg, 10, seed=1)


def test_covariance_grid_json_fields():
    import json

    cg = covariance_iid(Uniform(0, 1), [0.25, 0.75])
    d = json.loads(json.dumps(cg.to_dict()))
    assert set(d) == {"grid", "matrix", "lag_cutoff", "psd_repair", "source"}
    assert d["psd_repair"] == {"jitter_added": 0.0, "eigenvalues_clipped": 0}
    assert d["source"] == "analytic_iid"


def test_statistic_sample_validation_and_csv():
    import io

    s = StatisticSample(np.array([0.3, 0.1]), "finite_n", {"n": 2})
    buf = io.StringIO()
    s.to_csv(buf)
    assert buf.getvalue().splitlines()[0] == "value"
    back = StatisticSample.read_csv_values(io.StringIO(buf.getvalue()))
    np.testing.assert_allclose(back, [0.1, 0.3])
    with pytest.raises(ValidationError):
        StatisticSample(np.array([-0.1]), "finite_n")
    with pytest.raises(ValidationError):
        StatisticSample(np.array([0.1]), "bogus")
    with pytest.raises(ValidationError, match="abc"):
        StatisticSample.read_csv_values(io.StringIO("value\n0.5\nabc\n"))
