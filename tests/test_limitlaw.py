import math

import numpy as np
import pytest
from scipy import integrate

from w1clt.errors import ValidationError
from w1clt.limitlaw import (
    CovarianceGrid,
    PsdRepair,
    StatisticSample,
    brownian_bridge_oracle,
    covariance_dependent,
    covariance_iid,
    grid_tail_report,
    quantile_grid,
    sample_limit_functional,
    variance_length_grid,
)
from w1clt.models import ParetoTail, Tabulated, Uniform
from w1clt.processes import DoublingMap, IID
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


def test_covariance_dependent_validates_lag():
    with pytest.raises(ValidationError):
        covariance_dependent(IID(Uniform(0, 1)), [0.5], lag_cutoff=1000,
                             sim_length=5000, seed=0)


def test_covariance_grid_validates_symmetry():
    with pytest.raises(ValidationError):
        CovarianceGrid(np.array([0.0, 1.0]),
                       np.array([[1.0, 0.5], [0.2, 1.0]]), 0, PsdRepair(), "analytic_iid")


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
