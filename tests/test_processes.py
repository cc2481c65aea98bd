import io
import math

import numpy as np
import pytest

import w1clt.processes as processes
from w1clt.errors import ValidationError
from w1clt.models import Exponential, Uniform
from w1clt.processes import (
    CausalLinear,
    DoublingMap,
    GeometricCoeffs,
    IID,
    IntermittentMap,
    PolynomialCoeffs,
    generate,
    generate_batch,
    spawn_rng,
    spec_from_dict,
    tabulate_cdf,
)
from w1clt.transport import w1_sample_vs_model


# ---------------------------------------------------------------------------
# intermittent map step
# ---------------------------------------------------------------------------

def test_intermittent_orbit_follows_the_map():
    # gamma = 1/2: T(x) = x (1 + sqrt(2) sqrt(x)) below 1/2, 2x - 1 above;
    # a = 1 makes each value the reciprocal of the state
    values = generate(IntermittentMap(0.5, 1.0, burn_in=0), 10, seed=3, stream=1).values
    x = spawn_rng(3, 1).random()
    branches = set()
    for v in values:
        branches.add(x < 0.5)
        x = x * (1.0 + math.sqrt(2.0) * math.sqrt(x)) if x < 0.5 else 2.0 * x - 1.0
        assert 1.0 / v == pytest.approx(x, rel=1e-12, abs=0)
    assert branches == {True, False}
    for gamma in (0.0, 1.5):
        with pytest.raises(ValidationError, match="gamma"):
            IntermittentMap(gamma, 1.0)


# ---------------------------------------------------------------------------
# determinism and the splitting rule
# ---------------------------------------------------------------------------

SPECS = [
    IID(Uniform(0, 1)),
    IntermittentMap(0.25, 0.2, burn_in=50),
    DoublingMap(0.25, burn_in=16),
    CausalLinear(GeometricCoeffs(0.5), Uniform(-1, 1)),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_generate_bitwise_reproducible(spec):
    a = generate(spec, 200, seed=77, stream=3)
    b = generate(spec, 200, seed=77, stream=3)
    assert np.array_equal(a.values, b.values)
    c = generate(spec, 200, seed=77, stream=4)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_batch_rows_match_single_streams(spec):
    batch = generate_batch(spec, 150, 5, seed=123, first_stream=2)
    for r in range(5):
        single = generate(spec, 150, seed=123, stream=2 + r)
        assert np.array_equal(batch[r], single.values), f"lane {r} differs"


@pytest.mark.parametrize("burn_in", [0, 7])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
def test_intermittent_batch_rows_match_across_store_blocks(n, burn_in):
    # the lane loop buffers _STORE_ROWS = 256 steps per copy into the output:
    # lengths on, just before and just after a block boundary, and a ragged last block
    spec = IntermittentMap(0.25, 0.2, burn_in=burn_in)
    batch = generate_batch(spec, n, 5, seed=123, first_stream=2)
    for r in range(5):
        single = generate(spec, n, seed=123, stream=2 + r)
        assert np.array_equal(batch[r], single.values), f"lane {r} differs"


def test_intermittent_batch_chunk_invariant():
    # lane values must not depend on how replicates are grouped into batches
    spec = IntermittentMap(0.25, 0.2, burn_in=50)
    full = generate_batch(spec, 200, 6, seed=123, first_stream=0)
    left = generate_batch(spec, 200, 2, seed=123, first_stream=0)
    right = generate_batch(spec, 200, 4, seed=123, first_stream=2)
    assert np.array_equal(full, np.vstack([left, right]))


class _ScriptedRng:
    """Returns the scripted draws first, then those of the real generator."""

    def __init__(self, script, rng):
        self.script, self.rng = list(script), rng

    def random(self):
        return self.script.pop(0) if self.script else self.rng.random()


def test_intermittent_exact_zero_states_reseed_in_order(monkeypatch, caplog):
    # Start draws 0 (redrawn) then 0.75; 0.75 -> 0.5 -> 0 hits the neutral
    # fixed point.  The first reseed draws 0.75 again, so the lane hits 0 a
    # second time and its second reseed must take the generator's next draw.
    real_spawn = processes.spawn_rng
    scripts = {processes.PURPOSE_PATH: [0.0, 0.75], processes.PURPOSE_RESEED: [0.75]}

    def scripted_spawn(seed, stream=0, purpose=processes.PURPOSE_PATH):
        rng = real_spawn(seed, stream, purpose)
        return _ScriptedRng(scripts[purpose], rng) if stream == 1 else rng

    monkeypatch.setattr(processes, "spawn_rng", scripted_spawn)
    spec = IntermittentMap(0.25, 1.0, burn_in=0)
    with caplog.at_level("INFO", logger="w1clt.processes"):
        single = generate(spec, 40, seed=5, stream=1).values
    second = real_spawn(5, 1, processes.PURPOSE_RESEED).random()  # follows the scripted 0.75
    assert second != 0.75
    # states: the redrawn start 0.75 maps to 0.5 (not a guard value), the first
    # reseed, 0.5 again, then the second reseed takes the next draw in order
    expected = np.array([0.5, 0.75, 0.5, second]) ** -1.0
    assert np.array_equal(single[:4], expected)
    assert any("re-randomized" in r.msg and r.args[0] == 2 for r in caplog.records)
    batch = generate_batch(spec, 40, 3, seed=5, first_stream=0)
    assert np.array_equal(batch[1], single)
    for r in (0, 2):
        assert np.array_equal(batch[r], generate(spec, 40, seed=5, stream=r).values)


def test_spawn_rng_streams_differ():
    a = spawn_rng(9, 0).random(4)
    b = spawn_rng(9, 1).random(4)
    assert not np.array_equal(a, b)


def test_iid_draws_through_model_quantile():
    spec = IID(Exponential(2.0))
    path = generate(spec, 1000, seed=5)
    u = spawn_rng(5, 0).random(1000)
    assert np.array_equal(path.values, -np.log1p(-u) / 2.0)


# ---------------------------------------------------------------------------
# map-range invariants and marginals
# ---------------------------------------------------------------------------

def test_intermittent_observable_range():
    path = generate(IntermittentMap(0.4, 0.3, burn_in=100), 20_000, seed=3)
    assert np.all(path.values >= 1.0 - math.ulp(1.0))
    assert np.all(np.isfinite(path.values))


def test_doubling_observable_range():
    path = generate(DoublingMap(0.25, burn_in=0), 50_000, seed=8)
    assert np.all(path.values >= 1.0 - math.ulp(1.0))


def test_doubling_marginal_matches_closed_form():
    # f(x) = x**-0.25 under the uniform invariant law: P(Y <= t) = 1 - t**-4
    n = 1_000_000
    path = generate(DoublingMap(0.25, burn_in=0), n, seed=17)
    t = np.linspace(1.0, 12.0, 400)
    emp = np.searchsorted(np.sort(path.values), t, side="right") / n
    exact = 1.0 - t**-4.0
    assert np.max(np.abs(emp - exact)) < 5e-3


def test_doubling_consecutive_states_follow_the_map():
    # observable y = x**-a, so x = y**-1/a must satisfy x' = 2x mod 1 up to
    # the bits dropped by the float conversion
    path = generate(DoublingMap(1.0, burn_in=0), 1000, seed=2)
    x = 1.0 / path.values
    pred = np.mod(2.0 * x[:-1], 1.0)
    assert np.max(np.abs(pred - x[1:])) < 1e-12


def test_intermittent_two_half_stationarity():
    n = 1_000_000
    path = generate(IntermittentMap(0.25, 0.2, burn_in=10_000), n, seed=29)
    half = n // 2
    a = np.sort(path.values[:half])
    b = np.sort(path.values[half:])
    t = np.quantile(path.values, np.linspace(0.001, 0.999, 200))
    fa = np.searchsorted(a, t, side="right") / half
    fb = np.searchsorted(b, t, side="right") / half
    assert np.max(np.abs(fa - fb)) < 1e-2


def test_reversal_leaves_w1_statistic_unchanged():
    # F_n only sees the multiset of values, which justifies forward-orbit
    # simulation standing in for the reversed Markov chain
    m = Uniform(0, 1)
    path = generate(IID(m), 500, seed=4)
    assert w1_sample_vs_model(path.values[::-1], m) == w1_sample_vs_model(path.values, m)


# ---------------------------------------------------------------------------
# causal linear processes
# ---------------------------------------------------------------------------

def test_degenerate_geometric_family_is_iid():
    spec = CausalLinear(GeometricCoeffs(0.0), Exponential(1.0))
    path = generate(spec, 300, seed=6)
    iid = generate(IID(Exponential(1.0)), 300, seed=6)
    # with rho = 0 only a_0 = 1 survives, but the innovation buffer is offset
    # by J; compare against a directly computed convolution instead
    assert path.truncation_error_bound == 0.0
    rng = spawn_rng(6, 0)
    eps = np.asarray(Exponential(1.0).quantile(rng.random(300 + 1)))
    assert np.allclose(path.values, eps[1:], atol=0)
    assert iid.values.shape == path.values.shape


def test_linear_small_case_hand_convolution():
    fam = GeometricCoeffs(0.5)
    spec = CausalLinear(fam, Uniform(0, 1), truncation=2)
    path = generate(spec, 4, seed=11)
    rng = spawn_rng(11, 0)
    eps = np.asarray(Uniform(0, 1).quantile(rng.random(6)))
    expected = np.array(
        [eps[k + 2] + 0.5 * eps[k + 1] + 0.25 * eps[k] for k in range(4)]
    )
    assert np.allclose(path.values, expected, atol=1e-15)
    assert path.truncation_error_bound == pytest.approx(fam.abs_tail(2) * 0.5)


def test_truncation_rule_geometric():
    fam = GeometricCoeffs(0.5)
    spec = CausalLinear(fam, Uniform(0, 1))
    path = generate(spec, 10, seed=1)
    assert path.truncation_error_bound < 1e-8
    # the rule picks the smallest J >= 1 with abs_tail(J) < 1e-8
    from w1clt.processes import _resolve_truncation

    for rho in np.geomspace(1e-9, 0.99, 400):
        fam = GeometricCoeffs(float(rho))
        j = _resolve_truncation(fam, None)
        assert fam.abs_tail(j) < 1e-8
        assert j == 1 or fam.abs_tail(j - 1) >= 1e-8, rho


def test_truncation_rule_polynomial_and_cap():
    fam = PolynomialCoeffs(4.0)
    from w1clt.processes import _resolve_truncation

    j = _resolve_truncation(fam, None)
    assert fam.abs_tail(j) < 1e-8 <= fam.abs_tail(j - 1)
    slow = PolynomialCoeffs(1.2)
    with pytest.raises(ValidationError):
        _resolve_truncation(slow, None)


def test_resource_limit():
    spec = CausalLinear(GeometricCoeffs(0.5), Uniform(0, 1), truncation=2**20)
    with pytest.raises(ValidationError):
        generate(spec, 2**10, seed=0)


def test_coefficient_family_sums():
    g = GeometricCoeffs(0.5)
    assert g.abs_tail(3) == pytest.approx(0.5**4 / 0.5)
    p = PolynomialCoeffs(2.0, 1.0)
    brute = sum((j + 1.0) ** -2.0 for j in range(4, 200_000))
    assert p.abs_tail(3) == pytest.approx(brute, rel=1e-4)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibrate_iid_uniform_dkw():
    grid = np.linspace(0.0, 1.0, 512)
    model = tabulate_cdf(generate(IID(Uniform(0, 1)), 1_000_000, seed=13).values, grid)
    gap = np.abs(np.asarray(model.cdf(grid)) - np.clip(grid, 0, 1))
    assert np.max(gap) < 2e-3


def test_calibrate_doubling_matches_closed_form():
    grid = np.linspace(1.0, 15.0, 800)
    model = tabulate_cdf(generate(DoublingMap(0.25, burn_in=0), 1_000_000, seed=19).values, grid)
    exact = 1.0 - grid**-4.0
    # interior gap; the final grid point is forced to 1 by the tail cutoff
    f = np.asarray(model.cdf(grid[:-1]))
    assert np.max(np.abs(f - exact[:-1])) < 5e-3


def test_calibrate_two_point_grid():
    model = tabulate_cdf(generate(IID(Uniform(0, 1)), 1000, seed=1).values, [0.5, 2.0])
    assert model.cdf(0.5) == pytest.approx(0.5, abs=0.05)
    assert model.cdf(2.0) == 1.0


def test_tabulate_cdf_validates_grid():
    with pytest.raises(ValidationError):
        tabulate_cdf([1.0, 2.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_path_csv_header_carries_spec_and_seed():
    path = generate(IID(Uniform(0, 1)), 5, seed=42, stream=1)
    buf = io.StringIO()
    path.to_csv(buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0].startswith("# w1clt-path ")
    assert '"seed": 42' in lines[0]
    assert '"variant": "iid"' in lines[0]
    assert lines[1] == "value"
    assert len(lines) == 7


def test_spec_dict_roundtrip():
    for spec in SPECS:
        back = spec_from_dict(spec.to_dict())
        assert back == spec
        with pytest.raises(ValidationError, match="stray"):
            spec_from_dict({**spec.to_dict(), "stray": 1})
