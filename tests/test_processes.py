import functools
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import w1clt.processes as processes
from w1clt.errors import ValidationError
from w1clt.models import Exponential, ParetoTail, Uniform
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
    with_truncation,
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


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_batch_takes_every_stream_below_2_to_the_64(spec):
    batch = generate_batch(spec, 20, 2, seed=7, first_stream=2**63 - 1)
    for r, stream in enumerate((2**63 - 1, 2**63)):
        assert batch[r].tobytes() == generate(spec, 20, seed=7, stream=stream).values.tobytes()
    with pytest.raises(ValidationError, match="64 bits"):
        generate_batch(spec, 20, 2, seed=7, first_stream=2**64 - 1)
    with pytest.raises(ValidationError, match="first_stream must be >= 0, got -1"):
        generate_batch(spec, 20, 2, seed=7, first_stream=-1)
    for bad in (2.5, "3", True, None):
        with pytest.raises(ValidationError, match="first_stream must be an integer"):
            generate_batch(spec, 20, 2, seed=7, first_stream=bad)
        with pytest.raises(ValidationError, match="n_paths must be an integer"):
            generate_batch(spec, 20, bad, seed=7)
    with pytest.raises(ValidationError, match="n_paths must be >= 1, got 0"):
        generate_batch(spec, 20, 0, seed=7)


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

    real_streams = processes._stream_rngs

    def scripted_spawn(seed, stream=0, purpose=processes.PURPOSE_PATH):
        rng = real_spawn(seed, stream, purpose)
        return _ScriptedRng(scripts[purpose], rng) if stream == 1 else rng

    def scripted_streams(seed, streams, purpose=processes.PURPOSE_PATH):
        # the lane starts of a batch
        for stream, rng in zip(streams, real_streams(seed, streams, purpose)):
            yield _ScriptedRng(scripts[purpose], rng) if stream == 1 else rng

    monkeypatch.setattr(processes, "spawn_rng", scripted_spawn)
    monkeypatch.setattr(processes, "_stream_rngs", scripted_streams)
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


# ---------------------------------------------------------------------------
# independent yardsticks: rows against in-test copies of the per-path formulas
# ---------------------------------------------------------------------------

# generate and generate_batch share the chunk generators, so the row tests
# above compare the code with itself; these compare it with one path at a
# time computed the long way: the full convolution cut to its n full-overlap
# outputs, and the 128-bit window built with a where() per word.  The linear
# rows come from an FFT, so they meet the direct sums to within a rounding
# bound, not bit for bit: eps * (log2(L) + 2) * sum_j |a_j| * max |innovation|
# for a transform of length L.  log2(L) counts the transform's levels (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., section 24.1); the
# 2 counts the pointwise product and the direct sum's own rounding, which
# dominate at L = 2 and 4: in random trials there, gaps reached 1.8 and 1.1
# times the bound with log2(L) alone.

_yardstick = settings(max_examples=60, deadline=None)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _reference_linear_row(spec, n, seed, stream):
    j = with_truncation(spec).truncation
    coeffs = np.asarray(spec.coefficients.coeff(np.arange(j + 1)), dtype=float)
    eps = spec.innovation.quantile(spawn_rng(seed, stream).random(n + j))
    return np.convolve(coeffs, eps)[j:j + n]


def _fft_rounding_bound(spec, n, seed, stream):
    """eps * (log2(L) + 2) * sum_j |a_j| * max |innovation| for a row's transform of length L."""
    j = with_truncation(spec).truncation
    size = 1 << (n + j - 1).bit_length()
    coeffs = np.asarray(spec.coefficients.coeff(np.arange(j + 1)), dtype=float)
    eps = spec.innovation.quantile(spawn_rng(seed, stream).random(n + j))
    levels = math.log2(size) + 2
    return np.finfo(float).eps * levels * np.abs(coeffs).sum() * np.abs(eps).max()


def _reference_doubling_row(spec, n, seed, stream, rng=spawn_rng):
    offsets = spec.burn_in + np.arange(n, dtype=np.int64)
    words = rng(seed, stream).integers(
        0, np.iinfo(np.uint64).max, size=int(offsets[-1] // 64) + 4, dtype=np.uint64,
        endpoint=True,
    )
    q, s = np.divmod(offsets, 64)
    s = s.astype(np.uint64)
    rs = np.where(s == 0, np.uint64(63), np.uint64(64) - s)

    def window(idx):
        return (words[idx] << s) | np.where(s == 0, np.uint64(0), words[idx + 1] >> rs)

    x = window(q) * 2.0**-64 + window(q + 1) * 2.0**-128
    np.maximum(x, 2.0**-128, out=x)
    return x ** (-spec.observable_exponent)


def _innovations():
    # a heavy Pareto tail spreads the rounding of one large draw across its row
    return st.one_of(st.builds(Uniform, _floats(-2.0, 0.0), _floats(0.5, 2.0)),
                     st.builds(Exponential, _floats(0.25, 4.0)),
                     st.builds(ParetoTail, _floats(0.5, 2.0), _floats(1.1, 4.0)))


@st.composite
def _linear_specs(draw):
    if draw(st.booleans()):  # the default truncation rule, at J small enough for full convolution
        family = draw(st.one_of(st.builds(GeometricCoeffs, _floats(0.0, 0.95)),
                                st.builds(PolynomialCoeffs, _floats(3.5, 6.0), _floats(0.5, 3.0))))
        truncation = None
    else:
        family = draw(st.one_of(st.builds(GeometricCoeffs, _floats(0.0, 0.99)),
                                st.builds(PolynomialCoeffs, _floats(1.05, 6.0), _floats(0.5, 3.0))))
        truncation = draw(st.integers(1, 400))
    return CausalLinear(family, draw(_innovations()), truncation)


def _assert_rows_equal_reference(spec, n, seed, stream, reference):
    batch = generate_batch(spec, n, 3, seed, first_stream=stream)
    for r in range(3):
        assert batch[r].tobytes() == reference(spec, n, seed, stream + r).tobytes(), r
    path = generate(spec, n, seed, stream)
    assert path.values.tobytes() == batch[0].tobytes()
    return path


@_yardstick
@given(spec=_linear_specs(), n=st.integers(1, 600), seed=st.integers(0, 2**32),
       stream=st.integers(0, 2**40))
@example(spec=CausalLinear(GeometricCoeffs(0.5), Uniform(0, 1), 1), n=1, seed=1, stream=0)
@example(spec=CausalLinear(PolynomialCoeffs(2.0), Exponential(1.0), 300), n=7, seed=2, stream=5)
@example(spec=CausalLinear(PolynomialCoeffs(2.0), Uniform(-1, 1), 5), n=500, seed=3, stream=9)
def test_linear_rows_equal_the_full_convolution(spec, n, seed, stream):
    batch = generate_batch(spec, n, 3, seed, first_stream=stream)
    for r in range(3):
        gap = np.abs(batch[r] - _reference_linear_row(spec, n, seed, stream + r)).max()
        assert gap <= _fft_rounding_bound(spec, n, seed, stream + r), r
    path = generate(spec, n, seed, stream)
    assert path.values.tobytes() == batch[0].tobytes()
    j = with_truncation(spec).truncation
    assert path.truncation_error_bound == (
        spec.coefficients.abs_tail(j) * spec.innovation.mean_abs()
    )


@_yardstick
@given(a=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), _floats(0.05, 3.0)),
       burn_in=st.sampled_from([0, 63, 64, 65, 1000]), n=st.integers(1, 300),
       seed=st.integers(0, 2**32), stream=st.integers(0, 2**40))
@example(a=1.0, burn_in=0, n=64, seed=4, stream=0)
@example(a=0.25, burn_in=63, n=2, seed=5, stream=1)
@example(a=0.25, burn_in=65, n=129, seed=6, stream=2)
# a word-aligned window whose high word (0x120b6f5543dd74) is below 2**53, so one
# stray bit of the next word would change the float
@example(a=0.25, burn_in=0, n=1, seed=405, stream=0)
def test_doubling_rows_equal_the_bit_window(a, burn_in, n, seed, stream):
    _assert_rows_equal_reference(DoublingMap(a, burn_in=burn_in), n, seed, stream,
                                 _reference_doubling_row)


class _SparseWords:
    """``spawn_rng``'s generator with its words made 0 three times in four and of
    any bit length otherwise, so that steps below 2**-10, which add the low word,
    and all-zero windows, which take the 2**-128 floor, are common."""

    def __init__(self, seed, stream, purpose=processes.PURPOSE_PATH):
        self._rng = spawn_rng(seed, stream, purpose)

    def integers(self, *args, **kwargs):
        w = self._rng.integers(*args, **kwargs)
        return np.where(w % 4 == 0, w >> (w % 64), np.uint64(0))


def _sparse_stream_rngs(seed, streams, purpose=processes.PURPOSE_PATH):
    return (_SparseWords(seed, stream, purpose) for stream in streams)


@pytest.mark.parametrize("burn_in", [0, 1, 63, 64, 65])
def test_doubling_rows_equal_the_bit_window_on_sparse_words(burn_in):
    reference = functools.partial(_reference_doubling_row, rng=_SparseWords)
    with mock.patch.object(processes, "_stream_rngs", _sparse_stream_rngs):
        values = _assert_rows_equal_reference(DoublingMap(0.25, burn_in=burn_in), 300, 7, 2,
                                              reference).values
    # x**-0.25 is 2**32 at the floor and above 2**2.5 for x below 2**-10
    assert (values == 2.0**32).any()
    assert ((values > 2.0**2.5) & (values < 2.0**32)).any()


# the largest word, the top bit alone, the first integer a float cannot hold, and
# words of 53 leading bits (2**52 + 1, odd) and 11 more that round down, tie to
# even (up) and round up, and a tie of an even 2**52 that rounds down
_EDGE_WORDS = [0, 1, 2**64 - 1, 2**63, 2**53 + 1,
               *((2**52 + 1) * 2**11 + k for k in (1023, 1024, 1025)), 2**63 + 1024]


@pytest.mark.parametrize("scale", [2.0**-64, 2.0**-128])
def test_unit_float_rounds_words_once(scale):
    # the two-half conversion equals Python's correctly rounded int -> float, and
    # numpy's direct uint64 * float product it replaces
    words = np.array(_EDGE_WORDS, dtype=np.uint64)
    got = processes._unit_float(words, scale)
    assert got.tolist() == [float(w) * scale for w in _EDGE_WORDS]
    assert got.tobytes() == (words * scale).tobytes()
    assert got[-4] < got[-3] == got[-2] and got[-1] == got[3]


def test_spawn_rng_streams_differ():
    a = spawn_rng(9, 0).random(4)
    b = spawn_rng(9, 1).random(4)
    assert not np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-2**130, 2**130), purpose=st.integers(0, 2**64 - 1),
       streams=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
@example(seed=2**64 + 3, purpose=3, streams=[2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1])
@example(seed=2**128 - 1, purpose=0, streams=[0])
def test_restated_streams_draw_as_a_new_philox(seed, purpose, streams):
    # the row generators re-state one generator per stream; each must draw what a
    # Philox built with that key and counter draws, the counter given as uint64
    # words (numpy turns a list holding an int past the int64 range into float64)
    for stream, rng in zip(streams, processes._stream_rngs(seed, streams, purpose)):
        fresh = np.random.Generator(np.random.Philox(
            key=seed % 2**128, counter=np.array([0, 0, purpose, stream], dtype=np.uint64)))
        assert rng.random(3).tobytes() == fresh.random(3).tobytes()
        assert rng.integers(0, 2**64 - 1, size=2, dtype=np.uint64, endpoint=True).tobytes() \
            == fresh.integers(0, 2**64 - 1, size=2, dtype=np.uint64, endpoint=True).tobytes()
        kept = spawn_rng(seed, stream, purpose)
        fresh = np.random.Generator(np.random.Philox(
            key=seed % 2**128, counter=np.array([0, 0, purpose, stream], dtype=np.uint64)))
        assert kept.random(5).tobytes() == fresh.random(5).tobytes()
        if max(purpose, stream) < 2**63:  # the list form numpy converts exactly
            listed = np.random.Generator(np.random.Philox(key=seed % 2**128,
                                                          counter=[0, 0, purpose, stream]))
            assert spawn_rng(seed, stream, purpose).random(5).tobytes() \
                == listed.random(5).tobytes()


def test_streams_and_purposes_above_2_to_the_63_are_their_own():
    # a counter list rounded 2**63 + 5 to 2**63 and 2**64 - 1 to 0
    draws = [spawn_rng(4, s).random(2).tobytes() for s in (0, 2**63, 2**63 + 5, 2**64 - 1)]
    draws += [spawn_rng(4, 0, p).random(2).tobytes() for p in (2**63, 2**63 + 5)]
    assert len(set(draws)) == 6
    with pytest.raises(ValidationError, match="64 bits"):
        generate(IID(Uniform(0, 1)), 3, seed=4, stream=2**64)


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
    # with rho = 0 only a_0 = 1 survives, so the row is the innovations after
    # the first J = 1, up to the transform's rounding bound
    assert path.truncation_error_bound == 0.0
    rng = spawn_rng(6, 0)
    eps = np.asarray(Exponential(1.0).quantile(rng.random(300 + 1)))
    assert np.abs(path.values - eps[1:]).max() <= _fft_rounding_bound(spec, 300, 6, 0)
    assert iid.values.shape == path.values.shape


def test_geometric_rho_zero_is_one_coefficient():
    fam = GeometricCoeffs(0.0)
    assert fam.coeff(np.arange(4)).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert float(fam.coeff(0)) == 1.0
    assert [fam.abs_tail(j) for j in range(4)] == [0.0] * 4
    assert _default_truncation(fam) == 1


@pytest.mark.parametrize("rho", [0.0, 1e-8, 0.5, 0.999])
def test_geometric_formulas_equal_the_branched_forms(rho):
    # yardsticks: the forms with an explicit a_0 = 1 and an explicit rho = 0 tail
    fam = GeometricCoeffs(rho)
    j = np.arange(5000, dtype=float)
    branched = np.where(j == 0, 1.0, rho ** j)
    assert np.array_equal(fam.coeff(j), branched)
    for k in range(200):
        assert fam.abs_tail(k) == (0.0 if rho == 0.0 else rho ** (k + 1) / (1.0 - rho))


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


def _default_truncation(fam):
    return with_truncation(CausalLinear(fam, Uniform(-1, 1))).truncation


def test_truncation_rule_geometric():
    fam = GeometricCoeffs(0.5)
    spec = CausalLinear(fam, Uniform(0, 1))
    path = generate(spec, 10, seed=1)
    assert path.truncation_error_bound < 1e-8
    # the rule picks the smallest J >= 1 with abs_tail(J) < 1e-8
    for rho in np.geomspace(1e-9, 0.99, 400):
        fam = GeometricCoeffs(float(rho))
        j = _default_truncation(fam)
        assert fam.abs_tail(j) < 1e-8
        assert j == 1 or fam.abs_tail(j - 1) >= 1e-8, rho


def test_truncation_rule_polynomial_and_cap():
    fam = PolynomialCoeffs(4.0)
    j = _default_truncation(fam)
    assert fam.abs_tail(j) < 1e-8 <= fam.abs_tail(j - 1)
    slow = PolynomialCoeffs(1.2)
    with pytest.raises(ValidationError):
        _default_truncation(slow)


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


def test_resource_limit(monkeypatch):
    # the cap is on the transform length L: n + J = 2**23 fits in 256 MiB at 32
    # bytes a point, one more does not, and it is refused before the
    # coefficients are evaluated or any innovation is drawn
    monkeypatch.setattr(GeometricCoeffs, "coeff", _no_work)
    monkeypatch.setattr(processes, "spawn_rng", _no_work)
    monkeypatch.setattr(processes, "_stream_rngs", _no_work)
    spec = CausalLinear(GeometricCoeffs(0.5), Uniform(0, 1), truncation=2**20)
    for make in (lambda n: generate(spec, n, seed=0), lambda n: generate_batch(spec, n, 4, 0)):
        with pytest.raises(ValidationError, match="length 16777216, over the resource limit"):
            make(2**23 - 2**20 + 1)
        with pytest.raises(AssertionError, match="work started"):
            make(2**23 - 2**20)


@pytest.mark.parametrize("n, j", [(5, 11), (2**13 - 300, 300), (2**14 - 7, 7), (1000, 2**14)],
                         ids=["L=2**4", "L=2**13", "L=2**14", "L=2**15"])
def test_linear_rows_match_single_streams_across_row_blocks(n, j):
    # the innovations are transformed in blocks of max(1, 2**14 // L) rows:
    # rows on both sides of each boundary, and in a ragged last block, equal
    # their one-row calls
    spec = CausalLinear(GeometricCoeffs(0.9), ParetoTail(1.0, 1.5), truncation=j)
    block = max(1, processes._FFT_BLOCK // (1 << (n + j - 1).bit_length()))
    batch = generate_batch(spec, n, 2 * block + 1, seed=3, first_stream=9)
    for r in sorted({0, block - 1, block, 2 * block - 1, 2 * block}):
        assert batch[r].tobytes() == generate(spec, n, 3, 9 + r).values.tobytes(), r


def test_stream_rho_and_spec_checks():
    with pytest.raises(ValidationError, match="stream must fit in 64 bits"):
        spawn_rng(1, 2**64)
    with pytest.raises(ValidationError, match="purpose must fit in 64 bits"):
        spawn_rng(1, 0, 2**64)
    with pytest.raises(ValidationError, match="rho in"):
        GeometricCoeffs(1.0)
    with pytest.raises(ValidationError, match="unknown process spec ProcessSpec"):
        generate_batch(processes.ProcessSpec(), 4, 2, seed=0)


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


@pytest.mark.parametrize("make", [
    lambda a: IntermittentMap(0.25, a), lambda a: DoublingMap(a),
], ids=["intermittent", "doubling"])
def test_maps_require_finite_observable_exponent(make):
    # DoublingMap(inf) once built and generated a path of inf values
    for a in (math.inf, math.nan, 0.0):
        with pytest.raises(ValidationError, match="observable exponent must be finite"):
            make(a)


@pytest.mark.parametrize("make, name, least", [
    (lambda v: CausalLinear(GeometricCoeffs(0.5), Uniform(0, 1), truncation=v), "truncation", 1),
    (lambda v: DoublingMap(0.25, burn_in=v), "burn_in", 0),
    (lambda v: IntermittentMap(0.25, 0.4, burn_in=v), "burn_in", 0),
], ids=["truncation", "doubling_burn_in", "intermittent_burn_in"])
def test_specs_take_only_integral_counts(make, name, least):
    # as the wire decoder: 2.5 must neither run as J = 2 nor fail inside an orbit;
    # a None truncation picks J by the tail rule
    for bad in (2.5, True, math.nan, math.inf, "3") + ((None,) if least == 0 else ()):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            make(bad)
    with pytest.raises(ValidationError, match=f"{name} must be >= {least}, got {least - 1}"):
        make(least - 1)
    for good in (3.0, np.int64(3)):
        spec = make(good)
        assert type(getattr(spec, name)) is int
        assert spec == make(3)
        assert spec_from_dict(spec.to_dict()) == spec


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
