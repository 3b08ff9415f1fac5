import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from stablesum import cf_oracle
from stablesum.cf_oracle import (
    JDepthError,
    JPolicy,
    aggregated_coefficients,
    cf_convergence_sweep,
    default_frequency_grid,
    exact_fdd_log_cf,
    inverse_v_transform,
    limit_log_cf,
    v_transform,
)
from stablesum.innovations import exact_stable
from stablesum.linear_process import (
    FddSpec,
    ProcessSpec,
    floor_index,
    normalized_fdd_sample,
    partial_sums,
)
from stablesum.slowly_varying import SlowlyVaryingSpec, coefficient, constant
from stablesum.stable_law import SkewedStableParams
from stablesum.verification import ecf

ELL1 = constant(1.0)
SYM15 = SkewedStableParams(1.5, 1.0, 0.0)
finite_floats = st.floats(-20.0, 20.0, allow_nan=False)


class TestVTransform:
    def test_single(self):
        np.testing.assert_allclose(v_transform([5.0]), [5.0])

    def test_ones(self):
        np.testing.assert_allclose(v_transform([1.0, 1.0, 1.0]), [3.0, 2.0, 1.0])

    def test_mixed(self):
        np.testing.assert_allclose(v_transform([3.0, -1.0]), [2.0, -1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            v_transform([])

    @given(st.lists(finite_floats, min_size=1, max_size=8))
    def test_inverse(self, u):
        np.testing.assert_allclose(inverse_v_transform(v_transform(u)), u,
                                   rtol=1e-12, atol=1e-12)


class TestAggregatedCoefficients:
    def test_hand_sums(self):
        agg = aggregated_coefficients(ELL1, 3, [1.0], 4)
        assert agg.value(1, 0) == pytest.approx(11.0 / 6.0, rel=1e-14)
        assert agg.value(1, 2) == pytest.approx(1.0, rel=1e-14)
        assert agg.value(1, -1) == pytest.approx(13.0 / 12.0, rel=1e-14)

    def test_prefix_identity(self):
        # a_j^{[N t_i]} = S_{[N t_i]-j} - S_{max(j, [N t_{i-1}])-j}
        agg = aggregated_coefficients(ELL1, 10, [0.5, 1.0], 6)
        S = agg.prefix
        for i, b in enumerate(agg.b_indices, start=1):
            prev = 0 if i == 1 else agg.b_indices[i - 2]
            for j in agg.j_grid:
                want = S[b - j] - S[max(j, prev) - j] if b > j else 0.0
                assert agg.value(i, j) == pytest.approx(want, rel=1e-14, abs=0.0)

    @given(st.integers(2, 50), st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_direct_double_sum(self, N, m, seed):
        rng = np.random.default_rng(seed)
        times = tuple(sorted(rng.uniform(0.1, 1.5, size=m)))
        if len(set(floor_index(N, t) for t in times)) < 1:
            return
        ell = SlowlyVaryingSpec("log_power", 1.0, float(rng.uniform(-1.5, 1.5)))
        agg = aggregated_coefficients(ell, N, times, 10)
        B = [0] + list(agg.b_indices)
        for i in range(1, len(times) + 1):
            for j in agg.j_grid:
                lo = max(j + 1, B[i - 1] + 1)
                want = sum(coefficient(ell, n - j) for n in range(lo, B[i] + 1))
                got = agg.value(i, j)
                assert got == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_sup_coefficient_vanishing(self):
        # max_j A_N^{-1} a_j^{[N t_i]} decreases along N
        sups = []
        for N in (100, 1000, 10_000, 100_000):
            agg = aggregated_coefficients(ELL1, N, [1.0], 0)
            A = N ** (1 / 1.5) * agg.prefix[N]
            sups.append(agg.table.max() / A)
        assert all(a > b for a, b in zip(sups, sups[1:]))


class TestExactFddLogCf:
    FDD1 = FddSpec((1.0,), (1.0,))

    def test_zero_frequencies(self):
        out = exact_fdd_log_cf(ELL1, SYM15, 100, FddSpec((0.5, 1.0), (0.0, 0.0)))
        assert out.value == 0.0
        assert out.past_part == 0.0

    def test_zeta_value(self):
        # N=1, m=1, t=1, u=1: A_1 = 1 and the sum telescopes to -zeta(alpha)
        out = exact_fdd_log_cf(ELL1, SYM15, 1, self.FDD1)
        assert out.value.real == pytest.approx(-float(zeta(1.5)), abs=1e-7)
        assert out.value.imag == 0.0
        assert out.window_part == pytest.approx(-1.0)
        assert out.tail_bound < 1e-8

    def test_brute_force_small_n(self):
        # direct double summation with a deep explicit past, m = 2
        N = 50
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        out = exact_fdd_log_cf(ELL1, SYM15, N, fdd)
        u = np.array(fdd.freqs)
        v = v_transform(u)
        B = [0, 25, 50]
        S = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1.0, 6_000_002.0))])
        A = N ** (1 / 1.5) * S[N]
        total = 0.0
        for k in (1, 2):
            for j in range(B[k - 1], B[k]):
                c = sum(v[i - 1] * (S[B[i] - j] - S[max(j, B[i - 1]) - j])
                        for i in range(k, 3))
                total += -abs(c / A) ** 1.5
        x = np.arange(1.0, 6_000_000.0 - N)
        c = (u[0] * (S[B[1] + x.astype(int)] - S[x.astype(int)])
             + u[1] * (S[B[2] + x.astype(int)] - S[x.astype(int)]))
        total += np.sum(-np.abs(c / A) ** 1.5)
        # remaining past beyond 6e6 decays like x^-3 here; bound it crudely
        assert out.value.real == pytest.approx(total, abs=1e-5)

    def test_j_doubling_stability(self):
        base = exact_fdd_log_cf(ELL1, SYM15, 200, self.FDD1, j_depth=20_000)
        deep = exact_fdd_log_cf(ELL1, SYM15, 200, self.FDD1, j_depth=40_000)
        assert abs(base.value - deep.value) < 1e-8

    def test_insufficient_j_raises(self):
        with pytest.raises(JDepthError) as err:
            exact_fdd_log_cf(ELL1, SYM15, 1000, self.FDD1, j_depth=5,
                             j_policy=JPolicy(tol=1e-12))
        assert err.value.achieved > 1e-12

    def test_log_power_ell_continuation(self):
        # the Euler-Maclaurin continuation agrees with a brute-force past
        ell = SlowlyVaryingSpec("log_power", 1.0, 1.0)
        out = exact_fdd_log_cf(ell, SYM15, 50, self.FDD1)
        deep = exact_fdd_log_cf(ell, SYM15, 50, self.FDD1, j_depth=3_000_000)
        assert abs(out.value - deep.value) < 1e-6

    def test_batched_grid_matches_single_calls(self):
        # one call over a frequency grid agrees with one call per vector
        params = SkewedStableParams(1.5, 1.0, -0.5)
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        grid = default_frequency_grid(2)[::8]
        out = exact_fdd_log_cf(ELL1, params, 100, fdd, freq_grid=grid)
        assert out.grid_values.shape == (len(grid),)
        for g, got in zip(grid, out.grid_values):
            one = exact_fdd_log_cf(ELL1, params, 100, FddSpec(fdd.times, tuple(g)))
            assert abs(got - one.value) <= out.tail_bound + one.tail_bound
        alone = exact_fdd_log_cf(ELL1, params, 100, fdd)
        assert abs(out.value - alone.value) <= out.tail_bound + alone.tail_bound

    def test_shallow_start_certifies_large_n(self):
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        out = exact_fdd_log_cf(ELL1, SYM15, 10**6, fdd)
        assert out.j_depth == 10_000
        assert out.tail_bound <= 1e-8

    def test_growth_matches_fixed_depth(self):
        # a shallow floor grows x4 until certified; the past summed round by
        # round equals one pass at the final depth
        policy = JPolicy(floor=10)
        grown = exact_fdd_log_cf(ELL1, SYM15, 100, self.FDD1, j_policy=policy)
        assert grown.j_depth > 10
        fixed = exact_fdd_log_cf(ELL1, SYM15, 100, self.FDD1, j_depth=grown.j_depth,
                                 j_policy=policy)
        assert abs(grown.value - fixed.value) < 1e-13
        assert grown.tail_bound == fixed.tail_bound

    def test_chunk_size_independent(self, monkeypatch):
        params = SkewedStableParams(1.5, 1.0, -0.5)
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        grid = [(2.0, 0.25), (-1.0, 0.5), (0.0, 0.0)]
        base = exact_fdd_log_cf(ELL1, params, 100, fdd, freq_grid=grid)
        monkeypatch.setattr(cf_oracle, "_CHUNK_ELEMENTS", 7)
        tiny = exact_fdd_log_cf(ELL1, params, 100, fdd, freq_grid=grid)
        assert abs(tiny.window_part - base.window_part) < 1e-13
        assert abs(tiny.past_part - base.past_part) < 1e-13
        np.testing.assert_allclose(tiny.grid_values, base.grid_values, rtol=0, atol=1e-13)

    def test_memory_guard_fails_fast(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="memory budget"):
                exact_fdd_log_cf(ELL1, SYM15, 10**9, self.FDD1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20

    def test_skewed_params_complex_value(self):
        params = SkewedStableParams(1.5, 1.0, -0.5)
        out = exact_fdd_log_cf(ELL1, params, 100, self.FDD1)
        assert out.value.real < 0.0
        assert out.value.imag != 0.0
        assert abs(np.exp(out.value)) <= 1.0


class TestLimitLogCf:
    def test_zero(self):
        assert limit_log_cf(SYM15, FddSpec((0.5, 1.0), (0.0, 0.0))) == 0.0

    def test_unit(self):
        assert limit_log_cf(SYM15, FddSpec((1.0,), (1.0,))) == -1.0

    def test_two_point_hand_value(self):
        got = limit_log_cf(SYM15, FddSpec((1.0, 2.0), (1.0, -1.0)))
        assert got == pytest.approx(-1.0)

    def test_alpha2_quadratic(self):
        params = SkewedStableParams(2.0, 0.7, 0.0)
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        v = v_transform(fdd.freqs)
        want = -(0.5 * 0.7 * v[0] ** 2 + 0.5 * 0.7 * v[1] ** 2)
        assert limit_log_cf(params, fdd) == pytest.approx(want, rel=1e-15)


class TestTelescoping:
    @given(st.lists(finite_floats, min_size=1, max_size=5), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_identity(self, u, seed):
        # sum_i u_i S(t_i) == sum_i v_i (S(t_i) - S(t_{i-1})) for any path
        rng = np.random.default_rng(seed)
        m = len(u)
        path = rng.normal(size=30)
        times = tuple(sorted(rng.uniform(0.05, 1.0, size=m)))
        if len(set(times)) < m:
            return
        N = 30
        s = partial_sums(path, N, times)
        v = v_transform(u)
        increments = np.diff(np.concatenate([[0.0], s]))
        left = float(np.dot(u, s))
        right = float(np.dot(v, increments))
        assert left == pytest.approx(right, rel=1e-12, abs=1e-9)


class TestSweep:
    def test_zero_frequencies_all_zero(self):
        rows = cf_convergence_sweep(ELL1, SYM15, FddSpec((1.0,), (0.0,)), [10, 100])
        assert all(r.distance == 0.0 for r in rows)

    def test_criterion_config_decreasing_small(self):
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        rows = cf_convergence_sweep(ELL1, SYM15, fdd, [100, 1000, 10_000])
        assert rows[0].distance > rows[1].distance > rows[2].distance
        assert rows[0].past_part > rows[1].past_part > rows[2].past_part

    def test_m1_approaches_limit(self):
        # the m=1 exact value crosses the limit (not monotone); it stays near
        fdd = FddSpec((1.0,), (1.0,))
        rows = cf_convergence_sweep(ELL1, SYM15, fdd, [100, 10_000])
        assert rows[0].distance == pytest.approx(0.033984, abs=2e-5)
        assert rows[1].distance == pytest.approx(0.031541, abs=2e-5)
        assert all(r.distance < 0.05 for r in rows)

    def test_nonincreasing_n_rejected(self):
        with pytest.raises(ValueError):
            cf_convergence_sweep(ELL1, SYM15, FddSpec((1.0,), (1.0,)), [100, 100])

    def test_sup_grid(self):
        fdd = FddSpec((1.0,), (1.0,))
        grid = default_frequency_grid(1)
        assert len(grid) == 8
        rows = cf_convergence_sweep(ELL1, SYM15, fdd, [50], freq_grid=grid)
        base = cf_convergence_sweep(ELL1, SYM15, fdd, [50])
        assert rows[0].distance >= base[0].distance

    def test_grid_cap(self):
        grid = default_frequency_grid(3, cap=64)
        assert len(grid) == 64


class TestMcOracleCoherence:
    def test_ecf_matches_exact_cf(self):
        # reps = 1e4, N = 1e3: empirical CF of the normalized fdd sample vs
        # the exact finite-N CF, within 4/sqrt(reps) plus truncation slack
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        proc = ProcessSpec(ELL1, exact_stable(1.5, 0.0, 1.0), 10_000)
        reps, N = 10_000, 1000
        samples = normalized_fdd_sample(proc, N, fdd, reps, 2024)
        est, _ = ecf(samples, fdd.freqs)
        want = np.exp(exact_fdd_log_cf(ELL1, SYM15, N, fdd).value)
        assert abs(est - want) < 4.0 / math.sqrt(reps) + 1e-3
