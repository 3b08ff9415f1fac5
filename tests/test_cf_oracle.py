import hashlib
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from stablesum import cf_oracle, linear_process, slowly_varying, stable_law
from stablesum.cf_oracle import (
    cf_convergence_sweep,
    default_frequency_grid,
    exact_fdd_log_cf,
    limit_log_cf,
    v_transform,
)
from stablesum.innovations import ExactStable
from stablesum.linear_process import (
    FddSpec,
    ProcessSpec,
    floor_index,
    normalized_fdd_sample,
)
from stablesum.slowly_varying import (
    SlowlyVaryingSpec,
    coefficient,
    coefficient_prefix_sums,
    coefficient_sum,
    eval_sv,
    held_prefix_sums,
)
from stablesum.stable_law import StandardStable
from stablesum.verification import ecf

from reference import (
    AVX2,
    AVX512,
    aggregated_coefficients,
    compensated_prefix_sums,
    constant,
    exact_window_sum,
    partial_sums,
    pinned,
    prefix_weights,
    sv_derivative,
)

ELL1 = constant(1.0)
SYM15 = StandardStable.from_cf(1.5, 1.0, 0.0)
# the reference comparisons run each law: a unit and a non-unit sigma, both
# skewed, so that a misplaced sigma or D shows
LAWS = (StandardStable.from_cf(1.5, 1.0, -0.5), StandardStable.from_cf(1.5, 2.0, -0.5))
EPS = np.finfo(float).eps
finite_floats = st.floats(-20.0, 20.0, allow_nan=False)


def roundoff(rows, params, value):
    """The round-off of a log-CF summed over `rows` terms from prefix sums of
    up to `rows` terms: at most rows * eps * sum_j |psi(c_j)|, and
    sum_j |psi(c_j)| = hypot(1, D) |Re value|, since the real part of every
    term has the sign of -sigma."""
    return rows * EPS * math.hypot(1.0, params.D) * abs(complex(value).real)


def inverse_v_transform(v) -> np.ndarray:
    """u_i = v_i - v_{i+1} with v_{m+1} = 0."""
    arr = np.asarray(v, dtype=float)
    return np.concatenate([arr[:-1] - arr[1:], arr[-1:]])


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

    def test_j_doubling_stability(self, monkeypatch):
        # within both tail_bounds and the round-off of the deeper sum
        monkeypatch.setattr(cf_oracle, "_J_DEPTH", 20_000)
        base = exact_fdd_log_cf(ELL1, SYM15, 200, self.FDD1)
        monkeypatch.setattr(cf_oracle, "_J_DEPTH", 40_000)
        deep = exact_fdd_log_cf(ELL1, SYM15, 200, self.FDD1)
        assert abs(base.value - deep.value) <= (base.tail_bound + deep.tail_bound
                                                + roundoff(40_200, SYM15, deep.value))

    def test_insufficient_j_raises(self):
        # at the fixed depth a tolerance below tail_bound cannot be met
        with pytest.raises(RuntimeError, match="certifies only .* [(]tolerance 1e-30[)]"):
            exact_fdd_log_cf(ELL1, SYM15, 1000, self.FDD1, tol=1e-30)

    def test_whole_bound_gated(self):
        # the log-CF is -2.6e8, where tol = 1e-8 is below double precision:
        # the call raises rather than return a tail_bound above tol
        fdd = FddSpec((0.5, 1.0), (1e6, -5e5))
        with pytest.raises(RuntimeError, match=r"certifies only .* \(tolerance 1e-08\)"):
            exact_fdd_log_cf(ELL1, SYM15, 10**5, fdd)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_term_named(self):
        with pytest.raises(ValueError, match=r"non-finite log-CF term psi\(c_j\) in the rows 0 <="):
            exact_fdd_log_cf(ELL1, SYM15, 20, FddSpec((0.5, 1.0), (1e300, 1.0)))

    def test_log_power_ell_continuation(self, monkeypatch):
        # the Euler-Maclaurin continuation agrees with a brute-force past
        ell = SlowlyVaryingSpec("log_power", 1.0, 1.0)
        out = exact_fdd_log_cf(ell, SYM15, 50, self.FDD1)
        monkeypatch.setattr(cf_oracle, "_J_DEPTH", 3_000_000)
        deep = exact_fdd_log_cf(ell, SYM15, 50, self.FDD1)
        assert abs(out.value - deep.value) <= (out.tail_bound + deep.tail_bound
                                               + roundoff(3_000_050, SYM15, deep.value))

    def test_batched_grid_matches_single_calls(self):
        # one call over a frequency grid agrees with one call per vector,
        # within both tail_bounds and the round-off of summing the J + N
        # rows in other chunks
        params = StandardStable.from_cf(1.5, 1.0, -0.5)
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        grid = default_frequency_grid(2)[::8]
        out = exact_fdd_log_cf(ELL1, params, 100, fdd, freq_grid=grid)
        assert out.grid_values.shape == (len(grid),)
        for g, got in zip(grid, out.grid_values):
            one = exact_fdd_log_cf(ELL1, params, 100, FddSpec(fdd.times, tuple(g)))
            assert abs(got - one.value) <= (out.tail_bound + one.tail_bound
                                            + roundoff(10_100, params, got))
        alone = exact_fdd_log_cf(ELL1, params, 100, fdd)
        assert abs(out.value - alone.value) <= (out.tail_bound + alone.tail_bound
                                                + roundoff(10_100, params, out.value))

    def test_shallow_start_certifies_large_n(self):
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        out = exact_fdd_log_cf(ELL1, SYM15, 10**6, fdd)
        assert out.j_depth == 10_000
        assert out.tail_bound <= 1e-8

    def test_chunk_size_independent(self, monkeypatch):
        params = StandardStable.from_cf(1.5, 1.0, -0.5)
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        grid = [(2.0, 0.25), (-1.0, 0.5), (0.0, 0.0)]
        base = exact_fdd_log_cf(ELL1, params, 100, fdd, freq_grid=grid)
        monkeypatch.setattr(cf_oracle, "_CHUNK_ELEMENTS", 7)
        tiny = exact_fdd_log_cf(ELL1, params, 100, fdd, freq_grid=grid)
        assert abs(tiny.window_part - base.window_part) < 1e-13
        assert abs(tiny.past_part - base.past_part) < 1e-13
        np.testing.assert_allclose(tiny.grid_values, base.grid_values, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("N", [10**9, 10**12])
    def test_large_n_in_flat_memory(self, N):
        # no array grows with N: the window is closed by quadrature
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        tracemalloc.start()
        try:
            out = exact_fdd_log_cf(ELL1, SYM15, N, fdd)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert out.j_depth == 10_000 and out.tail_bound <= 1e-8
        assert -0.4 < out.value.real < -0.25  # toward the limit -0.5 like 1/log N

    def test_past_rows_memory_guard_fails_fast(self, monkeypatch):
        # the J-deep past rows are the one allocation that grows with J: a
        # depth beyond the budget is refused before anything that size is
        # allocated
        monkeypatch.setattr(cf_oracle, "_J_DEPTH", 10**9)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="memory budget"):
                exact_fdd_log_cf(ELL1, SYM15, 100, self.FDD1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("kind, p", [("constant", 0.0), ("log_power", 1.0)],
                             ids=["constant", "log_power"])
    @pytest.mark.parametrize("spans", [[(0, 300_000)],
                                       [(0, 1), (100_000, 250_000), (400_000, 500_000)]],
                             ids=["one", "three"])
    def test_prefix_sums_peak_within_its_count(self, monkeypatch, kind, p, spans):
        # on a fresh ell, the guard counts the sums from 0 built to the end
        # of the first interval, and at least to S[1000] (coefficient_sum's
        # anchor), from three arrays of their length; then the later
        # intervals built in turn, each from three arrays of its length
        # while the sums from 0 and those before it are held, and no joined
        # copy.  One element fewer in the budget refuses the prefix sums,
        # and building them holds no more, up to 64 KiB that does not grow
        # with the size
        held = max(spans[0][1], 1000) + 1
        count = 3 * held
        for lo, hi in spans[1:]:
            count = max(count, held + 3 * (hi - lo + 1))
            held += hi - lo + 1
        ell = SlowlyVaryingSpec(kind, 1.0, p)
        monkeypatch.setattr(linear_process, "MEMORY_BUDGET_ELEMENTS", count - 1)
        with pytest.raises(ValueError, match=f"hold about {count} elements"):
            linear_process.PrefixSums(ell, spans)
        monkeypatch.setattr(linear_process, "MEMORY_BUDGET_ELEMENTS", count)
        tracemalloc.start()
        try:
            linear_process.PrefixSums(ell, spans)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * count + 2**16

    def test_skewed_params_complex_value(self):
        params = StandardStable.from_cf(1.5, 1.0, -0.5)
        out = exact_fdd_log_cf(ELL1, params, 100, self.FDD1)
        assert out.value.real < 0.0
        assert out.value.imag != 0.0
        assert abs(np.exp(out.value)) <= 1.0


class TestSliceReader:
    """PrefixSums.rows reads the weight block of consecutive rows as
    reversed slices, bit for bit the block the reference prefix_weights
    gathers."""

    ELLS = (ELL1, SlowlyVaryingSpec("log_power", 1.0, -2.0),
            SlowlyVaryingSpec("log_power", 1.0, 0.7))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_equal_prefix_weights(self, data):
        ell = data.draw(st.sampled_from(self.ELLS))
        N = data.draw(st.integers(1, 10**12))
        m = data.draw(st.integers(1, 3))
        B = sorted(data.draw(st.lists(st.integers(0, N), min_size=m, max_size=m)))
        if data.draw(st.booleans()):
            B[0] = 0
        n = data.draw(st.integers(1, 300))
        kind = data.draw(st.sampled_from(["past", "window", "kink", "straddle"]))
        if kind == "past":
            j0 = -n - data.draw(st.integers(0, 20_000))
        elif kind == "window":
            j0 = data.draw(st.integers(0, max(B[-1] - n, 0)))
        elif kind == "kink":
            j0 = data.draw(st.sampled_from(B)) - data.draw(st.integers(0, n))
        else:
            j0 = -data.draw(st.integers(1, n))
            n = max(n, 1 - j0)
        S = cf_oracle._prefix_sums(ell, B, [(j0, j0 + n)])
        block = S.rows(j0, j0 + n, B)
        gathered = prefix_weights(S, np.arange(j0, j0 + n), B)
        assert block.shape == gathered.shape == (n, m)
        assert np.array_equal(block, gathered)
        assert np.array_equal(np.signbit(block), np.signbit(gathered))
        # into a workspace longer than the run: its first n rows, all written
        buf = np.full((n + data.draw(st.integers(0, 50)), m), np.nan)
        written = S.rows(j0, j0 + n, B, out=buf)
        assert np.shares_memory(written, buf) and written.shape == (n, m)
        assert np.array_equal(written, gathered)
        assert np.array_equal(np.signbit(written), np.signbit(gathered))
        assert np.isnan(buf[n:]).all()

    @pytest.mark.parametrize("ell", ELLS, ids=["constant", "log_power-2", "log_power0.7"])
    def test_spans_that_miss_zero(self, ell):
        # index 0 is held even when no span reaches it, so the interval
        # [5, 20], anchored at coefficient_sum(5), is read at its own offset
        S = linear_process.PrefixSums(ell, [(5, 20)])
        want = np.cumsum(coefficient(ell, np.arange(1, 21)))[[9, 8, 7], None]
        np.testing.assert_allclose(S.rows(0, 3, [10]), want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("params", [SYM15, LAWS[1]], ids=["D=0", "skewed"])
    @pytest.mark.parametrize("F", [1, 14])
    @pytest.mark.parametrize("where", ["past", "window", "straddle"])
    def test_psi_sums_equal_chunked_reference(self, params, F, where):
        # the workspace path gives, bit for bit, the sums of the allocating
        # loop over the same chunks: prefix_weights @ U, psi from log_cf_parts
        B = [40_000, 90_000, 150_000]
        U = np.random.default_rng(F).normal(size=(3, F)) * 1e-3
        rows = cf_oracle._CHUNK_ELEMENTS // max(U.shape)
        n = 3 * rows + rows // 2
        j0 = {"past": -n - 7, "window": 11, "straddle": -(n // 2)}[where]
        j1 = j0 + n
        S = cf_oracle._prefix_sums(ELL1, B, [(j0, j1)])
        re, im = np.zeros(F), np.zeros(F)
        chunks = range(j0, j1, rows)
        for lo in chunks:
            c = prefix_weights(S, np.arange(lo, min(lo + rows, j1)), B) @ U
            g_re, g_im = params.log_cf_parts(c)
            re += g_re.sum(axis=0)
            im += g_im.sum(axis=0)
        got = cf_oracle._psi_sums(S, j0, j1, B, U, params)
        assert len(chunks) == 4
        assert np.array_equal(got, re + 1j * im)
        assert (got.imag != 0.0).all() == (params.D != 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 14, 64]), st.data())
    def test_column_sums_equal_sum_axis0(self, F, data):
        # the rows of a C-ordered term block added in row order, bit for
        # bit: values of both signs over 200 binades
        rows = data.draw(st.integers(1, cf_oracle._CHUNK_ELEMENTS // F))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        block = np.ldexp(rng.uniform(-1.0, 1.0, size=(rows, F)),
                         rng.integers(-100, 100, size=(rows, F)))
        assert block.flags.c_contiguous
        got = cf_oracle._column_sums(block)
        want = block.sum(axis=0)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_one_weight_reader(self, monkeypatch):
        # the package has no gather: the Monte-Carlo window, the oracle's
        # exact rows and its end rows all read through PrefixSums.rows
        assert not hasattr(linear_process, "prefix_weights")
        assert not hasattr(cf_oracle, "prefix_weights")
        assert not hasattr(linear_process.PrefixSums, "take")
        reads = {"window_weights": 0, "_psi_sums": 0, "_end_terms": 0}
        caller = []
        rows = linear_process.PrefixSums.rows

        def counting_rows(self, *args, **kwargs):
            reads[caller[-1]] += 1
            return rows(self, *args, **kwargs)

        def reading(module, name):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                caller.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    caller.pop()
            monkeypatch.setattr(module, name, wrapped)

        monkeypatch.setattr(linear_process.PrefixSums, "rows", counting_rows)
        reading(linear_process, "window_weights")
        reading(cf_oracle, "_psi_sums")
        reading(cf_oracle, "_end_terms")
        linear_process.window_weights(ELL1, 100, (0.5, 1.0), 50)
        # N = 1e6 closes window pieces, so end rows are read on both sides
        out = exact_fdd_log_cf(ELL1, SYM15, 10**6, FddSpec((0.5, 1.0), (1.0, -0.5)))
        assert out.tail_bound <= 1e-8
        assert min(reads.values()) > 0, reads


class TestRayFold:
    """A call evaluates each ray of its frequency vectors once, at the ray's
    first vector, and scales: psi(lam w) = |lam|^alpha psi(w), conjugated
    for lam < 0."""

    FDD = {1: FddSpec((1.0,), (1.0,)), 2: FddSpec((0.5, 1.0), (1.0, -0.5))}

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("beta", [0.0, 0.7])
    def test_grid_values_match_one_vector_calls(self, beta, m):
        # the default grid, a negative multiple of the fdd vector and a zero
        # vector; tail_bound is the largest of the one-vector calls' bounds,
        # up to their round-off (they are differences of quadratures)
        params = ExactStable(1.5, beta, 1.0)
        fdd = self.FDD[m]
        u = np.array(fdd.freqs)
        grid = default_frequency_grid(m) + [-3.0 * u, np.zeros(m)]
        out = exact_fdd_log_cf(ELL1, params, 1000, fdd, freq_grid=grid)
        ones = [exact_fdd_log_cf(ELL1, params, 1000, FddSpec(fdd.times, tuple(g)))
                for g in [u] + grid]
        for got, one in zip([out.value, *out.grid_values], ones):
            assert abs(got - one.value) <= (out.tail_bound + one.tail_bound
                                            + 1e-14 * abs(one.value))
        assert out.grid_values[-1] == 0.0
        largest = max(abs(one.value) for one in ones)
        assert abs(out.tail_bound - max(one.tail_bound for one in ones)) <= 2 * EPS * largest

    @pytest.mark.parametrize("m, rays", [(1, 1), (2, 14), (3, 65)])
    def test_past_takes_one_column_per_ray(self, monkeypatch, m, rays):
        # the default grid lies on 8 rays at m = 1 (all on the fdd's), 14 at
        # m = 2 (the fdd's among them) and 64 at m = 3 (none the fdd's)
        seen = []
        past = cf_oracle._past

        def counting(ell, S, UA, B, params):
            seen.append(UA.shape[1])
            return past(ell, S, UA, B, params)

        monkeypatch.setattr(cf_oracle, "_past", counting)
        fdd = self.FDD.get(m, FddSpec((0.2, 0.7, 1.0), (1.0, -0.5, 0.25)))
        exact_fdd_log_cf(ELL1, SYM15, 100, fdd, freq_grid=default_frequency_grid(m))
        assert seen == [rays]

    @pytest.mark.parametrize("beta, digest, value", [
        (0.0, "90771c9e4b85b3084ec263a69bd1e4a0fe52c64a6f90a302d6298a729ebec94b",
         complex(-0.07725251364460997, -0.0)),
        (0.7, "b6c4d40f592413de3a401ebf96a2135ecd555a1977b6c9c077ad7e9f5a7711ba",
         complex(-0.07725251364460997, -0.006705221932591855))])
    def test_sup_grid_values_unchanged(self, beta, digest, value):
        # the 64 grid values of one sup-grid call, bit for bit (sha256 of
        # their little-endian bytes), as the allocating chunk loop gave them
        out = exact_fdd_log_cf(ELL1, ExactStable(1.5, beta, 1.0), 1000,
                               self.FDD[2], freq_grid=default_frequency_grid(2))
        got = np.asarray(out.grid_values, dtype="<c16")
        assert got.shape == (64,) and got[20] == value
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest

    # (value, past_part, window_part, tail_bound) of a grid-free call at
    # beta = 0 and 0.7, per SIMD target
    SINGLE = {
        AVX512: {0.0: (complex(-0.21850310504723994, 0.0),
                       complex(-0.009459626735988233, 0.0),
                       complex(-0.2090434783112517, 0.0), 2.0973674525993093e-20),
                 0.7: (complex(-0.21850310504723994, 0.018965231591585884),
                       complex(-0.009459626735988233, -0.006621738715191762),
                       complex(-0.2090434783112517, 0.025586970306777646),
                       2.46789573497925e-20)},
        AVX2: {0.0: (complex(-0.21850310504723994, 0.0),
                     complex(-0.009459626735988233, 0.0),
                     complex(-0.2090434783112517, 0.0), 2.4361806315010294e-20),
               0.7: (complex(-0.21850310504723994, 0.018965231591585897),
                     complex(-0.009459626735988233, -0.006621738715191762),
                     complex(-0.2090434783112517, 0.02558697030677766),
                     2.935508966129917e-20)},
    }

    def test_single_vector_unchanged(self):
        # a call without a grid is its own ray at lam = 1: the values of the
        # direct evaluation, bit for bit
        for beta, want in pinned(self.SINGLE).items():
            params = ExactStable(1.5, beta, 1.0)
            out = exact_fdd_log_cf(ELL1, params, 1000, self.FDD[2])
            assert (out.value, out.past_part, out.window_part, out.tail_bound) == want

    @pytest.mark.filterwarnings("error")
    def test_multiples_far_apart_not_folded(self):
        # the grid's (2, -1) is 2e210 times the fdd vector: scaled from its
        # sums, which underflow, |lam|^alpha would overflow; each is
        # evaluated as given, as without the fold
        fdd = FddSpec((0.5, 1.0), (1e-210, -5e-211))
        out = exact_fdd_log_cf(ELL1, SYM15, 100, fdd, freq_grid=[(2.0, -1.0)])
        one = exact_fdd_log_cf(ELL1, SYM15, 100, FddSpec(fdd.times, (2.0, -1.0)))
        assert abs(out.grid_values[0] - one.value) <= 1e-14 * abs(one.value)
        assert out.value == exact_fdd_log_cf(ELL1, SYM15, 100, fdd).value

    @pytest.mark.filterwarnings("error")
    def test_overflowing_scaled_term_named(self):
        # the log-CF at the fdd vector is -4.7e303; 1e7 times it, in the same
        # band, its scaled sums overflow, as its terms do in a direct
        # evaluation
        fdd = FddSpec((0.5, 1.0), (1e203, -5e202))
        with pytest.raises(ValueError, match=r"non-finite log-CF term psi\(c_j\) at the "
                                             r"frequencies \(1e\+210, -5e\+209\)"):
            exact_fdd_log_cf(ELL1, SYM15, 20, fdd, freq_grid=[(1e210, -5e209)])
        with pytest.raises(ValueError, match=r"non-finite log-CF term psi\(c_j\) in the rows"):
            exact_fdd_log_cf(ELL1, SYM15, 20, FddSpec(fdd.times, (1e210, -5e209)))


def past_block(ell, params, N, times, U):
    """The oracle's past block at the columns of U and its closure estimate
    (cf_oracle._past at depth _J_DEPTH), with A_N from coefficient_sum;
    also UA = U / A_N."""
    B = [floor_index(N, t) for t in times]
    UA = np.asarray(U, dtype=float) / (N ** (1.0 / params.alpha) * coefficient_sum(ell, N))
    S = cf_oracle._prefix_sums(ell, B, [(-cf_oracle._J_DEPTH, 0)])
    value, estimate = cf_oracle._past(ell, S, UA, B, params)
    return value, estimate, UA


def seam_term(ell, params, N, times, UA, J):
    """The end term of the oracle's past piece x > J at the seam j = -J,
    and its estimate (cf_oracle._end_terms on the exact rows -J..-J+3)."""
    B = [floor_index(N, t) for t in times]
    S = cf_oracle._prefix_sums(ell, B, [(-J, -J + 4)])
    return cf_oracle._end_terms(S, B, UA.T, params, np.full(UA.shape[1], -J), 1)


def mp_past_beyond(params, B, w, K):
    """sum_{y > K} psi(c(y)), c(y) = sum_i w_i (digamma(y + b_i + 1) -
    digamma(y + 1)), in mpmath at 20 digits plus log10 y, which resolves the
    digamma differences.  Sign changes of c are bracketed on a log grid up
    to 1e11 K (beyond it c is sum_i w_i b_i / y to 1e-9) and refined; the
    rows within 64 of one are summed term by term.  On the pieces between
    and beyond them c keeps its sign, and the sum of g = |c|^alpha is the
    midpoint Euler-Maclaurin form to g^(5), with integrals by mp.quad (in
    t = (Y/y)^(alpha-1) on the last, unbounded piece) and derivatives by
    mp.diff."""
    import mpmath as mp

    alpha = mp.mpf(params.alpha)

    def c(y):
        with mp.extradps(int(mp.log10(y))):
            return sum(mp.mpf(wi) * (mp.digamma(y + b + 1) - mp.digamma(y + 1))
                       for wi, b in zip(w, B))

    def g(y):
        return abs(c(y)) ** alpha

    def em(a, b=None):
        # sum_{a <= y <= b} g(y), or to infinity when b is None
        lo = mp.mpf(a) - 0.5
        ends = [(lo, 1)] if b is None else [(lo, 1), (mp.mpf(b) + 0.5, -1)]
        if b is None:
            k = 1 / (alpha - 1)
            total = mp.quad(lambda t: g(lo * t ** -k) * lo * k * t ** (-k - 1), [0, 1])
        else:
            total = mp.quad(g, [lo] + [lo * 2**i for i in range(1, 64) if lo * 2**i < b]
                            + [mp.mpf(b) + 0.5])
        for y, side in ends:
            total += side * (mp.diff(g, y, 1) / 24 - 7 * mp.diff(g, y, 3) / 5760
                             + 31 * mp.diff(g, y, 5) / 967680)
        return total

    def psi(mag, y):  # psi summed over rows whose |c|^alpha add to mag, c of the sign at y
        return -params.sigma * mag * (1 - 1j * params.D * mp.sign(c(y)))

    with mp.workdps(20):
        grid = [mp.mpf(K) * mp.mpf(10) ** (i / 4) for i in range(4 * 11 + 1)]
        sign = [mp.sign(c(y)) for y in grid]
        roots = [mp.findroot(c, (grid[i], grid[i + 1]), solver="illinois")
                 for i in range(len(grid) - 1) if sign[i] != sign[i + 1]]
        total, a = mp.mpc(0), K + 1
        for r in roots:
            lo, hi = max(int(r) - 63, a), int(r) + 64
            if lo > a:
                total += psi(em(a, lo - 1), (a + lo) / 2)
            for y in range(max(lo, a), hi + 1):
                total += -params.sigma * g(y) * (1 - 1j * params.D * mp.sign(c(y)))
            a = max(a, hi + 1)
        total += psi(em(a), 2 * a)
        return complex(total)


class TestPastClosure:
    FDD = FddSpec((0.5, 1.0), (1.0, -0.5))
    # at N = 100 this vector's c changes sign at x = 20782, beyond J = 1e4
    LATE_SIGN_CHANGE = (1.0, -0.5006)

    @staticmethod
    def bounds_at_depths(monkeypatch, N, U):
        # the estimate of the seam's end term, the part of the past's
        # estimate that depth decides; the panel estimates stay at the
        # integral's round-off (_SPAN_RTOL) at any depth, and from J = 1e5
        # on at N = 1e6 so does the seam's
        B = TestPastClosure.FDD.times
        UA = past_block(ELL1, SYM15, N, B, U)[2]
        bounds = []
        for j in (10**3, 10**4, 10**5):
            monkeypatch.setattr(cf_oracle, "_J_DEPTH", j)
            bounds.append(seam_term(ELL1, SYM15, N, B, UA, cf_oracle._J_DEPTH)[1].max())
        return bounds

    def test_bound_shrinks_with_depth(self, monkeypatch):
        bounds = self.bounds_at_depths(monkeypatch, 10**6, np.array([self.FDD.freqs]).T)
        assert bounds[0] > bounds[1] > bounds[2] > 0.0

    def test_batched_bound_shrinks_with_depth(self, monkeypatch):
        U = np.column_stack([self.FDD.freqs] + default_frequency_grid(2)[::8])
        bounds = self.bounds_at_depths(monkeypatch, 100, U)
        assert bounds[0] > bounds[1] > bounds[2] > 0.0

    def test_matches_independent_reference(self):
        # the whole log-CF from a direct float64 sum of its terms up to x = K,
        # past the last sign change of c, and a 30-digit mpmath sum of the
        # same digamma series beyond K; no oracle code is shared
        import mpmath as mp

        N, J, K, B = 100, 10_000, 30_000, (50, 100)
        params = StandardStable.from_cf(1.5, 1.0, -0.5)
        out = exact_fdd_log_cf(ELL1, params, N, self.FDD, freq_grid=[self.LATE_SIGN_CHANGE])
        H = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1.0, K + B[1] + 1))])
        A = N ** (1 / 1.5) * H[N]

        def psi(c):
            mag = np.abs(c) ** 1.5
            return np.sum(-mag - 0.5j * mag * np.sign(c))

        j = np.arange(B[1])      # in-window: eps_j enters S(t_i) with weight H[b_i - j]
        x = np.arange(1, K + 1)  # past, j = -x
        for u, got, changes in ((self.FDD.freqs, out.value, 0),
                                (self.LATE_SIGN_CHANGE, out.grid_values[0], 1)):
            window = sum(ui * np.where(b > j, H[np.maximum(b - j, 0)], 0.0) for ui, b in zip(u, B))
            past = sum(ui * (H[x + b] - H[x]) for ui, b in zip(u, B))
            assert np.count_nonzero(np.diff(np.sign(past[J - 1:]))) == changes

            def term(y, u=u):
                c = sum(mp.mpf(ui) * (mp.digamma(y + b + 1) - mp.digamma(y + 1))
                        for ui, b in zip(u, B)) / A
                return -abs(c) ** mp.mpf(1.5) * (1 + 0.5j * mp.sign(c))

            with mp.workdps(30):
                beyond = complex(mp.nsum(term, [K + 1, mp.inf], method="euler-maclaurin"))
            want = psi(window / A) + psi(past / A) + beyond
            assert abs(got - want) <= out.tail_bound + 1e-12

    @pytest.mark.parametrize("p", [-1.5, 0.5, 1.0, 2.0])
    def test_log_power_span_matches_scalar_quad(self, p):
        # the Euler-Maclaurin span with its integral by fixed Gauss-Legendre
        # nodes in ln s, against the same form with the integral by quad
        from scipy.integrate import quad

        ell = SlowlyVaryingSpec("log_power", 1.3, p)
        a = lambda s: eval_sv(ell, s) / s
        da = lambda s: (sv_derivative(ell, s) * s - eval_sv(ell, s)) / s**2
        for x in (1.0, 5.5, 100.0, 10_000.5, 3e5, 1e8, 1e12):
            for b in (1, 7, 50, 1000, 10**5, 10**6):
                integral, _ = quad(a, x, x + b, epsabs=1e-14, epsrel=1e-11, limit=200)
                want = integral + 0.5 * (a(x + b) - a(x)) + (da(x + b) - da(x)) / 12.0
                got = cf_oracle._scaled_spans(ell, math.log(x), [b])[0] / x
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [20, 40])
    def test_gauss_legendre_matches_numpy(self, n):
        x, w = stable_law._gauss_legendre(n)
        want_x, want_w = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(x, want_x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, want_w, rtol=1e-12)
        for d in range(0, 2 * n, 2):  # exact for degree < 2n
            assert w @ x**d == pytest.approx(2.0 / (d + 1), rel=1e-14)

    def test_constant_span_matches_digamma(self):
        # the asymptotic digamma series from x = 100 on (every caller has
        # x >= 1000)
        import mpmath as mp

        for x in (100.1, 1000.0, 10_000.5, 1e8, 1e20):
            for b in (1, 50, 10**5):
                with mp.workdps(40):
                    want = mp.mpf(x) * (mp.digamma(mp.mpf(x) + b + 1) - mp.digamma(mp.mpf(x) + 1))
                got = cf_oracle._scaled_spans(ELL1, math.log(x), [b])[0]
                assert got == pytest.approx(float(want), rel=1e-13)


def window_closure(ell, params, N, times, U):
    """The oracle's in-window block at the columns of U and its closure
    estimate, with A_N from coefficient_sum; also UA = U / A_N and the kinks
    (per-column sign changes) it summed term by term."""
    B = [floor_index(N, t) for t in times]
    UA = np.asarray(U, dtype=float) / (N ** (1.0 / params.alpha) * coefficient_sum(ell, N))
    rows, kinks, _ = plan = cf_oracle._window_plan(ell, UA, B)
    S = cf_oracle._prefix_sums(ell, B, rows + [(r0, r1) for _, r0, r1 in kinks])
    value, estimate = cf_oracle._window(ell, S, UA, B, params, plan)
    return value, estimate, UA, kinks


class TestWindowClosure:
    """The window closure against the in-window block summed term by term
    (reference.exact_window_sum).  The reference carries its own round-off,
    at most rows * eps * sum_j |psi(c_j)| (a float64 sum of `rows` terms,
    each from prefix sums of up to `rows` terms), so the test asserts
    |closure - reference| <= closure estimate + that round-off."""

    PARAMS = LAWS[0]
    TIMES = {1: (1.0,), 2: (0.5, 1.0), 3: (0.3, 0.7, 1.0)}
    # the fdd-like vector first; for m > 1 some c changes sign inside a
    # stretch's interior at every N (with one term, m = 1, c cannot)
    VECTORS = {1: [(1.0,), (-2.0,)],
               2: [(1.0, -0.5), (1.0, -0.85), (1.0, -0.7), (-2.0, 2.0), (1.0, -1.8)],
               3: [(1.0, -0.5, 0.25), (2.0, -1.0, -0.5), (-1.0, 2.0, -1.5), (0.5, 1.0, -0.88)]}

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("N", [10**4, 10**5, 10**6])
    @pytest.mark.parametrize("ell", [ELL1, SlowlyVaryingSpec("log_power", 1.0, 1.0)],
                             ids=["constant", "log_power"])
    def test_matches_term_by_term_sum(self, ell, N, m):
        U = np.array(self.VECTORS[m]).T
        for params in LAWS:
            got, estimate, UA, kinks = window_closure(ell, params, N, self.TIMES[m], U)
            want, size = exact_window_sum(ell, params, N, self.TIMES[m], UA)
            roundoff = floor_index(N, self.TIMES[m][-1]) * np.finfo(float).eps * size
            assert np.all(np.abs(got - want) <= estimate + roundoff)
            assert np.all(estimate < 1e-13)

    @pytest.mark.parametrize("N", [10**5, 10**6])
    @pytest.mark.parametrize("m", [2, 3])
    def test_sign_changes_inside_interiors(self, m, N):
        # some vectors' c change sign inside an interior at these N
        U = np.array(self.VECTORS[m]).T
        ell = SlowlyVaryingSpec("log_power", 1.0, 1.0)
        got, estimate, UA, kinks = window_closure(ell, self.PARAMS, N, self.TIMES[m], U)
        want, size = exact_window_sum(ell, self.PARAMS, N, self.TIMES[m], UA)
        assert len({f for f, *_ in kinks}) >= 2
        assert np.all(np.abs(got - want) <= estimate + N * np.finfo(float).eps * size)

    def test_sign_change_rows_summed_exactly(self, monkeypatch):
        # with _L = 1000 at N = 1e4 the second vector's c changes sign 83
        # rows into an interior, where the sum and the integral of
        # |c|^alpha part by 3e-12; the rows within _L of a sign change are
        # summed term by term
        monkeypatch.setattr(cf_oracle, "_L", 1000)
        U = np.array(self.VECTORS[3]).T
        ell = SlowlyVaryingSpec("log_power", 1.0, 1.0)
        got, estimate, UA, kinks = window_closure(ell, self.PARAMS, 10**4, self.TIMES[3], U)
        want, _ = exact_window_sum(ell, self.PARAMS, 10**4, self.TIMES[3], UA)
        assert {f for f, *_ in kinks} == {1, 2}
        assert np.all(np.abs(got - want) < 1e-13)

    def test_exact_when_l_covers_the_window(self, monkeypatch):
        # with _L at least the window length every row is summed term by
        # term, as before the closure: the same value, bit for bit
        N, fdd = 10**5, FddSpec((0.5, 1.0), (1.0, -0.5))
        monkeypatch.setattr(cf_oracle, "_L", N)
        params = self.PARAMS
        out = exact_fdd_log_cf(ELL1, params, N, fdd)
        UA = np.array(fdd.freqs)[:, None] / (N ** (1 / 1.5) * coefficient_sum(ELL1, N))
        want, _ = exact_window_sum(ELL1, params, N, fdd.times, UA)
        assert out.window_part == want[0]

    def test_short_stretches_summed_whole(self):
        # every stretch of at most 2 _L rows is summed term by term
        U = np.array(self.VECTORS[2]).T
        N = 4 * cf_oracle._L
        got, estimate, UA, kinks = window_closure(ELL1, self.PARAMS, N, self.TIMES[2], U)
        want, _ = exact_window_sum(ELL1, self.PARAMS, N, self.TIMES[2], UA)
        assert np.array_equal(got, want)
        assert not estimate.any() and not kinks


class TestPastReference:
    """The past block against references that share no closure code with
    it: its rows to depth K = 3e4 summed by math.fsum from compensated
    prefix sums, each within about one rounding of the exact sum, and
    beyond K an mpmath sum of the digamma series (constant ell,
    mp_past_beyond) or, for log-power ell, the oracle's own closure moved
    out to depth K.  The oracle's prefix sums and spans are accurate to
    _SPAN_RTOL of S, which moves a row's psi(c) by at most |psi'(c)|
    _SPAN_RTOL sum_i |w_i| (S[x + b_i] + S[x]), and the tail beyond K by
    alpha _SPAN_RTOL |tail|; its row sums add log2(K) eps sum |psi|.  So
    the test asserts |past - reference| <= estimate + that round-off, which
    at N = 1e6 is below the seam's end term in every case."""

    K = 30_000

    def check(self, ell, params, N, times, U, beyond):
        got, estimate, UA = past_block(ell, params, N, times, U)
        B = np.array([floor_index(N, t) for t in times])
        S = compensated_prefix_sums(ell, self.K + B[-1])
        x = np.arange(1, self.K + 1)[:, None]
        c = (S[x + B] - S[x]) @ UA
        terms = params.log_cf(c)
        tail = beyond(params, B, UA)
        want = np.array([math.fsum(t.real) + 1j * math.fsum(t.imag) for t in terms.T]) + tail
        moved = params.log_cf_slope(c) * ((S[x + B] + S[x]) @ np.abs(UA))
        roundoff = (cf_oracle._SPAN_RTOL * (moved.sum(axis=0) + params.alpha * np.abs(tail))
                    + math.log2(self.K) * EPS * (np.abs(terms).sum(axis=0) + np.abs(tail)))
        assert np.all(np.abs(got - want) <= estimate + roundoff)
        assert np.all(estimate < 1e-13)

    def mpmath_beyond(self, params, B, UA):
        return np.array([mp_past_beyond(params, B, w, self.K) for w in UA.T])

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("N", [10**2, 10**4, 10**6])
    def test_constant_ell_matches_mpmath(self, N, m):
        # at N = 1e4 and 1e6 some of these vectors' c change sign beyond K
        U = np.array(TestWindowClosure.VECTORS[m]).T
        for params in LAWS:
            self.check(ELL1, params, N, TestWindowClosure.TIMES[m], U, self.mpmath_beyond)

    def test_constant_ell_grid_matches_mpmath(self):
        # the 65-vector m = 2 grid at N = 100, where the bare midpoint
        # closure was off by 2.7e-11
        fdd = TestPastClosure.FDD
        U = np.column_stack([fdd.freqs] + default_frequency_grid(2))
        self.check(ELL1, LAWS[0], 100, fdd.times, U, self.mpmath_beyond)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("N", [10**2, 10**4, 10**6])
    def test_log_power_ell_matches_fsum(self, N, m):
        # the fdd-like vector and the whole default grid (64 vectors for
        # m = 2, 3); at m = 3, N = 1e6 the bare midpoint closure was off by
        # 2.9e-7
        ell = SlowlyVaryingSpec("log_power", 1.0, 1.0)
        times = TestWindowClosure.TIMES[m]
        U = np.column_stack([TestWindowClosure.VECTORS[m][0]] + default_frequency_grid(m))

        def beyond(params, B, UA):
            seam, _ = seam_term(ell, params, N, times, UA, self.K)
            tail, _ = cf_oracle._past_closure(ell, UA, list(B), params, self.K)
            return seam + tail

        for params in LAWS:
            self.check(ell, params, N, times, U, beyond)


class TestLimitLogCf:
    def test_zero(self):
        assert limit_log_cf(SYM15, FddSpec((0.5, 1.0), (0.0, 0.0))) == 0.0

    def test_unit(self):
        assert limit_log_cf(SYM15, FddSpec((1.0,), (1.0,))) == -1.0

    def test_two_point_hand_value(self):
        # v = (0, -1): psi(-1) = -sigma (1 + i D)
        fdd = FddSpec((1.0, 2.0), (1.0, -1.0))
        assert limit_log_cf(SYM15, fdd) == pytest.approx(-1.0)
        assert limit_log_cf(LAWS[1], fdd) == pytest.approx(-2.0 + 1.0j)

    def test_alpha2_quadratic(self):
        params = StandardStable.from_cf(2.0, 0.7, 0.0)
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        v = v_transform(fdd.freqs)
        want = -(0.5 * 0.7 * v[0] ** 2 + 0.5 * 0.7 * v[1] ** 2)
        assert limit_log_cf(params, fdd) == pytest.approx(want, rel=1e-15)


class TestLawInterface:
    PSI = ("log_cf", "log_cf_parts", "log_cf_slope")

    def test_psi_read_off_the_law(self):
        # the oracle and the limit evaluate psi by the methods of the law
        # they are given: a subclass that counts its calls gives the base
        # law's values bit for bit, through every one of them (N = 1e5
        # closes window pieces as well as the past)
        calls = dict.fromkeys(self.PSI, 0)

        class Counting(StandardStable):
            def log_cf(self, u):
                calls["log_cf"] += 1
                return super().log_cf(u)

            def log_cf_parts(self, u, out=(None, None)):
                calls["log_cf_parts"] += 1
                return super().log_cf_parts(u, out)

            def log_cf_slope(self, u):
                calls["log_cf_slope"] += 1
                return super().log_cf_slope(u)

        base, law = (cls.from_cf(1.5, 2.0, -0.5) for cls in (StandardStable, Counting))
        fdd, grid = FddSpec((0.5, 1.0), (1.0, -0.5)), [np.array([1.0, 1.0]),
                                                        np.array([-2.0, 0.25])]
        got = exact_fdd_log_cf(ELL1, law, 10**5, fdd, freq_grid=grid)
        want = exact_fdd_log_cf(ELL1, base, 10**5, fdd, freq_grid=grid)
        assert ((got.value, got.past_part, got.window_part, got.tail_bound, got.j_depth)
                == (want.value, want.past_part, want.window_part, want.tail_bound,
                    want.j_depth))
        assert np.array_equal(got.grid_values, want.grid_values)
        assert limit_log_cf(law, fdd) == limit_log_cf(base, fdd)
        assert all(calls[name] > 0 for name in self.PSI), calls

    def test_no_psi_of_its_own(self):
        # cf_oracle binds no log_cf* function that could bypass the law's
        assert [name for name in vars(cf_oracle) if name.startswith("log_cf")] == []


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

    def test_rows_carry_exact_value_in_order(self):
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        rows = cf_convergence_sweep(ELL1, SYM15, fdd, [20, 50, 100])
        assert [r.n for r in rows] == [20, 50, 100]
        for r in rows:
            assert r.log_cf == exact_fdd_log_cf(ELL1, SYM15, r.n, fdd).value

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
        grid = default_frequency_grid(3)
        assert len(grid) == 64

    @pytest.mark.parametrize("m", range(1, 7))
    def test_grid_is_the_strided_product(self, m):
        # each kept point is read from its index's digits; the reference
        # lists the whole product (8^m points) and strides through it
        full = list(product(cf_oracle._GRID_VALUES, repeat=m))
        stride = max(len(full) // cf_oracle._GRID_CAP, 1)
        want = full[::stride]
        got = default_frequency_grid(m)
        assert len(got) == len(want) == min(8**m, 64)
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and np.array_equal(g, w)

    FDDS = {1: FddSpec((1.0,), (1.0,)), 2: FddSpec((0.5, 1.0), (1.0, -0.5)),
            3: FddSpec((0.2, 0.7, 1.0), (1.0, -0.5, 0.25))}
    # the sums from 0 that the rows read reach 10010, 10100 and 20000, then
    # 10000, and grow again: to 17075 at N = 1e9 with m = 3 and constant
    # ell, to 13529 at N = 1e6 with the m = 3 grid and p = 0.7
    N_LIST = [10, 100, 10**4, 10**5, 10**6, 10**9]

    # every ell, D, m and grid, except the 64 rays of the m = 3 grid with a
    # log-power ell, whose sweeps take 0.7 s each; p = 0.7 at D = 0.7 stays
    ELLS = {"constant": ELL1, "p=-2": SlowlyVaryingSpec("log_power", 1.0, -2.0),
            "p=0.7": SlowlyVaryingSpec("log_power", 1.0, 0.7)}
    CASES = [(e, D, m, g) for e, D, m, g in product(ELLS, [0.0, 0.7], [1, 2, 3], [False, True])
             if not (g and m == 3 and e != "constant") or (e, D) == ("p=0.7", 0.7)]

    @pytest.mark.parametrize("ell, D, m, grid", CASES)
    def test_rows_equal_their_n_alone(self, ell, D, m, grid):
        # the sweep extends one set of sums from 0 across N and reads each
        # N's as a view of them: every row is, bit for bit, that of a call
        # that builds its own
        ell, params = self.ELLS[ell], StandardStable.from_cf(1.5, 1.0, D)
        fdd = self.FDDS[m]
        freq_grid = default_frequency_grid(m) if grid else None
        limits = cf_oracle._limit_log_cfs(
            params, fdd.times, cf_oracle._frequency_matrix(fdd, freq_grid))
        rows = cf_convergence_sweep(ell, params, fdd, self.N_LIST, freq_grid=freq_grid)
        for r in rows:
            one = exact_fdd_log_cf(ell, params, r.n, fdd, freq_grid=freq_grid)
            dist = float(np.max(np.abs(np.append(one.value, one.grid_values) - limits)))
            assert (r.log_cf, r.distance, r.past_part, r.window_part, r.tail_bound) == (
                one.value, dist, abs(one.past_part), abs(one.window_part), one.tail_bound)

    def test_second_sweep_builds_as_many_elements(self, monkeypatch):
        # a run's ell is built afresh (parse_config), so a second sweep on an
        # equal ell builds what the first built: the sums from 0 once to
        # their largest extent, 20000 (20001 elements, where each N building
        # its own would build 10101 + 11001 + 20001 + 10001 + 10001), and the
        # two intervals of 14096 of N = 1e5 and of N = 1e6 (4 x 14096)
        built = []
        build = slowly_varying.coefficient_prefix_sums

        def counting(*args, **kwargs):
            out = build(*args, **kwargs)
            built.append(len(out))
            return out

        monkeypatch.setattr(slowly_varying, "coefficient_prefix_sums", counting)
        monkeypatch.setattr(linear_process, "coefficient_prefix_sums", counting)
        fdd, n_list = self.FDDS[2], [100, 1000, 10**4, 10**5, 10**6]
        counts = []
        for _ in range(2):
            built.clear()
            cf_convergence_sweep(constant(1.0), SYM15, fdd, n_list)
            counts.append(sum(built))
        assert counts == [20001 + 4 * 14096] * 2
        # a second sweep on the same ell reads the sums it holds, and builds
        # only the intervals beyond 0
        ell = constant(1.0)
        cf_convergence_sweep(ell, SYM15, fdd, n_list)
        built.clear()
        cf_convergence_sweep(ell, SYM15, fdd, n_list)
        assert sum(built) == 4 * 14096

    def test_prefix_sums_read_held_sums(self):
        # the interval from 0 is a read-only view of the sums held on ell,
        # which reach past it (30000) or are first extended to its end (from
        # 1000); either way its values are bit for bit those of one cumsum
        # from 0, and the rows those of a fresh ell's prefix sums
        spans = [(0, 12_000), (15_000, 23_000), (39_000, 47_000)]
        B = [20_000, 44_000]
        own = linear_process.PrefixSums(SlowlyVaryingSpec("log_power", 1.0, 0.7), spans)
        for reach in (30_000, 100):
            ell = SlowlyVaryingSpec("log_power", 1.0, 0.7)
            held_prefix_sums(ell, reach)
            S = linear_process.PrefixSums(ell, spans)
            store = held_prefix_sums(ell)
            assert store.size == max(reach, 12_000) + 1
            assert np.shares_memory(S._parts[0], store) and not S._parts[0].flags.writeable
            assert np.array_equal(S._parts[0], coefficient_prefix_sums(ell, 12_000))
            assert np.array_equal(S.rows(-3000, 5000, B), own.rows(-3000, 5000, B))


class TestMcOracleCoherence:
    def test_ecf_matches_exact_cf(self):
        # reps = 1e4, N = 1e3: empirical CF of the normalized fdd sample vs
        # the exact finite-N CF, within 4/sqrt(reps) plus truncation slack
        fdd = FddSpec((0.5, 1.0), (1.0, -0.5))
        proc = ProcessSpec(ELL1, ExactStable(1.5, 0.0, 1.0), 10_000)
        reps, N = 10_000, 1000
        samples = normalized_fdd_sample(proc, N, fdd, reps, 2024)
        est, _ = ecf(samples, fdd.freqs)
        want = np.exp(exact_fdd_log_cf(ELL1, SYM15, N, fdd).value)
        assert abs(est - want) < 4.0 / math.sqrt(reps) + 1e-3
