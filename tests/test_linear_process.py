import dataclasses
import hashlib
import math
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from stablesum import innovations
from stablesum import linear_process as lp
from stablesum.cf_oracle import exact_fdd_log_cf
from stablesum.cli import parse_config
from stablesum.innovations import ExactStable, ParetoTail
from stablesum.linear_process import (
    FddSpec,
    ProcessSpec,
    default_truncation_depth,
    floor_index,
    normalized_fdd_sample,
    normalizer,
    path_from_innovations,
    simulate_path,
    truncation_tail,
    window_weights,
)
from stablesum.slowly_varying import (
    SlowlyVaryingSpec,
    big_h_log,
    coefficient,
    coefficient_prefix_sums,
    held_prefix_sums,
)

from reference import AVX2, AVX512, constant, log_power, partial_sums, pinned, prefix_weights

ROOT = Path(__file__).resolve().parents[1]
ELL1 = constant(1.0)
H1 = constant(1.0)


class TestFloorIndex:
    def test_thirds(self):
        assert floor_index(3, 1.0 / 3.0) == 1

    def test_plain(self):
        assert floor_index(100, 0.5) == 50
        assert floor_index(7, 0.4) == 2

    def test_below_one(self):
        assert floor_index(3, 0.1) == 0

    def test_large_products_not_snapped(self):
        # N t near 1e9 and beyond, where a snap relative to N t spans a whole row
        assert floor_index(10**9 + 1, 1.0) == 1_000_000_001
        assert floor_index(10**12, 1.0) == 10**12
        assert floor_index(1_800_000_001, 0.5) == 900_000_000

    @given(st.integers(1, 2**40), st.integers(0, 11), st.data())
    def test_dyadic_times_exact(self, N, j, data):
        k = data.draw(st.integers(0, 2 ** (j + 1)))
        assert floor_index(N, k / 2**j) == (N * k) >> j

    def test_beyond_2_53_refused(self):
        assert floor_index(2**53, 1.0) == 2**53
        with pytest.raises(ValueError, match=r"need 0 <= N\*t <= 2\*\*53"):
            floor_index(2**53 + 2, 1.0)
        with pytest.raises(ValueError, match=r"need 0 <= N\*t <= 2\*\*53"):
            floor_index(20, 1e300)


class TestTruncationTail:
    def test_integral_comparison(self):
        # sum_{i>M} i^{-1.5} ~ 2 M^{-1/2}: 0.02 at M = 1e4
        spec = ParetoTail(1.5, 0.5, 0.5, H1)
        got = truncation_tail(ELL1, spec, 10**4)
        assert got == pytest.approx(float(zeta(1.5, 10**4 + 1)), rel=1e-9)
        assert got == pytest.approx(2.0 * 10**-2, rel=0.01)

    def test_m_scaling(self):
        spec = ParetoTail(1.5, 0.5, 0.5, H1)
        ratio = (truncation_tail(ELL1, spec, 10**8)
                 / truncation_tail(ELL1, spec, 10**4))
        assert ratio == pytest.approx(1e-2, rel=0.01)

    def test_monotone_in_m(self):
        spec = ParetoTail(1.5, 0.5, 0.5, H1)
        tails = [truncation_tail(ELL1, spec, m) for m in (10, 100, 1000)]
        assert tails[0] > tails[1] > tails[2]

    def test_default_depth_policy(self):
        spec = ExactStable(1.5, 0.0, 1.0)
        M = default_truncation_depth(ELL1, spec)
        full = truncation_tail(ELL1, spec, 0)
        assert truncation_tail(ELL1, spec, M) < 1e-3 * full
        assert M >= 10**4

    @pytest.mark.parametrize("ell, spec, alpha, want", [
        (ELL1, ExactStable(1.5, 0.0, 1.0), 1.5, 640_000),
        (log_power(1.0, -2.0), ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.5)), 1.5, 10_000),
        (log_power(1.0, 1.0), ExactStable(1.7, 0.0, 1.0), 1.7, 2_560_000),
        (ELL1, ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.5)), 1.5, 5_120_000),
    ])
    def test_default_depth_is_first_passing_candidate(self, ell, spec, alpha, want):
        # the one-pass depth equals the first M = 1e4 * 2^k whose own
        # truncation_tail is below 1e-3 of the full series, also past M = 1e6
        # where consecutive candidates share no lags
        M = default_truncation_depth(ell, spec)
        assert M == want
        full = truncation_tail(ell, spec, 0)
        assert truncation_tail(ell, spec, M) < 1e-3 * full
        if M > 10_000:
            assert truncation_tail(ell, spec, M // 2) >= 1e-3 * full

    @pytest.mark.parametrize("config, want", [
        ("scripts/configs/oracle_sym15.ini", 640_000),
        ("scripts/configs/simulate_sym15.ini", 640_000),
        ("scripts/configs/verify_sym15.ini", 640_000),
        ("scripts/configs/verify_pareto.ini", 640_000),
        ("bench/configs/oracle_supgrid.ini", 640_000),
        ("bench/configs/verify_pareto_logh.ini", 10_000),
    ])
    def test_config_depths_unchanged(self, config, want):
        # the automatic depth of each shipped and bench config's law, as it
        # was while truncation_tail read H at t (a config that fixes its
        # truncation is resolved as if it read auto)
        cfg = parse_config(ROOT / config)
        assert default_truncation_depth(cfg.ell, cfg.innovation) == want

    def test_gaussian_series_is_sum_of_squares(self):
        # a Gaussian has H == 1: its series is sum a_i^2, met by an exact
        # block to 2e6; with the alpha = 2 Pareto H = 2 ln t of h == 1 the
        # automatic depth was 640000, the Gaussian's own series needs 40000
        ell, gauss = log_power(1.0, 1.0), ExactStable(2.0, 0.0, 1.0)
        end = 2 * 10**6
        a = coefficient(ell, np.arange(1.0, end + 1.0))
        rest = truncation_tail(ell, gauss, end)
        for M in (0, 40_000):
            want = math.fsum((a[M:] ** 2).tolist()) + rest
            assert truncation_tail(ell, gauss, M) == pytest.approx(want, rel=1e-10)
        assert default_truncation_depth(ell, gauss) == 40_000

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6])
    def test_default_depth_independent_of_ell_scale(self, c):
        # with H == 1, tail(M) / tail(0) does not depend on c; an absolute
        # cut of the terms at 1e-16 gave 40000 at c = 1e-6, and the 1e8 cap
        # at c = 1e-12, where every term is below it and tail(0) read 0
        assert default_truncation_depth(constant(c), ExactStable(1.5, 0.0, 1.0)) == 640_000

    @pytest.mark.parametrize("spec", [ExactStable(1.5, 0.0, 1.0),
                                      ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.5))],
                             ids=["stable", "pareto"])
    @pytest.mark.parametrize("p", [-91.0, -300.0])
    def test_default_depth_of_a_vanishing_ell(self, spec, p):
        # every stable term a_i^1.5, a_i = ln(e + i)^p / i, is below 1e-16 at
        # p = -91: the absolute cut read a tail(0) of 0 and ran to the cap,
        # and at p = -300 1/a_i overflowed on the way, on the Pareto law's H
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_truncation_depth(log_power(1.0, p), spec) == 10_000

    def test_default_depth_capped(self):
        # at alpha = 1.2 no candidate below the 1e8 cap passes; the loop used
        # to double once more and return 163840000
        spec = ParetoTail(1.2, 1.0, 1.0, constant(1.0))
        assert default_truncation_depth(ELL1, spec) == lp._M_CAP == 10**8


class TestAlpha2LogPower:
    """alpha = 2 with log-power h: H is a whole-array integral with no
    interpolation, so a lag's H does not depend on the array it is in."""

    ELL = log_power(1.0, 0.5)
    SPEC = ParetoTail(2.0, 1.0, 1.0, log_power(1.0, 0.5))

    def test_default_depth(self):
        assert default_truncation_depth(self.ELL, self.SPEC) == 160_000

    def test_lag_h_independent_of_array(self):
        h = self.SPEC.h
        t = 1.0 / coefficient(self.ELL, np.arange(1.0, 200_001.0))
        whole = big_h_log(h, 2.0, np.log(np.maximum(t, 1.0)))
        for lo, hi in ((0, 10), (10_000, 20_000), (150_000, 150_001), (199_990, 200_000)):
            part = big_h_log(h, 2.0, np.log(np.maximum(t[lo:hi], 1.0)))
            np.testing.assert_allclose(part, whole[lo:hi], rtol=1e-14, atol=0.0)

    def test_h_matches_mpmath(self):
        import mpmath as mp

        t = np.array([1.7, 30.0, 5e4, 3e8, 1e12])
        got = big_h_log(self.SPEC.h, 2.0, np.log(t))
        with mp.workdps(30):
            def h(s):
                return mp.log(mp.e + s) ** mp.mpf(0.5)

            for ti, g in zip(t, got):
                y = mp.log(mp.mpf(ti))
                want = h(1) - h(mp.mpf(ti)) + 2 * mp.quad(lambda u: h(mp.exp(u)), [0, 1, 3, y])
                assert g == pytest.approx(float(want), rel=1e-12)


class TestPath:
    def test_constant_innovations(self):
        # all eps = 1, M = 3: every X_n = 1 + 1/2 + 1/3
        path = path_from_innovations(ELL1, 3, np.ones(7), 5)
        np.testing.assert_allclose(path, 11.0 / 6.0, rtol=1e-15)

    def test_impulse_response(self):
        # eps_j = 1 only at j = 0 reproduces the coefficients exactly
        M, n = 6, 4
        eps = np.zeros(n + M - 1)
        eps[M - 1] = 1.0  # index of j = 0
        path = path_from_innovations(ELL1, M, eps, n)
        want = coefficient(ELL1, np.arange(1, n + 1, dtype=float))
        np.testing.assert_allclose(path, want, rtol=1e-14)

    def test_impulse_response_log_power(self):
        ell = SlowlyVaryingSpec("log_power", 2.0, -1.0)
        M, n = 5, 5
        eps = np.zeros(n + M - 1)
        eps[M - 1] = 1.0
        np.testing.assert_allclose(path_from_innovations(ell, M, eps, n),
                                   coefficient(ell, np.arange(1.0, 6.0)), rtol=1e-14)

    @given(st.integers(1, 8), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, M, n, seed):
        rng = np.random.default_rng(seed)
        e1 = rng.normal(size=n + M - 1)
        e2 = rng.normal(size=n + M - 1)
        left = path_from_innovations(ELL1, M, e1, n) + path_from_innovations(ELL1, M, e2, n)
        right = path_from_innovations(ELL1, M, e1 + e2, n)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)

    def test_simulate_deterministic(self):
        proc = ProcessSpec(ELL1, ExactStable(1.5, 0.0, 1.0), 50)
        np.testing.assert_array_equal(simulate_path(proc, 20, 77),
                                      simulate_path(proc, 20, 77))

    def test_memory_guard(self):
        proc = ProcessSpec(ELL1, ExactStable(1.5, 0.0, 1.0), 10**9)
        with pytest.raises(ValueError):
            simulate_path(proc, 10**9, 1)

    def test_empty_path_rejected(self):
        # n = 0 passes the length check of eps (M - 1 values), and the
        # convolution would return two values
        proc = ProcessSpec(ELL1, ExactStable(1.5, 0.0, 1.0), 5)
        with pytest.raises(ValueError, match="n_out >= 1"):
            simulate_path(proc, 0, 1)

    @pytest.mark.parametrize("ell", [ELL1, log_power(1.0, -2.0)], ids=["constant", "log_power"])
    @pytest.mark.parametrize("innovation", [
        ExactStable(1.5, 0.3, 1.0),
        ParetoTail(1.2, 1.0, 1.0, log_power(1.0, 3.0)),
    ], ids=["stable", "pareto"])
    def test_peak_within_its_count(self, monkeypatch, ell, innovation):
        # the guard counts the law's peak_arrays arrays of K = n + M - 1: one
        # element fewer in the budget refuses the path, and the path holds
        # no more than that count, up to 64 KiB that does not grow with K
        n, M = 30, 200_000
        count = innovation.peak_arrays * (n + M - 1)
        proc = ProcessSpec(ell, innovation, M)
        monkeypatch.setattr(lp, "MEMORY_BUDGET_ELEMENTS", count - 1)
        with pytest.raises(ValueError, match=f"hold about {count} elements"):
            simulate_path(proc, n, 3)
        monkeypatch.setattr(lp, "MEMORY_BUDGET_ELEMENTS", count)
        innovations.sample_innovations(innovation, 10, 1)  # layout and root table
        tracemalloc.start()
        try:
            simulate_path(proc, n, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * count + 2**16


class TestPartialSums:
    def test_full(self):
        np.testing.assert_allclose(partial_sums([1.0, 2.0, 3.0], 3, [1.0]), [6.0])

    def test_split(self):
        np.testing.assert_allclose(partial_sums([1.0, 2.0, 3.0], 3, [1.0 / 3.0, 1.0]),
                                   [1.0, 6.0])

    def test_empty_prefix(self):
        np.testing.assert_allclose(partial_sums([5.0, 5.0], 2, [0.1]), [0.0])

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            partial_sums([1.0], 10, [1.0])


def direct_window_weight(ell, N, times, M, j, col):
    """Brute-force sum over n of a_{n-j} for S(t_col) under lag truncation."""
    b = floor_index(N, times[col])
    total = 0.0
    for n in range(1, b + 1):
        if 1 <= n - j <= M:
            total += coefficient(ell, n - j)
    return total


class TestAggregationIdentity:
    @given(st.integers(2, 40), st.integers(2, 60), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_path_equals_weighted_sum(self, N, M, seed):
        rng = np.random.default_rng(seed)
        times = (0.5, 1.0)
        n_out = floor_index(N, times[-1])
        eps = rng.normal(size=n_out + M - 1)
        path = path_from_innovations(ELL1, M, eps, n_out)
        direct = partial_sums(path, N, times)
        W = window_weights(ELL1, N, times, M)
        np.testing.assert_allclose(eps @ W, direct, rtol=1e-12, atol=1e-12)

    def test_weights_match_double_sum(self):
        ell = SlowlyVaryingSpec("log_power", 1.0, 1.0)
        N, M, times = 11, 7, (0.3, 0.8, 1.0)
        W = window_weights(ell, N, times, M)
        b_m = floor_index(N, times[-1])
        for row, j in enumerate(range(1 - M, b_m)):
            for col in range(len(times)):
                want = direct_window_weight(ell, N, times, M, j, col)
                assert W[row, col] == pytest.approx(want, rel=1e-14, abs=1e-15)


class TestWindowReader:
    """window_weights reads PrefixSums.rows over S[0..M], bit for bit the
    gathered kernel under lag cap M."""

    ELLS = (ELL1, log_power(1.0, -2.0), log_power(1.0, 0.7))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_window_weights_equal_reference_gather(self, data):
        ell = data.draw(st.sampled_from(self.ELLS))
        N = data.draw(st.integers(1, 3000))
        m = data.draw(st.integers(1, 3))
        ticks = sorted(data.draw(st.lists(st.integers(1, 4096), min_size=m, max_size=m,
                                          unique=True)))
        times = [k / 4096 for k in ticks]
        if data.draw(st.booleans()):  # B_1 = 0
            times[0] = min(times[0], 0.5 / N)
        B = [floor_index(N, t) for t in times]
        kind = data.draw(st.sampled_from(["one", "below", "above"]))
        if kind == "one":
            M = 1
        elif kind == "below":  # M < [N t_m]
            M = data.draw(st.integers(1, max(B[-1] - 1, 1)))
        else:
            M = data.draw(st.integers(B[-1] + 1, B[-1] + 3000))
        W = window_weights(ell, N, times, M)
        want = prefix_weights(coefficient_prefix_sums(ell, M), np.arange(1 - M, B[-1]), B, cap=M)
        assert W.shape == want.shape == (B[-1] + M - 1, m)
        assert np.array_equal(W, want)
        assert np.array_equal(np.signbit(W), np.signbit(want))


class TestNormalizedFdd:
    FDD = FddSpec((0.5, 1.0), (1.0, -0.5))

    def test_deterministic(self):
        proc = ProcessSpec(ELL1, ExactStable(1.5, 0.0, 1.0), 40)
        a = normalized_fdd_sample(proc, 30, self.FDD, 8, 123)
        b = normalized_fdd_sample(proc, 30, self.FDD, 8, 123)
        np.testing.assert_array_equal(a, b)

    def test_threads_do_not_change_values(self, monkeypatch):
        # threads is accepted and ignored: every replicate is drawn in the
        # calling thread, and the values are those of the default
        idents = []
        draw = lp.sample_innovations

        def recorded(*args):
            idents.append(threading.get_ident())
            return draw(*args)

        monkeypatch.setattr(lp, "sample_innovations", recorded)
        for innovation in (ExactStable(1.5, 0.0, 1.0),
                           ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.5))):
            proc = ProcessSpec(ELL1, innovation, 40)
            b = normalized_fdd_sample(proc, 30, self.FDD, 9, 5, threads=3)
            a = normalized_fdd_sample(proc, 30, self.FDD, 9, 5)
            assert len(idents) == 18 and set(idents) == {threading.get_ident()}
            idents.clear()
            np.testing.assert_array_equal(a, b)

    def test_pareto_layout_resolved_once(self, monkeypatch):
        calls = []
        original = innovations.pareto_layout

        def counted(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(innovations, "pareto_layout", counted)
        proc = ProcessSpec(ELL1, ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.5)), 40)
        normalized_fdd_sample(proc, 30, self.FDD, 50, 11)
        assert len(calls) == 1

    def test_matches_path_route(self):
        # every replicate row equals simulate_path + partial_sums on the same
        # counter-derived seed (the aggregation identity, end to end)
        proc = ProcessSpec(ELL1, ExactStable(1.5, 0.0, 1.0), 25)
        N, reps, seed = 20, 6, 99
        rows = normalized_fdd_sample(proc, N, self.FDD, reps, seed)
        A = normalizer(proc.ell, proc.innovation, N)
        for r in range(reps):
            path = simulate_path(proc, floor_index(N, self.FDD.times[-1]), [seed, r])
            want = partial_sums(path, N, self.FDD.times) / A
            np.testing.assert_allclose(rows[r], want, rtol=1e-12, atol=1e-14)

    def test_zero_innovations_row(self):
        # all-zero innovations through the path route give an all-zero row
        M, N = 10, 12
        eps = np.zeros(N + M - 1)
        path = path_from_innovations(ELL1, M, eps, N)
        A = normalizer(ELL1, ExactStable(1.5, 0.0, 1.0), N)
        np.testing.assert_array_equal(partial_sums(path, N, self.FDD.times) / A,
                                      [0.0, 0.0])

    def test_replicate_budget_fails_fast(self):
        # reps x m beyond the budget is refused before the samples array is
        # allocated (at reps = 1e10 numpy asked for 149 GiB)
        proc = ProcessSpec(ELL1, ExactStable(1.5, 0.0, 1.0), 25)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="memory budget of 150000000 elements"):
                normalized_fdd_sample(proc, 20, self.FDD, 10**10, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_refused_pass_builds_and_draws_nothing(self, monkeypatch):
        # a fresh ell and M = 5000: the pass would build S[0..5000] and hold
        # it with W, the output and one replicate's draw of K = 5019; one
        # element below that count it builds no partial sums, no W and
        # draws nothing
        ell, M, N, reps = constant(1.0), 5000, 20, 4
        proc = ProcessSpec(ell, ExactStable(1.5, 0.0, 1.0), M)
        K = N + M - 1
        count = (M + 1) + K * 2 + reps * 2 + proc.innovation.peak_arrays * K
        calls = []
        for name in ("window_weights", "sample_innovations"):
            monkeypatch.setattr(lp, name, lambda *a, _n=name, **k: calls.append(_n))
        monkeypatch.setattr(lp, "MEMORY_BUDGET_ELEMENTS", count - 1)
        with pytest.raises(ValueError, match=f"hold about {count} elements"):
            normalized_fdd_sample(proc, N, self.FDD, reps, 1)
        assert not [v for v in vars(ell).values() if isinstance(v, np.ndarray)]
        assert calls == []

    @pytest.mark.parametrize("innovation", [
        ExactStable(1.5, 0.3, 1.0),
        ExactStable(2.0, 0.0, 1.0),
        ParetoTail(1.0001, 1.0, 1.0, constant(1.0)),
        ParetoTail(1.2, 1.0, 1.0, log_power(1.0, 3.0)),
        ParetoTail(1.0001, 1.0, 1.0, log_power(1.0, 3.0)),
    ])
    def test_sampler_peak_within_its_count(self, innovation):
        # the guard's per-replicate count bounds what the sampler holds, up
        # to 64 KiB of objects that do not grow with n; the log-power laws
        # have a tail mass of 0.68 and 0.69, the largest here
        n = 200_000
        innovations.sample_innovations(innovation, 10, 1)  # layout and root table
        tracemalloc.start()
        try:
            innovations.sample_innovations(innovation, n, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * innovation.peak_arrays * n + 2**16

    @pytest.mark.parametrize("h, count", [(constant(1.0), 4), (log_power(1.0, 0.5), 11)],
                             ids=["constant", "log_power"])
    def test_pareto_peak_counts_every_draw_as_a_tail_draw(self, h, count):
        # with an interior mass of 2e-13 every draw is a tail draw, the case
        # the count is derived for: 4 and 11 arrays of n
        spec = ParetoTail(1.0001, 1.0, 1.0, h)
        assert spec.peak_arrays == count
        innovations.sample_innovations(spec, 10, 1)
        vars(spec)["layout"] = dataclasses.replace(spec.layout, p_left=0.5 - 1e-13,
                                                   p_right=0.5 - 1e-13, p0=2e-13)
        n = 200_000
        tracemalloc.start()
        try:
            innovations.sample_innovations(spec, n, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 8 * (count - 1) * n < peak <= 8 * count * n + 2**16

    @pytest.mark.parametrize("times", [(1.0,), (0.5, 1.0), (0.2, 0.5, 1.0)])
    def test_window_weights_peak_within_its_count(self, times):
        # building the sums from 0 held on a fresh ell, S[0..M], or
        # holding them with the K x m block, up to 64 KiB that does not grow
        # with K (a gather's index arrays of K m would pass it)
        N, M = 1000, 100_000
        K = N + M - 1
        tracemalloc.start()
        try:
            window_weights(log_power(1.0, -2.0), N, times, M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * max(3 * (M + 1), M + 1 + K * len(times)) + 2**16

    @pytest.mark.parametrize("threads, refused",
                             [(1, False), (2, False), (1, True), (2, True)])
    def test_budget_counts_replicates_in_flight(self, monkeypatch, threads, refused):
        # K = 89 innovations, M = 70, m = 2, on a fresh ell whose sums from
        # 0 are built before the budget is set: they hold S[0..1000], the
        # anchor of coefficient_sum, so the guard extends nothing and the
        # sampling phase is the peak, 1001 + 89 * 2 + 4 * 2 + 10 * 89 = 2077
        # with its one replicate in flight, whatever threads reads: a budget
        # of 2077 passes and one of 2076 is refused
        ell = constant(1.0)
        assert held_prefix_sums(ell).size == 1001
        monkeypatch.setattr(lp, "MEMORY_BUDGET_ELEMENTS", 2077 - refused)
        proc = ProcessSpec(ell, ExactStable(1.5, 0.0, 1.0), 70)
        if refused:
            with pytest.raises(ValueError, match="hold about 2077 elements"):
                normalized_fdd_sample(proc, 20, self.FDD, 4, 1, threads=threads)
        else:
            assert normalized_fdd_sample(proc, 20, self.FDD, 4, 1, threads=threads).shape == (4, 2)

    def test_budget_counts_the_joint_peak(self, monkeypatch):
        # N = 10, 20: K = 79, 89 innovations, M = 70, m = 2, on a fresh ell
        # whose sums from 0, S[0..1000], are built before the budget is set.
        # Each N alone peaks at 1001 + 79 * 2 + 4 * 2 + 10 * 79 = 1957 or
        # 2077; the joint pass holds the sums, both W and both outputs,
        # 1001 + 178 + 158 + 2 * 8, and the angle stage once, 9 * 89, with
        # each N's exponentials, 79 + 89: 2322
        proc = ProcessSpec(constant(1.0), ExactStable(1.5, 0.0, 1.0), 70)
        held_prefix_sums(proc.ell)
        monkeypatch.setattr(lp, "MEMORY_BUDGET_ELEMENTS", 2321)
        alone = [normalized_fdd_sample(proc, n, self.FDD, 4, 1) for n in (10, 20)]
        with pytest.raises(ValueError, match="hold about 2322 elements"):
            lp.joint_fdd_sample(proc, [10, 20], self.FDD, 4, 1)
        monkeypatch.setattr(lp, "MEMORY_BUDGET_ELEMENTS", 2322)
        for (_, _, got), want in zip(lp.joint_fdd_sample(proc, [10, 20], self.FDD, 4, 1), alone):
            np.testing.assert_array_equal(got, want)

    def test_verify_shape_within_its_count(self, monkeypatch):
        # a verify run on a fresh ell: an oracle sweep to N = 1000, which
        # leaves the sums from 0, S[0..11000], held on ell, then the joint
        # pass, whose weights read them.  The guard counts the held
        # sums, every W, every output and one replicate's draw; one element
        # fewer refuses, and the traced peak, the held sums included, stays
        # within it up to 64 KiB that does not grow with the sizes
        n_list, reps, M = [100, 1000], 20, 10_000
        proc = ProcessSpec(constant(1.0), ExactStable(1.5, 0.0, 1.0), M)
        law, Ks = proc.innovation, [n + M - 1 for n in n_list]
        tracemalloc.start()
        try:
            for n in n_list:
                exact_fdd_log_cf(proc.ell, law, n, self.FDD)
            held = held_prefix_sums(proc.ell).size
            count = (held + 2 * sum(Ks) + 2 * reps * 2 + law.shared_arrays * max(Ks)
                     + (law.peak_arrays - law.shared_arrays) * sum(Ks))
            monkeypatch.setattr(lp, "MEMORY_BUDGET_ELEMENTS", count - 1)
            with pytest.raises(ValueError, match=f"hold about {count} elements"):
                lp.joint_fdd_sample(proc, n_list, self.FDD, reps, 5)
            monkeypatch.setattr(lp, "MEMORY_BUDGET_ELEMENTS", count)
            tracemalloc.reset_peak()
            lp.joint_fdd_sample(proc, n_list, self.FDD, reps, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held == 11_001
        assert peak <= 8 * count + 2**16

    @pytest.mark.parametrize("innovation", [
        ExactStable(1.5, 0.3, 1.0),
        ExactStable(2.0, 0.0, 1.0),
        ParetoTail(1.0001, 1.0, 1.0, constant(1.0)),
        ParetoTail(1.2, 1.0, 1.0, log_power(1.0, 3.0)),
    ])
    def test_joint_draw_peak_within_its_count(self, innovation):
        # the guard's per-replicate count of a draw of several lengths:
        # shared_arrays arrays of the longest and the other peak_arrays
        # arrays of each length, up to 64 KiB that does not grow with n
        lengths = [20_000, 100_000, 200_000]
        innovations.sample_innovations(innovation, 10, 1)  # layout and root table
        tracemalloc.start()
        try:
            innovations.sample_innovations(innovation, lengths, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_length = innovation.peak_arrays - innovation.shared_arrays
        count = innovation.shared_arrays * max(lengths) + per_length * sum(lengths)
        assert peak <= 8 * count + 2**16

    def test_stable_normalizer_builds_no_n_array(self):
        # sum_{i<=N} a_i comes from coefficient_sum: the partial sums up to
        # 1000, bit for bit, and the continuation beyond, in flat memory
        law = ExactStable(1.5, 0.0, 1.0)
        S = coefficient_prefix_sums(ELL1, 1000)
        assert normalizer(ELL1, law, 1000) == 1000 ** (1 / 1.5) * S[1000]
        tracemalloc.start()
        try:
            A = normalizer(ELL1, law, 10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert A == pytest.approx(1e8 * (12 * math.log(10) + 0.5772156649015329), rel=1e-12)

    def test_pareto_normalizer_uses_h_alpha(self):
        # alpha = 2 heavy-tail family scales by sqrt(N H_alpha(N)), not sqrt(N)
        a_pareto = normalizer(ELL1, ParetoTail(2.0, 0.5, 0.5, H1), 1000)
        a_gauss = normalizer(ELL1, ExactStable(2.0, 0.0, 1.0), 1000)
        assert a_pareto > 2.0 * a_gauss

    def test_pareto_normalizer_carries_its_h_alpha(self):
        # against the stable law of the same alpha (H_alpha == 1), a Pareto
        # law's A_N is larger by its own H_alpha(N)^(1/alpha)
        law = ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.5))
        ratio = normalizer(ELL1, law, 1000) / normalizer(ELL1, ExactStable(1.5, 0.0, 1.0), 1000)
        assert law.h_alpha(1000) > 1.5
        assert ratio == pytest.approx(law.h_alpha(1000) ** (1 / 1.5), rel=1e-15)


class TestJointPass:
    """One sampling pass over a 3-N grid gives each N's matrix of
    normalized_fdd_sample at that N alone, bit for bit, with its ignored
    threads argument at 1 and 2.
    The sha256 of each matrix was taken per SIMD target before the pass was
    joint (tests/reference.py: pinned)."""

    FDD = FddSpec((0.5, 1.0), (1.0, -0.5))
    NS, M, REPS, SEED = (20, 100, 400), 500, 8, 7
    LAWS = {
        "cms_sym15": ExactStable(1.5, 0.0, 1.0),
        "cms_skew12": ExactStable(1.2, 0.7, 2.0),
        "cms_gauss": ExactStable(2.0, 0.0, 1.0),
        "pareto_constant": ParetoTail(1.5, 1.0, 2.0, constant(1.0)),
        "pareto_log_power": ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.5)),
    }
    PINS = {
        AVX512: {
            "cms_sym15": ("e4e35870a61b9faf0c4e659a15f22e00416e587e66c55debf7660649f308ef77",
                          "ccc371eab6d104862e37fa101bd79bd4a3953ce7ca8534811aec399fd9607549",
                          "278fcc1959c170a2606ae0061192980a2d87d29da21183c5589b5aa8b3251a3d"),
            "cms_skew12": ("2d8d2a057aefeff5829204b8bf37666c87c2adacaa076083efc892a6e201b237",
                           "68c85b14b88550bb3b5b773b84ea26bdcaa756f82773492e114b198b21b253bd",
                           "17a59f3532d9908f72df579a1a7929ae5741ee4a0a48413b9f874dfac467a756"),
            "cms_gauss": ("88f0e9d5cdf2032296ceb0517cd4279769a00cb020de66bde5892266848fb19e",
                          "438cd9076a51e0f0797bcf79334160c65d85a67c97ca2bbcd5c53ef6f007d3fa",
                          "b5f8d658e84b6916b31df3732a5ed0e84237be5e73cbb36e5b153b47c8516b3d"),
            "pareto_constant": (
                "856c67f7222981bce41fdadb33408b60531b452a94deb4180d4871172bc0a6f7",
                "cd7485dfc619b811de1cd6983700bba5ba85d4d9f95022cb48dc40e2c0e43411",
                "56ff77510c234fc317c575ee792dd89f2ca0ce971547a16d3f23aa55a6be387e"),
            "pareto_log_power": (
                "0cd098f52e94ae5007e0295d1c247224d99c5d296c6b7e2c036701a746a415ac",
                "0deb9615c35d8aa39b4c40dee97f15130fc55c2d3a4be483b439f3eebe14b1fd",
                "8fe59ea9122b486e44fb31c72c47334bc2aeabf8c2b840f0a043f2d9a0cebc4f"),
        },
        AVX2: {
            "cms_sym15": ("370c5d17bbe89460401eb6b4a05c844a3a12dc17df9fd44c29a82d6d1343697d",
                          "7dc12764de626a4c160dc4d3cfca7bdca1af55f6432388751b5ba8ca19cf56c1",
                          "996656e79dc34d54c8a1b37ec9a6aeeb0bee1497446be4d37cc031f6d09a25b8"),
            "cms_skew12": ("b05bee208ed04e80b30f3bae9fbe8cf8e71e37c7529de14ba35d4e6c734d7e94",
                           "980820e944328af3fc3e253e6bd6c4357a5a9f34b104fbd1a616eab48dde9dbc",
                           "b14c314b578fe852ca31bd9530dff28821539f5e71308934c1b150362b634ca7"),
            "cms_gauss": ("88f0e9d5cdf2032296ceb0517cd4279769a00cb020de66bde5892266848fb19e",
                          "438cd9076a51e0f0797bcf79334160c65d85a67c97ca2bbcd5c53ef6f007d3fa",
                          "b5f8d658e84b6916b31df3732a5ed0e84237be5e73cbb36e5b153b47c8516b3d"),
            "pareto_constant": (
                "6694370d22e087edd5a37eaf3b4990720843828b6bf8dac6f891ce6d61630164",
                "8bbd8aaa8f5aa44dafee77b9b421a388483d68b2448cd2c2183af22d916fdc9b",
                "4b8e120183c3d1f519e993d7deccfc85365deac74385f2f887a1deb1262ba3b1"),
            "pareto_log_power": (
                "8d54a1786c8dd09dea0b297a21bac356858820e0790896e0a77acbb0bf2a2f3d",
                "63e5b975ecc9c5ebb3fac656372453dfcad0831855a2b973df1f5ba9b85d1e91",
                "9b3eb3703d2d6a19b6d0d85c55b5c5aaa84e86b7b94fed5c4ab9c84f843455bf"),
        },
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_each_n_is_its_single_n_sample(self, name, threads):
        proc = ProcessSpec(ELL1, self.LAWS[name], self.M)
        joint = lp.joint_fdd_sample(proc, self.NS, self.FDD, self.REPS, self.SEED)
        for N, (_, _, got), pin in zip(self.NS, joint, pinned(self.PINS)[name]):
            alone = normalized_fdd_sample(proc, N, self.FDD, self.REPS, self.SEED,
                                          threads=threads)
            assert np.array_equal(got.view(np.uint64), alone.view(np.uint64))
            assert hashlib.sha256(got.tobytes()).hexdigest() == pin

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_shorter_draws_are_single_draws(self, name):
        # the lengths of the grid's replicates, out of order and with a
        # repeat, drawn with fresh arrays and with arrays kept across seeds
        law = self.LAWS[name]
        lengths = [floor_index(N, self.FDD.times[-1]) + self.M - 1 for N in self.NS]
        lengths = [lengths[1], lengths[2], lengths[0], lengths[1]]
        work = {}
        for seed, kept in ((11, None), ([self.SEED, 0], work), ([self.SEED, 5], work)):
            draws = innovations.sample_innovations(law, lengths, seed, kept)
            for K, got in zip(lengths, draws):
                want = innovations.sample_innovations(law, K, seed)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
