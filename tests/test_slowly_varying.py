import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesum import slowly_varying
from stablesum.innovations import ParetoTail
from stablesum.linear_process import normalizer
from stablesum.slowly_varying import (
    HAlphaConvergenceError,
    SlowlyVaryingSpec,
    big_h_log,
    coefficient,
    coefficient_prefix_sums,
    coefficient_sum,
    eval_sv,
    h_alpha_info,
    held_growth,
    held_prefix_sums,
)

from reference import big_h_from_callable, constant, log_power


class TestEval:
    def test_constant(self):
        assert eval_sv(constant(1.0), 100.0) == 1.0

    def test_log_power_at_zero(self):
        # ln(e + 0) = 1
        assert eval_sv(SlowlyVaryingSpec("log_power", 1.0, 1.0), 0.0) == pytest.approx(1.0)

    def test_log_power_hand_value(self):
        # 2 * (ln(e + e^2 - e))^-1 = 2/2 = 1
        spec = SlowlyVaryingSpec("log_power", 2.0, -1.0)
        assert eval_sv(spec, math.e**2 - math.e) == pytest.approx(1.0, rel=1e-14)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            eval_sv(constant(1.0), -1.0)
        with pytest.raises(ValueError):
            SlowlyVaryingSpec("constant", 0.0)
        with pytest.raises(ValueError):
            SlowlyVaryingSpec("powerlog", 1.0)

    @given(st.floats(0.1, 100.0), st.floats(-2.0, 2.0),
           st.floats(0.0, 1e12, allow_nan=False))
    def test_positive(self, c, p, x):
        assert eval_sv(SlowlyVaryingSpec("log_power", c, p), x) > 0.0

    def test_slow_variation_ratio_moderate_exponents(self):
        # f(lambda x)/f(x) -> 1; the 5% band at x = 1e8 holds for |p| <= 1
        for p in (-1.0, -0.5, 0.5, 1.0):
            spec = SlowlyVaryingSpec("log_power", 1.3, p)
            ratio = eval_sv(spec, 2e8) / eval_sv(spec, 1e8)
            assert abs(ratio - 1.0) < 0.05

    def test_slow_variation_trend_steep_exponents(self):
        # |p| = 2 misses the 5% band at 1e8 (ratio 1.077 at lambda=2); assert
        # the actual invariant: the ratio converges to 1 along x
        for p in (-2.0, 2.0):
            spec = SlowlyVaryingSpec("log_power", 1.0, p)
            gaps = [abs(eval_sv(spec, 2 * x) / eval_sv(spec, x) - 1.0)
                    for x in (1e4, 1e8, 1e12)]
            assert gaps[0] > gaps[1] > gaps[2]


class TestCoefficient:
    def test_first(self):
        assert coefficient(constant(1.0), 1) == 1.0

    def test_quarter(self):
        assert coefficient(constant(1.0), 4) == 0.25

    def test_log_power(self):
        got = coefficient(SlowlyVaryingSpec("log_power", 1.0, 1.0), 1)
        assert got == pytest.approx(math.log(math.e + 1.0), rel=1e-14)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            coefficient(constant(1.0), 0)


class TestPrefixSums:
    def test_harmonic(self):
        got = coefficient_prefix_sums(constant(1.0), 3)
        np.testing.assert_allclose(got, [0.0, 1.0, 1.5, 1.5 + 1.0 / 3.0], rtol=1e-15)

    def test_single(self):
        np.testing.assert_allclose(coefficient_prefix_sums(constant(1.0), 1), [0.0, 1.0])

    def test_scaling(self):
        np.testing.assert_allclose(coefficient_prefix_sums(constant(2.0), 2),
                                   [0.0, 2.0, 3.0], rtol=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            coefficient_prefix_sums(constant(1.0), 0)

    def test_large_k_is_fast(self):
        t0 = time.perf_counter()
        out = coefficient_prefix_sums(SlowlyVaryingSpec("log_power", 1.0, -1.0), 10**7)
        assert time.perf_counter() - t0 < 5.0
        assert out.shape == (10**7 + 1,)
        assert np.all(np.diff(out) > 0.0)

    @given(st.integers(2, 2000), st.floats(0.5, 3.0), st.floats(-2.0, 2.0),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_increment_identity(self, K, c, p, data):
        # S_k - S_{k-1} recovers a_k to roundoff relative to the sum scale
        spec = SlowlyVaryingSpec("log_power", c, p)
        S = coefficient_prefix_sums(spec, K)
        k = data.draw(st.integers(1, K))
        assert abs(S[k] - S[k - 1] - coefficient(spec, k)) <= 1e-14 * max(1.0, S[k])


class TestCoefficientSum:
    SPECS = [constant(1.0), constant(2.5), SlowlyVaryingSpec("log_power", 1.0, 1.0),
             SlowlyVaryingSpec("log_power", 1.3, -2.0), SlowlyVaryingSpec("log_power", 2.0, 0.5)]

    def test_offset_prefix_sums(self):
        spec = SlowlyVaryingSpec("log_power", 1.3, -0.7)
        whole = coefficient_prefix_sums(spec, 5000)
        part = coefficient_prefix_sums(spec, 5000, start=3000)
        assert part.shape == (2001,) and part[0] == 0.0
        # the difference of two 5000-term sums carries their round-off
        np.testing.assert_allclose(part, whole[3000:] - whole[3000], rtol=0.0,
                                   atol=5000 * np.finfo(float).eps * whole[-1])
        with pytest.raises(ValueError):
            coefficient_prefix_sums(spec, 10, start=10)

    @pytest.mark.parametrize("spec", [constant(1.0), SlowlyVaryingSpec("log_power", 1.3, -0.7)])
    def test_prefix_sums_continue_from_out(self, spec):
        # continued from S[3000], the running sum is that of the sums from
        # 0, bit for bit, and only the 2000 sums past it are returned
        whole = coefficient_prefix_sums(spec, 5000)
        out = np.full(2001, np.nan)
        out[0] = whole[3000]
        got = coefficient_prefix_sums(spec, 5000, start=3000, out=out)
        assert np.shares_memory(got, out) and got.shape == (2000,)
        assert np.array_equal(out, whole[3000:])

    def test_held_sums_extend_bit_for_bit(self):
        # a spec holds its own partial sums from 0, read-only: built to the
        # anchor at least, then extended by continuing the running sum, so
        # every value is that of one cumsum from 0; held_growth counts each
        # step's peak, which the traced memory stays within
        spec = SlowlyVaryingSpec("log_power", 1.3, -0.7)
        assert held_growth(spec, 10) == (3 * 1001, 1001)
        S = held_prefix_sums(spec, 10)
        assert S.size == 1001 and not S.flags.writeable
        assert held_prefix_sums(spec, 1000) is S and held_growth(spec, 1000) == (0, 1001)
        peak_count, size = held_growth(spec, 200_000)
        assert (peak_count, size) == (1001 + 200_001 + 3 * 199_000, 200_001)
        tracemalloc.start()
        try:
            T = held_prefix_sums(spec, 200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * peak_count + 2**16
        assert held_prefix_sums(spec) is T and np.array_equal(T, coefficient_prefix_sums(spec, 200_000))
        assert held_prefix_sums(SlowlyVaryingSpec("log_power", 1.3, -0.7)).size == 1001

    @pytest.mark.parametrize("spec", SPECS)
    def test_term_by_term_up_to_anchor(self, spec):
        # up to _SUM_ANCHOR it is the prefix-sum array itself, bit for bit
        K = slowly_varying._SUM_ANCHOR
        S = coefficient_prefix_sums(spec, K)
        np.testing.assert_array_equal(coefficient_sum(spec, np.arange(K + 1.0)), S)
        assert coefficient_sum(spec, 7) == S[7] and isinstance(coefficient_sum(spec, 7), float)

    @pytest.mark.parametrize("spec", SPECS)
    def test_continuation_matches_partial_sums(self, spec):
        # beyond the anchor, the continuation at integers against partial sums
        # added exactly (math.fsum)
        for y in (1001, 1500, 12_345, 300_000):
            want = math.fsum(coefficient(spec, np.arange(1.0, y + 1.0)).tolist())
            assert coefficient_sum(spec, y) == pytest.approx(want, rel=2e-15)

    def test_continuation_smooth_between_integers(self):
        # constant ell: c (digamma(y + 1) + gamma) at real y
        import mpmath as mp

        for y in (1000.5, 2.5e4 + 0.25, 1e9 + 0.5, 1e12):
            want = float(mp.digamma(mp.mpf(y) + 1) + mp.euler)
            assert coefficient_sum(constant(1.0), y) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("spec", SPECS[2:])
    def test_log_power_span_matches_partial_sums(self, spec):
        # the Euler-Maclaurin span against the sum it continues, added
        # exactly; its a'(x)/12 term enters with a plus sign
        for x in (1000, 10_000):
            for b in (1, 10, 1000, 100_000):
                want = math.fsum(coefficient(spec, np.arange(x + 1.0, x + b + 1.0)).tolist())
                got = slowly_varying._scaled_spans(spec, math.log(x), [b])[0] / x
                assert got == pytest.approx(want, rel=1e-13)


class TestBigH:
    def test_below_two_is_h_itself(self):
        assert float(big_h_log(constant(3.0), 1.5, np.log(1e6))) == 3.0

    def test_alpha2_constant(self):
        # -int_1^e s^2 d(c/s^2) = 2c ln t = 2 at t = e
        assert float(big_h_log(constant(1.0), 2.0, np.log(math.e))) == pytest.approx(2.0, rel=1e-14)

    def test_alpha2_pure_log_variant(self):
        # h(s) = ln s gives ln^2 t - ln t, i.e. 2 at t = e^2
        got = big_h_from_callable(math.log, math.e**2)
        assert got == pytest.approx(2.0, rel=1e-10)

    def test_alpha2_log_power_matches_callable(self):
        spec = SlowlyVaryingSpec("log_power", 1.0, 1.0)
        direct = float(big_h_log(spec, 2.0, np.log(50.0)))
        via_callable = big_h_from_callable(lambda s: eval_sv(spec, s), 50.0)
        assert direct == pytest.approx(via_callable, rel=1e-12)


class TestHAlpha:
    def test_constant_fixed_point(self):
        assert h_alpha_info(constant(1.0), 1.5, 10**6).value == 1.0

    def test_log_power_closed_form_fixed_point(self):
        # h = ln(e + x) has the fixed point x = 2 where (N x)^(1/alpha) =
        # e^2 - e, so at N = (e^2 - e)^alpha / 2
        N = (math.e**2 - math.e) ** 1.5 / 2.0
        assert h_alpha_info(log_power(1.0, 1.0), 1.5, N).value == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("h, alpha, N", [
        (log_power(1.0, 3.0), 1.1, 1),        # slow contraction: once 2e-12 off
        (log_power(0.01, -3.0), 1.5, 10),     # root at t < 1: once "no root"
        (log_power(1.0, -2.0), 1.5, 10**8),
        (constant(10.0), 2.0, 1),             # once the bisection, 200 "iterations"
        (log_power(1.0, 1.0), 2.0, 10**4),
        (log_power(0.01, 0.0), 2.0, 1000),    # largest root left of ln N / alpha
    ])
    def test_largest_root_matches_mpmath(self, h, alpha, N):
        # the largest root of x = H((N x)^(1/alpha)) at 30 digits, with the
        # alpha = 2 transform h(1) - h(t) + 2 int_0^{ln t} h(e^y) dy
        import mpmath as mp

        with mp.workdps(30):
            def hh(x):
                return h.c * mp.log(mp.e + x) ** mp.mpf(h.p)

            def big(t):
                if alpha < 2.0:
                    return hh(t)
                return hh(1) - hh(t) + 2 * mp.quad(lambda y: hh(mp.exp(y)), [0, mp.log(t)])

            res = h_alpha_info(h, alpha, N)
            def g(x):
                return x - big((N * x) ** (1 / mp.mpf(alpha)))

            want = mp.findroot(g, mp.mpf(res.value))
            # no root beyond it: x exceeds H((N x)^(1/alpha)) from there on
            assert all(g(want * k) > 0 for k in (1.001, 1.1, 10, 1e6))
        assert type(res.value) is float
        assert res.value == pytest.approx(float(want), rel=1e-14)
        assert res.residual <= 1e-14
        assert 1 <= res.iterations <= 20

    def test_bisection_oracle_alpha2(self):
        # brute-force bisection on x - H(N^{1/2} x^{1/2}) over (1e-6, 1e6)
        h = constant(5.0)
        N = 10**3

        def g(x):
            return x - float(big_h_log(h, 2.0, np.log(math.sqrt(N) * math.sqrt(x))))

        lo, hi = 1e-6, 1e6
        assert g(hi) > 0.0 > g(1.0)
        lo = 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        assert h_alpha_info(h, 2.0, N).value == pytest.approx(0.5 * (lo + hi), rel=1e-9)

    def test_residual_contract(self):
        for h in (constant(1.0), SlowlyVaryingSpec("log_power", 1.0, 2.0),
                  SlowlyVaryingSpec("log_power", 1.0, -2.0)):
            for alpha in (1.2, 2.0):
                res = h_alpha_info(h, alpha, 10**4)
                assert res.residual < 1e-10

    def test_residual_above_the_gate_raises(self, monkeypatch):
        # a root is returned only within _H_ALPHA_RESIDUAL_TOL: with Newton
        # stopped at its start, the bracket end, the iterate is refused
        monkeypatch.setattr(slowly_varying, "newton_root", lambda fn, z, w, lo, hi: w)
        with pytest.raises(HAlphaConvergenceError, match="residual .* above 1e-12") as err:
            h_alpha_info(log_power(1.0, 2.0), 1.5, 10**4)
        assert err.value.residual > slowly_varying._H_ALPHA_RESIDUAL_TOL
        assert math.isfinite(err.value.last_iterate)

    def test_nonexistent_fixed_point_raises(self):
        # alpha = 2, h == 1, N = 1: x = ln x has no positive root
        with pytest.raises(HAlphaConvergenceError) as err:
            h_alpha_info(constant(1.0), 2.0, 1)
        assert err.value.last_iterate is not None

    def test_slow_variation_of_h_alpha(self):
        # doubling ratio within 5% at N = 1e8 where the band actually holds:
        # alpha < 2 with |p| <= 1, alpha = 2 with p <= 0 (the alpha = 2
        # transform gains a log power, pushing p = 1 to ratio 1.067)
        def doubling(alpha, p, n):
            h = SlowlyVaryingSpec("log_power", 1.0, p)
            return h_alpha_info(h, alpha, 2 * n).value / h_alpha_info(h, alpha, n).value

        for alpha, p in ((1.5, -1.0), (1.5, 1.0), (2.0, -1.0)):
            assert abs(doubling(alpha, p, 10**8) - 1.0) < 0.05
        # steeper cases miss 5% at 1e8; the gap still shrinks along N
        for alpha, p in ((1.5, 2.0), (2.0, 1.0)):
            gaps = [abs(doubling(alpha, p, n) - 1.0) for n in (10**4, 10**8, 10**12)]
            assert gaps[0] > gaps[1] > gaps[2]


def _a_n(alpha, N):
    """A_N of constant ell = 1 and a Pareto-tail law with h == 1, which
    carries the H_alpha of that h."""
    return normalizer(constant(1.0), ParetoTail(alpha, 0.5, 0.5, constant(1.0)), N)


class TestSteepH:
    def test_refused_past_the_bound_at_alpha2(self):
        # H is nondecreasing iff p t/((e+t) ln(e+t)) <= 2 for all t >= 1
        g = max(t / ((math.e + t) * math.log(math.e + t)) for t in np.linspace(5.8, 5.9, 1001))
        assert slowly_varying._P_MAX_ALPHA2 == pytest.approx(2.0 / g, rel=1e-9)
        with pytest.raises(ValueError, match="need p <= 6.2923864 at alpha = 2"):
            h_alpha_info(log_power(1e4, 8.0), 2.0, 10)
        assert h_alpha_info(log_power(1e4, 6.29), 2.0, 10).residual < 1e-12

    def test_alpha_below_2_unchanged(self):
        assert h_alpha_info(log_power(1.0, 8.0), 1.5, 10).residual < 1e-12


class TestNormalizer:
    def test_unit(self):
        assert _a_n(1.5, 1) == pytest.approx(1.0, rel=1e-14)

    def test_two(self):
        assert _a_n(1.5, 2) == pytest.approx(2.0 ** (2.0 / 3.0) * 1.5, rel=1e-12)

    def test_alpha2_unit_has_no_fixed_point(self):
        # with the cutoff-1 transform H(t) = 2 ln t, x = ln(Nx) is insolvable
        # at N = 1, so the advertised trivial value 1 cannot exist
        with pytest.raises(HAlphaConvergenceError):
            _a_n(2.0, 1)

    def test_monotone_in_n(self):
        vals = [_a_n(1.5, n) for n in range(1, 1001)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_n_alpha2(self):
        vals = [_a_n(2.0, n) for n in range(3, 400)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            _a_n(1.0, 10)
        with pytest.raises(ValueError):
            _a_n(1.5, 0)
