import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gamma, ndtr

from stablesum import stable_law
from stablesum.stable_law import (
    CdfQuadratureError,
    StandardStable,
    cdf,
    from_tail_constants,
    sample,
)

from reference import (AVX2, AVX512, from_standard, pinned, stable_tail_constant, std_log_cf,
                       to_standard)

from_cf = StandardStable.from_cf


def pareto_cf_oracle(alpha, s1, s2, u, x0=1.0):
    """CF of the centered two-sided pure Pareto law with tail constants
    (s1, s2) by direct oscillatory quadrature (independent of any stable-law
    code)."""
    Z = (s1 + s2) * x0 ** (-alpha)
    mean0 = (s2 - s1) / (s1 + s2) * x0 * alpha / (alpha - 1.0)

    def side(weight, sign):
        dens = lambda x: alpha * weight * x ** (-alpha - 1.0) / Z
        with warnings.catch_warnings():
            # the slow-decay Fourier integrals hit the cycle cap; accuracy is
            # verified by the Richardson fit downstream
            warnings.simplefilter("ignore", IntegrationWarning)
            re = quad(dens, x0, np.inf, weight="cos", wvar=u, epsabs=1e-13, limit=800)[0]
            im = quad(dens, x0, np.inf, weight="sin", wvar=u, epsabs=1e-13, limit=800)[0]
        return complex(re, sign * im)

    return (side(s2, 1.0) + side(s1, -1.0)) * np.exp(-1j * u * mean0)


def cms_reference(std, U, W):
    """Plain Chambers-Mallows-Stuck: libm sin/cos and two powers, as the
    sampler evaluated it before the half-angle kernel."""
    alpha, beta = std.alpha, std.beta
    tb = beta * math.tan(math.pi * alpha / 2.0)
    B = math.atan(tb) / alpha
    S = (1.0 + tb * tb) ** (1.0 / (2.0 * alpha))
    x = (S * np.sin(alpha * (U + B)) / np.cos(U) ** (1.0 / alpha)
         * (np.cos(U - alpha * (U + B)) / W) ** ((1.0 - alpha) / alpha))
    return std.scale * x


def quad_cdf(std, x):
    """Scalar Gil-Pelaez CDF by adaptive quad, as cdf evaluated it before
    the batched rule (alpha < 2)."""
    alpha, scale = std.alpha, std.scale
    s = scale**alpha
    bt = std.beta * math.tan(math.pi * alpha / 2.0)
    u_max = (40.0 / s) ** (1.0 / alpha)

    def integrand(u):
        m = s * u**alpha
        return math.exp(-m) * math.sin(bt * m - u * x) / u

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if abs(x) <= 4.0 * (1.0 + scale):
            total = quad(lambda y: integrand(math.exp(y)) * math.exp(y),
                         -45.0, 0.0, epsabs=1e-9, epsrel=1e-9, limit=300)[0]
            if u_max > 1.0:
                total += quad(integrand, 1.0, u_max,
                              epsabs=1e-9, epsrel=1e-9, limit=300)[0]
        else:
            delta = 0.1 / abs(x)
            total = quad(integrand, 0.0, delta, epsabs=1e-9, epsrel=1e-9, limit=200)[0]
            re_phi = lambda u: math.exp(-s * u**alpha) * math.cos(bt * s * u**alpha) / u
            im_phi = lambda u: math.exp(-s * u**alpha) * math.sin(bt * s * u**alpha) / u
            v_sin = quad(re_phi, delta, np.inf, weight="sin", wvar=abs(x),
                         epsabs=1e-9, limit=300)[0]
            v_cos = quad(im_phi, delta, np.inf, weight="cos", wvar=abs(x),
                         epsabs=1e-9, limit=300)[0]
            total += -math.copysign(1.0, x) * v_sin + v_cos
    return min(1.0, max(0.0, 0.5 - total / math.pi))


class FixedDraws(np.random.Generator):
    """A Generator whose every uniform is r and every exponential is w,
    written into out when given, as a Generator's are."""

    def __init__(self, r, w):
        super().__init__(np.random.PCG64(0))
        self.r, self.w = r, w

    def random(self, n, out=None):
        return filled(n, self.r, out)

    def standard_exponential(self, n, out=None):
        return filled(n, self.w, out)


def filled(n, value, out=None):
    """n copies of value, in out when given."""
    out = np.empty(n) if out is None else out
    out.fill(value)
    return out


# beta = +-1, alpha near 1 and near 2
CMS_GRID = [(1.0001, -1.0), (1.0001, 0.5), (1.0001, 1.0), (1.1, -0.6),
            (1.5, -1.0), (1.5, 0.0), (1.5, 1.0), (1.9, 0.6),
            (1.999999, -1.0), (1.999999, 0.3), (1.999999, 1.0)]


class TestFromTailConstants:
    def test_symmetric_has_zero_skew(self):
        assert from_tail_constants(1.5, 0.5, 0.5).D == 0.0

    def test_scale_constant(self):
        # (s1+s2) * |Gamma(1-alpha) cos(pi alpha/2)| = sqrt(2 pi) here
        got = from_tail_constants(1.5, 0.5, 0.5).sigma
        assert got == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_left_tail_only_skew(self):
        # (s2-s1)/(s1+s2) * tan(pi alpha/2) = (-1)(-1) = +1
        assert from_tail_constants(1.5, 1.0, 0.0).D == pytest.approx(1.0, rel=1e-12)

    def test_alpha2_branch(self):
        p = from_tail_constants(2.0, 0.5, 0.5)
        assert (p.sigma, p.D) == (1.0, 0.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            from_tail_constants(1.5, 0.0, 0.0)

    @pytest.mark.parametrize("s1,s2", [(0.5, 0.5), (1.0, 0.0), (0.5, 1.5)])
    def test_quadrature_oracle_pins_constants(self, s1, s2):
        # extract (sigma, D) from the exact CF of a law with these tails and
        # Richardson-extrapolate the O(u^{2-alpha}) remainder away; the
        # normalized two-sided Pareto has actual tail constants (s1/Z, s2/Z)
        alpha = 1.5
        Z = s1 + s2
        u1, u2 = 1e-3, 3e-4
        est = []
        for u in (u1, u2):
            lc = np.log(pareto_cf_oracle(alpha, s1, s2, u))
            est.append((-lc.real / u**alpha, lc.imag / (-lc.real)))
        k = (u1 / u2) ** (2.0 - alpha)
        sigma_hat = (est[0][0] - k * est[1][0]) / (1.0 - k)
        got = from_tail_constants(alpha, s1 / Z, s2 / Z)
        assert sigma_hat == pytest.approx(got.sigma, rel=2e-3)
        if s1 != s2:
            d_hat = (est[0][1] - k * est[1][1]) / (1.0 - k)
            assert d_hat == pytest.approx(got.D, rel=0.05)

    def test_tail_constant_identity(self):
        # C_alpha * |Gamma(1-alpha) cos(pi alpha/2)| = 1 links the two constants
        for alpha in (1.2, 1.5, 1.8):
            prod = stable_tail_constant(alpha) * abs(
                gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0))
            assert prod == pytest.approx(1.0, rel=1e-12)


# the attractor of the shipped Pareto law (alpha 1.5, s1 = 1, s2 = 2)
SHIPPED_PARETO = from_tail_constants(1.5, 1.0, 2.0)


class TestConversion:
    def test_symmetric(self):
        std = from_cf(1.5, 1.0, 0.0)
        assert (std.alpha, std.beta, std.scale) == (1.5, 0.0, 1.0)

    def test_gaussian(self):
        std = from_cf(2.0, 1.0, 0.0)
        assert (std.alpha, std.beta, std.scale) == (2.0, 0.0, 1.0)

    def test_scale_power(self):
        assert from_cf(1.5, 8.0, 0.0).scale == pytest.approx(4.0)

    @given(st.floats(1.05, 1.99), st.floats(-1.0, 1.0), st.floats(0.1, 10.0))
    @settings(max_examples=80)
    def test_round_trip(self, alpha, beta, scale):
        std = StandardStable(alpha, beta, scale)
        back = from_cf(std.alpha, std.sigma, std.D)
        assert back.alpha == std.alpha
        assert back.beta == pytest.approx(std.beta, rel=1e-12, abs=1e-12)
        assert back.scale == pytest.approx(std.scale, rel=1e-12)

    def test_tail_side_matches_skew_sign(self):
        # the attractor of (s1=1, s2=0) has beta = -1 (no right tail)
        assert from_tail_constants(1.5, 1.0, 0.0).beta == pytest.approx(-1.0)

    @given(st.one_of(st.just(2.0), st.floats(1.01, 1.99)),
           st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
           st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
           st.one_of(st.sampled_from([-1.0 - 1e-13, 1.0 + 1e-13]), st.floats(-1.0, 1.0)))
    @example(2.0, 1.0, 1.0, 3.0, 0.0)
    @example(1.5, -1.0, 2.0, 1.0, -1.0)
    @example(1.5, 1.0, 2.0, 1.0, 1.0 + 1e-13)  # D/tan past 1: beta clamps to 1
    @example(1.5, 0.0, 1.0, SHIPPED_PARETO.sigma, 1.0 / 3.0)
    @settings(max_examples=200)
    def test_constructors_match_reference(self, alpha, beta, scale, sigma, skew):
        # each constructor holds its own pair as given and derives the other
        # bit for bit as the reference conversions do
        law = StandardStable(alpha, beta, scale)
        assert ((law.alpha, law.sigma, law.D) == from_standard(alpha, beta, scale)
                and (law.beta, law.scale) == (beta, scale))
        D = 0.0 if alpha == 2.0 else skew * math.tan(math.pi * alpha / 2.0)
        law = from_cf(alpha, sigma, D)
        assert ((law.alpha, law.beta, law.scale) == to_standard(alpha, sigma, D)
                and (law.sigma, law.D) == (sigma, D))

    def test_shipped_pareto_attractor(self):
        # from_tail_constants holds the constants it computes, and the S1
        # pair is the reference's conversion of them
        law = SHIPPED_PARETO
        assert (law.sigma, law.D) == (7.519884823893001, 1.0 / 3.0 * math.tan(math.pi * 1.5 / 2.0))
        assert (law.alpha, law.beta, law.scale) == to_standard(1.5, law.sigma, law.D)


class TestLogCf:
    def test_h_alpha_is_one(self):
        # H == 1: A_N (linear_process.normalizer) carries no factor for any
        # law the oracle gets, from_cf laws included
        assert from_cf(1.5, 2.0, -0.5).h_alpha(10**6) == 1.0
        assert from_cf(2.0, 1.0, 0.0).h_alpha(7) == 1.0

    def test_zero_frequency(self):
        assert from_cf(1.5, 1.0, 0.0).log_cf(0.0) == 0.0

    def test_unit(self):
        assert from_cf(1.5, 1.0, 0.0).log_cf(1.0) == -1.0

    def test_hand_value(self):
        got = from_cf(1.5, 6.0, -1.0).log_cf(-1.0)
        assert got == pytest.approx(-6.0 * (1.0 - 1.0j))

    def test_modulus_bounded(self):
        grid = np.linspace(-50.0, 50.0, 401)
        for law in (from_cf(1.2, 0.7, 1.0), from_cf(1.5, 2.0, -1.0), from_cf(2.0, 1.0, 0.0)):
            assert np.all(np.abs(np.exp(law.log_cf(grid))) <= 1.0 + 1e-15)

    @pytest.mark.parametrize("params", [from_cf(1.5, 1.0, 0.0), from_cf(1.2, 0.7, 1.0),
                                        from_cf(1.5, 2.0, -0.5), from_cf(2.0, 1.0, 0.0)])
    def test_parts_in_place_match_allocating(self, params):
        # out=(u, im) overwrites u with Re bit for bit, signed zeros
        # included, and im with Im, -D * Re * sgn u as written; at D = 0 im
        # is left alone
        u = np.array([[0.0, -0.0, -1.5, 2.0], [5e-324, -1e-300, 3e100, -7.25]])
        re, im = params.log_cf_parts(u.copy())
        work, work_im = u.copy(), np.full_like(u, np.nan)
        got_re, got_im = params.log_cf_parts(work, out=(work, work_im))
        assert got_re is work
        assert (got_im is work_im) == (params.D != 0.0)
        assert np.array_equal(got_re, re) and np.array_equal(np.signbit(got_re), np.signbit(re))
        assert got_im.shape == im.shape
        assert np.array_equal(got_im, im) and np.array_equal(np.signbit(got_im), np.signbit(im))
        want_im = (-params.D * re * np.sign(u) if params.D != 0.0 else np.zeros((1, 1)))
        assert np.array_equal(im, want_im) and np.array_equal(np.signbit(im), np.signbit(want_im))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="^need D = 0 at alpha = 2$"):
            from_cf(2.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="^need sigma > 0$"):
            from_cf(1.5, -1.0, 0.0)
        with pytest.raises(ValueError, match=r"^need \|D\| <= \|tan\(pi\*alpha/2\)\|$"):
            from_cf(1.5, 1.0, 1.5)  # |D| > |tan(3 pi/4)| = 1

    @pytest.mark.parametrize("D", [math.nan, math.inf, -math.inf])
    def test_non_finite_skew_refused(self, D):
        # a NaN D slipped past |D| > bound, and gave a law whose log_cf is
        # nan+nanj while its S1 pair read beta = -1
        with pytest.raises(ValueError, match=r"^need \|D\| <= \|tan\(pi\*alpha/2\)\|$"):
            from_cf(1.5, 1.0, D)


class TestSample:
    def test_deterministic(self):
        std = StandardStable(1.5, 0.3, 1.0)
        np.testing.assert_array_equal(sample(std, 5, 42), sample(std, 5, 42))

    def test_gaussian_mean(self):
        x = sample(StandardStable(2.0, 0.0, 1.0), 10**5, 7)
        assert abs(np.mean(x)) < 0.02  # 4*sqrt(2/n)

    def test_gaussian_variance(self):
        x = sample(StandardStable(2.0, 0.0, 1.0), 10**5, 7)
        assert np.var(x) == pytest.approx(2.0, abs=0.1)

    def test_ecf_matches_cf(self):
        x = sample(StandardStable(1.5, 0.0, 1.0), 10**5, 11)
        est = np.mean(np.exp(1j * x))
        assert abs(est - math.exp(-1.0)) < 0.013

    def test_ecf_matches_cf_skewed(self):
        std = StandardStable(1.3, 0.7, 1.2)
        x = sample(std, 10**5, 12)
        for u in (-1.0, 0.5, 2.0):
            est = np.mean(np.exp(1j * u * x))
            assert abs(est - np.exp(std_log_cf(std, u))) < 0.013

    def test_power_tail_just_below_two(self):
        # CMS sampling holds for every alpha < 2: at alpha = 1.9995 the tail
        # constants give P(X > 8) = C_alpha (1 + beta)/2 8^-alpha = 6.6e-6,
        # about 6.6 of 1e6 draws; a Gaussian of the same scale gives 0
        alpha, beta = 1.9995, 0.7
        x = sample(StandardStable(alpha, beta, 1.0), 10**6, 20240601)
        assert np.all(np.isfinite(x))
        expected = stable_tail_constant(alpha) * (1 + beta) / 2 * 8.0**-alpha * 10**6
        assert expected == pytest.approx(6.6, abs=0.1)
        assert 1 <= np.count_nonzero(x > 8.0) <= 20

    @pytest.mark.parametrize("alpha, beta", CMS_GRID)
    def test_matches_plain_cms(self, alpha, beta):
        std = StandardStable(alpha, beta, 1.3)
        n, seed = 10**5, 20240601
        got = sample(std, n, seed)
        rng = np.random.default_rng(seed)  # the sampler's draws, in its order
        U = np.pi * (rng.random(n) - 0.5)
        W = np.maximum(rng.standard_exponential(n), np.finfo(float).tiny)
        want = cms_reference(std, U, W)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10

    @pytest.mark.parametrize("alpha, beta", CMS_GRID)
    @pytest.mark.parametrize("r", [0.0, 1.0 - 2.0**-53])
    def test_extreme_uniforms_finite(self, alpha, beta, r):
        # U = -pi/2 or the largest U below pi/2, where tan(U/2) may round to
        # +-1, with the smallest exponential
        x = sample(StandardStable(alpha, beta, 1.0), 3, FixedDraws(r, np.finfo(float).tiny))
        assert np.all(np.isfinite(x))

    def test_sum_stability(self):
        # X1 + X2 with scale c is the same law at scale 2^{1/alpha} c
        alpha, c = 1.5, 0.8
        rng_pair = sample(StandardStable(alpha, 0.0, c), 2 * 10**4, 21)
        sums = rng_pair[:10**4] + rng_pair[10**4:]
        target = StandardStable(alpha, 0.0, 2.0 ** (1.0 / alpha) * c)
        from stablesum.verification import ks_distance
        assert ks_distance(sums, lambda x: cdf(target, x)) < 0.02


class TestCdf:
    def test_symmetric_median(self):
        assert cdf(StandardStable(1.5, 0.0, 1.0), 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_gaussian_median(self):
        assert cdf(StandardStable(2.0, 0.0, 1.0), 0.0) == 0.5

    def test_gaussian_value(self):
        # variance-2 Gaussian at x = 2 is Phi(sqrt 2)
        got = cdf(StandardStable(2.0, 0.0, 1.0), 2.0)
        assert got == pytest.approx(float(ndtr(math.sqrt(2.0))), abs=1e-12)

    def test_monotone(self):
        std = StandardStable(1.5, 0.5, 1.0)
        grid = np.concatenate([np.linspace(-30, 30, 61), [-1e4, 1e4, -1e6, 1e6]])
        grid.sort()
        vals = [cdf(std, x) for x in grid]
        assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))
        assert vals[0] < 0.01 and vals[-1] > 0.99

    def test_against_scipy(self):
        # independent implementation of the same S1 law
        levy = pytest.importorskip("scipy.stats").levy_stable
        std = StandardStable(1.5, 0.5, 1.0)
        for x in (-3.0, -0.5, 0.0, 1.0, 4.0):
            want = float(levy.cdf(x, 1.5, 0.5))
            assert cdf(std, x) == pytest.approx(want, abs=2e-6)

    def test_far_tail_values(self):
        std = StandardStable(1.5, 0.0, 1.0)
        # survival ~ C_alpha/2 x^{-alpha} far out
        c = stable_tail_constant(1.5) / 2.0
        for x in (1e3, 1e5):
            assert 1.0 - cdf(std, x) == pytest.approx(c * x**-1.5, rel=0.02)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            cdf(StandardStable(1.5, 0.0, 1.0), math.inf)
        with pytest.raises(ValueError):
            cdf(StandardStable(1.5, 0.0, 1.0), np.array([0.0, np.nan]))

    def test_array_matches_scalar(self):
        std = StandardStable(1.3, 0.4, 2.0)
        xs = np.array([-1e6, -50.0, -3.0, -0.1, 0.0, 0.2, 1.0, 7.5, 30.0, 1e4])
        got = cdf(std, xs)
        assert isinstance(cdf(std, 1.0), float)
        assert got.shape == xs.shape
        # equal up to the summation order of one matrix product
        np.testing.assert_allclose(got, [cdf(std, x) for x in xs], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(cdf(std, xs.reshape(2, 5)), got.reshape(2, 5))

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("beta", [-1.0, 0.0, 0.6])
    def test_matches_quad_reference(self, alpha, beta):
        std = StandardStable(alpha, beta, 1.0)
        mags = [0.0, 1e-3, 0.3, 1.0, 2.5, 6.0, 11.0, 13.0, 20.0, 30.0, 100.0,
                1e3, 1e4, 1e5]
        xs = np.array(sorted({sign * m for m in mags for sign in (-1.0, 1.0)}))
        want = [quad_cdf(std, x) for x in xs]
        np.testing.assert_allclose(cdf(std, xs), want, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("beta", [-1.0, 0.0, 0.6])
    def test_far_tail_leading_term(self, alpha, beta):
        # from |x| = 1e5 on, P(X > x) and P(X < -x) are C_alpha (1 +- beta)/2
        # |x|^-alpha up to a second term below 3e-11; quad_cdf misses this by
        # up to 4.3e-8 at |x| = 1e6 (alpha = 1.1, beta = 0.6)
        std = StandardStable(alpha, beta, 1.0)
        c = stable_tail_constant(alpha)
        for x in (1e5, 1e6):
            assert 1.0 - cdf(std, x) == pytest.approx(c * (1 + beta) / 2 * x**-alpha, abs=1e-10)
            assert cdf(std, -x) == pytest.approx(c * (1 - beta) / 2 * x**-alpha, abs=1e-10)

    def test_node_budget(self):
        # alpha = 1.001, beta = 1 needs 143976 nodes in the band of |x| near
        # the cutoff and keeps its values; alpha = 1.0001 needs ten times as
        # many and is refused before they are allocated
        xs = np.array([-1200.0, -635.0, 0.0, 1200.0])
        np.testing.assert_allclose(
            cdf(StandardStable(1.001, 1.0, 1.0), xs),
            [7.638334409421077e-14, 0.6640680551457625, 0.999000999000771, 0.9996553229574501],
            rtol=0, atol=1e-12)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget of 150000 nodes"):
                cdf(StandardStable(1.0001, 1.0, 1.0), xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @given(st.one_of(st.just(2.0), st.floats(1.1, 2.0, exclude_max=True)),
           st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))
    def test_seams_in_range_and_nondecreasing(self, alpha, beta):
        # on both sides of each band edge 2^k and of the cutoff to the tail
        # series, where one evaluation hands over to the next, the values
        # lie in [0, 1] and fall by no more than round-off
        got = cdf(StandardStable(alpha, beta, 1.0), cdf_pin_grid(alpha, beta))
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert np.diff(got).min() >= -1e-12

    def test_quadrature_error_raised(self, monkeypatch):
        # three and two nodes per panel cannot resolve the integrand
        monkeypatch.setattr(stable_law, "_CDF_RULES", (stable_law._gauss_legendre(3),
                                                       stable_law._gauss_legendre(2)))
        with pytest.raises(CdfQuadratureError) as info:
            cdf(StandardStable(1.5, 0.3, 1.0), np.linspace(-5.0, 5.0, 11))
        assert info.value.achieved > 1e-6


def cdf_pin_grid(alpha, beta):
    """Points just below, at and just above every band edge of cdf's body
    (|x| = 1, 2, 4, 8, 16 and the cutoff to the tail series), 0, points
    inside the bands and far into both tails, with both signs."""
    cut = 12.0 + 2.0 * abs(beta * math.tan(math.pi * alpha / 2.0))
    edges = [e for e in (1.0, 2.0, 4.0, 8.0, 16.0) if e < cut] + [cut]
    mags = [m for e in edges for m in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]
    mags += [0.5, 3.0, 1.5 * cut, 100.0, 1e4, 1e6]
    return np.array(sorted({s * m for m in mags for s in (-1.0, 1.0)} | {0.0}))


# sha256 of cdf at unit scale on cdf_pin_grid, one batched call per law
PINNED_CDF = {
    AVX512: {
        (1.5, 0.0): "5184d2c7525cdd25d288cc9b3c35b93f507a9b7d7c0eb20f1823e052bc3c3e20",
        (1.5, 0.7): "0c291d2f17e5304ef8a71ac064787b02c38b61d1492524ae4bb048c0860db07b",
        (1.1, -1.0): "7ab8338df2f2eb577de497178c37bf1690f2d97aca573f815175b64e107eadd7",
    },
    AVX2: {
        (1.5, 0.0): "3d8c819f59ae391690d4fe2f68e16c24d959882bc7e2653f123907590a0ad6da",
        (1.5, 0.7): "64d295f1a991db5c16f9deb8748a2a6493d6e0f489c193f2d1dc144a6e082d5d",
        (1.1, -1.0): "2084a59f8239f87a0e053ee28f067f6f6f5830c5244303ec215471799ba2133d",
    },
}


class TestPinnedCdf:
    @pytest.mark.parametrize("alpha, beta", [(1.5, 0.0), (1.5, 0.7), (1.1, -1.0)])
    def test_cdf_matches_its_pins(self, alpha, beta):
        got = cdf(StandardStable(alpha, beta, 1.0), cdf_pin_grid(alpha, beta))
        assert hashlib.sha256(got.tobytes()).hexdigest() == pinned(PINNED_CDF)[alpha, beta]
