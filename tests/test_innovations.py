import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from stablesum import innovations
from stablesum.innovations import (
    ParetoTail,
    exact_stable,
    innovation_cf_params,
    pareto_layout,
    sample_innovations,
    tail_constants,
)
from stablesum.slowly_varying import SlowlyVaryingSpec, constant, eval_sv, log_power
from stablesum.stable_law import StandardStable, from_standard, from_tail_constants
from stablesum.verification import tail_ratio_check

SYM_PARETO = ParetoTail(1.5, 0.5, 0.5, constant(1.0))


class TestSampling:
    def test_deterministic(self):
        for spec in (exact_stable(1.5, 0.0, 1.0), SYM_PARETO):
            np.testing.assert_array_equal(sample_innovations(spec, 3, 9),
                                          sample_innovations(spec, 3, 9))

    def test_gaussian_variance(self):
        x = sample_innovations(exact_stable(2.0, 0.0, 1.0), 10**5, 5)
        assert np.var(x) == pytest.approx(2.0, abs=0.1)

    def test_symmetric_pareto_mean(self):
        # fluctuation scale is sigma^{2/3} n^{-1/3} ~ 0.0185 here, so 0.02 is
        # a ~1 sigma band (fixed seed); the sound 4-width bound follows
        x = sample_innovations(SYM_PARETO, 10**6, 4)
        assert abs(np.mean(x)) < 0.02
        width = innovation_cf_params(SYM_PARETO).sigma ** (2.0 / 3.0) * 10**-2
        for seed in (1, 2, 3):
            y = sample_innovations(SYM_PARETO, 10**6, seed)
            assert abs(np.mean(y)) < 4.0 * width

    def test_centering_rate(self):
        # |mean| < 4 * dispersion / n^{1-1/alpha} at the stable-CLT rate
        spec = ParetoTail(1.5, 1.0, 2.0, constant(1.0))
        x = sample_innovations(spec, 10**6, 17)
        scale_est = innovation_cf_params(spec).sigma ** (1.0 / 1.5)
        assert abs(np.mean(x)) < 4.0 * scale_est / 10**6 ** (1.0 - 1.0 / 1.5)

    def test_layout_geometry(self):
        # threshold carries unit tail mass; the interior stretch fits inside
        # the exact-tail zone and balances the mean
        spec = ParetoTail(1.5, 1.0, 2.0, constant(1.0))
        assert spec.threshold == pytest.approx(3.0 ** (2.0 / 3.0), rel=1e-12)
        lay = pareto_layout(spec)
        assert lay.x1 == pytest.approx(2.0 * spec.threshold)
        assert abs(lay.center) + lay.width < lay.x1
        tail_mean_balance = lay.p0 * lay.center
        assert lay.p_left + lay.p_right + lay.p0 == pytest.approx(1.0, rel=1e-14)
        x = sample_innovations(spec, 10**4, 3)
        inside = (np.abs(x) < lay.x1 * (1.0 - 1e-12))
        band = (x >= lay.center - lay.width - 1e-12) & (x <= lay.center + lay.width + 1e-12)
        assert np.all(band[inside])

    def test_exact_tails_realized(self):
        # P(e > q) = s2 q^-a h(q) exactly, with no normalization or shift
        spec = ParetoTail(1.5, 1.0, 2.0, constant(1.0))
        x = sample_innovations(spec, 10**6, 23)
        for q in (9.0, 20.0, 40.0):
            assert np.mean(x > q) == pytest.approx(2.0 * q**-1.5, rel=0.05)
            assert np.mean(x <= -q) == pytest.approx(1.0 * q**-1.5, rel=0.08)

    def test_log_power_inverse_transform(self):
        # sampled magnitudes reproduce the survival law with h realized
        h = SlowlyVaryingSpec("log_power", 1.0, 1.0)
        spec = ParetoTail(1.5, 0.5, 0.5, h)
        x = sample_innovations(spec, 10**6, 23)
        for q in (4.0, 8.0, 20.0):
            want = 0.5 * q**-1.5 * eval_sv(h, q)
            got = np.mean(x > q)
            assert got == pytest.approx(want, rel=0.05)

    def test_infeasible_threshold_rejected(self):
        # tails too light to carry unit mass beyond x0
        with pytest.raises(ValueError):
            ParetoTail(1.5, 0.1, 0.1, constant(1.0), x0=1.0)


def bisection_inverse(spec, x1, g):
    """Reference inverse of the log-power tail survival: bracket growth, then
    80 bisection steps in log space."""
    a, h = spec.alpha, spec.h
    h1 = eval_sv(h, x1)

    def surv(x):
        return (x / x1) ** (-a) * eval_sv(h, x) / h1

    hi = x1 * g ** (-1.0 / a)
    for _ in range(200):
        bad = surv(hi) > g
        if not np.any(bad):
            break
        hi[bad] *= 4.0
    lo = np.full_like(hi, x1)
    for _ in range(80):
        mid = np.sqrt(lo * hi)
        below = surv(mid) > g
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.sqrt(lo * hi)


class TestTailInversion:
    @pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.9])
    @pytest.mark.parametrize("p", [-2.0, 0.5, 0.9, 1.5])
    def test_newton_matches_bisection(self, alpha, p):
        spec = ParetoTail(alpha, 1.0, 3.0, log_power(1.0, p))
        x1 = spec.layout.x1
        g = np.concatenate([np.geomspace(1e-16, 1.0, 400), [0.5, 1.0]])
        got = innovations._invert_tail_survival(spec, x1, g)
        want = bisection_inverse(spec, x1, g)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_iteration_cap_raises(self, monkeypatch):
        spec = ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.9))
        monkeypatch.setattr(innovations, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(RuntimeError):
            sample_innovations(spec, 1000, 3)


class TestTailFirstMoment:
    @pytest.mark.parametrize("alpha, p", [(1.05, 0.9), (1.2, -2.0)])
    def test_center_matches_mpmath(self, alpha, p):
        # heavy tails decay too slowly for quad on [x1, inf); the reference
        # integrates int_x1^inf x^-a h(x) dx at 40 digits in t = ln(x/x1);
        # mpmath is a test dependency, imported here so that a missing install
        # fails this test and not the collection of the whole module
        import mpmath as mp

        spec = ParetoTail(alpha, 1.0, 3.0, log_power(1.0, p))
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            lay = pareto_layout(spec)
        with mp.workdps(40):
            a, x1 = mp.mpf(alpha), mp.mpf(lay.x1)
            k = 1 / (a - 1)
            integral = x1 ** (1 - a) * mp.quad(
                lambda t: mp.exp((1 - a) * t) * mp.log(mp.e + x1 * mp.exp(t)) ** p,
                [0, k, 4 * k, 16 * k, 64 * k, mp.inf])
            tail_mean = (spec.sigma2 - spec.sigma1) * (
                x1 ** (1 - a) * mp.log(mp.e + x1) ** p + integral)
            want = float(-tail_mean / lay.p0)
        assert lay.center == pytest.approx(want, rel=1e-10)


class TestTailConstants:
    def test_pareto_pass_through(self):
        spec = ParetoTail(1.5, 1.0, 2.0, constant(1.0))
        tc = tail_constants(spec)
        assert (tc.alpha, tc.sigma1, tc.sigma2) == (1.5, 1.0, 2.0)
        assert tc.h == constant(1.0)

    def test_exact_stable_symmetric(self):
        tc = tail_constants(exact_stable(1.5, 0.0, 1.0))
        assert tc.sigma1 == tc.sigma2

    def test_exact_stable_empirical(self):
        # empirical right-tail constant recovers sigma2 within 15% at 1e6;
        # this pins the skew-sign calibration.  The lighter left tail is
        # pre-asymptotic at the 0.99 quantile, so sigma1 is held to the
        # deeper level only.
        spec = exact_stable(1.5, 0.5, 1.0)
        tc = tail_constants(spec)
        x = sample_innovations(spec, 10**6, 41)
        result = tail_ratio_check(x, 1.5, tc.h, [0.99, 0.999])
        for got in result.sigma2_hat:
            assert got == pytest.approx(tc.sigma2, rel=0.15)
        assert result.sigma1_hat[1] == pytest.approx(tc.sigma1, rel=0.15)
        # the heavy side must be the right one, in the right proportion
        assert result.sigma2_hat[1] / result.sigma1_hat[1] == pytest.approx(
            tc.sigma2 / tc.sigma1, rel=0.25)

    def test_gaussian_constants(self):
        tc = tail_constants(exact_stable(2.0, 0.0, 1.5))
        assert tc.sigma1 == tc.sigma2 == pytest.approx(0.5 * 1.5**2)


class TestCfParams:
    def test_exact_stable_round_trip(self):
        p = innovation_cf_params(exact_stable(1.5, 0.0, 1.0))
        assert p.sigma == pytest.approx(1.0, rel=1e-6)
        assert p.D == pytest.approx(0.0, abs=1e-12)

    def test_exact_stable_round_trip_skewed(self):
        p = innovation_cf_params(exact_stable(1.3, 0.6, 2.0))
        assert p.sigma == pytest.approx(2.0**1.3, rel=1e-12)
        assert p.D == pytest.approx(0.6 * math.tan(math.pi * 1.3 / 2.0), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.999, 1.9995, 1.99999])
    def test_exact_stable_round_trip_near_two(self, alpha):
        # the Gaussian branch of tail_constants belongs to alpha = 2 only, so
        # the tail constants still round-trip to the law's CF constants
        spec = exact_stable(alpha, 0.7, 1.3)
        want = from_standard(StandardStable(alpha, 0.7, 1.3))
        assert innovation_cf_params(spec) == want
        tc = tail_constants(spec)
        p = from_tail_constants(tc.alpha, tc.sigma1, tc.sigma2)
        assert p.alpha == alpha
        assert p.sigma == pytest.approx(want.sigma, rel=1e-9)
        assert p.D == pytest.approx(want.D, rel=1e-9)

    def test_symmetric_pareto(self):
        p = innovation_cf_params(SYM_PARETO)
        assert p.D == 0.0
        assert p.sigma == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_pareto_ecf_matches_attractor_scaling(self):
        # partial sums of the pareto family land on the attractor CF:
        # ECF of S_n / n^{1/alpha} at u -> exp(sigma-weighted exponent)
        spec = SYM_PARETO
        p = innovation_cf_params(spec)
        n, reps = 4000, 4000
        x = sample_innovations(spec, n * reps, 77).reshape(reps, n)
        s = x.sum(axis=1) / n ** (1.0 / spec.alpha)
        for u in (0.5, 1.0):
            want = np.exp(-p.sigma * u**spec.alpha)
            got = np.mean(np.exp(1j * u * s))
            assert abs(got - want) < 4.0 / math.sqrt(reps) + 0.01


class TestValidation:
    def test_bad_tail_weights(self):
        with pytest.raises(ValueError):
            ParetoTail(1.5, 0.0, 0.0, constant(1.0))

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            ParetoTail(1.0, 1.0, 1.0, constant(1.0))

    def test_nonmonotone_survival_rejected(self):
        # steep positive log power destroys monotonicity of x^-a h(x)
        with pytest.raises(ValueError):
            ParetoTail(1.01, 1.0, 1.0, SlowlyVaryingSpec("log_power", 1.0, 8.0))

    def test_sample_size(self):
        with pytest.raises(ValueError):
            sample_innovations(SYM_PARETO, 0, 1)
