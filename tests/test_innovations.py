import dataclasses
import hashlib
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning

from stablesum import innovations, slowly_varying, stable_law
from stablesum.innovations import (
    ExactStable,
    ParetoTail,
    pareto_layout,
    sample_innovations,
)
from stablesum.slowly_varying import SlowlyVaryingSpec, eval_sv, h_alpha_info, newton_root
from stablesum.stable_law import StandardStable, cdf, from_tail_constants, sample

from reference import (AVX2, AVX512, constant, from_standard, log_power, newton_loop, pinned,
                       stable_tail_constant, tail_ratio_check)

SYM_PARETO = ParetoTail(1.5, 0.5, 0.5, constant(1.0))


class TestSampling:
    def test_deterministic(self):
        for spec in (ExactStable(1.5, 0.0, 1.0), SYM_PARETO):
            np.testing.assert_array_equal(sample_innovations(spec, 3, 9),
                                          sample_innovations(spec, 3, 9))

    def test_gaussian_variance(self):
        x = sample_innovations(ExactStable(2.0, 0.0, 1.0), 10**5, 5)
        assert np.var(x) == pytest.approx(2.0, abs=0.1)

    def test_symmetric_pareto_mean(self):
        # fluctuation scale is sigma^{2/3} n^{-1/3} ~ 0.0185 here, so 0.02 is
        # a ~1 sigma band (fixed seed); the sound 4-width bound follows
        x = sample_innovations(SYM_PARETO, 10**6, 4)
        assert abs(np.mean(x)) < 0.02
        width = SYM_PARETO.attractor.sigma ** (2.0 / 3.0) * 10**-2
        for seed in (1, 2, 3):
            y = sample_innovations(SYM_PARETO, 10**6, seed)
            assert abs(np.mean(y)) < 4.0 * width

    def test_centering_rate(self):
        # |mean| < 4 * dispersion / n^{1-1/alpha} at the stable-CLT rate
        spec = ParetoTail(1.5, 1.0, 2.0, constant(1.0))
        x = sample_innovations(spec, 10**6, 17)
        scale_est = spec.attractor.sigma ** (1.0 / 1.5)
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
        with pytest.raises(ValueError, match=r"exact tails need \(s1\+s2\)\*x0\^-a\*h\(x0\) >= 1"):
            ParetoTail(1.5, 0.1, 0.1, constant(1.0), x0=1.0)


def bisection_inverse(spec, x1, g):
    """Reference inverse of the log-power tail survival: bracket growth, then
    80 bisection steps in y = ln x (x itself would overflow in lo * hi near
    g = 1e-300)."""
    a, h = spec.alpha, spec.h
    h1, y1 = eval_sv(h, x1), np.log(x1)

    def surv(y):
        return np.exp(-a * (y - y1)) * eval_sv(h, np.exp(y)) / h1

    hi = y1 - np.log(g) / a
    for _ in range(200):
        bad = surv(hi) > g
        if not np.any(bad):
            break
        hi[bad] += np.log(4.0)
    lo = np.full_like(hi, y1)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = surv(mid) > g
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.exp(0.5 * (lo + hi))


class TestTailInversion:
    @pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.9])
    @pytest.mark.parametrize("p", [-2.0, 0.0, 0.5, 0.9, 1.5])
    def test_newton_matches_bisection(self, alpha, p):
        # down to the sampler's floor g = 1e-300, the last interval of the
        # root table
        spec = ParetoTail(alpha, 1.0, 3.0, log_power(1.0, p))
        g = np.concatenate([np.geomspace(1e-300, 1.0, 1200), [1e-16, 0.5, 1.0]])
        got = innovations._invert_tail_survival(spec, g)
        want = bisection_inverse(spec, spec.layout.x1, g)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_iteration_cap_raises(self, monkeypatch):
        # the root table is solved from the constant-h start, which takes
        # more than one step: the cap is hit while the table is built
        spec = ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.9))
        monkeypatch.setattr(slowly_varying, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="did not converge in 1 Newton steps"):
            sample_innovations(spec, 1000, 3)
        assert "_tail_roots" not in vars(spec)

    def test_table_start_converges_in_one_step(self, monkeypatch):
        # on the law of bench/configs/verify_pareto_logh.ini the table start
        # is certified by the first Newton step for every draw
        spec = ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.5))
        spec._tail_roots
        monkeypatch.setattr(slowly_varying, "_NEWTON_MAX_ITER", 1)
        x = sample_innovations(spec, 10**5, 11)
        assert np.all(np.isfinite(x))

    def test_draw_depends_on_its_own_uniform(self):
        # each draw leaves the Newton loop on its own step, so a prefix of a
        # longer sample is the shorter sample, bit for bit
        spec = ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.5))
        long = sample_innovations(spec, 10**5, 5)
        for k in (1, 7, 1000, 33333):
            np.testing.assert_array_equal(long[:k], sample_innovations(spec, k, 5))
        # also where draws need different step counts: from the constant-h
        # start, as the root table is built
        z = np.geomspace(1e-3, 690.0, 500)
        level, y1 = spec._tail_roots.level, math.log(spec.layout.x1)
        def log_survival(w):
            return innovations._log_survival(spec, w, y1)

        whole = newton_root(log_survival, z - level, z / spec.alpha, 0.0)
        for k in (1, 50, 499):
            part = newton_root(log_survival, z[:k] - level, z[:k] / spec.alpha, 0.0)
            np.testing.assert_array_equal(whole[:k], part)


# sha256 of the bytes of sample_innovations(law, 12000, seed) per SIMD
# target.  The Pareto pins were taken before the tail draws were gathered per
# side and the first Newton step lost its bracket, the CMS pins while
# ExactStable still wrapped a StandardStable and sample called a helper with
# its generator: a faster or simpler sampler must keep every bit.  No 53-bit
# uniform reaches the level floor of 1e-300 (g >= 2^-53 unless the uniform is
# 0), so the clamp is pinned with the floor raised to 1e-2 after the root
# table is built.
BENCH_LAW = ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.5))
CMS_LAWS = {"cms_sym15": (1.5, 0.0, 1.0), "cms_skew12": (1.2, 0.7, 2.0),
            "cms_gauss": (2.0, 0.0, 1.0)}
PINNED_SAMPLES = {
    AVX512: {
        ("bench", 1): "82717cf44c0b5b84af952e0bc47ddde6045c4c9a04922fb404b350c906e28708",
        ("bench", 2): "41d8874951dcce0a94d4c9950de081f59cad59fa201abeabebc2c7d87f7cfae7",
        ("p_minus_2", 1): "6cde1e8e63c409cc0da4ccaca05d667ef346489c2cf3411b22f189f6c0e6c3ce",
        ("p_minus_2", 2): "a71cb76f963800ab26187d83d297c82fb84a6d5d3a4481f9ee2b7071dbd158ff",
        ("constant", 1): "2160aa9570ba36e2941c386134624ed971c297edc0386dec3bb9062e228fdb01",
        ("constant", 2): "e2a6e177e6899367d258f1ad443a04a2f0285507e9efa2043725e11b9ff807a8",
        ("floor", 1): "3a8b1e7207713819d8e9738f1dec56efc341ced699e6697f977572b757fb279c",
        ("floor", 2): "d328c59540e1b07ff2aeff31f41fcd0cf073f95277ef131649f3ff10b0c6adf0",
        ("cms_sym15", 1): "0ea03c1b1397a51e490085821ddfcfc46b37eab2fd504a1e1ae440792e3e2770",
        ("cms_sym15", 2): "4a37f68a71049fdb5e9fbbbf1d0bc939d3bd0f13986d84539f1b5af9fe74abe2",
        ("cms_skew12", 1): "be0260748003db93576c5c5e6311bf831ea4837a56e21954ef36d277e5a036ae",
        ("cms_skew12", 2): "027660a43071b8cbede60bf3d009869d9ce26943aae0329ea95cc05fccf4cc3f",
        ("cms_gauss", 1): "86771e8464a34d107ffd1d316c1f651e28b82c4cb67be51d30d157f30b1549d3",
        ("cms_gauss", 2): "6c33476dc8853b94239daa257ef268f3005e4fa8203c863fa0465e63594ee2ec",
    },
    AVX2: {
        ("bench", 1): "e9d9f85db3dc2dbb5f4d24cd78e29c4f5e1e4ac175cff1bdf33eb3b141977996",
        ("bench", 2): "52224b4417005841c319c716b4c4318f76d69c45e208e892fe99849aafe7d0b9",
        ("p_minus_2", 1): "3e7c89fa697aaa5d181049a473fb0f8436298f0b4457737a6af204b3d3bfce60",
        ("p_minus_2", 2): "be0352dc2ed851a326216919b580e2c4d2775963128783b0a1992f30370ca939",
        ("constant", 1): "912cf22011da074a6c12ca79c27193834a00dda261a159e213299f60f34662b0",
        ("constant", 2): "b5b450d1a6e1ecd9b7cf9611f4a2c3b82448c0a6c7bba88a14a04c3f664192e3",
        ("floor", 1): "b352c880169e9ce25eccef9348e02cf496b3a5f88eae441760281f498650b603",
        ("floor", 2): "858a9f23153cab3170d261e4c38719a45e6f9ace7f18f6b18e87aa888ed24cb0",
        ("cms_sym15", 1): "f4a1300d9d082514de45d28e6c153f56e4725fed4e5f5ed368dead759b8217c2",
        ("cms_sym15", 2): "6113bd764fd28d4de1b3e8e0e97ca8bf5ee9753a9c80e9522d137e15877a4ec8",
        ("cms_skew12", 1): "ce328166b784320c3665bb9cfe1ab1dc67d073fcc368d68efb9ef7dbddb9b762",
        ("cms_skew12", 2): "5febd9f52711e453c38efe874d4e24a050a8a13faa187daf04f8511e0686d380",
        ("cms_gauss", 1): "86771e8464a34d107ffd1d316c1f651e28b82c4cb67be51d30d157f30b1549d3",
        ("cms_gauss", 2): "6c33476dc8853b94239daa257ef268f3005e4fa8203c863fa0465e63594ee2ec",
    },
}


def sample_hash(spec, seed):
    return hashlib.sha256(sample_innovations(spec, 12000, seed).tobytes()).hexdigest()


class TestPinnedSamples:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name, h", [("bench", log_power(1.0, 0.5)),
                                         ("p_minus_2", log_power(1.0, -2.0)),
                                         ("constant", constant(1.0))])
    def test_samples_match_their_pins(self, name, h, seed):
        spec = ParetoTail(1.5, 1.0, 2.0, h)
        assert sample_hash(spec, seed) == pinned(PINNED_SAMPLES)[name, seed]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", sorted(CMS_LAWS))
    def test_cms_samples_match_their_pins(self, name, seed):
        assert sample_hash(ExactStable(*CMS_LAWS[name]), seed) == pinned(PINNED_SAMPLES)[name, seed]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_clamped_samples_match_their_pins(self, monkeypatch, seed):
        spec = ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.5))
        spec._tail_roots
        monkeypatch.setattr(innovations, "_G_FLOOR", 1e-2)
        x = sample_innovations(spec, 12000, seed)
        # the clamped draws of each tail share the largest root
        assert np.sum(x == x.min()) > 1 and np.sum(x == x.max()) > 1
        assert sample_hash(spec, seed) == pinned(PINNED_SAMPLES)["floor", seed]

    @pytest.mark.parametrize("seed", [1, 2, 20240601])
    def test_bench_draw_evaluates_the_survival_once(self, monkeypatch, seed):
        # every tail draw of a bench replicate settles on its first Newton
        # step, which then needs no second evaluation
        BENCH_LAW._tail_roots
        calls = []

        def counted(*args):
            calls.append(1)
            return log_survival(*args)

        log_survival = innovations._log_survival
        monkeypatch.setattr(innovations, "_log_survival", counted)
        sample_innovations(BENCH_LAW, 11999, seed)
        assert len(calls) == 1


def atan_slope(a, b, s):
    """fn(w) = -(a w + b atan(w - s)) and its slope: decreasing, and for a
    small against b its Newton steps overshoot far from the root."""
    def fn(w):
        return -(a * w + b * np.arctan(w - s)), -(a + b / (1.0 + (w - s) ** 2))
    return fn


class TestNewtonRoot:
    # the first step, taken without a bracket, must not change one bit of
    # what the bracketed loop returns
    @settings(max_examples=200, deadline=None)
    # Newton creeping between the two ends of its bracket (see
    # test_creeping_newton_bisects)
    @example(a=0.5, b=5.0, s=4.75, z=[7.5], start="root", lo=0.0, hi=math.inf, seed=0)
    @example(a=0.5, b=3.0, s=4.0, z=[4.0], start="root", lo=0.0, hi=math.inf, seed=0)
    @given(st.floats(1e-3, 2.0), st.floats(0.0, 5.0), st.floats(-5.0, 5.0),
           st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12),
           st.sampled_from(["root", "near", "far", "scalar"]),
           st.floats(-100.0, 0.0), st.one_of(st.just(math.inf), st.floats(0.0, 100.0)),
           st.integers(0, 2**32 - 1))
    def test_matches_the_bracketed_loop(self, a, b, s, z, start, lo, hi, seed):
        fn, z = atan_slope(a, b, s), np.array(z)
        rng = np.random.default_rng(seed)
        root = newton_loop(fn, z, np.zeros_like(z), -1e6, 1e6)  # |root| < 6e4
        if start == "root":  # settles on its first step
            w = root
        elif start == "near":
            w = root * (1.0 + 1e-6 * rng.standard_normal(z.size))
        elif start == "far":  # several steps, bisections, starts outside [lo, hi]
            w = rng.uniform(-200.0, 200.0, z.size)
        else:
            w = float(rng.uniform(-200.0, 200.0))
        with np.errstate(all="ignore"):  # bisections toward hi = inf
            try:
                want = newton_loop(fn, z, w, lo, hi)
            except RuntimeError:
                with pytest.raises(RuntimeError, match="did not converge"):
                    newton_root(fn, z, w, lo, hi)
                return
            assert np.array_equal(newton_root(fn, z, w, lo, hi), want, equal_nan=True)

    def test_creeping_newton_bisects(self):
        # from w = 0 the Newton steps of 7.5 - w/2 - 5 atan(w - 4.75) stay in
        # the bracket but alternate between its ends, which close in on
        # about 1.24 and 16.5 rather than on the root near 6: all 100 steps
        # were taken, and the loop raised
        fn, z = atan_slope(0.5, 5.0, 4.75), np.array([7.5])
        root = newton_root(fn, z, np.zeros(1), -1e6, 1e6)
        assert 6.0 < root[0] < 6.1
        assert abs(z[0] + fn(root)[0][0]) <= 1e-11

    @pytest.mark.parametrize("start, evals", [("root", 1), ("far", 2)])
    def test_first_step_shortcut_taken_when_it_settles(self, start, evals):
        calls = []
        fn = atan_slope(0.01, 1.0, 0.5)

        def counted(w):
            calls.append(1)
            return fn(w)

        z = np.linspace(-1.0, 1.0, 7)  # roots within [-10, 10]
        root = newton_loop(fn, z, np.zeros_like(z), -np.inf)
        w = root if start == "root" else np.full_like(z, 150.0)
        got = newton_root(counted, z, w, -10.0, 10.0)
        assert np.array_equal(got, newton_loop(fn, z, w, -10.0, 10.0))
        assert (len(calls) == 1) == (evals == 1)


def bisection_threshold(spec):
    """Reference support threshold: bracket growth by 4 from x0, then 200
    bisection steps at the geometric midpoint, in x (finite only up to
    2**512, where lo * hi overflows)."""
    def mass(x):
        return (spec.sigma1 + spec.sigma2) * x ** (-spec.alpha) * eval_sv(spec.h, x)

    lo = hi = spec.x0
    while mass(hi) > 1.0:
        lo, hi = hi, hi * 4.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if mass(mid) > 1.0 else (lo, mid)
    return math.sqrt(lo * hi)


def log_mass(spec, x):
    """ln((s1+s2) x^-a h(x)) at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        x = mp.mpf(x)
        return float(mp.log(spec.sigma1 + spec.sigma2) - spec.alpha * mp.log(x)
                     + mp.log(spec.h.c) + spec.h.p * mp.log(mp.log(mp.e + x)))


class TestThreshold:
    @pytest.mark.parametrize("alpha, s1, s2, c, p, x0", [
        (1.5, 1.0, 2.0, 1.0, 0.5, 1.0),
        (1.2, 1.0, 1.0, 1.0, 3.0, 1.0),
        (1.05, 1.0, 3.0, 1.0, -2.0, 1.0),
        (1.9, 0.3, 3.0, 2.0, 0.9, 0.5),
        (2.0, 1.0, 1.0, 1e100, 2.0, 1.0),
        # S rises below x0 = 1000 and S = 1 there too, near 0.039: the root
        # is sought above x0 alone
        (1.2, 0.00916, 0.00916, 1.0, 8.0, 1000.0),
    ])
    def test_matches_bisection(self, alpha, s1, s2, c, p, x0):
        # the Newton root of ln S agrees with the x-form bisection wherever
        # that is finite
        spec = ParetoTail(alpha, s1, s2, log_power(c, p), x0=x0)
        assert spec.threshold >= x0
        assert spec.threshold == pytest.approx(bisection_threshold(spec), rel=1e-14, abs=0.0)
        assert abs(log_mass(spec, spec.threshold)) < 1e-13

    @pytest.mark.parametrize("c, p", [(1e230, 0.5), (1e300, 0.0), (1e300, 0.5)])
    def test_beyond_2_512_solves_in_logs(self, c, p):
        # the x-form bisection overflowed here: sqrt(lo * hi) was inf near
        # 2**512 (1.3e154) and beyond
        spec = ParetoTail(1.5, 1.0, 2.0, log_power(c, p))
        assert 1e153 < spec.threshold < math.inf
        assert abs(log_mass(spec, spec.threshold)) < 1e-13
        assert math.isinf(bisection_threshold(spec))
        lay = spec.layout
        assert lay.p_left > 0.0 and lay.p_right > 0.0 and math.isfinite(lay.x1)

    @pytest.mark.parametrize("h", [constant(1.0), log_power(1.0, 0.5)],
                             ids=["constant", "log_power"])
    def test_tiny_x0_accepted(self, h):
        # x0^-a overflowed a double in the x-form mass check
        tiny = ParetoTail(1.5, 1.0, 2.0, h, x0=1e-300)
        plain = ParetoTail(1.5, 1.0, 2.0, h)
        assert tiny.threshold == pytest.approx(plain.threshold, rel=1e-15, abs=0.0)
        assert abs(log_mass(tiny, tiny.threshold)) < 1e-13

    @pytest.mark.parametrize("alpha, h, s, x0", [
        (1.01, log_power(1e308, 3.0), 1.0, 1.0),
        (1.01, constant(1e300), 1e300, 1.0),
        # (s1+s2)*c underflows to 0 while ln S(x0) >= 0 passes the mass check
        (1.5, log_power(1e-200, 0.5), 1e-200, 1e-300),
        (1.5, constant(1e-200), 1e-200, 1e-300),
    ], ids=["log_power", "constant", "log_power_underflow", "constant_underflow"])
    def test_threshold_beyond_double_range_rejected(self, alpha, h, s, x0):
        with pytest.raises(ValueError, match="within the double range"):
            ParetoTail(alpha, s, s, h, x0=x0)


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
    def test_exact_stable_empirical(self):
        # empirical right-tail constant recovers sigma2 within 15% at 1e6;
        # this pins the skew-sign calibration.  The lighter left tail is
        # pre-asymptotic at the 0.99 quantile, so sigma1 is held to the
        # deeper level only.
        alpha, beta = 1.5, 0.5
        c = stable_tail_constant(alpha)
        sigma1, sigma2 = c * (1.0 - beta) / 2.0, c * (1.0 + beta) / 2.0
        x = sample_innovations(ExactStable(alpha, beta, 1.0), 10**6, 41)
        result = tail_ratio_check(x, alpha, constant(1.0), [0.99, 0.999])
        for got in result.sigma2_hat:
            assert got == pytest.approx(sigma2, rel=0.15)
        assert result.sigma1_hat[1] == pytest.approx(sigma1, rel=0.15)
        # the heavy side must be the right one, in the right proportion
        assert result.sigma2_hat[1] / result.sigma1_hat[1] == pytest.approx(
            sigma2 / sigma1, rel=0.25)


class TestCfParams:
    def test_exact_stable_round_trip(self):
        p = ExactStable(1.5, 0.0, 1.0)
        assert p.sigma == pytest.approx(1.0, rel=1e-6)
        assert p.D == pytest.approx(0.0, abs=1e-12)

    def test_exact_stable_round_trip_skewed(self):
        p = ExactStable(1.3, 0.6, 2.0)
        assert p.sigma == pytest.approx(2.0**1.3, rel=1e-12)
        assert p.D == pytest.approx(0.6 * math.tan(math.pi * 1.3 / 2.0), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.999, 1.9995, 1.99999])
    def test_exact_stable_round_trip_near_two(self, alpha):
        # just below 2 the stable tail constants still round-trip to the
        # law's CF constants, to about 3e-12 relative at alpha = 1.99999
        spec = ExactStable(alpha, 0.7, 1.3)
        want = from_standard(alpha, 0.7, 1.3)
        assert (spec.alpha, spec.sigma, spec.D) == want
        c = stable_tail_constant(alpha) * 1.3**alpha
        p = from_tail_constants(alpha, c * (1.0 - 0.7) / 2.0, c * (1.0 + 0.7) / 2.0)
        assert p.alpha == alpha
        assert p.sigma == pytest.approx(spec.sigma, rel=1e-9)
        assert p.D == pytest.approx(spec.D, rel=1e-9)

    def test_symmetric_pareto(self):
        p = SYM_PARETO.attractor
        assert p.D == 0.0
        assert p.sigma == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_pareto_ecf_matches_attractor_scaling(self):
        # partial sums of the pareto family land on the attractor CF:
        # ECF of S_n / n^{1/alpha} at u -> exp(sigma-weighted exponent)
        spec = SYM_PARETO
        p = spec.attractor
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
        with pytest.raises(ValueError, match="not monotone past x0; reduce the log-power"):
            ParetoTail(1.01, 1.0, 1.0, SlowlyVaryingSpec("log_power", 1.0, 8.0))

    def test_sample_size(self):
        with pytest.raises(ValueError):
            sample_innovations(SYM_PARETO, 0, 1)

    def test_h_overflowing_on_the_exact_tails_is_named(self):
        # h(x1) = 1e307 ln(e + x1)^0.5 overflows a double: the layout once
        # warned three times and then met a non-finite quadrature panel
        spec = ParetoTail(1.5, 1.0, 2.0, log_power(1e307, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: pareto_layout(spec), lambda: sample_innovations(spec, 10, 1)):
                with pytest.raises(ValueError, match="^h overflows a double on the exact tails"):
                    call()


class TestOneAnswerPerQuestion:
    """The law layer answers each question in one way: ExactStable is the
    stable law itself, H is read from ln t alone, H_alpha(N) comes from
    h_alpha_info, CMS sampling from sample, and the alpha range is checked
    in one place."""

    def test_twins_are_gone(self):
        for module, name in ((innovations, "exact_stable"), (slowly_varying, "big_h"),
                             (slowly_varying, "h_alpha"), (stable_law, "_sample_with")):
            assert not hasattr(module, name), name
        law = ExactStable(1.5, 0.0, 1.0)
        assert not hasattr(law, "law")
        for spec in (law, BENCH_LAW):
            assert not hasattr(spec, "big_h")

    def test_exact_stable_is_the_stable_law(self):
        law = ExactStable(1.5, 0.0, 1.0)
        assert isinstance(law, StandardStable)
        assert law == ExactStable(1.5, 0.0, 1.0)
        assert hash(law) == hash(ExactStable(1.5, 0.0, 1.0))
        assert law != StandardStable(1.5, 0.0, 1.0)
        assert law != ExactStable(1.5, 0.1, 1.0)
        assert repr(law) == "ExactStable(alpha=1.5, beta=0.0, scale=1.0, sigma=1.0, D=-0.0)"
        # sample, cdf and the oracle read it as they read the bare law
        bare = StandardStable(1.2, 0.7, 2.0)
        law = ExactStable(1.2, 0.7, 2.0)
        np.testing.assert_array_equal(sample(law, 100, 3), sample(bare, 100, 3))
        np.testing.assert_array_equal(sample_innovations(law, 100, 3), sample(bare, 100, 3))
        assert cdf(law, 0.5) == cdf(bare, 0.5)
        assert (law.sigma, law.D) == (bare.sigma, bare.D)

    def test_exact_stable_keeps_the_checks(self):
        with pytest.raises(ValueError, match=r"need beta in \[-1, 1\]"):
            ExactStable(1.5, 1.5, 1.0)
        with pytest.raises(ValueError, match="need scale > 0"):
            ExactStable(1.5, 0.0, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExactStable(1.5, 0.0, 1.0).alpha = 1.2

    @pytest.mark.parametrize("make", [
        lambda: StandardStable.from_cf(2.5, 1.0, 0.0),
        lambda: StandardStable(1.0, 0.0, 1.0),
        lambda: ExactStable(2.0000001, 0.0, 1.0),
        lambda: from_tail_constants(0.5, 1.0, 1.0),
        lambda: ParetoTail(1.0, 1.0, 1.0, constant(1.0)),
        lambda: h_alpha_info(constant(1.0), 2.5, 10.0),
    ], ids=["skewed", "standard", "exact", "from_tail_constants", "pareto", "h_alpha_info"])
    def test_alpha_range_message(self, make):
        with pytest.raises(ValueError, match=r"^need alpha in \(1, 2\]$"):
            make()

    def test_alpha_range_checked_in_one_place(self):
        src = Path(stable_law.__file__).parent
        hits = [path.name for path in sorted(src.glob("*.py"))
                for _ in re.finditer(re.escape('"need alpha in (1, 2]"'), path.read_text())]
        assert hits == ["stable_law.py"]
