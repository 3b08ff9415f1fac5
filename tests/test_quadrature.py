"""The package's one adaptive quadrature (stable_law.panel_quad) and every
value that runs through it or replaced a scipy call, against scipy and
mpmath.  Warnings are errors here: neither the package nor a reference may
warn."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from stablesum.innovations import ExactStable, ParetoTail, _tail_first_moment
from stablesum.linear_process import truncation_tail
from stablesum.slowly_varying import big_h_log, coefficient, eval_sv
from stablesum.stable_law import StandardStable, cdf, panel_quad

from reference import constant, log_power

pytestmark = pytest.mark.filterwarnings("error")


class TestPanelQuad:
    def test_polynomial_on_one_panel(self):
        val, err = panel_quad(lambda t, _: t**39)
        assert val[0] == pytest.approx(1.0 / 40.0, rel=1e-14)
        assert err[0] <= 1e-12 / 40.0

    def test_log_singularity_at_zero(self):
        # int_0^1 ln(t)^2 dt = 2: the panel at t = 0 becomes a ladder
        val, err = panel_quad(lambda t, _: np.log(t) ** 2)
        assert val[0] == pytest.approx(2.0, rel=1e-12)
        assert err[0] <= 2e-12

    def test_owners_and_components(self):
        # owner 0 on [0, 1/2] and owner 1 on [1/4, 1], integrands 1 and t
        val, err = panel_quad(lambda t, _: np.stack([np.ones_like(t), t]),
                              pts=[0.0, 0.5, 0.25, 1.0], owner=[0, 0, 1, 1])
        np.testing.assert_allclose(val, [[0.5, 0.75], [0.125, 0.46875]], rtol=1e-15)
        assert err.shape == (2,)


    def test_non_finite_panel_raises(self):
        # a panel whose integral overflows is named at once, not halved for
        # _PANEL_MAX_LEVELS rounds while the panel count doubles
        with pytest.raises(ValueError, match=r"non-finite integral on the quadrature panel \[0.5, 1\]"):
            panel_quad(lambda t, _: np.where(t > 0.5, 1e308, 0.0) * 10.0,
                       pts=[0.0, 0.5, 1.0], owner=[0, 0, 0])

    def test_overflowing_truncation_tail_fails_fast(self):
        # H at alpha = 2 with h = 1e307 ln(e + x)^2 overflows; the path of
        # `verify` with truncation = auto ran out of memory here
        import time
        import tracemalloc

        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="non-finite integral"):
                truncation_tail(constant(1.0), ParetoTail(2.0, 1.0, 1.0, log_power(1e307, 2.0)), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert peak < 50 * 2**20


class TestBigHAlpha2:
    @pytest.mark.parametrize("p", [-1.0, 0.5, 2.0])
    def test_matches_quad(self, p):
        h = log_power(1.0, p)
        t = np.array([1.0, 1.5, math.e, 10.0, 1e3, 1e6, 1e9, 1e12])
        got = big_h_log(h, 2.0, np.log(t))
        for ti, g in zip(t, got):
            integral = 0.0 if ti == 1.0 else quad(
                lambda y: eval_sv(h, math.exp(y)), 0.0, math.log(ti),
                epsabs=0.0, epsrel=1e-12, limit=200)[0]
            want = eval_sv(h, 1.0) - eval_sv(h, ti) + 2.0 * integral
            assert g == pytest.approx(want, rel=1e-10, abs=1e-300)
            one = float(big_h_log(h, 2.0, np.log(ti)))
            assert one == pytest.approx(g, rel=1e-14, abs=1e-300)


class TestTailFirstMoment:
    @pytest.mark.parametrize("alpha", [1.05, 1.3, 1.6, 2.0])
    @pytest.mark.parametrize("p", [-2.0, 0.5, 0.9])
    @pytest.mark.parametrize("x1", [2.0, 40.0, 1e6])
    def test_matches_quad(self, alpha, p, x1):
        spec = ParetoTail(alpha, 1.0, 3.0, log_power(1.0, p))
        ln_x1 = math.log(x1)
        mean_h = quad(lambda s: float(np.logaddexp(1.0, ln_x1 - math.log(s) / (alpha - 1.0))) ** p,
                      0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=400)[0]
        want = 3.0 * x1 ** (1.0 - alpha) * (eval_sv(spec.h, x1) + mean_h / (alpha - 1.0))
        assert _tail_first_moment(spec, 3.0, x1) == pytest.approx(want, rel=1e-10)


class TestGaussianCdf:
    def test_matches_ndtr(self):
        std = StandardStable(2.0, 0.0, 1.7)
        x = np.linspace(-40.0, 40.0, 2001)
        want = ndtr(x / (1.7 * math.sqrt(2.0)))
        np.testing.assert_allclose(cdf(std, x), want, rtol=0.0, atol=1e-15)
        scalar = cdf(std, 0.3)
        assert isinstance(scalar, float)
        assert abs(scalar - ndtr(0.3 / (1.7 * math.sqrt(2.0)))) <= 1e-15


def _long_block_tail(ell, h, alpha, M):
    """truncation_tail as computed before the short block: the 1e6 lags past
    M exactly, and the rest by scipy quad in t with x = X t^(-1/(alpha-1)),
    X = M + 1e6 + 1/2 (alpha < 2, where H is h itself)."""
    cut = M + 10**6
    a = coefficient(ell, np.arange(M + 1, cut + 1, dtype=float))
    block = float(np.sum(a**alpha * eval_sv(h, np.maximum(1.0 / a, 1.0))))
    k, X = 1.0 / (alpha - 1.0), cut + 0.5

    def g(t):
        lnx = math.log(X) - k * math.log(t)
        ell_x = ell.c * float(np.logaddexp(1.0, lnx)) ** ell.p
        return ell_x**alpha * h.c * float(np.logaddexp(1.0, max(lnx - math.log(ell_x), 0.0))) ** h.p

    return block + k * X ** (1.0 - alpha) * quad(g, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=400)[0]


class TestTruncationTail:
    @pytest.mark.parametrize("ell, spec, alpha", [
        (constant(1.0), ExactStable(1.5, 0.0, 1.0), 1.5),
        (log_power(1.0, -2.0), ParetoTail(1.5, 1.0, 2.0, log_power(1.0, 0.5)), 1.5),
        (log_power(1.0, 1.0), ExactStable(1.7, 0.0, 1.0), 1.7),
        (log_power(1.0, 0.5), ParetoTail(1.2, 1.0, 1.0, log_power(1.0, -1.0)), 1.2),
    ])
    @pytest.mark.parametrize("M", [0, 10_000, 640_000])
    def test_matches_long_block(self, ell, spec, alpha, M):
        h = spec.h if isinstance(spec, ParetoTail) else constant(1.0)
        want = _long_block_tail(ell, h, alpha, M)
        assert truncation_tail(ell, spec, M) == pytest.approx(want, rel=1e-9)

    def test_matches_mpmath_sum(self):
        # sum_{i>=1} a_i^1.3 with a_i = 2 ln(e+i)^-0.7 / i: 1000 terms at
        # 30 digits, then Euler-Maclaurin from i = 1000 with the integral
        # taken in u = ln x
        import mpmath as mp

        with mp.workdps(30):
            def f(x):
                return (2 * mp.log(mp.e + x) ** mp.mpf(-0.7) / x) ** mp.mpf(1.3)

            K = 1000
            head = mp.fsum(f(i) for i in range(1, K + 1))
            lnK = mp.log(K)
            integral = mp.quad(lambda u: f(mp.exp(u)) * mp.exp(u),
                               [lnK, lnK + 10, lnK + 100, mp.inf])
            rest = (integral - f(K) / 2 - mp.diff(f, K, 1) / 12
                    + mp.diff(f, K, 3) / 720 - mp.diff(f, K, 5) / 30240)
            want = float(head + rest)
        got = truncation_tail(log_power(2.0, -0.7), ExactStable(1.3, 0.5, 1.0), 0)
        assert got == pytest.approx(want, rel=1e-9)
