"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see the lines on passing runs).

Criteria 1 and 7 carry monotonicity and ratio sub-checks; the ratio
thresholds (0.45 and 0.2 over N in 1e2..1e6) are not attained by the exact
mathematics of this configuration (the deterministic values are reproduced
below and in /notes; the ratios first clear the thresholds near N = 1e7), so
those two sub-tests fail by design rather than being weakened.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from stablesum.cf_oracle import exact_fdd_log_cf, limit_log_cf, v_transform
from stablesum.innovations import ExactStable, ParetoTail, sample_innovations
from stablesum.linear_process import (
    FddSpec,
    ProcessSpec,
    floor_index,
    normalized_fdd_sample,
    normalizer,
    path_from_innovations,
    window_weights,
)
from stablesum.slowly_varying import (
    SlowlyVaryingSpec,
    coefficient,
    h_alpha_info,
)
from stablesum.stable_law import (
    StandardStable,
    cdf,
    sample,
)
from stablesum.verification import ks_distance

from reference import (aggregated_coefficients, constant, partial_sums, std_log_cf,
                       tail_ratio_check)

ELL1 = constant(1.0)
CRIT_FDD = FddSpec((0.5, 1.0), (1.0, -0.5))
CRIT_NS = [10**2, 10**3, 10**4, 10**5, 10**6]


def report(k, label, ok, detail):
    print(f"[criterion {k}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def criterion1_sweep():
    params = StandardStable.from_cf(1.5, 1.0, 0.0)
    t0 = time.perf_counter()
    rows = [exact_fdd_log_cf(ELL1, params, n, CRIT_FDD) for n in CRIT_NS]
    return rows, time.perf_counter() - t0


class TestCriterion1:
    def test_distance_strictly_decreasing(self, criterion1_sweep):
        rows, elapsed = criterion1_sweep
        dists = [r.distance for r in rows]
        ok = all(a > b for a, b in zip(dists, dists[1:]))
        ok_time = elapsed < 60.0
        detail = ", ".join(f"{d:.6f}" for d in dists) + f"; {elapsed:.1f}s"
        assert report(1, "oracle distance strictly decreasing", ok and ok_time, detail)

    def test_distance_ratio(self, criterion1_sweep):
        rows, _ = criterion1_sweep
        ratio = rows[-1].distance / rows[0].distance
        ok = ratio < 0.45
        report(1, "distance(1e6) < 0.45*distance(1e2)", ok, f"ratio={ratio:.4f}")
        assert ok, (
            f"distance ratio {ratio:.4f} misses the 0.45 threshold; the exact "
            "deterministic value for this configuration is 0.4567 (see the "
            "decisions ledger: the bound is unattainable on this N grid)")


class TestCriterion2:
    def test_exact_finite_n_marginal(self):
        t0 = time.perf_counter()
        law = StandardStable(1.5, 0.0, 1.0)
        process = ProcessSpec(ELL1, ExactStable(1.5, 0.0, 1.0), 10_000)
        n, reps = 1000, 10_000
        fdd = FddSpec((1.0,), (1.0,))
        samples = normalized_fdd_sample(process, n, fdd, reps, 91)[:, 0]
        W = window_weights(ELL1, n, fdd.times, 10_000)[:, 0]
        A = normalizer(process.ell, process.innovation, n)
        marg = StandardStable(1.5, 0.0,
                              float(np.sum(np.abs(W / A) ** 1.5)) ** (1 / 1.5))
        ks = ks_distance(samples, lambda x: cdf(marg, x))
        elapsed = time.perf_counter() - t0
        ok = ks < 0.02 and elapsed < 60.0
        assert report(2, "finite-N marginal KS < 0.02", ok,
                      f"ks={ks:.4f}, scale={marg.scale:.4f}, {elapsed:.1f}s")


class TestCriterion3:
    def test_sampler_cf_coherence(self):
        t0 = time.perf_counter()
        n = 10**5
        bound = 4.0 / math.sqrt(n)
        worst = 0.0
        for alpha in (1.2, 1.5, 1.8, 2.0):
            for beta in (-0.5, 0.0, 0.5):
                std = StandardStable(alpha, beta, 1.0)
                x = sample(std, n, [101, int(alpha * 10), int(beta * 2) + 3])
                for u in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
                    est = np.mean(np.exp(1j * u * x))
                    err = abs(est - np.exp(std_log_cf(std, u)))
                    worst = max(worst, err)
        elapsed = time.perf_counter() - t0
        ok = worst < bound and elapsed < 30.0
        assert report(3, "|ECF - CF| < 4/sqrt(n) on the (alpha, beta) grid",
                      ok, f"worst={worst:.5f} vs {bound:.5f}, {elapsed:.1f}s")


class TestCriterion4:
    def test_tail_recovery(self):
        t0 = time.perf_counter()
        spec = ParetoTail(1.5, 1.0, 2.0, constant(1.0))
        x = sample_innovations(spec, 10**6, 77)
        res = tail_ratio_check(x, 1.5, constant(1.0), [0.99])
        s2, s1 = res.sigma2_hat[0], res.sigma1_hat[0]
        elapsed = time.perf_counter() - t0
        ok = abs(s2 - 2.0) < 0.2 and abs(s1 - 1.0) < 0.1 and elapsed < 30.0
        assert report(4, "tail constants recovered within 10%", ok,
                      f"s2_hat={s2:.3f}, s1_hat={s1:.3f}, {elapsed:.1f}s")


class TestCriterion5:
    def test_h_alpha_residuals(self):
        t0 = time.perf_counter()
        specs = [constant(1.0), constant(5.0)]
        specs += [SlowlyVaryingSpec("log_power", 1.0, p) for p in (-2.0, -1.0, 1.0, 2.0)]
        worst = 0.0
        for h in specs:
            for alpha in (1.2, 1.5, 2.0):
                for n in (10**2, 10**4, 10**6, 10**8):
                    worst = max(worst, h_alpha_info(h, alpha, n).residual)
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-10 and elapsed < 5.0
        assert report(5, "fixed-point residual < 1e-10 on the grid", ok,
                      f"worst={worst:.2e}, {elapsed:.2f}s")


def direct_window_sum(ell, j, lower_n, upper_n, M):
    total = 0.0
    for n in range(lower_n, upper_n + 1):
        lag = n - j
        if 1 <= lag <= M:
            total += coefficient(ell, lag)
    return total


class TestCriterion6:
    def test_algebraic_identities(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2718)
        for trial in range(200):
            N = int(rng.integers(2, 51))
            m = int(rng.integers(1, 5))
            M = int(rng.integers(2, 101))
            ell = SlowlyVaryingSpec("log_power", float(rng.uniform(0.5, 2.0)),
                                    float(rng.uniform(-1.5, 1.5)))
            times = np.sort(rng.uniform(0.05, 1.2, size=m))
            times = tuple(float(t) for t in times)
            B = [floor_index(N, t) for t in times]
            if len(set(B)) != m or B[-1] < 1:
                continue
            u = rng.normal(size=m)

            # telescoping: sum u_i S(t_i) == sum v_i (S(t_i) - S(t_{i-1}))
            eps = rng.normal(size=B[-1] + M - 1)
            path = path_from_innovations(ell, M, eps, B[-1])
            s = partial_sums(path, N, times)
            v = v_transform(u)
            inc = np.diff(np.concatenate([[0.0], s]))
            lhs, rhs = float(np.dot(u, s)), float(np.dot(v, inc))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

            # aggregation: increments equal the weighted innovation sums
            W = window_weights(ell, N, times, M)
            for i in range(m):
                direct = sum(
                    eps[j - (1 - M)] * direct_window_sum(
                        ell, j, max(1, (B[i - 1] if i else 0) + 1), B[i], M)
                    for j in range(1 - M, B[-1]))
                closed = float(np.dot(eps, W[:, i])) - (
                    float(np.dot(eps, W[:, i - 1])) if i else 0.0)
                assert abs(direct - closed) <= 1e-12 * max(1.0, abs(direct))

            # prefix-sum closed form vs the direct double sum
            agg = aggregated_coefficients(ell, N, times, 10)
            for i in range(1, m + 1):
                prev = 0 if i == 1 else B[i - 2]
                for j in (-10, -3, 0, max(0, B[i - 1] - 1)):
                    want = sum(coefficient(ell, n - j)
                               for n in range(max(j + 1, prev + 1), B[i - 1] + 1))
                    assert abs(agg.value(i, j) - want) <= 1e-12 * max(1.0, abs(want))
        elapsed = time.perf_counter() - t0
        ok = elapsed < 10.0
        assert report(6, "aggregation/telescoping/prefix identities (200 runs)",
                      ok, f"{elapsed:.1f}s")


class TestCriterion7:
    def test_past_part_strictly_decreasing(self, criterion1_sweep):
        rows, _ = criterion1_sweep
        pasts = [abs(r.past_part) for r in rows]
        ok = all(a > b for a, b in zip(pasts, pasts[1:]))
        assert report(7, "past part strictly decreasing",
                      ok, ", ".join(f"{p:.6f}" for p in pasts))

    def test_past_part_ratio(self, criterion1_sweep):
        rows, _ = criterion1_sweep
        ratio = abs(rows[-1].past_part) / abs(rows[0].past_part)
        ok = ratio < 0.2
        report(7, "past(1e6) < 0.2*past(1e2)", ok, f"ratio={ratio:.4f}")
        assert ok, (
            f"past-part ratio {ratio:.4f} misses the 0.2 threshold; the exact "
            "deterministic value for this configuration is 0.2577 (see the "
            "decisions ledger: the bound is unattainable on this N grid)")


class TestCriterion8:
    def test_alpha2_gaussian_cross_check(self):
        t0 = time.perf_counter()
        std = StandardStable(2.0, 0.0, 1.0)
        grid = np.linspace(-5.0, 5.0, 101)
        cdf_err = max(abs(cdf(std, x) - float(ndtr(x / math.sqrt(2.0))))
                      for x in grid)

        params = StandardStable.from_cf(2.0, 1.0, 0.0)
        v = v_transform(CRIT_FDD.freqs)
        dt = np.diff(np.concatenate([[0.0], np.asarray(CRIT_FDD.times)]))
        closed_form = complex(-float(np.sum(dt * 1.0 * v**2)), 0.0)
        exact_equal = limit_log_cf(params, CRIT_FDD) == closed_form

        rows = [exact_fdd_log_cf(ELL1, params, n, CRIT_FDD) for n in CRIT_NS]
        dists = [r.distance for r in rows]
        decreasing = all(a > b for a, b in zip(dists, dists[1:]))

        elapsed = time.perf_counter() - t0
        ok = cdf_err < 1e-6 and exact_equal and decreasing and elapsed < 30.0
        assert report(8, "alpha=2 reproduces the Gaussian", ok,
                      f"cdf_err={cdf_err:.2e}, limit exact={exact_equal}, "
                      f"decreasing={decreasing}, {elapsed:.1f}s")
