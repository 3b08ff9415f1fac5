"""Reference helpers that only the tests use: the gathered weight kernel,
aggregated coefficients, compensated prefix sums, path partial sums, the
standard-parametrization log-CF, empirical tail constants, the slowly
varying derivative, H for a scalar callable, the oracle's in-window block
summed term by term and the safeguarded Newton loop without its first-step
shortcut.

No CLI or library path needs them; the tests check the package against
them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stablesum.linear_process import PrefixSums, floor_index
from stablesum.slowly_varying import (
    _NEWTON_MAX_ITER,
    _NEWTON_RTOL,
    SlowlyVaryingSpec,
    _big_h_integral,
    coefficient,
    coefficient_prefix_sums,
    eval_sv,
)
from stablesum.stable_law import SkewedStableParams, StandardStable, from_standard, log_cf


def gather(S, idx) -> np.ndarray:
    """S[idx] for an integer array idx of any shape, gathered: from an
    array S, or from the merged intervals of a PrefixSums S, each index
    read in the interval that holds it."""
    if not isinstance(S, PrefixSums):
        return S.take(idx)
    seg = np.searchsorted(S._starts, idx, side="right") - 1
    return S._values.take(idx - S._shift.take(seg))


def prefix_weights(S, j, upper, *, cap: int | None = None) -> np.ndarray:
    """Weight kernel, gathered: for each row j of the integer array j (any
    shape) and each column c (a new last axis), the weight of eps_j in
    sum_{n = 1}^{upper_c} X_n under lag cap `cap`,

        sum_{k = lo+1}^{hi} a_k = S[hi] - S[lo],
        lo = max(-j, 0),  hi = min(max(upper_c - j, 0), cap),

    and exactly zero where hi <= lo (S[hi] - S[hi]), on both sides of
    j = 0.  S (an array or a PrefixSums, see gather) must hold index
    max_c upper_c - min j (or cap).  PrefixSums.rows reads the same
    weights as reversed slices, bit for bit."""
    j = np.asarray(j)[..., None]
    lo = np.maximum(-j, 0)
    hi = np.clip(np.asarray(upper) - j, 0, cap)
    return gather(S, hi) - gather(S, np.minimum(lo, hi))


@dataclass(frozen=True)
class AggregatedCoefficients:
    """Aggregated weights a_j^{[N t_i]} on j in [-J, [N t_m]-1].

    table[i-1, :] holds sum_{n = max(j+1, [N t_{i-1}]+1)}^{[N t_i]} a_{n-j};
    prefix is the backing coefficient prefix-sum array.
    """

    b_indices: tuple
    j_depth: int
    table: np.ndarray
    prefix: np.ndarray

    @property
    def j_grid(self) -> np.ndarray:
        return np.arange(-self.j_depth, self.b_indices[-1])

    def value(self, i: int, j: int) -> float:
        return float(self.table[i - 1, j + self.j_depth])


def aggregated_coefficients(ell: SlowlyVaryingSpec, N: int, times, J: int) -> AggregatedCoefficients:
    """Closed-form aggregated coefficients from prefix sums, O(1) per (i, j)."""
    J = int(J)
    if J < 0:
        raise ValueError("need J >= 0")
    B = [floor_index(N, t) for t in times]
    if any(b2 < b1 for b1, b2 in zip(B, B[1:])):
        raise ValueError("need nondecreasing [N t_i]")
    S = coefficient_prefix_sums(ell, B[-1] + J) if B[-1] + J >= 1 else np.zeros(1)
    # column i sums a_{n-j} over n = [N t_{i-1}]+1 .. [N t_i]: S[hi] - S[lo]
    j = np.arange(-J, B[-1])[:, None]
    hi = np.maximum(np.asarray(B) - j, 0)
    lo = np.minimum(np.maximum(np.asarray([0] + B[:-1]) - j, 0), hi)
    table = (S.take(hi) - S.take(lo)).T
    return AggregatedCoefficients(tuple(B), J, table, S)


def compensated_prefix_sums(ell: SlowlyVaryingSpec, K: int) -> np.ndarray:
    """S[0..K], S[k] = sum_{i<=k} a_i, each within about one rounding of the
    exact sum of the a_i as rounded: the float64 cumsum plus the cumulated
    rounding errors of its additions, each taken exactly by TwoSum.  A
    plain cumsum is off by up to K eps S[K]."""
    a = coefficient(ell, np.arange(1.0, K + 1.0))
    s = np.cumsum(a)
    prev = np.concatenate([[0.0], s[:-1]])
    b = s - prev
    err = (prev - (s - b)) + (a - b)
    return np.concatenate([[0.0], s + np.cumsum(err)])


def partial_sums(path: np.ndarray, N: int, times) -> np.ndarray:
    """S(t_i) = sum_{n<=[N t_i]} X_n; an empty index range sums to zero."""
    path = np.asarray(path, dtype=float)
    idx = [floor_index(N, t) for t in times]
    if idx and max(idx) > len(path):
        raise ValueError("time grid reaches beyond the simulated path")
    cs = np.concatenate([[0.0], np.cumsum(path)])
    return cs[np.asarray(idx, dtype=int)]


def std_log_cf(std: StandardStable, u):
    """log CF of the StandardStable law (t = 1)."""
    return log_cf(from_standard(std), u)


@dataclass(frozen=True)
class TailRatioResult:
    levels: tuple
    sigma2_hat: tuple
    sigma1_hat: tuple
    right_exceedances: tuple
    left_exceedances: tuple
    warnings: tuple


def tail_ratio_check(samples, alpha: float, h, levels) -> TailRatioResult:
    """Empirical tail constants P(e > x)*x^alpha/h(x) at empirical quantiles.

    At x = quantile(level) the right estimate targets sigma2; the mirrored
    left estimate targets sigma1.  Levels with fewer than 100 exceedances get
    a diagnostic warning attached.
    """
    samples = np.asarray(samples, dtype=float)
    levels = tuple(float(l) for l in levels)
    if any(not (0.0 < l < 1.0) for l in levels):
        raise ValueError("need quantile levels strictly inside (0, 1)")
    n = len(samples)
    s2, s1, nr, nl, warns = [], [], [], [], []
    for level in levels:
        xr = float(np.quantile(samples, level))
        cr = int(np.sum(samples > xr))
        s2.append(cr / n * xr**alpha / eval_sv(h, xr) if xr > 0 else float("nan"))
        nr.append(cr)
        xl = -float(np.quantile(samples, 1.0 - level))
        cl = int(np.sum(samples <= -xl))
        s1.append(cl / n * xl**alpha / eval_sv(h, xl) if xl > 0 else float("nan"))
        nl.append(cl)
        if min(cr, cl) < 100:
            warns.append(f"level {level}: only {min(cr, cl)} exceedances")
    return TailRatioResult(levels, tuple(s2), tuple(s1), tuple(nr), tuple(nl),
                           tuple(warns))


def sv_derivative(spec: SlowlyVaryingSpec, x):
    """d/dx of the spec."""
    arr = np.asarray(x, dtype=float)
    if spec.kind == "constant":
        out = np.zeros(arr.shape)
    else:
        out = spec.c * spec.p * np.log(np.e + arr) ** (spec.p - 1.0) / (np.e + arr)
    return float(out) if arr.ndim == 0 else out


def newton_loop(fn, z, w, lo, hi=np.inf):
    """slowly_varying.newton_root as a plain loop: every step, the first
    too, keeps the bracket [lo, hi] and bisects where the Newton step leaves
    it; an element stops at its first step below _NEWTON_RTOL * max(|w|, 1)."""
    moving = True
    for _ in range(_NEWTON_MAX_ITER):
        f, df = fn(w)
        f = f + z
        lo = np.where(f > 0.0, w, lo)
        hi = np.where(f < 0.0, w, hi)
        step = w - f / df
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        step = np.where(moving, step, w)
        moving = np.abs(step - w) > _NEWTON_RTOL * np.maximum(np.abs(step), 1.0)
        w = step
        if not moving.any():
            return w
    raise RuntimeError(f"root did not converge in {_NEWTON_MAX_ITER} Newton steps")


def big_h_from_callable(h_fn, t: float) -> float:
    """Truncated-second-moment transform -int_1^t s^2 d(h(s)/s^2) for a scalar
    callable h.  Integration by parts: h(1) - h(t) + 2*int_1^t h(s)/s ds, with
    the ds-integral evaluated as int_0^{ln t} h(e^y) dy.
    """
    if t < 1.0:
        raise ValueError("need t >= 1")
    h_log = np.vectorize(lambda y: h_fn(math.exp(y)), otypes=[float])
    return float(_big_h_integral(h_log, math.log(t)))


def exact_window_sum(ell: SlowlyVaryingSpec, params: SkewedStableParams, N: int,
                     times, UA: np.ndarray) -> tuple:
    """The in-window block sum_{0 <= j < [N t_m]} psi(c_j), c = W @ UA, of the
    exact log-CF, term by term from the whole prefix-sum array, in the row
    blocks and order of the oracle before it closed the window by
    quadrature; UA holds the frequency vectors divided by A_N.  Also returns
    sum_j |psi(c_j)| per column, which sizes the sum's round-off."""
    B = [floor_index(N, t) for t in times]
    S = coefficient_prefix_sums(ell, B[-1])
    rows = max(1, 2**16 // max(UA.shape))
    re, im, size = (np.zeros(UA.shape[1]) for _ in range(3))
    for lo in range(0, B[-1], rows):
        c = prefix_weights(S, np.arange(lo, min(lo + rows, B[-1])), B) @ UA
        mag = np.abs(c) ** params.alpha
        re -= mag.sum(axis=0)
        if params.D != 0.0:
            im += (mag * np.sign(c)).sum(axis=0)
        size += mag.sum(axis=0)
    return (params.sigma * (re + 1j * params.D * im),
            params.sigma * math.hypot(1.0, params.D) * size)
