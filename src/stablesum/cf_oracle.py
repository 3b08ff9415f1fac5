"""Deterministic characteristic-function verification core.

For exactly stable innovations the joint log-CF of the normalized partial-sum
vector is a (countable) exact sum

    sum_j psi(A_N^{-1} * sum_i u_i * <weight of eps_j in S(t_i)>)

with psi(w) = -sigma*|w|^alpha*(1 - i*D*sgn w).  The sum splits into the
in-window block (j inside [0, [N t_m])) and the past block (j < 0), whose
limit is zero; the whole vector converges to the Levy-increment log-CF

    -sum_i (t_i - t_{i-1}) * sigma * |v_i|^alpha * (1 - i*D*sgn v_i).

The infinite past cannot be truncated at any practical depth (the remainder
decays like J^{1-alpha}), so the past block is summed exactly to depth J and
closed with the integral of a smooth continuation under the midpoint rule;
the certified remainder bound |f'(J+1/2)|/24 replaces brute-force depth.
J starts shallow (JPolicy.floor) and grows geometrically until the largest
bound over all evaluated frequency vectors is below tolerance; the vectors
share the prefix sums, the in-window block and each growth round, and the
weight blocks are built in row chunks of bounded size.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.integrate import quad
from scipy.special import digamma

from .linear_process import MEMORY_BUDGET_ELEMENTS, FddSpec, floor_index, prefix_weights
from .slowly_varying import (
    SlowlyVaryingSpec,
    coefficient_prefix_sums,
    eval_sv,
    sv_derivative,
)
from .stable_law import SkewedStableParams

__all__ = [
    "v_transform",
    "inverse_v_transform",
    "AggregatedCoefficients",
    "aggregated_coefficients",
    "ExactFddLogCf",
    "exact_fdd_log_cf",
    "limit_log_cf",
    "JPolicy",
    "JDepthError",
    "SweepRow",
    "cf_convergence_sweep",
    "default_frequency_grid",
]


def v_transform(u) -> np.ndarray:
    """v_i = sum_{j=i}^m u_j (reverse cumulative sum); invertible."""
    arr = np.asarray(u, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a nonempty 1-d frequency vector")
    return np.cumsum(arr[::-1])[::-1]


def inverse_v_transform(v) -> np.ndarray:
    """u_i = v_i - v_{i+1} with v_{m+1} = 0."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a nonempty 1-d vector")
    return np.concatenate([arr[:-1] - arr[1:], arr[-1:]])


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
    table = prefix_weights(S, -J, B[-1], B, lower=[0] + B[:-1]).T
    return AggregatedCoefficients(tuple(B), J, table, S)


# cap on rows x max(m, F) of one weight block W (rows x m) and of c = W @ U
# (rows x F); a cap of 2**20 raised the peak memory of a 65-vector sweep by
# 6% at no gain in speed
_CHUNK_ELEMENTS = 2**16


def _psi_sums(S: np.ndarray, j0: int, j1: int, B, U: np.ndarray,
              params: SkewedStableParams) -> np.ndarray:
    """sum_{j0 <= j < j1} psi(c_j) for each column of U, with c = W @ U the
    combination of the cumulative weights W of eps_j in S(t_1..t_m)."""
    rows = max(1, _CHUNK_ELEMENTS // max(U.shape))
    re = np.zeros(U.shape[1])
    im = np.zeros(U.shape[1])
    for lo in range(j0, j1, rows):
        c = prefix_weights(S, lo, min(lo + rows, j1), B) @ U
        mag = np.abs(c) ** params.alpha
        re -= mag.sum(axis=0)
        if params.D != 0.0:
            im += (mag * np.sign(c)).sum(axis=0)
    return params.sigma * (re + 1j * params.D * im)


class JDepthError(RuntimeError):
    """Requested past depth cannot certify the truncation tolerance."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class JPolicy:
    """Past-depth policy: start at depth floor, whatever N, and multiply the
    depth by growth until the largest certified remainder bound over all
    evaluated frequency vectors is below tol (at most max_depth)."""

    tol: float = 1e-8
    floor: int = 10_000
    growth: int = 4
    max_depth: int = 2**25


@dataclass(frozen=True)
class ExactFddLogCf:
    """value, past_part and window_part are at the fdd's own frequencies;
    grid_values holds the log-CF at each freq_grid vector, in order;
    tail_bound is the largest certified past-remainder bound of them all."""

    value: complex
    past_part: complex
    window_part: complex
    tail_bound: float
    j_depth: int
    grid_values: np.ndarray


class _PrefixSpan:
    """Smooth continuation of S(x+B) - S(x) for real x, exact at integers.

    Constant ell:  c * (digamma(x+B+1) - digamma(x+1)).
    LogPower ell:  Euler-Maclaurin form  int_x^{x+B} ell(t)/t dt
                   + [a(x+B) - a(x)]/2 - [a'(x+B) - a'(x)]/12,
    whose residual is O(a''(x)) and irrelevant at the depths where the
    continuation is used (x >= 10^4).
    """

    def __init__(self, ell: SlowlyVaryingSpec):
        self.ell = ell

    def __call__(self, x: float, B: int) -> float:
        if B == 0:
            return 0.0
        ell = self.ell
        if ell.kind == "constant":
            return ell.c * (digamma(x + B + 1.0) - digamma(x + 1.0))
        integral, _ = quad(lambda t: eval_sv(ell, t) / t, x, x + B,
                           epsabs=1e-14, epsrel=1e-11, limit=200)
        a = lambda t: eval_sv(ell, t) / t
        ap = lambda t: (sv_derivative(ell, t) * t - eval_sv(ell, t)) / t**2
        return (integral + 0.5 * (a(x + B) - a(x))
                - (ap(x + B) - ap(x)) / 12.0)


def _past_tail(span, u, B, A, params, J0, tol):
    """Integral closure of sum_{x > J0} psi(c(-x)) plus its certified bound."""

    def c_of(x):
        return sum(ui * span(x, bi) for ui, bi in zip(u, B)) / A

    def f(x):
        w = c_of(x)
        mag = params.sigma * abs(w) ** params.alpha
        return complex(-mag, params.D * mag * math.copysign(1.0, w) if w != 0.0 else 0.0)

    X = J0 + 0.5

    def leg(part):
        def g(s):
            if s < 1e-10:
                return 0.0
            return part(f(X / s)) * X / s**2
        return quad(g, 0.0, 1.0, epsabs=0.1 * tol, epsrel=1e-9, limit=400)

    re, re_err = leg(lambda z: z.real)
    if params.D == 0.0:
        im, im_err = 0.0, 0.0
    else:
        im, im_err = leg(lambda z: z.imag)
    # midpoint-rule remainder: |sum_{x>J0} f - int_{J0+1/2} f| <= |f'(J0+1/2)|/24
    em = abs(f(J0 + 1.0) - f(J0)) / 24.0
    return complex(re, im), em + re_err + im_err


def _prefix_sums(ell: SlowlyVaryingSpec, N: int, b_m: int, J: int) -> np.ndarray:
    """Prefix sums to max(N, [N t_m] + J), refused beyond the memory budget."""
    K = max(N, b_m + J)
    if K > MEMORY_BUDGET_ELEMENTS:
        raise ValueError(f"oracle prefix sums need {K} elements, beyond the memory "
                         f"budget of {MEMORY_BUDGET_ELEMENTS} elements")
    return coefficient_prefix_sums(ell, K)


def exact_fdd_log_cf(ell: SlowlyVaryingSpec, params: SkewedStableParams, N: int,
                     fdd: FddSpec, *, j_depth: int | None = None,
                     j_policy: JPolicy | None = None, freq_grid=None) -> ExactFddLogCf:
    """Exact joint log-CF of (A_N^{-1} S(t_1), ..., A_N^{-1} S(t_m)) at the
    fdd frequencies, for exactly stable innovations (h == 1, H_alpha == 1),
    and at each extra frequency vector of freq_grid (see grid_values).

    Returns the value together with its past/in-window split and the certified
    bound on the neglected past remainder.  A fixed j_depth raises JDepthError
    when it cannot certify the policy tolerance.
    """
    policy = j_policy or JPolicy()
    N = int(N)
    grid = [] if freq_grid is None else list(freq_grid)
    U = np.column_stack([fdd.freqs] + [np.asarray(g, dtype=float) for g in grid])
    if U.shape[0] != fdd.m:
        raise ValueError(f"need frequency vectors of length m = {fdd.m}")
    B = [floor_index(N, t) for t in fdd.times]
    fixed = j_depth is not None
    J = int(j_depth) if fixed else policy.floor
    span = _PrefixSpan(ell)

    S = _prefix_sums(ell, N, B[-1], J)
    A = float(N) ** (1.0 / params.alpha) * S[N]
    UA = U / A
    window = _psi_sums(S, 0, B[-1], B, UA, params)
    past_exact = _psi_sums(S, -J, 0, B, UA, params)
    while True:
        tails = [_past_tail(span, u, B, A, params, J, policy.tol) for u in U.T]
        bound = max(b for _, b in tails)
        if bound <= policy.tol:
            break
        if fixed or J * policy.growth > policy.max_depth:
            raise JDepthError(
                f"past depth J={J} certifies only {bound:.3g} "
                f"(tolerance {policy.tol})", bound)
        deeper = J * policy.growth
        S = _prefix_sums(ell, N, B[-1], deeper)
        past_exact += _psi_sums(S, -deeper, -J, B, UA, params)
        J = deeper

    past = past_exact + np.array([t for t, _ in tails])
    value = window + past
    return ExactFddLogCf(complex(value[0]), complex(past[0]), complex(window[0]),
                         bound, J, value[1:])


def limit_log_cf(params: SkewedStableParams, fdd: FddSpec) -> complex:
    """Levy-limit log-CF: -sum_i (t_i - t_{i-1}) sigma |v_i|^alpha (1 - iD sgn v_i)."""
    v = v_transform(fdd.freqs)
    t = np.asarray(fdd.times)
    dt = np.diff(np.concatenate([[0.0], t]))
    mag = params.sigma * np.abs(v) ** params.alpha
    re = -float(np.sum(dt * mag))
    im = params.D * float(np.sum(dt * mag * np.sign(v)))
    return complex(re, im)


def default_frequency_grid(m: int, *, values=(-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0),
                           cap: int = 64) -> list:
    """Per-coordinate grid for sup-distances; an even stride keeps the point
    count at cap when the full product would exceed it."""
    full = list(product(values, repeat=m))
    if len(full) <= cap:
        return [np.array(g) for g in full]
    stride = len(full) / cap
    return [np.array(full[int(k * stride)]) for k in range(cap)]


@dataclass(frozen=True)
class SweepRow:
    n: int
    distance: float
    past_part: float
    wall_ms: float
    j_depth: int
    tail_bound: float


def cf_convergence_sweep(ell: SlowlyVaryingSpec, params: SkewedStableParams,
                         fdd: FddSpec, n_list, *, j_policy: JPolicy | None = None,
                         freq_grid=None) -> list:
    """distance(N) = |exact_fdd_log_cf - limit_log_cf| per N (supremum over
    the fdd's frequencies and freq_grid when given); past_part tracks the
    past-block magnitude at the fdd's own frequencies."""
    n_list = [int(n) for n in n_list]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("need a nonempty increasing N list")
    grid = [] if freq_grid is None else list(freq_grid)
    limits = np.array([limit_log_cf(params, fdd)]
                      + [limit_log_cf(params, FddSpec(fdd.times, tuple(g))) for g in grid])
    rows = []
    for n in n_list:
        t0 = time.perf_counter()
        out = exact_fdd_log_cf(ell, params, n, fdd, j_policy=j_policy, freq_grid=grid)
        dist = float(np.max(np.abs(np.append(out.value, out.grid_values) - limits)))
        wall = (time.perf_counter() - t0) * 1e3
        rows.append(SweepRow(n, dist, abs(out.past_part), wall, out.j_depth,
                             out.tail_bound))
    return rows
