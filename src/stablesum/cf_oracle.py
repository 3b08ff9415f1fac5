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
the remainder bound |f(J+1) - f(J)|/24 replaces brute-force depth.
J starts shallow (_J_FLOOR, whatever N) and grows by the factor _J_GROWTH,
up to _J_MAX, until the largest bound over all evaluated frequency vectors is
below tolerance; the vectors share the prefix sums, the in-window block and
each growth round, and the weight blocks are built in row chunks of bounded
size.

The closure integrates every frequency vector in one vectorized pass.  The
variable is t = (X/x)^(alpha-1), X = J + 1/2, on (0, 1], where the
integrand stays bounded as x -> inf; the spans S(x+b) - S(x) are evaluated
as arrays (digamma series for constant ell, Euler-Maclaurin with fixed
Gauss-Legendre nodes for log-power ell).  Each vector's t-range is split at
the sign changes of its c, where |c|^alpha has a kink; panels are
integrated by 20- and 40-point Gauss-Legendre, and only those whose
difference exceeds their share of min(tol/10, midpoint remainder) are
bisected.  The certified bound is the midpoint remainder plus the summed
panel estimates, so it shrinks with J.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from .linear_process import (
    MEMORY_BUDGET_ELEMENTS,
    FddSpec,
    floor_index,
    prefix_weights,
    thread_map,
)
from .slowly_varying import SlowlyVaryingSpec, coefficient_prefix_sums
from .stable_law import _G40, _PANEL_X, SkewedStableParams, log_cf, panel_quad

__all__ = [
    "v_transform",
    "ExactFddLogCf",
    "exact_fdd_log_cf",
    "limit_log_cf",
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


_J_FLOOR = 10_000
_J_GROWTH = 4
_J_MAX = 2**25


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


# the constant-ell span comes from the asymptotic digamma series (first
# omitted term below 1e-17 relative) at x >= _DIGAMMA_SHIFT, and below from
# the series at x + _DIGAMMA_SHIFT and the digamma recurrence
_DIGAMMA_SHIFT = 100
# sign of c sampled here (t in (0, 1]) to place the closure's breakpoints
_SIGN_GRID = np.concatenate([2.0 ** -np.arange(40.0, 7.0, -1.0), np.arange(1, 129) / 128])
# relative accuracy of _scaled_spans (worst seen 7e-15); a panel whose
# estimate is within the round-off this leaves in c is accepted
_SPAN_RTOL = 1e-14
# no panel is split once the pending panels hold more than _MAX_NODES span
# evaluations; the estimates stay in the bound
_MAX_NODES = 2**17


def _scaled_spans(ell: SlowlyVaryingSpec, lnx, B) -> np.ndarray:
    """x * (S(x+b) - S(x)) at x = exp(lnx) (any shape) for each b in B (new
    last axis), with S continued smoothly to real x:

    constant ell:  c * (digamma(x+b+1) - digamma(x+1)), exact at integers;
    log-power ell: the Euler-Maclaurin form  int_x^{x+b} ell(s)/s ds
                   + [a(x+b) - a(x)]/2 - [a'(x+b) - a'(x)]/12,  a(s) = ell(s)/s,
                   whose residual is O(a''(x)) and irrelevant at the depths
                   where the continuation is used.

    The scaled span tends to b*ell(x) as x -> inf; it is evaluated from lnx
    and r = 1/x, so x itself never overflows.
    """
    lnx = np.asarray(lnx, dtype=float)[..., None]
    b = np.asarray(B, dtype=float)
    r = np.maximum(np.exp(-lnx), 1e-300)  # below 1e-300, r only moves b*ell
    if ell.kind == "constant":
        return ell.c * _digamma_span(lnx, r, b)
    return _euler_maclaurin_span(ell, lnx, r, b)


def _digamma_span(lnx, r, b):
    """x * (digamma(x+b+1) - digamma(x+1)) by the asymptotic series
    digamma(z) ~ ln z - 1/2z - 1/12z^2 + 1/120z^4 - 1/252z^6, written in
    w1 = 1/(x+1), w2 = 1/(x+b+1) so that no term cancels.  Below x =
    _DIGAMMA_SHIFT = K the recurrence digamma(z) = digamma(z+K) -
    sum_{i<K} 1/(z+i) moves the series to x + K, and the sum becomes
    sum_{i<K} b / ((x+1+i) (x+b+1+i)), which does not cancel either."""
    w1 = r / (1.0 + r)
    w2 = r / (1.0 + (b + 1.0) * r)
    s1, s2 = w1 * w1, w2 * w2
    q = b * w1 * (w2 / r)  # -(w2 - w1) / r
    out = np.log1p(b * w1) / r + q * (
        0.5 + (w1 + w2) * (1.0 / 12.0 - (s1 + s2) / 120.0
                           + (s1 * s1 + s1 * s2 + s2 * s2) / 252.0))
    small = np.broadcast_to(lnx < math.log(_DIGAMMA_SHIFT), out.shape)
    if small.any():  # the closure has x >= J >= _J_FLOOR unless j_depth is pinned
        x = np.broadcast_to(np.exp(lnx), out.shape)[small]
        bs = np.broadcast_to(b, out.shape)[small]
        xk = x + _DIGAMMA_SHIFT
        span = _digamma_span(np.log(xk), 1.0 / xk, bs) / xk
        for i in range(_DIGAMMA_SHIFT):
            span += bs / ((x + 1.0 + i) * (x + bs + 1.0 + i))
        out[small] = x * span
    return out


def _euler_maclaurin_span(ell, lnx, r, b):
    """x times the Euler-Maclaurin span of a log-power ell; the integral is
    int_0^{ln(1+b/x)} ell(x e^y) dy by 40-point Gauss-Legendre in y = ln(s/x)."""
    c, p = ell.c, ell.p
    nodes, weights = _G40
    Y = np.log1p(b * r)
    y = (0.5 * Y)[..., None] * (1.0 + nodes)
    lam = lnx[..., None] + y + np.log1p(np.e * r[..., None] * np.exp(-y))
    integral = 0.5 * Y / r * c * ((lam ** p) @ weights)
    lam0 = lnx + np.log1p(np.e * r)          # ln(e + x)
    lamb = lnx + np.log1p((np.e + b) * r)    # ln(e + x + b)
    ell0, ellb = c * lam0 ** p, c * lamb ** p
    d0 = c * p * lam0 ** (p - 1.0) * r / (1.0 + np.e * r)        # ell'(x)
    db = c * p * lamb ** (p - 1.0) * r / (1.0 + (np.e + b) * r)  # ell'(x+b)
    rb = 1.0 + b * r                                             # (x+b)/x
    xa = ellb / rb - ell0                                # x (a(x+b) - a(x))
    xap = db / rb - ellb * r / rb**2 - (d0 - ell0 * r)   # x (a'(x+b) - a'(x))
    return integral + 0.5 * xa - xap / 12.0


def _past_closure(ell: SlowlyVaryingSpec, S: np.ndarray, UA: np.ndarray, B,
                  params: SkewedStableParams, J0: int, tol: float):
    """Integral closure of sum_{x > J0} psi(c(-x)) for every column of UA at
    once, and each column's certified bound.

    The sum is replaced by int_X^inf f, X = J0 + 1/2, under the midpoint
    rule, whose remainder is taken as |f(J0+1) - f(J0)|/24 (about
    |f'(X)|/24).  With x = X t^(-1/(alpha-1)) the integral is
    X^(1-alpha)/(alpha-1) int_0^1 psi(x c(x)) dt, whose integrand stays
    bounded as t -> 0.  Each column's t-range is split where its c changes
    sign (the kink of |c|^alpha), and G_20/G_40 panels are bisected
    (panel_quad) until each estimate is below its share of min(tol/10,
    midpoint remainder), so the bound tracks the remainder as J grows.
    """
    alpha, F = params.alpha, UA.shape[1]
    k = 1.0 / (alpha - 1.0)
    lnX = math.log(J0 + 0.5)
    scale = (J0 + 0.5) ** (1.0 - alpha) / (alpha - 1.0)

    def spans(t):
        return _scaled_spans(ell, lnX - k * np.log(t), B)

    f_edge = log_cf(params, prefix_weights(S, -J0 - 1, -J0 + 1, B) @ UA)
    em = np.abs(f_edge[0] - f_edge[1]) / 24.0
    target = np.minimum(0.1 * tol, em)

    # breakpoints: bracket each sign change of c on _SIGN_GRID, where c is
    # above its round-off, then narrow each bracket 32-fold per round to
    # about 1e-11 (a kink that close to a panel end costs nothing)
    g = spans(_SIGN_GRID)
    w = g @ UA
    sg = np.sign(w) * (np.abs(w) > _SPAN_RTOL * (np.abs(g) @ np.abs(UA)))
    cell, col = np.nonzero(sg[:-1] * sg[1:] < 0.0)
    lo, s_lo = _SIGN_GRID[cell], sg[cell, col][:, None]
    width = _SIGN_GRID[cell + 1] - lo
    for _ in range(6 if col.size else 0):
        width = width / 32.0
        g = spans(lo[:, None] + width[:, None] * np.arange(1, 32))
        same = np.sign(np.sum(g * UA.T[col][:, None], axis=-1)) == s_lo
        lo = lo + width * np.cumprod(same, axis=1).sum(axis=1)
    cols = np.arange(F)
    pts = np.concatenate([np.zeros(F), np.ones(F), lo + 0.5 * width])

    # psi(w) = sigma |w|^alpha (-1 + i D sgn w), so each panel integrates
    # |w|^alpha, |w|^alpha sgn w and the round-off that spans accurate to
    # _SPAN_RTOL leave in |w|^alpha, alpha |w|^(alpha-1) sum_i |u_i g_i| _SPAN_RTOL
    D = params.D

    def integrand(t, col):
        ug = spans(t) * UA.T[col][:, None]
        w = ug.sum(axis=-1)
        aw = np.abs(w)
        mag = aw ** alpha
        noise = alpha * _SPAN_RTOL * aw ** (alpha - 1.0) * np.abs(ug).sum(axis=-1)
        return np.stack([mag, mag * np.sign(w), noise])

    # a panel within round-off, or past the node budget, is accepted as it is
    def judge(g20, g40, half):
        est = np.hypot(g40[0] - g20[0], D * (g40[1] - g20[1]))
        return est, ((est <= 2.0 * np.hypot(1.0, D) * g40[2])
                     | (2 * half.size * _PANEL_X.size * len(B) > _MAX_NODES))

    q, err = panel_quad(integrand, rtol=0.0, atol=target,
                        pts=pts, owner=np.concatenate([cols, cols, col]),
                        scale=scale * params.sigma, judge=judge)
    return -q[0] + 1j * (D * q[1]), em + err


def _prefix_sums(ell: SlowlyVaryingSpec, N: int, b_m: int, J: int) -> np.ndarray:
    """Prefix sums to max(N, [N t_m] + J + 1) (the closure reads the first
    term past depth J), refused beyond the memory budget."""
    K = max(N, b_m + J + 1)
    if K > MEMORY_BUDGET_ELEMENTS:
        raise ValueError(f"oracle prefix sums need {K} elements, beyond the memory "
                         f"budget of {MEMORY_BUDGET_ELEMENTS} elements")
    return coefficient_prefix_sums(ell, K)


def exact_fdd_log_cf(ell: SlowlyVaryingSpec, params: SkewedStableParams, N: int,
                     fdd: FddSpec, *, j_depth: int | None = None,
                     tol: float = 1e-8, freq_grid=None) -> ExactFddLogCf:
    """Exact joint log-CF of (A_N^{-1} S(t_1), ..., A_N^{-1} S(t_m)) at the
    fdd frequencies, for exactly stable innovations (h == 1, H_alpha == 1),
    and at each extra frequency vector of freq_grid (see grid_values).

    Returns the value together with its past/in-window split and the certified
    bound on the neglected past remainder.  A fixed j_depth raises JDepthError
    when it cannot certify tol.
    """
    N = int(N)
    grid = [] if freq_grid is None else list(freq_grid)
    U = np.column_stack([fdd.freqs] + [np.asarray(g, dtype=float) for g in grid])
    if U.shape[0] != fdd.m:
        raise ValueError(f"need frequency vectors of length m = {fdd.m}")
    B = [floor_index(N, t) for t in fdd.times]
    fixed = j_depth is not None
    J = int(j_depth) if fixed else _J_FLOOR
    S = _prefix_sums(ell, N, B[-1], J)
    A = float(N) ** (1.0 / params.alpha) * S[N]
    UA = U / A
    window = _psi_sums(S, 0, B[-1], B, UA, params)
    past_exact = _psi_sums(S, -J, 0, B, UA, params)
    while True:
        tails, bounds = _past_closure(ell, S, UA, B, params, J, tol)
        bound = float(bounds.max())
        if bound <= tol:
            break
        if fixed or J * _J_GROWTH > _J_MAX:
            raise JDepthError(
                f"past depth J={J} certifies only {bound:.3g} "
                f"(tolerance {tol})", bound)
        deeper = J * _J_GROWTH
        S = _prefix_sums(ell, N, B[-1], deeper)
        past_exact += _psi_sums(S, -deeper, -J, B, UA, params)
        J = deeper

    past = past_exact + tails
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


_GRID_VALUES = (-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0)
_GRID_CAP = 64


def default_frequency_grid(m: int) -> list:
    """Per-coordinate grid for sup-distances; an even stride keeps the point
    count at _GRID_CAP when the full product would exceed it."""
    full = list(product(_GRID_VALUES, repeat=m))
    if len(full) <= _GRID_CAP:
        return [np.array(g) for g in full]
    stride = len(full) / _GRID_CAP
    return [np.array(full[int(k * stride)]) for k in range(_GRID_CAP)]


@dataclass(frozen=True)
class SweepRow:
    n: int
    distance: float
    past_part: float
    wall_ms: float
    j_depth: int
    tail_bound: float
    log_cf: complex             # exact log-CF at the fdd's own frequencies


def cf_convergence_sweep(ell: SlowlyVaryingSpec, params: SkewedStableParams,
                         fdd: FddSpec, n_list, *, tol: float = 1e-8,
                         freq_grid=None, threads: int = 1) -> list:
    """distance(N) = |exact_fdd_log_cf - limit_log_cf| per N (supremum over
    the fdd's frequencies and freq_grid when given); past_part tracks the
    past-block magnitude at the fdd's own frequencies and log_cf is the
    exact value there.  With freq_grid, log_cf shares the depth J certified
    for the whole grid, so it can differ from a call without the grid by up
    to the tolerance.

    One exact_fdd_log_cf call per N; the N run on up to `threads` threads
    (thread_map) and the rows do not depend on the thread count."""
    n_list = [int(n) for n in n_list]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("need a nonempty increasing N list")
    grid = [] if freq_grid is None else list(freq_grid)
    limits = np.array([limit_log_cf(params, fdd)]
                      + [limit_log_cf(params, FddSpec(fdd.times, tuple(g))) for g in grid])

    def row(n):
        t0 = time.perf_counter()
        out = exact_fdd_log_cf(ell, params, n, fdd, tol=tol, freq_grid=grid)
        dist = float(np.max(np.abs(np.append(out.value, out.grid_values) - limits)))
        wall = (time.perf_counter() - t0) * 1e3
        return SweepRow(n, dist, abs(out.past_part), wall, out.j_depth,
                        out.tail_bound, out.value)

    return thread_map(row, n_list, threads)
