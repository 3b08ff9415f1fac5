"""Deterministic characteristic-function verification core.

For exactly stable innovations the joint log-CF of the normalized partial-sum
vector is a (countable) exact sum

    sum_j psi(A_N^{-1} * sum_i u_i * <weight of eps_j in S(t_i)>)

with psi(w) = -sigma*|w|^alpha*(1 - i*D*sgn w).  The sum splits into the
in-window block (j inside [0, [N t_m])) and the past block (j < 0), whose
limit is zero; the whole vector converges to the Levy-increment log-CF

    -sum_i (t_i - t_{i-1}) * sigma * |v_i|^alpha * (1 - i*D*sgn v_i).

No array in it grows with N.  A_N takes sum_{i<=N} a_i from
slowly_varying.coefficient_sum, and the prefix sums the exact rows read are
held on a union of short index intervals (_PrefixSums), each anchored at
coefficient_sum: the exact S[k] up to _SUM_ANCHOR and its smooth
continuation beyond (digamma for constant ell, Euler-Maclaurin for
log-power ell).

The in-window block splits into stretches [B_{k-1}, B_k) of the window,
B_k = [N t_k], B_0 = 0.  On a stretch c is smooth but near its kink B_k and
near its own zeros, where |c|^alpha has a kink.  Rows within _L of a
stretch end (the kink, and the seam with the previous stretch or the past)
and, per vector, within _L of a sign change of its c are summed term by
term; the rest of each vector's stretch is closed by the midpoint
Euler-Maclaurin form, its integral by G_20/G_40 panels in u = ln(B_k - x)
and its end corrections from the exact rows next to each end.  That
closure's estimate sits at the round-off of the continuation (about 1e-15
of the log-CF), and a stretch of at most 2 _L rows is summed whole, so the
oracle's cost no longer grows with N.

The past block (j = -x < 0) has a remainder beyond depth J that decays only
like J^{1-alpha}, so it cannot be truncated at any practical depth.  Its
rows x <= J, J = _J_DEPTH, are summed term by term, and the rest, x > J, is
one more piece, with a single end at the seam j = -J, closed in the same
midpoint Euler-Maclaurin form as the window pieces: the integral
int_{J+1/2}^inf by _past_closure, the end correction and its estimate from
the exact rows -J..-J+3 by _end_terms, which reads the rows of both
closures through prefix_weights.  The depth is fixed: at J = 1e4 the past
closure's estimate sits near 1e-15 of the log-CF, as the window's does.
The vectors share the prefix sums, the exact rows and the distinct panels
of the closures, and the weight blocks are built in row chunks of bounded
size; the prefix sums are refused beyond MEMORY_BUDGET_ELEMENTS.

The past closure integrates every frequency vector in one vectorized pass.
The variable is t = (X/x)^(alpha-1), X = J + 1/2, on (0, 1], where the
integrand stays bounded as x -> inf; the spans S(x+b) - S(x) are evaluated
as arrays (digamma series for constant ell, Euler-Maclaurin with fixed
Gauss-Legendre nodes for log-power ell), once per distinct panel.  Each
vector's t-range is split at the sign changes of its c; panels are
integrated by 20- and 40-point Gauss-Legendre and bisected until their
estimates are within _SPAN_RTOL of the integral or the integrand's
round-off, as in the window closure.  tail_bound adds up the estimates of
both closures and their end corrections, and a call whose tail_bound
exceeds tol raises instead of returning.
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
from .slowly_varying import (
    SlowlyVaryingSpec,
    _scaled_spans,
    coefficient_prefix_sums,
    coefficient_sum,
)
from .stable_law import _PANEL_X, SkewedStableParams, log_cf, panel_quad

__all__ = [
    "v_transform",
    "ExactFddLogCf",
    "exact_fdd_log_cf",
    "limit_log_cf",
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
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        for lo in range(j0, j1, rows):
            c = prefix_weights(S, np.arange(lo, min(lo + rows, j1)), B) @ U
            mag = np.abs(c) ** params.alpha
            re -= mag.sum(axis=0)
            if params.D != 0.0:
                im += (mag * np.sign(c)).sum(axis=0)
    if not np.isfinite(re).all():
        raise ValueError(f"non-finite log-CF term psi(c_j) in the rows {j0} <= j < {j1}")
    return params.sigma * (re + 1j * params.D * im)


def _end_terms(S, B, W: np.ndarray, params: SkewedStableParams, rows: np.ndarray):
    """The midpoint Euler-Maclaurin terms at the ends of closed pieces, one
    per row of rows (n x 4, the exact rows outward of the end, nearest
    first) and of W (n x m, the weights of its piece's column), and their
    estimates.  With g_0..g_3 the terms psi(c_j) on those rows,
    2 g_0 - 3 g_1 + g_2 = -+f' + 23/24 f''' at the end gives its correction
    -+f'/24; with the remainder's 7/5760 f''' the end adds at most
    (23/576 + 7/5760) |f'''|, f''' from the rows' third difference."""
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        g = log_cf(params, np.einsum("nrm,nm->nr", prefix_weights(S, rows, B), W))
    if not np.isfinite(g).all():
        raise ValueError(f"non-finite log-CF term psi(c_j) at row j = {rows[~np.isfinite(g)][0]}")
    return ((2.0 * g[:, 0] - 3.0 * g[:, 1] + g[:, 2]) / 24.0,
            np.abs(g[:, 0] - 3.0 * g[:, 1] + 3.0 * g[:, 2] - g[:, 3])
            * (23.0 / 576.0 + 7.0 / 5760.0))


# depth of the past summed term by term; the closure beyond it has an
# estimate near 1e-15 of the log-CF there, so a deeper J would gain nothing
_J_DEPTH = 10_000
# rows within _L of a kink of c are summed term by term, and a stretch of at
# most 2 _L rows whole.  A window closure costs about as much as 2e4 to 3e4
# rows summed term by term (for one frequency vector or for 65), so short
# stretches stay exact where closing them would not pay.  The closure
# evaluates S only beyond _L > slowly_varying._SUM_ANCHOR, where its
# continuation holds.
_L = 4096


@dataclass(frozen=True)
class ExactFddLogCf:
    """value, past_part and window_part are at the fdd's own frequencies;
    grid_values holds the log-CF at each freq_grid vector, in order;
    tail_bound is the largest, over them all, of the summed estimates of
    the window and past closures; j_depth is the past depth summed term by
    term."""

    value: complex
    past_part: complex
    window_part: complex
    tail_bound: float
    j_depth: int
    grid_values: np.ndarray


# sign of c sampled here (t in (0, 1]) to place the closures' breakpoints
_SIGN_GRID = np.concatenate([2.0 ** -np.arange(40.0, 7.0, -1.0), np.arange(1, 129) / 128])
# relative accuracy of _scaled_spans (worst seen 7e-15); a panel whose
# estimate is within the round-off this leaves in c is accepted
_SPAN_RTOL = 1e-14
# no panel is split once the halved panels' P x 60 x m arrays in _psi_parts
# would pass this many doubles (4 MiB each); the estimates stay in tail_bound
_MAX_PANEL_ELEMENTS = 2**19


def _sign_changes(spans, W: np.ndarray):
    """Points t in (0, 1) at the sign changes of the columns of
    w = spans(t) @ W, and the column of each.  A change is bracketed on
    _SIGN_GRID, where w is above its round-off, and the bracket is narrowed
    32-fold per round to about 1e-11 (a kink that close to a panel end
    costs nothing).  Spans that overflow raise a ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        g = spans(_SIGN_GRID)
    if not np.isfinite(g).all():
        t = _SIGN_GRID[~np.isfinite(g).reshape(_SIGN_GRID.size, -1).all(axis=1)][0]
        raise ValueError(f"non-finite coefficient weight S(x + b) - S(x) at t = {t:.3g}")
    w = g @ W
    sg = np.sign(w) * (np.abs(w) > _SPAN_RTOL * (np.abs(g) @ np.abs(W)))
    cell, col = np.nonzero(sg[:-1] * sg[1:] < 0.0)
    lo, s_lo = _SIGN_GRID[cell], sg[cell, col][:, None]
    width = _SIGN_GRID[cell + 1] - lo
    for _ in range(6 if col.size else 0):
        width = width / 32.0
        g = spans(lo[:, None] + width[:, None] * np.arange(1, 32))
        same = np.sign(np.sum(g * W.T[col][:, None], axis=-1)) == s_lo
        lo = lo + width * np.cumprod(same, axis=1).sum(axis=1)
    return lo + 0.5 * width, col


def _psi_parts(alpha: float, g: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The panel_quad integrands of psi(w), w = sum_i W_i g_i over the last
    axis of g (P x nodes x m; W holds one row per panel):
    psi(w) = sigma |w|^alpha (-1 + i D sgn w), so |w|^alpha, |w|^alpha sgn w,
    and the round-off that g accurate to _SPAN_RTOL leaves in |w|^alpha,
    alpha |w|^(alpha-1) sum_i |W_i g_i| _SPAN_RTOL."""
    ug = g * W[:, None]
    w = ug.sum(axis=-1)
    aw = np.abs(w)
    mag = aw ** alpha
    noise = alpha * _SPAN_RTOL * aw ** (alpha - 1.0) * np.abs(ug).sum(axis=-1)
    return np.stack([mag, mag * np.sign(w), noise])


def _distinct(t: np.ndarray, *tags):
    """(first, inverse) over the distinct panels among the node rows t:
    rows with the same end nodes (and tags) are one panel, as the panels of
    different columns often are, and need their spans only once."""
    keys = [t[:, 0], t[:, -1], *tags]
    order = np.lexsort(keys)
    new = np.arange(order.size) == 0
    for key in keys:
        new[1:] |= key[order][1:] != key[order][:-1]
    inverse = np.empty(order.size, dtype=int)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _judge(D: float, m: int):
    """panel_quad judge for _psi_parts: a panel's estimate combines its real
    and imaginary gaps, and a panel within round-off, or one whose halves
    would pass _MAX_PANEL_ELEMENTS, is accepted as it is."""
    def judge(g20, g40, half):
        est = np.hypot(g40[0] - g20[0], D * (g40[1] - g20[1]))
        return est, ((est <= 2.0 * np.hypot(1.0, D) * g40[2])
                     | (2 * half.size * _PANEL_X.size * m > _MAX_PANEL_ELEMENTS))
    return judge


def _past_closure(ell: SlowlyVaryingSpec, UA: np.ndarray, B,
                  params: SkewedStableParams, J: int):
    """int_X^inf psi(c(-x)) dx, X = J + 1/2, for every column of UA at once,
    and each column's summed panel estimates: the integral of the past
    piece x > J, which _past closes like a window piece.

    With x = X t^(-1/(alpha-1)) the integral is
    X^(1-alpha)/(alpha-1) int_0^1 psi(x c(x)) dt, whose integrand stays
    bounded as t -> 0.  Each column's t-range is split where its c changes
    sign (the kink of |c|^alpha), and G_20/G_40 panels are bisected
    (panel_quad) until their estimates are within _SPAN_RTOL of the
    column's integral or the round-off of the integrand (_judge), as in
    _window_closure."""
    alpha, F = params.alpha, UA.shape[1]
    k = 1.0 / (alpha - 1.0)
    lnX = math.log(J + 0.5)
    scale = (J + 0.5) ** (1.0 - alpha) / (alpha - 1.0)

    def spans(t):
        return _scaled_spans(ell, lnX - k * np.log(t), B)

    t, col = _sign_changes(spans, UA)
    cols = np.arange(F)

    def integrand(t, col):
        first, inverse = _distinct(t)
        return _psi_parts(alpha, spans(t[first])[inverse], UA.T[col])

    q, err = panel_quad(integrand, rtol=_SPAN_RTOL, atol=0.0,
                        pts=np.concatenate([np.zeros(F), np.ones(F), t]),
                        owner=np.concatenate([cols, cols, col]),
                        scale=scale * params.sigma, judge=_judge(params.D, len(B)))
    return -q[0] + 1j * (params.D * q[1]), err


def _past(ell: SlowlyVaryingSpec, S, UA: np.ndarray, B, params: SkewedStableParams):
    """sum_{j < 0} psi(c_j) for every column of UA, and each column's
    closure estimate: the rows -J <= j < 0 (J = _J_DEPTH, held by S) term
    by term, and j < -J as a window piece with one end, at j = -J."""
    J = _J_DEPTH
    seam, seam_est = _end_terms(S, B, UA.T, params,
                                np.broadcast_to(np.arange(-J, -J + 4), (UA.shape[1], 4)))
    tail, tail_est = _past_closure(ell, UA, B, params, J)
    return _psi_sums(S, -J, 0, B, UA, params) + seam + tail, seam_est + tail_est


def _window_plan(ell: SlowlyVaryingSpec, UA: np.ndarray, B):
    """How _window takes the window: (rows, kinks, pieces).

    The window splits into stretches [B_{k-1}, B_k), B_0 = 0, on each of
    which c is smooth but near the kink B_k and near its own zeros, where
    |c|^alpha has a kink.  A stretch of at most 2 _L rows is summed term by
    term.  A longer one is summed term by term within _L of its ends (the
    kink, and the seam with the previous stretch or the past), and so is,
    for each column, every row within _L of a sign change of its c in the
    interior [B_{k-1} + _L, B_k - _L); the rest of each column's interior
    falls into pieces [p, q) that _window closes by quadrature.

    rows are the ranges summed for every column, merged where they meet;
    kinks (f, r0, r1) the ranges summed for column f alone; pieces
    (k, f, p, q) the pieces of column f on stretch k."""
    rows, kinks, pieces = [], [], []
    Bf = np.asarray(B, dtype=float)
    for k, (lo, hi) in enumerate(zip([0] + B[:-1], B)):
        ranges = [(lo, hi)]
        if hi - lo > 2 * _L:
            a, b = lo + _L, hi - _L
            ranges = [(lo, a), (b, hi)]
            u0, u1 = math.log(hi - b + 0.5), math.log(hi - a + 0.5)
            t, col = np.zeros(0), np.zeros(0, dtype=int)
            if k < len(B) - 1:  # on the last stretch c has one term and one sign
                t, col = _sign_changes(lambda t: coefficient_sum(
                    ell, np.exp(u0 + t * (u1 - u0))[..., None] + (Bf[k:] - hi)), UA[k:])
            zero = np.floor(hi - np.exp(u0 + t * (u1 - u0))).astype(int)
            for f in range(UA.shape[1]):
                p = a
                for x in np.sort(zero[col == f]):
                    r0, r1 = max(p, x - _L), min(b, x + _L)
                    if r0 > p:
                        pieces.append((k, f, p, r0))
                    if r1 > r0:
                        kinks.append((f, r0, r1))
                    p = max(p, r1)
                if b > p:
                    pieces.append((k, f, p, b))
        for j0, j1 in ranges:
            if rows and rows[-1][1] == j0:
                rows[-1] = (rows[-1][0], j1)
            else:
                rows.append((j0, j1))
    return rows, kinks, pieces


def _window(ell: SlowlyVaryingSpec, S, UA: np.ndarray, B,
            params: SkewedStableParams, plan):
    """sum_{0 <= j < B_m} psi(c_j) for every column of UA, and each column's
    closure estimate; S holds the rows and kinks of plan (_window_plan).

    Each piece [p, q) is summed by the midpoint Euler-Maclaurin form

        sum_{p <= j < q} f(j) = int_{p-1/2}^{q-1/2} f
                                - [f'(q - 1/2) - f'(p - 1/2)]/24 + R,

    the integral by _window_closure and the end terms, with R, by
    _end_terms from the exact rows outward of each end; the estimate adds
    the panel estimates to those of the end terms."""
    rows, kinks, pieces = plan
    F = UA.shape[1]
    total, est = np.zeros(F, dtype=complex), np.zeros(F)
    for lo, hi in rows:
        total += _psi_sums(S, lo, hi, B, UA, params)
    for f, r0, r1 in kinks:
        total[f] += _psi_sums(S, r0, r1, B, UA[:, [f]], params)[0]
    if not pieces:
        return total, est
    k, col, p, q = np.array(pieces).T
    W = UA.T[col]
    for ends in (p[:, None] - np.arange(1, 5), q[:, None] + np.arange(4)):
        correction, err = _end_terms(S, B, W, params, ends)
        np.add.at(total, col, correction)
        np.add.at(est, col, err)
    value, err = _window_closure(ell, W, B, params, k, p, q)
    np.add.at(total, col, value)
    np.add.at(est, col, err)
    return total, est


def _window_closure(ell: SlowlyVaryingSpec, W: np.ndarray, B,
                    params: SkewedStableParams, k, p, q):
    """int_{p-1/2}^{q-1/2} psi(c(x)) dx for each piece (stretch k, rows
    [p, q), weights W of its column), and each piece's summed panel
    estimates.

    On stretch k, c(x) = sum_{i>=k} W_i S(B_i - x) with S continued to real
    arguments by coefficient_sum.  The variable is u = ln(B_k - x): the
    continuation is singular only where some B_i - x <= 0, which is pi off
    the real u axis, so a few G_20/G_40 panels cover a range of ln(N/_L);
    no piece holds a sign change of c.  Panels are bisected until
    their estimates are within _SPAN_RTOL of the piece's integral or the
    round-off of the integrand (_judge)."""
    m = len(B)
    Bf = np.asarray(B, dtype=float)
    # weights of the columns i < k are zero, and their arguments are kept
    # in range
    W = W * (np.arange(m) >= k[:, None])
    off = Bf - Bf[k][:, None]

    def integrand(u, piece):
        first, inverse = _distinct(u, k[piece])
        y = np.exp(u[first])[..., None]
        g = coefficient_sum(ell, np.maximum(y + off[piece[first]][:, None], y))
        return _psi_parts(params.alpha, g[inverse], W[piece]) * np.exp(u)

    pieces = np.arange(k.size)
    val, err = panel_quad(integrand, rtol=_SPAN_RTOL, atol=0.0,
                          pts=np.concatenate([np.log(Bf[k] - q + 0.5), np.log(Bf[k] - p + 0.5)]),
                          owner=np.concatenate([pieces, pieces]),
                          scale=params.sigma, judge=_judge(params.D, m))
    return -val[0] + 1j * (params.D * val[1]), err


class _PrefixSums:
    """S[k] = sum_{i<=k} a_i at the integers of a union of intervals, read
    like an array through take().  Each merged interval [lo, hi] holds
    coefficient_sum(lo) plus the partial sums of a_k past lo, so no array
    spans the gaps between the intervals."""

    def __init__(self, ell: SlowlyVaryingSpec, spans):
        merged = []
        for lo, hi in sorted(spans):
            if merged and lo <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        lo, hi = np.array(merged).T
        size = int(np.sum(hi - lo + 1))
        if size > MEMORY_BUDGET_ELEMENTS:
            raise ValueError(f"oracle prefix sums need {size} elements, beyond the memory "
                             f"budget of {MEMORY_BUDGET_ELEMENTS} elements")
        parts = [coefficient_prefix_sums(ell, h, start=l) for l, h in zip(lo, hi)]
        if lo.size > 1:  # the first interval starts at 0, where S is 0
            for part, anchor in zip(parts[1:], coefficient_sum(ell, lo[1:])):
                part += anchor
        self._values = np.concatenate(parts)
        self._starts = lo
        # value of index i in interval s sits at i - shift[s]
        self._shift = lo - np.concatenate([[0], np.cumsum(hi - lo + 1)[:-1]])

    def take(self, idx):
        if self._starts.size == 1:  # one interval, from 0
            return self._values.take(idx)
        seg = np.searchsorted(self._starts, idx, side="right") - 1
        return self._values.take(idx - self._shift.take(seg))


def _prefix_sums(ell: SlowlyVaryingSpec, B, rows) -> _PrefixSums:
    """S at every index that prefix_weights(S, j, B) reads for j0 <= j < j1,
    (j0, j1) in rows: B_i - j clipped at 0, and -j for j < 0.  Index
    0 is always held, so intervals that reach it are plain partial sums."""
    spans = [(0, 1)]
    for j0, j1 in rows:
        spans.append((max(1 - j1, 0), max(-j0, 0)))
        spans += [(max(b - j1 + 1, 0), max(b - j0, 0)) for b in B]
    return _PrefixSums(ell, [(lo, max(hi, lo + 1)) for lo, hi in spans])


def exact_fdd_log_cf(ell: SlowlyVaryingSpec, params: SkewedStableParams, N: int,
                     fdd: FddSpec, *, tol: float = 1e-8, freq_grid=None) -> ExactFddLogCf:
    """Exact joint log-CF of (A_N^{-1} S(t_1), ..., A_N^{-1} S(t_m)) at the
    fdd frequencies, for exactly stable innovations (h == 1, H_alpha == 1),
    and at each extra frequency vector of freq_grid (see grid_values).

    Returns the value together with its past/in-window split and tail_bound,
    the largest summed estimate of the window and past closures; raises a
    RuntimeError when tail_bound exceeds tol.
    """
    N = int(N)
    grid = [] if freq_grid is None else list(freq_grid)
    U = np.column_stack([fdd.freqs] + [np.asarray(g, dtype=float) for g in grid])
    if U.shape[0] != fdd.m:
        raise ValueError(f"need frequency vectors of length m = {fdd.m}")
    B = [floor_index(N, t) for t in fdd.times]
    UA = U / (float(N) ** (1.0 / params.alpha) * coefficient_sum(ell, N))
    rows, kinks, _ = plan = _window_plan(ell, UA, B)
    S = _prefix_sums(ell, B, rows + [(r0, r1) for _, r0, r1 in kinks] + [(-_J_DEPTH, 0)])
    window, window_est = _window(ell, S, UA, B, params, plan)
    past, past_est = _past(ell, S, UA, B, params)
    bound = float((window_est + past_est).max())
    if not bound <= tol:
        raise RuntimeError(f"the exact log-CF at N = {N} certifies only {bound:.3g} "
                           f"(tolerance {tol})")
    value = window + past
    return ExactFddLogCf(complex(value[0]), complex(past[0]), complex(window[0]),
                         bound, _J_DEPTH, value[1:])


def limit_log_cf(params: SkewedStableParams, fdd: FddSpec) -> complex:
    """Levy-limit log-CF: -sum_i (t_i - t_{i-1}) sigma |v_i|^alpha (1 - iD sgn v_i);
    a ValueError when a term overflows."""
    v = v_transform(fdd.freqs)
    t = np.asarray(fdd.times)
    dt = np.diff(np.concatenate([[0.0], t]))
    with np.errstate(over="ignore"):  # raised below instead
        mag = params.sigma * np.abs(v) ** params.alpha
    if not np.isfinite(mag).all():
        raise ValueError(f"non-finite limit log-CF term sigma |v_i|^alpha at the "
                         f"frequencies {tuple(fdd.freqs)}")
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
    exact value there.  The past depth is fixed, so with freq_grid log_cf
    differs from a call without the grid only within both calls' tail_bound
    and round-off.  A row whose tail_bound exceeds tol raises.

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
