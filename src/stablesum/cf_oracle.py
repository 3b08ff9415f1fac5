"""Deterministic characteristic-function verification core.

For exactly stable innovations the joint log-CF of the normalized partial-sum
vector is a (countable) exact sum

    sum_j psi(A_N^{-1} * sum_i u_i * <weight of eps_j in S(t_i)>)

with psi the innovation's log-CF, psi(w) = -sigma*|w|^alpha*(1 - i*D*sgn w),
which the oracle reads from the law it is given alone: its log_cf_parts for
the real and imaginary parts, its log_cf_slope for the round-off an error in
w leaves in it, and its alpha for the homogeneity below.  A_N is
linear_process.normalizer, the one the Monte-Carlo samples divide by, at the
law's alpha and H_alpha(N) (1 for a stable law).
The sum splits into the in-window block (j inside [0, [N t_m])) and the past
block (j < 0), whose limit is zero; the whole vector converges to the
Levy-increment log-CF sum_i (t_i - t_{i-1}) * psi(v_i).

No array in it grows with N.  A_N takes sum_{i<=N} a_i from
slowly_varying.coefficient_sum, and the prefix sums the exact rows read are
held on a union of short index intervals (PrefixSums): the one from 0 a
view of the partial sums held on ell (slowly_varying.held_prefix_sums),
each later one anchored at coefficient_sum, the exact S[k] up to
_SUM_ANCHOR and its smooth continuation beyond (digamma for constant ell,
Euler-Maclaurin for log-power ell).

The in-window block splits into stretches [B_{k-1}, B_k) of the window,
B_k = [N t_k], B_0 = 0.  On a stretch c is smooth but near its kink B_k and
near its own zeros, where |c|^alpha has a kink.  Rows within _L of a
stretch end (the kink, and the seam with the previous stretch or the past)
and, per vector, within _L of a sign change of its c are summed term by
term; the rest of each vector's stretch is closed by the midpoint
Euler-Maclaurin form (_window), its integral in u = ln(B_k - x) and its end
corrections from the exact rows next to each end (_end_terms).  A stretch
of at most 2 _L rows is summed whole, so the oracle's cost does not grow
with N.

The past block (j = -x < 0) decays only like J^{1-alpha} beyond depth J, so
it cannot be truncated.  Its rows x <= J = _J_DEPTH are summed term by term,
and the rest, x > J, is one more piece with a single end at the seam
j = -J: its integral in t = (X/x)^(alpha-1), X = J + 1/2, where the
integrand stays bounded as x -> inf (_past_closure), and its end correction
from the exact rows -J..-J+3.

Both integrals go through one integrator, _closure: each caller gives its
change of variable, its spans S(x+b) - S(x) as arrays, its Jacobian and its
breakpoints (for the past, the sign changes of each vector's c).  Its
G_20/G_40 panels are bisected until their estimates are within _SPAN_RTOL
of the integral or the integrand's round-off, about 1e-15 of the log-CF;
at J = 1e4 the seam's estimate is as small.  The vectors share the prefix
sums, the exact rows and the distinct panels of the closures.  Every
weight block is read as reversed slices of the prefix sums
(PrefixSums.rows, the reader of the Monte-Carlo window too): the exact
rows in row chunks of bounded size, and the four end rows of the closed
pieces (_end_terms) once per distinct run of four.  Each chunk is
evaluated in place, in one workspace per _psi_sums call (a weight block, a
term block and, at D != 0, an Im block), so that no chunk allocates a
block past glibc's mmap threshold, whose pages would be faulted in anew
(BENCH_oracle_workspace.json), and its terms are summed by column in row
order (_column_sums).  Prefix sums whose peak (the sums from 0 extended,
then the later intervals built in turn, each from three arrays of its
length, with the sums from 0 and those before it held) passes
MEMORY_BUDGET_ELEMENTS are refused.  _prefix_sums holds every index the
oracle reads, so rows() never fills past the last held index.

In one sweep (cf_convergence_sweep) the partial sums from 0 are held on
ell, one array that every N, and a verify run's Monte-Carlo window, reads
as a view, extended as an N reads further; each N builds only its
intervals beyond 0, with no joined copy (BENCH_oracle_sweep.json).

tail_bound adds up the estimates of both closures and their end
corrections, and a call whose tail_bound exceeds tol raises instead of
returning.

A sweep's frequency vectors are evaluated once per ray: every term is
psi(c_j) with c_j linear in the vector, so the sums at lam u are those at
u times |lam|^alpha (the stable law's homogeneity), conjugated for lam < 0
(psi(-w) = conj psi(w), true of any real law).  The 65 vectors of the
m = 2 sup grid lie on 14 rays; the 64 of the strided m = 3 grid on 64,
none of them folded.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .linear_process import FddSpec, PrefixSums, floor_index, normalizer
from .slowly_varying import SlowlyVaryingSpec, _scaled_spans, coefficient_sum
from .stable_law import _PANEL_X, StandardStable, panel_quad

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
    """v_i = sum_{j=i}^m u_j (reverse cumulative sum); invertible.  A 2-d u
    holds one frequency vector per column."""
    arr = np.asarray(u, dtype=float)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ValueError("need a nonempty frequency vector, or a 2-d array of them")
    return np.cumsum(arr[::-1], axis=0)[::-1]


# cap on rows x max(m, F) of one weight block W (rows x m) and of c = W @ U
# (rows x F), the workspace _psi_sums evaluates every chunk of a call in.
# The chunks are summed in turn, so the cap fixes the summation order: a
# smaller one moves oracle values in their last bits
_CHUNK_ELEMENTS = 2**16


def _column_sums(block: np.ndarray) -> np.ndarray:
    """block.sum(axis=0) of a C-ordered block, bit for bit: each column
    summed in row order.  For F >= 2 columns, sum(axis=0) runs one inner
    loop of F elements per row; einsum adds the rows in the same order in
    one call.  A single column is contiguous, and sum(axis=0) sums it
    pairwise, so it keeps sum(axis=0)."""
    return block.sum(axis=0) if block.shape[1] == 1 else np.einsum("ij->j", block)


def _psi_sums(S: PrefixSums, j0: int, j1: int, B, U: np.ndarray,
              law: StandardStable) -> np.ndarray:
    """sum_{j0 <= j < j1} psi(c_j) for each column of U, with c = W @ U the
    combination of the cumulative weights W of eps_j in S(t_1..t_m); each
    chunk of W is read as slices of the prefix sums (PrefixSums.rows).

    Every chunk is evaluated in one workspace of the call, a weight block
    (rows x m), a term block (rows x F) and, at D != 0, an Im block
    (rows x F) in the same array as the term block: rows() writes W into
    the first, c, then the real parts of psi(c), overwrite the second, and
    sgn c, then the imaginary parts, the third (log_cf_parts in place).
    The blocks of a 14-vector chunk are 512 KiB, past glibc's 128 KiB mmap
    threshold, so arrays allocated per chunk, sgn c among them, would have
    their pages faulted in anew on every chunk; the workspace is faulted in
    once per call (BENCH_oracle_workspace.json measures both).  Each
    block's columns are summed by _column_sums."""
    rows = max(1, _CHUNK_ELEMENTS // max(U.shape))
    n = min(rows, max(j1 - j0, 0))
    m, F = U.shape
    weights = np.empty((n, m))
    # at D != 0 the Im block shares one array with the term block
    blocks = np.empty((1 if law.D == 0.0 else 2, n, F))
    terms, imag = blocks[0], (None if law.D == 0.0 else blocks[1])
    re = np.zeros(F)
    im = np.zeros(F)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        for lo in range(j0, j1, rows):
            hi = min(lo + rows, j1)
            c = np.matmul(S.rows(lo, hi, B, out=weights), U, out=terms[:hi - lo])
            g_re, g_im = law.log_cf_parts(c, out=(c, None if imag is None else imag[:hi - lo]))
            re += _column_sums(g_re)
            if imag is not None:
                im += _column_sums(g_im)
    if not np.isfinite(re).all():
        raise ValueError(f"non-finite log-CF term psi(c_j) in the rows {j0} <= j < {j1}")
    return re + 1j * im


def _end_terms(S: PrefixSums, B, W: np.ndarray, law: StandardStable,
               ends: np.ndarray, step: int):
    """The midpoint Euler-Maclaurin terms at the ends of closed pieces, one
    per entry of ends (the exact row next to the end) and row of W (n x m,
    the weights of its piece's column), and their estimates.  The four
    exact rows outward of an end, nearest first, are ends + step r,
    r = 0..3, step = 1 above the end and -1 below it; each distinct run of
    four is read once (PrefixSums.rows), and reversed below the end.

    With g_0..g_3 the terms psi(c_j) on those rows,
    2 g_0 - 3 g_1 + g_2 = -+f' + 23/24 f''' at the end gives its correction
    -+f'/24; with the remainder's 7/5760 f''' the end adds at most
    (23/576 + 7/5760) |f'''|, f''' from the rows' third difference."""
    starts, inverse = np.unique(ends if step > 0 else ends - 3, return_inverse=True)
    runs = np.stack([S.rows(s, s + 4, B) for s in starts.tolist()])
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        g = law.log_cf(np.einsum("nrm,nm->nr", runs[:, ::step][inverse], W))
    if not np.isfinite(g).all():
        rows = ends[:, None] + step * np.arange(4)
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
# no panel is split once the halved panels' P x 60 x m arrays in _closure
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


def _distinct(*keys):
    """(first, inverse) over the distinct tuples of the equal-length arrays
    keys: entry i repeats entry first[inverse[i]], the first of its tuple
    (lexsort is stable)."""
    order = np.lexsort(keys)
    new = np.arange(order.size) == 0
    for k in keys:
        new[1:] |= k[order][1:] != k[order][:-1]
    inverse = np.empty(order.size, dtype=int)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _judge(m: int):
    """panel_quad judge for _closure: a panel's estimate combines its real
    and imaginary gaps, and a panel within twice its round-off (the third
    integrand), or one whose halves would pass _MAX_PANEL_ELEMENTS, is
    accepted as it is."""
    def judge(g20, g40, half):
        est = np.hypot(g40[0] - g20[0], g40[1] - g20[1])
        return est, ((est <= 2.0 * g40[2])
                     | (2 * half.size * _PANEL_X.size * m > _MAX_PANEL_ELEMENTS))
    return judge


def _closure(law: StandardStable, W: np.ndarray, key, pts, owner, spans, jacobian):
    """int psi(w(t)) jacobian(t) dt over the span of each owner's pts, and
    each owner's summed panel estimates; w(t) = spans(t, key) @ W, with one
    row of W and of key per owner, and spans gets the nodes of the distinct
    panels (_distinct, with the key) and their keys.  The integrands are
    Re psi, Im psi and the round-off |psi'(w)| _SPAN_RTOL sum_i |W_i g_i|
    that spans accurate to _SPAN_RTOL leave; panel_quad bisects panels
    until their estimates are within _SPAN_RTOL of the owner's integral or
    twice that round-off (_judge)."""
    def integrand(t, o):
        # rows with the same end nodes and key are one panel, as the panels
        # of different columns often are, and need their spans only once
        first, inverse = _distinct(t[:, 0], t[:, -1], key[o])
        ug = spans(t[first], key[o[first]])[inverse] * W[o][:, None]
        w = ug.sum(axis=-1)
        out = np.empty((3,) + w.shape)
        out[0], out[1] = law.log_cf_parts(w)
        out[2] = law.log_cf_slope(w) * _SPAN_RTOL * np.abs(ug).sum(axis=-1)
        return out * jacobian(t)

    val, err = panel_quad(integrand, rtol=_SPAN_RTOL, pts=pts, owner=owner,
                          judge=_judge(W.shape[1]))
    return val[0] + 1j * val[1], err


def _past_closure(ell: SlowlyVaryingSpec, UA: np.ndarray, B,
                  law: StandardStable, J: int):
    """int_X^inf psi(c(-x)) dx, X = J + 1/2, for every column of UA at once,
    and each column's summed panel estimates: the integral of the past
    piece x > J, which _past closes like a window piece.

    With x = X t^(-1/(alpha-1)) and the homogeneity psi(lambda w) =
    lambda^alpha psi(w), which holds exactly for the stable law, the
    integral is X^(1-alpha)/(alpha-1) int_0^1 psi(x c(x)) dt, whose
    integrand stays bounded as t -> 0 (_closure).  Each column's t-range is
    split where its c changes sign (the kink of |c|^alpha)."""
    F, k = UA.shape[1], 1.0 / (law.alpha - 1.0)
    lnX, scale = math.log(J + 0.5), (J + 0.5) ** (1.0 - law.alpha) / (law.alpha - 1.0)

    def spans(t):
        return _scaled_spans(ell, lnX - k * np.log(t), B)

    t, col = _sign_changes(spans, UA)
    cols = np.arange(F)
    return _closure(law, UA.T, np.zeros(F), np.concatenate([np.zeros(F), np.ones(F), t]),
                    np.concatenate([cols, cols, col]), lambda t, _: spans(t), lambda t: scale)


def _past(ell: SlowlyVaryingSpec, S, UA: np.ndarray, B, law: StandardStable):
    """sum_{j < 0} psi(c_j) for every column of UA, and each column's
    closure estimate: the rows -J <= j < 0 (J = _J_DEPTH, held by S) term
    by term, and j < -J as a window piece with one end, at j = -J."""
    J = _J_DEPTH
    seam, seam_est = _end_terms(S, B, UA.T, law, np.full(UA.shape[1], -J), 1)
    tail, tail_est = _past_closure(ell, UA, B, law, J)
    return _psi_sums(S, -J, 0, B, UA, law) + seam + tail, seam_est + tail_est


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
            law: StandardStable, plan):
    """sum_{0 <= j < B_m} psi(c_j) for every column of UA, and each column's
    closure estimate; S holds the rows and kinks of plan (_window_plan).

    Each piece [p, q) of stretch k is summed by the midpoint Euler-Maclaurin
    form

        sum_{p <= j < q} f(j) = int_{p-1/2}^{q-1/2} f
                                - [f'(q - 1/2) - f'(p - 1/2)]/24 + R,

    the end terms, with R, by _end_terms from the exact rows outward of each
    end, and the integral by _closure in u = ln(B_k - x), keyed by k.  On
    stretch k, c(x) = sum_{i>=k} W_i S(B_i - x) with S continued to real
    arguments by coefficient_sum, which is singular only where some
    B_i - x <= 0, pi off the real u axis, so a few panels cover a range of
    ln(N/_L); no piece holds a sign change of c.  The estimate adds the
    panel estimates to those of the end terms."""
    rows, kinks, pieces = plan
    F = UA.shape[1]
    total, est = np.zeros(F, dtype=complex), np.zeros(F)
    for lo, hi in rows:
        total += _psi_sums(S, lo, hi, B, UA, law)
    for f, r0, r1 in kinks:
        total[f] += _psi_sums(S, r0, r1, B, UA[:, [f]], law)[0]
    if not pieces:
        return total, est
    k, col, p, q = np.array(pieces).T
    W = UA.T[col]
    for ends, step in ((p - 1, -1), (q, 1)):
        correction, err = _end_terms(S, B, W, law, ends, step)
        np.add.at(total, col, correction)
        np.add.at(est, col, err)
    Bf = np.asarray(B, dtype=float)

    # on stretch k the columns i < k get zero weight, and spans keeps their
    # arguments in range
    def spans(u, stretch):
        y = np.exp(u)[..., None]
        return coefficient_sum(ell, np.maximum(y + (Bf - Bf[stretch][:, None])[:, None], y))

    ids = np.arange(k.size)
    value, err = _closure(law, W * (np.arange(len(B)) >= k[:, None]), k,
                          np.log(np.concatenate([Bf[k] - q, Bf[k] - p]) + 0.5),
                          np.concatenate([ids, ids]), spans, np.exp)
    np.add.at(total, col, value)
    np.add.at(est, col, err)
    return total, est


def _prefix_sums(ell: SlowlyVaryingSpec, B, rows) -> PrefixSums:
    """S at every index that S.rows(j0, j1, B) reads, (j0, j1) in rows:
    B_i - j clipped at 0, and -j for j < 0, one span per term, so each run
    rows() slices lies in one merged interval; those that reach 0 are views
    of the sums held on ell (PrefixSums)."""
    spans = []
    for j0, j1 in rows:
        spans.append((max(1 - j1, 0), max(-j0, 0)))
        spans += [(max(b - j1 + 1, 0), max(b - j0, 0)) for b in B]
    return PrefixSums(ell, [(lo, max(hi, lo + 1)) for lo, hi in spans])


def _frequency_matrix(fdd: FddSpec, freq_grid) -> np.ndarray:
    """The fdd's own frequencies, then each vector of freq_grid, as columns."""
    grid = [] if freq_grid is None else freq_grid
    U = np.column_stack([fdd.freqs] + [np.asarray(g, dtype=float) for g in grid])
    if U.shape[0] != fdd.m:
        raise ValueError(f"need frequency vectors of length m = {fdd.m}")
    return U


def _rays(U: np.ndarray):
    """(first, inverse, lam) over the rays of the columns of U: column f is
    lam[f] times column first[inverse[f]], the first column of its ray.  Two
    columns share a ray when they agree after dividing each by its first
    nonzero entry, and that entry lies in the same band [2^(64k - 32),
    2^(64k + 32)) of magnitudes: so |lam| < 2^64, and |lam|^alpha neither
    overflows nor scales up a sum whose terms underflowed.  An all-zero
    column has lam 1."""
    lead = U[np.argmax(U != 0.0, axis=0), np.arange(U.shape[1])]
    lead = np.where(lead == 0.0, 1.0, lead)
    first, inverse = _distinct(*(U / lead), np.floor(np.log2(np.abs(lead)) / 64.0 + 0.5))
    return first, inverse, lead / lead[first][inverse]


def exact_fdd_log_cf(ell: SlowlyVaryingSpec, law: StandardStable, N: int,
                     fdd: FddSpec, *, tol: float = 1e-8, freq_grid=None) -> ExactFddLogCf:
    """Exact joint log-CF of (A_N^{-1} S(t_1), ..., A_N^{-1} S(t_m)) at the
    fdd frequencies, for exactly stable innovations (h == 1, H_alpha == 1),
    and at each extra frequency vector of freq_grid (see grid_values).

    Every term is psi(c_j), c_j linear in the frequency vector, so the sum
    at lam u is |lam|^alpha times the sum at u, conjugated for lam < 0.  The
    scale is the stable law's homogeneity psi(lam w) = lam^alpha psi(w)
    (lam > 0); the sign is psi(-w) = conj psi(w), which holds for any real
    law.  So the sums are taken once per ray (_rays), at its first vector,
    the fdd's own vector as given, and the other vectors of the ray take
    them scaled, as do the closure estimates.

    Returns the value together with its past/in-window split and tail_bound,
    the largest summed estimate of the window and past closures; raises a
    RuntimeError when tail_bound exceeds tol, and a ValueError when A_N is
    not a positive normal double (linear_process.normalizer) or a term,
    scaled or not, is not finite.
    """
    N = int(N)
    U = _frequency_matrix(fdd, freq_grid)
    B = [floor_index(N, t) for t in fdd.times]
    first, inverse, lam = _rays(U)
    A_N = normalizer(ell, law, N)
    UA = U[:, first] / A_N
    rows, kinks, _ = plan = _window_plan(ell, UA, B)
    S = _prefix_sums(ell, B, rows + [(r0, r1) for _, r0, r1 in kinks] + [(-_J_DEPTH, 0)])
    window, window_est = _window(ell, S, UA, B, law, plan)
    past, past_est = _past(ell, S, UA, B, law)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        scale = np.abs(lam) ** law.alpha

        def unfold(x):
            x = x[inverse] * scale
            return np.where(lam < 0.0, x.conj(), x)

        window, past = unfold(window), unfold(past)
        value = window + past
        bound = float(((window_est + past_est)[inverse] * scale).max())
    if not np.isfinite(value).all():
        freqs = tuple(U[:, np.argmin(np.isfinite(value))].tolist())
        raise ValueError(f"non-finite log-CF term psi(c_j) at the frequencies {freqs}")
    if not bound <= tol:
        raise RuntimeError(f"the exact log-CF at N = {N} certifies only {bound:.3g} "
                           f"(tolerance {tol})")
    return ExactFddLogCf(complex(value[0]), complex(past[0]), complex(window[0]),
                         bound, _J_DEPTH, value[1:])


def _limit_log_cfs(law: StandardStable, times, U: np.ndarray) -> np.ndarray:
    """Levy-limit log-CF sum_i (t_i - t_{i-1}) psi(v_i) of each column of U
    (v = v_transform(U)), in one log_cf_parts call; a ValueError when a term
    overflows."""
    dt = np.diff(np.concatenate([[0.0], times]))[:, None]
    with np.errstate(over="ignore"):  # raised below instead
        re, im = law.log_cf_parts(v_transform(U))
    finite = np.isfinite(re).all(axis=0)
    if not finite.all():
        raise ValueError(f"non-finite limit log-CF term psi(v_i) at the "
                         f"frequencies {tuple(U[:, np.argmin(finite)].tolist())}")
    return (dt * re).sum(axis=0) + 1j * (dt * im).sum(axis=0)


def limit_log_cf(law: StandardStable, fdd: FddSpec) -> complex:
    """Levy-limit log-CF: sum_i (t_i - t_{i-1}) psi(v_i); a ValueError when
    a term overflows."""
    return complex(_limit_log_cfs(law, fdd.times, np.array(fdd.freqs)[:, None])[0])


_GRID_VALUES = (-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0)
_GRID_CAP = 64


def default_frequency_grid(m: int) -> list:
    """Per-coordinate grid for sup-distances: the product of _GRID_VALUES
    over m coordinates, in itertools.product order, or when it has more
    than _GRID_CAP points the _GRID_CAP of index k b^m // _GRID_CAP (an even
    stride; b = len(_GRID_VALUES)).  Each kept point is read from the base-b
    digits of its index, so no other point is built."""
    b = len(_GRID_VALUES)
    size = b**m
    kept = range(size) if size <= _GRID_CAP else [k * size // _GRID_CAP for k in range(_GRID_CAP)]
    return [np.array([_GRID_VALUES[i // b**(m - 1 - d) % b] for d in range(m)]) for i in kept]


@dataclass(frozen=True)
class SweepRow:
    n: int
    distance: float
    past_part: float            # |past block| at the fdd's own frequencies
    window_part: float          # |in-window block| there
    wall_ms: float
    j_depth: int
    tail_bound: float
    log_cf: complex             # exact log-CF at the fdd's own frequencies


def cf_convergence_sweep(ell: SlowlyVaryingSpec, law: StandardStable,
                         fdd: FddSpec, n_list, *, tol: float = 1e-8,
                         freq_grid=None) -> list:
    """distance(N) = |exact_fdd_log_cf - limit_log_cf| per N (supremum over
    the fdd's frequencies and freq_grid when given); past_part and
    window_part are the magnitudes of the past and in-window blocks at the
    fdd's own frequencies and log_cf is the exact value there.  The past
    depth is fixed, so with freq_grid log_cf differs from a call without the
    grid only within both calls' tail_bound and round-off.  A row whose
    tail_bound exceeds tol raises.

    One exact_fdd_log_cf call per N, in order, sharing the sums from 0
    held on ell, and the limits of all the vectors in one pass.  Each row is
    bit for bit that of its N evaluated alone."""
    n_list = [int(n) for n in n_list]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("need a nonempty increasing N list")
    limits = _limit_log_cfs(law, fdd.times, _frequency_matrix(fdd, freq_grid))

    def row(n):
        t0 = time.perf_counter()
        out = exact_fdd_log_cf(ell, law, n, fdd, tol=tol, freq_grid=freq_grid)
        dist = float(np.max(np.abs(np.append(out.value, out.grid_values) - limits)))
        wall = (time.perf_counter() - t0) * 1e3
        return SweepRow(n, dist, abs(out.past_part), abs(out.window_part), wall,
                        out.j_depth, out.tail_bound, out.value)

    return [row(n) for n in n_list]
