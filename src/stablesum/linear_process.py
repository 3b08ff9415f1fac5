"""Simulation of the moving average X_n = sum_{i>=1} a_i eps_{n-i}.

The series is cut at lag M (truncation); the admissibility diagnostic is the
tail of sum_i |a_i|^alpha H(|a_i|^-1), the same series whose finiteness makes
the full process converge almost surely.

normalizer is the package's one A_N, N^{1/alpha} H_alpha(N)^{1/alpha}
sum_{i<=N} a_i: the Monte-Carlo samples and the oracle's exact log-CF
(cf_oracle) both divide by it.

joint_fdd_sample is the one call of the Monte-Carlo side: it guards the
memory of the whole pass, builds each N's window weights and A_N, and
samples the normalized fdd of every N in one pass over the replicates.  Each
replicate draws the innovations of every N from one seed, and the law does
its shared work once (innovations.sample_innovations with several lengths),
so every N's matrix is the one normalized_fdd_sample, its one-N case, gives
at that N alone.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .innovations import InnovationSpec, sample_innovations
from .slowly_varying import (
    SlowlyVaryingSpec,
    coefficient,
    coefficient_prefix_sums,
    coefficient_sum,
    held_growth,
    held_prefix_sums,
    log_sv_slope,
)
from .stable_law import StandardStable, panel_quad

__all__ = [
    "ProcessSpec",
    "FddSpec",
    "floor_index",
    "truncation_tail",
    "default_truncation_depth",
    "path_from_innovations",
    "simulate_path",
    "PrefixSums",
    "window_weights",
    "normalizer",
    "joint_fdd_sample",
    "normalized_fdd_sample",
    "MEMORY_BUDGET_ELEMENTS",
    "require_budget",
    "MAX_INDEX",
]

# refuse path/innovation buffers beyond this many doubles (~1.2 GB)
MEMORY_BUDGET_ELEMENTS = 150_000_000


def require_budget(peak: int, what: str) -> None:
    """A ValueError when `what` (plural) would hold more than
    MEMORY_BUDGET_ELEMENTS doubles at its peak; called before allocating."""
    if peak > MEMORY_BUDGET_ELEMENTS:
        raise ValueError(f"{what} hold about {peak} elements at their peak, beyond the "
                         f"memory budget of {MEMORY_BUDGET_ELEMENTS} elements")


@dataclass(frozen=True)
class ProcessSpec:
    ell: SlowlyVaryingSpec
    innovation: InnovationSpec
    truncation: int

    def __post_init__(self):
        if int(self.truncation) < 1:
            raise ValueError("need truncation >= 1")


@dataclass(frozen=True)
class FddSpec:
    """Evaluation grid: times 0 < t_1 < ... < t_m and frequencies u_1..u_m."""

    times: tuple
    freqs: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        freqs = tuple(float(u) for u in self.freqs)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "freqs", freqs)
        if len(times) < 1 or len(times) != len(freqs):
            raise ValueError("need m >= 1 times with matching frequencies")
        if not all(math.isfinite(x) for x in times + freqs):
            raise ValueError("need finite times and frequencies")
        if times[0] <= 0.0 or any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("need strictly increasing positive times")

    @property
    def m(self) -> int:
        return len(self.times)


# the largest N t that floor_index takes: every integer up to it is a double
MAX_INDEX = 2**53


def floor_index(N, t) -> int:
    """[N t] for a time t read as a double, in exact integer arithmetic:
    the largest [N t'] over the reals t' within half an ulp of t, any of
    which t may stand for.  So 3 * (1/3) floors to 1 although the double
    1/3 is below one third; it differs from [N t] only where N t sits within
    N ulp(t)/2 below an integer, never for int N <= 2**40 and
    t = k / 2**j, j <= 11.  A ValueError beyond MAX_INDEX."""
    t = float(t)
    if not 0.0 <= float(N) * t <= MAX_INDEX:
        raise ValueError(f"need 0 <= N*t <= 2**53, got {float(N) * t:.6g}")
    a, b = t.as_integer_ratio()
    c, d = math.ulp(t).as_integer_ratio()
    # the largest integer below N (a/b + c/2d) = N (2ad + bc) / 2bd
    return max(0, -(-int(N) * (2 * a * d + b * c) // (2 * b * d)) - 1)


# exact terms per truncation tail; a panel_quad integral closes the rest
_TAIL_BLOCK = 10_000


def truncation_tail(ell: SlowlyVaryingSpec, innovation: InnovationSpec, M: int) -> float:
    """Tail sum_{i>M} |a_i|^alpha H(|a_i|^-1) of the a.s.-convergence series,
    with alpha and H those of the innovation law (H == 1 for an exact stable
    law: the factor 1.0 is exact).  H is read from the log of its argument
    (big_h_log), which is clamped to >= 1; only lags with a_i < 1 matter in
    any tail regime this diagnostic inspects.

    The _TAIL_BLOCK lags past M are summed exactly; a block holding a term
    below 1e-16 times the series' first term f(1) is the whole tail, summed
    over its terms of at least that, so the cut does not move with the
    scale of ell.  Otherwise the remainder sum_{i > cut} f(i),
    f(x) = a(x)^alpha H(1/a(x)), cut = M + _TAIL_BLOCK, is taken as
    int_X^inf f, X = cut + 1/2 (midpoint rule).  With x = X t^(-k),
    k = 1/(alpha-1), it is k X^(1-alpha) int_0^1 ell(x)^alpha H(x/ell(x)) dt,
    whose integrand is bounded up to a log as t -> 0.  ln x reaches about
    1e3 on panel_quad's ladder, and a(x) may underflow, so ln(1/a(x)) =
    ln x - ln ell(x) is taken from logs, in the block and the integrand.
    """
    M = int(M)
    if M < 0:
        raise ValueError("need M >= 0")
    alpha = innovation.alpha
    cut = M + _TAIL_BLOCK
    i = np.concatenate([[1.0], np.arange(M + 1, cut + 1, dtype=float)])
    ln_i = np.log(i)
    ln_a = _log_ell(ell, ln_i) - ln_i
    f = coefficient(ell, i)**alpha * innovation.big_h_log(np.maximum(-ln_a, 0.0))
    terms = f[1:]
    keep = terms >= 1e-16 * f[0]
    if not keep.all():
        return float(np.sum(terms[keep]))
    k = 1.0 / (alpha - 1.0)
    lnX = math.log(cut + 0.5)

    def integrand(t, _):
        lnx = lnX - k * np.log(t)
        ln_ell = _log_ell(ell, lnx)
        return np.exp(alpha * ln_ell) * innovation.big_h_log(np.maximum(lnx - ln_ell, 0.0))

    rem, _ = panel_quad(integrand)
    return float(np.sum(terms)) + k * (cut + 0.5) ** (1.0 - alpha) * float(rem[0])


def _log_ell(ell: SlowlyVaryingSpec, lnx):
    """ln ell(x) from ln x >= 0, which underflows for no p."""
    return math.log(ell.c) + log_sv_slope(ell, lnx)[0]


_M_FLOOR = 10_000
_M_CAP = 10**8
_M_BUDGET_RATIO = 1e-3


def default_truncation_depth(ell: SlowlyVaryingSpec, innovation: InnovationSpec) -> int:
    """Smallest power-of-two multiple of _M_FLOOR whose truncation tail is
    below _M_BUDGET_RATIO times the full series; _M_CAP when no candidate
    below _M_CAP passes.  alpha and h come from the innovation law."""
    budget = _M_BUDGET_RATIO * truncation_tail(ell, innovation, 0)
    M = _M_FLOOR
    while M < _M_CAP:
        if truncation_tail(ell, innovation, M) < budget:
            return M
        M *= 2
    return _M_CAP


def path_from_innovations(ell: SlowlyVaryingSpec, M: int, eps: np.ndarray,
                          n_out: int) -> np.ndarray:
    """X_1..X_n from a given innovation array eps_{1-M}..eps_{n-1}.

    This deterministic entry point is the public test surface for the
    algebraic identities (impulse response, linearity); simulate_path feeds it
    random draws.
    """
    M, n_out = int(M), int(n_out)
    eps = np.asarray(eps, dtype=float)
    if n_out < 1 or eps.shape != (n_out + M - 1,):
        raise ValueError(f"need n_out >= 1 and len(eps) == n_out + M - 1 = {n_out + M - 1}")
    a = coefficient(ell, np.arange(1, M + 1, dtype=float))
    # direct (FFT-free) convolution: X_n = sum_{i=1..M} a_i eps_{n-i}
    return np.convolve(eps, a, mode="valid")


def simulate_path(process: ProcessSpec, n: int, seed) -> np.ndarray:
    """One path X_1..X_n; innovations are drawn once, deterministically.
    The sampler's peak, the law's peak_arrays arrays of K = n + M - 1, is the
    run's (the convolution then holds the K innovations, the M coefficients
    and the n values) and is refused beyond the memory budget before
    anything is drawn."""
    n, M = int(n), int(process.truncation)
    K = n + M - 1
    require_budget(K * process.innovation.peak_arrays,
                   f"the {n} values and {K} innovations of a path")
    eps = sample_innovations(process.innovation, K, seed)
    return path_from_innovations(process.ell, M, eps, n)


class PrefixSums:
    """S[k] = sum_{i<=k} a_i at the integers of a union of intervals, each
    merged interval its own array, so that no array spans the gaps between
    them and none joins them.  The first starts at 0 whether or not a span
    reaches it, since rows() reads S[0] there: a read-only view of the
    partial sums held on ell (slowly_varying.held_prefix_sums), which are
    extended to its end when they stop short of it.  Each later one,
    [lo, hi], holds coefficient_sum(lo) plus the partial sums of a_k past
    lo.

    rows() reads the weight block of a run of consecutive rows as reversed
    slices of the intervals: the package's one reader of the weight of eps_j
    in S(t_i), for the Monte-Carlo window (window_weights) and for the
    oracle's exact rows and end rows."""

    def __init__(self, ell: SlowlyVaryingSpec, spans):
        merged = [[0, 0]]
        for lo, hi in sorted(spans):
            if lo <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        lo, hi = np.array(merged).T
        size = hi - lo + 1
        # the held sums are extended first (held_growth), then the later
        # intervals are built in turn, each from three arrays of its
        # length (log-power ell), while the held sums and those before it
        # are held
        grow, size[0] = held_growth(ell, hi[0])
        build = np.append(0, 2 * size[1:])
        require_budget(max(grow, int(np.max(np.cumsum(size) + build))),
                       f"the {int(size.sum())} prefix sums")
        first = held_prefix_sums(ell, hi[0])[:hi[0] + 1]
        rest = [coefficient_prefix_sums(ell, h, start=l) for l, h in zip(lo[1:], hi[1:])]
        for part, anchor in zip(rest, coefficient_sum(ell, lo[1:])):
            part += anchor
        self._parts = [first] + rest
        self._starts = lo.tolist()
        self._last = int(hi[-1])

    def rows(self, j0: int, j1: int, B, out=None) -> np.ndarray:
        """The (j1 - j0) x m weights S[min(max(B_i - j, 0), last)] - S[max(-j, 0)]
        of the rows j0 <= j < j1 (B_i >= 0, so the second index is never the
        larger), written into the first j1 - j0 rows of out when given.  last
        is the largest index held: past it S stays S[last], as it does for a
        process truncated at lag last (a_k = 0 for k > last)."""
        n = j1 - j0
        block = np.empty((n, len(B))) if out is None else out[:n]
        # S[max(-j, 0)] past its run is S[0] = 0 (the first interval starts
        # at 0), whose subtraction leaves every bit as it is
        k0, run0 = self._desc(-j0, n)
        for col, b in zip(block.T, B):
            over = min(max(b - j0 - self._last, 0), n)
            col[:over] = self._parts[-1][-1]
            k, run = self._desc(b - j0 - over, n - over)
            col[over:over + k] = run
            col[over + k:] = self._parts[0][0]
            # column by column: a 2-d subtraction of the broadcast run takes
            # a 64 KiB ufunc buffer at m >= 2
            np.subtract(col[:k0], run0, out=col[:k0])
        return block

    def _desc(self, top: int, n: int):
        """(k, run) with run = S[top - r] for r = 0..k-1, k = min(top + 1, n)
        (0 for top < 0): the indices from top down to 0 are one reversed
        slice of the interval that holds top (the intervals of
        cf_oracle._prefix_sums, and a single interval from 0, hold each such
        run whole); S[max(top - r, 0)] repeats S[0] for r >= k."""
        k = min(max(top + 1, 0), n)
        if not k:
            return 0, self._parts[0][:0]
        s = bisect_right(self._starts, top) - 1
        pos = top - self._starts[s]
        return k, self._parts[s][pos - k + 1:pos + 1][::-1]


def window_weights(ell: SlowlyVaryingSpec, N: int, times, M: int) -> np.ndarray:
    """Total weight of eps_j in S(t_i) under lag truncation M, for
    j = 1-M .. [N t_m]-1: column stack over i of
    sum_{n = max(1, j+1)}^{min([N t_i], j+M)} a_{n-j}, read from the
    partial sums S[0..M] held on ell (PrefixSums.rows, which holds S[M] past
    index M)."""
    M = int(M)
    B = [floor_index(N, t) for t in times]
    return PrefixSums(ell, [(0, M)]).rows(1 - M, B[-1], B)


def normalizer(ell: SlowlyVaryingSpec, law: InnovationSpec | StandardStable, N: int) -> float:
    """A_N = N^{1/alpha} H_alpha(N)^{1/alpha} sum_{i<=N} a_i, at the alpha
    and H_alpha of the law (H_alpha == 1 for a stable law; the factor 1.0
    is exact), with sum_{i<=N} a_i from coefficient_sum (no N-length
    array): the package's one A_N, which the Monte-Carlo samples and the
    oracle's exact log-CF both divide by.  A ValueError for N < 1, and
    unless A_N is a positive normal double: dividing by a subnormal or zero
    A_N overflows."""
    N = int(N)
    if N < 1:
        raise ValueError("need N >= 1")
    A_N = (N ** (1.0 / law.alpha) * law.h_alpha(N) ** (1.0 / law.alpha)
           * coefficient_sum(ell, N))
    if not sys.float_info.min <= A_N < math.inf:
        raise ValueError(f"A_N at N = {N} is {A_N:.6g}, not a positive normal double")
    return A_N


def joint_fdd_sample(process: ProcessSpec, n_list, fdd: FddSpec, reps: int, seed, *,
                     threads: int = 1) -> list:
    """For each N of n_list, (W, A_N, X): the window weights at the fdd
    times (window_weights), A_N (normalizer) and the reps x m
    matrix X of A_N^{-1} S(t_i) over independent replicates.

    Refused before anything is built or drawn when the joint peak memory
    would exceed MEMORY_BUDGET_ELEMENTS doubles.  The peak is the larger of
    two phases: extending the partial sums held on ell to S[M]
    (held_growth; nothing when an oracle sweep of the run has reached it),
    and sampling, with those sums still held (every W, built N by N, every
    X and, for each replicate in flight, the law's shared_arrays arrays of
    the largest K and its other peak_arrays arrays of each K, K the
    innovation count of each N).

    One sampling pass serves every N: replicate r draws the innovations of
    every N at once from the counter-derived seed (seed, r), by
    sample_innovations with one length per N, so each law does its shared
    work once (see its draw) and every X equals that of
    normalized_fdd_sample at its N alone, bit for bit.  Results are
    independent of execution order and any degree of parallelism.  The
    replicates run in up to `threads` chunks on a thread pool, the
    package's only one; at threads <= 1 they run inline in the calling
    thread.  Each chunk keeps one work dict for its draws, so a CMS
    replicate reuses the arrays of the one before it.  Each row equals the
    partial sums of simulate_path on the same seed (asserted in tests); the
    weighted-sum form avoids rebuilding the whole path per replicate.
    """
    reps = int(reps)
    if reps < 1:
        raise ValueError("need reps >= 1")
    M, m = int(process.truncation), fdd.m
    Ks = [floor_index(N, fdd.times[-1]) + M - 1 for N in n_list]
    in_flight = min(max(threads, 1), reps)
    law = process.innovation
    grow, held = held_growth(process.ell, M)
    draw = law.shared_arrays * max(Ks) + (law.peak_arrays - law.shared_arrays) * sum(Ks)
    require_budget(max(grow, held + sum(Ks) * m + len(Ks) * reps * m + in_flight * draw),
                   f"{reps} replicates of {', '.join(map(str, Ks))} innovations "
                   f"on {in_flight} thread(s)")
    joint = [(window_weights(process.ell, N, fdd.times, M), normalizer(process.ell, law, N),
              np.empty((reps, m))) for N in n_list]
    step = -(-reps // max(threads, 1))
    starts = range(0, reps, step)

    def fill(r0):
        work = {}
        for r in range(r0, min(r0 + step, reps)):
            draws = sample_innovations(law, Ks, [seed, r], work)
            for (W, A, X), eps in zip(joint, draws):
                X[r] = eps @ W / A

    if len(starts) == 1:  # threads <= 1 or a single replicate: no pool
        fill(0)
    else:  # imported here, so that a run at threads <= 1 never loads it
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=len(starts)) as pool:
            list(pool.map(fill, starts))
    return joint


def normalized_fdd_sample(process: ProcessSpec, N: int, fdd: FddSpec, reps: int,
                          seed, *, threads: int = 1) -> np.ndarray:
    """reps x m matrix of A_N^{-1} S(t_i) over independent replicates: the
    one-N case of joint_fdd_sample."""
    return joint_fdd_sample(process, [N], fdd, reps, seed, threads=threads)[0][2]
