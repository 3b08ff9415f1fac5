"""Simulation of the moving average X_n = sum_{i>=1} a_i eps_{n-i}.

The series is cut at lag M (truncation); the admissibility diagnostic is the
tail of sum_i |a_i|^alpha H(|a_i|^-1), the same series whose finiteness makes
the full process converge almost surely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .innovations import ExactStable, InnovationSpec, sample_innovations, tail_constants
from .slowly_varying import (
    SlowlyVaryingSpec,
    big_h,
    big_h_log,
    coefficient,
    coefficient_prefix_sums,
    coefficient_sum,
    eval_sv_log,
    normalizer,
)
from .stable_law import panel_quad

__all__ = [
    "ProcessSpec",
    "FddSpec",
    "floor_index",
    "truncation_tail",
    "default_truncation_depth",
    "path_from_innovations",
    "simulate_path",
    "prefix_weights",
    "window_weights",
    "process_normalizer",
    "normalized_fdd_sample",
    "thread_map",
    "MEMORY_BUDGET_ELEMENTS",
]

# refuse path/innovation buffers beyond this many doubles (~1.2 GB)
MEMORY_BUDGET_ELEMENTS = 150_000_000


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


def floor_index(N, t) -> int:
    """[N*t] with a relative 1e-9 snap so values like 3*(1/3) floor to 1."""
    y = float(N) * float(t)
    if y < 0.0:
        raise ValueError("need N*t >= 0")
    k = math.floor(y)
    if (k + 1) - y < 1e-9 * max(1.0, y):
        k += 1
    return k


# exact terms per truncation tail; a panel_quad integral closes the rest
_TAIL_BLOCK = 10_000


def truncation_tail(ell: SlowlyVaryingSpec, innovation: InnovationSpec, M: int) -> float:
    """Tail sum_{i>M} |a_i|^alpha H(|a_i|^-1) of the a.s.-convergence series,
    with alpha and h the tail constants of the innovation law.  The H
    argument is clamped to >= 1; only lags with a_i < 1 matter in any tail
    regime this diagnostic inspects.

    The _TAIL_BLOCK lags past M are summed exactly; a block holding a term
    below 1e-16 is the whole tail, summed over its terms of at least 1e-16.
    Otherwise the remainder sum_{i > cut} f(i), f(x) = a(x)^alpha H(1/a(x)),
    cut = M + _TAIL_BLOCK, is taken as int_X^inf f, X = cut + 1/2 (midpoint
    rule).  With x = X t^(-k), k = 1/(alpha-1), it is
    k X^(1-alpha) int_0^1 ell(x)^alpha H(x/ell(x)) dt, whose integrand is
    bounded up to a log as t -> 0.  ln x reaches about 1e3 on panel_quad's
    ladder, so the integrand is evaluated from ln x.
    """
    M = int(M)
    if M < 0:
        raise ValueError("need M >= 0")
    alpha, _, _, h = tail_constants(innovation)
    cut = M + _TAIL_BLOCK
    a = coefficient(ell, np.arange(M + 1, cut + 1, dtype=float))
    terms = a**alpha * big_h(h, alpha, np.maximum(1.0 / a, 1.0))
    keep = terms >= 1e-16
    if not keep.all():
        return float(np.sum(terms[keep]))
    k = 1.0 / (alpha - 1.0)
    lnX = math.log(cut + 0.5)

    def integrand(t, _):
        lnx = lnX - k * np.log(t)
        ell_x = eval_sv_log(ell, lnx)
        return ell_x**alpha * big_h_log(h, alpha, np.maximum(lnx - np.log(ell_x), 0.0))

    rem, _ = panel_quad(integrand)
    return float(np.sum(terms)) + k * (cut + 0.5) ** (1.0 - alpha) * float(rem[0])


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
    if eps.shape != (n_out + M - 1,):
        raise ValueError(f"need len(eps) == n_out + M - 1 = {n_out + M - 1}")
    a = coefficient(ell, np.arange(1, M + 1, dtype=float))
    # direct (FFT-free) convolution: X_n = sum_{i=1..M} a_i eps_{n-i}
    return np.convolve(eps, a, mode="valid")


def simulate_path(process: ProcessSpec, N: int, T: float, seed) -> np.ndarray:
    """One path X_1..X_[NT]; innovations are drawn once, deterministically."""
    n_out = floor_index(N, T)
    if n_out < 1:
        raise ValueError("need [N*T] >= 1")
    M = int(process.truncation)
    if n_out + M > MEMORY_BUDGET_ELEMENTS:
        raise ValueError("requested path exceeds the memory budget")
    eps = sample_innovations(process.innovation, n_out + M - 1, seed)
    return path_from_innovations(process.ell, M, eps, n_out)


def prefix_weights(S: np.ndarray, j, upper, *, cap: int | None = None) -> np.ndarray:
    """Weight kernel: for each row j of the integer array j (any shape) and
    each column c (a new last axis), the weight of eps_j in
    sum_{n = 1}^{upper_c} X_n under lag cap `cap`,

        sum_{k = lo+1}^{hi} a_k = S[hi] - S[lo],
        lo = max(-j, 0),  hi = min(max(upper_c - j, 0), cap),

    and exactly zero where hi <= lo (S[hi] - S[hi]), on both sides of
    j = 0.  S is the coefficient prefix-sum array and must reach index
    max_c upper_c - min j (or cap)."""
    j = np.asarray(j)[..., None]
    lo = np.maximum(-j, 0)
    hi = np.clip(np.asarray(upper) - j, 0, cap)
    return S.take(hi) - S.take(np.minimum(lo, hi))


def window_weights(ell: SlowlyVaryingSpec, N: int, times, M: int) -> np.ndarray:
    """Total weight of eps_j in S(t_i) under lag truncation M, for
    j = 1-M .. [N t_m]-1: column stack over i of
    sum_{n = max(1, j+1)}^{min([N t_i], j+M)} a_{n-j}, from prefix sums."""
    M = int(M)
    B = [floor_index(N, t) for t in times]
    return prefix_weights(coefficient_prefix_sums(ell, M), np.arange(1 - M, B[-1]), B, cap=M)


def process_normalizer(process: ProcessSpec, N: int) -> float:
    """A_N for the process, at the alpha of its innovation law, with
    sum_{i<=N} a_i from coefficient_sum (no N-length array).  Exact-stable
    innovations scale exactly, so their implicit slowly varying factor is
    identically 1; heavy-tailed families go through the H_alpha fixed point
    with their stored h."""
    alpha, _, _, h = tail_constants(process.innovation)
    if isinstance(process.innovation, ExactStable):
        return float(N) ** (1.0 / alpha) * coefficient_sum(process.ell, int(N))
    return normalizer(process.ell, h, alpha, N)


def normalized_fdd_sample(process: ProcessSpec, N: int, fdd: FddSpec, reps: int,
                          seed, *, threads: int = 1) -> np.ndarray:
    """reps x m matrix of A_N^{-1} S(t_i) over independent replicates.

    Replicate r draws its innovations from the counter-derived seed
    (seed, r), so results are independent of execution order and any degree
    of parallelism.  Each row equals the partial sums of simulate_path on the
    same seed (asserted in tests); the weighted-sum form avoids rebuilding
    the whole path per replicate.  reps x m beyond MEMORY_BUDGET_ELEMENTS is
    refused before anything is drawn.
    """
    reps = int(reps)
    if reps < 1:
        raise ValueError("need reps >= 1")
    if reps * fdd.m > MEMORY_BUDGET_ELEMENTS:
        raise ValueError(f"{reps} x {fdd.m} replicate samples exceed the memory "
                         f"budget of {MEMORY_BUDGET_ELEMENTS} elements")
    M = int(process.truncation)
    B_m = floor_index(N, fdd.times[-1])
    K = B_m + M - 1
    if K + 1 > MEMORY_BUDGET_ELEMENTS:
        raise ValueError("replicate innovation buffer exceeds the memory budget")
    W = window_weights(process.ell, N, fdd.times, M)
    A = process_normalizer(process, N)
    out = np.empty((reps, fdd.m))
    step = -(-reps // max(threads, 1))

    def fill(r0):
        for r in range(r0, min(r0 + step, reps)):
            eps = sample_innovations(process.innovation, K, [seed, r])
            out[r] = eps @ W / A

    thread_map(fill, range(0, reps, step), threads)
    return out


def thread_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], in order, on up to `threads` worker threads.

    With threads <= 1 (or a single item) everything runs inline in the
    calling thread, with no pool.  Results never depend on the thread count
    as long as fn(x) depends on x alone."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))
