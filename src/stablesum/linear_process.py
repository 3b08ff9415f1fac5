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
from scipy.integrate import quad

from .innovations import ExactStable, InnovationSpec, sample_innovations, tail_constants
from .slowly_varying import (
    NormalizerInputs,
    SlowlyVaryingSpec,
    big_h,
    coefficient,
    coefficient_prefix_sums,
    eval_sv,
    normalizer,
)

__all__ = [
    "ProcessSpec",
    "FddSpec",
    "floor_index",
    "truncation_tail",
    "default_truncation_depth",
    "path_from_innovations",
    "simulate_path",
    "partial_sums",
    "prefix_weights",
    "window_weights",
    "process_normalizer",
    "normalized_fdd_sample",
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


def _big_h_vector(h: SlowlyVaryingSpec, alpha: float, t: np.ndarray) -> np.ndarray:
    """Vectorized H over t >= 1; the alpha = 2 log-power branch interpolates
    log-spaced quadrature values (H is smooth and slowly varying)."""
    if alpha < 2.0:
        return eval_sv(h, t)
    if h.kind == "constant":
        return 2.0 * h.c * np.log(t)
    lo, hi = float(np.min(t)), float(np.max(t))
    if lo == hi:
        return np.full(t.shape, big_h(h, alpha, lo))
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), 256))
    vals = np.array([big_h(h, alpha, g) for g in grid])
    return np.interp(np.log(t), np.log(grid), vals)


def truncation_tail(ell: SlowlyVaryingSpec, innovation: InnovationSpec,
                    alpha: float, M: int) -> float:
    """Tail sum_{i>M} |a_i|^alpha H(|a_i|^-1) of the a.s.-convergence series.

    Exact summation over a bounded block, then a midpoint-rule integral for
    the smooth remainder (the H argument is clamped to >= 1; only lags with
    a_i < 1 matter in any tail regime this diagnostic inspects).
    """
    M = int(M)
    if M < 0:
        raise ValueError("need M >= 0")
    h = tail_constants(innovation).h
    cut = M + 1_000_000
    i = np.arange(M + 1, cut + 1, dtype=float)
    a = coefficient(ell, i)
    terms = a**alpha * _big_h_vector(h, alpha, np.maximum(1.0 / a, 1.0))
    keep = terms >= 1e-16
    if not keep.all():
        return float(np.sum(terms[keep]))
    direct = float(np.sum(terms))

    def f(x):
        ax = eval_sv(ell, x) / x
        return ax**alpha * big_h(h, alpha, max(1.0 / ax, 1.0))

    X = cut + 0.5
    rem, _ = quad(lambda s: 0.0 if s < 1e-10 else f(X / s) * X / s**2,
                  0.0, 1.0, epsabs=1e-14, epsrel=1e-10, limit=300)
    return direct + rem


def default_truncation_depth(ell: SlowlyVaryingSpec, innovation: InnovationSpec,
                             alpha: float, *, budget_ratio: float = 1e-3,
                             floor: int = 10_000, cap: int = 10**8) -> int:
    """Smallest power-of-two multiple of the floor whose truncation tail is
    below budget_ratio times the full series."""
    full = truncation_tail(ell, innovation, alpha, 0)
    M = floor
    while M < cap and truncation_tail(ell, innovation, alpha, M) >= budget_ratio * full:
        M *= 2
    return M


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


def partial_sums(path: np.ndarray, N: int, times) -> np.ndarray:
    """S(t_i) = sum_{n<=[N t_i]} X_n; an empty index range sums to zero."""
    path = np.asarray(path, dtype=float)
    idx = [floor_index(N, t) for t in times]
    if idx and max(idx) > len(path):
        raise ValueError("time grid reaches beyond the simulated path")
    cs = np.concatenate([[0.0], np.cumsum(path)])
    return cs[np.asarray(idx, dtype=int)]


def prefix_weights(S: np.ndarray, j0: int, j1: int, upper, *, lower=0,
                   cap: int | None = None) -> np.ndarray:
    """Weight kernel: for j = j0 .. j1-1 (rows) and each column c, the weight
    of eps_j in sum_{n = lower_c+1}^{upper_c} X_n under lag cap `cap`,

        sum_{k = lo+1}^{hi} a_k = S[hi] - S[lo],
        lo = max(lower_c - j, 0),  hi = min(max(upper_c - j, 0), cap),

    and exactly zero where hi <= lo (S[hi] - S[hi]).  S is the coefficient
    prefix-sum array and must reach index max_c upper_c - j0 (or cap)."""
    j = np.arange(j0, j1)[:, None]
    lo = np.maximum(np.asarray(lower) - j, 0)
    hi = np.clip(np.asarray(upper) - j, 0, cap)
    return S.take(hi) - S.take(np.minimum(lo, hi))


def window_weights(ell: SlowlyVaryingSpec, N: int, times, M: int) -> np.ndarray:
    """Total weight of eps_j in S(t_i) under lag truncation M, for
    j = 1-M .. [N t_m]-1: column stack over i of
    sum_{n = max(1, j+1)}^{min([N t_i], j+M)} a_{n-j}, from prefix sums."""
    M = int(M)
    B = [floor_index(N, t) for t in times]
    return prefix_weights(coefficient_prefix_sums(ell, M), 1 - M, B[-1], B, cap=M)


def process_normalizer(process: ProcessSpec, alpha: float, N: int) -> float:
    """A_N for the process.  Exact-stable innovations scale exactly, so their
    implicit slowly varying factor is identically 1; heavy-tailed families go
    through the H_alpha fixed point with their stored h."""
    if isinstance(process.innovation, ExactStable):
        s_n = coefficient_prefix_sums(process.ell, int(N))[-1]
        return float(N) ** (1.0 / alpha) * s_n
    tc = tail_constants(process.innovation)
    return normalizer(NormalizerInputs(process.ell, tc.h, alpha, int(N)))


def normalized_fdd_sample(process: ProcessSpec, N: int, fdd: FddSpec, reps: int,
                          seed, *, threads: int = 1) -> np.ndarray:
    """reps x m matrix of A_N^{-1} S(t_i) over independent replicates.

    Replicate r draws its innovations from the counter-derived seed
    (seed, r), so results are independent of execution order and any degree
    of parallelism.  Each row equals simulate_path + partial_sums on the same
    seed (asserted in tests); the weighted-sum form avoids rebuilding the
    whole path per replicate.
    """
    reps = int(reps)
    if reps < 1:
        raise ValueError("need reps >= 1")
    M = int(process.truncation)
    B_m = floor_index(N, fdd.times[-1])
    K = B_m + M - 1
    if K + 1 > MEMORY_BUDGET_ELEMENTS:
        raise ValueError("replicate innovation buffer exceeds the memory budget")
    W = window_weights(process.ell, N, fdd.times, M)
    alpha = tail_constants(process.innovation).alpha
    A = process_normalizer(process, alpha, N)
    out = np.empty((reps, fdd.m))

    def fill(r0, r1):
        for r in range(r0, r1):
            eps = sample_innovations(process.innovation, K, [seed, r])
            out[r] = eps @ W / A

    if threads <= 1:
        fill(0, reps)
    else:
        step = -(-reps // threads)
        bounds = [(r, min(r + step, reps)) for r in range(0, reps, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: fill(*b), bounds))
    return out
