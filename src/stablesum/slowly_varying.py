"""Slowly varying functions, harmonic-type coefficients and the normalizer.

The moving-average coefficients have the form a_i = ell(i)/i with ell slowly
varying at infinity.  Two symbolic families are supported:

    constant:   f(x) = c
    log_power:  f(x) = c * ln(e + x)**p

ln(e + x) rather than ln(x) keeps evaluation total on [0, inf) (a_1 must be
finite); the asymptotics are unchanged.

coefficient_sum gives S(y) = sum_{i<=y} a_i at any y >= 0 without an
array of y terms: the partial sums up to _SUM_ANCHOR, and beyond it the
smooth continuation of _scaled_spans, which the CF oracle's closures
integrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stable_law import _G40, panel_quad

__all__ = [
    "SlowlyVaryingSpec",
    "constant",
    "log_power",
    "eval_sv",
    "coefficient",
    "coefficient_prefix_sums",
    "coefficient_sum",
    "big_h",
    "h_alpha",
    "h_alpha_info",
    "solve_h_alpha",
    "HAlphaResult",
    "HAlphaConvergenceError",
    "normalizer",
]

_KINDS = ("constant", "log_power")


@dataclass(frozen=True)
class SlowlyVaryingSpec:
    """Symbolic slowly varying function, strictly positive on [0, inf)."""

    kind: str
    c: float
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, expected one of {_KINDS}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError("need c > 0")
        if self.kind == "constant" and self.p != 0.0:
            raise ValueError("constant spec takes no exponent")
        if not math.isfinite(self.p):
            raise ValueError("need finite p")


def constant(c: float = 1.0) -> SlowlyVaryingSpec:
    return SlowlyVaryingSpec("constant", c)


def log_power(c: float, p: float) -> SlowlyVaryingSpec:
    return SlowlyVaryingSpec("log_power", c, p)


def eval_sv(spec: SlowlyVaryingSpec, x):
    """Evaluate the spec at x >= 0 (scalar or array); always positive."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("need x >= 0")
    if spec.kind == "constant":
        out = np.full(arr.shape, spec.c)
    else:
        out = spec.c * np.log(np.e + arr) ** spec.p
    return float(out) if arr.ndim == 0 else out


def coefficient(ell: SlowlyVaryingSpec, i):
    """Coefficient a_i = ell(i)/i for i >= 1 (scalar or array)."""
    arr = np.asarray(i, dtype=float)
    if np.any(arr < 1.0):
        raise ValueError("need i >= 1")
    out = eval_sv(ell, arr) / arr
    return float(out) if arr.ndim == 0 else out


def coefficient_prefix_sums(ell: SlowlyVaryingSpec, K: int, *, start: int = 0) -> np.ndarray:
    """Cumulative sums sum_{start < i <= k} a_i for k = start..K (the first
    is 0), in one vectorized pass; start = 0 gives S_k = sum_{i<=k} a_i."""
    K, start = int(K), int(start)
    if not 0 <= start < K:
        raise ValueError("need 0 <= start < K")
    a = coefficient(ell, np.arange(start + 1, K + 1, dtype=float))
    out = np.empty(K - start + 1)
    out[0] = 0.0
    np.cumsum(a, out=out[1:])
    return out


# S(y) is summed term by term up to y = _SUM_ANCHOR and continued beyond it
# from S[_SUM_ANCHOR]; from there on, the first term the Euler-Maclaurin
# form omits, a'''(y)/720, is below 1e-14 of S
_SUM_ANCHOR = 1000


def coefficient_sum(ell: SlowlyVaryingSpec, y):
    """S(y) = sum_{i <= y} a_i (scalar or array): term by term at integers
    0 <= y <= K = _SUM_ANCHOR, and beyond K the continuation
    S[K] + (S(y) - S(K)) of _scaled_spans, smooth in real y.  For constant
    ell it is c (digamma(y+1) + gamma), exact at integers; for log-power
    ell it matches the partial sums at integers to about 1e-15 relative."""
    arr = np.asarray(y, dtype=float)
    K = _SUM_ANCHOR
    far = arr > K
    S = coefficient_prefix_sums(ell, K if far.any() else max(int(arr.max(initial=0.0)), 1))
    out = np.array(S.take(np.where(far, 0.0, arr).astype(int)))
    if far.any():
        out[far] = S[K] + _scaled_spans(ell, math.log(K), arr[far] - K) / K
    return float(out) if arr.ndim == 0 else out


def _scaled_spans(ell: SlowlyVaryingSpec, lnx, B) -> np.ndarray:
    """x * (S(x+b) - S(x)) at x = exp(lnx) (any shape) for each b in B (new
    last axis), with S continued smoothly to real x:

    constant ell:  c * (digamma(x+b+1) - digamma(x+1)), exact at integers;
    log-power ell: the Euler-Maclaurin form  int_x^{x+b} ell(s)/s ds
                   + [a(x+b) - a(x)]/2 + [a'(x+b) - a'(x)]/12,  a(s) = ell(s)/s,
                   whose residual is about [a'''(x+b) - a'''(x)]/720, below
                   1e-14 of S(x) for x >= _SUM_ANCHOR.

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
    w1 = 1/(x+1), w2 = 1/(x+b+1) so that no term cancels.  Its first
    omitted term is below 1e-17 relative for x >= 100; every caller has
    x >= _SUM_ANCHOR."""
    w1 = r / (1.0 + r)
    w2 = r / (1.0 + (b + 1.0) * r)
    s1, s2 = w1 * w1, w2 * w2
    q = b * w1 * (w2 / r)  # -(w2 - w1) / r
    return np.log1p(b * w1) / r + q * (
        0.5 + (w1 + w2) * (1.0 / 12.0 - (s1 + s2) / 120.0
                           + (s1 * s1 + s1 * s2 + s2 * s2) / 252.0))


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
    return integral + 0.5 * xa + xap / 12.0

def eval_sv_log(spec: SlowlyVaryingSpec, lnx):
    """The spec at x = exp(lnx) for an array lnx, with ln(e + x) taken as
    logaddexp(1, lnx), so that x itself never overflows."""
    lnx = np.asarray(lnx, dtype=float)
    if spec.kind == "constant":
        return np.full(lnx.shape, spec.c)
    return spec.c * np.logaddexp(1.0, lnx) ** spec.p


def _big_h_integral(h_log, lnt):
    """h(1) - h(t) + 2 int_0^{ln t} h(e^y) dy at every ln t >= 0 of an array,
    with h_log(y) = h(e^y) vectorized.

    The integral is a cumulative sum over the unit cells [j, j+1] below
    ln t plus the cell [floor(ln t), ln t], all in one panel_quad call, so
    each value depends on its own t alone and not on the rest of the array.
    h(e^y) is analytic within pi of the real axis for both families, so
    G_20 already settles a unit cell."""
    lnt = np.asarray(lnt, dtype=float)
    y = lnt.ravel()
    k = np.floor(y)
    n_cells = int(k.max(initial=0.0))
    j = np.arange(n_cells + y.size)
    pts = np.concatenate([j[:n_cells], k, j[:n_cells] + 1.0, y])
    integral, _ = panel_quad(lambda t, _: h_log(t), pts=pts, owner=np.concatenate([j, j]))
    cells = np.concatenate([[0.0], np.cumsum(integral[:n_cells])])
    out = h_log(np.zeros(1)) - h_log(y) + 2.0 * (cells[k.astype(int)] + integral[n_cells:])
    return out.reshape(lnt.shape)


def big_h_log(h: SlowlyVaryingSpec, alpha: float, lnt):
    """H(e^lnt) for an array lnt >= 0, from lnt itself (see big_h)."""
    if alpha < 2.0:
        return eval_sv_log(h, lnt)
    if h.kind == "constant":
        return 2.0 * (h.c * np.asarray(lnt, dtype=float))  # 2.0 * h.c would overflow unflagged
    return _big_h_integral(lambda y: eval_sv_log(h, y), lnt)


def big_h(h: SlowlyVaryingSpec, alpha: float, t):
    """H(t) at t >= 1 (scalar or array): h(t) itself for alpha in (1,2); the
    Stieltjes transform of h for alpha = 2 (lower integration limit 1; only
    behavior at infinity matters), whole arrays in one pass.
    """
    _check_alpha(alpha)
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 1.0):
        raise ValueError("need t >= 1")
    out = eval_sv(h, arr) if alpha < 2.0 else big_h_log(h, alpha, np.log(arr))
    return float(out) if arr.ndim == 0 else out


class HAlphaConvergenceError(RuntimeError):
    """Fixed-point solver failed; carries the last iterate and residual."""

    def __init__(self, message, last_iterate, residual):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


@dataclass(frozen=True)
class HAlphaResult:
    value: float
    residual: float
    iterations: int


# relative step that ends the fixed-point iteration; iteration and bisection cap
_H_REL_TOL = 1e-12
_H_MAX_ITER = 200


def solve_h_alpha(big_h_fn, alpha: float, N: float) -> HAlphaResult:
    """Fixed point x* of x -> H(N^{1/alpha} x^{1/alpha}) for a scalar callable H.

    Plain iteration from x0 = H(N^{1/alpha}); the map's derivative vanishes for
    slowly varying H so no damping is needed.  Falls back to bisection on
    x - H(...) if the iteration leaves the domain or fails to settle.
    """
    _check_alpha_n(alpha, N)
    root = N ** (1.0 / alpha)

    def step(x):
        t = root * x ** (1.0 / alpha)
        if t < 1.0:
            raise ValueError("iterate left the domain t >= 1")
        return big_h_fn(t)

    x = big_h_fn(root)
    ok = math.isfinite(x) and x > 0.0
    if ok:
        for it in range(1, _H_MAX_ITER + 1):
            try:
                x_new = step(x)
            except ValueError:
                break
            if not (math.isfinite(x_new) and x_new > 0.0):
                break
            if abs(x_new - x) <= _H_REL_TOL * abs(x_new):
                resid = abs(step(x_new) - x_new) / x_new
                return HAlphaResult(x_new, resid, it)
            x = x_new

    return _bisect_h_alpha(step, x if ok else 1.0, alpha)


def _bisect_h_alpha(step, x_guess, alpha):
    def g(x):
        try:
            return x - step(x)
        except ValueError:
            return None

    grid = x_guess * np.logspace(-9, 9, 145)
    vals = [(x, g(x)) for x in grid]
    vals = [(x, v) for x, v in vals if v is not None and math.isfinite(v)]
    bracket = None
    for (x0, g0), (x1, g1) in zip(vals, vals[1:]):
        if g0 == 0.0:
            return HAlphaResult(x0, 0.0, 0)
        if g0 * g1 < 0.0:
            bracket = (x0, x1)
            # prefer the largest root: keep scanning
    if bracket is None:
        resid = abs(g(x_guess)) / x_guess if g(x_guess) is not None else math.inf
        raise HAlphaConvergenceError(
            "no fixed point of x -> H(N^{1/alpha} x^{1/alpha}) found "
            f"(alpha={alpha}); last iterate {x_guess:.6g}, residual {resid:.3g}",
            x_guess, resid)
    lo, hi = bracket
    for it in range(_H_MAX_ITER):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm is None or gm == 0.0:
            break
        if g(lo) * gm < 0.0:
            hi = mid
        else:
            lo = mid
    x = 0.5 * (lo + hi)
    resid = abs(step(x) - x) / x
    return HAlphaResult(x, resid, _H_MAX_ITER)


def h_alpha(h: SlowlyVaryingSpec, alpha: float, N: float) -> float:
    """The implicitly defined slowly varying factor H_alpha(N).

    Concrete finite-N representative: the fixed point of
    x -> H(N^{1/alpha} x^{1/alpha}).  Asymptotic equivalence only defines
    H_alpha up to a slowly varying perturbation; the fixed point is a
    reproducible choice, not a canonical one.
    """
    return h_alpha_info(h, alpha, N).value


def h_alpha_info(h: SlowlyVaryingSpec, alpha: float, N: float) -> HAlphaResult:
    """As h_alpha, also reporting the residual and iteration count; a ValueError
    for alpha outside (1, 2], an N that is not a finite number >= 1, or an h
    whose H overflows a double on the way to the fixed point."""
    _check_alpha_n(alpha, N)
    if h.kind == "constant" and alpha < 2.0:
        return HAlphaResult(h.c, 0.0, 0)  # constant map: fixed point is h itself
    try:
        with np.errstate(over="raise"):
            return solve_h_alpha(lambda t: big_h(h, alpha, t), alpha, N)
    except FloatingPointError as exc:
        raise ValueError("H overflows a double before its fixed point is reached "
                         f"({exc})") from exc


def normalizer(ell: SlowlyVaryingSpec, h: SlowlyVaryingSpec, alpha: float, N: int) -> float:
    """A_N = N^{1/alpha} * H_alpha(N)^{1/alpha} * sum_{i<=N} ell(i)/i."""
    _check_alpha(alpha)
    N = int(N)
    if N < 1:
        raise ValueError("need N >= 1")
    s_n = coefficient_sum(ell, N)
    ha = h_alpha(h, alpha, N)
    return N ** (1.0 / alpha) * ha ** (1.0 / alpha) * s_n


def _check_alpha(alpha: float) -> None:
    if not (1.0 < alpha <= 2.0):
        raise ValueError("need alpha in (1, 2]")


def _check_alpha_n(alpha: float, N: float) -> None:
    _check_alpha(alpha)
    if not (1.0 <= N < math.inf):
        raise ValueError("need a finite N >= 1")
