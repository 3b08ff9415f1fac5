"""Slowly varying functions, harmonic-type coefficients and the normalizer.

The moving-average coefficients have the form a_i = ell(i)/i with ell slowly
varying at infinity.  Two symbolic families are supported:

    constant:   f(x) = c
    log_power:  f(x) = c * ln(e + x)**p

ln(e + x) rather than ln(x) keeps evaluation total on [0, inf) (a_1 must be
finite); the asymptotics are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stable_law import panel_quad

__all__ = [
    "SlowlyVaryingSpec",
    "constant",
    "log_power",
    "eval_sv",
    "coefficient",
    "coefficient_prefix_sums",
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


def coefficient_prefix_sums(ell: SlowlyVaryingSpec, K: int) -> np.ndarray:
    """Cumulative sums S_k = sum_{i<=k} a_i for k = 0..K (S_0 = 0).

    Single vectorized pass; K = 1e7 runs in well under a second.
    """
    K = int(K)
    if K < 1:
        raise ValueError("need K >= 1")
    a = coefficient(ell, np.arange(1, K + 1, dtype=float))
    out = np.empty(K + 1)
    out[0] = 0.0
    np.cumsum(a, out=out[1:])
    return out


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
    s_n = coefficient_prefix_sums(ell, N)[-1]
    ha = h_alpha(h, alpha, N)
    return N ** (1.0 / alpha) * ha ** (1.0 / alpha) * s_n


def _check_alpha(alpha: float) -> None:
    if not (1.0 < alpha <= 2.0):
        raise ValueError("need alpha in (1, 2]")


def _check_alpha_n(alpha: float, N: float) -> None:
    _check_alpha(alpha)
    if not (1.0 <= N < math.inf):
        raise ValueError("need a finite N >= 1")
