"""Slowly varying functions, harmonic-type coefficients and H_alpha.

The moving-average coefficients have the form a_i = ell(i)/i with ell slowly
varying at infinity.  Two symbolic families are supported:

    constant:   f(x) = c
    log_power:  f(x) = c * ln(e + x)**p

ln(e + x) rather than ln(x) keeps evaluation total on [0, inf) (a_1 must be
finite); the asymptotics are unchanged.

The partial sums S[0..K] from 0 are built in one place, held_prefix_sums:
one read-only array held on the ell spec, extended as a reader needs more,
and read by coefficient_sum, the CF oracle and the Monte-Carlo window
alike.
coefficient_sum gives S(y) = sum_{i<=y} a_i at any y >= 0 without an
array of y terms: the held sums up to _SUM_ANCHOR, and beyond it the
smooth continuation of _scaled_spans, which the CF oracle's closures
integrate.  H is read from ln t alone (big_h_log).  H_alpha(N)
(h_alpha_info) is the largest root of ln N + ln H(e^s) - alpha s in
s = ln t, found by newton_root, the package's one safeguarded Newton
iteration, which also solves the Pareto threshold and tail inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stable_law import _G40, _check_alpha, panel_quad

__all__ = [
    "SlowlyVaryingSpec",
    "constant",
    "log_power",
    "eval_sv",
    "coefficient",
    "coefficient_prefix_sums",
    "coefficient_sum",
    "held_prefix_sums",
    "held_growth",
    "h_alpha_info",
    "HAlphaResult",
    "HAlphaConvergenceError",
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
    """Coefficient a_i = ell(i)/i for i >= 1 (scalar or array); a
    ValueError names the first i whose a_i overflows a double."""
    arr = np.asarray(i, dtype=float)
    if np.any(arr < 1.0):
        raise ValueError("need i >= 1")
    with np.errstate(over="ignore"):  # raised below instead
        out = eval_sv(ell, arr) / arr
    if not np.isfinite(np.max(out, initial=0.0)):
        raise ValueError(f"non-finite coefficient a_i = ell(i)/i at i = "
                         f"{np.min(arr[~np.isfinite(out)]):.0f}")
    return float(out) if arr.ndim == 0 else out


def coefficient_prefix_sums(ell: SlowlyVaryingSpec, K: int, *, start: int = 0,
                            out=None) -> np.ndarray:
    """Cumulative sums sum_{start < i <= k} a_i for k = start..K (the first
    is 0), in one vectorized pass; start = 0 gives S_k = sum_{i<=k} a_i.

    With out, K - start + 1 doubles whose first holds a sum s, the running
    sum continues from s instead: out[k - start] = s + a_{start+1} + ... +
    a_k, added in index order, so from s = S_start it gives S_start..S_K
    bit for bit as the sums from 0 do.  The K - start sums past s, out[1:],
    are returned."""
    K, start = int(K), int(start)
    if not 0 <= start < K:
        raise ValueError("need 0 <= start < K")
    a = coefficient(ell, np.arange(start + 1, K + 1, dtype=float))
    if out is not None:
        a[0] += out[0]
        return np.cumsum(a, out=out[1:])
    out = np.empty(K - start + 1)
    out[0] = 0.0
    np.cumsum(a, out=out[1:])
    return out


# S(y) is summed term by term up to y = _SUM_ANCHOR and continued beyond it
# from S[_SUM_ANCHOR]; from there on, the first term the Euler-Maclaurin
# form omits, a'''(y)/720, is below 1e-14 of S
_SUM_ANCHOR = 1000
# the key under which a spec's __dict__ holds its partial sums from 0; the
# spec is frozen, and they are not one of its fields
_HELD = "_held_prefix_sums"


def held_prefix_sums(ell: SlowlyVaryingSpec, K: int = _SUM_ANCHOR) -> np.ndarray:
    """The partial sums S[0..K'] from 0, K' >= max(K, _SUM_ANCHOR), held
    read-only on ell: the package's one build of them, read by
    coefficient_sum's anchor and by every PrefixSums.  Sums that end before
    K are first extended to K: the running sum continues from the last held
    one (coefficient_prefix_sums with out) into a new array that takes the
    held sums, so every value is bit for bit that of a cumsum from 0.  They
    live as long as ell, and parse_config builds one per run, so no run
    reads the sums of another; held_growth counts an extension for the
    callers' memory guards."""
    K = max(int(K), _SUM_ANCHOR)
    held = vars(ell).get(_HELD)
    if held is not None and K < held.size:
        return held
    if held is None:
        S = coefficient_prefix_sums(ell, K)
    else:
        S = np.empty(K + 1)
        S[:held.size] = held
        coefficient_prefix_sums(ell, K, start=held.size - 1, out=S[held.size - 1:])
    S.flags.writeable = False
    vars(ell)[_HELD] = S
    return S


def held_growth(ell: SlowlyVaryingSpec, K: int):
    """(peak, size): the doubles that held_prefix_sums(ell, K) holds at its
    peak, and the size of ell's sums after it.  The peak is 0 when they
    reach K already; built from none, three arrays of their length; else
    the held sums, the new array and three arrays of the extension."""
    n0 = len(vars(ell).get(_HELD, ()))
    size = max(n0, int(K) + 1, _SUM_ANCHOR + 1)
    if size == n0:
        return 0, size
    return (n0 + size + 3 * (size - n0) if n0 else 3 * size), size


def coefficient_sum(ell: SlowlyVaryingSpec, y):
    """S(y) = sum_{i <= y} a_i (scalar or array): term by term at integers
    0 <= y <= K = _SUM_ANCHOR, read from the sums held on ell
    (held_prefix_sums), and beyond K the continuation S[K] + (S(y) - S(K))
    of _scaled_spans, smooth in real y.  For constant ell it is
    c (digamma(y+1) + gamma), exact at integers; for log-power ell it
    matches the partial sums at integers to about 1e-15 relative."""
    arr = np.asarray(y, dtype=float)
    K = _SUM_ANCHOR
    far, S = arr > K, held_prefix_sums(ell)
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


def log_sv_slope(spec: SlowlyVaryingSpec, y):
    """ln(f(e^y) / c) = p ln ln(e + e^y) and its slope in y, for an array y.
    From y alone, ln(e + x) = y + ln(1 + e^(1-y)), so no power of x
    overflows; below y = -36 it is 1 in doubles, and y is held there."""
    y = np.maximum(y, -36.0)
    t = np.exp(1.0 - y)
    ln_e_plus = y + np.log1p(t)
    return spec.p * np.log(ln_e_plus), spec.p / ((1.0 + t) * ln_e_plus)


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
    """H(t) at t = e^lnt for an array lnt >= 0, from lnt itself: h(t) for
    alpha in (1,2); the Stieltjes transform of h for alpha = 2 (lower
    integration limit 1; only behavior at infinity matters), whole arrays in
    one pass."""
    if alpha < 2.0:
        return eval_sv_log(h, lnt)
    if h.kind == "constant":
        return 2.0 * (h.c * np.asarray(lnt, dtype=float))  # 2.0 * h.c would overflow unflagged
    return _big_h_integral(lambda y: eval_sv_log(h, y), lnt)


class HAlphaConvergenceError(RuntimeError):
    """Fixed-point solver failed; carries the last iterate and residual."""

    def __init__(self, message, last_iterate, residual):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


@dataclass(frozen=True)
class HAlphaResult:
    """The fixed point, its relative residual and the evaluations of F it took."""

    value: float
    residual: float
    iterations: int


# safeguarded Newton: stop once every step is below
# _NEWTON_RTOL * max(|w|, 1); from step _NEWTON_BISECT_FROM on, bisect
# wherever the bracket is finite; raise after _NEWTON_MAX_ITER steps
_NEWTON_RTOL = 1e-13
_NEWTON_BISECT_FROM = 30
_NEWTON_MAX_ITER = 100


def newton_root(fn, z, w, lo, hi=np.inf):
    """Safeguarded Newton iteration for the root in [lo, hi] of the
    decreasing f(w) = z + fn(w)[0], fn(w) returning the function and its
    slope, from the start w, per element of z.  Each element keeps a
    bracket [lo, hi] around its root, a step that leaves it is replaced by
    a bisection, and it stops at the first step below
    _NEWTON_RTOL * max(|w|, 1), keeping that iterate, so its root depends
    on its own z alone; a RuntimeError after _NEWTON_MAX_ITER steps.
    Newton steps may stay inside the bracket and still creep, alternating
    between its ends (for f = z - a w - b atan(w - s) with a small against
    b), so from step _NEWTON_BISECT_FROM on an element with a finite
    bracket bisects; the package's own roots settle within 11 steps on
    every input the tests give.

    The first step forms no bracket: where every slope is negative, each
    step goes uphill of w where f > 0 and downhill where f < 0, inside the
    bracket the loop would form, so a first step that lies in [lo, hi] and
    settles for every element is returned as it is; otherwise the loop goes
    on from that same first evaluation.  Either way the iterates are the
    loop's."""
    moving = True
    for i in range(_NEWTON_MAX_ITER):
        f, df = fn(w)
        f = f + z
        step = w - f / df
        if i == 0 and _first_step_settles(w, step, df, lo, hi):
            return step
        lo = np.where(f > 0.0, w, lo)
        hi = np.where(f < 0.0, w, hi)
        newton = (step >= lo) & (step <= hi)
        if i >= _NEWTON_BISECT_FROM:
            newton &= np.isinf(hi - lo)
        step = np.where(newton, step, 0.5 * (lo + hi))
        step = np.where(moving, step, w)
        moving = _moving(w, step)
        w = step
        if not moving.any():
            return w
    raise RuntimeError(f"root did not converge in {_NEWTON_MAX_ITER} Newton steps")


def _moving(w, step):
    return np.abs(step - w) > _NEWTON_RTOL * np.maximum(np.abs(step), 1.0)


def _first_step_settles(w, step, df, lo, hi) -> bool:
    """Whether newton_root's bracketed first step would keep the Newton
    step of every element and stop there (a NaN step fails step >= lo)."""
    return bool(np.all((df < 0.0) & (step >= lo) & (step <= hi))
                and not np.any(_moving(w, step)))


def _log_big_h(h: SlowlyVaryingSpec, alpha: float, s):
    """ln H(e^s) and its slope in s: ln c + log_sv_slope for alpha < 2 (H = h);
    at alpha = 2, H from big_h_log, held at H(1) = 0 below s = 0 (ln H = -inf
    where H <= 0), and dH/ds = 2 h(t) - t h'(t) = h(t) (2 - d ln h / ds)."""
    g, dg = log_sv_slope(h, s)
    if alpha < 2.0:
        return math.log(h.c) + g, dg
    H = big_h_log(h, alpha, np.maximum(s, 0.0))
    return np.log(np.maximum(H, 0.0)), eval_sv_log(h, s) * (2.0 - dg) / H


def _bracket_largest_root(f, s0: float, floor: bool):
    """(lo, hi) with f(lo) > 0 >= f(hi), from a walk with doubling steps
    from s0: to the right while f > 0 or f rises, else to the left from s0
    until f > 0.  With floor (f defined for s > 0 only, and -inf at 0+),
    the left walk halves s rather than cross 0, and where it meets f rising
    while negative it gives (None, hi): there is no root."""
    f0 = f(s0)
    s, f_s, step = s0, f0, 1.0
    while True:
        t, step = s + step, 2.0 * step
        f_t = f(t)
        if f_s > 0.0 >= f_t:
            return s, t
        if not (f_t > 0.0 or f_t > f_s):
            break
        s, f_s = t, f_t
    s, f_s, step = s0, f0, 1.0
    while True:
        t, step = max(s - step, 0.5 * s) if floor else s - step, 2.0 * step
        f_t = f(t)
        if f_t > 0.0:
            return t, s
        if floor and f_t <= f_s:
            return None, s
        s, f_s = t, f_t


# h_alpha_info returns a fixed point only within this relative residual
_H_ALPHA_RESIDUAL_TOL = 1e-12
# at alpha = 2, H is nondecreasing iff t h'/h <= 2; for log-power h that is
# p t/((e+t) ln(e+t)) <= 2, whose left side peaks at 0.3178444328993727 p
_P_MAX_ALPHA2 = 6.292386441241165


def h_alpha_info(h: SlowlyVaryingSpec, alpha: float, N: float) -> HAlphaResult:
    """The implicitly defined slowly varying factor H_alpha(N), with its
    residual and the evaluations of F it took.

    Concrete finite-N representative: the largest fixed point of
    x -> H(N^{1/alpha} x^{1/alpha}).  Asymptotic equivalence only defines
    H_alpha up to a slowly varying perturbation; the fixed point is a
    reproducible choice, not a canonical one.  A ValueError for alpha
    outside (1, 2], an N that is not a finite number >= 1, a log-power h
    steeper than p = _P_MAX_ALPHA2 at alpha = 2 (its H decreases somewhere)
    or an h whose H overflows a double on the way to the fixed point.

    In s = ln t, t = (N x)^{1/alpha}, the fixed point x = H(t) is a root of
    F(s) = ln N + ln H(e^s) - alpha s.  The largest is bracketed from
    s0 = ln N / alpha (at least 1/2 at alpha = 2, where s > 0) and finished
    by newton_root; where there is none, or where the residual of the root
    found exceeds _H_ALPHA_RESIDUAL_TOL, HAlphaConvergenceError."""
    _check_alpha(alpha)
    if not (1.0 <= N < math.inf):
        raise ValueError("need a finite N >= 1")
    if alpha == 2.0 and h.p > _P_MAX_ALPHA2:
        raise ValueError(f"need p <= {_P_MAX_ALPHA2:.7f} at alpha = 2, where "
                         "H(t) = h(1) - h(t) + 2 int_1^t h(x)/x dx must not decrease")
    if h.kind == "constant" and alpha < 2.0:
        return HAlphaResult(h.c, 0.0, 0)  # constant map: fixed point is h itself
    ln_n, evals = math.log(N), 0

    def F(s):
        nonlocal evals
        evals += 1
        log_h, slope = _log_big_h(h, alpha, s)
        return ln_n + log_h - alpha * s, slope - alpha

    def fixed_point(s):  # x = H(e^s) and its residual |H((N x)^{1/alpha}) / x - 1|
        x = float(np.exp(_log_big_h(h, alpha, s)[0]))
        log_h = _log_big_h(h, alpha, (ln_n + math.log(x)) / alpha)[0]
        return x, abs(float(np.expm1(log_h - math.log(x))))

    try:
        with np.errstate(over="raise", divide="ignore"):
            s0 = ln_n / alpha if alpha < 2.0 else max(0.5 * ln_n, 0.5)
            lo, hi = _bracket_largest_root(lambda s: F(s)[0], s0, alpha == 2.0)
            if lo is None:
                x, resid = fixed_point(hi)
                raise HAlphaConvergenceError(
                    "no fixed point of x -> H(N^{1/alpha} x^{1/alpha}) found "
                    f"(alpha={alpha}); last iterate {x:.6g}, residual {resid:.3g}",
                    x, resid)
            x, resid = fixed_point(float(newton_root(F, 0.0, lo, lo, hi)))
    except (FloatingPointError, ValueError) as exc:  # panel_quad: a non-finite integral
        raise ValueError("H overflows a double before its fixed point is reached "
                         f"({exc})") from exc
    if not resid <= _H_ALPHA_RESIDUAL_TOL:
        raise HAlphaConvergenceError(
            f"the fixed point of x -> H(N^{{1/alpha}} x^{{1/alpha}}) (alpha={alpha}) has "
            f"residual {resid:.3g}, above {_H_ALPHA_RESIDUAL_TOL:g}; last iterate {x:.6g}",
            x, resid)
    return HAlphaResult(x, resid, evals)

