"""The alpha-stable law in two parametrizations.

SkewedStableParams carries the characteristic-function constants (alpha,
sigma, D) with log CF  -t*sigma*|u|^alpha*(1 - i*D*sgn u); StandardStable is
the sampling-side S1 parametrization (alpha, beta, scale) with CF
exp(-scale^alpha*|u|^alpha*(1 - i*beta*tan(pi*alpha/2)*sgn u)) for alpha < 2
and exp(-scale^2 u^2) for alpha = 2 (a Gaussian with variance 2*scale^2).

The two are in exact bijection: sigma = scale^alpha, D = beta*tan(pi*alpha/2).

sample uses Chambers-Mallows-Stuck with a kernel built on two tangents:
sin and cos of U and of theta = alpha*(U + B) are rational in tan(U/2) and
tan(theta/2), cos(U - theta) follows from the angle-difference identity, and
the two powers become one exp of two logs.  On the same uniform and
exponential draws it agrees with plain CMS (libm sin/cos, two powers) to a
median relative 1.5e-16 to 1.3e-15 and at most 2.7e-11 over 1e6 draws at
each of eleven (alpha, beta) pairs with beta = +-1 and alpha near 1 and 2;
the largest gaps sit at U within 1e-5 of +-pi/2, where plain CMS is equally
ill-conditioned.

cdf evaluates a whole array in one pass: Gil-Pelaez on fixed Gauss-Legendre
panels in the body and the stable tail series beyond it (see cdf).

panel_quad is the package's one adaptive quadrature: G_20/G_40 panels on
[0, 1], bisected where they fail, with a geometric ladder at t = 0.  The
oracle's past-tail closure, the truncation-tail remainder, the Pareto tail
first moment and H at alpha = 2 all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SkewedStableParams",
    "StandardStable",
    "stable_tail_constant",
    "from_tail_constants",
    "to_standard",
    "from_standard",
    "log_cf",
    "std_log_cf",
    "sample",
    "cdf",
    "CdfQuadratureError",
]

@dataclass(frozen=True)
class SkewedStableParams:
    """CF constants (alpha, sigma, D); |exp(log_cf)| <= 1 forces sigma > 0."""

    alpha: float
    sigma: float
    D: float

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise ValueError("need alpha in (1, 2]")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError("need sigma > 0")
        if self.alpha == 2.0:
            if self.D != 0.0:
                raise ValueError("need D = 0 at alpha = 2")
        elif abs(self.D) > abs(math.tan(math.pi * self.alpha / 2.0)) * (1 + 1e-12):
            raise ValueError("need |D| <= |tan(pi*alpha/2)|")


@dataclass(frozen=True)
class StandardStable:
    """Sampling parametrization (alpha, beta, scale), location fixed to 0."""

    alpha: float
    beta: float
    scale: float

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise ValueError("need alpha in (1, 2]")
        if not (-1.0 <= self.beta <= 1.0):
            raise ValueError("need beta in [-1, 1]")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("need scale > 0")


def stable_tail_constant(alpha: float) -> float:
    """C_alpha with lim x^alpha P(X > x) = C_alpha*(1+beta)/2*scale^alpha for
    the S1 law; equals 2*Gamma(alpha)*sin(pi*alpha/2)/pi.  Degenerates to 0 at
    alpha = 2 (no power tail)."""
    if not (1.0 < alpha < 2.0):
        raise ValueError("need alpha in (1, 2)")
    return 2.0 * math.gamma(alpha) * math.sin(math.pi * alpha / 2.0) / math.pi


def from_tail_constants(alpha: float, sigma1: float, sigma2: float) -> SkewedStableParams:
    """CF constants of the attractor of a mean-zero law with tail constants
    (sigma1 left, sigma2 right).

    sigma = (s1+s2)*|Gamma(1-alpha)*cos(pi*alpha/2)| and
    D = ((s2-s1)/(s1+s2))*tan(pi*alpha/2): the unique constants for which
    ln E e^{iu*eps} ~ -sigma*|u|^alpha*h(1/|u|)*(1-i*D*sgn u) as u -> 0.
    Pinned against a deterministic quadrature oracle in
    tests/test_stable_law.py (the commonly printed Gamma(|alpha-1|) variant is
    off by Gamma(alpha)/Gamma(2-alpha) and mirrors the skew).
    """
    if sigma1 < 0.0 or sigma2 < 0.0 or sigma1 + sigma2 <= 0.0:
        raise ValueError("need sigma1, sigma2 >= 0 with sigma1 + sigma2 > 0")
    if not (1.0 < alpha <= 2.0):
        raise ValueError("need alpha in (1, 2]")
    if alpha == 2.0:
        return SkewedStableParams(2.0, sigma1 + sigma2, 0.0)
    total = sigma1 + sigma2
    sigma = total * abs(math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0))
    D = (sigma2 - sigma1) / total * math.tan(math.pi * alpha / 2.0)
    return SkewedStableParams(alpha, sigma, D)


def to_standard(params: SkewedStableParams) -> StandardStable:
    """Convert CF constants to the sampling parametrization (exact bijection)."""
    if params.alpha == 2.0:
        return StandardStable(2.0, 0.0, math.sqrt(params.sigma))
    beta = params.D / math.tan(math.pi * params.alpha / 2.0)
    beta = min(1.0, max(-1.0, beta))
    return StandardStable(params.alpha, beta, params.sigma ** (1.0 / params.alpha))


def from_standard(std: StandardStable) -> SkewedStableParams:
    """Inverse of to_standard."""
    if std.alpha == 2.0:
        return SkewedStableParams(2.0, std.scale**2, 0.0)
    D = std.beta * math.tan(math.pi * std.alpha / 2.0)
    return SkewedStableParams(std.alpha, std.scale**std.alpha, D)


def log_cf(params: SkewedStableParams, u, t: float = 1.0):
    """log E e^{iuZ_t} = -t*sigma*|u|^alpha*(1 - i*D*sgn u); real part <= 0."""
    if not (t > 0.0):
        raise ValueError("need t > 0")
    arr = np.asarray(u, dtype=float)
    mag = params.sigma * np.abs(arr) ** params.alpha
    out = t * (-mag + 1j * params.D * mag * np.sign(arr))  # exactly t-linear
    return complex(out) if arr.ndim == 0 else out


def std_log_cf(std: StandardStable, u):
    """log CF of the StandardStable law (t = 1)."""
    return log_cf(from_standard(std), u, 1.0)


def sample(std: StandardStable, n: int, seed) -> np.ndarray:
    """n i.i.d. draws; deterministic given seed.

    Chambers-Mallows-Stuck angle/exponential construction for the S1 law at
    every alpha < 2, so the power tail that the tail constants give just below
    2 is sampled too; alpha = 2 is the exact Gaussian (variance 2*scale^2).
    """
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    return _sample_with(std, n, rng)


# cos of the float nearest pi/2: the smallest cos(U) the uniform grid reaches
_COS_FLOOR = math.cos(math.pi / 2.0)


def _sample_with(std: StandardStable, n: int, rng) -> np.ndarray:
    alpha, beta, scale = std.alpha, std.beta, std.scale
    if alpha == 2.0:
        return rng.normal(0.0, math.sqrt(2.0) * scale, n)
    U = np.pi * (rng.random(n) - 0.5)
    W = np.maximum(rng.standard_exponential(n), np.finfo(float).tiny)
    tb = beta * math.tan(math.pi * alpha / 2.0)
    B = math.atan(tb) / alpha
    log_scale = math.log(scale) + math.log1p(tb * tb) / (2.0 * alpha)
    # half-angle tangents s of U and q of theta = alpha*(U + B): np.tan is
    # several times faster than np.sin/np.cos, and every factor below is a
    # rational function of s and q (in-place steps keep temporaries few)
    s = np.tan(0.5 * U)
    q = np.tan((0.5 * alpha) * (U + B))
    hs = 1.0 / (1.0 + s * s)
    hq = 2.0 / (1.0 + q * q)
    cos_u = (1.0 - s) * (1.0 + s)
    cos_u *= hs
    sin_t = q * hq
    # cos(U - theta) = cos U cos theta + sin U sin theta
    cos_d = hq - 1.0
    cos_d *= cos_u
    s *= hs
    s *= sin_t
    s += s
    cos_d += s
    np.maximum(cos_u, _COS_FLOOR, out=cos_u)
    np.maximum(cos_d, _COS_FLOOR, out=cos_d)
    cos_d /= W
    # x = scale*S*sin(theta)/cos(U)^(1/alpha)*(cos(U - theta)/W)^((1-alpha)/alpha)
    e = np.log(cos_d, out=cos_d)
    e *= (1.0 - alpha) / alpha
    e -= np.log(cos_u, out=cos_u) / alpha
    e += log_scale
    np.exp(e, out=e)
    e *= sin_t
    return e


# log Gamma at the _CDF_SERIES_MAX + 1 scalars of the tail series, and erfc
# for the Gaussian CDF at alpha = 2
_lgamma = np.vectorize(math.lgamma, otypes=[float])
_erfc = np.vectorize(math.erfc, otypes=[float])


class CdfQuadratureError(RuntimeError):
    """CDF inversion failed to reach tolerance; carries the achieved bound."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


_CDF_ABS_TOL = 1e-6
# past v = 25^(1/alpha) the Gil-Pelaez integrand is below e^-25/v
_CDF_V_TAIL = 25.0
# phase change (radians) allowed per Gauss-Legendre panel
_CDF_PANEL_PHASE = 8.0
# log-spaced panels in y = ln v below v0: edges relative to ln v0
_CDF_Y_EDGES = np.array([-30.0, -16.0, -7.0, -3.0, -1.0, 0.0])
_CDF_CHUNK = 1 << 15  # points x nodes per block: two 256 KiB float64 arrays
# refuse node sets beyond this size (about 10 MiB of work arrays); alpha = 1.001
# with |beta| = 1 needs 143976 nodes, and the need grows like 1/(alpha - 1)
_CDF_MAX_NODES = 150_000
# tail series: at most _CDF_SERIES_MAX terms, up to the first below
# _CDF_SERIES_STOP at the cutoff
_CDF_SERIES_MAX = 60
_CDF_SERIES_STOP = 1e-13


def cdf(std: StandardStable, x):
    """Distribution function at a scalar (returns a float) or an array of
    points (returns an array of the same shape), in one batched pass.

    At unit scale the body |x| <= 12 + 2|beta tan(pi alpha/2)| is inverted
    by Gil-Pelaez,
    F(x) = 1/2 - (1/pi) int_0^inf Im(e^{-iux} phi(u))/u du,
    on fixed Gauss-Legendre panels (_gil_pelaez), and the tails beyond come
    from the stable tail series (_tail_series).  The cutoff clears the body,
    which sits near the S1 shift beta tan(pi alpha/2) with unit width, and
    the Gaussian-like body of alpha near 2, which is below e^-36 there.
    The node counts aim at an absolute error of 1e-9; CdfQuadratureError is
    raised when the achieved error exceeds 1e-6, and ValueError when a body
    needs more than _CDF_MAX_NODES nodes (alpha near 1 with beta away from
    0).  alpha = 2 is the exact Gaussian CDF, from math.erfc.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("need finite x")
    if std.alpha == 2.0:
        # Phi(x / (scale sqrt 2)) = erfc(-x / (2 scale)) / 2
        out = 0.5 * _erfc(arr / (-2.0 * std.scale))
    else:
        flat, err = _stable_cdf(std.alpha, std.beta, arr.ravel() / std.scale)
        if err > _CDF_ABS_TOL:
            raise CdfQuadratureError(
                f"cdf quadrature achieved only {err:.3g} (target {_CDF_ABS_TOL})", err)
        out = flat.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def _stable_cdf(alpha: float, beta: float, x: np.ndarray) -> tuple:
    """F at unit scale for alpha < 2, and the achieved absolute error."""
    bt = beta * math.tan(math.pi * alpha / 2.0)
    cut = 12.0 + 2.0 * abs(bt)
    out = np.empty_like(x)
    err = 0.0
    far = np.abs(x) > cut
    if np.any(far):
        out[far], err = _tail_series(alpha, bt, cut, x[far])
    near = ~far
    if np.any(near):
        xn = x[near]
        # band the points by |x| rounded up to a power of two, so that each
        # band's panels resolve only its own oscillation
        band = np.ceil(np.log2(np.maximum(np.abs(xn), 1.0)))
        vals = np.empty_like(xn)
        for b in np.unique(band):
            sel = band == b
            vals[sel], e = _gil_pelaez(alpha, bt, min(2.0**b, cut), xn[sel])
            err = max(err, e)
        out[near] = vals
    return np.clip(out, 0.0, 1.0), err


def _gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1] by
    Newton's method on the Legendre recurrence.  Weights come out within
    2e-14 relative at n = 40 (numpy's leggauss: 7e-13), and no LAPACK call is
    made, whose first use adds about 1 MiB of resident memory."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    dx = np.inf
    for _ in range(10):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)  # P_n'(x)
        if np.max(np.abs(dx)) <= 1e-15:
            break
        dx = p1 / dp
        x = x - dx
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# Gauss-Legendre nodes per CDF panel: the value rule and the check rule
_CDF_RULES = (_gauss_legendre(14), _gauss_legendre(10))

# panel_quad integrates a panel by G_20 and G_40 on one node set: column 0 of
# _PANEL_W weights the G_20 nodes, column 1 the G_40 nodes
_G20, _G40 = _gauss_legendre(20), _gauss_legendre(40)
_PANEL_X = np.concatenate([_G20[0], _G40[0]])
_PANEL_W = np.zeros((60, 2))
_PANEL_W[:20, 0], _PANEL_W[20:, 1] = _G20[1], _G40[1]
# split points, as fractions of its length, of a failing panel that starts at t = 0
_LADDER = 4.0 ** -np.arange(1.0, 7.0)
# rounds of halving after which every pending panel is accepted
_PANEL_MAX_LEVELS = 48


def panel_quad(fn, *, rtol=1e-12, atol=0.0, pts=(0.0, 1.0), owner=(0, 0),
               scale=1.0, judge=None):
    """Integrals of fn over the span of each owner's points (by default one
    owner on [0, 1]) by G_20/G_40 panels, halved until they fit a budget.

    fn(t, owner) gets the nodes t (P x 60) of P panels and the owner of each
    panel, and returns the integrand there: shape (P, 60), or (k, P, 60) for
    k integrands.  A panel's integrals are scale times G_40; its estimate is
    sum_k |G_40 - G_20|, unless judge(g20, g40, half) gives the estimates and
    a mask of panels to accept as they are (g20, g40 are k x P).  An owner's
    budget is atol + rtol |its G_40 total over accepted and pending panels|.
    A panel is accepted when its estimate is within 2 * half times the budget
    (its share of a unit span), when the estimates of its owner, accepted and
    pending, add up to within the budget, when judge accepts it, or after
    _PANEL_MAX_LEVELS rounds.  Every other panel is halved; one that starts
    at t = 0, where a log singularity may sit, becomes a geometric ladder.

    Returns the accepted G_40 totals per owner, shape (n_owner,) or
    (k, n_owner), and the summed estimates per owner."""
    owner = np.asarray(owner)
    n = int(owner.max()) + 1
    a, b, col = _panels(np.asarray(pts, dtype=float), owner)
    value, err = 0.0, np.zeros(n)
    for level in range(_PANEL_MAX_LEVELS + 1):
        half = 0.5 * (b - a)
        vals = fn((0.5 * (a + b))[:, None] + half[:, None] * _PANEL_X, col)
        parts = scale * half[:, None] * (vals @ _PANEL_W)
        g20, g40 = np.atleast_2d(parts[..., 0]), np.atleast_2d(parts[..., 1])
        if judge is None:
            est, ok = np.abs(g40 - g20).sum(axis=0), False
        else:
            est, ok = judge(g20, g40, half)
        budget = atol
        if rtol:
            pending = np.stack([np.bincount(col, g, n) for g in g40])
            budget = atol + rtol * np.abs(value + pending).sum(axis=0)
        budget = np.broadcast_to(budget, (n,))
        settled = err + np.bincount(col, est, n) <= budget
        done = ((est <= 2.0 * half * budget[col]) | ok | settled[col]
                | (level == _PANEL_MAX_LEVELS))
        value = value + np.stack([np.bincount(col[done], g[done], n) for g in g40])
        err += np.bincount(col[done], est[done], n)
        if done.all():
            break
        a, b, col = a[~done], b[~done], col[~done]
        idx, zero = np.arange(a.size), a == 0.0
        inner = np.concatenate([0.5 * (a + b)[~zero], (b[zero, None] * _LADDER).ravel()])
        origin = np.concatenate([idx[~zero], np.repeat(idx[zero], _LADDER.size)])
        a, b, origin = _panels(np.concatenate([a, b, inner]),
                               np.concatenate([idx, idx, origin]))
        col = col[origin]
    return (value if vals.ndim == 3 else value[0]), err


def _panels(pts, owner):
    """Panels (a, b, owner) between consecutive distinct points of each owner."""
    order = np.lexsort((pts, owner))
    pts, owner = pts[order], owner[order]
    keep = (owner[:-1] == owner[1:]) & (pts[:-1] < pts[1:])
    return pts[:-1][keep], pts[1:][keep], owner[:-1][keep]


def _gl_panels(edges: np.ndarray, rule: tuple) -> tuple:
    """Nodes and weights of a Gauss-Legendre rule on each panel."""
    t, w = rule
    a, b = edges[:-1, None], edges[1:, None]
    return ((a + b) / 2.0 + (b - a) / 2.0 * t).ravel(), ((b - a) / 2.0 * w).ravel()


def _gil_pelaez(alpha: float, bt: float, x_max: float, x: np.ndarray) -> tuple:
    """F(x) = 1/2 - (1/pi) int_0^inf exp(-v^a) sin(bt v^a - x v)/v dv for
    |x| <= x_max, all points at once, and the achieved error.

    The phase bt v^a - x v turns at most omega = x_max + a|bt| v_max^(a-1)
    per unit v, so panels span at most _CDF_PANEL_PHASE/omega (and 2) in v,
    up to v_max = _CDF_V_TAIL^(1/a).  Below v0 = min(1, panel width) the
    substitution v = e^y smooths the v^(a-1) cusp at 0, and log-spaced
    panels follow the decay down to v0 e^-30.  The error is the gap between
    the value rule and the coarser check rule of _CDF_RULES on the same
    panels, plus both truncations.
    """
    v_max = _CDF_V_TAIL ** (1.0 / alpha)
    omega = x_max + alpha * abs(bt) * v_max ** (alpha - 1.0)
    width = min(2.0, _CDF_PANEL_PHASE / omega)
    v0 = min(1.0, width)
    n_panels = math.ceil((v_max - v0) / width)
    n_nodes = (len(_CDF_Y_EDGES) - 1 + n_panels) * sum(len(r[0]) for r in _CDF_RULES)
    if n_nodes > _CDF_MAX_NODES:
        raise ValueError(f"cdf quadrature needs {n_nodes} nodes, beyond the budget "
                         f"of {_CDF_MAX_NODES} nodes")
    y_edges = math.log(v0) + _CDF_Y_EDGES
    v_edges = np.linspace(v0, v_max, n_panels + 1)
    nodes, weights = [], []
    for rule in _CDF_RULES:
        y, wy = _gl_panels(y_edges, rule)
        v, wv = _gl_panels(v_edges, rule)
        v = np.concatenate([np.exp(y), v])
        # dv/v = dy on the log panels
        weights.append(np.concatenate([wy, wv / v[len(y):]]) * np.exp(-v**alpha))
        nodes.append(v)
    v = np.concatenate(nodes)
    # sin z = 2t/(1 + t^2) with t = tan(z/2): np.tan is several times faster
    # than np.sin, and t -> inf gives the limit 0.  Column 0 of W holds the
    # value rule, column 1 the check rule.
    W = np.zeros((len(v), 2))
    W[:len(nodes[0]), 0] = 2.0 * weights[0]
    W[len(nodes[0]):, 1] = 2.0 * weights[1]
    half_phase, half_v = 0.5 * bt * v**alpha, -0.5 * v

    vals = np.empty((len(x), 2))
    step = max(1, _CDF_CHUNK // len(v))
    for i in range(0, len(x), step):
        t = np.multiply.outer(x[i:i + step], half_v)
        t += half_phase
        np.tan(t, out=t)
        t2 = t * t
        t2 += 1.0
        t /= t2
        vals[i:i + step] = t @ W
    # |integrand| <= |x| + |bt| below v0 e^-30; exp(-v^a)/v past v_max
    trunc = (x_max + abs(bt)) * v0 * math.exp(-30.0) + math.exp(-_CDF_V_TAIL)
    err = (float(np.max(np.abs(vals[:, 0] - vals[:, 1]))) + trunc) / math.pi
    return 0.5 - vals[:, 0] / math.pi, err




def _tail_series(alpha: float, bt: float, cut: float, x: np.ndarray) -> tuple:
    """F(x) for |x| > cut from the tail expansion of the S1 law, and its error.

    1 - F(x) ~ (1/pi) sum_k (-1)^(k+1) lam^k Gamma(k a)/k!
               * sin(k a (pi/2 + th0)) x^(-k a)   as x -> +inf,

    with lam = sqrt(1 + bt^2) and th0 = atan(bt)/a; F(x) as x -> -inf is the
    same series at |x| with th0 -> -th0.  The terms kept are those up to the
    first whose envelope lam^k Gamma(k a)/(k! pi) cut^(-k a) is below
    _CDF_SERIES_STOP; the error is the envelope of the first term dropped.
    """
    lam, th0 = math.hypot(1.0, bt), math.atan(bt) / alpha
    k = np.arange(1, _CDF_SERIES_MAX + 2)
    log_env = k * math.log(lam) + _lgamma(k * alpha) - _lgamma(k + 1.0) - math.log(math.pi)
    log_term = log_env - k * alpha * math.log(cut)
    below = np.flatnonzero(log_term < math.log(_CDF_SERIES_STOP))
    n_terms = min(int(below[0] if below.size else np.argmin(log_term)) + 1,
                  _CDF_SERIES_MAX)
    coef = np.where(k % 2 == 1, 1.0, -1.0) * np.exp(log_env)
    c_right = coef * np.sin(k * alpha * (math.pi / 2.0 + th0))
    c_left = coef * np.sin(k * alpha * (math.pi / 2.0 - th0))
    right = x > 0.0
    z = np.abs(x) ** -alpha
    total = np.zeros_like(x)
    for j in range(n_terms - 1, -1, -1):  # Horner in z
        total = (total + np.where(right, c_right[j], c_left[j])) * z
    err = float(np.max(np.exp(log_env[n_terms]) * z ** (n_terms + 1)))
    return np.where(right, 1.0 - total, total), err
