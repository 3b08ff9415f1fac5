"""Innovation families in the domain of attraction of an alpha-stable law.

Two families are provided, both mean zero by construction:

    ExactStable  -- wraps a StandardStable law, sampled exactly (CMS).
    ParetoTail   -- tails realized exactly: P(e > x) = s2*x^-a*h(x) and
                    P(e <= -x) = s1*x^-a*h(x) for all x >= x1, where
                    x1 = kappa * x_t, x_t solves (s1+s2)*x_t^-a*h(x_t) = 1 and
                    kappa >= 2 is the smallest power of two for which the
                    interior balance fits (see below).  The remaining interior
                    mass sits uniformly on an interval inside (-x1, x1) whose
                    midpoint zeroes the mean, so the law is mean zero by
                    construction with no centering shift distorting the tails
                    (an additive shift would bias finite-quantile tail-constant
                    recovery).  Exact tails are what make the stored constants
                    empirically recoverable; x0 is a floor the threshold must
                    clear (x_t >= x0 is validated).

The ParetoTail layout (x1, the tail masses and the interior interval) is
deterministic, so it is resolved once per spec (ParetoTail.layout) and shared
by every draw.  A Pareto sample takes one uniform per draw: the interior
formula is applied to every draw, the tail draws are gathered once, and one
inversion call serves both tails, the sign going in with the scatter.
Constant h inverts in closed form.  Log-power tails are inverted in
y = ln x by a safeguarded Newton iteration that starts from a per-spec root
table (ParetoTail._tail_roots, built on first use: 4097 nodes uniform in
ln(1 + z), z = -ln g, over the sampler's range g >= 1e-300, cubic Hermite
with the closed-form slope).  The start is within about 3e-14 relative of
the root, so the unchanged stop rule ends practically every draw after its
first step, and each draw's value depends on its own uniform alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .slowly_varying import SlowlyVaryingSpec, constant, eval_sv, eval_sv_log
from .stable_law import (
    SkewedStableParams,
    StandardStable,
    from_standard,
    from_tail_constants,
    panel_quad,
    sample,
    stable_tail_constant,
)

__all__ = [
    "ExactStable",
    "ParetoTail",
    "InnovationSpec",
    "exact_stable",
    "TailConstants",
    "tail_constants",
    "innovation_cf_params",
    "ParetoLayout",
    "pareto_layout",
    "sample_innovations",
    "sample_peak_arrays",
]

# relative accuracy required of the Pareto tail first-moment quadrature
_MOMENT_RTOL = 1e-10
# Newton inversion of log-power tails: stop once every step is below
# _NEWTON_RTOL * max(|y|, 1) in y = ln x; raise after _NEWTON_MAX_ITER steps
_NEWTON_RTOL = 1e-13
_NEWTON_MAX_ITER = 100
# floor of the conditional tail survival level g of a draw
_G_FLOOR = 1e-300
# nodes of the per-spec root table that starts the log-power inversion
_TABLE_NODES = 4097


@dataclass(frozen=True)
class ExactStable:
    law: StandardStable


def exact_stable(alpha: float, beta: float, scale: float) -> ExactStable:
    return ExactStable(StandardStable(alpha, beta, scale))


@dataclass(frozen=True)
class ParetoTail:
    alpha: float
    sigma1: float
    sigma2: float
    h: SlowlyVaryingSpec
    x0: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise ValueError("need alpha in (1, 2]")
        if self.sigma1 < 0.0 or self.sigma2 < 0.0 or self.sigma1 + self.sigma2 <= 0.0:
            raise ValueError("need sigma1, sigma2 >= 0 with sigma1 + sigma2 > 0")
        if not (self.x0 > 0.0):
            raise ValueError("need x0 > 0")
        _check_survival_monotone(self)
        if self._two_sided_tail(self.x0) < 1.0 - 1e-12:
            raise ValueError("tail constants carry less than unit mass beyond "
                             "x0; exact tails need (s1+s2)*x0^-a*h(x0) >= 1")

    def _two_sided_tail(self, x: float) -> float:
        return (self.sigma1 + self.sigma2) * x ** (-self.alpha) * eval_sv(self.h, x)

    @property
    def threshold(self) -> float:
        """Support threshold x_t: the point where the two-sided tail mass
        (s1+s2)*x^-a*h(x) equals 1."""
        total = self.sigma1 + self.sigma2
        if self.h.kind == "constant":
            return (total * self.h.c) ** (1.0 / self.alpha)
        lo = hi = self.x0
        while self._two_sided_tail(hi) > 1.0:
            lo, hi = hi, hi * 4.0
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if self._two_sided_tail(mid) > 1.0:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    @cached_property
    def layout(self) -> ParetoLayout:
        """The sampling layout, resolved on first use and kept with the spec."""
        return pareto_layout(self)

    @cached_property
    def _tail_roots(self) -> _TailRoots:
        """The root table of the log-power tail inversion, built on first use."""
        return _tail_root_table(self)


def _check_survival_monotone(spec: ParetoTail) -> None:
    # x^-a h(x) must strictly decrease past x0, i.e. a*ln(e+x) > p*x/(e+x).
    # For p > 0 the left-minus-right gap is minimized at x* = e*(p/a - 1).
    if spec.h.kind != "log_power" or spec.h.p <= 0.0:
        return
    p, a = spec.h.p, spec.alpha
    candidates = [spec.x0]
    x_star = math.e * (p / a - 1.0)
    if x_star > spec.x0:
        candidates.append(x_star)
    for x in candidates:
        if a * math.log(math.e + x) <= p * x / (math.e + x):
            raise ValueError("survival x^-alpha h(x) is not monotone past x0; "
                             "reduce the log-power exponent")


InnovationSpec = Union[ExactStable, ParetoTail]


class TailConstants(NamedTuple):
    alpha: float
    sigma1: float
    sigma2: float
    h: SlowlyVaryingSpec


def tail_constants(spec: InnovationSpec) -> TailConstants:
    """Tail constants (alpha, sigma1, sigma2, h) of the innovation law.

    ParetoTail stores them; ExactStable derives them from the standard stable
    tail constant.  At alpha = 2, and only there, the power-tail constant
    degenerates to 0, so the Gaussian branch returns the generalized constants
    sigma1 = sigma2 = scale^2/2 that make the CF constants round-trip exactly
    (h == 1).  Below 2 the stable formula round-trips to about 3e-12 relative
    at alpha = 1.99999; its rounding error grows like 1e-16 / (2 - alpha).
    """
    if isinstance(spec, ParetoTail):
        return TailConstants(spec.alpha, spec.sigma1, spec.sigma2, spec.h)
    law = spec.law
    if law.alpha == 2.0:
        half = 0.5 * law.scale**2
        return TailConstants(law.alpha, half, half, constant(1.0))
    c = stable_tail_constant(law.alpha) * law.scale**law.alpha
    return TailConstants(law.alpha,
                         c * (1.0 - law.beta) / 2.0,
                         c * (1.0 + law.beta) / 2.0,
                         constant(1.0))


def innovation_cf_params(spec: InnovationSpec) -> SkewedStableParams:
    """CF constants (alpha, sigma, D) of the attractor of the innovation law.

    An exact stable law is its own attractor, so its constants come straight
    from from_standard, with none of the cancellation between the tail
    constant and Gamma(1-alpha)*cos(pi*alpha/2) that the tail-constant route
    has near alpha = 2."""
    if isinstance(spec, ExactStable):
        return from_standard(spec.law)
    tc = tail_constants(spec)
    return from_tail_constants(tc.alpha, tc.sigma1, tc.sigma2)


def _tail_first_moment(spec: ParetoTail, weight: float, x1: float) -> float:
    """E[X 1{X > x1}] for one side with survival weight * x^-alpha * h(x):
    x1 * P(X > x1) + int_x1^inf P(X > x) dx.

    The substitution x = x1 * s^(-1/(alpha-1)) turns the slowly decaying
    integral into x1^(1-alpha)/(alpha-1) * int_0^1 h(x) ds, whose integrand is
    bounded (p <= 0) or log-singular at s = 0 (p > 0), and panel_quad
    integrates it; h is evaluated from ln x, so that no power of s overflows."""
    a, h = spec.alpha, spec.h
    head = weight * x1 ** (1.0 - a) * eval_sv(h, x1)
    if h.kind == "constant":
        mean_h = h.c
    else:
        ln_x1 = math.log(x1)
        value, err = panel_quad(lambda s, _: eval_sv_log(h, ln_x1 - np.log(s) / (a - 1.0)))
        mean_h, err = float(value[0]), float(err[0])
        if err > _MOMENT_RTOL * abs(mean_h):
            raise RuntimeError(f"tail first moment reached only {err / abs(mean_h):.3g} "
                               f"relative error (target {_MOMENT_RTOL})")
    return head + weight * x1 ** (1.0 - a) / (a - 1.0) * mean_h


@dataclass(frozen=True)
class ParetoLayout:
    """Resolved sampling layout: exact tails beyond x1, interior mass p0
    uniform on [center - width, center + width]."""

    x1: float
    p_left: float
    p_right: float
    p0: float
    center: float
    width: float


def pareto_layout(spec: ParetoTail) -> ParetoLayout:
    x1 = 2.0 * spec.threshold
    for _ in range(64):
        p_left = spec.sigma1 * x1 ** (-spec.alpha) * eval_sv(spec.h, x1)
        p_right = spec.sigma2 * x1 ** (-spec.alpha) * eval_sv(spec.h, x1)
        p0 = 1.0 - p_left - p_right
        tail_mean = (_tail_first_moment(spec, spec.sigma2, x1)
                     - _tail_first_moment(spec, spec.sigma1, x1))
        center = -tail_mean / p0
        if abs(center) < 0.9 * x1:
            width = 0.5 * (x1 - abs(center))
            return ParetoLayout(x1, p_left, p_right, p0, center, width)
        x1 *= 2.0  # extreme skew: push the exact-tail zone out
    raise RuntimeError("could not place the interior balance interval")


def sample_innovations(spec: InnovationSpec, n: int, seed) -> np.ndarray:
    """n i.i.d. mean-zero innovations; deterministic given seed."""
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    if isinstance(spec, ExactStable):
        return sample(spec.law, n, seed)
    rng = np.random.default_rng(seed)
    return _sample_pareto_with(spec, n, rng)


def sample_peak_arrays(spec: InnovationSpec) -> int:
    """Bound on the arrays of n doubles that sample_innovations(spec, n, .)
    holds at once, output included, counted from the samplers: ten in the
    CMS kernel of stable_law.sample; in the Pareto sampler the output and the
    uniforms, plus about 13 per tail draw (indices, conditional levels,
    table start and the Newton step's terms), with every draw counted as a
    tail draw."""
    return 10 if isinstance(spec, ExactStable) else 15


def _sample_pareto_with(spec: ParetoTail, n: int, rng) -> np.ndarray:
    lay = spec.layout
    q = rng.random(n)
    # uniform interior stretch balancing the mean, formed for every draw;
    # the tail draws are overwritten below
    out = lay.center + lay.width * (2.0 * (q - lay.p_left) / lay.p0 - 1.0)
    tails = np.flatnonzero((q < lay.p_left) | (q >= lay.p_left + lay.p0))
    q = q[tails]
    right = q >= lay.p_left
    # conditional survival level g in (0, 1] within each draw's own tail
    g = np.where(right, 1.0 - q, q) / np.where(right, lay.p_right, lay.p_left)
    x = _invert_tail_survival(spec, np.maximum(g, _G_FLOOR, out=g))
    out[tails] = np.where(right, x, -x)
    return out


def _invert_tail_survival(spec: ParetoTail, g: np.ndarray) -> np.ndarray:
    """Solve (x/x1)^-alpha h(x)/h(x1) = g for x >= x1, x1 = spec.layout.x1
    (vectorized, g in [_G_FLOOR, 1]).

    Constant h has the closed form x1 g^(-1/alpha).  For h = c ln(e+x)^p the
    root y(z) of f(y) = z - a (y - y1) + p (ln ln(e+e^y) - ln ln(e+x1)) in
    y = ln x, z = -ln g, starts from the spec's root table (_tail_roots: the
    cubic Hermite interpolant of y(z) on _TABLE_NODES nodes uniform in
    ln(1 + z) over [0, -ln _G_FLOOR]) and is finished by _newton_tail, whose
    stop rule certifies the start in one step for practically every draw."""
    a, h, x1 = spec.alpha, spec.h, spec.layout.x1
    if h.kind == "constant":
        return x1 * g ** (-1.0 / a)
    z = -np.log(g)
    return np.exp(_newton_tail(spec, z, spec._tail_roots.start(z)))


class _TailRoots(NamedTuple):
    """Cubic Hermite pieces of the log-power tail root y(z): on node interval
    k, y = c0 + u (c1 + u (c2 + u c3)) with u = ln(1 + z) * per_step - k;
    coef holds the rows c0..c3."""

    per_step: float
    coef: np.ndarray

    def start(self, z: np.ndarray) -> np.ndarray:
        u = np.log1p(z) * self.per_step
        k = np.minimum(u.astype(np.intp), _TABLE_NODES - 2)
        u -= k
        c0, c1, c2, c3 = self.coef.take(k, axis=1)
        return c0 + u * (c1 + u * (c2 + u * c3))


def _tail_root_table(spec: ParetoTail) -> _TailRoots:
    """The root y(z) at _TABLE_NODES nodes uniform in s = ln(1 + z), each
    solved by _newton_tail from the constant-h root y1 + z/alpha, with the
    closed-form slope dy/ds = (1 + z) dy/dz = -(1 + z)/f'(y)."""
    a, y1 = spec.alpha, math.log(spec.layout.x1)
    step = math.log1p(-math.log(_G_FLOOR)) / (_TABLE_NODES - 1)
    z = np.expm1(step * np.arange(_TABLE_NODES))
    y = _newton_tail(spec, z, y1 + z / a)
    _, df = _tail_f(spec, z, y)
    m = -step * (1.0 + z) / df
    d = np.diff(y)
    m0, m1 = m[:-1], m[1:]
    coef = np.stack([y[:-1], m0, 3.0 * d - 2.0 * m0 - m1, m0 + m1 - 2.0 * d])
    return _TailRoots(1.0 / step, coef)


def _tail_f(spec: ParetoTail, z: np.ndarray, y: np.ndarray):
    """f(y) and f'(y) for the log-power tail root (see _invert_tail_survival)."""
    a, p, y1 = spec.alpha, spec.h.p, math.log(spec.layout.x1)
    lnln_x1 = math.log(y1 + math.log1p(math.exp(1.0 - y1)))
    # ln(e + e^y) = y + ln(1 + e^(1-y)); every iterate stays in [y1, inf),
    # so e^(1-y) <= e/x1 cannot overflow
    t = np.exp(1.0 - y)
    ln_e_plus = y + np.log1p(t)
    f = z - a * (y - y1) + p * (np.log(ln_e_plus) - lnln_x1)
    return f, p / ((1.0 + t) * ln_e_plus) - a


def _newton_tail(spec: ParetoTail, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Safeguarded Newton iteration for f(y) = 0 from the start y, per draw.

    f strictly decreases (_check_survival_monotone), so each draw keeps a
    bracket [lo, hi] around its root, and a step that leaves it is replaced
    by a bisection.  A draw stops at the first step below
    _NEWTON_RTOL * max(|y|, 1) and keeps that iterate, so its root depends on
    its own z alone; a RuntimeError after _NEWTON_MAX_ITER steps."""
    lo, hi, moving = math.log(spec.layout.x1), np.inf, True
    for _ in range(_NEWTON_MAX_ITER):
        f, df = _tail_f(spec, z, y)
        lo = np.where(f > 0.0, y, lo)
        hi = np.where(f < 0.0, y, hi)
        step = y - f / df
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        step = np.where(moving, step, y)
        moving = np.abs(step - y) > _NEWTON_RTOL * np.maximum(np.abs(step), 1.0)
        y = step
        if not moving.any():
            return y
    raise RuntimeError(f"tail inversion did not converge in {_NEWTON_MAX_ITER} "
                       "Newton steps")
