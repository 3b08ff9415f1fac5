"""Innovation laws in the domain of attraction of an alpha-stable law.

Each family answers for itself what the package asks of an innovation law,
each question in one way:

    alpha             the stable index (linear_process: the truncation tail
                      and A_N);
    big_h_log(lnt)    H at t = e^lnt, read from ln t alone (the truncation
                      tail);
    h_alpha(N)        H_alpha(N), the factor of A_N (linear_process.normalizer,
                      and verify's check before any work);
    has_exact_log_cf  whether the oracle's exact log-CF is its own (cli), and
                      then weighted_sum(w), the exact law of sum_j w_j eps_j;
                      such a law is its own attractor, which the oracle
                      sweep takes;
    attractor         of a law without an exact log-CF: the StandardStable
                      law of its Levy limit;
    draw(lengths, seed, work)
                      the draws of each length from one seed, each as a draw
                      of that length alone gives it, through
                      sample_innovations, the one checked entry point (work:
                      arrays a caller keeps across draws, or None);
                      peak_arrays, the arrays of n doubles that a draw of
                      one length n holds at once, of which shared_arrays are
                      held once, of the longest length, by a draw of several
                      (the memory guards); check_draws(), a ValueError where
                      its draws would overflow a double (simulate's check
                      before any work).

Two families are provided, both mean zero by construction:

    ExactStable  -- the StandardStable law itself, sampled exactly (CMS); its
                    own attractor: H == H_alpha == 1, an exact log-CF,
                    weighted_sum.
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
                    empirically recoverable; x_t >= x0 (to the mass check's
                    1e-12 tolerance).  H and H_alpha are those of its h;
                    H_alpha(N) is solved once per N and kept with the spec.

The survival (s1+s2) x^-a h(x) is written once, in ln x (_log_survival):
the mass check at x0, the monotonicity check, the threshold and the tail
inversion all read it, and slowly_varying.newton_root, the package's one
safeguarded Newton iteration, finds log-power roots in ln(x / x_ref).

The ParetoTail layout (x1, the tail masses and the interior interval) is
deterministic, so it is resolved once per spec (ParetoTail.layout) and shared
by every draw.  A Pareto sample takes one uniform per draw: each tail's
draws are found by their own index, their levels are joined into one block
that one inversion call serves, left tail first, and the roots go back by
the same indices, negated on the left; the interior formula is applied to
every draw in the uniforms' own array, which becomes the sample.  Constant
h inverts in closed form.  Log-power Newton starts from a per-spec root
table (ParetoTail._tail_roots, built on first use, its coefficients four
contiguous rows) within about 3e-14 relative of the root, so practically
every draw settles on its first step, which newton_root then returns
without forming a bracket or evaluating the survival again.  Each draw's
value depends on its own uniform alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .slowly_varying import (SlowlyVaryingSpec, big_h_log, eval_sv, eval_sv_log, h_alpha_info,
                             log_sv_slope, newton_root)
from .stable_law import (
    StandardStable,
    _check_alpha,
    from_tail_constants,
    panel_quad,
    sample_prefixes,
)

__all__ = [
    "ExactStable",
    "ParetoTail",
    "InnovationSpec",
    "ParetoLayout",
    "pareto_layout",
    "sample_innovations",
]

# relative accuracy required of the Pareto tail first-moment quadrature
_MOMENT_RTOL = 1e-10
# floor of the conditional tail survival level g of a draw
_G_FLOOR = 1e-300
# nodes of the per-spec root table that starts the log-power inversion
_TABLE_NODES = 4097


class ExactStable(StandardStable):
    """The StandardStable law (alpha, beta, scale) as an innovation law,
    with the fields, checks, equality and hash of that dataclass.  It is
    its own attractor, with sigma = scale^alpha taken directly: no
    cancellation between a tail constant and Gamma(1-alpha)*cos(pi*alpha/2)
    near alpha = 2."""

    has_exact_log_cf = True
    # the CMS kernel holds at most ten arrays of n doubles at once, output
    # included (seven: the angle stage's six and the draw); all but each
    # length's exponentials, which become its draw, belong to the angle
    # stage, run once on the longest
    peak_arrays = 10
    shared_arrays = 9

    def draw(self, lengths, seed, work=None) -> list:
        return sample_prefixes(self, lengths, seed, work)

    def check_draws(self) -> None:
        """CMS draws share no resolved state: nothing to check."""

    def big_h_log(self, lnt):
        """H == 1: at alpha = 2 the Gaussian's sum a_i^2, not 2 ln t as for h == 1."""
        return np.ones_like(lnt)

    def weighted_sum(self, w) -> StandardStable:
        """The law of sum_j w_j eps_j for nonnegative weights w: it keeps beta
        and scales by the l^alpha norm of w."""
        agg = float(np.sum(np.abs(w) ** self.alpha)) ** (1.0 / self.alpha)
        return StandardStable(self.alpha, self.beta, self.scale * agg)


@dataclass(frozen=True)
class ParetoTail:
    alpha: float
    sigma1: float
    sigma2: float
    h: SlowlyVaryingSpec
    x0: float = 1.0

    has_exact_log_cf = False

    def __post_init__(self):
        _check_alpha(self.alpha)
        try:
            from_tail_constants(self.alpha, self.sigma1, self.sigma2)
        except ValueError:
            raise ValueError("need sigma1, sigma2 >= 0 with sigma1 + sigma2 > 0 and a "
                             "finite CF scale") from None
        if not (self.x0 > 0.0):
            raise ValueError("need x0 > 0")
        # S must decrease past x0, so its log-slope must be negative at x0 and
        # at x* = e*(p/a - 1), where a*ln(e+x) - p*x/(e+x) is least; and
        # ln S(x0) is _log_survival plus its constant at x_ref = 1
        x_star = math.e * (self.h.p / self.alpha - 1.0)
        log_s, slope = _log_survival(self, np.log([self.x0, max(x_star, self.x0)]), 0.0)
        if np.any(slope >= 0.0):
            raise ValueError("survival x^-alpha h(x) is not monotone past x0; "
                             "reduce the log-power exponent")
        log_s += math.log(self.sigma1 + self.sigma2) + math.log(self.h.c)
        if log_s[0] < math.log1p(-1e-12):
            raise ValueError("tail constants carry less than unit mass beyond "
                             "x0; exact tails need (s1+s2)*x0^-a*h(x0) >= 1")
        if not (0.0 < self.threshold < math.inf):
            raise ValueError("need (s1+s2)*c and the support threshold within the double range")

    @cached_property
    def threshold(self) -> float:
        """Support threshold x_t, where S(x) = (s1+s2)*x^-a*h(x) = 1 (0 or inf
        beyond the double range): x_c = ((s1+s2) c)^(1/a) for constant h, else
        x_c e^w, w the root of ln S(x_c e^w) = 0 above lo = ln(x0/x_c), unique
        as S decreases past x0 from S(x0) >= 1 (the law checks), by
        newton_root from max(0, lo) (S may also reach 1 below x0) at level
        ln((s1+s2) c x_c^-a), which keeps the digits e^(ln x_t) rounds away."""
        total, c, a = self.sigma1 + self.sigma2, self.h.c, self.alpha
        x_c = (total * c) ** (1.0 / a)
        if self.h.kind == "constant" or not (0.0 < x_c < math.inf):
            return x_c
        y_c = math.log(x_c)
        z = math.log(total * c / x_c / x_c ** (a - 1.0))
        lo = math.log(self.x0) - y_c
        w = newton_root(lambda w: _log_survival(self, w, y_c), z, max(0.0, lo), lo)
        with np.errstate(over="ignore"):
            return float(x_c * np.exp(w))

    @cached_property
    def layout(self) -> ParetoLayout:
        """The sampling layout, resolved on first use and kept with the spec."""
        return pareto_layout(self)

    @cached_property
    def _tail_roots(self) -> _TailRoots:
        """The root table of the log-power tail inversion, built on first use."""
        return _tail_root_table(self)

    @property
    def attractor(self) -> StandardStable:
        return from_tail_constants(self.alpha, self.sigma1, self.sigma2)

    @property
    def peak_arrays(self) -> int:
        """The uniforms, which become the output, plus, per tail draw (every
        draw counted as one), its index and level g, and then either the two
        blocks g is joined from or the root (constant h: 4 in all), or
        z = -ln g, the table start w and six arrays at once while the
        survival and its slope are evaluated at w (11)."""
        return 4 if self.h.kind == "constant" else 11

    @property
    def shared_arrays(self) -> int:
        """All of them: the draws of a shorter length are views of the
        longest one (see draw)."""
        return self.peak_arrays

    def check_draws(self) -> None:
        """Resolves the layout: a ValueError where h overflows a double on
        the exact tails."""
        self.layout

    def draw(self, lengths, seed, work=None) -> list:
        """Each draw reads its own uniform alone, so the draws of a shorter
        length are a prefix of the longest's: views of it.  Its arrays
        depend on the draw (the tail counts), so work is not used."""
        lay = self.layout
        q = np.random.default_rng(seed).random(max(lengths))
        left = np.flatnonzero(q < lay.p_left)
        right = np.flatnonzero(q >= lay.p_left + lay.p0)
        # conditional survival level g in (0, 1] within each draw's own tail,
        # the left tail's block first; both blocks are inverted in one call
        g = np.concatenate([q[left] / lay.p_left, (1.0 - q[right]) / lay.p_right])
        # the uniform interior stretch balancing the mean, formed for every
        # draw in q itself: center + width (2 (q - p_left) / p0 - 1), op for
        # op; the tail draws are overwritten below
        out = q
        out -= lay.p_left
        out *= 2.0
        out /= lay.p0
        out -= 1.0
        out *= lay.width
        out += lay.center
        x = _invert_tail_survival(self, np.maximum(g, _G_FLOOR, out=g))
        out[right] = x[left.size:]
        out[left] = np.negative(x[:left.size], out=x[:left.size])
        return [out[:n] for n in lengths]

    @cached_property
    def _h_alphas(self) -> dict:
        """H_alpha(N) by N, each solved on first use and kept with the spec."""
        return {}

    def h_alpha(self, N) -> float:
        if N not in self._h_alphas:
            self._h_alphas[N] = h_alpha_info(self.h, self.alpha, N).value
        return self._h_alphas[N]

    def big_h_log(self, lnt):
        return big_h_log(self.h, self.alpha, lnt)


InnovationSpec = Union[ExactStable, ParetoTail]


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


@np.errstate(over="raise")
def pareto_layout(spec: ParetoTail) -> ParetoLayout:
    """The layout of the least x1 = 2^k x_t (k >= 1) whose interior balance
    fits; a ValueError where h overflows a double on the exact tails."""
    x1 = 2.0 * spec.threshold
    try:
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
    except (FloatingPointError, ValueError) as exc:  # panel_quad: a non-finite integral
        raise ValueError(f"h overflows a double on the exact tails beyond x1 = {x1:.6g} "
                         f"({exc})") from exc
    raise RuntimeError("could not place the interior balance interval")


def sample_innovations(spec: InnovationSpec, n, seed, work=None):
    """n i.i.d. mean-zero innovations by the family's draw; deterministic
    given seed.  For a sequence of lengths n, the list of the draws of each
    length from the one seed, in one pass: each equals the draw of that
    length alone.  work, a dict the caller keeps from one call to the
    next, lets a law reuse its arrays (stable_law.sample_prefixes); the
    draws may then be views that the next such call overwrites."""
    lengths = [int(k) for k in np.atleast_1d(n)]
    if min(lengths, default=0) < 1:
        raise ValueError("need n >= 1")
    draws = spec.draw(lengths, seed, work)
    return draws if np.ndim(n) else draws[0]


def _invert_tail_survival(spec: ParetoTail, g: np.ndarray) -> np.ndarray:
    """Solve S(x) / S(x1) = g for x >= x1 = spec.layout.x1, vectorized over
    g in [_G_FLOOR, 1]: x1 g^(-1/alpha) for constant h, else x1 e^w with w
    the root of z + ln(S(x1 e^w) / S(x1)), z = -ln g, started from the spec's
    root table (_tail_roots: cubic Hermite in w(z) on _TABLE_NODES nodes
    uniform in ln(1 + z) over [0, -ln _G_FLOOR]) and finished by
    newton_root, whose stop rule certifies the start in one step for
    practically every draw, a step it takes without a bracket."""
    a, h, x1 = spec.alpha, spec.h, spec.layout.x1
    if h.kind == "constant":
        x = g ** (-1.0 / a)
        x *= x1
        return x
    z = -np.log(g)
    w = spec._tail_roots.start(z)
    z -= spec._tail_roots.level
    y1 = math.log(x1)
    return x1 * np.exp(newton_root(lambda w: _log_survival(spec, w, y1), z, w, 0.0))


class _TailRoots(NamedTuple):
    """Cubic Hermite pieces of the log-power tail root w(z): on node interval
    k, w = c0 + u (c1 + u (c2 + u c3)) with u = ln(1 + z) * per_step - k;
    coef holds c0..c3 as four contiguous rows, level is _log_survival at
    x1 itself."""

    per_step: float
    coef: tuple
    level: float

    def start(self, z: np.ndarray) -> np.ndarray:
        u = np.log1p(z) * self.per_step
        k = np.minimum(u.astype(np.intp), _TABLE_NODES - 2)
        u -= k
        # Horner in place, c0 + u (c1 + u (c2 + u c3)) op for op
        c0, c1, c2, c3 = self.coef
        w = c3.take(k)
        for row in (c2, c1, c0):
            w *= u
            w += row.take(k)
        return w


def _tail_root_table(spec: ParetoTail) -> _TailRoots:
    """The root w(z) at _TABLE_NODES nodes uniform in s = ln(1 + z), each
    solved by newton_root from the constant-h root z/alpha, with the
    closed-form slope dw/ds = (1 + z) dw/dz = -(1 + z)/f'(w)."""
    y1 = math.log(spec.layout.x1)
    level = float(_log_survival(spec, 0.0, y1)[0])
    step = math.log1p(-math.log(_G_FLOOR)) / (_TABLE_NODES - 1)
    z = np.expm1(step * np.arange(_TABLE_NODES))
    w = newton_root(lambda w: _log_survival(spec, w, y1), z - level, z / spec.alpha, 0.0)
    _, df = _log_survival(spec, w, y1)
    m = -step * (1.0 + z) / df
    d = np.diff(w)
    m0, m1 = m[:-1], m[1:]
    coef = (w[:-1], m0, 3.0 * d - 2.0 * m0 - m1, m0 + m1 - 2.0 * d)
    return _TailRoots(1.0 / step, coef, level)


def _log_survival(spec: ParetoTail, w, y_ref: float):
    """ln S(x) - ln((s1+s2) c x_ref^-a) = p ln ln(e + x) - a w at
    x = x_ref e^w, x_ref = e^y_ref, and its slope in w, for the two-sided
    survival S(x) = (s1+s2) x^-a c ln(e + x)^p (p = 0: constant h), from
    y = ln x alone (log_sv_slope), so no power of x overflows."""
    g, dg = log_sv_slope(spec.h, y_ref + w)
    return g - spec.alpha * w, dg - spec.alpha
