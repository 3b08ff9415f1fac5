"""The alpha-stable law in two parametrizations.

SkewedStableParams carries the characteristic-function constants (alpha,
sigma, D) with log CF  -t*sigma*|u|^alpha*(1 - i*D*sgn u); StandardStable is
the sampling-side S1 parametrization (alpha, beta, scale) with CF
exp(-scale^alpha*|u|^alpha*(1 - i*beta*tan(pi*alpha/2)*sgn u)) for alpha < 2
and exp(-scale^2 u^2) for alpha = 2 (a Gaussian with variance 2*scale^2).

The two are in exact bijection: sigma = scale^alpha, D = beta*tan(pi*alpha/2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gamma as _gamma
from scipy.special import ndtr

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
    return 2.0 * _gamma(alpha) * math.sin(math.pi * alpha / 2.0) / math.pi


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
    sigma = total * abs(_gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0))
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


def _sample_with(std: StandardStable, n: int, rng) -> np.ndarray:
    alpha, beta, scale = std.alpha, std.beta, std.scale
    if alpha == 2.0:
        return rng.normal(0.0, math.sqrt(2.0) * scale, n)
    U = np.pi * (rng.random(n) - 0.5)
    W = np.maximum(rng.standard_exponential(n), np.finfo(float).tiny)
    tb = beta * math.tan(math.pi * alpha / 2.0)
    B = math.atan(tb) / alpha
    S = (1.0 + tb * tb) ** (1.0 / (2.0 * alpha))
    x = (S * np.sin(alpha * (U + B)) / np.cos(U) ** (1.0 / alpha)
         * (np.cos(U - alpha * (U + B)) / W) ** ((1.0 - alpha) / alpha))
    return scale * x


class CdfQuadratureError(RuntimeError):
    """CDF inversion failed to reach tolerance; carries the achieved bound."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


_CDF_ABS_TOL = 1e-6


def cdf(std: StandardStable, x: float) -> float:
    """Distribution function by Gil-Pelaez inversion,
    F(x) = 1/2 - (1/pi) int_0^inf Im(e^{-iux} phi(u))/u du,
    to absolute tolerance 1e-6; alpha = 2 delegates to the exact Gaussian CDF.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("need finite x")
    if std.alpha == 2.0:
        return float(ndtr(x / (std.scale * math.sqrt(2.0))))

    alpha, scale = std.alpha, std.scale
    s = scale**alpha
    bt = std.beta * math.tan(math.pi * alpha / 2.0)
    u_max = (40.0 / s) ** (1.0 / alpha)  # exp(-s u^alpha) < 4e-18 beyond

    def integrand(u):
        # Im(e^{-iux} phi(u))/u with phi(u) = exp(-s u^alpha (1 - i*bt))
        m = s * u**alpha
        return math.exp(-m) * math.sin(bt * m - u * x) / u

    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if abs(x) <= 4.0 * (1.0 + scale):
            # low-oscillation regime: log substitution on (0,1), direct on
            # (1, u_max)
            val1, e1 = quad(lambda y: integrand(math.exp(y)) * math.exp(y),
                            -45.0, 0.0, epsabs=1e-9, epsrel=1e-9, limit=300)
            err += e1
            val2 = 0.0
            if u_max > 1.0:
                val2, e2 = quad(integrand, 1.0, u_max,
                                epsabs=1e-9, epsrel=1e-9, limit=300)
                err += e2
            total = val1 + val2
        else:
            # |x| large: the integrand oscillates ~|x| u_max / 2pi times, which
            # defeats plain adaptive quadrature.  Below delta there is less
            # than a tenth of a period; beyond, Fourier-weighted quadrature
            # handles the oscillation exactly.
            delta = 0.1 / abs(x)
            val1, e1 = quad(integrand, 0.0, delta,
                            epsabs=1e-9, epsrel=1e-9, limit=200)
            err += e1
            re_phi = lambda u: math.exp(-s * u**alpha) * math.cos(bt * s * u**alpha) / u
            im_phi = lambda u: math.exp(-s * u**alpha) * math.sin(bt * s * u**alpha) / u
            v_sin, e2 = quad(re_phi, delta, np.inf, weight="sin", wvar=abs(x),
                             epsabs=1e-9, limit=300)
            v_cos, e3 = quad(im_phi, delta, np.inf, weight="cos", wvar=abs(x),
                             epsabs=1e-9, limit=300)
            err += e2 + e3
            total = val1 - math.copysign(1.0, x) * v_sin + v_cos

    if err > _CDF_ABS_TOL:
        raise CdfQuadratureError(
            f"cdf quadrature achieved only {err:.3g} (target {_CDF_ABS_TOL})", err)
    return min(1.0, max(0.0, 0.5 - total / math.pi))
