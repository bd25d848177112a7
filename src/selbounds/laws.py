"""Parametric scalar laws used to build comonotone instances.

Supported families: ``uniform(a,b)``, ``exponential(rate)``, ``chi2(df)``
and ``normal(mu,sigma)``.  Each law exposes a vectorized ``cdf``, a
vectorized inverse ``ppf`` accurate to about 1e-10 in the argument, and an
analytic ``mean``.

The chi-square CDF is computed by composite Gauss-Legendre quadrature of
the density after the substitution x = t^2, which removes the derivative
singularity of odd degrees of freedom at the origin; the inverse is a
safeguarded Newton iteration against that quadrature.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import AlphaOutOfRange, InputError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


class Law:
    """Interface: cdf(x), ppf(u), mean(), label()."""

    def cdf(self, x):
        raise NotImplementedError

    def ppf(self, u):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


def _check_u(u):
    u = np.asarray(u, dtype=float)
    if np.any(~np.isfinite(u)) or np.any(u <= 0.0) or np.any(u >= 1.0):
        raise AlphaOutOfRange("ppf argument must lie strictly inside (0, 1)")
    return u


@dataclass(frozen=True)
class Uniform(Law):
    a: float
    b: float

    def __post_init__(self):
        if not (self.a < self.b):
            raise InputError(f"uniform needs a < b, got ({self.a}, {self.b})")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def ppf(self, u):
        u = _check_u(u)
        return self.a + u * (self.b - self.a)

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def label(self) -> str:
        return f"uniform({self.a:g},{self.b:g})"


@dataclass(frozen=True)
class Exponential(Law):
    rate: float

    def __post_init__(self):
        if not (self.rate > 0.0):
            raise InputError(f"exponential rate must be positive, got {self.rate}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def ppf(self, u):
        u = _check_u(u)
        return -np.log1p(-u) / self.rate

    def mean(self) -> float:
        return 1.0 / self.rate

    def label(self) -> str:
        return f"exponential({self.rate:g})"


class Normal(Law):
    def __init__(self, mu: float, sigma: float):
        if not (sigma > 0.0):
            raise InputError(f"normal sigma must be positive, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self._erf = np.vectorize(math.erf, otypes=[float])
        self._erfc = np.vectorize(math.erfc, otypes=[float])

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / (self.sigma * math.sqrt(2.0))
        return 0.5 * (1.0 + self._erf(z))

    def _cdf_residual(self, z, u):
        # cdf(z) - u without tail cancellation: use erfc on the short side
        zr = z / math.sqrt(2.0)
        left = 0.5 * self._erfc(-zr) - u
        right = (1.0 - u) - 0.5 * self._erfc(zr)
        return np.where(u <= 0.5, left, right)

    def ppf(self, u):
        u = _check_u(u)
        z = _standard_normal_ppf(u)
        # Two Halley refinements against the erfc-based CDF push the
        # rational approximation down to machine precision, tails included.
        for _ in range(2):
            f = self._cdf_residual(z, u)
            pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            step = f / pdf
            z = z - step / (1.0 + 0.5 * z * step)
        return self.mu + self.sigma * z

    def mean(self) -> float:
        return self.mu

    def label(self) -> str:
        return f"normal({self.mu:g},{self.sigma:g})"


def _standard_normal_ppf(u):
    """Rational approximation of the standard normal quantile (Acklam)."""
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    lo = u < 0.02425
    hi = u > 1.0 - 0.02425
    mid = ~(lo | hi)

    if np.any(mid):
        q = u[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[mid] = num * q / den
    for mask, sign, p in ((lo, 1.0, u[lo]), (hi, -1.0, 1.0 - u[hi])):
        if np.any(mask):
            q = np.sqrt(-2.0 * np.log(p))
            num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
            den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
            out[mask] = sign * num / den
    return out


class ChiSquare(Law):
    """Chi-square law, CDF by panel quadrature, inverse by safeguarded Newton.

    Panels cover t in [0, t_max] with x = t^2; the cumulative integral at
    panel boundaries is cached once per instance.  The inverse starts from
    linear interpolation inside the panel and takes Newton steps on the
    in-panel integral, bisecting the panel bracket where a step leaves it;
    ``cdf(ppf(u))`` returns u to rounding.
    """

    _PANELS = 2048
    _BLOCK = 4096
    _MAX_SWEEPS = 200   # the halving safeguard bounds the bracket; rounding ends far sooner

    def __init__(self, df: float):
        if not (df >= 1.0):
            raise InputError(f"chi2 degrees of freedom must be >= 1, got {df}")
        self.df = float(df)
        p = self.df - 1.0
        self._int_power = int(p) if p == int(p) and 0 <= p <= 16 else None
        self._logc = (1.0 - 0.5 * self.df) * math.log(2.0) - math.lgamma(0.5 * self.df)
        x_max = self.df + 40.0 + 30.0 * math.sqrt(self.df)
        self._t_max = math.sqrt(x_max)
        self._h = self._t_max / self._PANELS
        edges = np.linspace(0.0, self._t_max, self._PANELS + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * self._h
        nodes = mids[:, None] + half * _GL_NODES[None, :]
        vals = (self._density_t(nodes) * _GL_WEIGHTS[None, :]).sum(axis=1) * half
        self._cum = np.concatenate(([0.0], np.cumsum(vals)))
        self._edges = edges

    def _density_t(self, t):
        # integrand after x = t^2: 2^(1-df/2)/Gamma(df/2) * t^(df-1) * exp(-t^2/2)
        t = np.asarray(t, dtype=float)
        if self._int_power is not None:
            # exact small-integer power by squaring; much cheaper than log/exp
            out = np.exp(self._logc - 0.5 * t * t)
            base, k = t, self._int_power
            while k:
                if k & 1:
                    out = out * base
                base = base * base
                k >>= 1
            return out
        safe = np.maximum(t, 1e-300)
        return np.exp(self._logc + (self.df - 1.0) * np.log(safe) - 0.5 * t * t) * (t > 0.0)

    def _partial(self, t0, t1):
        """Integral of the t-density over [t0, t1], elementwise."""
        mid = 0.5 * (t0 + t1)
        half = 0.5 * (t1 - t0)
        nodes = mid[..., None] + half[..., None] * _GL8_NODES
        return (self._density_t(nodes) * _GL8_WEIGHTS).sum(axis=-1) * half

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        t = np.sqrt(np.clip(x, 0.0, None))
        t = np.minimum(t, self._t_max)
        idx = np.minimum((t / self._h).astype(int), self._PANELS - 1)
        base = self._edges[idx]
        out = self._cum[idx] + self._partial(base, t)
        return np.clip(out, 0.0, 1.0)

    def ppf(self, u):
        u = np.atleast_1d(_check_u(u))
        flat = u.ravel()
        t = np.empty_like(flat)
        # fixed-size blocks bound the (block, 8) quadrature temporaries
        for start in range(0, flat.size, self._BLOCK):
            stop = start + self._BLOCK
            t[start:stop] = self._invert(flat[start:stop])
        t *= t
        return t.reshape(u.shape)

    def _invert(self, u):
        """t = sqrt(ppf(u)) by safeguarded Newton inside each point's panel.

        The root of F(t) = _partial(edge, t) - (u - _cum[panel]) has
        F' = _density_t.  Each sweep narrows the panel bracket with the sign
        of F and takes the Newton step; where that step leaves the bracket
        (inclusive: a converged step may land on an edge) or fails to halve
        the previous one, it bisects instead.  A point is done when its
        Newton step falls below 1e-10 of t, after which that last step
        leaves it at rounding level, or when a sweep no longer moves it.
        """
        j = np.clip(np.searchsorted(self._cum, u, side="left"), 1, self._PANELS)
        lo, hi = self._edges[j - 1], self._edges[j]
        base = lo
        target = u - self._cum[j - 1]
        prev = hi - lo
        out = np.empty_like(u)
        idx = np.arange(u.size)
        # an underflowed panel mass or density makes a start or step non-finite;
        # the bracket test then sends that point to bisection
        with np.errstate(divide="ignore", invalid="ignore"):
            t = lo + prev * (target / (self._cum[j] - self._cum[j - 1]))
            for _ in range(self._MAX_SWEEPS):
                f = self._partial(base, t) - target
                lo = np.where(f <= 0.0, t, lo)
                hi = np.where(f >= 0.0, t, hi)
                step = f / self._density_t(t)
                new = t - step
                newton = (new >= lo) & (new <= hi) & (np.abs(step) <= 0.5 * prev)
                new = np.where(newton, new, 0.5 * (lo + hi))
                prev = np.abs(new - t)
                done = (prev == 0.0) | (newton & (prev <= 1e-10 * t))
                out[idx[done]] = new[done]
                keep = ~done
                if not keep.any():
                    break
                idx, base, target, lo, hi, t, prev = (
                    a[keep] for a in (idx, base, target, lo, hi, new, prev)
                )
            else:
                out[idx] = t
        return out

    def mean(self) -> float:
        return self.df

    def label(self) -> str:
        return f"chi2({self.df:g})"


_LAW_PATTERN = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*\(([^)]*)\)\s*$")


def parse_law(text: str) -> Law:
    """Parse a law from a string such as ``"chi2(5)"`` or ``"uniform(0,1)"``."""
    m = _LAW_PATTERN.match(text)
    if not m:
        raise InputError(f"cannot parse law {text!r}; expected name(args)")
    name = m.group(1).lower()
    try:
        args = [float(s) for s in m.group(2).split(",") if s.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad numeric arguments in law {text!r}") from exc
    if name in ("uniform", "unif"):
        if len(args) != 2:
            raise InputError("uniform expects two arguments (a, b)")
        return Uniform(*args)
    if name in ("exponential", "exp"):
        if len(args) != 1:
            raise InputError("exponential expects one argument (rate)")
        return Exponential(args[0])
    if name in ("chi2", "chisquare", "chisq"):
        if len(args) != 1:
            raise InputError("chi2 expects one argument (df)")
        return ChiSquare(args[0])
    if name in ("normal", "gauss", "gaussian"):
        if len(args) != 2:
            raise InputError("normal expects two arguments (mu, sigma)")
        return Normal(*args)
    raise InputError(f"unknown law family {name!r}")
