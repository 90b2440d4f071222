"""Scalar special functions and the root finder used throughout the package.

Everything in this module is pure and stateless: plain floats in, plain
floats out, ``ValueError`` on arguments outside the stated domain. The
:class:`Accuracy` pair carries tolerance targets around; its defaults
(1e-12 absolute and relative) are what the rest of the package assumes.
:func:`brentq` is Brent's bracketed root finder, so the closed-form
figures of merit need nothing beyond the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Accuracy",
    "arcsinh",
    "brentq",
    "debruijn_w_approx",
    "erf",
    "erfinv",
    "lambert_w0",
]


@dataclass(frozen=True)
class Accuracy:
    """Absolute / relative tolerance pair for numerical routines."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError(
                f"tolerances must be positive, got ({self.abs_tol!r}, {self.rel_tol!r})"
            )


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def erf(x: float) -> float:
    """Error function, (2/sqrt(pi)) * integral of exp(-u^2) from 0 to x.

    Delegates to the platform libm implementation, which is accurate to a
    few ulp, far inside the 1e-12 contract. Non-finite input is rejected
    rather than mapped to the +-1 limits.
    """
    return math.erf(_require_finite("x", x))


# Winitzki's global approximation constant; the seed it produces is
# accurate to a couple of 1e-3 over the whole open interval.
_ERFINV_A = 0.147


def erfinv(p: float) -> float:
    """Inverse error function on the open interval (-1, 1).

    Newton iterations on :func:`erf` from a Winitzki-style seed, with a
    bisection fallback whenever a step would leave the current bracket,
    so convergence is unconditional. The forward residual
    ``erf(erfinv(p)) - p`` stays well below 1e-10 everywhere.
    """
    p = _require_finite("p", p)
    if not -1.0 < p < 1.0:
        raise ValueError(
            f"erfinv is defined on (-1, 1) only, got {p!r}; "
            "the endpoints are reached only asymptotically"
        )
    if p == 0.0:
        return 0.0

    ln1mp2 = math.log1p(-p * p)
    c = 2.0 / (math.pi * _ERFINV_A) + 0.5 * ln1mp2
    x = math.copysign(math.sqrt(math.sqrt(c * c - ln1mp2 / _ERFINV_A) - c), p)

    # erf saturates to 1.0 in double precision just below 6, so the root
    # of erf(x) = p lies strictly inside this bracket for any valid p.
    lo, hi = (0.0, 6.0) if p > 0.0 else (-6.0, 0.0)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    dpdx = 2.0 / math.sqrt(math.pi)
    for _ in range(100):
        f = math.erf(x) - p
        if f == 0.0:
            break
        if f > 0.0:
            hi = x
        else:
            lo = x
        x_new = x - f / (dpdx * math.exp(-x * x))
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 4e-16 * (1.0 + abs(x_new)):
            x = x_new
            break
        x = x_new
    return x


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function for x >= 0.

    Solves w * exp(w) = x by Halley iteration, seeded with the two-log
    asymptotic expansion for x > e and with log1p(x) otherwise (exact at
    0 and within ~35 percent everywhere, plenty for a cubically
    convergent iteration). The residual satisfies the defining equation
    to a relative 1e-12 over at least [1e-6, 1e6].
    """
    x = _require_finite("x", x)
    if x < 0.0:
        raise ValueError(f"lambert_w0 requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0

    w = debruijn_w_approx(x) if x > math.e else math.log1p(x)
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w_new = w - dw
        if abs(w_new - w) <= 1e-16 * (2.0 + abs(w_new)):
            return w_new
        w = w_new
    return w


def debruijn_w_approx(u: float) -> float:
    """de Bruijn's two-log expansion of the Lambert W function.

    Returns ln(u) - ln(ln(u)) + ln(ln(u)) / ln(u); only accepted for
    u > e, where both logarithms are positive and the expansion is
    meaningful.
    """
    u = _require_finite("u", u)
    if u <= math.e:
        raise ValueError(f"the expansion needs u > e, got {u!r}")
    l1 = math.log(u)
    l2 = math.log(l1)
    return l1 - l2 + l2 / l1


def arcsinh(x: float) -> float:
    """Inverse hyperbolic sine, ln(x + sqrt(x^2 + 1))."""
    return math.asinh(_require_finite("x", x))


# Smallest relative tolerance brentq accepts: below a few ulp the
# stopping test can never be met.
_BRENT_MIN_RTOL = 4.0 * 2.0**-52
# Iteration cap, scipy's default.
_BRENT_MAXITER = 100


def brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in the bracket [a, b] by Brent's method.

    R. P. Brent, *Algorithms for Minimization without Derivatives*
    (1973), ch. 4, transcribed branch for branch from scipy's
    ``brentq.c`` so that every iterate, and hence the returned float,
    matches ``scipy.optimize.brentq`` exactly: each step interpolates
    (secant), extrapolates (inverse quadratic) or bisects, and the run
    stops once half the bracket is below
    ``delta = (xtol + rtol |x|) / 2``.

    Exact agreement has been checked on x86_64 against scipy 1.17.1;
    a scipy build whose compiler fuses multiply-adds (common on ARM)
    may differ in the last bits.

    Raises ``ValueError`` if ``xtol <= 0``, ``rtol < 4 eps``, f(a) and
    f(b) carry the same sign, or ``f`` returns NaN; ``RuntimeError`` if
    scipy's default of 100 iterations does not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_MIN_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_MIN_RTOL:g})")

    def fx(x: float) -> float:
        y = float(f(x))
        if math.isnan(y):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return y

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = fx(xpre)
    fcur = fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")

    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)

    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")
