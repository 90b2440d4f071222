"""Scalar special functions and the root iteration used throughout the package.

Everything in this module is pure and stateless: plain floats in, plain
floats out, ``ValueError`` on arguments outside the stated domain. The
one check of what counts as a number lives here, in ``_number``: every
module routes each number it takes through it, so a bool, a str or a
non-finite value is refused by a ``ValueError`` that names it. The
:class:`Accuracy` pair carries tolerance targets; each integrating
module fixes its own pair as a constant (``dynamics.ODE_ACCURACY``,
``fock.FOCK_ACCURACY``, ``fock.LINDBLAD_ACCURACY``), and no public
function takes one.
Every closed-form root (:func:`erfinv`, :func:`lambert_w0` and the
peak-power delay) is found by one safeguarded Newton iteration,
``_newton``, so the closed-form figures of merit need nothing beyond the
standard library. Every value type of the package, ``Accuracy`` first,
derives from one frozen base here, ``_Value``.
"""

from __future__ import annotations

import math

__all__ = [
    "Accuracy",
    "arcsinh",
    "debruijn_w_approx",
    "erf",
    "erfinv",
    "lambert_w0",
]


class _Value:
    """Base of the package's immutable value types.

    A subclass declares its fields as annotations, in order, a default
    as a class attribute, and in the class keyword ``derived`` the
    fields its ``__post_init__`` sets instead of the caller. Instances
    take the other fields by position or keyword, then run
    ``__post_init__``, which may normalize a field with
    ``object.__setattr__``. They compare equal only to the same class,
    field by field, hash the fields, print as ``Name(field=value, ...)``,
    refuse assignment and deletion, and pickle and copy by their
    ``__dict__``, which also holds any ``functools.cached_property``.
    """

    _fields: tuple[str, ...] = ()
    _params: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, derived: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields += own
        cls._params += tuple(name for name in own if name not in derived)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}

    def __init__(self, *args: object, **kwargs: object) -> None:
        name, params = type(self).__name__, self._params
        if len(args) > len(params):
            raise TypeError(f"{name}() takes {len(params)} arguments but {len(args)} were given")
        values = dict(zip(params, args))
        for key, value in kwargs.items():
            if key not in params or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
            values[key] = value
        for key in params:
            if key not in values and key not in self._defaults:
                raise TypeError(f"{name}() missing required argument {key!r}")
            self.__dict__[key] = values[key] if key in values else self._defaults[key]
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Accuracy(_Value):
    """Absolute / relative tolerance pair for numerical routines."""

    abs_tol: float
    rel_tol: float

    def __post_init__(self) -> None:
        for name in self._fields:
            object.__setattr__(self, name, _number(name, self.__dict__[name], "positive"))


def _number(name: str, x: object, rule: str = "") -> float:
    """``x`` as a float if it is a finite real number, not a bool or a str,
    held to ``rule``: none, "positive", "nonnegative" or "in (0, 1)".
    Otherwise ``ValueError("<name> must be <rule>, got <x!r>")``, no rule
    read as "finite" and a sign as "<sign> and finite". The one check of
    every number the package takes."""
    try:  # math takes a real number, numpy scalars included, but not a str; a
        # bool, numpy's too ("bool_" before numpy 2), is told by its type's name
        if (type(x) is float or type(x).__name__ not in {"bool", "bool_"}) and math.isfinite(x):
            y = float(x)
            if not rule or (y > 0.0 and (rule != "in (0, 1)" or y < 1.0)) or (
                y == 0.0 and rule == "nonnegative"
            ):
                return y
    except (TypeError, OverflowError):
        pass
    rule = rule if rule == "in (0, 1)" else f"{rule} and finite" if rule else "finite"
    raise ValueError(f"{name} must be {rule}, got {x!r}")


# Step cap of the root iteration; every caller converges in a handful.
_NEWTON_MAXITER = 100


def _newton(f, lo: float, hi: float, x0: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in the bracket (lo, hi) by Newton's method with a
    bisection safeguard.

    ``f(x)`` returns the value and the slope at x; the value must be
    negative at ``lo`` and positive at ``hi``. Each evaluation shrinks
    the bracket to the side that keeps the sign change. The run starts
    at ``x0`` (the midpoint if ``x0`` lies outside the bracket) and stops
    once a Newton step moves x by at most ``xtol + rtol |x|``, or at an
    exact zero; a step that would leave the bracket bisects it instead,
    so convergence is unconditional.

    Raises ``ValueError`` if ``f`` returns NaN and ``RuntimeError`` after
    100 steps.
    """
    x = x0 if lo <= x0 <= hi else 0.5 * (lo + hi)
    for _ in range(_NEWTON_MAXITER):
        y, slope = f(x)
        if math.isnan(y):
            raise ValueError(f"the function value at x = {x!r} is NaN; the search cannot continue")
        if y == 0.0:
            return x
        if y > 0.0:
            hi = x
        else:
            lo = x
        x_new = x - y / slope
        if abs(x_new - x) <= xtol + rtol * abs(x):
            return x_new
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    raise RuntimeError(f"the root search did not converge in {_NEWTON_MAXITER} steps")


def erf(x: float) -> float:
    """Error function, (2/sqrt(pi)) * integral of exp(-u^2) from 0 to x.

    Delegates to the platform libm implementation, which is accurate to a
    few ulp, far inside the 1e-12 contract. Non-finite input is rejected
    rather than mapped to the +-1 limits.
    """
    return math.erf(_number("x", x))


# Winitzki's global approximation constant; the seed it produces is
# accurate to a couple of 1e-3 over the whole open interval.
_ERFINV_A = 0.147


def erfinv(p: float) -> float:
    """Inverse error function on the open interval (-1, 1).

    Newton iterations on :func:`erf` from a Winitzki-style seed, with a
    bisection fallback whenever a step would leave the current bracket
    (``_newton``), so convergence is unconditional. The forward residual
    ``erf(erfinv(p)) - p`` stays well below 1e-10 everywhere.
    """
    p = _number("p", p)
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

    dpdx = 2.0 / math.sqrt(math.pi)

    def residual(x: float) -> tuple[float, float]:
        return math.erf(x) - p, dpdx * math.exp(-x * x)

    # erf saturates to 1.0 in double precision just below 6, so the root
    # of erf(x) = p lies strictly inside this bracket for any valid p.
    lo, hi = (0.0, 6.0) if p > 0.0 else (-6.0, 0.0)
    return _newton(residual, lo, hi, x, 4e-16, 4e-16)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function for x >= 0.

    Solves w * exp(w) = x by safeguarded Newton iteration (``_newton``)
    on the bracket [0, max(1, log1p(x))], since W(x) <= log(1 + x),
    seeded with the two-log asymptotic expansion for x > e and with
    log1p(x) otherwise (exact at 0 and within ~35 percent everywhere).
    The residual satisfies the defining equation to a relative 1e-12
    over at least [1e-6, 1e6].
    """
    x = _number("x", x, "nonnegative")
    if x == 0.0:
        return 0.0

    w = debruijn_w_approx(x) if x > math.e else math.log1p(x)

    def residual(w: float) -> tuple[float, float]:
        ew = math.exp(w)
        return w * ew - x, (w + 1.0) * ew

    # W(x) <= log(1 + x), and 1 keeps the bracket open where that is tiny
    return _newton(residual, 0.0, max(1.0, math.log1p(x)), w, 0.0, 4e-16)


def debruijn_w_approx(u: float) -> float:
    """de Bruijn's two-log expansion of the Lambert W function.

    Returns ln(u) - ln(ln(u)) + ln(ln(u)) / ln(u); only accepted for
    u > e, where both logarithms are positive and the expansion is
    meaningful.
    """
    u = _number("u", u)
    if u <= math.e:
        raise ValueError(f"the expansion needs u > e, got {u!r}")
    l1 = math.log(u)
    l2 = math.log(l1)
    return l1 - l2 + l2 / l1


def arcsinh(x: float) -> float:
    """Inverse hyperbolic sine, ln(x + sqrt(x^2 + 1))."""
    return math.asinh(_number("x", x))
