"""Drive envelopes f(t): even, unit-area, peaked at t = 0.

The charging dynamics depend on an envelope only through its cumulative
area A(t), so every shape carries a closed form for both the pointwise
value and the area; the latter is what feeds the exact energy formula.
Shapes are immutable dataclasses, and :func:`from_name` maps the
command-line spellings onto constructors.

The catalog:

======================  =========================================  =====================================
name                    f(t)                                       A(t)
======================  =========================================  =====================================
``gaussian``            exp(-t^2/2 tau^2) / sqrt(2 pi tau^2)       (1 + erf(t / sqrt(2) tau)) / 2
``sech``                sech(t/tau) / (pi tau)                     (2/pi) atan(exp(t/tau))
``lorentzian``          (tau/pi) / (t^2 + tau^2)                   1/2 + atan(t/tau) / pi
``poschl-teller``       sech^2(t/tau) / (2 tau)                    (1 + tanh(t/tau)) / 2
``algebraic``           (1 + (t/tau)^2)^(-3/2) / (2 tau)           (1 + (t/tau)/sqrt(1 + (t/tau)^2)) / 2
``delta``               no pointwise value (tau -> 0 limit)        unit step, A(0) = 1/2
======================  =========================================  =====================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import erf

__all__ = [
    "PULSE_NAMES",
    "Algebraic",
    "DeltaLimit",
    "Gaussian",
    "Lorentzian",
    "PoschlTeller",
    "PulseShape",
    "Sech",
    "UnsupportedPulseError",
    "from_name",
]

_SQRT2 = math.sqrt(2.0)


class UnsupportedPulseError(ValueError):
    """Raised when an operation is undefined for the given pulse shape."""


def _check_tau(tau: float) -> None:
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be a positive finite number, got {tau!r}")


def _finite_t(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    return t


def _area_sentinel(t: float) -> float | None:
    """Map the +-inf sentinels to the area limits, reject NaN."""
    t = float(t)
    if math.isinf(t):
        return 0.0 if t < 0.0 else 1.0
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    return None


class PulseShape:
    """Base class for drive envelopes."""

    def value(self, t: float) -> float:
        """Envelope value f(t), in units of inverse time."""
        raise NotImplementedError

    def area(self, t: float) -> float:
        """Cumulative area A(t) in [0, 1]; accepts +-inf sentinels."""
        raise NotImplementedError


@dataclass(frozen=True)
class Gaussian(PulseShape):
    """Gaussian envelope of width ``tau`` (FWHM 2 sqrt(2 ln 2) tau)."""

    tau: float

    def __post_init__(self) -> None:
        _check_tau(self.tau)

    def value(self, t: float) -> float:
        z = _finite_t(t) / self.tau
        return math.exp(-0.5 * z * z) / (self.tau * math.sqrt(2.0 * math.pi))

    def area(self, t: float) -> float:
        lim = _area_sentinel(t)
        if lim is not None:
            return lim
        return 0.5 * (1.0 + erf(t / (_SQRT2 * self.tau)))


@dataclass(frozen=True)
class Sech(PulseShape):
    """Hyperbolic-secant envelope."""

    tau: float

    def __post_init__(self) -> None:
        _check_tau(self.tau)

    def value(self, t: float) -> float:
        z = abs(_finite_t(t)) / self.tau
        e = math.exp(-z)
        return (2.0 * e / (1.0 + e * e)) / (math.pi * self.tau)

    def area(self, t: float) -> float:
        lim = _area_sentinel(t)
        if lim is not None:
            return lim
        z = t / self.tau
        # atan(exp(z)) via the reflected form for z > 0 keeps exp bounded
        if z <= 0.0:
            return (2.0 / math.pi) * math.atan(math.exp(z))
        return 1.0 - (2.0 / math.pi) * math.atan(math.exp(-z))


@dataclass(frozen=True)
class Lorentzian(PulseShape):
    """Lorentzian envelope; note the heavy 1/t^2 tails."""

    tau: float

    def __post_init__(self) -> None:
        _check_tau(self.tau)

    def value(self, t: float) -> float:
        z = _finite_t(t) / self.tau
        return 1.0 / (math.pi * self.tau * (1.0 + z * z))

    def area(self, t: float) -> float:
        lim = _area_sentinel(t)
        if lim is not None:
            return lim
        return 0.5 + math.atan(t / self.tau) / math.pi


@dataclass(frozen=True)
class PoschlTeller(PulseShape):
    """Squared hyperbolic-secant envelope."""

    tau: float

    def __post_init__(self) -> None:
        _check_tau(self.tau)

    def value(self, t: float) -> float:
        z = abs(_finite_t(t)) / self.tau
        e = math.exp(-z)
        sech = 2.0 * e / (1.0 + e * e)
        return sech * sech / (2.0 * self.tau)

    def area(self, t: float) -> float:
        lim = _area_sentinel(t)
        if lim is not None:
            return lim
        return 0.5 * (1.0 + math.tanh(t / self.tau))


@dataclass(frozen=True)
class Algebraic(PulseShape):
    """Power-law envelope with 1/t^3 tails."""

    tau: float

    def __post_init__(self) -> None:
        _check_tau(self.tau)

    def value(self, t: float) -> float:
        z = _finite_t(t) / self.tau
        return 0.5 / (self.tau * (1.0 + z * z) ** 1.5)

    def area(self, t: float) -> float:
        lim = _area_sentinel(t)
        if lim is not None:
            return lim
        z = t / self.tau
        return 0.5 * (1.0 + z / math.hypot(1.0, z))


@dataclass(frozen=True)
class DeltaLimit(PulseShape):
    """Dirac-delta (tau -> 0) limit of the Gaussian envelope.

    Only the cumulative area survives the limit: a unit step with the
    midpoint convention A(0) = 1/2, which is the pointwise tau -> 0
    limit of the Gaussian area at t = 0.
    """

    def value(self, t: float) -> float:
        raise UnsupportedPulseError(
            "the delta-limit pulse has no pointwise envelope value; "
            "only its cumulative area (area) is defined"
        )

    def area(self, t: float) -> float:
        lim = _area_sentinel(t)
        if lim is not None:
            return lim
        if t < 0.0:
            return 0.0
        if t > 0.0:
            return 1.0
        return 0.5


_FINITE_SHAPES = {
    "gaussian": Gaussian,
    "sech": Sech,
    "lorentzian": Lorentzian,
    "poschl-teller": PoschlTeller,
    "algebraic": Algebraic,
}

PULSE_NAMES = ("gaussian", "delta", "sech", "lorentzian", "poschl-teller", "algebraic")


def from_name(name: str, tau: float | None = None) -> PulseShape:
    """Build a pulse shape from its command-line spelling."""
    key = name.strip().lower()
    if key == "delta":
        return DeltaLimit()
    try:
        cls = _FINITE_SHAPES[key]
    except KeyError:
        raise ValueError(
            f"unknown pulse shape {name!r}; choose from {', '.join(PULSE_NAMES)}"
        ) from None
    if tau is None:
        raise ValueError(f"pulse shape {name!r} needs a width tau")
    return cls(tau)
