"""Drive envelopes f(t): even, unit-area, peaked at t = 0.

The charging dynamics depend on an envelope only through its cumulative
area A(t), so every shape carries a closed form for both the pointwise
value and the area; the latter is what feeds the exact energy formula.
Shapes are immutable value objects, and :func:`from_name` maps the
command-line spellings onto constructors. :class:`DriveParams` pairs a
shape with the battery's level spacing and the drive strength, and is
what every figure of merit and every engine takes.

The contract lives in two base classes, so a shape states only its two
formulas, ``_value(t)`` and ``_area(t)``, on a finite float t:

* :class:`PulseShape` owns the public methods. ``value`` refuses a
  non-finite t; ``area`` refuses NaN and maps the -inf/+inf sentinels
  to 0/1 before the formula sees t.
* Every finite shape inherits its one field, the width ``tau``, and the
  check on it from one frozen base. That check, on ``t`` and on
  :class:`DriveParams`' two numbers too, is the package's one check of
  a number, ``specfun._number``.
* :class:`DeltaLimit` has no width: reading its ``tau`` raises
  :class:`UnsupportedPulseError`. The steppers that step in time read
  the width of the pulse they step, so each refuses the delta limit
  there and points to the closed form, ``analytic_moments``. The
  lossless Fock engine steps in the pulse area instead, so it runs it.

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

from .specfun import _number, _Value, erf

__all__ = [
    "PULSE_NAMES",
    "Algebraic",
    "DeltaLimit",
    "DriveParams",
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


class PulseShape:
    """Base class for drive envelopes; the module docstring states the contract."""

    def value(self, t: float) -> float:
        """Envelope value f(t), in units of inverse time."""
        return self._value(_number("t", t))

    def area(self, t: float) -> float:
        """Cumulative area A(t) in [0, 1]; accepts +-inf sentinels."""
        if t != t:  # NaN, the one value unequal to itself
            raise ValueError("t must not be NaN")
        if t == math.inf or t == -math.inf:
            return 0.0 if t < 0.0 else 1.0
        return self._area(_number("t", t))

    def _value(self, t: float) -> float:
        raise NotImplementedError

    def _area(self, t: float) -> float:
        raise NotImplementedError


class _FinitePulse(PulseShape, _Value):
    """A shape of width ``tau``: a positive finite real, not a bool, stored as a float."""

    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", _number("tau", self.tau, "positive"))


class Gaussian(_FinitePulse):
    """Gaussian envelope of width ``tau`` (FWHM 2 sqrt(2 ln 2) tau)."""

    def _value(self, t: float) -> float:
        z = t / self.tau
        return math.exp(-0.5 * z * z) / (self.tau * math.sqrt(2.0 * math.pi))

    def _area(self, t: float) -> float:
        return 0.5 * (1.0 + erf(t / (_SQRT2 * self.tau)))


class Sech(_FinitePulse):
    """Hyperbolic-secant envelope."""

    def _value(self, t: float) -> float:
        z = abs(t) / self.tau
        e = math.exp(-z)
        return (2.0 * e / (1.0 + e * e)) / (math.pi * self.tau)

    def _area(self, t: float) -> float:
        z = t / self.tau
        # atan(exp(z)) via the reflected form for z > 0 keeps exp bounded
        if z <= 0.0:
            return (2.0 / math.pi) * math.atan(math.exp(z))
        return 1.0 - (2.0 / math.pi) * math.atan(math.exp(-z))


class Lorentzian(_FinitePulse):
    """Lorentzian envelope; note the heavy 1/t^2 tails."""

    def _value(self, t: float) -> float:
        z = t / self.tau
        return 1.0 / (math.pi * self.tau * (1.0 + z * z))

    def _area(self, t: float) -> float:
        return 0.5 + math.atan(t / self.tau) / math.pi


class PoschlTeller(_FinitePulse):
    """Squared hyperbolic-secant envelope."""

    def _value(self, t: float) -> float:
        z = abs(t) / self.tau
        e = math.exp(-z)
        sech = 2.0 * e / (1.0 + e * e)
        return sech * sech / (2.0 * self.tau)

    def _area(self, t: float) -> float:
        return 0.5 * (1.0 + math.tanh(t / self.tau))


class Algebraic(_FinitePulse):
    """Power-law envelope with 1/t^3 tails."""

    def _value(self, t: float) -> float:
        z = t / self.tau
        return 0.5 / (self.tau * (1.0 + z * z) ** 1.5)

    def _area(self, t: float) -> float:
        z = t / self.tau
        return 0.5 * (1.0 + z / math.hypot(1.0, z))


class DeltaLimit(PulseShape, _Value):
    """Dirac-delta (tau -> 0) limit of the Gaussian envelope.

    Only the cumulative area survives the limit: a unit step with the
    midpoint convention A(0) = 1/2, which is the pointwise tau -> 0
    limit of the Gaussian area at t = 0. It has no width, so every
    stepper that steps in time, and reads ``tau``, refuses it there;
    what reads only the area, the closed forms and ``evolve_rwa``,
    takes it.
    """

    @property
    def tau(self) -> float:
        raise UnsupportedPulseError(
            "the delta-limit pulse has no width and cannot be time stepped; "
            "use analytic_moments"
        )

    def _value(self, t: float) -> float:
        raise UnsupportedPulseError(
            "the delta-limit pulse has no pointwise envelope value; "
            "only its cumulative area (area) is defined"
        )

    def _area(self, t: float) -> float:
        if t < 0.0:
            return 0.0
        if t > 0.0:
            return 1.0
        return 0.5


class DriveParams(_Value):
    """Physical parameters of the battery and its quadratic drive.

    Parameters
    ----------
    omega_b : float
        Level spacing of the battery mode, > 0.
    zeta : float
        Dimensionless drive strength, >= 0.
    pulse : PulseShape
        Envelope of the drive, on the resonant carrier cos(2 omega_b t);
        only :func:`qbattery.fock.evolve_full` takes a detuned one.
    """

    omega_b: float
    zeta: float
    pulse: PulseShape

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega_b", _number("omega_b", self.omega_b, "positive"))
        object.__setattr__(self, "zeta", _number("zeta", self.zeta, "nonnegative"))
        if not isinstance(self.pulse, PulseShape):
            raise TypeError(f"pulse must be a PulseShape, got {type(self.pulse).__name__}")


_FINITE_SHAPES = {
    "gaussian": Gaussian,
    "sech": Sech,
    "lorentzian": Lorentzian,
    "poschl-teller": PoschlTeller,
    "algebraic": Algebraic,
}

PULSE_NAMES = ("gaussian", "delta", "sech", "lorentzian", "poschl-teller", "algebraic")


def from_name(name: str, tau: float) -> PulseShape:
    """Build a pulse shape of width ``tau`` from its command-line
    spelling; ``delta`` drops a valid ``tau``."""
    key = name.strip().lower()
    if key == "delta":
        _FinitePulse(tau)  # the width check of every shape
        return DeltaLimit()
    try:
        cls = _FINITE_SHAPES[key]
    except KeyError:
        raise ValueError(
            f"unknown pulse shape {name!r}; choose from {', '.join(PULSE_NAMES)}"
        ) from None
    return cls(tau)
