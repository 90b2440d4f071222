"""Figures of merit of the battery, in closed form.

Stored energy, instantaneous and windowed-average power, charging times
with their weak- and strong-drive asymptotes, the peak-power delay with
its Lambert-W limit, and the twisted quadrature variances.

Conventions: energies scale with omega_b, powers with omega_b / tau,
times with tau. The rotating-frame pair correlator picks up the
lab-frame phase exp(-2 i omega_b t) before any quadrature is formed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .dynamics import DriveParams, MomentState, analytic_moments, require_resonant
from .pulses import Gaussian, UnsupportedPulseError
from .specfun import Accuracy, arcsinh, brentq, erf, erfinv, lambert_w0

__all__ = [
    "ChargingReport",
    "QuadratureReport",
    "average_power_fwhm",
    "charging_time",
    "charging_time_large_zeta",
    "charging_time_small_zeta",
    "instantaneous_power",
    "min_quadrature_variance",
    "peak_power_delay_weak_limit",
    "peak_power_estimate",
    "peak_power_time",
    "quadrature_variances",
    "quadrature_variances_from_moments",
    "stored_energy",
]

_SQRT2 = math.sqrt(2.0)
# Half the Gaussian FWHM in units of tau; the averaging window below is
# t in [-this, +this] * tau, roughly +-1.18 tau.
_FWHM_HALF = math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class QuadratureReport:
    """Variances of the twisted quadratures X_theta, P_theta at one instant."""

    theta: float
    var_x: float
    var_p: float
    std_product: float

    def __post_init__(self) -> None:
        if not (self.var_x > 0.0 and self.var_p > 0.0):
            raise ValueError(
                f"variances must be positive, got ({self.var_x!r}, {self.var_p!r})"
            )
        if self.std_product < 0.5 - 1e-12:
            raise ValueError(
                f"sigma_X sigma_P = {self.std_product!r} sits below the uncertainty floor 1/2"
            )


@dataclass(frozen=True)
class ChargingReport:
    """Time at which the stored energy reaches the fraction ``alpha`` of
    its asymptotic maximum ``e_max`` = omega_b sinh^2(zeta)."""

    t_alpha: float
    alpha: float
    e_max: float


def _require_gaussian(p: DriveParams, what: str) -> Gaussian:
    if not isinstance(p.pulse, Gaussian):
        raise UnsupportedPulseError(
            f"{what} is a Gaussian-envelope closed form; got {type(p.pulse).__name__}"
        )
    return p.pulse


def stored_energy(p: DriveParams, t: float) -> float:
    """Energy omega_b sinh^2(zeta A(t)) held by the battery at time t:
    omega_b times the population of :func:`analytic_moments`.

    For the Gaussian envelope this reads
    omega_b sinh^2((zeta/2) [1 + erf(t / sqrt(2) tau)]); other shapes go
    through their cumulative area, the delta limit through the unit step.
    """
    return p.omega_b * analytic_moments(p, t).n


def instantaneous_power(p: DriveParams, t: float) -> float:
    """Charging power, the time derivative of the stored energy:
    omega_b zeta f(t) sinh(2 zeta A(t)).

    For the Gaussian envelope this equals
    (omega_b/tau) (zeta / sqrt(2 pi)) sinh(zeta [1 + erf(t / sqrt(2) tau)])
    exp(-t^2 / 2 tau^2), nonnegative and vanishing at both ends.
    """
    require_resonant(p)
    return p.omega_b * p.zeta * p.pulse.value(t) * math.sinh(2.0 * p.zeta * p.pulse.area(t))


def charging_time(p: DriveParams, alpha: float) -> ChargingReport:
    """Invert the Gaussian-envelope energy curve at fraction ``alpha``:

    t_alpha = sqrt(2) tau erfinv((2/zeta) arcsinh(sqrt(alpha) sinh(zeta)) - 1).
    """
    require_resonant(p)
    pulse = _require_gaussian(p, "charging_time")
    if not 0.0 < alpha < 1.0:
        raise ValueError(
            f"alpha must lie strictly inside (0, 1), got {alpha!r}; "
            "the full charge is reached only as t -> infinity"
        )
    if p.zeta <= 0.0:
        raise ValueError("charging_time needs zeta > 0")
    q = (2.0 / p.zeta) * arcsinh(math.sqrt(alpha) * math.sinh(p.zeta)) - 1.0
    return ChargingReport(
        t_alpha=_SQRT2 * pulse.tau * erfinv(q),
        alpha=alpha,
        e_max=p.omega_b * math.sinh(p.zeta) ** 2,
    )


def charging_time_small_zeta(tau: float, alpha: float) -> float:
    """Weak-drive limit of the charging time: sqrt(2) tau erfinv(2 sqrt(alpha) - 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    return _SQRT2 * tau * erfinv(2.0 * math.sqrt(alpha) - 1.0)


def charging_time_large_zeta(tau: float, zeta: float, alpha: float) -> float:
    """Strong-drive nested-logarithm asymptote of the charging time:

    tau sqrt(ln(u / ln u)) with u = 2 zeta^2 / (pi ln^2 alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    if zeta <= 0.0:
        raise ValueError(f"zeta must be positive, got {zeta!r}")
    u = 2.0 * zeta * zeta / (math.pi * math.log(alpha) ** 2)
    if u <= 1.0:
        raise ValueError(
            f"inner logarithm not positive (u = {u:.4g} <= 1): the strong-drive "
            f"asymptote does not apply at zeta = {zeta!r}, alpha = {alpha!r}"
        )
    return tau * math.sqrt(math.log(u / math.log(u)))


def peak_power_time(p: DriveParams, acc: Accuracy | None = None) -> float:
    """Delay t_P > 0 of the power maximum for the Gaussian envelope.

    Root of the turning-point equation, written in overflow-safe form as

        sqrt(2/pi) zeta tau exp(-t^2 / 2 tau^2) = t tanh(zeta xi(t)),

    with xi(t) = 1 + erf(t / sqrt(2) tau). The left side falls and the
    right side grows on t > 0, so the root is unique; it is bracketed by
    the strong-drive Lambert-W asymptote plus one tau of slack and
    polished by :func:`qbattery.specfun.brentq`, the package's port of
    scipy's Brent solver (same iterates, same float).
    """
    require_resonant(p)
    pulse = _require_gaussian(p, "peak_power_time")
    if p.zeta <= 0.0:
        raise ValueError("peak_power_time needs zeta > 0")
    if acc is None:
        acc = Accuracy()
    tau = pulse.tau
    c = math.sqrt(2.0 / math.pi) * p.zeta * tau

    def turning(t: float) -> float:
        xi = 1.0 + erf(t / (_SQRT2 * tau))
        return c * math.exp(-0.5 * (t / tau) ** 2) - t * math.tanh(p.zeta * xi)

    hi = tau * (1.0 + math.sqrt(lambert_w0(2.0 * p.zeta**2 / math.pi) + 1.0))
    for _ in range(60):
        if turning(hi) < 0.0:
            break
        hi *= 1.5
    else:
        raise RuntimeError(
            f"could not bracket the power maximum for zeta = {p.zeta!r}"
        )
    return brentq(turning, 0.0, hi, xtol=acc.abs_tol * tau, rtol=max(acc.rel_tol, 1e-15))


def peak_power_delay_weak_limit(tau: float = 1.0) -> float:
    """zeta -> 0 limit of the peak-power delay: tau times the root of
    sqrt(2/pi) exp(-x^2/2) = x (1 + erf(x / sqrt(2))), about 0.506."""

    def g(x: float) -> float:
        return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x) - x * (1.0 + erf(x / _SQRT2))

    return tau * brentq(g, 0.0, 2.0, xtol=1e-14, rtol=1e-15)


def peak_power_estimate(p: DriveParams) -> float:
    """Strong-drive estimate of the maximum power:

    (omega_b / tau) (e^(2 (zeta - 1/3)) / 4) sqrt(W(2 zeta^2 / pi)).

    Meaningful for zeta of order one and above; the caller judges the
    regime.
    """
    pulse = _require_gaussian(p, "peak_power_estimate")
    return (
        (p.omega_b / pulse.tau)
        * 0.25
        * math.exp(2.0 * (p.zeta - 1.0 / 3.0))
        * math.sqrt(lambert_w0(2.0 * p.zeta**2 / math.pi))
    )


def average_power_fwhm(p: DriveParams) -> float:
    """Stored energy gained across the envelope's full width at half
    maximum, divided by that width:

    omega_b sinh(zeta) sinh(zeta erf(sqrt(ln 2))) / (2 sqrt(2 ln 2) tau),

    identical to [E(t+) - E(t-)] / (t+ - t-) with t± = ±sqrt(2 ln 2) tau.
    """
    require_resonant(p)
    pulse = _require_gaussian(p, "average_power_fwhm")
    e = erf(math.sqrt(math.log(2.0)))
    return (
        p.omega_b
        * math.sinh(p.zeta)
        * math.sinh(p.zeta * e)
        / (2.0 * _FWHM_HALF * pulse.tau)
    )


def quadrature_variances(p: DriveParams, t: float, theta: float) -> QuadratureReport:
    """Lab-frame variances of the twisted quadratures at time t.

    From the moments n, s of :func:`analytic_moments`, with r = 2 zeta A(t):

        var_x = 1/2 + n - sin(2 omega_b t + theta) |s|
              = 1/2 + sinh^2(r/2) - sin(2 omega_b t + theta) sinh(r) / 2,
        var_p = the same with the opposite sign,

    and the product of standard deviations touches the 1/2 floor exactly
    where sin(2 omega_b t + theta) = ±1.
    """
    m = analytic_moments(p, t)
    base = 0.5 + m.n
    split = math.sin(2.0 * p.omega_b * t + theta) * abs(m.s)
    var_x = base - split
    var_p = base + split
    return QuadratureReport(
        theta=theta, var_x=var_x, var_p=var_p, std_product=math.sqrt(var_x * var_p)
    )


def quadrature_variances_from_moments(
    state: MomentState, omega_b: float, t: float, theta: float
) -> QuadratureReport:
    """The same report built from arbitrary rotating-frame moments:

    var_x = 1/2 + n + Re(e^(-i (2 omega_b t + theta)) s), var_p with -Re.
    """
    corr = (cmath.exp(-1j * (2.0 * omega_b * t + theta)) * state.s).real
    var_x = 0.5 + state.n + corr
    var_p = 0.5 + state.n - corr
    return QuadratureReport(
        theta=theta, var_x=var_x, var_p=var_p, std_product=math.sqrt(var_x * var_p)
    )


def min_quadrature_variance(p: DriveParams, t: float) -> float:
    """Minimum over theta of var_x at fixed t: exp(-2 zeta A(t)) / 2."""
    require_resonant(p)
    return 0.5 * math.exp(-2.0 * p.zeta * p.pulse.area(t))
