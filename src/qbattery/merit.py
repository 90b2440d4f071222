"""Figures of merit of the battery, in closed form.

Stored energy, instantaneous and windowed-average power, charging times
with their weak- and strong-drive asymptotes, the peak-power delay with
its Lambert-W limit, and the twisted quadrature variances.

Conventions: energies scale with omega_b, powers with omega_b / tau,
times with tau. The rotating-frame pair correlator picks up the
lab-frame phase exp(-2 i omega_b t) before any quadrature is formed.
"""

from __future__ import annotations

import math
import sys

from .pulses import DriveParams, Gaussian, UnsupportedPulseError
from .specfun import _newton, _number, _Value, arcsinh, erf, erfinv, lambert_w0

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
    "stored_energy",
]

_SQRT2 = math.sqrt(2.0)
# Half the Gaussian FWHM in units of tau; the averaging window below is
# t in [-this, +this] * tau, roughly +-1.18 tau.
_FWHM_HALF = math.sqrt(2.0 * math.log(2.0))
# The largest zeta whose 2 zeta^2 is finite; peak_power_time refuses more.
_ZETA_MAX = math.sqrt(sys.float_info.max / 2.0)


class QuadratureReport(_Value, derived=("std_product",)):
    """Variances of the twisted quadratures X_theta, P_theta at one instant.

    ``std_product`` = sigma_X sigma_P is derived, not passed: the square
    root of the product while that is finite, else the product of the
    square roots, so variances near 1e170 and beyond do not report inf.
    """

    theta: float
    var_x: float
    var_p: float
    std_product: float

    def __post_init__(self) -> None:
        if not (self.var_x > 0.0 and self.var_p > 0.0):
            raise ValueError(
                f"variances must be positive, got ({self.var_x!r}, {self.var_p!r})"
            )
        product = self.var_x * self.var_p
        if math.isinf(product):
            std = math.sqrt(self.var_x) * math.sqrt(self.var_p)
        else:
            std = math.sqrt(product)
        object.__setattr__(self, "std_product", std)
        if self.std_product < 0.5 - 1e-12:
            raise ValueError(
                f"sigma_X sigma_P = {self.std_product!r} sits below the uncertainty floor 1/2"
            )


class ChargingReport(_Value):
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
    omega_b times the population of :func:`analytic_moments`, bit for
    bit, but without its pair correlator sinh(2 zeta A), which passes
    the largest double from zeta A = 355.2, while the energy does only
    from 355.6. ``t`` = inf gives the full charge omega_b sinh^2(zeta).

    For the Gaussian envelope this reads
    omega_b sinh^2((zeta/2) [1 + erf(t / sqrt(2) tau)]); other shapes go
    through their cumulative area, the delta limit through the unit step.
    """
    return p.omega_b * math.sinh(p.zeta * p.pulse.area(t)) ** 2


def instantaneous_power(p: DriveParams, t: float) -> float:
    """Charging power, the time derivative of the stored energy:
    omega_b zeta f(t) sinh(2 zeta A(t)).

    For the Gaussian envelope this equals
    (omega_b/tau) (zeta / sqrt(2 pi)) sinh(zeta [1 + erf(t / sqrt(2) tau)])
    exp(-t^2 / 2 tau^2), nonnegative and vanishing at both ends.
    """
    return p.omega_b * p.zeta * p.pulse.value(t) * math.sinh(2.0 * p.zeta * p.pulse.area(t))


def charging_time(p: DriveParams, alpha: float) -> ChargingReport:
    """Invert the Gaussian-envelope energy curve at fraction ``alpha``:

    t_alpha = sqrt(2) tau erfinv((2/zeta) arcsinh(sqrt(alpha) sinh(zeta)) - 1).
    """
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
        e_max=stored_energy(p, math.inf),
    )


def charging_time_small_zeta(tau: float, alpha: float) -> float:
    """Weak-drive limit of the charging time: sqrt(2) tau erfinv(2 sqrt(alpha) - 1)."""
    tau = _number("tau", tau, "positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    return _SQRT2 * tau * erfinv(2.0 * math.sqrt(alpha) - 1.0)


def charging_time_large_zeta(tau: float, zeta: float, alpha: float) -> float:
    """Strong-drive nested-logarithm asymptote of the charging time:

    tau sqrt(ln(u / ln u)) with u = 2 zeta^2 / (pi ln^2 alpha).
    """
    tau = _number("tau", tau, "positive")
    zeta = _number("zeta", zeta, "positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    u = 2.0 * zeta * zeta / (math.pi * math.log(alpha) ** 2)
    if u <= 1.0:
        raise ValueError(
            f"inner logarithm not positive (u = {u:.4g} <= 1): the strong-drive "
            f"asymptote does not apply at zeta = {zeta!r}, alpha = {alpha!r}"
        )
    return tau * math.sqrt(math.log(u / math.log(u)))


def peak_power_time(p: DriveParams) -> float:
    """Delay t_P > 0 of the power maximum for the Gaussian envelope.

    Root of the turning-point equation, written in overflow-safe form as

        sqrt(2/pi) zeta tau exp(-t^2 / 2 tau^2) = t tanh(zeta xi(t)),

    with xi(t) = 1 + erf(t / sqrt(2) tau). The left side falls and the
    right side grows on t > 0, so the root is unique. It lies below
    hi = tau (1 + sqrt(W + 1)), W = W(2 zeta^2 / pi), one tau past the
    strong-drive asymptote tau sqrt(W): as e^(-W) = pi W / (2 zeta^2),
    the left side at hi is at most tau sqrt(W) e^(-2), less than the
    right side's hi tanh(zeta). A RuntimeError naming zeta guards that
    bracket. The root is polished by the package's safeguarded Newton
    iteration on the analytic slope, seeded near that asymptote, to
    1e-12 tau absolute plus 1e-12 relative.

    Both sides scale with zeta as zeta -> 0, so t_P tends to
    :func:`peak_power_delay_weak_limit`; below the smallest normal float
    (``sys.float_info.min``, about 2.2e-308) the equation loses its
    precision in subnormal arithmetic, and zeta there is refused. So is
    zeta above sqrt(``sys.float_info.max`` / 2), about 9.48e153, where
    2 zeta^2 overflows.
    """
    pulse = _require_gaussian(p, "peak_power_time")
    if not p.zeta >= sys.float_info.min:
        raise ValueError(
            f"peak_power_time needs zeta >= sys.float_info.min = {sys.float_info.min:.2g}, "
            f"got {p.zeta!r}; below it the turning equation loses its precision"
        )
    if not p.zeta <= _ZETA_MAX:
        raise ValueError(
            f"peak_power_time needs zeta <= sqrt(sys.float_info.max / 2) = {_ZETA_MAX:.3g}, "
            f"got {p.zeta!r}; above it 2 zeta^2 overflows"
        )
    tau = pulse.tau
    c = math.sqrt(2.0 / math.pi) * p.zeta * tau

    def turning(t: float) -> tuple[float, float]:
        # right side minus left side, rising through its root, and its slope
        gauss = math.exp(-0.5 * (t / tau) ** 2)
        th = math.tanh(p.zeta * (1.0 + erf(t / (_SQRT2 * tau))))
        value = t * th - c * gauss
        return value, th + (c * t / tau**2) * gauss * (2.0 - th * th)

    w = lambert_w0(2.0 * p.zeta**2 / math.pi)
    hi = tau * (1.0 + math.sqrt(w + 1.0))
    if not turning(hi)[0] > 0.0:
        raise RuntimeError(f"could not bracket the power maximum for zeta = {p.zeta!r}")
    # Far below the root the Gaussian term dominates and each Newton step
    # gains only about tau^2 / t, so seed near the root: the strong-drive
    # asymptote tau sqrt(w), lifted to the weak limit 0.506 tau
    # (0.506^2 = 0.256) as zeta -> 0.
    seed = tau * math.sqrt(w + 0.256)
    return _newton(turning, 0.0, hi, seed, 1e-12 * tau, 1e-12)


def peak_power_delay_weak_limit() -> float:
    """zeta -> 0 limit of the peak-power delay in units of tau: the root
    of sqrt(2/pi) exp(-x^2/2) = x (1 + erf(x / sqrt(2))), about 0.506."""

    def g(x: float) -> tuple[float, float]:
        gauss = math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x)
        xi = 1.0 + erf(x / _SQRT2)
        return x * xi - gauss, xi + 2.0 * x * gauss

    return _newton(g, 0.0, 2.0, 0.5, xtol=1e-14, rtol=1e-15)


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

    From the moments n, s of :func:`analytic_moments`, with r = 2 zeta A(t)
    and phi = 2 omega_b t + theta:

        var_x = 1/2 + n - sin(phi) |s|
              = [e^r (1 - sin phi) + e^(-r) (1 + sin phi)] / 4,
        var_p = the same with the sign of sin(phi) flipped,

    summed in the second form, whose terms are nonnegative, so a variance
    of order e^(-r) is not lost to cancellation at large r. The product of
    standard deviations touches the 1/2 floor exactly where sin(phi) = ±1.
    """
    r = 2.0 * p.zeta * p.pulse.area(t)
    sin_phi = math.sin(2.0 * p.omega_b * t + theta)
    grow, shrink = math.exp(r), math.exp(-r)
    var_x = 0.25 * (grow * (1.0 - sin_phi) + shrink * (1.0 + sin_phi))
    var_p = 0.25 * (grow * (1.0 + sin_phi) + shrink * (1.0 - sin_phi))
    return QuadratureReport(theta=theta, var_x=var_x, var_p=var_p)


def min_quadrature_variance(p: DriveParams, t: float) -> float:
    """Minimum over theta of var_x at fixed t: exp(-2 zeta A(t)) / 2."""
    return 0.5 * math.exp(-2.0 * p.zeta * p.pulse.area(t))
