"""Two-photon charging of a bosonic quantum battery.

A single harmonic mode driven through its pair ladder (b†b† + bb) by a
unit-area pulse charges exponentially: the stored energy follows
omega_b sinh^2(zeta A(t)) where A is the accumulated pulse area. This
package provides the closed-form figures of merit, the second-moment
equations of motion with an adaptive integrator, an independent
truncated Fock-space verification engine (unitary, carrier-resolved and
lossy), and a CLI that emits all of it as machine-readable tables.
"""

from .dynamics import (
    ODE_ACCURACY,
    VACUUM,
    DriveParams,
    IntegrationError,
    MomentState,
    MomentTrajectory,
    analytic_moments,
    integrate_moments,
)
from .fock import (
    FOCK_ACCURACY,
    FockDensity,
    FockTrajectory,
    FockVector,
    LINDBLAD_ACCURACY,
    TruncationError,
    choose_truncation,
    ergotropy,
    evolve_full,
    evolve_lindblad,
    evolve_rwa,
    quadrature_variances_from_state,
)
from .merit import (
    ChargingReport,
    QuadratureReport,
    average_power_fwhm,
    charging_time,
    charging_time_large_zeta,
    charging_time_small_zeta,
    instantaneous_power,
    min_quadrature_variance,
    peak_power_delay_weak_limit,
    peak_power_estimate,
    peak_power_time,
    quadrature_variances,
    quadrature_variances_from_moments,
    stored_energy,
)
from .pulses import (
    PULSE_NAMES,
    Algebraic,
    DeltaLimit,
    Gaussian,
    Lorentzian,
    PoschlTeller,
    PulseShape,
    Sech,
    UnsupportedPulseError,
    from_name,
)
from .specfun import Accuracy, arcsinh, debruijn_w_approx, erf, erfinv, lambert_w0

__version__ = "0.1.0"

__all__ = [
    "Accuracy",
    "Algebraic",
    "ChargingReport",
    "DeltaLimit",
    "DriveParams",
    "FOCK_ACCURACY",
    "FockDensity",
    "FockTrajectory",
    "FockVector",
    "Gaussian",
    "IntegrationError",
    "LINDBLAD_ACCURACY",
    "Lorentzian",
    "MomentState",
    "MomentTrajectory",
    "ODE_ACCURACY",
    "PULSE_NAMES",
    "PoschlTeller",
    "PulseShape",
    "QuadratureReport",
    "Sech",
    "TruncationError",
    "UnsupportedPulseError",
    "VACUUM",
    "analytic_moments",
    "arcsinh",
    "average_power_fwhm",
    "charging_time",
    "charging_time_large_zeta",
    "charging_time_small_zeta",
    "choose_truncation",
    "debruijn_w_approx",
    "erf",
    "erfinv",
    "ergotropy",
    "evolve_full",
    "evolve_lindblad",
    "evolve_rwa",
    "from_name",
    "instantaneous_power",
    "integrate_moments",
    "lambert_w0",
    "min_quadrature_variance",
    "peak_power_delay_weak_limit",
    "peak_power_estimate",
    "peak_power_time",
    "quadrature_variances",
    "quadrature_variances_from_moments",
    "quadrature_variances_from_state",
    "stored_energy",
    "__version__",
]
