"""Every number a public function takes is held to one rule, ``specfun._number``.

The table pairs each public function with each of its number parameters;
a grid's number is one of its instants. Each entry is called with every
value below, one parameter spoiled at a time, and must raise a
``ValueError`` whose message starts with that parameter's name. An
engine's ladder size ``dim`` is a count: it is in the table too, held by
``fock._levels`` to an integer, so that a float, a str and a bool are
refused by its name as well.
"""

import math

import numpy as np
import pytest

from qbattery.dynamics import analytic_moments, integrate_moments, lossy_moments
from qbattery.fock import (
    FockDensity,
    FockVector,
    choose_truncation,
    ergotropy,
    evolve_full,
    evolve_lindblad,
    evolve_rwa,
    frame_truncation,
    quadrature_variances_from_state,
)
from qbattery.merit import (
    charging_time,
    charging_time_large_zeta,
    charging_time_small_zeta,
    instantaneous_power,
    min_quadrature_variance,
    quadrature_variances,
    stored_energy,
)
from qbattery.pulses import Algebraic, DriveParams, Gaussian, Lorentzian, PoschlTeller, Sech, from_name
from qbattery.specfun import Accuracy, arcsinh, debruijn_w_approx, erf, erfinv, lambert_w0

# A numeric string, a bool of each kind, and NaN: none of them is a number
BAD = ["0.5", True, np.True_, math.nan]

P = DriveParams(1.0, 1.0, Gaussian(1.0))
VACUUM = FockVector([1.0, 0.0, 0.0, 0.0])


# (entry, parameter, call with the spoiled value)
TABLE = [
    ("erf", "x", erf),
    ("erfinv", "p", erfinv),
    ("lambert_w0", "x", lambert_w0),
    ("debruijn_w_approx", "u", debruijn_w_approx),
    ("arcsinh", "x", arcsinh),
    ("Accuracy", "abs_tol", lambda x: Accuracy(x, 1e-12)),
    ("Accuracy", "rel_tol", lambda x: Accuracy(1e-12, x)),
    *[(shape.__name__, "tau", shape) for shape in (Gaussian, Sech, Lorentzian, PoschlTeller, Algebraic)],
    ("from_name", "tau", lambda x: from_name("gaussian", x)),
    ("from_name-delta", "tau", lambda x: from_name("delta", x)),
    ("value", "t", Gaussian(1.0).value),
    ("area", "t", Gaussian(1.0).area),
    ("DriveParams", "omega_b", lambda x: DriveParams(x, 1.0, Gaussian(1.0))),
    ("DriveParams", "zeta", lambda x: DriveParams(1.0, x, Gaussian(1.0))),
    ("analytic_moments", "t", lambda x: analytic_moments(P, x)),
    ("analytic_moments", "t_start", lambda x: analytic_moments(P, 0.0, x)),
    ("integrate_moments", "times", lambda x: integrate_moments(P, [0.0, x])),
    ("integrate_moments", "kappa", lambda x: integrate_moments(P, [0.0, 1.0], kappa=x)),
    ("lossy_moments", "kappa", lambda x: lossy_moments(P, x, [0.0, 1.0])),
    ("lossy_moments", "times", lambda x: lossy_moments(P, 0.1, [0.0, x])),
    ("stored_energy", "t", lambda x: stored_energy(P, x)),
    ("instantaneous_power", "t", lambda x: instantaneous_power(P, x)),
    ("charging_time", "alpha", lambda x: charging_time(P, x)),
    ("charging_time_small_zeta", "tau", lambda x: charging_time_small_zeta(x, 0.5)),
    ("charging_time_small_zeta", "alpha", lambda x: charging_time_small_zeta(1.0, x)),
    ("charging_time_large_zeta", "tau", lambda x: charging_time_large_zeta(x, 5.0, 0.5)),
    ("charging_time_large_zeta", "zeta", lambda x: charging_time_large_zeta(1.0, x, 0.5)),
    ("charging_time_large_zeta", "alpha", lambda x: charging_time_large_zeta(1.0, 5.0, x)),
    ("quadrature_variances", "t", lambda x: quadrature_variances(P, x, 0.0)),
    ("quadrature_variances", "theta", lambda x: quadrature_variances(P, 0.0, x)),
    ("min_quadrature_variance", "t", lambda x: min_quadrature_variance(P, x)),
    ("choose_truncation", "r", lambda x: choose_truncation(x, 1e-8)),
    ("choose_truncation", "tail_tol", lambda x: choose_truncation(1.0, x)),
    ("frame_truncation", "kappa", lambda x: frame_truncation(P, x, [0.0, 1.0], 1e-8)),
    ("frame_truncation", "times", lambda x: frame_truncation(P, 0.1, [0.0, x], 1e-8)),
    ("frame_truncation", "tail_tol", lambda x: frame_truncation(P, 0.1, [0.0, 1.0], x)),
    ("evolve_rwa", "times", lambda x: evolve_rwa(P, 6, [0.0, x])),
    ("evolve_rwa", "dim", lambda x: evolve_rwa(P, x, [0.0, 1.0])),
    ("evolve_full", "omega_d", lambda x: evolve_full(P, 6, [0.0, 1.0], omega_d=x)),
    ("evolve_full", "times", lambda x: evolve_full(P, 6, [0.0, x])),
    ("evolve_full", "dim", lambda x: evolve_full(P, x, [0.0, 1.0])),
    ("evolve_lindblad", "kappa", lambda x: evolve_lindblad(P, x, 6, [0.0, 1.0])),
    ("evolve_lindblad", "times", lambda x: evolve_lindblad(P, 0.1, 6, [0.0, x])),
    ("evolve_lindblad", "dim", lambda x: evolve_lindblad(P, 0.1, x, [0.0, 1.0])),
    ("ergotropy", "omega_b", lambda x: ergotropy(VACUUM, x)),
    ("quadrature_variances_from_state", "theta", lambda x: quadrature_variances_from_state(VACUUM, x)),
    ("quadrature_variances_from_state", "omega_b", lambda x: quadrature_variances_from_state(VACUUM, 0.0, x)),
    ("quadrature_variances_from_state", "t", lambda x: quadrature_variances_from_state(VACUUM, 0.0, 1.0, x)),
    ("FockDensity", "theta", lambda x: FockDensity(np.diag([1.0, 0.0]), x)),
]


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize(
    "name, call", [row[1:] for row in TABLE], ids=[f"{entry}-{name}" for entry, name, _ in TABLE]
)
def test_every_number_is_refused_by_its_name(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must "):
        call(bad)


@pytest.mark.parametrize("t", [math.inf, -math.inf])
def test_quadrature_variances_needs_a_finite_time(t):
    # the phase 2 omega_b t + theta has no value at an infinite time
    with pytest.raises(ValueError, match=rf"^t must be finite, got {t!r}$"):
        quadrature_variances(P, t, 0.0)


def test_analytic_moments_starts_at_a_finite_time_or_the_vacuum_boundary():
    # t_start = -inf is the default vacuum boundary; +inf names no start
    assert analytic_moments(P, 0.0, -math.inf) == analytic_moments(P, 0.0)
    with pytest.raises(ValueError, match=r"^t_start must be finite, got inf$"):
        analytic_moments(P, 0.0, math.inf)

