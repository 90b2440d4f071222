"""Value semantics shared by the package's eleven immutable types.

Each type is built from its fields by position or keyword, compares
equal only to its own class field by field, hashes its fields, prints as
``Name(field=value, ...)``, refuses assignment and deletion, and
survives pickle and ``deepcopy``. The array-holding types cannot compare
or hash their fields, so for them only freezing and pickling are checked.
"""

import copy
import pickle

import numpy as np
import pytest

from qbattery.dynamics import MomentState, MomentTrajectory
from qbattery.fock import FockDensity, FockTrajectory, FockVector
from qbattery.merit import ChargingReport, QuadratureReport
from qbattery.pulses import (
    Algebraic,
    DeltaLimit,
    DriveParams,
    Gaussian,
    Lorentzian,
    PoschlTeller,
    Sech,
)
from qbattery.specfun import Accuracy

# (type, arguments, fields, repr)
SCALAR_VALUES = [
    (Accuracy, (1e-9, 1e-7), ("abs_tol", "rel_tol"), "Accuracy(abs_tol=1e-09, rel_tol=1e-07)"),
    (Gaussian, (1.0,), ("tau",), "Gaussian(tau=1.0)"),
    (DeltaLimit, (), (), "DeltaLimit()"),
    (
        DriveParams,
        (1.0, 0.5, Gaussian(1.0)),
        ("omega_b", "zeta", "pulse"),
        "DriveParams(omega_b=1.0, zeta=0.5, pulse=Gaussian(tau=1.0))",
    ),
    (
        QuadratureReport,
        (0.25, 0.5, 2.0),
        ("theta", "var_x", "var_p", "std_product"),
        "QuadratureReport(theta=0.25, var_x=0.5, var_p=2.0, std_product=1.0)",
    ),
    (
        ChargingReport,
        (1.5, 0.9, 1.25),
        ("t_alpha", "alpha", "e_max"),
        "ChargingReport(t_alpha=1.5, alpha=0.9, e_max=1.25)",
    ),
    (MomentState, (0.5, 0.25j), ("n", "s"), "MomentState(n=0.5, s=0.25j)"),
]
SCALAR_IDS = [cls.__name__ for cls, *_ in SCALAR_VALUES]
WITH_FIELDS = [value for value in SCALAR_VALUES if value[1]]


def _array_values():
    """One instance of each array-holding type, with its field names."""
    vec = FockVector([1.0, 0.0])
    grid = np.zeros(1)
    return [
        (MomentTrajectory([0.0], [0.0], [0j]), ("times", "n", "s")),
        (vec, ("amp",)),
        (FockDensity(np.eye(2) / 2), ("matrix", "theta")),
        (
            FockTrajectory(grid, grid, grid + 0j, grid + 0.5, grid, grid, 0.0, vec),
            ("times", "n", "s", "var_x_min", "tail_mass", "odd_mass", "norm_drift", "final_state"),
        ),
    ]


@pytest.mark.parametrize("cls, args, fields, text", SCALAR_VALUES, ids=SCALAR_IDS)
def test_equal_and_hashed_by_fields(cls, args, fields, text):
    a, b = cls(*args), cls(**dict(zip(fields, args)))
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != text and a != args


def test_shapes_of_equal_width_differ():
    assert Gaussian(1.0) != Sech(1.0)
    assert Gaussian(1.0) != Gaussian(2.0)
    assert len({Gaussian(1.0), Gaussian(1), Sech(1.0), DeltaLimit(), DeltaLimit()}) == 3


@pytest.mark.parametrize("cls, args, fields, text", SCALAR_VALUES, ids=SCALAR_IDS)
def test_repr(cls, args, fields, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize(
    "value, text",
    [
        (Sech(2), "Sech(tau=2.0)"),
        (Lorentzian(0.5), "Lorentzian(tau=0.5)"),
        (PoschlTeller(1.5), "PoschlTeller(tau=1.5)"),
        (Algebraic(3.0), "Algebraic(tau=3.0)"),
    ],
)
def test_repr_of_every_finite_shape(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("cls, args, fields, text", SCALAR_VALUES, ids=SCALAR_IDS)
def test_fields_are_frozen(cls, args, fields, text):
    value = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("cls, args, fields, text", SCALAR_VALUES, ids=SCALAR_IDS)
def test_pickle_and_deepcopy_round_trip(cls, args, fields, text):
    value = cls(*args)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


@pytest.mark.parametrize(
    "cls, args, fields, text", WITH_FIELDS, ids=[cls.__name__ for cls, *_ in WITH_FIELDS]
)
def test_missing_field_is_named(cls, args, fields, text):
    with pytest.raises(TypeError, match=repr(fields[len(args) - 1])):
        cls(*args[:-1])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Accuracy(1e-12, 1e-12, 1e-12), TypeError, "Accuracy() takes 2 arguments but 3 were given"),
        (lambda: DriveParams(1.0, 1.0, "gaussian"), TypeError, "pulse must be a PulseShape, got str"),
        (lambda: MomentTrajectory([0.0, 1.0, 2.0], [0.0, 0.0], [0j] * 3), ValueError, "times, n and s must have equal length"),
        (lambda: FockVector([]), ValueError, "amp must be a nonempty 1-D complex array"),
        (lambda: FockVector([[1.0]]), ValueError, "amp must be a nonempty 1-D complex array"),
        (lambda: FockDensity(np.ones((2, 3))), ValueError, "matrix must be square and nonempty"),
    ],
    ids=["Accuracy-three", "DriveParams-str", "MomentTrajectory-lengths", "FockVector-empty", "FockVector-2d", "FockDensity-oblong"],
)
def test_unusable_fields_are_refused(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_density_theta_defaults_to_zero():
    assert FockDensity(np.eye(2) / 2).theta == 0.0
    assert FockDensity(matrix=np.eye(2) / 2, theta=0.5).theta == 0.5


@pytest.mark.parametrize(
    "index", range(4), ids=["MomentTrajectory", "FockVector", "FockDensity", "FockTrajectory"]
)
def test_array_values_are_frozen_and_pickle(index):
    value, fields = _array_values()[index]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    twin = pickle.loads(pickle.dumps(value))
    assert type(twin) is type(value)
    for name in fields:
        mine, theirs = getattr(value, name), getattr(twin, name)
        if isinstance(mine, FockVector):
            mine, theirs = mine.amp, theirs.amp
        assert np.array_equal(mine, theirs)


def test_density_spectrum_is_cached_and_pickled():
    rho = FockDensity(np.diag([0.75, 0.25]))
    lam = rho.eigenvalues
    assert rho.eigenvalues is lam and not lam.flags.writeable
    twin = pickle.loads(pickle.dumps(rho))
    assert np.array_equal(twin.eigenvalues, lam)
    assert repr(twin) == repr(rho)
