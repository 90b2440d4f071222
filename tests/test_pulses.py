"""Pulse catalog: normalization, symmetry, areas and the delta limit."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from qbattery.pulses import (
    PULSE_NAMES,
    Algebraic,
    DeltaLimit,
    Gaussian,
    Lorentzian,
    PoschlTeller,
    Sech,
    UnsupportedPulseError,
    from_name,
)

from oracles import central_difference

FINITE_SHAPES = [Gaussian, Sech, Lorentzian, PoschlTeller, Algebraic]


@pytest.mark.parametrize("cls", FINITE_SHAPES)
@pytest.mark.parametrize("tau", [0.3, 1.0, 2.7])
def test_unit_area(cls, tau):
    shape = cls(tau)
    total, _ = quad(shape.value, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("cls", FINITE_SHAPES)
def test_even_and_peaked_at_zero(cls):
    shape = cls(1.3)
    peak = shape.value(0.0)
    for t in np.linspace(0.05, 12.0, 80):
        t = float(t)
        assert shape.value(t) == pytest.approx(shape.value(-t), rel=1e-13)
        assert shape.value(t) <= peak
        assert shape.value(t) >= 0.0


@pytest.mark.parametrize("cls", FINITE_SHAPES)
def test_area_limits_and_monotonicity(cls):
    shape = cls(0.8)
    assert shape.area(-math.inf) == 0.0
    assert shape.area(math.inf) == 1.0
    grid = np.linspace(-25.0, 25.0, 301)
    areas = [shape.area(float(t)) for t in grid]
    assert all(0.0 <= a <= 1.0 for a in areas)
    assert all(b >= a for a, b in zip(areas, areas[1:]))
    assert shape.area(0.0) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("cls", FINITE_SHAPES)
@pytest.mark.parametrize("tau", [0.5, 1.0, 3.0])
def test_area_derivative_is_envelope(cls, tau):
    shape = cls(tau)
    for t in np.linspace(-4.0 * tau, 4.0 * tau, 41):
        t = float(t)
        fd = central_difference(shape.area, t, 1e-5 * tau)
        assert fd == pytest.approx(shape.value(t), abs=1e-6 / tau, rel=1e-6)


class TestGaussian:
    def test_peak_value(self):
        # f(0) = 1 / sqrt(2 pi tau^2)
        for tau in (0.2, 1.0, 5.0):
            assert Gaussian(tau).value(0.0) == pytest.approx(
                1.0 / math.sqrt(2.0 * math.pi * tau * tau), rel=1e-15
            )

    def test_fwhm(self):
        # half height at +-sqrt(2 ln 2) tau, total width ~ 2.35 tau
        tau = 1.7
        shape = Gaussian(tau)
        half_width = math.sqrt(2.0 * math.log(2.0)) * tau
        assert shape.value(half_width) == pytest.approx(shape.value(0.0) / 2.0, rel=1e-13)
        assert shape.value(-half_width) == pytest.approx(shape.value(0.0) / 2.0, rel=1e-13)
        assert 2.0 * half_width == pytest.approx(2.35 * tau, abs=0.01 * tau)

    def test_value_at_three_tau(self):
        # e^{-4.5} / sqrt(2 pi), frozen from direct evaluation
        assert Gaussian(1.0).value(3.0) == pytest.approx(0.0044318484119380075, rel=1e-14)

    def test_area_values(self):
        shape = Gaussian(1.0)
        assert shape.area(0.0) == 0.5
        # (1/2)(1 + erf(1/sqrt 2)), frozen from the erf oracle
        assert shape.area(1.0) == pytest.approx(0.8413447460685429, abs=1e-14)

    def test_delta_limit_pointwise(self):
        shape = Gaussian(1e-4)
        assert abs(shape.area(0.01) - 1.0) < 1e-6
        assert abs(shape.area(-0.01) - 0.0) < 1e-6


class TestDeltaLimit:
    def test_no_pointwise_value(self):
        with pytest.raises(UnsupportedPulseError):
            DeltaLimit().value(0.0)

    def test_step_area(self):
        shape = DeltaLimit()
        assert shape.area(-1e-12) == 0.0
        assert shape.area(0.0) == 0.5
        assert shape.area(1e-12) == 1.0
        assert shape.area(-math.inf) == 0.0
        assert shape.area(math.inf) == 1.0


class TestSech:
    def test_midpoint(self):
        assert Sech(2.0).area(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_no_overflow_far_out(self):
        shape = Sech(1.0)
        assert shape.value(1e4) == 0.0
        assert shape.area(1e4) == 1.0
        assert shape.area(-1e4) == 0.0


def test_algebraic_area_far_out():
    shape = Algebraic(1.0)
    assert shape.area(1e200) == pytest.approx(1.0, abs=1e-15)
    assert shape.area(-1e200) == pytest.approx(0.0, abs=1e-15)


class TestConstruction:
    @pytest.mark.parametrize("cls", FINITE_SHAPES)
    @pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan, True, "0.5"])
    def test_tau_validation(self, cls, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            cls(tau)
        # a bool is refused although it is an int, and a str although it
        # parses; any other real is a width, stored as a float
        for width in (np.int64(2), np.float64(2.0)):
            shape = cls(width)
            assert shape.tau == 2.0 and type(shape.tau) is float

    def test_from_name(self):
        assert isinstance(from_name("gaussian", 1.0), Gaussian)
        assert isinstance(from_name("delta", 1.0), DeltaLimit)
        assert isinstance(from_name("poschl-teller", 0.5), PoschlTeller)
        with pytest.raises(ValueError):
            from_name("triangle", 1.0)

    def test_registry_covers_all_names(self):
        for name in PULSE_NAMES:
            shape = from_name(name, 1.0)
            assert shape.area(math.inf) == 1.0

    def test_value_rejects_nonfinite_t(self):
        # the contract lives in the base class, so it holds for every shape
        for name in PULSE_NAMES:
            shape = from_name(name, 1.0)
            for t in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match="t must be finite"):
                    shape.value(t)
            with pytest.raises(ValueError, match="t must not be NaN"):
                shape.area(math.nan)
            assert shape.area(-math.inf) == 0.0
            assert shape.area(math.inf) == 1.0
            assert shape.area(np.float64(-math.inf)) == 0.0
            # a str or a bool is not an instant, whatever it parses as
            for t in ("0.5", True):
                for method in (shape.area, shape.value):
                    with pytest.raises(ValueError, match=f"^t must be finite, got {t!r}$"):
                        method(t)
            # a numpy scalar is, and gives the value its float gives
            for t in (np.float64(0.5), np.int64(1)):
                assert shape.area(t) == shape.area(float(t))
                assert type(shape.area(t)) is float
            if name != "delta":
                assert shape.value(np.int64(1)) == shape.value(1.0)
