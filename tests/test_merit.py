"""Figures of merit: energies, powers, charging times, quadratures."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from qbattery.dynamics import DriveParams
from qbattery.merit import (
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
    stored_energy,
)
from qbattery.pulses import DeltaLimit, Gaussian, Sech, UnsupportedPulseError
from qbattery.specfun import lambert_w0

from oracles import central_difference


def gauss_params(zeta, tau=1.0, omega_b=1.0):
    return DriveParams(omega_b=omega_b, zeta=zeta, pulse=Gaussian(tau))


class TestStoredEnergy:
    def test_limits(self):
        p = gauss_params(1.5, omega_b=2.0)
        assert stored_energy(p, -12.0) < 1e-20
        cap = 2.0 * math.sinh(1.5) ** 2
        assert stored_energy(p, 12.0) == pytest.approx(cap, rel=1e-12)

    def test_midpoint(self):
        # t = 0, zeta = 2 -> omega_b sinh^2(1)
        assert stored_energy(gauss_params(2.0), 0.0) == pytest.approx(
            math.sinh(1.0) ** 2, rel=1e-14
        )

    def test_full_charge_is_the_area_law_at_infinity(self):
        # omega_b sinh^2(zeta), finite up to zeta 355.6, where sinh(2 zeta)
        # of the pair correlator has overflowed since 355.2
        for zeta in (1.5, 355.5):
            p = gauss_params(zeta, omega_b=2.0)
            assert stored_energy(p, math.inf) == 2.0 * math.sinh(zeta) ** 2
            assert charging_time(p, 0.5).e_max == stored_energy(p, math.inf)
        with pytest.raises(OverflowError):
            stored_energy(gauss_params(355.7), math.inf)

    def test_delta_pulse_step(self):
        p = DriveParams(omega_b=1.0, zeta=1.0, pulse=DeltaLimit())
        assert stored_energy(p, 1.0) == pytest.approx(math.sinh(1.0) ** 2, rel=1e-14)
        assert stored_energy(p, -1.0) == 0.0

    def test_monotone(self):
        p = gauss_params(2.2)
        vals = [stored_energy(p, float(t)) for t in np.linspace(-6, 6, 200)]
        assert all(v >= 0.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestInstantaneousPower:
    def test_zero_drive(self):
        p = gauss_params(0.0)
        assert all(instantaneous_power(p, float(t)) == 0.0 for t in np.linspace(-3, 3, 7))

    def test_vanishes_at_both_ends(self):
        p = gauss_params(1.0)
        assert instantaneous_power(p, -12.0) < 1e-25
        assert instantaneous_power(p, 12.0) < 1e-25

    def test_is_energy_derivative(self):
        for zeta, tau in ((0.5, 1.0), (2.0, 0.7)):
            p = gauss_params(zeta, tau=tau)
            for t in np.linspace(-3.0 * tau, 3.0 * tau, 25):
                t = float(t)
                fd = central_difference(lambda u: stored_energy(p, u), t, 1e-5 * tau)
                assert instantaneous_power(p, t) == pytest.approx(fd, rel=1e-6)

    def test_closed_form_expression(self):
        # (omega_b/tau)(zeta/sqrt(2 pi)) sinh(zeta xi) exp(-t^2/2 tau^2)
        from qbattery.specfun import erf

        p = gauss_params(1.3, tau=0.8, omega_b=2.5)
        for t in (-1.0, 0.0, 0.4, 2.0):
            xi = 1.0 + erf(t / (math.sqrt(2.0) * 0.8))
            want = (2.5 / 0.8) * (1.3 / math.sqrt(2.0 * math.pi)) * math.sinh(1.3 * xi)
            want *= math.exp(-t * t / (2.0 * 0.8**2))
            assert instantaneous_power(p, t) == pytest.approx(want, rel=1e-13)

    def test_full_quadrature_recovers_capacity(self):
        for zeta in (0.5, 2.0, 5.0):
            p = gauss_params(zeta)
            total, _ = quad(
                lambda t: instantaneous_power(p, t), -8.0, 8.0, epsabs=1e-13, epsrel=1e-12
            )
            assert total == pytest.approx(math.sinh(zeta) ** 2, rel=1e-8)


class TestChargingTime:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("zeta", [0.5, 2.0, 5.0])
    def test_roundtrip(self, alpha, zeta):
        p = gauss_params(zeta)
        report = charging_time(p, alpha)
        assert stored_energy(p, report.t_alpha) / report.e_max == pytest.approx(
            alpha, abs=1e-9
        )

    def test_small_zeta_quarter_charge_at_pulse_peak(self):
        # alpha = 1/4 with zeta -> 0: erfinv(2 sqrt(1/4) - 1) = 0
        report = charging_time(gauss_params(1e-4), 0.25)
        assert abs(report.t_alpha) < 1e-6

    def test_weak_drive_branch(self):
        assert charging_time_small_zeta(1.0, 0.25) == 0.0
        exact = charging_time(gauss_params(0.01), 0.9).t_alpha
        approx = charging_time_small_zeta(1.0, 0.9)
        assert abs(approx - exact) / abs(exact) < 0.01

    def test_strong_drive_branch(self):
        exact = charging_time(gauss_params(20.0), 0.9).t_alpha
        approx = charging_time_large_zeta(1.0, 20.0, 0.9)
        assert abs(approx - exact) / exact < 0.05
        exact50 = charging_time(gauss_params(50.0), 0.5).t_alpha
        approx50 = charging_time_large_zeta(1.0, 50.0, 0.5)
        assert abs(approx50 - exact50) / exact50 < 0.02

    def test_domain_errors(self):
        p = gauss_params(1.0)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                charging_time(p, bad)
        with pytest.raises(ValueError):
            charging_time_large_zeta(1.0, 0.5, 0.5)  # inner log not positive
        # a width or a drive they cannot use is refused by name, not
        # returned as nan or a negative time
        for args, name in (
            ((math.nan, 0.5), "tau"),
            ((-2.0, 0.5), "tau"),
            (("1", 0.5), "tau"),
            ((True, 0.5), "tau"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                charging_time_small_zeta(*args)
        for args, name in (
            ((1.0, math.nan, 0.5), "zeta"),
            ((1.0, "0.5", 0.5), "zeta"),
            ((1.0, True, 0.5), "zeta"),
            ((-1.0, 3.0, 0.5), "tau"),
            (("0.5", 3.0, 0.5), "tau"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                charging_time_large_zeta(*args)
        # numpy scalars are numbers
        assert charging_time_small_zeta(np.int64(2), 0.9) == charging_time_small_zeta(2.0, 0.9)
        assert charging_time_large_zeta(np.float64(1.0), np.int64(20), 0.9) == charging_time_large_zeta(1.0, 20.0, 0.9)
        with pytest.raises(UnsupportedPulseError):
            charging_time(DriveParams(1.0, 1.0, Sech(1.0)), 0.5)
        # no drive stores no energy, of which no fraction is reached
        with pytest.raises(ValueError, match="^charging_time needs zeta > 0$"):
            charging_time(gauss_params(0.0), 0.5)

    def test_monotone_in_alpha_and_zeta(self):
        p = gauss_params(1.5)
        alphas = np.linspace(0.05, 0.95, 19)
        times = [charging_time(p, float(a)).t_alpha for a in alphas]
        assert all(b > a for a, b in zip(times, times[1:]))
        # for alpha big enough the charging time grows with the drive
        zetas = np.linspace(0.5, 5.0, 10)
        t09 = [charging_time(gauss_params(float(z)), 0.9).t_alpha for z in zetas]
        assert all(b > a for a, b in zip(t09, t09[1:]))

    def test_report_fields(self):
        report = charging_time(gauss_params(2.0, omega_b=3.0), 0.5)
        assert isinstance(report, ChargingReport)
        assert report.alpha == 0.5
        assert report.e_max == pytest.approx(3.0 * math.sinh(2.0) ** 2, rel=1e-14)


class TestPeakPower:
    def test_weak_drive_delay(self):
        # the zeta -> 0 root sits at 0.506 tau to three figures
        assert peak_power_time(gauss_params(0.01)) == pytest.approx(0.506, abs=1e-3)
        assert peak_power_delay_weak_limit() == pytest.approx(0.506, abs=1e-3)

    def test_strong_drive_asymptote(self):
        t_p = peak_power_time(gauss_params(30.0))
        asym = math.sqrt(lambert_w0(2.0 * 30.0**2 / math.pi))
        assert abs(t_p - asym) / asym < 0.03

    def test_is_a_local_maximum(self):
        for zeta in (0.1, 1.0, 5.0):
            p = gauss_params(zeta)
            t_p = peak_power_time(p)
            peak = instantaneous_power(p, t_p)
            assert peak >= instantaneous_power(p, t_p - 1e-3)
            assert peak >= instantaneous_power(p, t_p + 1e-3)

    def test_delay_grows_with_drive(self):
        zetas = np.logspace(-2, 2, 25)
        delays = [peak_power_time(gauss_params(float(z))) for z in zetas]
        assert all(b >= a - 1e-12 for a, b in zip(delays, delays[1:]))

    def test_scales_with_tau(self):
        assert peak_power_time(gauss_params(1.0, tau=2.5)) == pytest.approx(
            2.5 * peak_power_time(gauss_params(1.0)), rel=1e-10
        )

    def test_extreme_drive_does_not_overflow(self):
        t_p = peak_power_time(gauss_params(1000.0))
        assert 0.0 < t_p < 10.0

    def test_needs_positive_zeta(self):
        with pytest.raises(ValueError):
            peak_power_time(gauss_params(0.0))

    @pytest.mark.parametrize("zeta", [1e-108, 1e-200, 1e-300, sys.float_info.min])
    def test_tiny_zeta_reaches_the_weak_limit(self, zeta):
        # both sides of the turning equation scale with zeta; products of
        # three zeta-sized numbers underflow, the equation itself does not
        assert abs(peak_power_time(gauss_params(zeta)) - peak_power_delay_weak_limit()) <= 1e-12

    @pytest.mark.parametrize("zeta", [1e-310, 5e-324])
    def test_subnormal_zeta_is_refused(self, zeta):
        with pytest.raises(ValueError, match="2.2e-308"):
            peak_power_time(gauss_params(zeta))

    @pytest.mark.parametrize("zeta", [1e154, 1e200])
    def test_zeta_past_the_overflow_of_its_square_is_refused(self, zeta):
        with pytest.raises(ValueError, match=r"sqrt\(sys.float_info.max / 2\) = 9.48e\+153"):
            peak_power_time(gauss_params(zeta))

    def test_largest_accepted_zeta_has_a_finite_delay(self):
        zeta = math.sqrt(sys.float_info.max / 2.0)
        assert zeta == 9.480751908109176e153
        assert math.isinf(2.0 * math.nextafter(zeta, math.inf) ** 2)
        assert peak_power_time(gauss_params(zeta)) == pytest.approx(26.497, abs=1e-3)

    def test_unbracketed_root_is_reported(self, monkeypatch):
        # with W = 0 the bracket ends at 2 tau, short of the root near 2.6 tau
        from qbattery import merit

        monkeypatch.setattr(merit, "lambert_w0", lambda x: 0.0)
        with pytest.raises(RuntimeError, match="zeta = 100.0"):
            peak_power_time(gauss_params(100.0))


class TestPeakPowerEstimate:
    def test_factor_accuracy(self):
        p5 = gauss_params(5.0)
        exact5 = instantaneous_power(p5, peak_power_time(p5))
        est5 = peak_power_estimate(p5)
        assert est5 / exact5 < 1.5 and exact5 / est5 < 1.5
        p10 = gauss_params(10.0)
        exact10 = instantaneous_power(p10, peak_power_time(p10))
        assert abs(peak_power_estimate(p10) - exact10) / exact10 < 0.30

    def test_monotone_in_zeta(self):
        vals = [peak_power_estimate(gauss_params(float(z))) for z in np.linspace(1, 20, 39)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestAveragePower:
    def test_energy_difference_identity(self):
        for zeta in (0.3, 1.0, 4.0):
            p = gauss_params(zeta, tau=1.4, omega_b=0.9)
            half = math.sqrt(2.0 * math.log(2.0)) * 1.4
            want = (stored_energy(p, half) - stored_energy(p, -half)) / (2.0 * half)
            assert average_power_fwhm(p) == pytest.approx(want, rel=1e-10)

    def test_window_edges(self):
        # t_+ = sqrt(2 ln 2) tau, roughly 1.18 tau
        assert math.sqrt(2.0 * math.log(2.0)) == pytest.approx(1.18, abs=0.01)

    def test_strong_drive_exponential_form(self):
        from qbattery.specfun import erf

        zeta = 20.0
        p = gauss_params(zeta)
        e = erf(math.sqrt(math.log(2.0)))
        asym = math.exp(zeta * (1.0 + e)) / (8.0 * math.sqrt(2.0 * math.log(2.0)))
        assert abs(average_power_fwhm(p) - asym) / asym < 0.05


class TestQuadratures:
    def test_vacuum(self):
        report = quadrature_variances(gauss_params(0.0), 0.0, 1.234)
        assert report.var_x == pytest.approx(0.5, abs=1e-15)
        assert report.var_p == pytest.approx(0.5, abs=1e-15)
        assert report.std_product == pytest.approx(0.5, abs=1e-15)

    def test_squeezing_dip_at_pulse_peak(self):
        # t = 0, zeta = 2, sin(theta) = 1: var_x = e^-2 / 2, var_p = e^2 / 2
        report = quadrature_variances(gauss_params(2.0), 0.0, math.pi / 2.0)
        assert report.var_x == pytest.approx(math.exp(-2.0) / 2.0, abs=1e-12)
        assert report.var_p == pytest.approx(math.exp(2.0) / 2.0, rel=1e-12)

    def test_uncertainty_floor(self):
        rng = np.random.default_rng(23)
        p = gauss_params(1.5, omega_b=1.3)
        for _ in range(10_000):
            t = float(rng.uniform(-3, 3))
            theta = float(rng.uniform(0, 2 * math.pi))
            report = quadrature_variances(p, t, theta)
            assert report.std_product >= 0.5 - 1e-12

    def test_floor_touched_only_at_extremal_phase(self):
        p = gauss_params(1.0)
        on_floor = quadrature_variances(p, 0.0, math.pi / 2.0)
        assert on_floor.std_product == pytest.approx(0.5, abs=1e-12)
        off_floor = quadrature_variances(p, 0.0, math.pi / 3.0)
        assert off_floor.std_product > 0.5 + 1e-3

    def test_theta_scan_minimum(self):
        # grid contains pi/2 exactly (multiple-of-four size), where the
        # minimum e^(-zeta xi)/2 is attained at t = 0
        p = gauss_params(2.0)
        thetas = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
        scan = min(quadrature_variances(p, 0.0, float(th)).var_x for th in thetas)
        assert scan == pytest.approx(min_quadrature_variance(p, 0.0), abs=1e-12)
        assert min_quadrature_variance(p, 0.0) == pytest.approx(
            math.exp(-2.0) / 2.0, abs=1e-15
        )

    @pytest.mark.parametrize("zeta", [8.0, 20.0, 100.0])
    def test_strong_squeezing_keeps_the_floor(self, zeta):
        # at t = 0 and sin(theta) = 1, var_x = e^-zeta / 2 exactly; the sum
        # 1/2 + n - |s| would cancel it to rounding noise of size e^zeta eps
        p = gauss_params(zeta)
        report = quadrature_variances(p, 0.0, math.pi / 2.0)
        assert report.var_x == min_quadrature_variance(p, 0.0) == 0.5 * math.exp(-zeta)
        assert report.var_p == 0.5 * math.exp(zeta)
        assert report.std_product == pytest.approx(0.5, rel=1e-15)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            QuadratureReport(theta=0.0, var_x=-0.1, var_p=0.5)
        with pytest.raises(ValueError):
            QuadratureReport(theta=0.0, var_x=0.4, var_p=0.4)
        # std_product is derived; a product past the largest double is
        # taken as the product of the square roots instead of reading inf
        assert QuadratureReport(theta=0.0, var_x=0.25, var_p=4.0).std_product == 1.0
        assert QuadratureReport(theta=0.0, var_x=1e200, var_p=4e200).std_product == 2e200
        wide = quadrature_variances(gauss_params(400.0), 0.0, 0.0)
        assert wide.var_x == wide.var_p > 1e173
        assert wide.std_product == pytest.approx(wide.var_x, rel=1e-15)
