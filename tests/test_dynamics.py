"""Moment equations: right-hand side, exact solution, integrator, area law."""

import math
import warnings

import numpy as np
import pytest

from qbattery.dynamics import (
    VACUUM,
    DriveParams,
    MomentState,
    _rk45,
    analytic_moments,
    integrate_moments,
)
from qbattery.pulses import (
    Algebraic,
    DeltaLimit,
    Gaussian,
    Lorentzian,
    PoschlTeller,
    Sech,
    UnsupportedPulseError,
)
from qbattery.specfun import Accuracy

TIGHT = Accuracy(1e-12, 1e-12)

SINH1_SQ = math.sinh(1.0) ** 2


def gauss_params(zeta, tau=1.0, omega_b=1.0):
    return DriveParams(omega_b=omega_b, zeta=zeta, pulse=Gaussian(tau))


def rate(p, t, state, kappa=0.0, h=1e-7):
    """(dn/dt, ds/dt) at ``t`` from ``state``: the forward difference
    over one short :func:`integrate_moments` window of length ``h``."""
    traj = integrate_moments(p, t, t + h, TIGHT, kappa=kappa, initial=state, times=[t + h])
    return MomentState((traj.n[-1] - state.n) / h, (traj.s[-1] - state.s) / h)


class TestDriveParams:
    def test_defaults_to_resonance(self):
        p = gauss_params(1.0)
        assert p.omega_d == p.omega_b
        assert p.resonant

    def test_detuned(self):
        p = DriveParams(omega_b=1.0, zeta=1.0, pulse=Gaussian(1.0), omega_d=1.1)
        assert not p.resonant

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega_b=0.0, zeta=1.0),
            dict(omega_b=-2.0, zeta=1.0),
            dict(omega_b=1.0, zeta=-0.5),
            dict(omega_b=1.0, zeta=math.nan),
            dict(omega_b=1.0, zeta=1.0, omega_d=-1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DriveParams(pulse=Gaussian(1.0), **kwargs)


class TestMomentRhs:
    """The right-hand side of :func:`integrate_moments`, read off one
    short step."""

    def test_vacuum_is_driven_through_s_first(self):
        # dn/dt = 0, ds/dt = -i zeta f(t) at the vacuum
        p = gauss_params(2.0)
        d = rate(p, 0.5, VACUUM)
        assert d.n == pytest.approx(0.0, abs=1e-6)
        assert d.s == pytest.approx(-1j * 2.0 * p.pulse.value(0.5), rel=1e-6)

    def test_zero_drive(self):
        p = gauss_params(0.0)
        d = rate(p, 0.0, MomentState(3.0, 1.0 + 2.0j))
        assert d.n == 0.0 and d.s == 0.0

    def test_hand_evaluated_case(self):
        # zeta f(t) = 1 at t = 0 when tau = 1/sqrt(2 pi) and zeta = 1:
        # n = 1, s = i/2  ->  dn/dt = -1, ds/dt = -3i
        p = gauss_params(1.0, tau=1.0 / math.sqrt(2.0 * math.pi))
        assert p.pulse.value(0.0) == pytest.approx(1.0, rel=1e-15)
        d = rate(p, 0.0, MomentState(1.0, 0.5j))
        assert d.n == pytest.approx(-1.0, rel=1e-6)
        assert d.s == pytest.approx(-3.0j, rel=1e-6)

    def test_rejects_detuned_and_delta(self):
        # the equations hold on resonance for a pulse of finite width
        with pytest.raises(ValueError, match="resonance"):
            rate(DriveParams(1.0, 1.0, Gaussian(1.0), omega_d=2.0), 0.0, VACUUM)
        with pytest.raises(UnsupportedPulseError):
            rate(DriveParams(1.0, 1.0, DeltaLimit()), 0.0, VACUUM)


class TestDissipativeRhs:
    def test_reduces_to_closed_rhs_at_zero_loss(self):
        # the lossless equations conserve (n + 1/2)^2 - |s|^2 from any
        # start; loss breaks that
        rng = np.random.default_rng(7)
        p = gauss_params(1.3)
        for _ in range(5):
            state = MomentState(float(rng.uniform(0, 5)), complex(*rng.normal(size=2)))
            closed = integrate_moments(p, -3.0, 3.0, TIGHT, kappa=0.0, initial=state)
            assert np.max(np.abs(closed.invariant_residual() - state.invariant_residual)) < 1e-8
            lossy = integrate_moments(p, -3.0, 3.0, TIGHT, kappa=0.1, initial=state)
            assert abs(lossy.invariant_residual()[-1] - state.invariant_residual) > 1e-2

    def test_damping_terms(self):
        p = gauss_params(0.0)
        state = MomentState(2.0, 1.0 - 0.5j)
        d = rate(p, 0.0, state, kappa=0.3)
        assert d.n == pytest.approx(-0.3 * 2.0, rel=1e-6)
        assert d.s == pytest.approx(-0.3 * (1.0 - 0.5j), rel=1e-6)

    def test_pure_exponential_decay(self):
        # zeta = 0, n(0) = 1: n(t) = e^(-kappa t)
        p = gauss_params(0.0)
        kappa = 0.7
        grid = np.linspace(0.0, 3.0, 13)
        traj = integrate_moments(
            p, 0.0, 3.0, TIGHT, kappa=kappa, initial=MomentState(1.0, 0j), times=grid
        )
        assert np.allclose(traj.n, np.exp(-kappa * grid), atol=1e-10)

    def test_weak_loss_keeps_most_of_the_charge(self):
        # zeta = 1, kappa tau = 0.1: the charge peaks near the end of the
        # pulse at ~72% of the lossless asymptote and then decays freely,
        # n(6 tau) = n(4 tau) e^(-2 kappa tau); values frozen from the
        # moment ODE and independently confirmed by the Lindblad engine
        p = gauss_params(1.0)
        grid = np.array([2.0, 4.0, 6.0])
        traj = integrate_moments(p, -8.0, 6.0, TIGHT, kappa=0.1, times=grid)
        assert traj.n[0] == pytest.approx(0.9941797, abs=1e-6)
        assert traj.n[0] > 0.7 * SINH1_SQ
        assert traj.n[2] == pytest.approx(traj.n[1] * math.exp(-0.2), rel=1e-4)
        assert traj.n[2] == pytest.approx(0.7090319, abs=1e-6)

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            integrate_moments(gauss_params(1.0), -8.0, 6.0, kappa=-1.0)


class TestAnalyticMoments:
    def test_vacuum_boundary(self):
        m = analytic_moments(gauss_params(2.0), -12.0)
        assert m.n < 1e-25
        assert abs(m.s) < 1e-12

    def test_midpoint_values(self):
        # t = 0, zeta = 2: n = sinh^2(1), s = -(i/2) sinh(2)
        m = analytic_moments(gauss_params(2.0), 0.0)
        assert m.n == pytest.approx(math.sinh(1.0) ** 2, rel=1e-14)
        assert m.s == pytest.approx(-0.5j * math.sinh(2.0), rel=1e-14)

    def test_purity_identity(self):
        # |s|^2 = n (n + 1) for the squeezed vacuum at every instant
        p = gauss_params(1.7)
        for t in np.linspace(-4.0, 4.0, 41):
            m = analytic_moments(p, float(t))
            assert abs(m.s) ** 2 == pytest.approx(m.n * (m.n + 1.0), rel=1e-12, abs=1e-14)
            assert m.invariant_residual == pytest.approx(0.0, abs=1e-12)

    def test_delta_limit(self):
        p = DriveParams(1.0, 1.5, DeltaLimit())
        assert analytic_moments(p, -1.0).n == 0.0
        assert analytic_moments(p, 1.0).n == pytest.approx(math.sinh(1.5) ** 2, rel=1e-14)
        assert analytic_moments(p, 0.0).n == pytest.approx(math.sinh(0.75) ** 2, rel=1e-14)

    def test_sech_matches_the_ode(self):
        # the area law holds for every unit-area envelope, not only the
        # Gaussian; A(-40 tau) ~ 3e-18 for the sech, so the vacuum start
        # is exact to double precision
        p = DriveParams(1.0, 1.2, Sech(1.0))
        grid = np.linspace(-6.0, 6.0, 25)
        traj = integrate_moments(p, -40.0, 6.0, TIGHT, times=grid)
        exact = [analytic_moments(p, float(t)) for t in grid]
        n = np.array([m.n for m in exact])
        s = np.array([m.s for m in exact])
        assert np.max(np.abs(traj.n - n) / (1.0 + n)) < 1e-8
        assert np.max(np.abs(traj.s - s) / (1.0 + n)) < 1e-8

    def test_monotone_in_time(self):
        p = gauss_params(2.5)
        ns = [analytic_moments(p, float(t)).n for t in np.linspace(-6, 6, 121)]
        assert all(b >= a for a, b in zip(ns, ns[1:]))


class TestIntegrateMoments:
    def test_zero_drive_stays_vacuum(self):
        traj = integrate_moments(gauss_params(0.0), -8.0, 6.0, TIGHT)
        assert np.max(np.abs(traj.n)) == 0.0
        assert np.max(np.abs(traj.s)) == 0.0

    def test_matches_analytic_endpoint(self):
        traj = integrate_moments(gauss_params(1.0), -8.0, 6.0, TIGHT, times=[6.0])
        assert abs(traj.n[-1] - SINH1_SQ) < 1e-8

    def test_sech_reaches_the_same_asymptote(self):
        # unit pulse area forces n(inf) = sinh^2(zeta) for any shape
        p = DriveParams(1.0, 1.0, Sech(1.0))
        traj = integrate_moments(p, -22.0, 22.0, TIGHT, times=[22.0])
        assert abs(traj.n[-1] - SINH1_SQ) < 1e-8

    def test_analytic_numeric_agreement_and_conservation(self):
        for zeta in (0.5, 1.0, 2.0, 3.0):
            p = gauss_params(zeta)
            grid = np.linspace(-5.0, 5.0, 201)
            traj = integrate_moments(p, -8.0, 5.0, TIGHT, times=grid)
            exact = np.array([analytic_moments(p, float(t)).n for t in grid])
            assert np.max(np.abs(traj.n - exact) / (1.0 + exact)) < 1e-6
            assert np.max(np.abs(traj.invariant_residual())) < 1e-8

    def test_native_step_output(self):
        traj = integrate_moments(gauss_params(1.0), -8.0, 6.0)
        assert len(traj) > 20
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.times[0] == -8.0 and traj.times[-1] == 6.0
        assert traj.state_at(len(traj) - 1).n == traj.n[-1]

    def test_delta_limit_convergence(self):
        # tau -> 0 at fixed observation time reproduces the step result
        p = gauss_params(1.0, tau=1e-3)
        traj = integrate_moments(p, -8e-3, 0.1, TIGHT, times=[0.1])
        assert abs(traj.n[-1] - SINH1_SQ) / SINH1_SQ < 1e-6

    def test_window_validation(self):
        p = gauss_params(1.0)
        with pytest.raises(ValueError):
            integrate_moments(p, 5.0, -5.0)
        with pytest.raises(ValueError):
            integrate_moments(p, -8.0, 6.0, times=[7.0])
        with pytest.raises(UnsupportedPulseError):
            integrate_moments(DriveParams(1.0, 1.0, DeltaLimit()), -1.0, 1.0)

    def test_csv_export(self, tmp_path):
        traj = integrate_moments(gauss_params(1.0), -8.0, 2.0, times=np.linspace(-2, 2, 5))
        out = tmp_path / "traj.csv"
        traj.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,n,re_s,im_s,invariant_residual"
        assert len(lines) == 6


def test_observer_keeps_the_plain_rows_and_steps():
    # sampling two rows rides on the plain call's steps and interpolant:
    # the same rows, bit for bit, and the same right-hand-side calls; the
    # whole state at the end is the plain solver's last one; scipy only
    # warns about a solver option it ignores, so warnings are errors here
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6))
    y0 = rng.normal(size=6)
    grid = np.linspace(0.0, 5.0, 23)

    def rhs(t, y):
        return math.cos(3.0 * t) * (a @ y)

    plain = _rk45(rhs, (0.0, 5.0), y0, TIGHT, np.inf, "test", t_eval=grid)
    steps = _rk45(rhs, (0.0, 5.0), y0, TIGHT, np.inf, "test")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        observed = _rk45(rhs, (0.0, 5.0), y0, TIGHT, np.inf, "test", t_eval=grid, rows=[1, 4])
    assert plain.nfev > 100
    assert observed.nfev == plain.nfev
    assert np.array_equal(observed.t, grid)
    assert np.array_equal(observed.y, plain.y[[1, 4]])
    assert np.array_equal(observed.y_end, steps.y[:, -1])


class TestAreaLaw:
    def test_matches_analytic_for_gaussian(self):
        # r = zeta (1 + erf(t / sqrt(2) tau)): n = sinh^2(r/2), s = -(i/2) sinh(r)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            zeta = float(rng.uniform(0.05, 3.0))
            tau = float(rng.uniform(0.2, 3.0))
            t = float(rng.uniform(-8.0, 8.0))
            r = zeta * (1.0 + math.erf(t / (math.sqrt(2.0) * tau)))
            m = analytic_moments(gauss_params(zeta, tau=tau), t)
            assert m.n == pytest.approx(math.sinh(0.5 * r) ** 2, rel=1e-12, abs=1e-300)
            assert m.s == pytest.approx(-0.5j * math.sinh(r), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize(
        "pulse", [Gaussian(1.0), Sech(1.0), Lorentzian(1.0), PoschlTeller(1.0), Algebraic(1.0)]
    )
    def test_asymptote_is_shape_independent(self, pulse):
        p = DriveParams(1.0, 1.0, pulse)
        assert analytic_moments(p, math.inf).n == pytest.approx(SINH1_SQ, rel=1e-14)

    def test_lorentzian_midpoint_against_ode(self):
        # A(0) = 1/2 exactly; the integrator must reproduce sinh^2(zeta/2)
        p = DriveParams(1.0, 1.0, Lorentzian(1.0))
        traj = integrate_moments(p, -1.5e6, 0.0, times=[0.0])
        assert abs(traj.n[-1] - math.sinh(0.5) ** 2) < 1e-6
        assert analytic_moments(p, 0.0).n == pytest.approx(math.sinh(0.5) ** 2, rel=1e-14)
