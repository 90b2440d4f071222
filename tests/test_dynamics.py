"""Moment equations: right-hand side, exact solution, integrator, area law."""

import math
import time
import warnings

import numpy as np
import pytest

from qbattery import dynamics
from qbattery.dynamics import (
    VACUUM,
    DriveParams,
    IntegrationError,
    _GAUSS_LEGENDRE_8,
    _lossy_carry,
    _parts,
    _rk45,
    analytic_moments,
    integrate_moments,
    lossy_moments,
)
from qbattery.fock import choose_truncation, evolve_full, frame_truncation
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

from oracles import frame_nbar, thermal_ladder

DELTA_REFUSAL = "the delta-limit pulse has no width and cannot be time stepped; use analytic_moments"

SINH1_SQ = math.sinh(1.0) ** 2


def gauss_params(zeta, tau=1.0, omega_b=1.0):
    return DriveParams(omega_b=omega_b, zeta=zeta, pulse=Gaussian(tau))


def rate(p, t, kappa=0.0, h=1e-7, t_start=-8.0):
    """The moments (n, s) at ``t`` of an :func:`integrate_moments` run
    from the vacuum at ``t_start``, and (dn/dt, ds/dt) there: the
    forward difference to its sample ``h`` later."""
    traj = integrate_moments(p, sorted({t_start, t, t + h}), kappa=kappa)
    (n, n_h), (s, s_h) = traj.n[-2:], traj.s[-2:]
    return (n, s), ((n_h - n) / h, (s_h - s) / h)


class TestDriveParams:
    def test_defaults_to_resonance(self):
        # the one run that takes a carrier drives on resonance unless told otherwise
        p = gauss_params(0.5, omega_b=2.0)
        dim, grid = choose_truncation(0.5, 1e-8), np.linspace(-8.0, 6.0, 5)
        default = evolve_full(p, dim, grid)
        explicit = evolve_full(p, dim, grid, omega_d=p.omega_b)
        for name in ("n", "s", "var_x_min", "tail_mass", "odd_mass"):
            assert np.array_equal(getattr(default, name), getattr(explicit, name))
        assert default.norm_drift == explicit.norm_drift
        assert np.array_equal(default.final_state.amp, explicit.final_state.amp)

    def test_detuned(self):
        # a detuned carrier is evolve_full's argument, not a drive parameter
        with pytest.raises(TypeError, match="omega_d"):
            DriveParams(omega_b=1.0, zeta=1.0, pulse=Gaussian(1.0), omega_d=1.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega_b=0.0),
            dict(omega_b=-2.0),
            dict(zeta=-0.5),
            dict(zeta=math.nan),
            # a bool is not a number, and a string is refused by name
            dict(omega_b=True),
            dict(zeta=True),
            dict(zeta="1"),
            dict(omega_b="0.5"),
            dict(zeta="0.5"),
        ],
    )
    def test_validation(self, kwargs):
        # each case spoils one number of a valid drive, and the error names it
        (field,) = kwargs
        with pytest.raises(ValueError, match=f"^{field} must be"):
            DriveParams(pulse=Gaussian(1.0), **{"omega_b": 1.0, "zeta": 1.0, **kwargs})

    def test_numbers_are_stored_as_floats(self):
        # as Gaussian stores its tau: a numpy scalar or an int prints as a float
        for omega_b in (2, np.int64(2)):
            p = DriveParams(omega_b=omega_b, zeta=np.float64(2.0), pulse=Gaussian(1.0))
            assert type(p.omega_b) is float and type(p.zeta) is float
            assert repr(p) == "DriveParams(omega_b=2.0, zeta=2.0, pulse=Gaussian(tau=1.0))"


class TestMomentRhs:
    """The right-hand side of :func:`integrate_moments`, read off two
    samples a short step apart."""

    def test_vacuum_is_driven_through_s_first(self):
        # dn/dt = 0, ds/dt = -i zeta f(t) at the vacuum, where a run starts
        p = gauss_params(2.0)
        state, (dn, ds) = rate(p, 0.5, t_start=0.5)
        assert state == (0.0, 0.0)
        assert dn == pytest.approx(0.0, abs=1e-6)
        assert ds == pytest.approx(-1j * 2.0 * p.pulse.value(0.5), rel=1e-6)

    def test_zero_drive(self):
        _, (dn, ds) = rate(gauss_params(0.0), 0.0)
        assert dn == 0.0 and ds == 0.0

    def test_hand_evaluated_case(self):
        # zeta f(t) = 1 at t = 0 when tau = 1/sqrt(2 pi) and zeta = 1,
        # where the area is 1/2: n = sinh^2(1/2), s = -(i/2) sinh 1
        # ->  dn/dt = sinh 1, ds/dt = -i cosh 1
        p = gauss_params(1.0, tau=1.0 / math.sqrt(2.0 * math.pi))
        assert p.pulse.value(0.0) == pytest.approx(1.0, rel=1e-15)
        (n, s), (dn, ds) = rate(p, 0.0)
        assert n == pytest.approx(math.sinh(0.5) ** 2, rel=1e-10)
        assert s == pytest.approx(-0.5j * math.sinh(1.0), rel=1e-10)
        assert dn == pytest.approx(math.sinh(1.0), rel=1e-6)
        assert ds == pytest.approx(-1j * math.cosh(1.0), rel=1e-6)

    def test_rejects_detuned_and_delta(self):
        # the equations hold on resonance, the only carrier a drive has,
        # for a pulse of finite width
        with pytest.raises(TypeError, match="omega_d"):
            rate(DriveParams(1.0, 1.0, Gaussian(1.0), omega_d=2.0), 0.0)
        with pytest.raises(UnsupportedPulseError):
            rate(DriveParams(1.0, 1.0, DeltaLimit()), 0.0)


class TestDissipativeRhs:
    def test_reduces_to_closed_rhs_at_zero_loss(self):
        # the lossless equations conserve (n + 1/2)^2 - |s|^2 = 1/4 from
        # the vacuum; loss breaks that
        p = gauss_params(1.3)
        grid = np.linspace(-8.0, 3.0, 45)
        closed = integrate_moments(p, grid, kappa=0.0)
        assert np.max(np.abs(closed.invariant_residual())) < 1e-8
        lossy = integrate_moments(p, grid, kappa=0.1)
        assert abs(lossy.invariant_residual()[-1]) > 1e-2

    def test_damping_terms(self):
        # past 8 tau the drive is off and loss alone moves the moments
        (n, s), (dn, ds) = rate(gauss_params(1.0), 10.0, kappa=0.3)
        assert min(n, abs(s)) > 0.01
        assert dn == pytest.approx(-0.3 * n, rel=1e-6)
        assert ds == pytest.approx(-0.3 * s, rel=1e-6)

    def test_pure_exponential_decay(self):
        # once the pulse is over, n(t) = n(8 tau) e^(-kappa (t - 8 tau)),
        # and s alike, across the cut at 8 tau where the steps go free
        kappa = 0.7
        grid = np.linspace(8.0, 11.0, 13)
        traj = integrate_moments(gauss_params(1.0), [-8.0, *grid], kappa=kappa)
        n, s = traj.n[1:], traj.s[1:]
        decay = np.exp(-kappa * (grid - 8.0))
        assert np.allclose(n, n[0] * decay, rtol=1e-9, atol=0.0)
        assert np.allclose(s, s[0] * decay, rtol=1e-9, atol=0.0)

    def test_weak_loss_keeps_most_of_the_charge(self):
        # zeta = 1, kappa tau = 0.1: the charge peaks near the end of the
        # pulse at ~72% of the lossless asymptote and then decays freely,
        # n(6 tau) = n(4 tau) e^(-2 kappa tau); values frozen from the
        # moment ODE and independently confirmed by the Lindblad engine
        p = gauss_params(1.0)
        traj = integrate_moments(p, [-8.0, 2.0, 4.0, 6.0], kappa=0.1)
        n = traj.n[1:]
        assert n[0] == pytest.approx(0.9941797, abs=1e-6)
        assert n[0] > 0.7 * SINH1_SQ
        assert n[2] == pytest.approx(n[1] * math.exp(-0.2), rel=1e-4)
        assert n[2] == pytest.approx(0.7090319, abs=1e-6)

    def test_rejects_negative_kappa(self):
        for kappa in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="kappa"):
                integrate_moments(gauss_params(1.0), [-8.0, 6.0], kappa=kappa)


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
        traj = integrate_moments(p, [-40.0, *grid])
        exact = [analytic_moments(p, float(t)) for t in grid]
        n = np.array([m.n for m in exact])
        s = np.array([m.s for m in exact])
        assert np.max(np.abs(traj.n[1:] - n) / (1.0 + n)) < 1e-8
        assert np.max(np.abs(traj.s[1:] - s) / (1.0 + n)) < 1e-8

    def test_monotone_in_time(self):
        p = gauss_params(2.5)
        ns = [analytic_moments(p, float(t)).n for t in np.linspace(-6, 6, 121)]
        assert all(b >= a for a, b in zip(ns, ns[1:]))


class TestIntegrateMoments:
    def test_zero_drive_stays_vacuum(self):
        traj = integrate_moments(gauss_params(0.0), np.linspace(-8.0, 6.0, 57))
        assert np.max(np.abs(traj.n)) == 0.0
        assert np.max(np.abs(traj.s)) == 0.0

    def test_matches_analytic_endpoint(self):
        traj = integrate_moments(gauss_params(1.0), [-8.0, 6.0])
        assert abs(traj.n[-1] - SINH1_SQ) < 1e-8

    def test_sech_reaches_the_same_asymptote(self):
        # unit pulse area forces n(inf) = sinh^2(zeta) for any shape
        p = DriveParams(1.0, 1.0, Sech(1.0))
        traj = integrate_moments(p, [-22.0, 22.0])
        assert abs(traj.n[-1] - SINH1_SQ) < 1e-8

    def test_analytic_numeric_agreement_and_conservation(self):
        for zeta in (0.5, 1.0, 2.0, 3.0):
            p = gauss_params(zeta)
            grid = np.concatenate(([-8.0], np.linspace(-5.0, 5.0, 201)))
            traj = integrate_moments(p, grid)
            exact = np.array([analytic_moments(p, float(t)).n for t in grid])
            assert np.max(np.abs(traj.n - exact) / (1.0 + exact)) < 1e-6
            assert np.max(np.abs(traj.invariant_residual())) < 1e-8

    def test_delta_limit_convergence(self):
        # tau -> 0 at fixed observation time reproduces the step result
        p = gauss_params(1.0, tau=1e-3)
        traj = integrate_moments(p, [-8e-3, 0.1])
        assert abs(traj.n[-1] - SINH1_SQ) / SINH1_SQ < 1e-6

    def test_window_validation(self):
        # the grid is the window: it runs forward, from a pulse of finite width
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            integrate_moments(gauss_params(1.0), [5.0, -5.0])
        with pytest.raises(UnsupportedPulseError, match=DELTA_REFUSAL):
            integrate_moments(DriveParams(1.0, 1.0, DeltaLimit()), [-1.0, 1.0])

    def test_refuses_nonfinite_window(self):
        p = gauss_params(1.0)
        for times in ([-8.0, math.inf], [-8.0, math.nan], [-math.inf, 6.0], [math.nan, 6.0]):
            with pytest.raises(ValueError, match="times must be finite"):
                integrate_moments(p, times)

    def test_unsampled_windows_still_step(self):
        # [-8, 8] holds no sample; the last window starts from where it
        # ended
        traj = integrate_moments(gauss_params(1.0), [-12.0, 10.0])
        assert traj.times.tolist() == [-12.0, 10.0]
        assert abs(traj.n[-1] - SINH1_SQ) < 1e-8

    def test_overflow_fails_the_run_by_its_label(self):
        # at zeta 400 the moments pass the largest double on the rising
        # edge; the driver fails the run there, where numpy warned three
        # times and scipy then gave up on the step size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="^moment integration failed: overflow"):
                integrate_moments(gauss_params(400.0), np.linspace(-8.0, 6.0, 5))

    def test_csv_export(self, tmp_path):
        traj = integrate_moments(gauss_params(1.0), np.linspace(-8.0, 2.0, 5))
        out = tmp_path / "traj.csv"
        traj.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,n,re_s,im_s,invariant_residual"
        assert len(lines) == 6

    def test_csv_export_writes_lf_lines_to_a_file_even_named_dash(self, tmp_path, monkeypatch, capsys):
        traj = integrate_moments(gauss_params(1.0), np.linspace(-8.0, 2.0, 5))
        monkeypatch.chdir(tmp_path)
        traj.write_csv("-")
        assert capsys.readouterr().out == ""
        raw = (tmp_path / "-").read_bytes()
        assert b"\r" not in raw and raw.count(b"\n") == 6


def test_observer_keeps_the_plain_rows_and_steps():
    # every run goes through the observed solver; observing the whole
    # state it is scipy's RK45 sampled on the grid bit for bit (samples,
    # right-hand side calls), observing two rows gives those rows of the
    # same samples, and the whole state at the end is scipy's last step,
    # for a real and a complex state; the steps counted are those plain
    # solve_ivp returns one sample each for, and a grid of one instant
    # takes none; scipy only warns about a solver option it ignores, so
    # warnings are errors
    from scipy.integrate import solve_ivp

    grid = np.linspace(0.0, 5.0, 23)
    acc = Accuracy(1e-12, 1e-12)

    def check(a, y0):
        def rhs(t, y):
            return math.cos(3.0 * t) * (a @ y)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sampled = _rk45(rhs, grid, y0, acc, np.inf, "test")
            observed = _rk45(rhs, grid, y0, acc, np.inf, "test", observe=lambda y: y[[1, 4]])
        plain = solve_ivp(rhs, (0.0, 5.0), y0, "RK45", rtol=1e-12, atol=1e-12)
        at_grid = solve_ivp(rhs, (0.0, 5.0), y0, "RK45", grid, rtol=1e-12, atol=1e-12)
        assert np.array_equal(at_grid.t, grid)
        assert sampled.y.dtype == y0.dtype
        assert np.array_equal(sampled.y, at_grid.y)
        assert sampled.nfev == at_grid.nfev > 100
        for run in (sampled, observed):
            assert np.array_equal(run.y_end, plain.y[:, -1])
        assert observed.nfev == sampled.nfev
        assert np.array_equal(observed.y, sampled.y[[1, 4]])
        assert sampled.steps == observed.steps == len(plain.t) - 1
        instant = _rk45(rhs, grid[:1], y0, acc, np.inf, "test")
        assert instant.steps == 0 and np.array_equal(instant.y, y0[:, None])

    rng = np.random.default_rng(7)
    a, y0 = rng.normal(size=(6, 6)), rng.normal(size=6)
    check(a, y0)
    check(a + 1j * rng.normal(size=(6, 6)), y0 + 1j * rng.normal(size=6))


@pytest.mark.parametrize("tau", [1.0, math.inf])
def test_right_hand_side_calls_are_two_a_part_and_six_a_tried_step(tau):
    # scipy's RK45 evaluates the right-hand side twice to start each part
    # (at y0 and for its first step size) and six times a tried step, so
    # what is left over after the accepted steps is whole rejected steps
    # (33-48 of them here)
    rng = np.random.default_rng(7)
    a, y0 = rng.normal(size=(6, 6)), rng.normal(size=6)

    def rhs(t, y):
        return math.cos(3.0 * t) * (a @ y)

    grid = np.linspace(-10.0, 10.0, 23)
    for tol in (1e-6, 1e-9, 1e-12):
        run = _rk45(rhs, grid, y0, Accuracy(tol, tol), tau, "test")
        tried, left = divmod(run.nfev - 2 * len(_parts(-10.0, 10.0, tau)), 6)
        assert left == 0 and tried >= run.steps > 0


def test_window_rule():
    # cut at +-8 tau, the part inside capped; tau inf leaves one part
    assert _parts(-10.0, 10.0, 1.0) == [(-10.0, -8.0, False), (-8.0, 8.0, True), (8.0, 10.0, False)]
    assert _parts(0.0, 20.0, 2.0) == [(0.0, 16.0, True), (16.0, 20.0, False)]
    assert _parts(-30.0, -9.0, 1.0) == [(-30.0, -9.0, False)]
    assert _parts(-1e6, 3.0, math.inf) == [(-1e6, 3.0, True)]
    assert _parts(2.0, 2.0, 1.0) == [(2.0, 2.0, True)]


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
        traj = integrate_moments(p, [-1.5e6, 0.0])
        assert abs(traj.n[-1] - math.sinh(0.5) ** 2) < 1e-6
        assert analytic_moments(p, 0.0).n == pytest.approx(math.sinh(0.5) ** 2, rel=1e-14)


# fock-check's default grid, -8 tau to 6 tau in 57 points
CLI_GRID = np.linspace(-8.0, 6.0, 57)
FINITE_SHAPES = [Gaussian(1.0), Sech(1.0), Lorentzian(1.0), PoschlTeller(1.0), Algebraic(1.0)]


class TestLossyMoments:
    @pytest.mark.parametrize("pulse", FINITE_SHAPES, ids=lambda pulse: type(pulse).__name__)
    def test_matches_the_ode_and_sizes_the_same_ladder(self, pulse):
        # the worst scaled n error, 1.1e-9 for sech at zeta 3, kappa 0.1,
        # is the ODE's: a 1e-15/1e-14 run comes within 4e-11 of the closed
        # form, which moves by 5e-17 on four times as many panels
        for zeta in (1.0, 2.0, 3.0):
            p = DriveParams(1.0, zeta, pulse)
            for kappa in (0.1, 1.0, 10.0):
                closed = lossy_moments(p, kappa, CLI_GRID)
                ode = integrate_moments(p, CLI_GRID, kappa=kappa)
                n = np.array([m.n for m in closed])
                s = np.array([m.s for m in closed])
                assert np.max(np.abs(n - ode.n) / (1.0 + ode.n)) <= 1e-8, (zeta, kappa)
                assert np.max(np.abs(s - ode.s) / (1.0 + np.abs(ode.s))) <= 1e-8, (zeta, kappa)
                dim = frame_truncation(p, kappa, CLI_GRID, 1e-8)
                assert dim == thermal_ladder(frame_nbar(ode), 1e-8), (zeta, kappa)

    @pytest.mark.parametrize("pulse", FINITE_SHAPES, ids=lambda pulse: type(pulse).__name__)
    def test_is_the_area_law_without_loss(self, pulse):
        for zeta in (0.5, 2.0, 4.0):
            p = DriveParams(1.0, zeta, pulse)
            expected = [analytic_moments(p, t, CLI_GRID[0]) for t in CLI_GRID]
            assert lossy_moments(p, 0.0, CLI_GRID) == expected

    def test_frame_ladders_of_the_legend(self):
        # the frame ladders fock-check --kappa sizes at the default --tail-tol
        sizes = {
            (zeta, kappa): frame_truncation(gauss_params(zeta), kappa, CLI_GRID, 1e-8)
            for zeta in (0.5, 1.0, 2.0, 3.0, 4.0)
            for kappa in (0.1, 1.0)
        }
        assert [sizes[z, 0.1] for z in (0.5, 1.0, 2.0, 3.0, 4.0)] == [11, 16, 35, 84, 216]
        assert [sizes[z, 1.0] for z in (2.0, 4.0)] == [19, 72]

    def test_strong_loss_is_quasi_static_and_quick(self):
        # at kappa >> 1/tau the variances follow the drive,
        # V± = (kappa/2) / (kappa -+ 2 zeta f), so n = eps^2 / (2 (1 - eps^2))
        # with eps = 2 zeta f / kappa up to O(1/kappa^2) at the peak; each
        # interval integrates only its last (4 zeta + 50)/kappa, so the
        # panel count does not grow with kappa
        p = gauss_params(2.0)
        start = time.perf_counter()
        for kappa in (1e4, 1e6):
            peak = lossy_moments(p, kappa, CLI_GRID)[32]
            eps = 2.0 * p.zeta * p.pulse.value(0.0) / kappa
            assert peak.n == pytest.approx(eps * eps / (2.0 * (1.0 - eps * eps)), rel=1e-3)
        assert time.perf_counter() - start < 5.0

    def test_one_panel_rule_is_resolved(self, monkeypatch):
        # the panels' width rule at its constant lies within 5e-14 (1 + n)
        # of a run on 8 times as many panels; at twice the constant the
        # algebraic shape from -1e4 tau, kappa 0.1, lies 1.8e-13 away
        cases = [
            (DriveParams(1.0, zeta, pulse), kappa, CLI_GRID)
            for pulse in FINITE_SHAPES
            for zeta in (1.0, 3.0)
            for kappa in (0.1, 100.0)
        ]
        for t_min in (-1e3, -1e4):
            far = np.linspace(t_min, 6.0, 57)
            for pulse in (Lorentzian(1.0), Algebraic(1.0)):
                cases += [(DriveParams(1.0, zeta, pulse), 0.1, far) for zeta in (1.0, 2.0)]
        runs = [lossy_moments(*case) for case in cases]
        monkeypatch.setattr(dynamics, "_PANEL_WIDTH", dynamics._PANEL_WIDTH / 8.0)
        for run, (p, kappa, grid) in zip(runs, cases):
            fine = lossy_moments(p, kappa, grid)
            for m, ref in zip(run, fine):
                bound = 5e-14 * (1.0 + ref.n)
                assert abs(m.n - ref.n) <= bound and abs(m.s - ref.s) <= bound, (p, kappa, grid[0])

    def test_a_dense_quiet_grid_takes_no_panels(self):
        # from -1e5 tau the Gaussian's area is exactly 0 on nearly all of
        # the 10 000 intervals, whose integrals _carry takes in closed form:
        # about 10 600 area calls, against 1.7e6 on panels
        calls = []

        class Counted(Gaussian):
            def _area(self, t):
                calls.append(t)
                return super()._area(t)

        lossy_moments(DriveParams(1.0, 1.0, Counted(1.0)), 1.0, np.linspace(-1e5, 6.0, 10_001))
        assert 0 < len(calls) <= 20_000

    def test_cursor_steps_back_to_the_latest_instant_before(self):
        # asked for t after a later t', as RK45 asks when it rejects a
        # step, the cursor carries from the latest instant at or before t
        # among the start and the last 16, as a fresh walk through the
        # same instants does
        p = DriveParams(1.0, 2.0, Lorentzian(1.0))
        walk = [-7.0 + 0.5 * k for k in range(20)]
        for kappa in (0.0, 0.1, 100.0):
            cursor = _lossy_carry(p, kappa, -8.0)
            for t in walk:
                cursor(t)
            for t, before in ((2.3, walk[:-1]), (-2.2, walk[:10]), (-8.0, []), (1.5, [])):
                fresh = _lossy_carry(p, kappa, -8.0)
                for u in before:
                    fresh(u)
                assert cursor(t) == fresh(t), (kappa, t)
            assert cursor(-8.0) == (0.0, 0.0, 0.0, 0.0, 0.5, 0.5)

    @pytest.mark.parametrize("pulse", FINITE_SHAPES, ids=lambda pulse: type(pulse).__name__)
    def test_cursor_variances_are_the_squeezed_vacuum_without_loss(self, pulse):
        # at kappa 0 the integrals drop out and V+- are e^(+-2x) / 2 to the bit
        for zeta in (0.5, 2.0, 4.0):
            cursor = _lossy_carry(DriveParams(1.0, zeta, pulse), 0.0, CLI_GRID[0])
            for t in CLI_GRID.tolist():
                x, decay, *_, v_plus, v_minus = cursor(t)
                assert decay == 0.0 and (v_plus, v_minus) == (0.5 * math.exp(2.0 * x), 0.5 * math.exp(-2.0 * x))

    @pytest.mark.parametrize("pulse", FINITE_SHAPES, ids=lambda pulse: type(pulse).__name__)
    def test_cursor_variances_give_the_closed_form_moments(self, pulse):
        # n = (V+ + V-)/2 - 1/2 and |s| = (V+ - V-)/2, which lossy_moments
        # forms by its own formulas, within 7.2e-16 and 5.8e-16 of 1 + n
        for zeta in (0.5, 1.0, 2.0, 3.0):
            p = DriveParams(1.0, zeta, pulse)
            for kappa in (0.0, 1e-6, 0.1, 10.0):
                moments = lossy_moments(p, kappa, CLI_GRID)[1:]
                for m, (*_, v_plus, v_minus) in zip(moments, dynamics._lossy_terms(p, kappa, CLI_GRID)):
                    bound = 2e-15 * (1.0 + m.n)
                    assert abs(0.5 * (v_plus + v_minus) - 0.5 - m.n) <= bound, (zeta, kappa)
                    assert abs(0.5 * (v_plus - v_minus) - abs(m.s)) <= bound, (zeta, kappa)

    def test_gauss_legendre_rule(self):
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert np.allclose(nodes[4:], [x for x, _ in _GAUSS_LEGENDRE_8], rtol=0.0, atol=1e-15)
        assert np.allclose(weights[4:], [w for _, w in _GAUSS_LEGENDRE_8], rtol=0.0, atol=1e-14)

    def test_refuses_what_the_ode_refuses(self):
        p = gauss_params(1.0)
        for kappa in (-0.1, math.nan, math.inf, "0.5", True):
            for run in (
                lambda: lossy_moments(p, kappa, CLI_GRID),
                lambda: integrate_moments(p, CLI_GRID, kappa=kappa),
            ):
                with pytest.raises(ValueError, match=f"kappa must be nonnegative and finite, got {kappa!r}"):
                    run()
        delta = DriveParams(1.0, 1.0, DeltaLimit())
        for run in (
            lambda: lossy_moments(delta, 0.1, CLI_GRID),
            lambda: integrate_moments(delta, CLI_GRID, kappa=0.1),
        ):
            with pytest.raises(UnsupportedPulseError) as err:
                run()
            assert str(err.value) == DELTA_REFUSAL
        grids = [
            ([], "times must be a 1-D grid with at least 1 point"),
            (np.zeros((2, 2)), "times must be a 1-D grid with at least 1 point"),
            (0.0, "times must be a 1-D grid with at least 1 point"),
            ([0.0, math.nan], "times must be finite"),
            ([-math.inf, 0.0], "times must be finite"),
            ([0.0, "0.5"], "times must be finite, got '0.5'"),
            ([0.0, True], "times must be finite, got True"),
            ([[0.0, 1.0]], "times must be a 1-D grid with at least 1 point"),
            ([0.0, 0.0], "times must be strictly increasing"),
            ([1.0, 0.0], "times must be strictly increasing"),
        ]
        for times, message in grids:
            for run in (
                lambda: lossy_moments(p, 0.1, times),
                lambda: integrate_moments(p, times, kappa=0.1),
            ):
                with pytest.raises(ValueError, match=message):
                    run()
        assert lossy_moments(p, 0.1, [2.0]) == [VACUUM]
        # a numpy scalar rate is the rate its float is
        grid = CLI_GRID[:9]
        for kappa in (np.float64(0.1), np.int64(1)):
            assert lossy_moments(p, kappa, grid) == lossy_moments(p, float(kappa), grid)
            run, ref = integrate_moments(p, grid, kappa=kappa), integrate_moments(p, grid, kappa=float(kappa))
            assert np.array_equal(run.n, ref.n) and np.array_equal(run.s, ref.s)
        one = integrate_moments(p, [2.0], kappa=0.1)
        assert (one.times.tolist(), one.n.tolist(), one.s.tolist()) == ([2.0], [0.0], [0j])
