"""Fock-ladder engines against the closed forms and against each other."""

import gc
import math
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from qbattery import dynamics, fock
from qbattery.dynamics import (
    DriveParams,
    IntegrationError,
    MomentTrajectory,
    analytic_moments,
    integrate_moments,
    lossy_moments,
)
from qbattery.fock import (
    FockDensity,
    FockVector,
    TruncationError,
    choose_truncation,
    ergotropy,
    evolve_full,
    evolve_lindblad,
    evolve_rwa,
    frame_truncation,
    quadrature_variances_from_state,
)
from qbattery.merit import quadrature_variances
from qbattery.pulses import Algebraic, DeltaLimit, Gaussian, Lorentzian, UnsupportedPulseError
from qbattery.specfun import Accuracy

from oracles import (
    frame_nbar,
    full_heisenberg,
    lindblad_dense,
    lossy_nbar,
    squeezed_vacuum_distribution,
    thermal_ladder,
)


def gauss_params(zeta, tau=1.0, omega_b=1.0):
    return DriveParams(omega_b=omega_b, zeta=zeta, pulse=Gaussian(tau))


GRID = np.linspace(-8.0, 6.0, 29)
DELTA_REFUSAL = "the delta-limit pulse has no width and cannot be time stepped; use analytic_moments"


class TestStateContainers:
    def test_vector_validation(self):
        with pytest.raises(ValueError):
            FockVector(np.array([1.0, 1.0], dtype=complex))  # norm 2
        with pytest.raises(ValueError):
            FockVector(np.array([math.nan, 0.0], dtype=complex))
        vec = FockVector(np.array([1.0] + [0.0] * 7, dtype=complex))
        assert vec.dim == 8
        assert vec.mean_population() == 0.0

    def test_vector_owns_a_read_only_copy(self):
        a = np.zeros(4, dtype=complex)
        a[0] = 1.0
        vec = FockVector(a)
        a[0] = 5.0
        assert vec.amp[0] == 1.0
        assert vec.norm_error == 0.0
        with pytest.raises(ValueError, match="read-only"):
            vec.amp[0] = 5.0

    def test_density_validation(self):
        good = np.diag([0.6, 0.4]).astype(complex)
        rho = FockDensity(good)
        assert rho.dim == 2
        assert rho.min_eigenvalue() == pytest.approx(0.4)
        with pytest.raises(ValueError):
            FockDensity(np.diag([0.7, 0.4]).astype(complex))  # trace 1.1
        lopsided = good.copy()
        lopsided[0, 1] = 0.1
        with pytest.raises(ValueError):
            FockDensity(lopsided)  # not Hermitian
        # checked a block of rows at a time: a pair inside the last block
        wide = np.diag(np.full(300, 1.0 / 300)).astype(complex)
        wide[299, 250] = 1e-9
        with pytest.raises(ValueError, match="Hermiticity"):
            FockDensity(wide)
        # NaN fails both checks: in the trace, and off the diagonal alone
        with pytest.raises(ValueError, match="trace"):
            FockDensity(np.full((3, 3), math.nan, dtype=complex))
        holed = np.diag([0.2, 0.3, 0.5]).astype(complex)
        holed[2, 0] = math.nan
        with pytest.raises(ValueError, match="Hermiticity"):
            FockDensity(holed)

    def test_density_spectrum_is_computed_once_and_frozen(self):
        source = np.diag([0.1, 0.6, 0.3]).astype(complex)
        rho = FockDensity(source)
        lam = rho.eigenvalues
        assert rho.eigenvalues is lam
        assert np.array_equal(lam, [0.1, 0.3, 0.6])
        assert rho.min_eigenvalue() == lam[0]
        with pytest.raises(ValueError):
            lam[0] = -1.0
        # the matrix is a frozen copy: neither it nor the caller's array
        # can change under the cached spectrum
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0
        source[0, 0] = 0.5
        assert rho.matrix[0, 0] == 0.1

    @pytest.mark.parametrize("state", ["even-vector", "odd-amplitude", "even-mixed"])
    def test_density_spectrum_from_parity_blocks(self, monkeypatch, state):
        # a matrix with no entry between an even and an odd level, and one
        # whose odd amplitude couples the parities, are each decomposed
        # once, whole
        rng = np.random.default_rng(11)
        dim = 41
        if state == "even-mixed":
            m = np.zeros((dim, dim), dtype=complex)
            for first in (0, 1):
                size = (dim + 1 - first) // 2
                x = rng.normal(size=(size, 3)) + 1j * rng.normal(size=(size, 3))
                m[first::2, first::2] = x @ x.conj().T
            m = 0.5 * (m + m.conj().T)
            rho = FockDensity(m / np.trace(m).real)
        else:
            amp = np.zeros(dim, dtype=complex)
            amp[::2] = rng.normal(size=21) + 1j * rng.normal(size=21)
            if state == "odd-amplitude":
                amp[5] = 0.3
            rho = FockVector(amp / np.linalg.norm(amp)).to_density()
        eigvalsh = np.linalg.eigvalsh
        shapes = []

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        lam = rho.eigenvalues
        assert shapes == [(dim, dim)]
        assert np.all(np.diff(lam) >= 0.0)
        assert np.max(np.abs(lam - eigvalsh(rho.matrix))) <= 1e-13

    def test_density_in_a_squeezed_frame(self):
        # the vacuum written in the frame of angle theta is the squeezed
        # vacuum of squeeze parameter 2 theta: a pure state whose whole
        # lab energy sinh^2(2 theta) is extractable
        vacuum = np.zeros((6, 6), dtype=complex)
        vacuum[0, 0] = 1.0
        rho = FockDensity(vacuum, 0.5)
        assert rho.theta == 0.5
        assert rho.mean_population() == pytest.approx(math.sinh(1.0) ** 2, rel=1e-15)
        assert ergotropy(rho, 2.0) == pytest.approx(2.0 * math.sinh(1.0) ** 2, rel=1e-15)
        # the frame's own <bb> enters: the squeezed vacuum of parameter r
        # in the frame of angle -r/2 is the vacuum
        r = 0.7
        amp = np.sqrt(squeezed_vacuum_distribution(r, 80)).astype(complex)
        amp[::2] *= (-1j) ** np.arange(40)
        squeezed = FockVector(amp / np.linalg.norm(amp)).to_density()
        assert squeezed.mean_population() == pytest.approx(math.sinh(r) ** 2, rel=1e-12)
        back = FockDensity(squeezed.matrix, -0.5 * r)
        assert back.mean_population() == pytest.approx(0.0, abs=1e-12)
        for theta in (math.nan, math.inf, "0.5", True):
            with pytest.raises(ValueError, match="^theta must be finite"):
                FockDensity(vacuum, theta)
        for theta in (np.float64(0.5), np.int64(1)):
            assert type(FockDensity(vacuum, theta).theta) is float

    def test_vector_to_density(self):
        amp = np.zeros(6, dtype=complex)
        amp[0] = amp[2] = 1.0 / math.sqrt(2.0)
        rho = FockVector(amp).to_density()
        assert rho.populations()[0] == pytest.approx(0.5)
        assert rho.min_eigenvalue() == pytest.approx(0.0, abs=1e-14)


class TestChooseTruncation:
    def test_vacuum(self):
        assert choose_truncation(0.0, 1e-8) == 6

    def test_order_of_magnitude(self):
        n = choose_truncation(2.0, 1e-8)
        assert 100 < n < 1000  # a few hundred levels

    def test_against_distribution_oracle(self):
        # the last three lie below the rounding of a term-by-term sum
        for r, tol in (
            (1.0, 1e-8), (2.0, 1e-8), (2.0, 1e-4), (3.74, 1.2e-14), (4.0, 1e-15), (2.0, 1e-14)
        ):
            n = choose_truncation(r, tol)
            probs = squeezed_vacuum_distribution(r, 2 * n)
            assert sum(probs[n - 4 :]) < tol
            # minimality up to the even-headroom rounding
            assert sum(probs[max(0, n - 8) :]) > tol or n == 6

    def test_near_cap_size_is_found_at_once(self):
        start = time.perf_counter()
        assert choose_truncation(7.0, 1e-8) == 9_873_764
        assert time.perf_counter() - start < 0.1

    def test_pair_tail_matches_scipy_betainc(self):
        # 1 - x from 1/30 to 30 times its value at the branch switch
        # x = (m + 1)/(m + 2.5), so both branches and the switch are hit
        from scipy.special import betainc

        branches = []
        for m in np.geomspace(1, 2e7, 40).astype(int).tolist():
            for u in np.linspace(-1.5, 1.5, 7):
                y = min(1.5 / (m + 2.5) * 10**u, 0.9999)
                r = min(max(math.acosh(1.0 / math.sqrt(y)), 0.01), 8.5)
                x = math.tanh(r) ** 2
                branches.append(x >= (m + 1) / (m + 2.5))
                ref = float(betainc(m, 0.5, x))
                assert fock._pair_tail(m, r) == pytest.approx(ref, rel=1e-6), (m, r)
        assert 100 < sum(branches) < len(branches) - 100

    def test_hopeless_arguments_fail_at_once(self):
        # r = 8 puts 2.7e-3 of the mass beyond the 2 * 10^7 + 2-level
        # search cap; r = 2000 overflows cosh(r) if evaluated directly
        for r, tol in ((8.0, 1e-8), (20.0, 1e-4), (2000.0, 1e-8)):
            start = time.perf_counter()
            with pytest.raises(RuntimeError) as err:
                choose_truncation(r, tol)
            assert time.perf_counter() - start < 0.1
            assert str(err.value).startswith(
                f"a squeezed vacuum of r = {r:g} needs more than the 20000002-level search cap: "
            )
            assert str(err.value).endswith(f"of its mass lies beyond it, above tail_tol {tol:g}")

    def test_early_refusal_only_when_the_cap_is_out_of_reach(self, monkeypatch):
        # with a 200-term cap the oracle can sum everything the search
        # could: a refusal must mean the mass beyond the cap exceeds
        # tail_tol
        terms = 200
        monkeypatch.setattr(fock, "_TRUNCATION_TERMS", terms)
        early = 0
        for zeta in np.linspace(0.5, 6.0, 45):
            for tol in (1e-8, 1e-3):
                probs = squeezed_vacuum_distribution(2.0 * zeta, 2 * terms + 1)
                beyond = 1.0 - math.fsum(probs)
                try:
                    choose_truncation(2.0 * float(zeta), tol)
                except RuntimeError as exc:
                    assert beyond > tol
                    early += "lies beyond" in str(exc)
                else:
                    assert beyond < tol + 1e-12
        assert early > 0

    def test_domain(self):
        for r in (-2.0, math.nan, "0.5", True):
            with pytest.raises(ValueError, match="^r must be nonnegative and finite"):
                choose_truncation(r, 1e-8)
        assert choose_truncation(np.float64(2.0), 1e-8) == choose_truncation(np.int64(2), 1e-8)
        with pytest.raises(ValueError):
            choose_truncation(2.0, 0.0)
        with pytest.raises(ValueError):
            choose_truncation(2.0, 1.0)
        # the argument is the squeeze parameter r, no longer half of it
        with pytest.raises(TypeError):
            choose_truncation(zeta=1.0, tail_tol=1e-8)


def ode_moments(zeta, kappa=0.1, grid=np.linspace(-8.0, 6.0, 57)):
    """The moment ODE's lossy moments, on fock-check's default grid unless given."""
    return integrate_moments(gauss_params(zeta), grid, kappa=kappa)


def frame_ladder(zeta, grid, kappa=0.1):
    """The frame ladder fock-check --kappa sizes at the default --tail-tol."""
    return frame_truncation(gauss_params(zeta), kappa, grid, 1e-8)


def refuse_lindblad_step(*args, **kwargs):
    raise AssertionError("the Lindblad engine must not step")


def record_frame_populations(monkeypatch):
    """The list that collects the frame populations (levels x samples)
    every Lindblad run samples: sigma's diagonal at each instant the
    engine's ``observe`` reads."""
    seen = []
    rk45 = fock._rk45

    def recording(rhs, times, y0, *args, observe, **kwargs):
        dim = math.isqrt(y0.size)
        diagonals = []

        def recorded(t, y):
            diagonals.append(y.reshape(dim, dim).diagonal().copy())
            return observe(t, y)

        sol = rk45(rhs, times, y0, *args, observe=recorded, **kwargs)
        seen.append(np.column_stack(diagonals))
        return sol

    monkeypatch.setattr(fock, "_rk45", recording)
    return seen


class TestGaussianPhotonDistribution:
    """With loss the state the pulse reaches from the vacuum is a
    zero-mean Gaussian; in its own squeezed frame it is thermal, so the
    frame ladder holds a geometric photon distribution of mean nbar."""

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_sums_to_one_with_mean_n(self, monkeypatch, zeta):
        # at every sample the frame populations hold the whole trace, and
        # their mean is the thermal population nbar the moments give
        pops = record_frame_populations(monkeypatch)
        ref = ode_moments(zeta)
        dim = frame_ladder(zeta, ref.times)
        evolve_lindblad(gauss_params(zeta), 0.1, dim, ref.times)
        (frame,) = pops
        assert frame.shape == (dim, 57)
        assert np.max(np.abs(frame.sum(axis=0) - 1.0)) < 1e-13
        nbar = frame_nbar(ref)
        assert np.max(np.abs(np.arange(dim) @ frame - nbar) / (1.0 + nbar)) < 1e-8

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_lossless_is_the_squeezed_vacuum(self, r):
        # without loss the pulse leaves a squeezed vacuum, the vacuum of
        # its own frame, which 6 levels hold at every squeeze; evolve_rwa,
        # not the lossy engine, steps it
        assert frame_ladder(r, np.linspace(-8.0, 6.0, 15), kappa=0.0) == 6

    def test_sizes_the_smallest_ladder_at_every_sample(self):
        for zeta, want in ((0.5, 11), (1.0, 16), (2.0, 35), (3.0, 84), (4.0, 216)):
            ref = ode_moments(zeta)
            dim = frame_ladder(zeta, ref.times)
            assert dim == want
            # levels dim - 4 and up of the geometric law hold less than
            # tail_tol at every sample; levels dim - 5 and up do not at
            # the largest nbar
            nbar = frame_nbar(ref).max()
            q = nbar / (nbar + 1.0)
            assert q ** (dim - 4) < 1e-8 <= q ** (dim - 5)
        # one instant is the vacuum, and without drive the variances
        # stay 1/2 up to rounding, which sizes as the vacuum
        assert frame_ladder(1.0, [0.0]) == 6
        assert frame_ladder(0.0, GRID) == 6

    @pytest.mark.parametrize("zeta", [1.0, 2.0])
    def test_lindblad_populations_match_on_the_sized_ladder(self, monkeypatch, zeta):
        # the bench's fock-check bounds hold on the frame ladder, and at
        # every sample the frame populations are the geometric law of
        # mean nbar up to the truncation floor
        pops = record_frame_populations(monkeypatch)
        ref = ode_moments(zeta)
        dim = frame_ladder(zeta, ref.times)
        traj = evolve_lindblad(gauss_params(zeta), 0.1, dim, ref.times)
        assert np.max(np.abs(traj.n - ref.n) / (1.0 + ref.n)) < 1e-6
        assert np.max(traj.tail_mass) < 1e-7
        (frame,) = pops
        nbar = frame_nbar(ref)
        q = nbar / (nbar + 1.0)
        law = (1.0 - q) * q ** np.arange(dim)[:, None]
        tv = 0.5 * (np.sum(np.abs(frame - law), axis=0) + q**dim)
        assert np.max(tv) < 1e-8


class TestFrameTruncation:
    """frame_truncation sizes the frame ladder from the principal
    variances of the lossy closed form, which never cancel."""

    def test_domain(self):
        # kappa, the grid and the pulse are refused as the closed form
        # refuses them, and tail_tol as choose_truncation refuses it
        p = gauss_params(1.0)
        for kappa in (-0.1, math.nan, math.inf, "0.5", True):
            with pytest.raises(ValueError, match=f"kappa must be nonnegative and finite, got {kappa!r}"):
                frame_truncation(p, kappa, GRID, 1e-8)
        assert frame_truncation(p, np.float64(0.1), GRID, 1e-8) == frame_truncation(p, 0.1, GRID, 1e-8)
        for times, message in (
            ([], "at least 1 point"),
            ([0.0, math.nan], "times must be finite"),
            ([0.0, "0.5"], "times must be finite"),
            ([0.0, True], "times must be finite"),
            ([1.0, 0.0], "times must be strictly increasing"),
        ):
            with pytest.raises(ValueError, match=message):
                frame_truncation(p, 0.1, times, 1e-8)
        with pytest.raises(UnsupportedPulseError) as err:
            frame_truncation(DriveParams(1.0, 1.0, DeltaLimit()), 0.1, GRID, 1e-8)
        assert str(err.value) == DELTA_REFUSAL
        for tol in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="tail_tol"):
                frame_truncation(p, 0.1, GRID, tol)
        # V+ past the largest double, from zeta about 355
        for zeta in (355.0, 400.0):
            with pytest.raises(OverflowError):
                frame_ladder(zeta, GRID)

    @pytest.mark.parametrize("zeta, kappa, want", [(9.0, 1e-9, 11), (10.0, 1e-9, 19), (17.0, 0.1, None)])
    def test_matches_an_independent_variance_reference(self, zeta, kappa, want):
        # so squeezed that 1/2 + n - |s| has lost most or all of its
        # digits, the ladder is sized from the variances themselves, and
        # matches one sized from ln V± stepped by an ODE
        grid = np.linspace(-8.0, 6.0, 57)
        dim = frame_ladder(zeta, grid, kappa)
        ref = thermal_ladder(lossy_nbar(gauss_params(zeta), kappa, grid), 1e-8)
        assert abs(dim - ref) <= 1e-6 * ref
        if want is not None:
            assert dim == want

    @pytest.mark.parametrize("shape", [Lorentzian, Algebraic], ids=lambda shape: shape.__name__)
    def test_a_long_window_takes_few_panels(self, shape):
        # these areas never stop changing, so every interval of 57 points
        # from -1e4 tau takes panels; sized by the exponent's swing and the
        # area's scale they take about 19 000 area calls, against 1.3e6 on
        # panels min(tau, 1/kappa)/16 wide
        calls = []

        class Counted(shape):
            def _area(self, t):
                calls.append(t)
                return super()._area(t)

        p = DriveParams(1.0, 1.0, Counted(1.0))
        frame_truncation(p, 0.1, np.linspace(-1e4, 6.0, 57), 1e-8)
        assert 0 < len(calls) <= 40_000

    def test_steps_a_strongly_squeezed_state(self):
        # zeta 10 at kappa 1e-9 (n about 1.2e8) steps on its 19-level
        # frame ladder and tracks the closed-form n
        grid = np.linspace(-8.0, 6.0, 57)
        p = gauss_params(10.0)
        dim = frame_ladder(10.0, grid, 1e-9)
        assert dim == 19
        traj = evolve_lindblad(p, 1e-9, dim, grid)
        n_ref = np.array([m.n for m in dynamics.lossy_moments(p, 1e-9, grid)])
        assert np.max(np.abs(traj.n - n_ref) / (1.0 + n_ref)) < 1e-6

    def test_quiet_tail_costs_no_panels(self):
        # from -1e5 tau each interval before the pulse spans 1786 tau, on
        # which the Gaussian area is exactly 0: its integral is taken in
        # closed form, not on 28 576 panels tau/16 wide
        start = time.perf_counter()
        dim = frame_ladder(1.0, np.linspace(-1e5, 6.0, 57), kappa=0.01)
        assert time.perf_counter() - start < 1.0
        assert dim == 11


class TestEvolveRwa:
    def test_zero_drive_stays_vacuum(self):
        traj = evolve_rwa(gauss_params(0.0), 8, GRID)
        assert np.max(traj.n) == 0.0
        assert traj.norm_drift == 0.0

    def test_reproduces_analytic_endpoint(self):
        p = gauss_params(1.0)
        traj = evolve_rwa(p, choose_truncation(2.0, 1e-8), GRID)
        want = analytic_moments(p, 6.0)
        assert abs(traj.n[-1] - want.n) < 1e-4
        assert abs(traj.s[-1] - want.s) < 1e-4

    def test_cross_engine_trajectory_agreement(self):
        p = gauss_params(1.0)
        traj = evolve_rwa(p, choose_truncation(2.0, 1e-8), GRID)
        exact = np.array([analytic_moments(p, float(t)).n for t in GRID])
        assert np.max(np.abs(traj.n - exact)) < 1e-4

    def test_parity_and_norm(self):
        traj = evolve_rwa(gauss_params(1.0), choose_truncation(2.0, 1e-8), GRID)
        assert np.max(traj.odd_mass) < 1e-12
        assert traj.norm_drift < 1e-9

    def test_truncation_alarm(self):
        with pytest.raises(TruncationError):
            evolve_rwa(gauss_params(1.0), 8, GRID)

    def test_grid_validation(self):
        p = gauss_params(1.0)
        with pytest.raises(ValueError):
            evolve_rwa(p, 64, [])
        with pytest.raises(ValueError):
            evolve_rwa(p, 64, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            evolve_rwa(p, 4, GRID)

    def test_delta_pulse_rejected(self):
        # the engines that step in time read the pulse width; evolve_rwa
        # steps in the pulse area and runs the delta limit (below)
        p = DriveParams(omega_b=1.0, zeta=1.0, pulse=DeltaLimit())
        for run in (
            lambda: evolve_full(p, 64, GRID),
            lambda: evolve_lindblad(p, 0.1, 64, GRID),
        ):
            with pytest.raises(UnsupportedPulseError, match=DELTA_REFUSAL):
                run()

    def test_delta_limit_reaches_the_squeezed_vacuum(self):
        # Theta jumps from 0 through zeta/4 at t = 0, where A = 1/2, to
        # zeta/2: n is 0, then sinh^2(1/2), then sinh^2(1)
        p = DriveParams(omega_b=1.0, zeta=1.0, pulse=DeltaLimit())
        traj = evolve_rwa(p, choose_truncation(1.0, 1e-8), GRID)
        want = np.array([analytic_moments(p, float(t), GRID[0]).n for t in GRID])
        assert want[GRID.tolist().index(0.0)] == math.sinh(0.5) ** 2
        assert np.all(np.abs(traj.n - want) <= 1e-8 * (1.0 + want))
        assert np.max(traj.odd_mass) < 1e-12

    def test_reads_the_drive_only_through_its_area(self, monkeypatch):
        def no_value(self, t):
            raise AssertionError("evolve_rwa read the envelope value")

        monkeypatch.setattr(Gaussian, "_value", no_value)
        p = gauss_params(1.0)
        traj = evolve_rwa(p, choose_truncation(1.0, 1e-8), GRID)
        want = np.array([analytic_moments(p, float(t), GRID[0]).n for t in GRID])
        assert np.all(np.abs(traj.n - want) <= 1e-8 * (1.0 + want))

    def test_dense_grid_keeps_no_state_sample(self):
        # the engine keeps six observables an instant, not the state: at
        # zeta 2 the 454-level ladder's 2001 complex samples alone would
        # take 14.5 MB, and the observables take 96 kB
        dim = choose_truncation(2.0, 1e-8)
        assert dim == 454
        grid = np.linspace(-8.0, 6.0, 2001)
        evolve_rwa(gauss_params(0.3), 8, grid[:2])  # load scipy first
        tracemalloc.start()
        try:
            traj = evolve_rwa(gauss_params(2.0), dim, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.n) == grid.size
        assert peak <= 4e6
        want = np.array([analytic_moments(gauss_params(2.0), float(t), grid[0]).n for t in grid])
        assert np.all(np.abs(traj.n - want) <= 1e-6 * (1.0 + want))

    def test_csv_export(self, tmp_path):
        traj = evolve_rwa(gauss_params(0.5), choose_truncation(1.0, 1e-8), GRID)
        out = tmp_path / "fock.csv"
        traj.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,n,re_s,im_s,var_x_min,tail_mass"
        assert len(lines) == GRID.size + 1

    def test_csv_export_writes_lf_lines_to_a_file_even_named_dash(self, tmp_path, monkeypatch, capsys):
        traj = evolve_rwa(gauss_params(0.5), choose_truncation(1.0, 1e-8), GRID)
        monkeypatch.chdir(tmp_path)
        traj.write_csv("-")
        assert capsys.readouterr().out == ""
        raw = (tmp_path / "-").read_bytes()
        assert b"\r" not in raw and raw.count(b"\n") == GRID.size + 1
        columns, rows = traj.table()
        assert raw.decode().splitlines()[0] == ",".join(columns)


class TestEvolveFull:
    def test_zero_drive(self):
        traj = evolve_full(gauss_params(0.0, omega_b=25.0), 8, np.linspace(-8, 6, 8))
        assert np.max(traj.n) == 0.0

    def test_approaches_rwa_with_carrier_separation(self):
        grid = np.linspace(-8.0, 6.0, 8)
        dim = choose_truncation(1.0, 1e-8)
        rel = {}
        for wb in (20.0, 80.0):
            p = gauss_params(0.5, omega_b=wb)
            full = evolve_full(p, dim, grid)
            rwa = evolve_rwa(p, dim, grid)
            rel[wb] = abs(full.n[-1] - rwa.n[-1]) / rwa.n[-1]
            assert np.max(full.odd_mass) < 1e-12
        assert rel[20.0] < 0.02
        assert rel[80.0] < rel[20.0]

    @pytest.mark.parametrize(
        "zeta, omega_b, omega_d",
        [(0.5, 5.0, None), (0.5, 20.0, None), (1.0, 5.0, None), (1.0, 20.0, None), (1.0, 20.0, 18.0)],
    )
    def test_matches_the_heisenberg_equations(self, zeta, omega_b, omega_d):
        # the engine's own Hamiltonian as three moment equations, with no
        # ladder; on a 1e-13 ladder the truncation stays below the bound
        # (on the 1e-8 one it puts s 1.1e-7 off at zeta 1)
        grid = np.linspace(-8.0, 6.0, 15)
        p = gauss_params(zeta, omega_b=omega_b)
        traj = evolve_full(p, choose_truncation(zeta, 1e-13), grid, omega_d=omega_d)
        n, s = full_heisenberg(p, grid, omega_d)
        scale = 1.0 + n
        assert np.all(np.abs(traj.n - n) <= 1e-9 * scale)
        assert np.all(np.abs(traj.s - s) <= 1e-9 * scale)
        # a pure Gaussian state: (n + 1/2)^2 - |s|^2 = 1/4
        for n_, s_, bound in ((traj.n, traj.s, 1e-10), (n, s, 1e-13)):
            assert np.all(np.abs((n_ + 0.5) ** 2 - np.abs(s_) ** 2 - 0.25) <= bound * (1.0 + n_) ** 2)

    def test_matches_the_heisenberg_equations_at_zeta_2(self):
        # on the 454 levels fock-check sizes at zeta 2 the ladder's floor
        # sets the error: evolve_full lies from its oracle within twice
        # what evolve_rwa lies from the area law on the same ladder
        # (measured n 2.67e-8 against 2.82e-8, s 5.00e-7 against 5.09e-7)
        grid = np.linspace(-8.0, 6.0, 15)
        p = gauss_params(2.0, omega_b=5.0)
        dim = choose_truncation(2.0, 1e-8)
        assert dim == 454
        full, rwa = evolve_full(p, dim, grid), evolve_rwa(p, dim, grid)
        n, s = full_heisenberg(p, grid)
        area = [analytic_moments(p, t, grid[0]) for t in grid]
        n_area, s_area = np.array([m.n for m in area]), np.array([m.s for m in area])
        for full_err, rwa_err in ((full.n - n, rwa.n - n_area), (full.s - s, rwa.s - s_area)):
            assert np.max(np.abs(full_err) / (1.0 + n)) <= 2.0 * np.max(np.abs(rwa_err) / (1.0 + n_area))

    def test_detuned_carrier_charges_less(self):
        # off resonance the pair drive is no longer phase matched
        grid = np.linspace(-8.0, 6.0, 8)
        dim = choose_truncation(1.0, 1e-8)
        res = evolve_full(gauss_params(0.5, omega_b=40.0), dim, grid)
        det = evolve_full(gauss_params(0.5, omega_b=40.0), dim, grid, omega_d=44.0)
        assert det.n[-1] < 0.5 * res.n[-1]

    @pytest.mark.parametrize("omega_d", [-1.0, 0.0, math.nan, math.inf, "0.5", True])
    def test_rejects_bad_carrier(self, omega_d):
        with pytest.raises(ValueError, match="^omega_d must be positive and finite"):
            evolve_full(gauss_params(0.5), 8, np.linspace(-8.0, 6.0, 8), omega_d=omega_d)

    def test_numpy_carrier_is_its_float(self):
        grid = np.linspace(-8.0, 6.0, 8)
        run = evolve_full(gauss_params(0.2), 12, grid, omega_d=np.int64(2))
        ref = evolve_full(gauss_params(0.2), 12, grid, omega_d=2.0)
        assert np.array_equal(run.n, ref.n) and np.array_equal(run.s, ref.s)


class TestEvolveLindblad:
    def test_matches_dissipative_moment_ode(self):
        p = gauss_params(1.0)
        grid = np.linspace(-6.0, 6.0, 13)
        mom = integrate_moments(p, grid, kappa=0.1)
        dim = frame_truncation(p, 0.1, grid, 1e-8)
        lind = evolve_lindblad(p, 0.1, dim, grid)
        assert np.max(np.abs(lind.n - mom.n)) < 1e-4
        assert lind.norm_drift < 1e-8

    @pytest.mark.parametrize("kappa", [1e4, 1e300])
    def test_too_stiff_a_loss_is_an_integration_error(self, monkeypatch, kappa):
        # the explicit stepper cannot follow loss this fast: kappa dim L,
        # over the L = 14 of the grid inside +-8 tau, bounds its calls from
        # below, and past the limit the run is refused before any step,
        # naming kappa, the ladder and the predicted calls; numpy warns of nothing
        monkeypatch.setattr(fock, "_rk45", refuse_lindblad_step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="^lossy evolution failed: ") as err:
                evolve_lindblad(gauss_params(1.0), kappa, 6, GRID)
        message = str(err.value)
        assert "\n" not in message
        assert f"kappa {kappa:g} is too stiff" in message and "6-level frame ladder" in message
        assert f"at least {kappa * 6 * 14:.2g} right-hand-side calls" in message

    def test_a_stiff_loss_under_the_limit_steps(self, monkeypatch):
        # kappa 1e3 predicts 8.4e4 calls on 6 levels, under the limit, so
        # the engine goes on to step (and exits 0 in about 8 s in the CLI)
        class Stepped(Exception):
            pass

        def stepping(*args, **kwargs):
            raise Stepped

        monkeypatch.setattr(fock, "_rk45", stepping)
        with pytest.raises(Stepped):
            evolve_lindblad(gauss_params(1.0), 1e3, 6, GRID)

    def test_stiffness_bound_reads_the_window_rule(self, monkeypatch):
        # the bound sums the capped parts of the driver's own window: on
        # [0, 20] tau the 8 tau up to the cut, and on a grid wholly
        # outside +-8 tau nothing, so however large kappa the run steps
        seen = []
        parts = fock._parts

        def spying(*args):
            seen.append(args)
            return parts(*args)

        monkeypatch.setattr(fock, "_parts", spying)
        monkeypatch.setattr(fock, "_rk45", refuse_lindblad_step)
        with pytest.raises(IntegrationError, match="^lossy evolution failed: ") as err:
            evolve_lindblad(gauss_params(1.0), 1e4, 6, np.linspace(0.0, 20.0, 5))
        assert "over the 8 tau of the grid inside +-8 tau" in str(err.value)
        assert seen == [(0.0, 20.0, 1.0)]
        for grid in (np.linspace(10.0, 20.0, 5), np.linspace(-30.0, -9.0, 5)):
            with pytest.raises(AssertionError, match="must not step"):
                evolve_lindblad(gauss_params(1.0), 1e300, 6, grid)

    def test_frame_angle_is_the_closed_form_one(self):
        # the final state's theta is ln(V+/V-)/8 of the closed form's V+-
        # at the last instant, the walk that sizes the ladder
        for pulse, grid in ((Gaussian(1.0), GRID[:19]), (Lorentzian(1.0), GRID)):
            p = DriveParams(1.0, 1.0, pulse)
            *_, terms = dynamics._lossy_terms(p, 0.1, grid)
            *_, v_plus, v_minus = terms
            traj = evolve_lindblad(p, 0.1, frame_truncation(p, 0.1, grid, 1e-8), grid)
            assert traj.final_state.theta == 0.125 * math.log(v_plus / v_minus), pulse

    def test_least_variance_is_read_off_the_frame(self):
        # at zeta 10, kappa 1e-9, on fock-check's grid, V- is about 3e-9 on
        # the last rows, where n is about 1.2e8, so 1/2 + n - |s| loses
        # every digit; the frame's own variance, scaled by e^(-4 theta),
        # keeps them: it lies within 3.0e-11 of the closed form's V-
        p, grid = gauss_params(10.0), np.linspace(-8.0, 6.0, 57)
        traj = evolve_lindblad(p, 1e-9, frame_truncation(p, 1e-9, grid, 1e-8), grid)
        v_minus = np.array([0.5, *(terms[-1] for terms in dynamics._lossy_terms(p, 1e-9, grid))])
        assert np.all(traj.var_x_min > 0.0)
        assert np.max(np.abs(traj.var_x_min - v_minus) / v_minus) <= 1e-9

    def test_positivity_of_final_state(self):
        p = gauss_params(0.5)
        grid = np.linspace(-6.0, 6.0, 7)
        traj = evolve_lindblad(p, 0.2, choose_truncation(1.0, 1e-8), grid)
        assert traj.final_state.min_eigenvalue() > -1e-10

    def test_positivity_margin_at_the_default_accuracy(self):
        # on twice the frame ladder the state leaves the top levels empty,
        # and the lowest eigenvalue of the final state is integration noise
        # of the size of the absolute floor; it must stay well inside
        # ergotropy's -1e-10 rejection threshold
        dim = 2 * frame_ladder(1.9, GRID)
        traj = evolve_lindblad(gauss_params(1.9), 0.1, dim, GRID)
        assert traj.final_state.dim == 64
        assert traj.final_state.min_eigenvalue() >= -2.5e-11

    @pytest.mark.parametrize(
        "zeta, kappa, dim",
        [
            (0.6, 0.1, 20),
            (0.4, 0.5, 12),
            (0.5, 0.2, 14),
            (0.5, 0.15, 40),
            # odd ladders, whose parity blocks differ in size
            (0.5, 0.2, 13),
            (0.5, 0.15, 15),
        ],
    )
    def test_matches_dense_reference(self, zeta, kappa, dim):
        # the frame ladder of dim levels and the lab-frame reference on a
        # ladder sized for the lossless squeeze both hold the state, so
        # the lab observables, the trace and the spectrum agree; the tail
        # and odd-level masses are read in different frames. The engine
        # steps at its own tolerances, the reference at 1e-13/1e-12
        lab = choose_truncation(zeta, 1e-14)
        rho0 = np.zeros((lab, lab), dtype=complex)
        rho0[0, 0] = 1.0
        p = gauss_params(zeta)
        grid = np.linspace(-6.0, 4.0, 11)
        traj = evolve_lindblad(p, kappa, dim, grid)
        ref = lindblad_dense(p, kappa, rho0, grid, Accuracy(1e-13, 1e-12))
        for name in ("n", "s"):
            assert np.max(np.abs(getattr(traj, name) - ref[name])) < 1e-9, name
        assert abs(traj.norm_drift - ref["norm_drift"]) < 1e-9
        spectrum = np.linalg.eigvalsh(ref["final"])[::-1][:dim]
        assert np.max(np.abs(traj.final_state.eigenvalues[::-1] - spectrum)) < 1e-9

    @pytest.mark.parametrize("kappa", [0.1, 1e-6])
    def test_is_independent_of_the_ladder(self, kappa):
        # V+- come from the closed form, not from the stepped state, so the
        # dim^2 entries of a larger ladder cannot dilute their error control:
        # on 16 and 64 levels n and s agree with the closed form alike
        p = gauss_params(1.0)
        grid = np.linspace(-8.0, 6.0, 57)
        ref = lossy_moments(p, kappa, grid)
        n = np.array([m.n for m in ref])
        s = np.array([m.s for m in ref])
        for dim in (16, 64):
            traj = evolve_lindblad(p, kappa, dim, grid)
            assert np.max(np.abs(traj.n - n) / (1.0 + n)) <= 1e-9, dim
            assert np.max(np.abs(traj.s - s) / (1.0 + n)) <= 1e-9, dim

    def test_memory_estimate_bounds_peak(self, monkeypatch):
        # the frame state is stepped whole, dim^2 float64 numbers
        def samples_per_step(times, max_step):
            # the most instants in any closed window of length max_step
            ends = np.searchsorted(times, times + max_step, side="right")
            return int(np.max(ends - np.arange(times.size)))

        def lindblad_bytes(dim, samples, per_step):
            # 24 arrays of the stored numbers (RK45's stages, y, y_old, f,
            # the error-norm temporaries and the right-hand side's; 19.9 to
            # 21.7 measured at dims 35-128), one step's interpolated rows
            # twice and every sample's observed rows twice; no full-state
            # sample
            observed = 2 * dim
            return 8 * dim * dim * 24 + 16 * observed * per_step + 2 * 8 * observed * samples

        rk45 = fock._rk45
        stepped = []

        def spying(rhs, times, y0, *args, **kwargs):
            stepped.append(y0)
            return rk45(rhs, times, y0, *args, **kwargs)

        monkeypatch.setattr(fock, "_rk45", spying)
        # the CLI's grid: 57 full samples would overrun the bound
        grid = np.linspace(-8.0, 6.0, 57)
        evolve_lindblad(gauss_params(0.3), 0.1, 8, grid[:2])  # load scipy first
        # steps of at most tau / 2 interpolate at most three 0.25-spaced
        # samples; with 31 more packed into [0, tau / 100], which one step
        # spans, a step that interpolated whole samples before cutting
        # them down would overrun the bound
        assert samples_per_step(grid, 0.5) == 3
        packed = np.union1d(grid, np.linspace(0.0, 0.01, 31))
        assert samples_per_step(packed, 0.5) == 33
        # a frame ladder at the level limit needs about 4.6 MB on the grid
        limit = fock.LINDBLAD_LEVEL_LIMIT
        assert round(lindblad_bytes(limit, grid.size, 3) / 1e6, 1) == 4.6
        runs = ((2.0, grid, 35), (1.0, grid, 60), (1.0, grid, 61), (1.0, packed, 60))
        for zeta, times, dim in runs:
            bound = lindblad_bytes(dim, times.size, samples_per_step(times, 0.5))
            tracemalloc.start()
            try:
                evolve_lindblad(gauss_params(zeta), 0.1, dim, times)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert stepped[-1].dtype == np.float64 and stepped[-1].size == dim * dim
            assert peak <= bound, dim

    @pytest.mark.parametrize(
        "zeta, dim",
        [
            (0.5, 26),
            (2.0, 35),
            # an odd ladder
            (0.5, 15),
        ],
    )
    def test_final_spectrum_matches_the_full_matrix(self, monkeypatch, zeta, dim):
        # rho's spectrum is that of the frame state, decomposed once
        eigvalsh = np.linalg.eigvalsh
        shapes = []

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        traj = evolve_lindblad(gauss_params(zeta), 0.1, dim, GRID)
        rho = traj.final_state
        lam = rho.eigenvalues
        assert shapes == [(dim, dim)]
        full = eigvalsh(rho.matrix)
        assert np.max(np.abs(lam - full)) <= 1e-13
        same = FockDensity(rho.matrix, rho.theta)
        assert abs(ergotropy(rho, 1.0) - ergotropy(same, 1.0)) <= 1e-12

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_ergotropy_is_the_gaussian_one(self, zeta):
        # a zero-mean Gaussian state of symplectic eigenvalue
        # nu = sqrt(V+ V-) has passive energy nu - 1/2, so the work ratio
        # is 1 - (nu - 1/2) / n: the lab energy against the spectrum
        ref = ode_moments(zeta)
        dim = frame_ladder(zeta, ref.times)
        rho = evolve_lindblad(gauss_params(zeta), 0.1, dim, ref.times).final_state
        ratio = ergotropy(rho, 1.0) / rho.mean_population()
        assert abs(ratio - (1.0 - frame_nbar(ref)[-1] / ref.n[-1])) < 1e-8

    def test_trace_holds_long_after_the_pulse(self):
        # the truncated dissipator makes sigma's antisymmetric part grow,
        # so a right-hand side that rounding leaves even slightly
        # asymmetric lets the trace run away within a few tau
        grid = np.linspace(-8.0, 20.0, 57)
        traj = evolve_lindblad(gauss_params(2.0), 0.1, frame_ladder(2.0, grid), grid)
        assert traj.norm_drift < 1e-8

    def test_no_solver_array_outlives_the_run(self):
        # once garbage is collected, what is still traced after the run
        # returns is the trajectory and its final state: no solver work
        # array, 80 kB each and so larger than the slack, stays reachable
        grid = np.linspace(-8.0, 6.0, 57)
        evolve_lindblad(gauss_params(0.3), 0.1, 8, grid[:2])  # load scipy first
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = evolve_lindblad(gauss_params(1.0), 0.1, 100, grid)
            gc.collect()
            alive = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        kept = sum(
            getattr(traj, name).nbytes
            for name in ("times", "n", "s", "var_x_min", "tail_mass", "odd_mass")
        )
        kept += traj.final_state.matrix.nbytes + traj.final_state.eigenvalues.nbytes
        assert alive <= kept + (64 << 10)

    def test_emits_no_warning(self):
        # scipy only warns about a solver option it ignores, so every
        # option the engine passes must reach the solver without one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve_lindblad(gauss_params(0.5), 0.1, 20, GRID)
        assert traj.n.shape == GRID.shape

    def test_preflight_refuses_before_allocating(self, monkeypatch):
        # the vector engines refuse their own oversized ladder the same way
        def refuse(*args, **kwargs):
            raise AssertionError("the engine must not step")

        monkeypatch.setattr(fock, "_rk45", refuse)
        grid = np.linspace(-6.0, 6.0, 15)
        assert fock.LINDBLAD_LEVEL_LIMIT == 150
        assert fock.VECTOR_LEVEL_LIMIT == 10_000
        lossy = (
            lambda p, dim, times: evolve_lindblad(p, 0.1, dim, times),
            fock.LINDBLAD_LEVEL_LIMIT,
            "the frame ladder needs {} levels (zeta 1, kappa 0.1)",
            "lossy engine",
        )
        vector = [
            (engine, fock.VECTOR_LEVEL_LIMIT, "the vector ladder needs {} levels (zeta 1)", "lossless engines")
            for engine in (evolve_rwa, evolve_full)
        ]
        for engine, limit, needs, owner in (lossy, *vector):
            for dim in (200_000, limit + 1):
                tracemalloc.start()
                try:
                    with pytest.raises(ValueError) as err:
                        engine(gauss_params(1.0), dim, grid)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 1 << 20  # not even one dim-sized array
                assert needs.format(dim) in str(err.value)
                assert f"{limit}-level limit of the {owner}" in str(err.value)

    def test_rejects_negative_kappa(self):
        # without loss the state is pure, the vector engine's to step;
        # kappa is refused first, before the ladder and the grid
        p = gauss_params(0.5)
        for kappa in (-0.1, 0.0, math.nan, math.inf, "0.5", True):
            with pytest.raises(ValueError, match="^kappa must be positive.*evolve_rwa"):
                evolve_lindblad(p, kappa, 0, [])


def test_every_integration_looks_up_solve_ivp_when_it_runs(monkeypatch):
    # the four ODE call sites resolve scipy.integrate.solve_ivp per call,
    # so a rebinding made after import (e.g. by a tracer) is honoured
    import scipy.integrate

    solve_ivp = scipy.integrate.solve_ivp
    calls = []

    def counting(fun, *args, **kwargs):
        calls.append(fun)
        return solve_ivp(fun, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
    p = gauss_params(0.3)
    grid = np.linspace(-6.0, 4.0, 5)
    integrate_moments(p, grid)
    evolve_rwa(p, 20, grid)
    evolve_full(p, 20, grid)
    evolve_lindblad(p, 0.1, 20, grid)
    assert len(calls) == 4


def test_quiet_tails_cost_few_steps(monkeypatch):
    # steps are capped at tau / 2 inside +-8 tau only, so a grid from
    # -2000 tau makes few more right-hand-side calls than the default
    # grid from -8 tau, where the drive starts, for every engine; the
    # ladders are those fock-check sizes at zeta 1
    import scipy.integrate

    solve_ivp = scipy.integrate.solve_ivp
    calls = []

    def counting(fun, *args, **kwargs):
        def counted(t, y):
            calls.append(t)
            return fun(t, y)

        return solve_ivp(counted, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
    p = gauss_params(1.0)
    runs = {
        "moments": lambda grid: integrate_moments(p, grid),
        "rwa": lambda grid: evolve_rwa(p, 66, grid),
        "lindblad": lambda grid: evolve_lindblad(p, 0.1, 16, grid),
    }
    for name, run in runs.items():
        counts = []
        for start in (-8.0, -2000.0):
            calls.clear()
            run(np.linspace(start, 6.0, 57))
            counts.append(len(calls))
        assert counts[1] <= 1.2 * counts[0], (name, counts)


def test_every_integration_makes_the_same_solve_ivp_call(monkeypatch):
    # one sampling contract: every ODE run, on each part of its grid's
    # span whether the part holds a sample or not, passes solve_ivp the
    # same keywords, and none asks for a dense OdeSolution
    import scipy.integrate

    solve_ivp = scipy.integrate.solve_ivp
    keywords = []

    def spying(*args, **kwargs):
        keywords.append(frozenset(kwargs))
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", spying)
    p = gauss_params(0.3)
    grid = np.linspace(-6.0, 4.0, 5)
    integrate_moments(p, [-12.0, 12.0])
    integrate_moments(p, [-12.0, *grid, 12.0])
    evolve_rwa(p, 20, grid)
    evolve_full(p, 20, grid)
    evolve_lindblad(p, 0.1, 20, grid)
    assert len(keywords) == 9
    assert len(set(keywords)) == 1
    assert "dense_output" not in keywords[0]


@pytest.mark.parametrize(
    "engine, limit",
    [
        (evolve_rwa, fock.VECTOR_LEVEL_LIMIT),
        (evolve_full, fock.VECTOR_LEVEL_LIMIT),
        (lambda p, dim, times: evolve_lindblad(p, 0.1, dim, times), fock.LINDBLAD_LEVEL_LIMIT),
    ],
    ids=["rwa", "full", "lindblad"],
)
def test_engines_refuse_bad_dim_and_tail_guard(engine, limit):
    # a ladder size must be an integer, not a float cut down or a bool
    # read as 1, nor above its engine's limit; every engine sounds the
    # same truncation alarm, 1e-6 of the mass in the top four levels,
    # which 8 levels overrun at zeta 0.5
    p = gauss_params(0.5)
    grid = np.linspace(-6.0, 6.0, 5)
    for bad in (6.5, 8.0, "8", np.True_):
        with pytest.raises(ValueError, match=f"^dim must be an integer, got {bad!r}$"):
            engine(p, bad, grid)
    with pytest.raises(ValueError, match="got True"):
        engine(p, True, grid)
    with pytest.raises(ValueError, match="at least 6, got 0"):
        engine(p, 0, grid)
    with pytest.raises(ValueError, match=f"needs {limit + 1} levels .* the {limit}-level limit"):
        engine(p, limit + 1, grid)
    with pytest.raises(TruncationError, match=r"guard 1\.0e-06"):
        engine(p, 8, grid)
    assert len(engine(p, np.int64(26), grid).n) == 5


@pytest.mark.parametrize(
    "run",
    [
        lambda times: evolve_rwa(gauss_params(0.5), 26, times),
        lambda times: evolve_full(gauss_params(0.5), 26, times),
        lambda times: evolve_lindblad(gauss_params(0.5), 0.1, 16, times),
        lambda times: integrate_moments(gauss_params(0.5), times),
        lambda times: lossy_moments(gauss_params(0.5), 0.1, times),
        lambda times: MomentTrajectory(times, np.zeros(len(times)), np.zeros(len(times))),
    ],
    ids=["rwa", "full", "lindblad", "moments", "lossy_moments", "trajectory"],
)
def test_engines_refuse_nonfinite_times(run):
    # a NaN passes the increasing-grid check, and an infinite end
    # would have the solver step without end; a finite grid gives one
    # sample per instant, the first the vacuum every run starts from,
    # and a grid of one instant that vacuum alone
    start = time.perf_counter()
    for times in ([-8.0, math.nan], [math.nan, 0.0], [-8.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="times must be finite"):
            run(times)
    assert time.perf_counter() - start < 1.0
    for grid in ([-8.0, 6.0], [-8.0]):
        samples = run(grid)
        if isinstance(samples, list):  # lossy_moments' MomentStates
            samples = MomentTrajectory(grid, [m.n for m in samples], [m.s for m in samples])
        assert samples.times.tolist() == grid
        assert len(samples.n) == len(samples.s) == len(grid)
        assert samples.n[0] == 0.0 and samples.s[0] == 0.0


@pytest.mark.parametrize(
    "run, label",
    [
        (lambda p, grid: integrate_moments(p, grid), "moment integration failed on [-6, 4]"),
        (lambda p, grid: evolve_rwa(p, 20, grid), "rotating-frame evolution failed in pulse area on [0, 0.149995]"),
        (lambda p, grid: evolve_full(p, 20, grid), "carrier-resolved evolution failed on [-6, 4]"),
        (lambda p, grid: evolve_lindblad(p, 0.1, 20, grid), "lossy evolution failed on [-6, 4]"),
    ],
    ids=["moments", "rwa", "full", "lindblad"],
)
def test_solver_failure_names_the_integration(monkeypatch, run, label):
    # a solver that gives up surfaces as IntegrationError, its message
    # naming which integration failed on which part of its window and
    # quoting the solver's reason, in one wording for every engine
    import scipy.integrate

    reason = "Required step size is less than spacing between numbers."

    def giving_up(*args, **kwargs):
        return types.SimpleNamespace(success=False, message=reason)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", giving_up)
    with pytest.raises(IntegrationError) as err:
        run(gauss_params(0.3), np.linspace(-6.0, 4.0, 5))
    assert str(err.value) == f"{label}: {reason}"


class TestErgotropy:
    def test_pure_state_gives_full_energy(self):
        rng = np.random.default_rng(3)
        amp = rng.normal(size=30) + 1j * rng.normal(size=30)
        amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2)))
        state = FockVector(amp)
        expected = 1.7 * state.mean_population()
        assert ergotropy(state.to_density(), 1.7) == pytest.approx(expected, rel=1e-12)
        assert ergotropy(state, 1.7) == expected

    def test_passive_state_gives_zero(self):
        # populations already decreasing with level: nothing extractable
        pops = np.array([0.5, 0.25, 0.15, 0.07, 0.03])
        rho = FockDensity(np.diag(pops).astype(complex))
        assert ergotropy(rho, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_inverted_population_yields_work(self):
        pops = np.array([0.1, 0.2, 0.7])
        rho = FockDensity(np.diag(pops).astype(complex))
        # sorting descending pairs 0.7 with level 0, 0.2 with 1, 0.1 with 2
        want = (0.2 + 2 * 0.7) - (0.2 + 2 * 0.1)
        assert ergotropy(rho, 1.0) == pytest.approx(want, rel=1e-14)
        assert ergotropy(rho, 1.0) <= 1.0 * rho.mean_population() + 1e-12

    def test_rejects_nonpositive(self):
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError):
            ergotropy(FockDensity(bad), 1.0)
        with pytest.raises(TypeError):
            ergotropy(np.eye(2), 1.0)

    def test_charged_battery_is_fully_extractable(self):
        p = gauss_params(1.0)
        traj = evolve_rwa(p, choose_truncation(2.0, 1e-8), GRID)
        final = traj.final_state
        ratio = ergotropy(final.to_density(), 1.0) / final.mean_population()
        assert ratio == pytest.approx(1.0, abs=1e-8)


class TestQuadratureFromState:
    def test_vacuum(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        report = quadrature_variances_from_state(FockVector(amp), 0.7)
        assert report.var_x == pytest.approx(0.5, abs=1e-14)
        assert report.var_p == pytest.approx(0.5, abs=1e-14)

    def test_matches_closed_form_after_evolution(self):
        p = gauss_params(0.8, omega_b=1.7)
        traj = evolve_rwa(p, choose_truncation(1.6, 1e-8), GRID)
        final = traj.final_state
        t_end = float(GRID[-1])
        for theta in np.linspace(0.0, 2.0 * math.pi, 9):
            mech = quadrature_variances_from_state(final, float(theta), omega_b=1.7, t=t_end)
            closed = quadrature_variances(p, t_end, float(theta))
            assert mech.var_x == pytest.approx(closed.var_x, abs=1e-6)
            assert mech.var_p == pytest.approx(closed.var_p, abs=1e-6)

    def test_rejects_a_density(self):
        rho = FockDensity(np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(TypeError, match="FockVector"):
            quadrature_variances_from_state(rho, 0.0)

    def test_coherent_state_is_uncertainty_limited(self):
        # displaced vacuum: variances 1/2 for every twist angle
        alpha = 0.6
        n = np.arange(40)
        amp = np.exp(-0.5 * alpha**2) * alpha**n / np.sqrt(
            np.array([math.factorial(int(k)) for k in n], dtype=float)
        )
        state = FockVector(amp.astype(complex))
        for theta in (0.0, 1.0, 2.5):
            report = quadrature_variances_from_state(state, theta)
            assert report.var_x == pytest.approx(0.5, abs=1e-10)
            assert report.var_p == pytest.approx(0.5, abs=1e-10)
