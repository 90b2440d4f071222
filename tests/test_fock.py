"""Fock-ladder engines against the closed forms and against each other."""

import gc
import math
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from qbattery import fock
from qbattery.dynamics import DriveParams, IntegrationError, analytic_moments, integrate_moments
from qbattery.fock import (
    FockDensity,
    FockVector,
    TruncationError,
    choose_truncation,
    ergotropy,
    evolve_full,
    evolve_lindblad,
    evolve_rwa,
    quadrature_variances_from_state,
)
from qbattery.merit import quadrature_variances
from qbattery.pulses import Gaussian
from qbattery.specfun import Accuracy

from oracles import lindblad_dense, squeezed_vacuum_distribution


def gauss_params(zeta, tau=1.0, omega_b=1.0, omega_d=None):
    return DriveParams(omega_b=omega_b, zeta=zeta, pulse=Gaussian(tau), omega_d=omega_d)


GRID = np.linspace(-8.0, 6.0, 29)


class TestStateContainers:
    def test_vector_validation(self):
        with pytest.raises(ValueError):
            FockVector(np.array([1.0, 1.0], dtype=complex))  # norm 2
        with pytest.raises(ValueError):
            FockVector(np.array([math.nan, 0.0], dtype=complex))
        vec = FockVector(np.array([1.0] + [0.0] * 7, dtype=complex))
        assert vec.dim == 8
        assert vec.tail_mass() == 0.0
        assert vec.odd_mass() == 0.0
        assert vec.mean_population() == 0.0

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
        n = choose_truncation(1.0, 1e-8)
        assert 100 < n < 1000  # a few hundred levels

    def test_against_distribution_oracle(self):
        # the last three lie below the rounding of a term-by-term sum
        for zeta, tol in (
            (0.5, 1e-8), (1.0, 1e-8), (1.0, 1e-4), (1.87, 1.2e-14), (2.0, 1e-15), (1.0, 1e-14)
        ):
            n = choose_truncation(zeta, tol)
            probs = squeezed_vacuum_distribution(2.0 * zeta, 2 * n)
            assert sum(probs[n - 4 :]) < tol
            # minimality up to the even-headroom rounding
            assert sum(probs[max(0, n - 8) :]) > tol or n == 6

    def test_near_cap_size_is_found_at_once(self):
        start = time.perf_counter()
        assert choose_truncation(3.5, 1e-8) == 9_873_764
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
        # r = 8 puts 2.7e-3 of the mass beyond the 2 * 10^7-level size cap;
        # r = 2000 overflows cosh(r) if evaluated directly
        for zeta, tol in ((4.0, 1e-8), (10.0, 1e-4), (1000.0, 1e-8)):
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match="did not converge"):
                choose_truncation(zeta, tol)
            assert time.perf_counter() - start < 0.1

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
                    choose_truncation(float(zeta), tol)
                except RuntimeError as exc:
                    assert beyond > tol
                    early += "lies beyond" in str(exc)
                else:
                    assert beyond < tol + 1e-12
        assert early > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            choose_truncation(-1.0, 1e-8)
        with pytest.raises(ValueError):
            choose_truncation(1.0, 0.0)
        with pytest.raises(ValueError):
            choose_truncation(1.0, 1.0)


class TestEvolveRwa:
    def test_zero_drive_stays_vacuum(self):
        traj = evolve_rwa(gauss_params(0.0), 8, GRID)
        assert np.max(traj.n) == 0.0
        assert traj.norm_drift == 0.0

    def test_reproduces_analytic_endpoint(self):
        p = gauss_params(1.0)
        traj = evolve_rwa(p, choose_truncation(1.0, 1e-8), GRID)
        want = analytic_moments(p, 6.0)
        assert abs(traj.n[-1] - want.n) < 1e-4
        assert abs(traj.s[-1] - want.s) < 1e-4

    def test_cross_engine_trajectory_agreement(self):
        p = gauss_params(1.0)
        traj = evolve_rwa(p, choose_truncation(1.0, 1e-8), GRID)
        exact = np.array([analytic_moments(p, float(t)).n for t in GRID])
        assert np.max(np.abs(traj.n - exact)) < 1e-4

    def test_parity_and_norm(self):
        traj = evolve_rwa(gauss_params(1.0), choose_truncation(1.0, 1e-8), GRID)
        assert np.max(traj.odd_mass) < 1e-12
        assert traj.norm_drift < 1e-9

    def test_truncation_alarm(self):
        with pytest.raises(TruncationError):
            evolve_rwa(gauss_params(1.0), 8, GRID)

    def test_grid_validation(self):
        p = gauss_params(1.0)
        with pytest.raises(ValueError):
            evolve_rwa(p, 64, [0.0])
        with pytest.raises(ValueError):
            evolve_rwa(p, 64, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            evolve_rwa(p, 4, GRID)

    def test_delta_pulse_rejected(self):
        from qbattery.pulses import DeltaLimit, UnsupportedPulseError

        p = DriveParams(omega_b=1.0, zeta=1.0, pulse=DeltaLimit())
        with pytest.raises(UnsupportedPulseError):
            evolve_rwa(p, 64, GRID)

    def test_csv_export(self, tmp_path):
        traj = evolve_rwa(gauss_params(0.5), choose_truncation(0.5, 1e-8), GRID)
        out = tmp_path / "fock.csv"
        traj.write_csv(out, ergotropy_ratio=1.0)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,n,re_s,im_s,var_x_min,tail_mass,ergotropy_ratio"
        assert len(lines) == GRID.size + 1


class TestEvolveFull:
    def test_zero_drive(self):
        traj = evolve_full(gauss_params(0.0, omega_b=25.0), 8, np.linspace(-8, 6, 8))
        assert np.max(traj.n) == 0.0

    def test_approaches_rwa_with_carrier_separation(self):
        grid = np.linspace(-8.0, 6.0, 8)
        dim = choose_truncation(0.5, 1e-8)
        rel = {}
        for wb in (20.0, 80.0):
            p = gauss_params(0.5, omega_b=wb)
            full = evolve_full(p, dim, grid)
            rwa = evolve_rwa(p, dim, grid)
            rel[wb] = abs(full.n[-1] - rwa.n[-1]) / rwa.n[-1]
            assert np.max(full.odd_mass) < 1e-12
        assert rel[20.0] < 0.02
        assert rel[80.0] < rel[20.0]

    def test_detuned_carrier_charges_less(self):
        # off resonance the pair drive is no longer phase matched
        grid = np.linspace(-8.0, 6.0, 8)
        dim = choose_truncation(0.5, 1e-8)
        res = evolve_full(gauss_params(0.5, omega_b=40.0), dim, grid)
        det = evolve_full(gauss_params(0.5, omega_b=40.0, omega_d=44.0), dim, grid)
        assert det.n[-1] < 0.5 * res.n[-1]


class TestEvolveLindblad:
    def test_lossless_matches_rwa(self):
        p = gauss_params(0.5)
        dim = choose_truncation(0.5, 1e-8)
        grid = np.linspace(-8.0, 6.0, 15)
        lind = evolve_lindblad(p, 0.0, dim, grid)
        rwa = evolve_rwa(p, dim, grid)
        assert np.max(np.abs(lind.n - rwa.n)) < 1e-8

    def test_pure_decay_from_one_photon(self):
        amp = np.zeros(8, dtype=complex)
        amp[1] = 1.0
        grid = np.linspace(0.0, 3.0, 7)
        traj = evolve_lindblad(
            gauss_params(0.0), 0.7, 8, grid, initial=FockVector(amp)
        )
        assert np.allclose(traj.n, np.exp(-0.7 * grid), atol=1e-9)

    def test_matches_dissipative_moment_ode(self):
        p = gauss_params(1.0)
        dim = choose_truncation(1.0, 1e-8)
        grid = np.linspace(-6.0, 6.0, 13)
        lind = evolve_lindblad(p, 0.1, dim, grid, Accuracy(1e-10, 1e-8))
        mom = integrate_moments(
            p, -6.0, 6.0, Accuracy(1e-12, 1e-12), kappa=0.1, times=grid
        )
        assert np.max(np.abs(lind.n - mom.n)) < 1e-4
        assert lind.norm_drift < 1e-8

    def test_positivity_of_final_state(self):
        p = gauss_params(0.5)
        grid = np.linspace(-6.0, 6.0, 7)
        traj = evolve_lindblad(p, 0.2, choose_truncation(0.5, 1e-8), grid)
        assert traj.final_state.min_eigenvalue() > -1e-10

    def test_positivity_margin_at_the_default_accuracy(self):
        # the lowest eigenvalue of the final state is integration noise of
        # the size of the absolute floor; it must stay well inside
        # ergotropy's -1e-10 rejection threshold
        p = gauss_params(1.9)
        traj = evolve_lindblad(p, 0.1, choose_truncation(0.95, 1e-8), GRID)
        assert traj.final_state.dim == 372
        assert traj.final_state.min_eigenvalue() >= -2.5e-11

    @pytest.mark.parametrize(
        "zeta, kappa, dim, initial",
        [
            (0.6, 0.0, 16, "vacuum"),
            (0.6, 0.1, 20, "vacuum"),
            (0.4, 0.5, 12, "one"),
            (0.5, 0.2, 14, "plus"),
            (0.5, 0.15, 40, "random"),
            # odd ladders, where the triangles' diagonals end unevenly
            (0.5, 0.2, 13, "plus"),
            (0.5, 0.15, 15, "random"),
        ],
    )
    def test_matches_dense_reference(self, zeta, kappa, dim, initial):
        # (|0> + |1>)/sqrt(2) fills the odd diagonals; the random state
        # fills both parts of the rotated state, S and T, at both parities
        if initial == "random":
            rng = np.random.default_rng(11)
            x = rng.normal(size=(dim, dim // 2)) + 1j * rng.normal(size=(dim, dim // 2))
            rho0 = x @ x.conj().T
            rho0 = 0.5 * (rho0 + rho0.conj().T) / np.trace(rho0).real
            state = FockDensity(rho0)
        else:
            amp = np.zeros(dim, dtype=complex)
            amp[{"vacuum": [0], "one": [1], "plus": [0, 1]}[initial]] = 1.0
            amp /= np.linalg.norm(amp)
            rho0 = np.outer(amp, amp.conj())
            state = None if initial == "vacuum" else FockVector(amp)
        p = gauss_params(zeta)
        grid = np.linspace(-6.0, 4.0, 11)
        acc = Accuracy(1e-13, 1e-12)
        traj = evolve_lindblad(p, kappa, dim, grid, acc, initial=state, tail_guard=1.0)
        ref = lindblad_dense(p, kappa, rho0, grid, acc)
        for name in ("n", "s", "tail_mass", "odd_mass"):
            assert np.max(np.abs(getattr(traj, name) - ref[name])) < 1e-9, name
        assert abs(traj.norm_drift - ref["norm_drift"]) < 1e-9
        assert np.max(np.abs(traj.final_state.matrix - ref["final"])) < 1e-9

    def test_memory_estimate_bounds_peak(self, monkeypatch):
        # from the vacuum only the even diagonals of S = Re sigma are
        # stored, (dim/2)(dim/2 + 1) entries; a complex state fills both
        # parts at both parities, dim^2 entries; all of them float64
        rk45 = fock._rk45
        stepped = []

        def spying(rhs, span, y0, *args, **kwargs):
            stepped.append(y0)
            return rk45(rhs, span, y0, *args, **kwargs)

        monkeypatch.setattr(fock, "_rk45", spying)
        # the CLI's grid: 57 full samples would overrun the bound
        grid = np.linspace(-8.0, 6.0, 57)
        evolve_lindblad(gauss_params(0.3), 0.1, 8, grid[:2])  # load scipy first
        rng = np.random.default_rng(5)
        x = rng.normal(size=(120, 60)) + 1j * rng.normal(size=(120, 60))
        rho0 = x @ x.conj().T
        random = FockDensity(0.5 * (rho0 + rho0.conj().T) / np.trace(rho0).real)
        # steps of at most tau / 2 interpolate at most three 0.25-spaced
        # samples; with 31 more packed into [0, tau / 100], which one step
        # spans, a step that interpolated whole samples before cutting
        # them down would overrun the bound
        assert fock._samples_per_step(grid, 0.5) == 3
        packed = np.union1d(grid, np.linspace(0.0, 0.01, 31))
        assert fock._samples_per_step(packed, 0.5) == 33
        for times, dim, state, entries in (
            (grid, 200, None, 100 * 101),
            (grid, 120, random, 120**2),
            (packed, 200, None, 100 * 101),
        ):
            per_step = fock._samples_per_step(times, 0.5)
            bound = fock._lindblad_bytes(dim, entries, times.size, per_step)
            tracemalloc.start()
            try:
                evolve_lindblad(gauss_params(1.0), 0.1, dim, times, initial=state, tail_guard=1.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert stepped[-1].dtype == np.float64 and stepped[-1].size == entries
            assert peak <= bound, dim

    @pytest.mark.parametrize(
        "zeta, dim, initial, blocks",
        [
            (0.5, 26, "vacuum", True),
            (2.0, 454, "vacuum", True),
            # an odd ladder from the vacuum: blocks of 8 and 7 levels
            (0.5, 15, "vacuum", True),
            # odd diagonals: no parity blocks, the full matrix instead
            (0.5, 13, "plus", False),
            (1.0, 120, "random", False),
        ],
    )
    def test_final_spectrum_matches_the_full_matrix(self, monkeypatch, zeta, dim, initial, blocks):
        # rho's spectrum is that of the rotated state; from its parity
        # blocks it matches eigvalsh on the final matrix
        if initial == "random":
            rng = np.random.default_rng(5)
            x = rng.normal(size=(dim, dim // 2)) + 1j * rng.normal(size=(dim, dim // 2))
            rho0 = x @ x.conj().T
            state = FockDensity(0.5 * (rho0 + rho0.conj().T) / np.trace(rho0).real)
        elif initial == "plus":
            amp = np.zeros(dim, dtype=complex)
            amp[:2] = 1.0 / math.sqrt(2.0)
            state = FockVector(amp)
        else:
            state = None
        eigvalsh = np.linalg.eigvalsh
        shapes = []

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        traj = evolve_lindblad(gauss_params(zeta), 0.1, dim, GRID, initial=state, tail_guard=1.0)
        rho = traj.final_state
        lam = rho.eigenvalues
        if blocks:
            assert sorted(shapes) == [(dim // 2, dim // 2), ((dim + 1) // 2, (dim + 1) // 2)]
        else:
            assert shapes == [(dim, dim)]
        full = eigvalsh(rho.matrix)
        assert np.max(np.abs(lam - full)) <= 1e-13
        assert abs(ergotropy(rho, 1.0) - ergotropy(FockDensity(rho.matrix), 1.0)) <= 1e-12

    def test_no_solver_array_outlives_the_run(self):
        # with automatic collection off, what is still traced after the
        # run returns is the trajectory and its final state: the solver's
        # work arrays and the stencil are freed before the final phase
        grid = np.linspace(-8.0, 6.0, 57)
        evolve_lindblad(gauss_params(0.3), 0.1, 8, grid[:2])  # load scipy first
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = evolve_lindblad(gauss_params(1.0), 0.1, 200, grid)
            alive = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
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

    def test_preflight_refuses_before_allocating(self):
        dim, grid = 200_000, np.linspace(-6.0, 6.0, 15)
        per_step = fock._samples_per_step(grid, 0.5)
        need = fock._lindblad_bytes(dim, (dim // 2) * (dim // 2 + 1), grid.size, per_step)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError) as err:
                evolve_lindblad(gauss_params(1.0), 0.1, dim, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # not even one dim-sized array
        assert f"{need} bytes" in str(err.value)
        assert f"{fock._memory_budget()} bytes" in str(err.value)

    def test_rejects_negative_kappa_and_bad_initial(self):
        p = gauss_params(0.5)
        with pytest.raises(ValueError):
            evolve_lindblad(p, -0.1, 16, np.linspace(-6, 6, 5))
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        with pytest.raises(ValueError):
            evolve_lindblad(p, 0.1, 16, np.linspace(-6, 6, 5), initial=FockVector(amp))


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
    integrate_moments(p, -6.0, 4.0)
    evolve_rwa(p, 20, grid)
    evolve_full(p, 20, grid)
    evolve_lindblad(p, 0.1, 20, grid)
    assert len(calls) == 4


@pytest.mark.parametrize(
    "run, label",
    [
        (lambda p, grid: integrate_moments(p, -8.0, 6.0), "moment integration failed on [-8, 6]"),
        (lambda p, grid: evolve_rwa(p, 20, grid), "rotating-frame evolution failed"),
        (lambda p, grid: evolve_full(p, 20, grid), "carrier-resolved evolution failed"),
        (lambda p, grid: evolve_lindblad(p, 0.1, 20, grid), "lossy evolution failed"),
    ],
    ids=["moments", "rwa", "full", "lindblad"],
)
def test_solver_failure_names_the_integration(monkeypatch, run, label):
    # a solver that gives up surfaces as IntegrationError, its message
    # naming which integration failed and quoting the solver's reason
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
        traj = evolve_rwa(p, choose_truncation(1.0, 1e-8), GRID)
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
        traj = evolve_rwa(p, choose_truncation(0.8, 1e-8), GRID)
        final = traj.final_state
        t_end = float(GRID[-1])
        for theta in np.linspace(0.0, 2.0 * math.pi, 9):
            mech = quadrature_variances_from_state(final, float(theta), omega_b=1.7, t=t_end)
            closed = quadrature_variances(p, t_end, float(theta))
            assert mech.var_x == pytest.approx(closed.var_x, abs=1e-6)
            assert mech.var_p == pytest.approx(closed.var_p, abs=1e-6)

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
