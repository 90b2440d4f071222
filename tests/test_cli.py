"""Command-line interface: schemas, determinism, config handling, errors."""

import argparse
import itertools
import json
import math
import os
import shlex
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qbattery.cli import build_parser, main
from qbattery.dynamics import DriveParams, integrate_moments, lossy_moments
from qbattery.fock import frame_truncation
from qbattery.merit import peak_power_delay_weak_limit
from qbattery.pulses import Gaussian

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Every closed-form command behind the paper's panels.
CLOSED_FORM_COMMANDS = [
    ["fig", "2a"],
    ["fig", "2b"],
    ["fig", "2c"],
    ["fig", "3a"],
    ["fig", "3b"],
    ["fig", "3c"],
    ["energy"],
    ["power"],
    ["charge-time"],
    ["peak-power"],
    ["quadratures"],
    ["sweep"],
]


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def test_energy_schema_and_endpoints(tmp_path):
    out = tmp_path / "energy.csv"
    rc = main(
        [
            "energy",
            "--zeta", "1", "--tau", "1",
            "--t-min", "-4", "--t-max", "4", "--steps", "400",
            "--out", str(out),
        ]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["t", "E_over_Emax"]
    assert rows.shape == (400, 2)
    assert rows[0, 1] < 1e-6          # uncharged long before the pulse
    assert rows[-1, 1] > 0.999        # saturated well after it
    assert np.all(np.diff(rows[:, 1]) >= 0.0)


def test_power_runs(tmp_path):
    out = tmp_path / "power.csv"
    assert main(["power", "--zeta", "2", "--steps", "50", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "P"]
    assert np.all(rows[:, 1] >= 0.0)


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["fig", "3b", "--steps", "40"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_peak_power_weak_drive(tmp_path):
    out = tmp_path / "pp.csv"
    assert main(["peak-power", "--zeta", "0.01", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    t_over_tau = rows[0, header.index("t_p_over_tau")]
    assert abs(t_over_tau - 0.506) <= 1e-3


@pytest.mark.parametrize(
    "args", [["peak-power", "--zeta", "1e-300"], ["sweep", "--zetas", "1e-200,1"]]
)
def test_tiny_zeta_runs(args, tmp_path):
    out = tmp_path / "tiny.csv"
    assert main(args + ["--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert abs(rows[0, header.index("t_p")] - peak_power_delay_weak_limit()) <= 1e-12


def test_zeta_past_the_overflow_of_its_square_exits_naming_the_bound(capsys):
    assert main(["peak-power", "--zeta", "1e154"]) == 1
    assert "zeta <= sqrt(sys.float_info.max / 2) = 9.48e+153" in capsys.readouterr().err


def test_charge_time_list(tmp_path):
    out = tmp_path / "ct.csv"
    assert main(
        ["charge-time", "--zeta", "2", "--alpha", "0.1,0.5,0.9", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["alpha", "t_alpha", "t_alpha_over_tau", "e_max"]
    assert rows.shape[0] == 3
    assert np.all(np.diff(rows[:, 1]) > 0.0)


def test_quadratures_respect_floor(tmp_path):
    out = tmp_path / "quad.csv"
    assert main(
        ["quadratures", "--zeta", "2", "--theta-steps", "128", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    assert header == ["theta", "var_x", "var_p", "std_product"]
    assert rows.shape[0] == 128
    assert np.all(rows[:, 3] >= 0.5 - 1e-12)
    assert rows[:, 1].min() < 0.5  # squeezing visible


@pytest.mark.parametrize(
    "argv, zeta",
    [(["fig", "2c"], 8.0), (["quadratures", "--time", "0"], 20.0)],
    ids=["fig-2c", "quadratures"],
)
def test_strong_squeezing_stays_on_the_floor(tmp_path, argv, zeta):
    # a squeezed variance of e^-zeta / 2 comes out whole, not as the
    # cancellation noise of 1/2 + n - |s| below the uncertainty floor
    out = tmp_path / "quad.csv"
    assert main([*argv, "--zeta", str(zeta), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[:, 1].min() == pytest.approx(0.5 * math.exp(-zeta), rel=1e-12)
    assert np.all(rows[:, 3] >= 0.5 - 1e-12)


def test_fock_check_schema(tmp_path):
    out = tmp_path / "fock.csv"
    assert main(
        [
            "fock-check",
            "--zeta", "0.4",
            "--t-min", "-8", "--t-max", "4", "--steps", "7",
            "--ergotropy",
            "--out", str(out),
        ]
    ) == 0
    header, rows = read_csv(out)
    assert header == [
        "t", "n", "re_s", "im_s", "var_x_min", "tail_mass",
        "n_ref", "abs_err", "ergotropy_ratio",
    ]
    assert rows.shape[0] == 7
    assert np.max(rows[:, header.index("abs_err")]) < 1e-4
    assert abs(rows[0, header.index("ergotropy_ratio")] - 1.0) < 1e-6


def test_fock_check_takes_any_unit_area_pulse(tmp_path):
    # the reference column is the area law for every envelope, counted
    # from the vacuum at the first grid point as the engine is:
    # n = sinh^2(zeta (A(t) - A(-8 tau))); by -8 tau the sech has
    # delivered 2e-4 of its area and the Lorentzian 4e-2
    from qbattery.pulses import from_name

    for name in ("sech", "lorentzian"):
        out = tmp_path / f"{name}.csv"
        assert main(["fock-check", "--pulse", name, "--zeta", "0.5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        n_ref = rows[:, header.index("n_ref")]
        area = from_name(name, 1.0).area
        assert n_ref.tolist() == [math.sinh(0.5 * (area(t) - area(-8.0))) ** 2 for t in rows[:, 0]]
        assert np.max(rows[:, header.index("abs_err")] / (1.0 + n_ref)) < 1e-6, name


def test_fock_check_runs_the_delta_limit(tmp_path):
    # the lossless engine steps in the pulse area, which the delta limit
    # has; the lossy engine reads the width and refuses it (delta-lossy)
    out = tmp_path / "delta.csv"
    assert main(["fock-check", "--pulse", "delta", "--zeta", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    n_ref = rows[:, header.index("n_ref")]
    assert n_ref[-1] == math.sinh(1.0) ** 2
    assert np.max(rows[:, header.index("abs_err")] / (1.0 + n_ref)) <= 1e-6


def test_fock_check_pure_ergotropy_needs_no_density_matrix(tmp_path, monkeypatch):
    from qbattery.fock import FockVector

    def refuse(self):
        raise AssertionError("to_density builds a dim^2 matrix")

    monkeypatch.setattr(FockVector, "to_density", refuse)
    out = tmp_path / "fock.csv"
    assert main(["fock-check", "--zeta", "0.3", "--steps", "5", "--ergotropy", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert np.all(rows[:, header.index("ergotropy_ratio")] == 1.0)


def _refuse_lindblad_step(*args, **kwargs):
    raise AssertionError("the Lindblad engine must not step")


def test_fock_check_lossy_refuses_oversized_ladder(capsys, monkeypatch):
    # zeta = 4 needs 216 frame levels, above the engine's limit: the
    # closed-form moments size the ladder, and the engine refuses it
    # before it steps and before the moment ODE runs
    from qbattery import dynamics, fock

    def refuse_ode(*args, **kwargs):
        raise AssertionError("the moment ODE must not run")

    monkeypatch.setattr(fock, "_rk45", _refuse_lindblad_step)
    monkeypatch.setattr(dynamics, "integrate_moments", refuse_ode)
    start = time.perf_counter()
    assert main(["fock-check", "--zeta", "4", "--kappa", "0.1"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "the frame ladder needs 216 levels (zeta 4, kappa 0.1)" in err
    assert "150-level limit of the lossy engine" in err


def test_fock_check_runs_lossy_zeta_3(tmp_path):
    # 84 frame levels; the lab-frame ladder would need 2 217
    out = tmp_path / "lossy.csv"
    assert main(["fock-check", "--zeta", "3", "--kappa", "0.1", "--ergotropy", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    n_ref = rows[:, header.index("n_ref")]
    assert np.max(rows[:, header.index("abs_err")] / (1.0 + n_ref)) <= 1e-6
    assert np.max(rows[:, header.index("tail_mass")]) <= 1e-7
    assert 0.0 < rows[0, header.index("ergotropy_ratio")] <= 1.0


def test_fock_check_lossy_n_ref_holds_the_closed_form(tmp_path):
    # at zeta 10, kappa 1e-9 abs_err measures the engine, not the
    # reference: n_ref lies within 1e-10 (1 + n) of the closed form
    out = tmp_path / "lossy.csv"
    assert main(["fock-check", "--zeta", "10", "--kappa", "1e-9", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    p = DriveParams(omega_b=1.0, zeta=10.0, pulse=Gaussian(1.0))
    exact = np.array([m.n for m in lossy_moments(p, 1e-9, rows[:, 0])])
    n_ref = rows[:, header.index("n_ref")]
    assert np.all(np.abs(n_ref - exact) <= 1e-10 * (1.0 + exact))
    assert np.max(rows[:, header.index("abs_err")] / (1.0 + n_ref)) <= 1e-9


@pytest.mark.parametrize("flags", [["--zeta", "2"], ["--zeta", "1", "--kappa", "1"]])
def test_fock_check_steps_freely_through_a_million_tau_of_tail(tmp_path, monkeypatch, flags):
    # outside +-8 tau the drive is off and the steps are free, so a grid
    # from -1e6 tau costs about what the default grid does (7 184
    # right-hand-side calls with loss; without, the tail adds no pulse
    # area and no step, 1 880 calls); at tau / 2 steps it would take
    # millions, which the budget of 20 000 stops
    import scipy.integrate

    solve_ivp = scipy.integrate.solve_ivp
    calls = 0

    def budgeted(fun, *args, **kwargs):
        def counted(t, y):
            nonlocal calls
            calls += 1
            if calls > 20_000:
                raise RuntimeError(f"over the right-hand-side call budget at t = {t:g}")
            return fun(t, y)

        return solve_ivp(counted, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", budgeted)
    out = tmp_path / "tail.csv"
    assert main(["fock-check", *flags, "--t-min=-1e6", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert rows[0, 0] == -1e6
    n_ref = rows[:, header.index("n_ref")]
    assert np.max(rows[:, header.index("abs_err")] / (1.0 + n_ref)) <= 1e-6


def test_fock_check_agrees_with_a_reference_rounded_below_zero(tmp_path):
    # at --kappa 10 the integrated reference n rounds to about -4e-27 on
    # the rising edge; the lossy run still passes and agrees with it there
    out = tmp_path / "lossy.csv"
    assert main(["fock-check", "--kappa", "10", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert np.min(rows[:, header.index("n_ref")]) < 0.0
    assert np.max(rows[:, header.index("abs_err")]) < 1e-8


def test_fock_check_sizes_the_lossy_ladder_from_the_gaussian_state(monkeypatch):
    # with loss the state is a zero-mean Gaussian, thermal in its own
    # squeezed frame: 11 / 16 / 35 frame levels at --tail-tol 1e-8,
    # against 22 / 51 / 318 in the lab frame
    from qbattery import fock

    dims = []

    def recording(p, kappa, dim, times):
        dims.append(dim)
        raise RuntimeError("sized; stop before stepping")

    monkeypatch.setattr(fock, "evolve_lindblad", recording)
    for zeta in ("0.5", "1", "2"):
        assert main(["fock-check", "--zeta", zeta, "--kappa", "0.1"]) == 1
    assert dims == [11, 16, 35]


def test_fock_check_sizes_the_vector_ladder_for_the_squeeze_reached(tmp_path, monkeypatch):
    # a unit-area pulse leaves a squeezed vacuum with r = zeta; its
    # ladder at --tail-tol 1e-8 is 12 / 26 / 66 / 454 levels
    from qbattery import fock

    dims = []
    real = fock.evolve_rwa

    def recording(p, dim, times):
        dims.append(dim)
        return real(p, dim, times)

    monkeypatch.setattr(fock, "evolve_rwa", recording)
    for zeta in ("0.1", "0.5", "1", "2"):
        out = tmp_path / f"pure-{zeta}.csv"
        assert main(["fock-check", "--zeta", zeta, "--tail-tol", "1e-8", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        n_ref = rows[:, header.index("n_ref")]
        assert np.max(rows[:, header.index("abs_err")] / (1.0 + n_ref)) <= 1e-6
        assert np.max(np.abs(rows[:, header.index("tail_mass")])) <= 1e-7
        assert rows[-1, header.index("n")] == pytest.approx(math.sinh(float(zeta)) ** 2, rel=1e-6)
    assert dims == [12, 26, 66, 454]


def _refuse_vector_step(*args, **kwargs):
    raise AssertionError("the vector engine must not run")


@pytest.mark.parametrize("zeta, levels", [("4", 24480), ("7", 9873764)])
def test_fock_check_refuses_an_oversized_vector_ladder_at_once(capsys, monkeypatch, zeta, levels):
    # the engine refuses the ladder the CLI sized, before it steps
    from qbattery import fock

    monkeypatch.setattr(fock, "_rk45", _refuse_vector_step)
    start = time.perf_counter()
    assert main(["fock-check", "--zeta", zeta, "--tail-tol", "1e-8"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"{levels} levels" in err
    assert f"{fock.VECTOR_LEVEL_LIMIT}-level limit" in err
    assert f"(zeta {zeta})" in err


def test_fock_check_refuses_a_state_beyond_the_search_cap_at_once():
    # at zeta 10, 0.685 of the squeezed vacuum's mass lies beyond the
    # 2 * 10^7 + 2 levels the truncation search tries; the refusal names
    # that cap, well within a second and before numpy loads
    proc = run_python(
        "import io, json, sys, time\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "from qbattery.cli import main\n"
        "err = io.StringIO()\n"
        "start = time.perf_counter()\n"
        "with redirect_stdout(io.StringIO()), redirect_stderr(err):\n"
        "    code = main(['fock-check', '--zeta', '10'])\n"
        "elapsed = time.perf_counter() - start\n"
        "numpy = sorted(m for m in sys.modules if m.startswith('numpy.'))\n"
        "print(json.dumps([code, elapsed, err.getvalue(), numpy]))"
    )
    assert proc.returncode == 0, proc.stderr
    code, elapsed, err, numpy = json.loads(proc.stdout)
    assert code == 1 and elapsed < 1.0 and numpy == []
    assert err == (
        "qbattery: error: a squeezed vacuum of r = 10 needs more than the 20000002-level "
        "search cap: 6.85e-01 of its mass lies beyond it, above tail_tol 1e-08\n"
    )


def test_fock_check_refuses_moments_that_agree_to_their_rounding(capsys, monkeypatch):
    # at zeta 20 n and |s| agree to their rounding, so 1/2 + n - |s| is
    # 0, but the variances size the frame ladder, and the engine refuses
    # its 1 678 152 455 levels before anything steps
    from qbattery import fock

    monkeypatch.setattr(fock, "_rk45", _refuse_lindblad_step)
    start = time.perf_counter()
    assert main(["fock-check", "--zeta", "20", "--kappa", "0.1"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "the frame ladder needs 1678152455 levels (zeta 20, kappa 0.1)" in err
    assert "150-level limit of the lossy engine" in err


@pytest.mark.parametrize("kappa", ["1e4", "1e300"])
def test_fock_check_fails_too_stiff_a_loss_in_one_line(capsys, monkeypatch, kappa):
    # the explicit stepper cannot follow loss this fast; the run exits 1
    # before any step with one line that names kappa, the ladder and the
    # predicted calls, and no numpy warning
    from qbattery import fock

    monkeypatch.setattr(fock, "_rk45", _refuse_lindblad_step)
    assert main(["fock-check", "--zeta", "1", "--kappa", kappa]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("qbattery: error: lossy evolution failed: ")
    assert f"kappa {float(kappa):g}" in err[0]
    assert "6-level frame ladder" in err[0] and "right-hand-side calls" in err[0]


def test_fock_check_refuses_too_stiff_a_loss_before_numpy_loads():
    # the stiffness bound is pure Python, checked before anything steps
    proc = run_python(
        "import io, json, sys, time\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "from qbattery.cli import main\n"
        "err = io.StringIO()\n"
        "start = time.perf_counter()\n"
        "with redirect_stdout(io.StringIO()), redirect_stderr(err):\n"
        "    code = main(['fock-check', '--zeta', '1', '--kappa', '1e4'])\n"
        "elapsed = time.perf_counter() - start\n"
        "numpy = sorted(m for m in sys.modules if m.startswith('numpy.'))\n"
        "print(json.dumps([code, elapsed, err.getvalue(), numpy]))"
    )
    assert proc.returncode == 0, proc.stderr
    code, elapsed, err, numpy = json.loads(proc.stdout)
    assert code == 1 and elapsed < 1.0 and numpy == []
    assert "kappa 10000 is too stiff" in err


def test_fock_check_runs_sech_from_a_hundred_thousand_tau(tmp_path):
    # in the quiet stretch where sech(t) rounds to 0 the free step grows
    # to about 1e5 tau; V+- come from the closed form, so no trial stage
    # takes them out of range, and the run meets the bench's thresholds:
    # n_ref on the closed form and n on n_ref within 1e-6 (1 + n), the
    # tail below 1e-7, var_x_min consistent and the ergotropy ratio in (0, 1]
    from qbattery.pulses import from_name

    out = tmp_path / "sech.csv"
    flags = ["--pulse", "sech", "--kappa", "0.1", "--t-min=-1e5", "--ergotropy"]
    assert main(["fock-check", *flags, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    col = {name: rows[:, header.index(name)] for name in header}
    p = DriveParams(omega_b=1.0, zeta=1.0, pulse=from_name("sech", 1.0))
    want = np.array([m.n for m in lossy_moments(p, 0.1, col["t"])])
    scale = 1.0 + want
    assert col["t"][0] == -1e5 and rows.shape[0] == 57
    assert np.max(np.abs(col["n_ref"] - want) / scale) <= 1e-6
    assert np.max(col["abs_err"] / (1.0 + col["n_ref"])) <= 1e-6
    assert np.max(np.abs(col["tail_mass"])) <= 1e-7
    s_abs = np.hypot(col["re_s"], col["im_s"])
    assert np.max(np.abs(col["var_x_min"] - (0.5 + col["n"] - s_abs)) / scale) <= 1e-9
    assert np.all((0.0 < col["ergotropy_ratio"]) & (col["ergotropy_ratio"] <= 1.0 + 1e-9))


@pytest.mark.parametrize("kappa", ["0", "0.1"])
def test_fock_check_refuses_a_zero_fock_dim(capsys, kappa):
    # --tail-tol sizes every ladder, so a size given on the command line
    # is a usage error; the engine fock-check runs at this kappa still
    # refuses a ladder of 0 levels
    from qbattery import fock

    with pytest.raises(SystemExit) as exc:
        main(["fock-check", "--zeta", "1", "--kappa", kappa, "--fock-dim", "0"])
    assert exc.value.code == 2
    assert "--fock-dim" in capsys.readouterr().err
    p = DriveParams(omega_b=1.0, zeta=1.0, pulse=Gaussian(1.0))
    grid = np.linspace(-6.0, 6.0, 5)
    with pytest.raises(ValueError, match="at least 6, got 0"):
        if float(kappa) == 0.0:
            fock.evolve_rwa(p, 0, grid)
        else:
            fock.evolve_lindblad(p, float(kappa), 0, grid)


def test_fock_check_lossy_engine(tmp_path):
    out = tmp_path / "lossy.csv"
    assert main(
        [
            "fock-check",
            "--zeta", "0.6", "--kappa", "0.15",
            "--t-min", "-6", "--t-max", "4", "--steps", "6",
            "--out", str(out),
        ]
    ) == 0
    header, rows = read_csv(out)
    assert header[:6] == ["t", "n", "re_s", "im_s", "var_x_min", "tail_mass"]
    # lossy engine against the dissipative moment reference
    assert np.max(rows[:, header.index("abs_err")]) < 1e-4
    # loss keeps the final charge below the lossless asymptote
    assert rows[-1, 1] < math.sinh(0.6) ** 2


@pytest.mark.parametrize("zeta", ["1", "2"])
def test_fock_check_lossy_columns_match_the_moment_equations(tmp_path, zeta):
    # the command checks n against n_ref itself, which is the API's moment
    # run bit for bit; the pair correlator and the least quadrature
    # variance, 1/2 + n - |s|, are held here to that run (within 5.5e-9
    # of 1 + n at zeta 2, 35 frame levels)
    out = tmp_path / "lossy.csv"
    assert main(["fock-check", "--zeta", zeta, "--kappa", "0.1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    grid = rows[:, header.index("t")]
    p = DriveParams(omega_b=1.0, zeta=float(zeta), pulse=Gaussian(1.0))
    ref = integrate_moments(p, grid, kappa=0.1)
    assert np.array_equal(rows[:, header.index("n_ref")], ref.n)
    bound = 1e-6 * (1.0 + ref.n)
    for column, exact in (
        ("re_s", ref.s.real),
        ("im_s", ref.s.imag),
        ("var_x_min", 0.5 + ref.n - np.abs(ref.s)),
    ):
        assert np.all(np.abs(rows[:, header.index(column)] - exact) <= bound), column


@pytest.mark.parametrize("engine, flags", [("evolve_rwa", []), ("evolve_lindblad", ["--kappa", "0.1"])])
def test_fock_check_columns_are_the_trajectory_table(tmp_path, monkeypatch, engine, flags):
    # the first six columns, in CSV and in JSON, are FockTrajectory.table()
    # of the engine call the command made, bit for bit
    from qbattery import fock

    runs = []
    real = getattr(fock, engine)

    def recording(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(fock, engine, recording)
    argv = ["fock-check", "--zeta", "0.5", "--steps", "9", *flags]
    csv_out, json_out = tmp_path / "fock.csv", tmp_path / "fock.json"
    assert main([*argv, "--out", str(csv_out)]) == 0
    assert main([*argv, "--format", "json", "--out", str(json_out)]) == 0
    assert len(runs) == 2
    payload = json.loads(json_out.read_text())
    header, rows = read_csv(csv_out)
    for traj, columns, values in ((runs[0], header, rows.tolist()), (runs[1], payload["columns"], payload["rows"])):
        table_columns, table_rows = traj.table()
        assert columns[:6] == table_columns
        assert [row[:6] for row in values] == table_rows


def test_sweep_threads_keep_order(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    zetas = "2,0.5,1,4"
    assert main(["sweep", "--zetas", zetas, "--out", str(serial)]) == 0
    assert main(["sweep", "--zetas", zetas, "--threads", "4", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    header, rows = read_csv(serial)
    assert [r[0] for r in rows] == [2.0, 0.5, 1.0, 4.0]


def test_sweep_rejects_zero_threads(capsys):
    assert main(["sweep", "--threads", "0"]) == 1
    assert "--threads" in capsys.readouterr().err


def run_python(*args):
    """Run a fresh interpreter that finds the package in src/ on ``args``:
    one string is code for ``-c``."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    args = ["-c", *args] if len(args) == 1 else list(args)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_python_m_qbattery_is_main(capsys):
    # __main__ hands main's exit status to the interpreter, usage errors too
    assert main(["energy", "--steps", "3"]) == 0
    proc = run_python("-m", "qbattery", "energy", "--steps", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")
    for argv, code, prefix in (
        (["energy", "--zeta", "0"], 1, "qbattery: error:"),
        (["energy", "--no-such-flag"], 2, "qbattery energy: error:"),
    ):
        proc = run_python("-m", "qbattery", *argv)
        assert proc.returncode == code and proc.stdout == "", argv
        assert proc.stderr.splitlines()[-1].startswith(prefix), argv


def test_import_loads_no_scipy():
    proc = run_python(
        "import json, sys\n"
        "import qbattery.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_package_exports_each_module_name_once():
    import qbattery
    from qbattery import dynamics, fock, merit, pulses, specfun

    modules = (pulses, specfun, merit, dynamics, fock)
    expected = [name for mod in modules for name in mod.__all__] + ["__version__"]
    assert qbattery.__all__ == expected
    assert len(set(expected)) == len(expected)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(qbattery, name) is getattr(mod, name), name
    # the root resolves its exports on access; introspection still lists
    # them, and a star import still binds each one
    assert set(dir(qbattery)) >= set(expected)
    namespace = {}
    exec("from qbattery import *", namespace)
    for name in expected:
        assert namespace[name] is getattr(qbattery, name), name


def test_closed_form_path_loads_no_numpy():
    # numpy and the package modules are bound lazily: the import runs the
    # root and the CLI only, though it registers every module, and no
    # closed-form command, nor resolving a figure of merit on the root,
    # runs the ODE modules, dynamics and fock, which fock-check runs with
    # all the others; an audit hook on exec records each module body that
    # runs. A CSV table loads no json; a JSON one does. No closed-form
    # command, nor fock-check's refusal of a vector ladder above its
    # level limit, which runs dynamics and fock but steps nothing, loads
    # dataclasses or inspect. With numpy blocked
    # every closed-form command still runs, as does fock-check's refusal
    # of a vector ladder, or of a frame ladder sized from the closed-form
    # lossy moments, above its level limit, which steps nothing; a run
    # that needs numpy exits 1 naming it
    package = os.path.join(SRC, "qbattery", "")
    proc = run_python(
        "import io, os, sys\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "ran = set()\n"
        "def hook(event, args):\n"
        f"    if event == 'exec' and args[0].co_filename.startswith({package!r}):\n"
        "        ran.add(os.path.basename(args[0].co_filename))\n"
        "sys.addaudithook(hook)\n"
        "import qbattery.cli\n"
        "numpy = sorted(m for m in sys.modules if m.startswith('numpy.'))\n"
        "registered = sorted(m for m in sys.modules if m.startswith('qbattery.'))\n"
        "after, json_loaded = [sorted(ran)], ['json' in sys.modules]\n"
        "heavy = []\n"
        f"for argv in {CLOSED_FORM_COMMANDS!r} + [['fig', '3b', '--format', 'json']]:\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        assert qbattery.cli.main(argv) == 0, argv\n"
        "    after.append(sorted(ran))\n"
        "    json_loaded.append('json' in sys.modules)\n"
        "    heavy.append([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
        "qbattery.stored_energy\n"
        "after.append(sorted(ran))\n"
        "with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
        "    assert qbattery.cli.main(['fock-check', '--zeta', '4']) == 1\n"
        "heavy.append([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert qbattery.cli.main(['fock-check', '--zeta', '0.5']) == 0\n"
        "after.append(sorted(ran))\n"
        "import json\n"
        "print(json.dumps([numpy, registered, after, json_loaded, heavy]))"
    )
    assert proc.returncode == 0, proc.stderr
    numpy, registered, after, json_loaded, heavy = json.loads(proc.stdout)
    assert numpy == []
    modules = ["dynamics", "fock", "merit", "pulses", "specfun"]
    assert registered == ["qbattery.cli"] + [f"qbattery.{m}" for m in modules]
    assert after[0] == ["__init__.py", "cli.py"]
    # every closed-form command, the JSON one, and then resolving a
    # figure of merit on the root
    for argv, ran in zip(CLOSED_FORM_COMMANDS + [["fig", "3b", "--format", "json"], ["stored_energy"]], after[1:-1]):
        assert "dynamics.py" not in ran and "fock.py" not in ran, argv
    assert after[-1] == sorted(["__init__.py", "cli.py"] + [f"{m}.py" for m in modules])
    # json is absent after the import, the CSV commands leave it so, and
    # the JSON command imports it
    assert json_loaded == [False] * (len(CLOSED_FORM_COMMANDS) + 1) + [True]
    # every closed-form command, the JSON one, and the refused fock-check
    assert heavy == [[]] * (len(CLOSED_FORM_COMMANDS) + 2)
    proc = run_python(
        "import io, json, sys\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "sys.modules['numpy'] = None\n"
        "from qbattery.cli import main\n"
        "codes = []\n"
        f"for argv in {CLOSED_FORM_COMMANDS!r}:\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "runs = []\n"
        "for zeta, kappa in (('4', '0'), ('4', '0.1'), ('1', '0')):\n"
        "    err = io.StringIO()\n"
        "    with redirect_stdout(io.StringIO()), redirect_stderr(err):\n"
        "        argv = ['fock-check', '--zeta', zeta, '--kappa', kappa, '--tail-tol', '1e-8']\n"
        "        runs.append([main(argv), err.getvalue()])\n"
        "print(json.dumps([codes, runs]))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    codes, [refused, refused_lossy, needs_numpy] = json.loads(proc.stdout)
    assert codes == [0] * len(CLOSED_FORM_COMMANDS)
    assert refused[0] == 1 and "10000-level limit" in refused[1]
    assert refused_lossy[0] == 1 and "the frame ladder needs 216 levels" in refused_lossy[1]
    assert "150-level limit" in refused_lossy[1]
    assert needs_numpy[0] == 1 and "numpy" in needs_numpy[1]


@pytest.mark.parametrize(
    "start, stop, num, endpoint",
    [
        (-4.0, 4.0, 201, True),
        (-4.0, 4.0, 401, True),
        (0.005, 0.995, 401, True),
        (0.0, 2.0 * math.pi, 512, False),
        (0.1, 8.0, 401, True),
        (-8.0, 6.0, 57, True),
        (-4.0, 4.0, 2, True),
        (0.0, 2.0 * math.pi, 2, False),
        (0.0, 5e-324, 57, True),  # a step that underflows to zero
    ],
)
def test_linspace_matches_numpy_bit_for_bit(start, stop, num, endpoint):
    from qbattery.cli import _linspace

    ours = _linspace(start, stop, num, endpoint=endpoint)
    theirs = np.linspace(start, stop, num, endpoint=endpoint)
    assert [x.hex() for x in ours] == [float(x).hex() for x in theirs]


def test_closed_form_commands_run_without_scipy():
    # with scipy blocked, any import of it (at load or while running)
    # fails, and main() turns that into exit 1 with a message
    proc = run_python(
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "sys.modules['scipy'] = None\n"
        "from qbattery.cli import main\n"
        "codes = []\n"
        f"for argv in {CLOSED_FORM_COMMANDS!r}:\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps(codes))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [0] * len(CLOSED_FORM_COMMANDS)


def test_lossy_ergotropy_decomposes_the_final_state_once(tmp_path, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    out = tmp_path / "lossy.csv"
    assert main(
        [
            "fock-check",
            "--zeta", "0.5", "--kappa", "0.1", "--ergotropy",
            "--t-min", "-6", "--t-max", "4", "--steps", "6",
            "--out", str(out),
        ]
    ) == 0
    # one call on the full frame state; a second decomposition would add
    # calls
    grid = np.linspace(-6.0, 4.0, 6)
    dim = frame_truncation(DriveParams(omega_b=1.0, zeta=0.5, pulse=Gaussian(1.0)), 0.1, grid, 1e-8)
    assert calls == [(dim, dim)]
    header, rows = read_csv(out)
    assert 0.0 < rows[0, header.index("ergotropy_ratio")] <= 1.0


def test_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(
        ["sweep", "--zetas", "1", "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["columns"][0] == "zeta"
    assert payload["rows"][0][0] == 1.0
    assert payload["rows"][0][1] == pytest.approx(math.sinh(1.0) ** 2)


def table_rows(count, fail_at=None):
    """``count`` rows of three floats, one of them NaN; with ``fail_at``,
    row ``fail_at`` (counted from 1) raises instead."""
    for i in range(count):
        if i + 1 == fail_at:
            raise ValueError("row failed")
        yield [i * 0.1, math.pi / (i + 1), math.nan if i == count // 2 else np.float64(i) ** 0.5]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_write_table_blocks_match_one_write(tmp_path, capsys, fmt, offset):
    # the reference is the text of one join, or one json.dumps, of every row
    from qbattery import _BLOCK_ROWS, _write_table

    columns, rows = ["a", "b", "c"], list(table_rows(_BLOCK_ROWS + offset))
    if fmt == "json":
        payload = {"columns": columns, "rows": [[float(v) for v in row] for row in rows]}
        reference = json.dumps(payload, separators=(",", ":")) + "\n"
    else:
        lines = [",".join(columns)] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
        reference = "\n".join(lines) + "\n"
    out = tmp_path / "table.out"
    _write_table(columns, iter(rows), out, fmt)
    _write_table(columns, iter(rows), None, fmt)
    assert out.read_bytes() == reference.encode()
    assert capsys.readouterr().out == reference
    assert os.listdir(tmp_path) == [out.name]


def test_write_table_failure_keeps_the_old_file(tmp_path):
    # a row that fails after the first block is written leaves the file
    # that was there, and no partial file
    from qbattery import _BLOCK_ROWS, _write_table

    out = tmp_path / "table.csv"
    out.write_bytes(b"old,table\n1,2\n")
    # a file of the user's own under a partial-looking name is left alone
    mine = tmp_path / "table.csv.partial"
    mine.write_bytes(b"mine\n")
    with pytest.raises(ValueError, match="row failed"):
        _write_table(["a", "b", "c"], table_rows(2 * _BLOCK_ROWS, fail_at=_BLOCK_ROWS + 1), out)
    assert out.read_bytes() == b"old,table\n1,2\n"
    assert mine.read_bytes() == b"mine\n"
    assert sorted(os.listdir(tmp_path)) == [out.name, mine.name]


def test_stdout_failure_keeps_the_blocks_before_it(capsys, monkeypatch):
    from qbattery import _BLOCK_ROWS, _write_table, cli

    def failing(args):
        return ["a", "b", "c"], table_rows(2 * _BLOCK_ROWS, fail_at=_BLOCK_ROWS + 1)

    monkeypatch.setattr(cli, "cmd_energy", failing)
    assert main(["energy"]) == 1
    captured = capsys.readouterr()
    _write_table(["a", "b", "c"], itertools.islice(table_rows(2 * _BLOCK_ROWS), _BLOCK_ROWS))
    assert captured.out == capsys.readouterr().out
    assert captured.err == "qbattery: error: row failed\n"


@pytest.mark.parametrize(
    "out, error",
    [
        ("", "No such file or directory: ''"),
        (".", "Is a directory: '.'"),
        ("nodir/x.csv", "No such file or directory: 'nodir/x.csv'"),
    ],
)
def test_out_naming_no_file_exits_one(tmp_path, capsys, monkeypatch, out, error):
    # the diagnostic names the path given, and no partial file is left
    monkeypatch.chdir(tmp_path)
    assert main(["energy", "--steps", "3", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("qbattery: error:")
    assert captured.err.count("\n") == 1
    assert error in captured.err
    assert os.listdir(tmp_path) == []


def test_out_through_a_symlink_keeps_the_link_and_the_mode(tmp_path):
    # the table replaces the file the link names; a new file takes the
    # mode that open gives one
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target.name)
    new = tmp_path / "new.csv"
    assert main(["energy", "--steps", "3", "--out", str(link)]) == 0
    assert main(["energy", "--steps", "3", "--out", str(new)]) == 0
    assert os.readlink(link) == target.name
    assert target.read_bytes() == new.read_bytes()
    assert new.read_text().startswith("t,E_over_Emax\n")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    with open(tmp_path / "opened", "w"):
        pass
    assert new.stat().st_mode == (tmp_path / "opened").stat().st_mode
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "new.csv", "opened", "target.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_out_writes_through_a_fifo(tmp_path):
    # what is not a regular file, /dev/null or a FIFO, is written through
    import threading

    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["energy", "--steps", "3", "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert main(["energy", "--steps", "3", "--out", str(tmp_path / "table.csv")]) == 0
    assert got == [(tmp_path / "table.csv").read_bytes()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["table.csv", "table.fifo"]


def test_closed_stdout_exits_quietly():
    # stdout is a pipe whose reader has gone (head -1 after its line, say):
    # the writer meets it at the first block, past the stdout buffer
    proc = run_python(
        "import os, sys\n"
        "from qbattery.cli import main\n"
        "r, w = os.pipe()\n"
        "os.dup2(w, 1)\n"
        "os.close(r)\n"
        "sys.exit(main(['energy', '--steps', '100000']))"
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_exception_without_text_names_its_type(capsys, monkeypatch):
    from qbattery import cli

    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_energy", exhausted)
    assert main(["energy"]) == 1
    assert capsys.readouterr().err == "qbattery: error: MemoryError\n"


def test_dense_grid_memory_does_not_grow_with_the_grid(tmp_path):
    # the rows are formed and written a block at a time; a table built
    # whole peaks at about 59 MiB here
    import tracemalloc

    out = tmp_path / "energy.csv"
    assert main(["energy", "--steps", "3", "--out", str(out)]) == 0
    tracemalloc.start()
    try:
        assert main(["energy", "--steps", "200000", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert out.read_text().count("\n") == 200001


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("zeta = 2\nsteps = 10\n# comment\nt-max = 3\nformat = json\n")
    out_cfg = tmp_path / "from_cfg.json"
    assert main(["energy", "--config", str(cfg), "--out", str(out_cfg)]) == 0
    payload = json.loads(out_cfg.read_text())
    assert payload["columns"] == ["t", "E_over_Emax"]
    assert len(payload["rows"]) == 10
    assert payload["rows"][-1][0] == 3.0

    # explicit flags beat the config values
    out_flag = tmp_path / "flag_wins.csv"
    assert main(
        ["energy", "--config", str(cfg), "--steps", "4", "--format", "csv", "--out", str(out_flag)]
    ) == 0
    _, rows = read_csv(out_flag)
    assert rows.shape[0] == 4


def exit_code(argv):
    """main()'s exit status, argparse's usage errors (SystemExit) included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "text, argv, code, fragment",
    [
        pytest.param("zeta=1\nwidget=3\n", ["energy"], 1, "'widget'", id="unknown-key"),
        pytest.param("fmt = xml\n", ["energy"], 1, "'fmt'", id="fmt-is-no-key"),
        pytest.param("format = xml\n", ["energy"], 2, "--format", id="format-xml"),
        pytest.param("ergotropy = maybe\n", ["fock-check"], 2, "--ergotropy", id="ergotropy-maybe"),
        # no abbreviation: zeta is not read as panel 2a's --zetas
        pytest.param("zeta = 3\n", ["fig", "2a"], 1, "'zeta'", id="no-abbreviation"),
        # the carrier is resonant everywhere the CLI reaches
        pytest.param(
            "omega_d = 1\n", ["energy"], 1, "config key 'omega_d' is not used", id="omega-d-key"
        ),
        # --tail-tol sizes every ladder; no flag gives one
        pytest.param(
            "fock_dim = 24\n", ["fock-check"], 1, "config key 'fock_dim' is not used", id="fock-dim-key"
        ),
    ],
)
def test_config_rejects_bad_entries(tmp_path, capsys, text, argv, code, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert exit_code(argv + ["--config", str(cfg)]) == code
    captured = capsys.readouterr()
    assert fragment in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["true", "false"])
def test_config_sets_ergotropy(tmp_path, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"zeta = 0.4\nsteps = 3\nergotropy = {value}\n")
    out = tmp_path / "fock.csv"
    assert main(["fock-check", "--config", str(cfg), "--out", str(out)]) == 0
    header, _ = read_csv(out)
    assert ("ergotropy_ratio" in header) == (value == "true")


THETA_STEPS = "--theta-steps must be at least 2"
STEPS = "--steps must be at least 2"
LARGEST_DOUBLE = "passed the largest double (about 1.8e308)"
BAD_TAU = "tau must be positive and finite"
NO_ENERGY = "stores no energy; the ergotropy ratio is undefined"


@pytest.mark.parametrize(
    "argv, fragment",
    [
        pytest.param(["charge-time", "--alpha", "1.5"], "alpha", id="alpha"),
        pytest.param(["fig", "2c", "--theta-steps", "-1"], THETA_STEPS, id="theta-steps-negative"),
        pytest.param(["fig", "2c", "--theta-steps", "0"], THETA_STEPS, id="theta-steps-zero"),
        # every time grid names the flag that sizes it
        pytest.param(["energy", "--steps", "1"], STEPS, id="energy-steps-one"),
        pytest.param(["fock-check", "--steps", "1"], STEPS, id="fock-check-steps-one"),
        pytest.param(["fig", "2a", "--zetas", "0,1"], "--zetas", id="fig-2a-zero-zeta"),
        pytest.param(["fig", "3a", "--zetas", "0,1"], "--zetas", id="fig-3a-zero-zeta"),
        pytest.param(["fock-check", "--kappa", "-0.1"], "kappa", id="kappa-negative"),
        pytest.param(["fock-check", "--kappa", "nan"], "kappa", id="kappa-nan"),
        pytest.param(["fock-check", "--kappa", "inf"], "kappa", id="kappa-inf"),
        pytest.param(
            ["fock-check", "--pulse", "delta", "--kappa", "0.1"],
            "delta-limit pulse has no width",
            id="delta-lossy",
        ),
        pytest.param(["fock-check", "--t-max", "inf"], "--t-max", id="t-max-inf"),
        pytest.param(["energy", "--t-min=-1e308", "--t-max=1e308"], "--t-min", id="grid-overflow"),
        # the grid and --time are in units of tau, so the delta pulse checks it too
        pytest.param(
            ["energy", "--pulse", "delta", "--tau", "-1", "--steps", "3"], BAD_TAU, id="delta-tau-negative"
        ),
        pytest.param(
            ["energy", "--pulse", "delta", "--tau", "0", "--steps", "3"], BAD_TAU, id="delta-tau-zero"
        ),
        pytest.param(
            ["quadratures", "--pulse", "delta", "--tau", "-1", "--time", "1"], BAD_TAU, id="delta-tau-time"
        ),
        pytest.param(["fock-check", "--zeta", "0", "--ergotropy"], NO_ENERGY, id="ergotropy-zeta-zero"),
        pytest.param(
            ["fock-check", "--zeta", "0", "--kappa", "0.1", "--ergotropy"], NO_ENERGY, id="ergotropy-zeta-zero-lossy"
        ),
        # the lossy state's V+ overflows before any energy does
        pytest.param(
            ["fock-check", "--zeta", "355.2", "--kappa", "0.1"],
            "the lossy state's V+ " + LARGEST_DOUBLE,
            id="overflow-fock-check-lossy",
        ),
        # the power's sinh(2 zeta A) overflows before the energy does
        pytest.param(
            ["power", "--zeta", "355.4", "--steps", "3"],
            "grow as e^(2 zeta A), which passes it from zeta A = 354.9",
            id="overflow-power-355.4",
        ),
        *(
            pytest.param([*argv, "400"], LARGEST_DOUBLE, id="overflow-" + "-".join(a for a in argv if a[0] != "-"))
            for argv in (
                ["energy", "--zeta"],
                ["charge-time", "--zeta"],
                ["sweep", "--zetas"],
                ["fig", "2a", "--zetas"],
                ["power", "--zeta"],
                ["peak-power", "--zeta"],
                ["quadratures", "--time", "3", "--zeta"],
            )
        ),
    ],
)
def test_domain_failure_exits_one(capsys, argv, fragment):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert fragment in captured.err
    # one diagnostic line, no warning from a computation run on bad input
    assert captured.err.startswith("qbattery: error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, config, message",
    [
        pytest.param(["energy"], "steps 5\n", "config line 'steps 5' is not of the form key=value", id="config-no-equals"),
        # a key the panel does not take is named with the panel's two words
        pytest.param(["fig", "3b"], "zetas = 1,2\n", "config key 'zetas' is not used by 'fig 3b'", id="config-fig-3b-zetas"),
        pytest.param(
            ["charge-time", "--alpha", "0.5,x"],
            None,
            "--alpha must be a comma-separated list of numbers, got '0.5,x'",
            id="alpha-not-a-number",
        ),
        pytest.param(["charge-time", "--alpha", ","], None, "--alpha must contain at least one value", id="alpha-empty"),
        pytest.param(["energy", "--t-min", "1", "--t-max", "0"], None, "--t-min must be less than --t-max", id="grid-order"),
        pytest.param(["energy", "--zeta", "0"], None, "zeta = 0 stores no energy; nothing to normalize", id="energy-zeta-zero"),
    ],
)
def test_refusal_is_one_line_naming_its_input(tmp_path, capsys, argv, config, message):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"qbattery: error: {message}\n")


def test_delta_pulse_power_fails_cleanly(capsys):
    assert main(["power", "--pulse", "delta"]) == 1
    assert "delta" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "argv, fragment, usage",
    [
        pytest.param(["energy", "--no-such-flag"], "--no-such-flag", "energy", id="unknown-flag"),
        pytest.param(["energy", "--omega-d", "1"], "--omega-d", "energy", id="omega-d"),
        pytest.param(["fig", "9z"], "'9z'", "fig", id="unknown-panel"),
        # each panel takes only the flags it reads
        pytest.param(["fig", "3b", "--zetas", "0"], "--zetas", "fig 3b", id="fig-3b-zetas"),
        pytest.param(["fig", "2c", "--steps", "1"], "--steps", "fig 2c", id="fig-2c-steps"),
        pytest.param(["fig", "2a", "--zeta", "1"], "--zeta", "fig 2a", id="fig-2a-zeta"),
        pytest.param(["fock-check", "--ergotropy", "maybe"], "--ergotropy", "fock-check", id="ergotropy-maybe"),
        pytest.param(["fock-check", "--fock-dim", "24"], "--fock-dim", "fock-check", id="fock-dim"),
        # a sweep has one charge fraction, parsed like every one-value flag
        pytest.param(["sweep", "--alpha", "0.5,0.9"], "--alpha", "sweep", id="sweep-alpha-list"),
    ],
)
def test_usage_error_exits_two(capsys, argv, fragment, usage):
    # the usage line shown is that of the parser that refused the flag
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert err.startswith(f"usage: qbattery {usage} [-h]")


FIG_PANELS = ["2a", "2b", "2c", "3a", "3b", "3c"]
COMMANDS = ["energy", "power", "charge-time", "peak-power", "quadratures", "fock-check", "sweep", "fig"]


@pytest.mark.parametrize(
    "argv",
    [[]] + [[c] for c in COMMANDS] + [["fig", p] for p in FIG_PANELS],
    ids=lambda argv: "-".join(["qbattery", *argv]),
)
def test_help_renders(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_every_subcommand_is_one_registration():
    # main reads func, parser, --format, --out and --config of whatever
    # parser took the command words, so each of the 13 declares them
    def leaves(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from leaves(sub) if sub._subparsers else [sub]

    found = list(leaves(build_parser()))
    assert len(found) == len(COMMANDS) - 1 + len(FIG_PANELS)
    for sp in found:
        assert callable(sp.get_default("func")) and sp.get_default("parser") is sp, sp.prog
        flags = {flag for action in sp._actions for flag in action.option_strings}
        assert {"--format", "--out", "--config"} <= flags, sp.prog


def test_readme_command_line_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("qbattery ")]
    assert len(lines) >= 9
    for i, line in enumerate(lines):
        argv = shlex.split(line, comments=True)[1:]
        out = tmp_path / f"{i}.out"
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(out)
        else:
            argv += ["--out", str(out)]
        assert main(argv) == 0, line
        assert out.read_text(), line


def test_readme_python_api_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    assert len(names["traj"]) == 100
    at_end = names["analytic_moments"](names["p"], 6.0)
    assert names["traj"].n[-1] == pytest.approx(at_end.n, rel=1e-6)
    assert names["quad"].var_x == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)
    assert names["work"] == pytest.approx(names["fock"].n[-1], rel=1e-6)
    # a zero-mean Gaussian state keeps omega_b (n + 1/2 - sqrt(V+ V-)) as work
    assert names["frame_dim"] == 16
    final = lossy_moments(names["p"], 0.1, names["grid"])[-1]
    gaussian = final.n + 0.5 - math.sqrt((final.n + 0.5) ** 2 - abs(final.s) ** 2)
    assert names["lossy_work"] == pytest.approx(gaussian, rel=1e-7)


@pytest.mark.parametrize("panel", FIG_PANELS)
def test_fig_panels_emit_and_are_fast(tmp_path, panel):
    out = tmp_path / f"fig{panel}.csv"
    start = time.perf_counter()
    assert main(["fig", panel, "--out", str(out)]) == 0
    assert time.perf_counter() - start < 10.0
    header, rows = read_csv(out)
    assert rows.shape[0] >= 40
    assert len(header) == rows.shape[1]
