"""Command-line interface: schemas, determinism, config handling, errors."""

import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qbattery.cli import main
from qbattery.fock import choose_truncation

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


def test_fock_check_pure_ergotropy_needs_no_density_matrix(tmp_path, monkeypatch):
    from qbattery.fock import FockVector

    def refuse(self):
        raise AssertionError("to_density builds a dim^2 matrix")

    monkeypatch.setattr(FockVector, "to_density", refuse)
    out = tmp_path / "fock.csv"
    assert main(["fock-check", "--zeta", "0.3", "--steps", "5", "--ergotropy", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert np.all(rows[:, header.index("ergotropy_ratio")] == 1.0)


def test_fock_check_lossy_refuses_oversized_ladder(capsys):
    # zeta = 4 sizes a 24480-level density matrix, far beyond any RAM
    assert main(["fock-check", "--zeta", "4", "--kappa", "0.1"]) == 1
    err = capsys.readouterr().err
    assert "bytes, more than the" in err
    assert "RLIMIT_AS" in err


def test_fock_check_sizes_the_vector_ladder_for_the_squeeze_reached(tmp_path, monkeypatch):
    # a unit-area pulse leaves a squeezed vacuum with r = zeta; its
    # ladder at --tail-tol 1e-8 is 12 / 26 / 66 / 454 levels
    from qbattery import cli

    dims = []
    real = cli.evolve_rwa

    def recording(p, dim, times):
        dims.append(dim)
        return real(p, dim, times)

    monkeypatch.setattr(cli, "evolve_rwa", recording)
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
    from qbattery import cli

    monkeypatch.setattr(cli, "evolve_rwa", _refuse_vector_step)
    start = time.perf_counter()
    assert main(["fock-check", "--zeta", zeta, "--tail-tol", "1e-8"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"{levels} levels" in err
    assert f"{cli.VECTOR_LEVEL_LIMIT}-level limit" in err
    assert f"zeta {zeta}" in err and "--tail-tol 1e-08" in err


def test_fock_check_refuses_an_explicit_vector_ladder_above_the_limit(capsys, monkeypatch):
    from qbattery import cli

    monkeypatch.setattr(cli, "evolve_rwa", _refuse_vector_step)
    dim = cli.VECTOR_LEVEL_LIMIT + 1
    assert main(["fock-check", "--zeta", "1", "--fock-dim", str(dim)]) == 1
    err = capsys.readouterr().err
    assert f"needs {dim} levels" in err
    assert f"{cli.VECTOR_LEVEL_LIMIT}-level limit" in err


@pytest.mark.parametrize("kappa", ["0", "0.1"])
def test_fock_check_refuses_a_zero_fock_dim(capsys, kappa):
    # an explicit size is used as given, never replaced by the automatic one
    assert main(["fock-check", "--zeta", "1", "--kappa", kappa, "--fock-dim", "0"]) == 1
    assert "at least 6, got 0" in capsys.readouterr().err


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


def run_python(code):
    """Run ``code`` in a fresh interpreter that finds the package in src/."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_loads_no_scipy():
    proc = run_python(
        "import json, sys\n"
        "import qbattery.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_closed_form_path_loads_no_numpy():
    # numpy is bound lazily: the import runs none of it, and with numpy
    # blocked every closed-form command still runs, as does fock-check's
    # refusal of a ladder above the level limit, which steps nothing; a
    # run that needs numpy exits 1 naming it
    proc = run_python(
        "import json, sys\n"
        "import qbattery.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy.'))))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
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
        "for zeta in ('4', '1'):\n"
        "    err = io.StringIO()\n"
        "    with redirect_stdout(io.StringIO()), redirect_stderr(err):\n"
        "        runs.append([main(['fock-check', '--zeta', zeta, '--tail-tol', '1e-8']), err.getvalue()])\n"
        "print(json.dumps([codes, runs]))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    codes, [refused, needs_numpy] = json.loads(proc.stdout)
    assert codes == [0] * len(CLOSED_FORM_COMMANDS)
    assert refused[0] == 1 and "10000-level limit" in refused[1]
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
    # from the vacuum the rotated state has only even diagonals, so its
    # spectrum comes from one call per parity block and none on the full
    # matrix; a second decomposition would add calls
    dim = choose_truncation(0.25, 1e-8)
    assert sorted(calls) == [(dim // 2, dim // 2), ((dim + 1) // 2, (dim + 1) // 2)]
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


@pytest.mark.parametrize(
    "argv, fragment",
    [
        pytest.param(["charge-time", "--alpha", "1.5"], "alpha", id="alpha"),
        pytest.param(["fig", "2c", "--theta-steps", "-1"], THETA_STEPS, id="theta-steps-negative"),
        pytest.param(["fig", "2c", "--theta-steps", "0"], THETA_STEPS, id="theta-steps-zero"),
        pytest.param(["fig", "2a", "--zetas", "0,1"], "--zetas", id="fig-2a-zero-zeta"),
        pytest.param(["fig", "3a", "--zetas", "0,1"], "--zetas", id="fig-3a-zero-zeta"),
    ],
)
def test_domain_failure_exits_one(capsys, argv, fragment):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert fragment in captured.err
    assert captured.out == ""


def test_delta_pulse_power_fails_cleanly(capsys):
    assert main(["power", "--pulse", "delta"]) == 1
    assert "delta" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "argv, fragment, usage",
    [
        pytest.param(["energy", "--no-such-flag"], "--no-such-flag", "energy", id="unknown-flag"),
        pytest.param(["fig", "9z"], "'9z'", "fig", id="unknown-panel"),
        # each panel takes only the flags it reads
        pytest.param(["fig", "3b", "--zetas", "0"], "--zetas", "fig 3b", id="fig-3b-zetas"),
        pytest.param(["fig", "2c", "--steps", "1"], "--steps", "fig 2c", id="fig-2c-steps"),
        pytest.param(["fig", "2a", "--zeta", "1"], "--zeta", "fig 2a", id="fig-2a-zeta"),
        pytest.param(["fock-check", "--ergotropy", "maybe"], "--ergotropy", "fock-check", id="ergotropy-maybe"),
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


@pytest.mark.parametrize("panel", FIG_PANELS)
def test_fig_panels_emit_and_are_fast(tmp_path, panel):
    out = tmp_path / f"fig{panel}.csv"
    start = time.perf_counter()
    assert main(["fig", panel, "--out", str(out)]) == 0
    assert time.perf_counter() - start < 10.0
    header, rows = read_csv(out)
    assert rows.shape[0] >= 40
    assert len(header) == rows.shape[1]
