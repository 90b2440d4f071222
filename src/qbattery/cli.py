"""Command line interface: every computation as CSV or JSON tables.

Time grids (``--t-min``/``--t-max``) and snapshot instants are given in
units of the pulse width tau; emitted time columns are absolute. The
``fig`` subcommands reproduce the standard panels in normalized units
(energies over their maximum, powers over omega_b/tau or the
zeta sinh(2 zeta) scale, times over tau).

Exit status: 0 on success, 1 with a diagnostic on standard error for
numerical or domain failures, 2 for unusable flags. Output is
deterministic for identical configurations: full double precision,
fixed row order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .dynamics import DriveParams, _csv_text, analytic_moments, integrate_moments
from .fock import choose_truncation, ergotropy, evolve_lindblad, evolve_rwa
from .merit import (
    average_power_fwhm,
    charging_time,
    instantaneous_power,
    peak_power_delay_weak_limit,
    peak_power_estimate,
    peak_power_time,
    quadrature_variances,
    stored_energy,
)
from .pulses import PULSE_NAMES, from_name
from .specfun import debruijn_w_approx, lambert_w0

__all__ = ["main", "build_parser"]

# Legend values used by the multi-series figure panels; a package choice.
FIG_ZETAS = "0.1,0.5,1,2,4"

# Largest vector ladder fock-check steps. A right-sized ladder is
# occupied to its top, so RK45 makes about six right-hand-side calls per
# level, each costing time proportional to the level count: the work
# grows as the square of the ladder size. On a 2-core host 3318 levels
# (zeta 3) take 1-3 s, 9010 (zeta 3.5) about 10 s and 24480 (zeta 4)
# about 85 s.
VECTOR_LEVEL_LIMIT = 10_000

_DRIVE_DEFAULTS = {
    "zeta": 1.0,
    "tau": 1.0,
    "omega_b": 1.0,
    "omega_d": None,
    "pulse": "gaussian",
}
_OUT_DEFAULTS = {"fmt": "csv", "out": None}
_GRID_DEFAULTS = {"t_min": -4.0, "t_max": 4.0, "steps": 201}

_DEFAULTS = {
    "energy": {**_DRIVE_DEFAULTS, **_GRID_DEFAULTS, **_OUT_DEFAULTS},
    "power": {**_DRIVE_DEFAULTS, **_GRID_DEFAULTS, **_OUT_DEFAULTS},
    "charge-time": {**_DRIVE_DEFAULTS, "alpha": "0.1,0.5,0.9", **_OUT_DEFAULTS},
    "peak-power": {**_DRIVE_DEFAULTS, **_OUT_DEFAULTS},
    "quadratures": {**_DRIVE_DEFAULTS, "time": 0.0, "theta_steps": 512, **_OUT_DEFAULTS},
    "fock-check": {
        **_DRIVE_DEFAULTS,
        "kappa": 0.0,
        "t_min": -8.0,
        "t_max": 6.0,
        "steps": 57,
        "tail_tol": 1e-8,
        "fock_dim": None,
        "ergotropy": False,
        **_OUT_DEFAULTS,
    },
    "sweep": {
        "zetas": "0.5,1,2,4",
        "alpha": "0.9",
        "tau": 1.0,
        "omega_b": 1.0,
        "threads": 1,
        **_OUT_DEFAULTS,
    },
    "fig": {
        "zetas": FIG_ZETAS,
        "zeta": 2.0,
        "steps": 401,
        "theta_steps": 512,
        **_OUT_DEFAULTS,
    },
}

_COERCE = {
    "zeta": float,
    "tau": float,
    "omega_b": float,
    "omega_d": float,
    "pulse": str,
    "kappa": float,
    "t_min": float,
    "t_max": float,
    "steps": int,
    "alpha": str,
    "time": float,
    "theta_steps": int,
    "tail_tol": float,
    "fock_dim": int,
    "ergotropy": lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
    "fmt": str,
    "out": str,
    "threads": int,
    "zetas": str,
}


def _load_config(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {raw!r} is not of the form key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key.replace("-", "_")] = value
    return entries


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Defaults, overridden by the config file, overridden by flags."""
    merged = dict(_DEFAULTS[command])
    if getattr(args, "config", None):
        for key, raw in _load_config(args.config).items():
            if key not in merged:
                raise ValueError(f"config key {key!r} is not used by {command!r}")
            merged[key] = _COERCE[key](raw)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _drive(cfg: dict) -> DriveParams:
    pulse = from_name(cfg["pulse"], None if cfg["pulse"] == "delta" else cfg["tau"])
    return DriveParams(
        omega_b=cfg["omega_b"], zeta=cfg["zeta"], pulse=pulse, omega_d=cfg["omega_d"]
    )


def _float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of numbers, got {text!r}")
    if not values:
        raise ValueError(f"{name} must contain at least one value")
    return values


def _linspace(start: float, stop: float, num: int, endpoint: bool = True) -> list[float]:
    """``numpy.linspace(start, stop, num, endpoint=endpoint)`` as a list of
    floats, bit for bit, for num >= 2: the same step, the same rounding of
    i * step + start, and ``stop`` itself as the last point."""
    div = num - 1 if endpoint else num
    delta = stop - start
    step = delta / div
    if step == 0.0:  # numpy's order for a step that underflows
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    if endpoint:
        points[-1] = stop
    return points


def _grid(cfg: dict) -> list[float]:
    if cfg["steps"] < 2:
        raise ValueError("the time grid needs at least 2 points")
    if not cfg["t_min"] < cfg["t_max"]:
        raise ValueError("need t_min < t_max")
    return _linspace(cfg["t_min"] * cfg["tau"], cfg["t_max"] * cfg["tau"], cfg["steps"])


def _write_table(columns: list[str], rows: list[list[float]], cfg: dict) -> None:
    if cfg["fmt"] == "json":
        payload = {"columns": columns, "rows": [[float(v) for v in row] for row in rows]}
        text = json.dumps(payload, separators=(",", ":")) + "\n"
    else:
        text = _csv_text(columns, rows)
    if cfg["out"] in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(cfg["out"]).write_text(text, encoding="utf-8", newline="")


def cmd_energy(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "energy")
    p = _drive(cfg)
    e_max = p.omega_b * math.sinh(p.zeta) ** 2
    if e_max == 0.0:
        raise ValueError("zeta = 0 stores no energy; nothing to normalize")
    rows = [[t, stored_energy(p, t) / e_max] for t in _grid(cfg)]
    _write_table(["t", "E_over_Emax"], rows, cfg)
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "power")
    p = _drive(cfg)
    rows = [[t, instantaneous_power(p, t)] for t in _grid(cfg)]
    _write_table(["t", "P"], rows, cfg)
    return 0


def cmd_charge_time(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "charge-time")
    p = _drive(cfg)
    rows = []
    for alpha in _float_list(cfg["alpha"], "--alpha"):
        report = charging_time(p, alpha)
        rows.append([alpha, report.t_alpha, report.t_alpha / cfg["tau"], report.e_max])
    _write_table(["alpha", "t_alpha", "t_alpha_over_tau", "e_max"], rows, cfg)
    return 0


def cmd_peak_power(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "peak-power")
    p = _drive(cfg)
    t_p = peak_power_time(p)
    rows = [[cfg["zeta"], t_p, t_p / cfg["tau"], instantaneous_power(p, t_p), peak_power_estimate(p)]]
    _write_table(["zeta", "t_p", "t_p_over_tau", "p_max", "p_max_estimate"], rows, cfg)
    return 0


def cmd_quadratures(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "quadratures")
    p = _drive(cfg)
    if cfg["theta_steps"] < 2:
        raise ValueError("--theta-steps must be at least 2")
    t = cfg["time"] * cfg["tau"]
    rows = []
    for theta in _linspace(0.0, 2.0 * math.pi, cfg["theta_steps"], endpoint=False):
        report = quadrature_variances(p, t, theta)
        rows.append([report.theta, report.var_x, report.var_p, report.std_product])
    _write_table(["theta", "var_x", "var_p", "std_product"], rows, cfg)
    return 0


def cmd_fock_check(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "fock-check")
    p = _drive(cfg)
    kappa = cfg["kappa"]
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa!r}")
    times = _grid(cfg)
    # both engines hold the state the pulse actually reaches from the
    # vacuum, a squeezed vacuum of squeeze parameter at most zeta
    dim = cfg["fock_dim"]
    if dim is None:
        dim = choose_truncation(0.5 * cfg["zeta"], cfg["tail_tol"])
    if kappa == 0.0:
        if dim > VECTOR_LEVEL_LIMIT:
            raise ValueError(
                f"the vector ladder needs {dim} levels (zeta {cfg['zeta']:g}, "
                f"--tail-tol {cfg['tail_tol']:g}), above the {VECTOR_LEVEL_LIMIT}-level "
                "limit of the lossless engine, whose work grows as the square of the "
                "ladder size"
            )
        traj = evolve_rwa(p, dim, times)
        # the engine starts from the vacuum at the first grid point, not at -inf
        n_ref = [analytic_moments(p, t, times[0]).n for t in times]
    else:
        traj = evolve_lindblad(p, kappa, dim, times)
        ref = integrate_moments(p, times[0], times[-1], kappa=kappa, times=times)
        n_ref = list(ref.n)
    columns = ["t", "n", "re_s", "im_s", "var_x_min", "tail_mass", "n_ref", "abs_err"]
    ratio = None
    if cfg["ergotropy"]:
        final = traj.final_state
        ratio = ergotropy(final, p.omega_b) / (p.omega_b * final.mean_population())
        columns.append("ergotropy_ratio")
    rows = []
    for i, t in enumerate(times):
        row = [
            t,
            traj.n[i],
            traj.s[i].real,
            traj.s[i].imag,
            traj.var_x_min[i],
            traj.tail_mass[i],
            n_ref[i],
            abs(traj.n[i] - n_ref[i]),
        ]
        if ratio is not None:
            row.append(ratio)
        rows.append(row)
    _write_table(columns, rows, cfg)
    return 0


def _sweep_row(zeta: float, tau: float, omega_b: float, alpha: float) -> list[float]:
    p = DriveParams(omega_b=omega_b, zeta=zeta, pulse=from_name("gaussian", tau))
    t_p = peak_power_time(p)
    return [
        zeta,
        omega_b * math.sinh(zeta) ** 2,
        charging_time(p, alpha).t_alpha,
        t_p,
        instantaneous_power(p, t_p),
        peak_power_estimate(p),
        average_power_fwhm(p),
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "sweep")
    zetas = _float_list(cfg["zetas"], "--zetas")
    alphas = _float_list(cfg["alpha"], "--alpha")
    if len(alphas) != 1:
        raise ValueError("sweep takes a single --alpha")
    if cfg["threads"] < 1:
        raise ValueError("--threads must be at least 1")
    rows = [_sweep_row(z, cfg["tau"], cfg["omega_b"], alphas[0]) for z in zetas]
    _write_table(
        ["zeta", "e_max", "t_alpha", "t_p", "p_max", "p_max_estimate", "p_avg_fwhm"],
        rows,
        cfg,
    )
    return 0


def _norm_drive(zeta: float) -> DriveParams:
    return DriveParams(omega_b=1.0, zeta=zeta, pulse=from_name("gaussian", 1.0))


def _legend_drives(zetas: list[float]) -> list[DriveParams]:
    # each series is normalized by a quantity that vanishes at zeta = 0
    for z in zetas:
        if not z > 0.0:
            raise ValueError(f"--zetas values must be positive for this panel, got {z:g}")
    return [_norm_drive(z) for z in zetas]


def cmd_fig(args: argparse.Namespace) -> int:
    cfg = _resolve(args, "fig")
    panel = args.panel
    zetas = _float_list(cfg["zetas"], "--zetas")
    steps = cfg["steps"]
    if steps < 2:
        raise ValueError("--steps must be at least 2")

    if panel == "2a":
        params = _legend_drives(zetas)
        columns = ["t_over_tau"] + [f"zeta_{z:g}" for z in zetas] + ["delta_limit"]
        rows = []
        for x in _linspace(-4.0, 4.0, steps):
            row = [x]
            row.extend(stored_energy(p, x) / (math.sinh(p.zeta) ** 2) for p in params)
            row.append(0.5 if x == 0.0 else float(x > 0.0))
            rows.append(row)
    elif panel == "2b":
        params = _legend_drives(zetas)
        columns = ["alpha"] + [f"zeta_{z:g}" for z in zetas]
        rows = [
            [a] + [charging_time(p, a).t_alpha for p in params]
            for a in _linspace(0.005, 0.995, steps)
        ]
    elif panel == "2c":
        if cfg["theta_steps"] < 2:
            raise ValueError("--theta-steps must be at least 2")
        p = _norm_drive(cfg["zeta"])
        columns = ["theta", "var_x", "var_p", "std_product"]
        rows = []
        for theta in _linspace(0.0, 2.0 * math.pi, cfg["theta_steps"], endpoint=False):
            report = quadrature_variances(p, 0.0, theta)
            rows.append([report.theta, report.var_x, report.var_p, report.std_product])
    elif panel == "3a":
        params = _legend_drives(zetas)
        columns = ["t_over_tau"] + [f"zeta_{z:g}" for z in zetas]
        rows = []
        for x in _linspace(-4.0, 4.0, steps):
            row = [x]
            row.extend(
                instantaneous_power(p, x) / (p.zeta * math.sinh(2.0 * p.zeta))
                for p in params
            )
            rows.append(row)
    elif panel == "3b":
        # libm's pow, not np.logspace: numpy's power is misrounded at 19
        # of the 401 default points against a decimal reference, libm at 1
        zgrid = [10.0**x for x in _linspace(-2.0, 2.0, steps)]
        weak = peak_power_delay_weak_limit()
        columns = ["zeta", "t_p_over_tau", "lambert_asymptote", "debruijn_approx", "weak_limit"]
        rows = []
        for z in zgrid:
            u = 2.0 * z * z / math.pi
            rows.append(
                [
                    z,
                    peak_power_time(_norm_drive(z)),
                    math.sqrt(lambert_w0(u)),
                    math.sqrt(debruijn_w_approx(u)) if u > math.e else math.nan,
                    weak,
                ]
            )
    elif panel == "3c":
        columns = ["zeta", "p_max", "p_max_estimate"]
        rows = []
        for z in _linspace(0.1, 8.0, steps):
            p = _norm_drive(z)
            t_p = peak_power_time(p)
            rows.append([z, instantaneous_power(p, t_p), peak_power_estimate(p)])
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown panel {panel!r}")

    _write_table(columns, rows, cfg)
    return 0


def _add_out_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--config", default=None, help="flat key=value file with defaults; flags win")


def _add_drive_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--zeta", type=float, default=None, help="dimensionless drive strength")
    sp.add_argument("--tau", type=float, default=None, help="pulse width")
    sp.add_argument("--omega-b", dest="omega_b", type=float, default=None, help="battery level spacing")
    sp.add_argument("--omega-d", dest="omega_d", type=float, default=None, help="half the carrier frequency (default: omega_b)")
    sp.add_argument("--pulse", choices=PULSE_NAMES, default=None)


def _add_grid_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--t-min", dest="t_min", type=float, default=None, help="grid start, units of tau")
    sp.add_argument("--t-max", dest="t_max", type=float, default=None, help="grid end, units of tau")
    sp.add_argument("--steps", type=int, default=None, help="number of grid points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Two-photon charging of a bosonic quantum battery: "
        "energies, powers, charging times, squeezing and Fock-space checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("energy", help="normalized stored energy on a time grid")
    _add_drive_args(sp)
    _add_grid_args(sp)
    _add_out_args(sp)
    sp.set_defaults(func=cmd_energy)

    sp = sub.add_parser("power", help="instantaneous charging power on a time grid")
    _add_drive_args(sp)
    _add_grid_args(sp)
    _add_out_args(sp)
    sp.set_defaults(func=cmd_power)

    sp = sub.add_parser("charge-time", help="times at which given charge fractions are reached")
    _add_drive_args(sp)
    sp.add_argument("--alpha", default=None, help="comma-separated fractions in (0, 1)")
    _add_out_args(sp)
    sp.set_defaults(func=cmd_charge_time)

    sp = sub.add_parser("peak-power", help="delay and height of the power maximum")
    _add_drive_args(sp)
    _add_out_args(sp)
    sp.set_defaults(func=cmd_peak_power)

    sp = sub.add_parser("quadratures", help="twisted quadrature variances at one instant")
    _add_drive_args(sp)
    sp.add_argument("--time", type=float, default=None, help="snapshot instant, units of tau")
    sp.add_argument("--theta-steps", dest="theta_steps", type=int, default=None)
    _add_out_args(sp)
    sp.set_defaults(func=cmd_quadratures)

    sp = sub.add_parser("fock-check", help="Fock-ladder evolution against the closed form")
    _add_drive_args(sp)
    _add_grid_args(sp)
    sp.add_argument("--kappa", type=float, default=None, help="photon-loss rate; > 0 switches to the lossy engine")
    sp.add_argument("--tail-tol", dest="tail_tol", type=float, default=None, help="tail mass budget of the squeezed vacuum the pulse reaches (squeeze parameter zeta), used to size the ladder")
    sp.add_argument("--fock-dim", dest="fock_dim", type=int, default=None, help=f"explicit ladder size (overrides --tail-tol); without --kappa at most {VECTOR_LEVEL_LIMIT}")
    sp.add_argument("--ergotropy", action="store_true", default=None, help="append the extractable-work ratio of the final state")
    _add_out_args(sp)
    sp.set_defaults(func=cmd_fock_check)

    sp = sub.add_parser("sweep", help="summary figures of merit over a list of drive strengths")
    sp.add_argument("--zetas", default=None, help="comma-separated drive strengths")
    sp.add_argument("--alpha", default=None, help="charge fraction for the charging-time column")
    sp.add_argument("--tau", type=float, default=None)
    sp.add_argument("--omega-b", dest="omega_b", type=float, default=None)
    sp.add_argument("--threads", type=int, default=None, help="must be >= 1; has no effect (the rows are GIL-bound and computed in order)")
    _add_out_args(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("fig", help="figure-panel data in normalized units")
    sp.add_argument("panel", choices=("2a", "2b", "2c", "3a", "3b", "3c"))
    sp.add_argument("--zetas", default=None, help="legend values for the multi-series panels")
    sp.add_argument("--zeta", type=float, default=None, help="drive strength for panel 2c")
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--theta-steps", dest="theta_steps", type=int, default=None)
    _add_out_args(sp)
    sp.set_defaults(func=cmd_fig)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"qbattery: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
