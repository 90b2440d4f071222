"""Command line interface: every computation as CSV or JSON tables.

Time grids (``--t-min``/``--t-max``) and snapshot instants are given in
units of the pulse width tau; emitted time columns are absolute. The
``fig`` subcommands reproduce the standard panels in normalized units
(energies over their maximum, powers over omega_b/tau or the
zeta sinh(2 zeta) scale, times over tau).

Exit status: 0 on success, 1 with a diagnostic on standard error for
numerical or domain failures, 2 for unusable flags, a ``--config``
value its flag would refuse included. Output is deterministic for
identical configurations: full double precision, fixed row order.
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

# What every command returns: column names and rows, written by _write_table.
Table = tuple[list[str], list[list[float]]]


def _config_flags(path: str) -> dict[str, str]:
    """Each ``key = value`` line of a config file as ``--key=value``,
    mapped to the key it came from."""
    flags: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {raw!r} is not of the form key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        flags[f"--{key.replace('_', '-')}={value}"] = key
    return flags


def _drive(args: argparse.Namespace) -> DriveParams:
    pulse = from_name(args.pulse, None if args.pulse == "delta" else args.tau)
    return DriveParams(omega_b=args.omega_b, zeta=args.zeta, pulse=pulse, omega_d=args.omega_d)


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


def _grid(args: argparse.Namespace) -> list[float]:
    if args.steps < 2:
        raise ValueError("the time grid needs at least 2 points")
    if not args.t_min < args.t_max:
        raise ValueError("need t_min < t_max")
    return _linspace(args.t_min * args.tau, args.t_max * args.tau, args.steps)


def _write_table(columns: list[str], rows: list[list[float]], args: argparse.Namespace) -> None:
    if args.format == "json":
        payload = {"columns": columns, "rows": [[float(v) for v in row] for row in rows]}
        text = json.dumps(payload, separators=(",", ":")) + "\n"
    else:
        text = _csv_text(columns, rows)
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8", newline="")


def _theta_table(p: DriveParams, t: float, theta_steps: int) -> Table:
    if theta_steps < 2:
        raise ValueError("--theta-steps must be at least 2")
    rows = []
    for theta in _linspace(0.0, 2.0 * math.pi, theta_steps, endpoint=False):
        report = quadrature_variances(p, t, theta)
        rows.append([report.theta, report.var_x, report.var_p, report.std_product])
    return ["theta", "var_x", "var_p", "std_product"], rows


def cmd_energy(args: argparse.Namespace) -> Table:
    p = _drive(args)
    e_max = p.omega_b * math.sinh(p.zeta) ** 2
    if e_max == 0.0:
        raise ValueError("zeta = 0 stores no energy; nothing to normalize")
    return ["t", "E_over_Emax"], [[t, stored_energy(p, t) / e_max] for t in _grid(args)]


def cmd_power(args: argparse.Namespace) -> Table:
    p = _drive(args)
    return ["t", "P"], [[t, instantaneous_power(p, t)] for t in _grid(args)]


def cmd_charge_time(args: argparse.Namespace) -> Table:
    p = _drive(args)
    rows = []
    for alpha in _float_list(args.alpha, "--alpha"):
        report = charging_time(p, alpha)
        rows.append([alpha, report.t_alpha, report.t_alpha / args.tau, report.e_max])
    return ["alpha", "t_alpha", "t_alpha_over_tau", "e_max"], rows


def cmd_peak_power(args: argparse.Namespace) -> Table:
    p = _drive(args)
    t_p = peak_power_time(p)
    rows = [[args.zeta, t_p, t_p / args.tau, instantaneous_power(p, t_p), peak_power_estimate(p)]]
    return ["zeta", "t_p", "t_p_over_tau", "p_max", "p_max_estimate"], rows


def cmd_quadratures(args: argparse.Namespace) -> Table:
    return _theta_table(_drive(args), args.time * args.tau, args.theta_steps)


def cmd_fock_check(args: argparse.Namespace) -> Table:
    p = _drive(args)
    kappa = args.kappa
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa!r}")
    times = _grid(args)
    # both engines hold the state the pulse actually reaches from the
    # vacuum, a squeezed vacuum of squeeze parameter at most zeta
    dim = args.fock_dim
    if dim is None:
        dim = choose_truncation(0.5 * args.zeta, args.tail_tol)
    if kappa == 0.0:
        if dim > VECTOR_LEVEL_LIMIT:
            raise ValueError(
                f"the vector ladder needs {dim} levels (zeta {args.zeta:g}, "
                f"--tail-tol {args.tail_tol:g}), above the {VECTOR_LEVEL_LIMIT}-level "
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
    if args.ergotropy:
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
    return columns, rows


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


def cmd_sweep(args: argparse.Namespace) -> Table:
    zetas = _float_list(args.zetas, "--zetas")
    alphas = _float_list(args.alpha, "--alpha")
    if len(alphas) != 1:
        raise ValueError("sweep takes a single --alpha")
    if args.threads < 1:
        raise ValueError("--threads must be at least 1")
    rows = [_sweep_row(z, args.tau, args.omega_b, alphas[0]) for z in zetas]
    return ["zeta", "e_max", "t_alpha", "t_p", "p_max", "p_max_estimate", "p_avg_fwhm"], rows


def _norm_drive(zeta: float) -> DriveParams:
    return DriveParams(omega_b=1.0, zeta=zeta, pulse=from_name("gaussian", 1.0))


def _steps(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    return args.steps


def _legend(args: argparse.Namespace) -> tuple[list[float], list[DriveParams]]:
    zetas = _float_list(args.zetas, "--zetas")
    # each series is normalized by a quantity that vanishes at zeta = 0
    for z in zetas:
        if not z > 0.0:
            raise ValueError(f"--zetas values must be positive for this panel, got {z:g}")
    return zetas, [_norm_drive(z) for z in zetas]


def fig_2a(args: argparse.Namespace) -> Table:
    zetas, params = _legend(args)
    rows = []
    for x in _linspace(-4.0, 4.0, _steps(args)):
        row = [x]
        row.extend(stored_energy(p, x) / (math.sinh(p.zeta) ** 2) for p in params)
        row.append(0.5 if x == 0.0 else float(x > 0.0))
        rows.append(row)
    return ["t_over_tau"] + [f"zeta_{z:g}" for z in zetas] + ["delta_limit"], rows


def fig_2b(args: argparse.Namespace) -> Table:
    zetas, params = _legend(args)
    rows = [
        [a] + [charging_time(p, a).t_alpha for p in params]
        for a in _linspace(0.005, 0.995, _steps(args))
    ]
    return ["alpha"] + [f"zeta_{z:g}" for z in zetas], rows


def fig_2c(args: argparse.Namespace) -> Table:
    return _theta_table(_norm_drive(args.zeta), 0.0, args.theta_steps)


def fig_3a(args: argparse.Namespace) -> Table:
    zetas, params = _legend(args)
    rows = []
    for x in _linspace(-4.0, 4.0, _steps(args)):
        row = [x]
        row.extend(instantaneous_power(p, x) / (p.zeta * math.sinh(2.0 * p.zeta)) for p in params)
        rows.append(row)
    return ["t_over_tau"] + [f"zeta_{z:g}" for z in zetas], rows


def fig_3b(args: argparse.Namespace) -> Table:
    # libm's pow, not np.logspace: numpy's power is misrounded at 19
    # of the 401 default points against a decimal reference, libm at 1
    zgrid = [10.0**x for x in _linspace(-2.0, 2.0, _steps(args))]
    weak = peak_power_delay_weak_limit()
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
    return ["zeta", "t_p_over_tau", "lambert_asymptote", "debruijn_approx", "weak_limit"], rows


def fig_3c(args: argparse.Namespace) -> Table:
    rows = []
    for z in _linspace(0.1, 8.0, _steps(args)):
        p = _norm_drive(z)
        t_p = peak_power_time(p)
        rows.append([z, instantaneous_power(p, t_p), peak_power_estimate(p)])
    return ["zeta", "p_max", "p_max_estimate"], rows


def _add_out_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")
    sp.add_argument("--config", default=None, help="flat key=value file read as --key=value flags before the command line's own, which win")


def _add_drive_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--zeta", type=float, default=1.0, help="dimensionless drive strength")
    sp.add_argument("--tau", type=float, default=1.0, help="pulse width")
    sp.add_argument("--omega-b", type=float, default=1.0, help="battery level spacing")
    sp.add_argument("--omega-d", type=float, default=None, help="half the carrier frequency (default: omega_b)")
    sp.add_argument("--pulse", choices=PULSE_NAMES, default="gaussian")


def _add_grid_args(sp: argparse.ArgumentParser, t_min: float, t_max: float, steps: int) -> None:
    sp.add_argument("--t-min", type=float, default=t_min, help="grid start, units of tau")
    sp.add_argument("--t-max", type=float, default=t_max, help="grid end, units of tau")
    sp.add_argument("--steps", type=int, default=steps, help="number of grid points")


def _true_or_false(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return value == "true"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Two-photon charging of a bosonic quantum battery: "
        "energies, powers, charging times, squeezing and Fock-space checks.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, func, what: str, drive: bool = False):
        sp = subparsers.add_parser(name, help=what, allow_abbrev=False)
        if drive:
            _add_drive_args(sp)
        # main reports a flag this parser refuses with its usage line
        sp.set_defaults(func=func, parser=sp)
        return sp

    sp = command(sub, "energy", cmd_energy, "normalized stored energy on a time grid", drive=True)
    _add_grid_args(sp, -4.0, 4.0, 201)
    _add_out_args(sp)

    sp = command(sub, "power", cmd_power, "instantaneous charging power on a time grid", drive=True)
    _add_grid_args(sp, -4.0, 4.0, 201)
    _add_out_args(sp)

    sp = command(sub, "charge-time", cmd_charge_time, "times at which given charge fractions are reached", drive=True)
    sp.add_argument("--alpha", default="0.1,0.5,0.9", help="comma-separated fractions in (0, 1)")
    _add_out_args(sp)

    sp = command(sub, "peak-power", cmd_peak_power, "delay and height of the power maximum", drive=True)
    _add_out_args(sp)

    sp = command(sub, "quadratures", cmd_quadratures, "twisted quadrature variances at one instant", drive=True)
    sp.add_argument("--time", type=float, default=0.0, help="snapshot instant, units of tau")
    sp.add_argument("--theta-steps", type=int, default=512)
    _add_out_args(sp)

    sp = command(sub, "fock-check", cmd_fock_check, "Fock-ladder evolution against the closed form", drive=True)
    _add_grid_args(sp, -8.0, 6.0, 57)
    sp.add_argument("--kappa", type=float, default=0.0, help="photon-loss rate; > 0 switches to the lossy engine")
    sp.add_argument("--tail-tol", type=float, default=1e-8, help="tail mass budget of the squeezed vacuum the pulse reaches (squeeze parameter zeta), used to size the ladder")
    sp.add_argument("--fock-dim", type=int, default=None, help=f"explicit ladder size (overrides --tail-tol); without --kappa at most {VECTOR_LEVEL_LIMIT}")
    sp.add_argument("--ergotropy", nargs="?", type=_true_or_false, const=True, default=False, metavar="true|false", help="append the extractable-work ratio of the final state")
    _add_out_args(sp)

    sp = command(sub, "sweep", cmd_sweep, "summary figures of merit over a list of drive strengths")
    sp.add_argument("--zetas", default="0.5,1,2,4", help="comma-separated drive strengths")
    sp.add_argument("--alpha", default="0.9", help="charge fraction for the charging-time column")
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--omega-b", type=float, default=1.0)
    sp.add_argument("--threads", type=int, default=1, help="must be >= 1; has no effect (the rows are GIL-bound and computed in order)")
    _add_out_args(sp)

    fig = sub.add_parser("fig", help="figure-panel data in normalized units", allow_abbrev=False)
    panels = fig.add_subparsers(dest="panel", required=True)
    for name, func, what in (
        ("2a", fig_2a, "normalized stored energy against time, one series per zeta"),
        ("2b", fig_2b, "charging time against charge fraction, one series per zeta"),
        ("2c", fig_2c, "quadrature variances at the pulse peak"),
        ("3a", fig_3a, "normalized power against time, one series per zeta"),
        ("3b", fig_3b, "peak-power delay against zeta, with its asymptotes"),
        ("3c", fig_3c, "peak power against zeta, with its estimate"),
    ):
        sp = command(panels, name, func, what)
        if name in ("2a", "2b", "3a"):
            sp.add_argument("--zetas", default=FIG_ZETAS, help="comma-separated legend values")
        if name == "2c":
            sp.add_argument("--zeta", type=float, default=2.0, help="drive strength")
            sp.add_argument("--theta-steps", type=int, default=512)
        else:
            sp.add_argument("--steps", type=int, default=401, help="number of grid points")
        _add_out_args(sp)

    return parser


def _apply_config(
    parser: argparse.ArgumentParser, argv: list[str], args: argparse.Namespace
) -> argparse.Namespace:
    """Parse again with the config file's flags after the command words
    and before the user's flags, so that argparse checks each config
    value as it checks its flag and the user's flags win."""
    flags = _config_flags(args.config)
    head = 2 if args.command == "fig" else 1
    args, unused = parser.parse_known_args(argv[:head] + list(flags) + argv[head:])
    if unused:
        command = " ".join(argv[:head])
        raise ValueError(f"config key {flags.get(unused[0], unused[0])!r} is not used by {command!r}")
    return args


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        if args.config is not None:
            args = _apply_config(parser, argv, args)
        _write_table(*args.func(args), args)
    except Exception as exc:
        print(f"qbattery: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
