"""Command line interface: every computation as CSV or JSON tables.

Time grids (``--t-min``/``--t-max``) and snapshot instants are given in
units of the pulse width tau; emitted time columns are absolute. The
``fig`` subcommands reproduce the standard panels in normalized units
(energies over their maximum, powers over omega_b/tau or the
zeta sinh(2 zeta) scale, times over tau).

Exit status: 0 on success, 1 with a diagnostic on standard error for
numerical or domain failures, 2 for unusable flags, a ``--config``
value its flag would refuse included. A command on a grid yields its
rows and the writer takes 4096 at a time, so a failure past the first
block follows rows already on stdout: the exit status is the contract
there. A reader that closes stdout early ends the run with status 0
and no diagnostic. Output is deterministic for identical
configurations: full double precision, fixed row order.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import _write_table, dynamics, fock, merit, pulses, specfun

__all__ = ["main", "build_parser"]

# Legend values used by the multi-series figure panels; a package choice.
FIG_ZETAS = "0.1,0.5,1,2,4"

# What every command returns: column names and its rows, a generator
# where a grid sets their number, written by _write_table.
Table = tuple[list[str], Iterable[list[float]]]


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


def _drive(args: argparse.Namespace) -> pulses.DriveParams:
    pulse = pulses.from_name(args.pulse, args.tau)
    return pulses.DriveParams(omega_b=args.omega_b, zeta=args.zeta, pulse=pulse)


def _float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of numbers, got {text!r}")
    if not values:
        raise ValueError(f"{name} must contain at least one value")
    return values


def _linspace(start: float, stop: float, num: int, endpoint: bool = True) -> Iterator[float]:
    """``numpy.linspace(start, stop, num, endpoint=endpoint)`` yielded as
    floats, bit for bit, for num >= 2: the same step, the same rounding of
    i * step + start, and ``stop`` itself as the last point."""
    div = num - 1 if endpoint else num
    delta = stop - start
    step = delta / div
    for i in range(div):
        # numpy's order for a step that underflows
        yield i / div * delta + start if step == 0.0 else i * step + start
    if endpoint:
        yield stop


def _grid(args: argparse.Namespace) -> Iterator[float]:
    steps = _steps(args)
    if not args.t_min < args.t_max:
        raise ValueError("--t-min must be less than --t-max")
    start, stop = args.t_min * args.tau, args.t_max * args.tau
    # a finite span has finite ends, and every point lies between them
    if not math.isfinite(stop - start):
        raise ValueError(
            f"--t-min {args.t_min:g} and --t-max {args.t_max:g} (units of tau = "
            f"{args.tau:g}) do not give a finite time grid"
        )
    return _linspace(start, stop, steps)


def _theta_table(p: pulses.DriveParams, t: float, theta_steps: int) -> Table:
    if theta_steps < 2:
        raise ValueError("--theta-steps must be at least 2")

    def rows():
        for theta in _linspace(0.0, 2.0 * math.pi, theta_steps, endpoint=False):
            report = merit.quadrature_variances(p, t, theta)
            yield [report.theta, report.var_x, report.var_p, report.std_product]

    return ["theta", "var_x", "var_p", "std_product"], rows()


def cmd_energy(args: argparse.Namespace) -> Table:
    p = _drive(args)
    e_max = merit.stored_energy(p, math.inf)
    if e_max == 0.0:
        raise ValueError("zeta = 0 stores no energy; nothing to normalize")
    return ["t", "E_over_Emax"], ([t, merit.stored_energy(p, t) / e_max] for t in _grid(args))


def cmd_power(args: argparse.Namespace) -> Table:
    p = _drive(args)
    return ["t", "P"], ([t, merit.instantaneous_power(p, t)] for t in _grid(args))


def cmd_charge_time(args: argparse.Namespace) -> Table:
    p = _drive(args)
    rows = []
    for alpha in _float_list(args.alpha, "--alpha"):
        report = merit.charging_time(p, alpha)
        rows.append([alpha, report.t_alpha, report.t_alpha / args.tau, report.e_max])
    return ["alpha", "t_alpha", "t_alpha_over_tau", "e_max"], rows


def cmd_peak_power(args: argparse.Namespace) -> Table:
    p = _drive(args)
    t_p = merit.peak_power_time(p)
    rows = [[args.zeta, t_p, t_p / args.tau, merit.instantaneous_power(p, t_p), merit.peak_power_estimate(p)]]
    return ["zeta", "t_p", "t_p_over_tau", "p_max", "p_max_estimate"], rows


def cmd_quadratures(args: argparse.Namespace) -> Table:
    return _theta_table(_drive(args), args.time * args.tau, args.theta_steps)


def cmd_fock_check(args: argparse.Namespace) -> Table:
    p = _drive(args)
    kappa = args.kappa
    times = list(_grid(args))
    if kappa == 0.0:
        # the pulse takes the vacuum to a squeezed vacuum of squeeze
        # parameter at most zeta, which sizes the ladder
        traj = fock.evolve_rwa(p, fock.choose_truncation(args.zeta, args.tail_tol), times)
        # the engine starts from the vacuum at the first grid point, not at -inf
        n_ref = (dynamics.analytic_moments(p, t, times[0]).n for t in times)
    else:
        # with loss the state is thermal in its own squeezed frame, whose
        # ladder the closed form sizes; the moment ODE stays the reference,
        # at an accuracy that leaves the engine's error in abs_err, not its own
        traj = fock.evolve_lindblad(p, kappa, fock.frame_truncation(p, kappa, times, args.tail_tol), times)
        n_ref = dynamics.integrate_moments(p, times, kappa=kappa).n
    ratio = ()
    if args.ergotropy:
        final = traj.final_state
        stored = p.omega_b * final.mean_population()
        if stored == 0.0:
            raise ValueError(f"zeta = {args.zeta:g} stores no energy; the ergotropy ratio is undefined")
        ratio = (fock.ergotropy(final, p.omega_b) / stored,)
    columns, rows = traj.table()
    columns = columns + ["n_ref", "abs_err"] + ["ergotropy_ratio"] * len(ratio)
    return columns, (row + [ref, abs(row[1] - ref), *ratio] for row, ref in zip(rows, n_ref))


def _sweep_row(zeta: float, tau: float, omega_b: float, alpha: float) -> list[float]:
    p = pulses.DriveParams(omega_b=omega_b, zeta=zeta, pulse=pulses.Gaussian(tau))
    t_p = merit.peak_power_time(p)
    return [
        zeta,
        merit.stored_energy(p, math.inf),
        merit.charging_time(p, alpha).t_alpha,
        t_p,
        merit.instantaneous_power(p, t_p),
        merit.peak_power_estimate(p),
        merit.average_power_fwhm(p),
    ]


def cmd_sweep(args: argparse.Namespace) -> Table:
    zetas = _float_list(args.zetas, "--zetas")
    if args.threads < 1:
        raise ValueError("--threads must be at least 1")
    rows = [_sweep_row(z, args.tau, args.omega_b, args.alpha) for z in zetas]
    return ["zeta", "e_max", "t_alpha", "t_p", "p_max", "p_max_estimate", "p_avg_fwhm"], rows


def _norm_drive(zeta: float) -> pulses.DriveParams:
    return pulses.DriveParams(omega_b=1.0, zeta=zeta, pulse=pulses.Gaussian(1.0))


def _steps(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    return args.steps


def _legend(args: argparse.Namespace) -> tuple[list[float], list[pulses.DriveParams]]:
    zetas = _float_list(args.zetas, "--zetas")
    # each series is normalized by a quantity that vanishes at zeta = 0
    for z in zetas:
        if not z > 0.0:
            raise ValueError(f"--zetas values must be positive for this panel, got {z:g}")
    return zetas, [_norm_drive(z) for z in zetas]


def fig_2a(args: argparse.Namespace) -> Table:
    zetas, params = _legend(args)
    e_max = [merit.stored_energy(p, math.inf) for p in params]
    delta = pulses.DeltaLimit()
    grid = _linspace(-4.0, 4.0, _steps(args))

    def rows():
        for x in grid:
            row = [x]
            row.extend(merit.stored_energy(p, x) / e for p, e in zip(params, e_max))
            row.append(delta.area(x))
            yield row

    return ["t_over_tau"] + [f"zeta_{z:g}" for z in zetas] + ["delta_limit"], rows()


def fig_2b(args: argparse.Namespace) -> Table:
    zetas, params = _legend(args)
    rows = (
        [a] + [merit.charging_time(p, a).t_alpha for p in params]
        for a in _linspace(0.005, 0.995, _steps(args))
    )
    return ["alpha"] + [f"zeta_{z:g}" for z in zetas], rows


def fig_2c(args: argparse.Namespace) -> Table:
    return _theta_table(_norm_drive(args.zeta), 0.0, args.theta_steps)


def fig_3a(args: argparse.Namespace) -> Table:
    zetas, params = _legend(args)
    grid = _linspace(-4.0, 4.0, _steps(args))

    def rows():
        for x in grid:
            row = [x]
            row.extend(merit.instantaneous_power(p, x) / (p.zeta * math.sinh(2.0 * p.zeta)) for p in params)
            yield row

    return ["t_over_tau"] + [f"zeta_{z:g}" for z in zetas], rows()


def fig_3b(args: argparse.Namespace) -> Table:
    # libm's pow, not np.logspace: numpy's power is misrounded at 19
    # of the 401 default points against a decimal reference, libm at 1
    zgrid = (10.0**x for x in _linspace(-2.0, 2.0, _steps(args)))
    weak = merit.peak_power_delay_weak_limit()

    def rows():
        for z in zgrid:
            u = 2.0 * z * z / math.pi
            yield [
                z,
                merit.peak_power_time(_norm_drive(z)),
                math.sqrt(specfun.lambert_w0(u)),
                math.sqrt(specfun.debruijn_w_approx(u)) if u > math.e else math.nan,
                weak,
            ]

    return ["zeta", "t_p_over_tau", "lambert_asymptote", "debruijn_approx", "weak_limit"], rows()


def fig_3c(args: argparse.Namespace) -> Table:
    grid = _linspace(0.1, 8.0, _steps(args))

    def rows():
        for z in grid:
            p = _norm_drive(z)
            t_p = merit.peak_power_time(p)
            yield [z, merit.instantaneous_power(p, t_p), merit.peak_power_estimate(p)]

    return ["zeta", "p_max", "p_max_estimate"], rows()


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

    def command(subparsers, name: str, func, what: str, drive: bool = False, grid: tuple | None = None):
        """The one registration of a subcommand: what main reads of each
        (func, parser, --format, --out, --config), then the drive flags
        if ``drive``, the time grid's if ``grid`` = (t_min, t_max, steps)."""
        sp = subparsers.add_parser(name, help=what, allow_abbrev=False)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--config", default=None, help="flat key=value file read as --key=value flags before the command line's own, which win")
        if drive:
            sp.add_argument("--zeta", type=float, default=1.0, help="dimensionless drive strength")
            sp.add_argument("--tau", type=float, default=1.0, help="pulse width")
            sp.add_argument("--omega-b", type=float, default=1.0, help="battery level spacing")
            sp.add_argument("--pulse", choices=pulses.PULSE_NAMES, default="gaussian")
        if grid is not None:
            t_min, t_max, steps = grid
            sp.add_argument("--t-min", type=float, default=t_min, help="grid start, units of tau")
            sp.add_argument("--t-max", type=float, default=t_max, help="grid end, units of tau")
            sp.add_argument("--steps", type=int, default=steps, help="number of grid points")
        # main reports a flag this parser refuses with its usage line
        sp.set_defaults(func=func, parser=sp)
        return sp

    command(sub, "energy", cmd_energy, "normalized stored energy on a time grid", drive=True, grid=(-4.0, 4.0, 201))
    command(sub, "power", cmd_power, "instantaneous charging power on a time grid", drive=True, grid=(-4.0, 4.0, 201))

    sp = command(sub, "charge-time", cmd_charge_time, "times at which given charge fractions are reached", drive=True)
    sp.add_argument("--alpha", default="0.1,0.5,0.9", help="comma-separated fractions in (0, 1)")

    command(sub, "peak-power", cmd_peak_power, "delay and height of the power maximum", drive=True)

    sp = command(sub, "quadratures", cmd_quadratures, "twisted quadrature variances at one instant", drive=True)
    sp.add_argument("--time", type=float, default=0.0, help="snapshot instant, units of tau")
    sp.add_argument("--theta-steps", type=int, default=512)

    sp = command(sub, "fock-check", cmd_fock_check, "Fock-ladder evolution against the closed form", drive=True, grid=(-8.0, 6.0, 57))
    sp.add_argument("--kappa", type=float, default=0.0, help="photon-loss rate; > 0 switches to the lossy engine")
    sp.add_argument("--tail-tol", type=float, default=1e-8, help="tail mass budget used to size the ladder: of the squeezed vacuum the pulse reaches (squeeze parameter zeta), or with --kappa of the frame ladder, which holds the lossy state in its own squeezed frame, at every grid point")
    sp.add_argument("--ergotropy", nargs="?", type=_true_or_false, const=True, default=False, metavar="true|false", help="append the extractable-work ratio of the final state")

    sp = command(sub, "sweep", cmd_sweep, "summary figures of merit over a list of drive strengths")
    sp.add_argument("--zetas", default="0.5,1,2,4", help="comma-separated drive strengths")
    sp.add_argument("--alpha", type=float, default=0.9, help="charge fraction for the charging-time column")
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--omega-b", type=float, default=1.0)
    sp.add_argument("--threads", type=int, default=1, help="must be >= 1; has no effect (the rows are GIL-bound and computed in order)")

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

    return parser


def _apply_config(
    parser: argparse.ArgumentParser, argv: list[str], args: argparse.Namespace
) -> argparse.Namespace:
    """Parse again with the config file's flags after the command words
    and before the user's flags, so that argparse checks each config
    value as it checks its flag and the user's flags win."""
    flags = _config_flags(args.config)
    # the command words: "qbattery fig 2a" has two
    head = len(args.parser.prog.split()) - 1
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
        _write_table(*args.func(args), args.out, args.format)
    except Exception as exc:
        if isinstance(exc, BrokenPipeError) and args.out in (None, "-"):
            # the reader took what it wanted and closed stdout (head, say):
            # exit quietly, stdout at devnull so the final flush is quiet too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        if isinstance(exc, OverflowError) and "largest double" not in str(exc):
            # libm's overflow says only "math range error"; the package's
            # own, the lossy state's V+, names what passed the largest double
            exc = (
                "a result passed the largest double (about 1.8e308); the closed forms grow as "
                "e^(2 zeta A), which passes it from zeta A = 354.9, the stored energy "
                "sinh^2(zeta A) only from 355.6"
            )
        # an exception with no text, a MemoryError say, is named by its type
        print(f"qbattery: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
