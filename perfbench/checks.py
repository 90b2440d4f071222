"""Output checks for every benchmark operation.

The references here are written from the physics with ``math`` alone
and share no code with the package: the Gaussian-envelope energy
sinh^2(zeta A(t)) with A built from ``math.erf``, the turning-point
equation of the power maximum, the defining equation of Lambert W, and
a fixed-step RK4 integration of the lossy moment equations. Every
tolerance is fixed here, before any run.
"""

from __future__ import annotations

import json
import math

# Closed-form columns against the sinh^2(zeta A) reference.
RTOL = 1e-9
ATOL = 1e-15
# |E(t_alpha) / E_max - alpha| for the charging-time columns; erfinv
# guarantees a forward residual below 1e-10 and the energy curve has
# slope at most 2 zeta = 8 against the area.
CHARGE_ATOL = 1e-8
# Relative residual of the turning-point equation at a reported t_p.
TURNING_RTOL = 1e-8
# sigma_X sigma_P may not dip below 1/2 by more than rounding.
UNCERTAINTY_FLOOR = 0.5 - 1e-12
# fock-check tables. Seed values: scaled error up to 4.6e-9, tail up to
# 3.4e-11, pure ergotropy ratio within 1e-13 of 1.
FOCK_SCALED_ERR = 1e-6
FOCK_TAIL = 1e-7
FOCK_ODD = 1e-12
ERGOTROPY_PURE = 1e-8
# Acceptance criterion 11: carrier-resolved vs rotating frame at
# omega_b tau = 50, relative gap in the final n.
RWA_GAP = 0.02

_SQRT2 = math.sqrt(2.0)


class CheckError(Exception):
    """An operation's output is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _close(got: float, ref: float, what: str, rtol: float = RTOL, atol: float = ATOL) -> None:
    _require(abs(got - ref) <= rtol * abs(ref) + atol, f"{what}: got {got!r}, expected {ref!r}")


# --- references -----------------------------------------------------------


def area(t: float) -> float:
    """Cumulative area of the unit-width Gaussian envelope."""
    return 0.5 * (1.0 + math.erf(t / _SQRT2))


def envelope(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def population(zeta: float, t: float) -> float:
    return math.sinh(zeta * area(t)) ** 2


def power(zeta: float, t: float) -> float:
    return zeta * envelope(t) * math.sinh(2.0 * zeta * area(t))


def turning_residual(zeta: float, t: float) -> float:
    """Relative residual of sqrt(2/pi) zeta exp(-t^2/2) = t tanh(2 zeta A(t))."""
    lhs = math.sqrt(2.0 / math.pi) * zeta * math.exp(-0.5 * t * t)
    rhs = t * math.tanh(2.0 * zeta * area(t))
    return (lhs - rhs) / max(lhs, rhs)


def peak_time(zeta: float) -> float:
    """Root of the turning-point equation on t > 0, by bisection."""
    lo, hi = 0.0, 1.0
    while turning_residual(zeta, hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if turning_residual(zeta, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambert_w(u: float) -> float:
    """Principal Lambert W for u >= 0, by bisection on w e^w = u."""
    lo, hi = 0.0, max(1.0, math.log1p(u))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid * math.exp(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def peak_estimate(zeta: float) -> float:
    return 0.25 * math.exp(2.0 * (zeta - 1.0 / 3.0)) * math.sqrt(lambert_w(2.0 * zeta * zeta / math.pi))


def lossy_population(zeta: float, kappa: float, times: list[float], h: float = 0.005) -> list[float]:
    """n(t) of the lossy moment equations from the vacuum, fixed-step RK4.

    dn/dt = -2 zeta f Im s - kappa n, d(Re s)/dt = -kappa Re s,
    d(Im s)/dt = -zeta f (2 n + 1) - kappa Im s, started at times[0].
    """

    def rhs(t, y):
        zf = zeta * envelope(t)
        return (-2.0 * zf * y[2] - kappa * y[0], -kappa * y[1], -zf * (2.0 * y[0] + 1.0) - kappa * y[2])

    y = (0.0, 0.0, 0.0)
    t = times[0]
    out = [0.0]
    for target in times[1:]:
        steps = max(1, round((target - t) / h))
        dt = (target - t) / steps
        for _ in range(steps):
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * dt, [a + 0.5 * dt * b for a, b in zip(y, k1)])
            k3 = rhs(t + 0.5 * dt, [a + 0.5 * dt * b for a, b in zip(y, k2)])
            k4 = rhs(t + dt, [a + dt * b for a, b in zip(y, k3)])
            y = tuple(a + dt / 6.0 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4))
            t += dt
        t = target
        out.append(y[0])
    return out


def linspace(a: float, b: float, n: int) -> list[float]:
    return [a + (b - a) * i / (n - 1) for i in range(n)]


# --- parsing --------------------------------------------------------------


def parse_table(text: str, fmt: str) -> tuple[list[str], list[list[float]]]:
    if fmt == "json":
        payload = json.loads(text)
        return payload["columns"], [[float(v) for v in row] for row in payload["rows"]]
    lines = text.strip().splitlines()
    _require(bool(lines), "empty output")
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _shape(columns, rows, want_columns, want_rows) -> None:
    _require(columns == want_columns, f"columns {columns} != {want_columns}")
    _require(len(rows) == want_rows, f"{len(rows)} rows, expected {want_rows}")
    for row in rows:
        _require(len(row) == len(columns), "ragged row")


def _grid(values, ref, what) -> None:
    for got, want in zip(values, ref):
        _close(got, want, what, rtol=1e-12, atol=1e-12)


def _legend(zetas) -> list[str]:
    return [f"zeta_{z:g}" for z in zetas]


# --- closed-form tables ---------------------------------------------------

FIG_ZETAS = (0.1, 0.5, 1.0, 2.0, 4.0)


def _check_charge_fraction(zeta: float, t_alpha: float, alpha: float) -> None:
    frac = population(zeta, t_alpha) / math.sinh(zeta) ** 2
    _require(abs(frac - alpha) <= CHARGE_ATOL, f"E(t_alpha)/E_max = {frac!r} at zeta {zeta}, alpha {alpha}")


def _check_turning(zeta: float, t_p: float) -> None:
    res = turning_residual(zeta, t_p)
    _require(t_p > 0.0 and abs(res) <= TURNING_RTOL, f"t_p = {t_p!r} leaves residual {res:.3e} at zeta {zeta}")


def _check_quadratures(columns, rows, zeta: float, steps: int) -> None:
    _shape(columns, rows, ["theta", "var_x", "var_p", "std_product"], steps)
    r = 2.0 * zeta * area(0.0)
    base = 0.5 + math.sinh(0.5 * r) ** 2
    for k, (theta, var_x, var_p, std) in enumerate(rows):
        _close(theta, 2.0 * math.pi * k / steps, "theta", rtol=1e-12, atol=1e-15)
        split = 0.5 * math.sin(theta) * math.sinh(r)
        _close(var_x, base - split, "var_x", atol=1e-12)
        _close(var_p, base + split, "var_p", atol=1e-12)
        _close(std, math.sqrt(var_x * var_p), "std_product", atol=1e-12)
        _require(std >= UNCERTAINTY_FLOOR, f"std_product {std!r} below 1/2")


def _check_sweep(columns, rows, zetas, alpha: float = 0.9) -> None:
    _shape(columns, rows, ["zeta", "e_max", "t_alpha", "t_p", "p_max", "p_max_estimate", "p_avg_fwhm"], len(zetas))
    half = math.sqrt(2.0 * math.log(2.0))
    for (zeta, e_max, t_alpha, t_p, p_max, est, p_avg), want in zip(rows, zetas):
        _close(zeta, want, "zeta")
        _close(e_max, math.sinh(zeta) ** 2, "e_max")
        _check_charge_fraction(zeta, t_alpha, alpha)
        _check_turning(zeta, t_p)
        _close(p_max, power(zeta, t_p), "p_max")
        _close(est, peak_estimate(zeta), "p_max_estimate")
        _close(p_avg, (population(zeta, half) - population(zeta, -half)) / (2.0 * half), "p_avg_fwhm")


def check_energy(columns, rows) -> None:
    _shape(columns, rows, ["t", "E_over_Emax"], 201)
    _grid([r[0] for r in rows], linspace(-4.0, 4.0, 201), "t")
    for t, e in rows:
        _close(e, population(1.0, t) / math.sinh(1.0) ** 2, f"E/Emax at t={t}")


def check_power(columns, rows) -> None:
    _shape(columns, rows, ["t", "P"], 201)
    _grid([r[0] for r in rows], linspace(-4.0, 4.0, 201), "t")
    for t, p in rows:
        _close(p, power(1.0, t), f"P at t={t}")


def check_charge_time(columns, rows) -> None:
    _shape(columns, rows, ["alpha", "t_alpha", "t_alpha_over_tau", "e_max"], 3)
    for (alpha, t_alpha, ratio, e_max), want in zip(rows, (0.1, 0.5, 0.9)):
        _close(alpha, want, "alpha")
        _check_charge_fraction(1.0, t_alpha, alpha)
        _close(ratio, t_alpha, "t_alpha_over_tau")
        _close(e_max, math.sinh(1.0) ** 2, "e_max")


def check_peak_power(columns, rows) -> None:
    _shape(columns, rows, ["zeta", "t_p", "t_p_over_tau", "p_max", "p_max_estimate"], 1)
    zeta, t_p, ratio, p_max, est = rows[0]
    _close(zeta, 1.0, "zeta")
    _check_turning(zeta, t_p)
    _close(ratio, t_p, "t_p_over_tau")
    _close(p_max, power(zeta, t_p), "p_max")
    _close(est, peak_estimate(zeta), "p_max_estimate")


def check_quadratures(columns, rows) -> None:
    _check_quadratures(columns, rows, 1.0, 512)


def check_sweep(columns, rows) -> None:
    _check_sweep(columns, rows, (0.5, 1.0, 2.0, 4.0))


def check_fig_2a(columns, rows) -> None:
    _shape(columns, rows, ["t_over_tau", *_legend(FIG_ZETAS), "delta_limit"], 401)
    _grid([r[0] for r in rows], linspace(-4.0, 4.0, 401), "t_over_tau")
    for row in rows:
        x = row[0]
        for zeta, e in zip(FIG_ZETAS, row[1:-1]):
            _close(e, population(zeta, x) / math.sinh(zeta) ** 2, f"zeta {zeta} at t={x}")
        _require(row[-1] == (0.5 if x == 0.0 else float(x > 0.0)), "delta_limit step")


def check_fig_2b(columns, rows) -> None:
    _shape(columns, rows, ["alpha", *_legend(FIG_ZETAS)], 401)
    _grid([r[0] for r in rows], linspace(0.005, 0.995, 401), "alpha")
    for row in rows:
        for zeta, t_alpha in zip(FIG_ZETAS, row[1:]):
            _check_charge_fraction(zeta, t_alpha, row[0])


def check_fig_2c(columns, rows) -> None:
    _check_quadratures(columns, rows, 2.0, 512)


def check_fig_3a(columns, rows) -> None:
    _shape(columns, rows, ["t_over_tau", *_legend(FIG_ZETAS)], 401)
    _grid([r[0] for r in rows], linspace(-4.0, 4.0, 401), "t_over_tau")
    for row in rows:
        x = row[0]
        for zeta, p in zip(FIG_ZETAS, row[1:]):
            _close(p, power(zeta, x) / (zeta * math.sinh(2.0 * zeta)), f"zeta {zeta} at t={x}")


def check_fig_3b(columns, rows) -> None:
    _shape(columns, rows, ["zeta", "t_p_over_tau", "lambert_asymptote", "debruijn_approx", "weak_limit"], 401)
    _grid([r[0] for r in rows], [10.0 ** (-2.0 + 4.0 * i / 400) for i in range(401)], "zeta")
    for zeta, t_p, lam, deb, weak in rows:
        _check_turning(zeta, t_p)
        u = 2.0 * zeta * zeta / math.pi
        w = lam * lam
        _close(w * math.exp(w), u, f"W(u) at zeta {zeta}", rtol=1e-10)
        if u > math.e:
            l1 = math.log(u)
            l2 = math.log(l1)
            _close(deb, math.sqrt(l1 - l2 + l2 / l1), f"de Bruijn at zeta {zeta}")
        else:
            _require(math.isnan(deb), "de Bruijn column must be empty for u <= e")
        g = math.sqrt(2.0 / math.pi) * math.exp(-0.5 * weak * weak)
        _close(weak * (1.0 + math.erf(weak / _SQRT2)), g, "weak limit", rtol=1e-9)


def check_fig_3c(columns, rows) -> None:
    _shape(columns, rows, ["zeta", "p_max", "p_max_estimate"], 401)
    _grid([r[0] for r in rows], linspace(0.1, 8.0, 401), "zeta")
    for zeta, p_max, est in rows:
        _close(p_max, power(zeta, peak_time(zeta)), f"p_max at zeta {zeta}")
        _close(est, peak_estimate(zeta), f"p_max_estimate at zeta {zeta}")


# --- Fock ladder ----------------------------------------------------------

FOCK_COLUMNS = ["t", "n", "re_s", "im_s", "var_x_min", "tail_mass", "n_ref", "abs_err", "ergotropy_ratio"]


def check_fock(columns, rows, zeta: float, kappa: float) -> None:
    """A ``fock-check --ergotropy`` table on the default 57-point grid."""
    _shape(columns, rows, FOCK_COLUMNS, 57)
    times = linspace(-8.0, 6.0, 57)
    _grid([r[0] for r in rows], times, "t")
    if kappa == 0.0:
        ref = [population(zeta, t) for t in times]
    else:
        ref = lossy_population(zeta, kappa, times)
    for (t, n, re_s, im_s, var_x_min, tail, n_ref, abs_err, ratio), want in zip(rows, ref):
        scale = 1.0 + want
        _require(abs(n_ref - want) <= FOCK_SCALED_ERR * scale, f"n_ref {n_ref!r} vs reference {want!r} at t={t}")
        _close(abs_err, abs(n - n_ref), "abs_err", rtol=1e-12)
        _require(abs_err / (1.0 + n_ref) <= FOCK_SCALED_ERR, f"scaled error {abs_err / (1.0 + n_ref):.3e} at t={t}")
        _require(abs(tail) <= FOCK_TAIL, f"tail mass {tail!r} at t={t}")
        s_abs = math.hypot(re_s, im_s)
        _require(abs(var_x_min - (0.5 + n - s_abs)) <= 1e-9 * scale, f"var_x_min inconsistent at t={t}")
        if kappa == 0.0:
            invariant = (n + 0.5) ** 2 - s_abs * s_abs - 0.25
            _require(abs(invariant) <= FOCK_SCALED_ERR * scale * scale, f"invariant residual {invariant:.3e} at t={t}")
            _require(abs(ratio - 1.0) <= ERGOTROPY_PURE, f"pure ergotropy ratio {ratio!r}")
        else:
            _require(0.0 < ratio <= 1.0 + 1e-9, f"lossy ergotropy ratio {ratio!r}")


def check_odd_mass(odd: float) -> None:
    _require(odd <= FOCK_ODD, f"odd-sector mass {odd!r}")


def check_full_carrier(result: dict) -> None:
    _require(result["dim"] == 454, "full-carrier must run at dim 454")
    n_full, n_rwa = result["n_full"], result["n_rwa"]
    want = population(1.0, result["t_final"])
    _require(abs(n_rwa - want) <= FOCK_SCALED_ERR * (1.0 + want), f"rotating-frame n {n_rwa!r} vs {want!r}")
    gap = abs(n_full - n_rwa) / n_rwa
    _require(gap < RWA_GAP, f"carrier-resolved gap {gap:.3e} at omega_b tau = 50")
    check_odd_mass(result["odd_mass"])
    _require(abs(result["tail_mass"]) <= FOCK_TAIL, f"tail mass {result['tail_mass']!r}")
