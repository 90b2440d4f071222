"""Independent numeric oracles used only by the tests.

These deliberately avoid the code paths they check: the error function
comes from its Maclaurin series summed in 60-digit decimal arithmetic,
the inverses come from plain bisection, derivatives from central
differences, the Lindblad reference steps the full dense matrix, and the
carrier-resolved reference steps moment equations, with no ladder.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext

import numpy as np
from scipy.integrate import solve_ivp

getcontext().prec = 60

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
_TWO_OVER_SQRT_PI = 2 / _PI.sqrt()


def erf_series(x: float) -> float:
    """erf via the alternating Maclaurin series, exact to ~45 digits.

    Decimal arithmetic absorbs the cancellation that makes this series
    useless in double precision beyond |x| ~ 3; good up to |x| ~ 7.
    """
    xd = Decimal(x)
    x2 = xd * xd
    term = xd  # x^(2n+1) / n!
    total = Decimal(0)
    n = 0
    while True:
        contrib = term / (2 * n + 1)
        total += contrib if n % 2 == 0 else -contrib
        if abs(contrib) < Decimal("1e-45") * (1 + abs(total)):
            break
        n += 1
        term = term * x2 / n
        if n > 600:
            raise RuntimeError("erf series did not converge")
    return float(total * _TWO_OVER_SQRT_PI)


def erfinv_bisect(p: float) -> float:
    """Inverse error function by 200 bisection steps on math.erf."""
    if not -1.0 < p < 1.0:
        raise ValueError("p outside (-1, 1)")
    lo, hi = -6.5, 6.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambert_bisect(x: float) -> float:
    """Principal-branch Lambert W by 200 bisection steps on w e^w."""
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi * math.exp(hi) < x:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def central_difference(f, x: float, h: float) -> float:
    """Symmetric two-point derivative estimate."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def squeezed_vacuum_distribution(r: float, levels: int) -> list[float]:
    """Photon-number probabilities of a squeezed vacuum, P(2m) =
    (2m)! / (2^(2m) (m!)^2) tanh^(2m)(r) / cosh(r), via log factorials."""
    probs = [0.0] * levels
    th = math.tanh(r)
    for n in range(0, levels, 2):
        m = n // 2
        log_p = (
            math.lgamma(2 * m + 1)
            - 2.0 * m * math.log(2.0)
            - 2.0 * math.lgamma(m + 1)
            + 2.0 * m * math.log(th)
            - math.log(math.cosh(r))
        ) if m > 0 else -math.log(math.cosh(r))
        probs[n] = math.exp(log_p)
    return probs


def frame_nbar(moments) -> np.ndarray:
    """The thermal population sqrt(V+ V-) - 1/2 of lossy Gaussian states,
    from the moments ``moments.n`` and ``moments.s`` at each sample."""
    return np.sqrt((0.5 + moments.n) ** 2 - np.abs(moments.s) ** 2) - 0.5


def lossy_nbar(p, kappa: float, times) -> np.ndarray:
    """sqrt(V+ V-) - 1/2 of the lossy state from the vacuum at times[0],
    at each of ``times``, from ln V± stepped by DOP853 at rel 1e-13:
    d ln V±/dt = ±2 zeta f - kappa + (kappa/2) e^(-ln V±), so no
    closed-form term enters."""
    zeta, value = p.zeta, p.pulse.value

    def rhs(t, y):
        drive = 2.0 * zeta * value(t)
        return [
            drive - kappa + 0.5 * kappa * math.exp(-y[0]),
            -drive - kappa + 0.5 * kappa * math.exp(-y[1]),
        ]

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(
        rhs, (times[0], times[-1]), [math.log(0.5)] * 2, method="DOP853",
        t_eval=times, rtol=1e-13, atol=1e-13, max_step=0.25 * p.pulse.tau,
    )
    assert sol.success, sol.message
    return np.exp(0.5 * (sol.y[0] + sol.y[1])) - 0.5


def thermal_ladder(nbar, tail_tol: float) -> int:
    """The fewest levels, at least 6, whose top four and all beyond hold
    less than ``tail_tol`` of a thermal state at the largest ``nbar``:
    4 + ceil(ln tail_tol / ln(nbar / (nbar + 1)))."""
    top = float(np.max(nbar))
    if top <= 0.0:
        return 6
    return max(6, 4 + math.ceil(math.log(tail_tol) / -math.log1p(1.0 / top)))


def lindblad_dense(p, kappa: float, rho0, times, acc) -> dict:
    """Rotating-frame Lindblad evolution on the full complex dim^2 matrix.

    The reference for the parity-block engine: every entry of rho is
    stored and stepped, the commutator -i h [b†b† + bb, rho] is applied
    by row and column shifts and the loss dissipator
    kappa (b rho b† - {b†b, rho}/2) entrywise, with h = (zeta/2) f(t).
    Returns n, s = <bb>, the top-four-level tail mass, the odd-level
    mass, the worst trace drift and the final matrix divided by its
    trace.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]
    times = np.asarray(times, dtype=float)
    levels = np.arange(dim, dtype=float)
    lower = np.sqrt((levels + 1.0) * (levels + 2.0))  # <n| bb |n+2>
    raise_ = np.sqrt(levels * (levels - 1.0))  # <n| b†b† |n-2>
    lc = lower[: dim - 2]
    rc = raise_[2:]
    sq1 = np.sqrt(np.arange(1, dim, dtype=float))
    jump_weight = np.outer(sq1, sq1)  # sqrt((i+1)(j+1)) for b rho b†
    ksum = np.add.outer(levels, levels)
    half_zeta = 0.5 * p.zeta
    value = p.pulse.value

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        out = np.zeros((dim, dim), dtype=complex)
        h = half_zeta * value(t)
        if h != 0.0:
            comm = np.zeros((dim, dim), dtype=complex)
            comm[:-2, :] += lc[:, None] * rho[2:, :]
            comm[2:, :] += rc[:, None] * rho[:-2, :]
            comm[:, 2:] -= rho[:, :-2] * rc[None, :]
            comm[:, :-2] -= rho[:, 2:] * lc[None, :]
            comm *= -1j * h
            out += comm
        if kappa != 0.0:
            out[:-1, :-1] += kappa * jump_weight * rho[1:, 1:]
            out -= (0.5 * kappa) * ksum * rho
        return out.ravel()

    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        rho0.ravel(),
        method="RK45",
        t_eval=times,
        rtol=acc.rel_tol,
        atol=acc.abs_tol,
        max_step=0.5 * p.pulse.tau,
    )
    if not sol.success:
        raise RuntimeError(f"dense Lindblad reference failed: {sol.message}")
    rhos = sol.y.T.reshape(times.size, dim, dim)
    pops = np.array([r.diagonal().real for r in rhos])
    final = rhos[-1] / np.trace(rhos[-1]).real
    return {
        "n": pops @ levels,
        "s": np.array([lc @ np.diagonal(r, offset=-2) for r in rhos]),
        "tail_mass": pops[:, -4:].sum(axis=1),
        "odd_mass": pops[:, 1::2].sum(axis=1),
        "norm_drift": float(np.max(np.abs(pops.sum(axis=1) - 1.0))),
        "final": final,
    }


def full_heisenberg(p, times, omega_d: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """n and s = <bb> of the carrier-resolved drive from the vacuum at
    times[0], from the interaction-picture Heisenberg equations

        dn/dt = -4 v Im(e^(-2i omega_b t) s)
        ds/dt = -i v e^(2i omega_b t) (4n + 2),  v = zeta cos(2 omega_d t) f(t),

    stepped by DOP853 at rel 1e-12, abs 1e-15 and a hundredth of the
    carrier period 2 pi / omega_d: no ladder, so no truncation."""
    omega_b = p.omega_b
    omega_d = omega_b if omega_d is None else omega_d
    zeta, value = p.zeta, p.pulse.value

    def rhs(t, y):
        v = zeta * math.cos(2.0 * omega_d * t) * value(t)
        ph = complex(math.cos(2.0 * omega_b * t), math.sin(2.0 * omega_b * t))
        s = complex(y[1], y[2])
        ds = -1j * v * ph * (4.0 * y[0] + 2.0)
        return [-4.0 * v * (ph.conjugate() * s).imag, ds.real, ds.imag]

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(
        rhs, (times[0], times[-1]), [0.0, 0.0, 0.0], method="DOP853", t_eval=times,
        rtol=1e-12, atol=1e-15, max_step=2.0 * math.pi / (100.0 * omega_d),
    )
    assert sol.success, sol.message
    return sol.y[0], sol.y[1] + 1j * sol.y[2]
