"""Independent numeric oracles used only by the tests.

These deliberately avoid the code paths they check: the error function
comes from its Maclaurin series summed in 60-digit decimal arithmetic,
the inverses come from plain bisection, derivatives from central
differences, and the Lindblad reference steps the full dense matrix.
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
