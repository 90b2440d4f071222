"""Truncated Fock-ladder engines that verify the moment-level results.

A quadratic drive couples |n> only to |n ± 2>, so applying the
Hamiltonian is two shifted ladder products and every right-hand side
below reduces to a handful of vectorized array operations. The cost of
a run still grows as the square of the ladder size: a ladder sized for
the state it holds is occupied up to its top, and the adaptive stepper
takes a number of steps that grows with the level count. From the
vacuum at zeta 2, 454 levels take about 0.06 s; at zeta 4, 24 480 levels
take about 85 s, which is why ``fock-check`` refuses vector ladders
above 10 000 levels. Three engines share that machinery:

* :func:`evolve_rwa` - resonant rotating-frame Schrodinger evolution,
* :func:`evolve_full` - carrier-resolving evolution with the
  counter-rotating terms kept, the package's only off-resonance run,
* :func:`evolve_lindblad` - rotating-frame density-matrix evolution with
  zero-temperature single-photon loss.

All three integrate with the same adaptive embedded Runge-Kutta pair as
the moment equations; matrix exponentials are never formed. Evolution
from the vacuum conserves parity exactly, so the odd-sector mass doubles
as a transcription check, and the top four ladder levels are watched as
a truncation alarm.

Every engine starts from the vacuum, the empty battery the pulse
charges. The density-matrix engine steps only the entries that can be
nonzero, as real numbers. Write sigma = e^(i pi n/4) rho e^(-i pi n/4),
so rho_jk = e^(-i pi (j-k)/4) sigma_jk. There the drive becomes
h [A, sigma] with A real, antisymmetric and tridiagonal on each parity
class, and both loss terms keep real, positive weights, so the
generator has real coefficients: sigma, real and symmetric at the
vacuum, stays so. Since the drive moves one index by two and loss moves
both by one, sigma also keeps the even parity of j - k. The
engine therefore stores the even diagonals of its lower triangle
(j >= k) as float64, diagonal by diagonal: about a quarter of the dim^2
entries. Only the rows the observables read are interpolated at the
sample instants. Once stepping ends the solver and the stencil are
freed, and the complex rho is built for the final state. rho couples no
even level to an odd one, so it is the direct sum of its even-level and
odd-level blocks, and :class:`FockDensity` takes the spectrum of any
such matrix from the two blocks. Before allocating, the engine compares
the bytes the run needs with the smaller of physical RAM and the
RLIMIT_AS soft limit and fails at once if they do not fit.

The lossless ladder is sized for the squeezed vacuum the pulse reaches
(:func:`choose_truncation`). With loss the state stays a zero-mean
Gaussian with a much thinner tail, and :func:`gaussian_truncation` sizes
the ladder from its exact photon distribution
(:func:`gaussian_photon_distribution`) at every sample.

numpy is bound lazily, as in :mod:`qbattery.dynamics`: importing this
module runs none of it, and :func:`choose_truncation` is pure Python, so
sizing a lossless ladder, and refusing one, needs no numpy. It loads on
the first state, engine or Gaussian sizing call; scipy loads when an
engine steps.
"""
from __future__ import annotations

import cmath
import functools
import gc
import math
import operator
import os
import resource
from dataclasses import dataclass
from pathlib import Path

from .dynamics import (
    DriveParams,
    IntegrationError,
    _lazy,
    _rk45,
    _validate_times,
    _write_table,
)
from .merit import QuadratureReport
from .specfun import Accuracy

__all__ = [
    "FOCK_ACCURACY",
    "FockDensity",
    "FockTrajectory",
    "FockVector",
    "LINDBLAD_ACCURACY",
    "TruncationError",
    "choose_truncation",
    "ergotropy",
    "evolve_full",
    "evolve_lindblad",
    "evolve_rwa",
    "gaussian_photon_distribution",
    "gaussian_truncation",
    "quadrature_variances_from_state",
]

np = _lazy("numpy")

_SQRT2 = math.sqrt(2.0)

# Same embedded pair as the moment integrator, but with a much lower
# absolute floor: a state vector spreads its norm over many small
# amplitudes, and the floor is what their norm error accumulates from.
FOCK_ACCURACY = Accuracy(abs_tol=1e-12, rel_tol=1e-10)

# The Lindblad engine's default. Its absolute floor applies to every
# stored entry of the state, and the integration noise in the lowest
# eigenvalue of the final state follows it: at zeta 2, dim 454, a 1e-12
# floor left that eigenvalue at -1.8e-10, past ergotropy's -1e-10
# rejection threshold; 1e-13 puts it at -1.7e-12 for 12% more
# right-hand-side calls.
LINDBLAD_ACCURACY = Accuracy(abs_tol=1e-13, rel_tol=1e-10)

# How many top ladder levels count as the truncation alarm zone, and the
# mass they may hold at any sample before an engine raises
# TruncationError.
_TAIL_LEVELS = 4
_TAIL_GUARD = 1e-6

# Fewest levels an engine steps.
_MIN_LEVELS = 6

# Largest pair number choose_truncation sizes a ladder for: it refuses
# a squeezed vacuum that needs more than 2 * 10^7 + 6 levels.
_TRUNCATION_TERMS = 10_000_000

# Convergence threshold of _pair_tail's continued fraction, and the floor
# that keeps its modified-Lentz recurrence off zero divisors.
_LENTZ_EPS = math.ulp(1.0)
_LENTZ_TINY = 1e-300

# e^(-i pi d/4) = (-i)^(d/2) for even d = 0, 2, 4, 6 (mod 8), exact, so
# that turning sigma back into rho leaves every stored entry unrounded.
_QUARTER_TURNS = (1.0 + 0j, -1j, -1.0 + 0j, 1j)

# Arrays the size of the stored Lindblad state that can be alive at once
# besides the stencil, the observed rows and one step's interpolated rows.
# While the stencil is built: the initial state, the entry coordinates,
# one neighbour's index, weight and mask arrays, and the intp columns
# with their int32 copy. While RK45 steps: its seven stages, y, y_old and
# f, a stage's increment and trial state, the error-norm temporaries and
# the right-hand side's temporaries; the dense output takes the stages of
# the observed rows alone. tracemalloc peaks at dims 60-454 on the
# 57-point fock-check grid, at zeta 1 and 2, less those named above, came
# to 8.0-16.5 copies while stepping and at most 13.3 while the stencil is
# built; the rest is headroom for other numpy and scipy versions, and the
# tests hold the bound against the measured peaks.
_WORK_COPIES = 20

# The stencil: the drive's four weights per entry, their int32 column
# indices and row pointers, the jump weights and the damping rates.
_STENCIL_COPIES = 9

# Rows per block of FockDensity's Hermiticity check, which holds three
# temporaries the size of one block.
_HERMITICITY_ROWS = 32


class TruncationError(RuntimeError):
    """The state leaked into the top ladder levels; enlarge the space."""


@dataclass(frozen=True)
class FockVector:
    """Pure state on the truncated ladder |0> .. |dim-1>; ``amp`` is a
    read-only copy of the amplitudes it was given."""

    amp: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amp, dtype=complex)
        amp.flags.writeable = False
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError("amp must be a nonempty 1-D complex array")
        object.__setattr__(self, "amp", amp)
        err = self.norm_error
        if not abs(err) <= 1e-10:  # NaN fails too
            raise ValueError(f"state norm deviates from 1 by {err:.3e}")

    @property
    def dim(self) -> int:
        return int(self.amp.size)

    @property
    def norm_error(self) -> float:
        return float(np.sum(np.abs(self.amp) ** 2) - 1.0)

    def tail_mass(self, levels: int = _TAIL_LEVELS) -> float:
        return float(np.sum(np.abs(self.amp[-levels:]) ** 2))

    def odd_mass(self) -> float:
        return float(np.sum(np.abs(self.amp[1::2]) ** 2))

    def mean_population(self) -> float:
        return float(np.arange(self.dim) @ (np.abs(self.amp) ** 2))

    def to_density(self) -> "FockDensity":
        return FockDensity(np.outer(self.amp, np.conj(self.amp)))


@dataclass(frozen=True)
class FockDensity:
    """Density matrix on the truncated ladder (Hermitian, unit trace).

    Positivity is monitored rather than enforced: construction checks
    trace and Hermiticity, :func:`ergotropy` rejects spectra below the
    -1e-10 tolerance. The spectrum is computed once, on first use of
    :attr:`eigenvalues`, and shared by every reader; ``matrix`` is a
    read-only copy, so the cached spectrum cannot go stale.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self._check(np.array(self.matrix, dtype=complex, order="C"))

    @classmethod
    def _adopt(cls, matrix: np.ndarray) -> "FockDensity":
        """The density on ``matrix``, a fresh C-ordered complex array that
        the caller gives up, checked as the constructor checks it but not
        copied."""
        rho = cls.__new__(cls)
        rho._check(matrix)
        return rho

    def _check(self, m: np.ndarray) -> None:
        """Freeze ``m`` as the matrix; check its shape, trace and Hermiticity."""
        m.flags.writeable = False
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "matrix", m)
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError(f"trace deviates from 1 by {tr - 1.0:.3e}")
        # a block of rows at a time, so that the conjugate transpose, the
        # difference and its modulus stay far smaller than the matrix
        k = _HERMITICITY_ROWS
        blocks = (m[i : i + k] - m[:, i : i + k].conj().T for i in range(0, m.shape[0], k))
        herm = float(np.max([np.max(np.abs(block)) for block in blocks]))
        if not herm <= 1e-12:
            raise ValueError(f"Hermiticity residual {herm:.3e} exceeds 1e-12")

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def populations(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order (read-only).

        A matrix with no entry between an even and an odd level, as every
        state the pair drive and loss reach from the vacuum, is the direct
        sum of its even-level and odd-level blocks, so its spectrum is
        theirs: two calls on a quarter of the entries each instead of one
        on the whole matrix.
        """
        m = self.matrix
        if self.dim > 1 and not (np.any(m[1::2, ::2]) or np.any(m[::2, 1::2])):
            blocks = [np.linalg.eigvalsh(m[first::2, first::2]) for first in (0, 1)]
            lam = np.sort(np.concatenate(blocks))
        else:
            lam = np.linalg.eigvalsh(m)
        lam.flags.writeable = False
        return lam

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def mean_population(self) -> float:
        return float(np.arange(self.dim) @ self.populations())


def _pair_tail(m: int, r: float) -> float:
    """Mass of a squeezed vacuum (squeeze parameter r) in levels 2m and up.

    Its pair number is negative binomial, NB(1/2, x) with x = tanh^2 r,
    so the mass is the regularized incomplete beta I_x(m, 1/2): the
    continued fraction of Numerical Recipes (3rd ed., sec. 6.4) by
    modified Lentz, and 1 - I_(1-x)(1/2, m) once x >= (m + 1)/(m + 2.5).
    """
    x = math.tanh(r) ** 2
    log_y = 2.0 * (math.log(2.0) - r - math.log1p(math.exp(-2.0 * r)))  # 1 - x = cosh^-2 r
    swap = x >= (m + 1) / (m + 2.5)
    a, b, z = (0.5, m, math.exp(log_y)) if swap else (m, 0.5, x)
    c, d = 1.0, 1.0 - (a + b) * z / (a + 1.0)
    h = d = 1.0 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
    for k in range(1, 10_000):
        for aa in (
            k * (b - k) * z / ((a + 2 * k - 1) * (a + 2 * k)),
            -(a + k) * (a + b + k) * z / ((a + 2 * k) * (a + 2 * k + 1)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _LENTZ_TINY else _LENTZ_TINY
            h *= d * c
        if abs(d * c - 1.0) <= _LENTZ_EPS:
            break
    # x^m stays outside the log, so that x = 0 gives a zero tail
    log_bt = math.lgamma(m + 0.5) - math.lgamma(m) - math.lgamma(0.5) + 0.5 * log_y
    frac = x**m * math.exp(log_bt) * h / a
    return 1.0 - frac if swap else frac


def choose_truncation(r: float, tail_tol: float) -> int:
    """Ladder size that holds a squeezed vacuum of squeeze parameter r.

    Returns the smallest even size whose top four levels, together with
    all the levels it leaves out, hold less than ``tail_tol`` of the mass
    of that state (mean population sinh^2 r). A pulse of drive strength
    zeta reaches at most r = zeta from the vacuum, which ``fock-check``
    sizes the lossless engine for; with loss it sizes the Lindblad
    engine by :func:`gaussian_truncation` instead. The tail is exact (a
    regularized incomplete beta), and the size is found by bisection
    over whole pairs; :class:`RuntimeError` is raised at once when even
    2 * 10^7 + 2 levels leave ``tail_tol`` or more beyond them.
    """
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"r must be nonnegative and finite, got {r!r}")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    lo, hi = 0, _TRUNCATION_TERMS + 1
    beyond = _pair_tail(hi, r)
    if beyond >= tail_tol:
        raise RuntimeError(
            f"truncation search did not converge: {beyond:.2e} of the squeezed-vacuum "
            f"mass (r = {r:g}) lies beyond {2 * hi} levels, above tail_tol {tail_tol:g}"
        )
    # tail(lo) >= tail_tol > tail(hi), and the tail falls with m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _pair_tail(mid, r) < tail_tol else (mid, hi)
    return 2 * hi + _TAIL_LEVELS


def _gaussian_terms(n, s):
    """P(0), P(1), ... of the zero-mean Gaussian states with <b†b> = n
    and <bb> = s (broadcast together), one array per level, endlessly."""
    n = np.asarray(n, dtype=float)
    s_abs = np.abs(np.asarray(s, dtype=complex))
    n, s_abs = np.broadcast_arrays(n, s_abs)
    # the generating function needs 1 + W± > 0; n itself is not checked
    # for sign, since integrated moments can come out at -1e-16 or so
    if not np.all(np.isfinite(n) & np.isfinite(s_abs) & (s_abs < n + 1.0)):
        raise ValueError("need finite n and s with |s| < n + 1 at every sample")
    w_plus, w_minus = n + s_abs, n - s_abs
    alpha, beta = w_plus / (1.0 + w_plus), w_minus / (1.0 + w_minus)
    total, product = alpha + beta, alpha * beta
    prev, cur = np.zeros_like(n), 1.0 / np.sqrt((1.0 + w_plus) * (1.0 + w_minus))
    m = 0
    while True:
        yield cur
        prev, cur = cur, (total * (m + 0.5) * cur - product * m * prev) / (m + 1)
        m += 1


def gaussian_photon_distribution(n, s, levels: int) -> np.ndarray:
    """Photon-number probabilities P(0) .. P(levels - 1) of the zero-mean
    Gaussian state with <b†b> = n and pair correlator <bb> = s.

    ``n`` and ``s`` broadcast together, one state per sample, and the
    result has shape (levels, *samples). With loss the state the pulse
    reaches from the vacuum stays such a Gaussian. Its principal
    quadratures have excess variances W± = n ± |s|, so its generating
    function is [(1 + (1 - z) W+)(1 + (1 - z) W-)]^(-1/2) (Loudon &
    Knight, J. Mod. Opt. 34, 709 (1987), for the pure case). With
    a = W+/(1 + W+) and b = W-/(1 + W-) that gives
    P(0) = [(1 + W+)(1 + W-)]^(-1/2) and the recurrence
    (m + 1) P(m + 1) = (a + b)(m + 1/2) P(m) - a b m P(m - 1). For a
    squeezed vacuum, b = -a = -tanh r and the pair number is the
    negative binomial NB(1/2, tanh^2 r) that :func:`choose_truncation`
    sums.
    """
    levels = operator.index(levels)
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels!r}")
    terms = _gaussian_terms(n, s)
    return np.array([next(terms) for _ in range(levels)])


def gaussian_truncation(n, s, tail_tol: float, max_levels: int) -> int | None:
    """Ladder size that holds the zero-mean Gaussian states (n, s) of
    :func:`gaussian_photon_distribution` at every sample.

    Returns the smallest size, at least 6, whose top four levels, together
    with all the levels it leaves out, hold less than ``tail_tol`` of the
    mass of every state, or None when no size up to ``max_levels`` does.
    The search steps one level at a time and stops at ``max_levels``. A
    ``tail_tol`` below the rounding of 1 - sum P(m) is never met: once two
    levels in a row leave the summed mass of every sample unchanged,
    :class:`ValueError` names ``tail_tol`` and the remainder it stalled
    at. For a squeezed vacuum, whose odd levels are empty, the size is
    one level less than the whole pairs :func:`choose_truncation` sizes in.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    held = 0.0  # the mass of the levels below ``level``
    stalled = 0  # levels in a row that left ``held`` unchanged
    for level, prob in enumerate(_gaussian_terms(n, s)):
        size = max(level + _TAIL_LEVELS, _MIN_LEVELS)
        if size > max_levels:
            return None
        if np.all(1.0 - held < tail_tol):
            return size
        total = held + prob
        stalled = stalled + 1 if np.all(total == held) else 0
        if stalled == 2:
            raise ValueError(
                f"tail_tol {tail_tol:g} is below the rounding of 1 - sum P(m), which "
                f"stalls at {np.max(1.0 - held):.2e} by level {level}"
            )
        held = total


def _pair_coeffs(dim: int) -> np.ndarray:
    """Matrix elements of the pair ladder operators on ``dim`` levels:

    c[n] = <n| b b |n+2> = <n+2| b† b† |n> = sqrt((n+1)(n+2)), n < dim - 2.
    """
    n = np.arange(dim - 2, dtype=float)
    return np.sqrt((n + 1.0) * (n + 2.0))


@dataclass(frozen=True)
class FockTrajectory:
    """Expectation values sampled along a Fock-space evolution.

    ``s`` is the rotating-frame pair correlator <bb>; ``var_x_min`` is
    the theta-minimized X-quadrature variance 1/2 + n - |s|;
    ``norm_drift`` is the worst deviation of the norm (or trace) from 1
    over the run. ``final_state`` is renormalized on wrapping so it is a
    valid state object; the raw drift stays visible in ``norm_drift``.
    """

    times: np.ndarray
    n: np.ndarray
    s: np.ndarray
    var_x_min: np.ndarray
    tail_mass: np.ndarray
    odd_mass: np.ndarray
    norm_drift: float
    final_state: FockVector | FockDensity

    def table(self) -> tuple[list[str], list[list[float]]]:
        """Columns t, n, re_s, im_s, var_x_min and tail_mass, and one
        row (a fresh list, for callers to extend) per sample."""
        columns = ["t", "n", "re_s", "im_s", "var_x_min", "tail_mass"]
        arrays = (self.times, self.n, self.s.real, self.s.imag, self.var_x_min, self.tail_mass)
        return columns, [list(row) for row in zip(*(a.tolist() for a in arrays))]

    def write_csv(self, path: str | Path, ergotropy_ratio: float | None = None) -> None:
        """:meth:`table` and, when given, a constant ergotropy_ratio column."""
        columns, rows = self.table()
        if ergotropy_ratio is not None:
            columns.append("ergotropy_ratio")
            for row in rows:
                row.append(ergotropy_ratio)
        _write_table(columns, rows, Path(path))


def _trajectory(times: np.ndarray, pops: np.ndarray, s: np.ndarray, final_state) -> FockTrajectory:
    """The sampled observables of an evolution, from the level
    populations ``pops`` (levels x samples) and the pair correlator ``s``.

    Raises :class:`TruncationError` if the tail mass ever exceeds the
    1e-6 guard. Only then is ``final_state(norms)`` called, with the
    norm (or trace) at every sample, to build the final state.
    """
    dim = pops.shape[0]
    tail = pops[dim - _TAIL_LEVELS:].sum(axis=0)
    worst_tail = float(tail.max())
    if worst_tail > _TAIL_GUARD:
        raise TruncationError(
            f"tail mass reached {worst_tail:.3e} (guard {_TAIL_GUARD:.1e}); "
            f"increase the Fock dimension beyond {dim}"
        )
    n = np.arange(dim) @ pops
    norms = pops.sum(axis=0)
    return FockTrajectory(
        times=times,
        n=n,
        s=s,
        var_x_min=0.5 + n - np.abs(s),
        tail_mass=tail,
        odd_mass=pops[1::2].sum(axis=0),
        norm_drift=float(np.max(np.abs(norms - 1.0))),
        final_state=final_state(norms),
    )


def _check_run(dim: int, times) -> tuple[int, np.ndarray]:
    """An engine's ladder size, at least 6 levels, and its sample grid,
    at least two instants."""
    levels = operator.index(dim)
    if levels < _MIN_LEVELS:
        raise ValueError(f"the Fock dimension must be at least {_MIN_LEVELS}, got {dim!r}")
    return levels, _validate_times(times, 2)


def _evolve_vacuum(
    rhs,
    dim: int,
    times: np.ndarray,
    acc: Accuracy | None,
    max_step: float,
    label: str,
) -> FockTrajectory:
    """Step the state vector |0> on ``dim`` levels with ``rhs`` and
    sample the observables on ``times``; ``label`` opens the message of
    the :class:`IntegrationError` raised if the solver gives up."""
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    if acc is None:
        acc = FOCK_ACCURACY
    Y = _rk45(rhs, (times[0], times[-1]), psi0, acc, max_step, label, times).y
    s = (_pair_coeffs(dim)[:, None] * np.conj(Y[:-2]) * Y[2:]).sum(axis=0)
    return _trajectory(
        times, np.abs(Y) ** 2, s, lambda norms: FockVector(Y[:, -1] / math.sqrt(norms[-1]))
    )


def evolve_rwa(p: DriveParams, dim: int, times, acc: Accuracy | None = None) -> FockTrajectory:
    """Evolve |0> under the resonant rotating-frame generator
    (zeta/2) f(t) (b†b† + bb) and sample expectation values on ``times``.

    Start the grid at t <= -8 tau so the vacuum boundary condition holds.
    Raises :class:`TruncationError` if the mass in the top four levels
    ever exceeds 1e-6.
    """
    dim, times = _check_run(dim, times)

    pair = _pair_coeffs(dim)
    half_zeta = 0.5 * p.zeta
    value = p.pulse.value

    def rhs(t, psi):
        h = half_zeta * value(t)
        out = np.empty_like(psi)
        out[:-2] = pair * psi[2:]
        out[-2:] = 0.0
        out[2:] += pair * psi[:-2]
        out *= -1j * h
        return out

    return _evolve_vacuum(rhs, dim, times, acc, 0.5 * p.pulse.tau, "rotating-frame evolution failed")


def evolve_full(
    p: DriveParams,
    dim: int,
    times,
    acc: Accuracy | None = None,
    *,
    omega_d: float | None = None,
) -> FockTrajectory:
    """Evolve |0> under the full carrier-resolved Hamiltonian
    omega_b b†b + zeta cos(2 omega_d t) f(t) (b†b† + bb), the package's
    only off-resonance run; ``omega_d`` defaults to ``p.omega_b``.

    Integrates in the interaction picture of the bare ladder, which is
    exact (nothing is dropped) but leaves only the carrier phases

        i da/dt = zeta cos(2 omega_d t) f(t)
                  [e^(2 i omega_b t) b†b† + e^(-2 i omega_b t) bb] a

    to resolve, so the step size is capped at 2 pi / (40 omega_d), a
    twentieth of the period pi / omega_d of cos(2 omega_d t). The cap
    buys accuracy: at zeta 1, 454 levels, 15 samples on [-8, 6] tau,
    dropping it cuts the right-hand-side calls from 33 590 to 23 462 at
    omega_b tau 50 and from 117 860 to 71 804 at 200, but the worst
    error in n against an abs/rel 1e-14/1e-13 run on 200 levels grows
    from 5.9e-10 to 2.5e-9 and from 5.1e-10 to 1.9e-8. The
    reported n and s live in the same rotating frame as
    :func:`evolve_rwa` and, on resonance, converge to it as omega_b tau grows.
    """
    omega_d = float(p.omega_b) if omega_d is None else omega_d
    if not (math.isfinite(omega_d) and omega_d > 0.0):
        raise ValueError(f"omega_d must be positive and finite, got {omega_d!r}")
    dim, times = _check_run(dim, times)

    pair = _pair_coeffs(dim)
    zeta = p.zeta
    omega_b = p.omega_b
    value = p.pulse.value

    def rhs(t, psi):
        v = zeta * math.cos(2.0 * omega_d * t) * value(t)
        ph = cmath.exp(2j * omega_b * t)
        out = np.empty_like(psi)
        out[:-2] = pair * psi[2:]
        out[-2:] = 0.0
        out *= ph.conjugate()
        out[2:] += ph * (pair * psi[:-2])
        out *= -1j * v
        return out

    max_step = min(0.5 * p.pulse.tau, 2.0 * math.pi / (40.0 * omega_d))
    return _evolve_vacuum(rhs, dim, times, acc, max_step, "carrier-resolved evolution failed")


def _lindblad_bytes(dim: int, entries: int, samples: int, per_step: int) -> int:
    """Upper bound on the bytes :func:`evolve_lindblad` holds at once for
    ``entries`` stored float64 numbers on ``dim`` levels, sampled at
    ``samples`` instants of which one step interpolates at most
    ``per_step``.

    While RK45 steps: the work arrays and the stencil; one step's
    interpolated rows (the 2 dim - 2 observed per sample) twice, the
    dense-output product and its scaled copy; and the observed rows of
    every sample twice, since ``solve_ivp`` keeps one block per step and stacks them
    when the run ends. No full-state sample is ever interpolated. The
    phase after the run, once the solver and the stencil are freed, holds
    the observed rows, the solver's last state and complex dim^2 arrays
    (rho, the temporaries of its Hermiticity check and ``eigvalsh``'s
    copy of a parity block); since ``entries`` >= dim^2 / 4, it fits in
    this bound unless it needs more than about 3.5 such arrays, and about
    2 were measured.
    """
    observed = 2 * dim - 2
    rows = 8 * observed * samples
    return 8 * entries * (_WORK_COPIES + _STENCIL_COPIES) + 16 * observed * per_step + 2 * rows


def _samples_per_step(times: np.ndarray, max_step: float) -> int:
    """The most instants of ``times`` a step of at most ``max_step`` can
    interpolate: those in any closed window of that length."""
    ends = np.searchsorted(times, times + max_step, side="right")
    return int(np.max(ends - np.arange(times.size)))


def _memory_budget() -> int:
    """Bytes this process can allocate: physical RAM, or the RLIMIT_AS
    soft limit when that is finite and smaller."""
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return ram if soft == resource.RLIM_INFINITY else min(ram, soft)


def _lindblad_stencil(dim: int, kappa: float):
    """The right-hand side on the stored entries, built once.

    Returns the drive as a sparse matrix G, with row i holding the flat
    indices and weights of the four neighbours (J + 2, K), (J - 2, K),
    (J, K - 2) and (J, K + 2) of stored entry i = (J, K) under [A, .];
    the loss weights of the jump sources (J + 1, K + 1), each the next
    stored entry of its diagonal; and the damping rates. A neighbour
    above the diagonal is read from its mirror image, since sigma is
    symmetric; a neighbour off the ladder has weight 0. The right-hand
    side is then damp * y + h * (G @ y) + jump * y[i + 1].

    The (entries, 4) blocks G is made of are written directly: the
    weights as float64, which G adopts uncopied, and the columns as intp,
    which G keeps as an int32 copy. The intp block is freed on return,
    before RK45 steps, and on glibc that matters: freeing a block that
    large raises malloc's mmap and trim thresholds above the size of the
    state, which keeps the solver's state-sized temporaries on the heap.
    Built in int32 directly, at dim 454, every such temporary came back
    from the kernel: 930 000 page faults doubled the stepping time.
    """
    from scipy.sparse import csr_matrix

    diagonals = np.arange(0, dim, 2)
    lengths = dim - diagonals
    first = np.cumsum(lengths) - lengths  # flat index of sigma[d, 0]
    entries = int(lengths.sum())
    cols = np.zeros((entries, 4), dtype=np.intp)
    weights = np.zeros((entries, 4))
    k = np.arange(entries) - np.repeat(first, lengths)
    j = k + np.repeat(diagonals, lengths)
    for col, (a, b, coeff) in enumerate(_drive_neighbours(j, k)):
        lo = np.minimum(a, b)
        off = np.abs(a - b)
        ok = (lo >= 0) & (lo + off < dim)
        cols[ok, col] = first[off[ok] // 2] + lo[ok]
        weights[ok, col] = coeff[ok]
    jump = np.where(j + 1 < dim, kappa * np.sqrt((j + 1.0) * (k + 1.0)), 0.0)
    damp = -0.5 * kappa * (j + k)
    drive = csr_matrix(
        (weights.reshape(-1), cols.reshape(-1), np.arange(0, 4 * entries + 1, 4)),
        shape=(entries, entries),
        copy=False,
    )
    return drive, jump[:-1], damp


def _drive_neighbours(j: np.ndarray, k: np.ndarray):
    """The neighbours (J + 2, K), (J - 2, K), (J, K - 2), (J, K + 2) of
    the entries (J, K) under [A, .], with their weights, one at a time."""
    yield j + 2, k, -np.sqrt((j + 1.0) * (j + 2.0))
    yield j - 2, k, np.sqrt(j * (j - 1.0))
    yield j, k - 2, np.sqrt(k * (k - 1.0))
    yield j, k + 2, -np.sqrt((k + 1.0) * (k + 2.0))


def evolve_lindblad(
    p: DriveParams, kappa: float, dim: int, times, acc: Accuracy | None = None
) -> FockTrajectory:
    """Evolve the vacuum's density matrix under the rotating-frame
    generator plus the zero-temperature loss dissipator
    kappa (b rho b† - {b†b, rho}/2).

    Trace drift is reported in ``norm_drift``, and
    :class:`TruncationError` is raised as by :func:`evolve_rwa`.
    Positivity is monitored, not enforced: integration noise puts the
    lowest eigenvalue of the final state slightly below zero, so the
    rejection threshold scales with the relative tolerance,
    max(1e-8, 100 rel_tol), and :class:`IntegrationError` is raised below
    it. ``acc`` defaults to :data:`LINDBLAD_ACCURACY`.

    The state is stepped as sigma = e^(i pi n/4) rho e^(-i pi n/4), which
    stays real and symmetric and keeps the even parity of j - k. Only the
    even diagonals of its lower triangle are stored, as float64:
    ceil(dim/2) (floor(dim/2) + 1) numbers, none stepped in complex
    arithmetic. The right-hand side is one gather stencil built once
    (:func:`_lindblad_stencil`). Each step's interpolant is evaluated on
    the populations and the d = 2 diagonal alone, and the solver's last
    state is kept whole. The solver and the stencil are freed before the
    full complex rho is built for ``final_state``, normalized to unit
    trace and handed to :class:`FockDensity` uncopied. rho couples no
    even level to an odd one, so :attr:`FockDensity.eigenvalues` takes its
    spectrum from the two parity blocks.

    Before anything of size dim^2 or of the stored size is allocated,
    the bytes the stepping needs (:func:`_lindblad_bytes`), which also
    cover the smaller final phase, are compared with what the process
    can allocate, the smaller of physical RAM and a finite RLIMIT_AS
    soft limit; a run that cannot fit raises :class:`MemoryError` naming
    both byte counts.
    """
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise ValueError(f"kappa must be nonnegative and finite, got {kappa!r}")
    dim, times = _check_run(dim, times)
    if acc is None:
        acc = LINDBLAD_ACCURACY

    # the even diagonals d = 0, 2, ... hold dim - d entries each
    entries = (dim + 1) // 2 * (dim // 2 + 1)
    max_step = 0.5 * p.pulse.tau
    per_step = _samples_per_step(times, max_step)
    need = _lindblad_bytes(dim, entries, times.size, per_step)
    budget = _memory_budget()
    if need > budget:
        raise MemoryError(
            f"the Lindblad run at dim {dim} with {times.size} samples needs about "
            f"{need} bytes, more than the {budget} bytes this process can allocate "
            "(physical RAM or the RLIMIT_AS soft limit); lower the Fock dimension "
            "or the number of samples"
        )

    y0 = np.zeros(entries)
    y0[0] = 1.0
    drive, jump, damp = _lindblad_stencil(dim, kappa)
    half_zeta = 0.5 * p.zeta
    value = p.pulse.value

    def rhs(t, y):
        out = damp * y
        h = half_zeta * value(t)
        if h != 0.0:
            flow = drive @ y
            flow *= h
            out += flow
        if kappa != 0.0:
            out[:-1] += jump * y[1:]
        return out

    # the rows the trajectory reads are the first two diagonals: the
    # populations (d = 0) and the pair coherences (d = 2)
    span = (times[0], times[-1])
    label = "lossy evolution failed"
    sol = _rk45(rhs, span, y0, acc, max_step, label, times, np.arange(2 * dim - 2))
    y, last = sol.y, sol.y_end
    # scipy's solver holds its work arrays, and through rhs the stencil, in
    # a reference cycle; free them before the final state is built on top
    del sol, rhs, drive, jump, damp, y0
    gc.collect()

    pops, pairs = y[:dim], y[dim:]
    # <bb> = sum_j c[j] rho[j+2, j], and rho[j+2, j] = -i sigma[j+2, j]
    s = -1j * (_pair_coeffs(dim) @ pairs)

    def final_state(_traces) -> FockDensity:
        final = np.zeros((dim, dim), dtype=complex)
        flat = final.reshape(-1)
        start = 0
        for d in range(0, dim, 2):
            # rho[k + d, k] below the diagonal, its conjugate above
            below = flat[d * dim :: dim + 1][: dim - d]
            below.real = last[start : start + dim - d]
            below *= _QUARTER_TURNS[d // 2 % 4]
            if d:
                flat[d :: dim + 1][: dim - d] = below.conj()
            start += dim - d
        final /= np.trace(final).real
        rho = FockDensity._adopt(final)
        min_eig = rho.min_eigenvalue()
        if min_eig < -max(1e-8, 100.0 * acc.rel_tol):
            raise IntegrationError(
                f"final state lost positivity (min eigenvalue {min_eig:.3e}); "
                "tighten the accuracy or enlarge the ladder"
            )
        return rho

    return _trajectory(times, pops, s, final_state)


def ergotropy(state: FockDensity | FockVector, omega_b: float) -> float:
    """Maximum work extractable by unitaries on the ladder Hamiltonian:

    omega_b [Tr(rho n) - sum_k lambda_k(desc) * k],

    i.e. mean energy minus the passive-state energy obtained by pairing
    the eigenvalues of rho, sorted descending, with the levels sorted
    ascending. Never exceeds the stored energy. The passive state of a
    pure state is the ground state (Allahverdyan, Balian & Nieuwenhuizen,
    EPL 67, 565 (2004)), so a :class:`FockVector` gets its full mean
    energy without forming a density matrix.
    """
    if isinstance(state, FockVector):
        return omega_b * state.mean_population()
    if not isinstance(state, FockDensity):
        raise TypeError("ergotropy expects a FockDensity or a FockVector")
    lam = state.eigenvalues
    if lam[0] < -1e-10:
        raise ValueError(
            f"density matrix is not positive semidefinite (min eigenvalue {lam[0]:.3e})"
        )
    levels = np.arange(state.dim, dtype=float)
    energy = float(state.populations() @ levels)
    passive = float(lam[::-1] @ levels)
    return omega_b * (energy - passive)


def quadrature_variances_from_state(
    state: FockVector, theta: float, omega_b: float = 0.0, t: float = 0.0
) -> QuadratureReport:
    """Quadrature variances read mechanically off a Fock state.

    The amplitudes are rotated into the lab frame, the twisted
    quadratures X = (e^(i theta/2) b† + e^(-i theta/2) b) / sqrt(2) and
    its conjugate partner are applied ladder by ladder, and the
    variances follow from <X> = <psi|X psi> and <X^2> = |X psi|^2. Fully
    independent of the closed-form moment expressions.
    """
    dim = state.dim
    # psi on levels -1 .. dim + 1, zero off the ladder, so that b† psi
    # and b psi are one product each on levels 0 .. dim (nothing spills)
    pad = np.zeros(dim + 3, dtype=complex)
    pad[1 : dim + 1] = state.amp * np.exp(-1j * omega_b * t * np.arange(dim))
    root = np.sqrt(np.arange(dim + 2, dtype=float))
    up = root[:-1] * pad[:-2]
    down = root[1:] * pad[2:]
    amp_ext = pad[1:-1]

    cu = cmath.exp(1j * 0.5 * theta) / _SQRT2
    x_amp = cu * up + cu.conjugate() * down
    p_amp = 1j * (cu * up) - 1j * (cu.conjugate() * down)

    def _variance(op_amp: np.ndarray) -> float:
        mean = float(np.vdot(amp_ext, op_amp).real)
        second = float(np.vdot(op_amp, op_amp).real)
        return second - mean * mean

    var_x = _variance(x_amp)
    var_p = _variance(p_amp)
    return QuadratureReport(theta=theta, var_x=var_x, var_p=var_p)
