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
  counter-rotating terms kept (any detuning),
* :func:`evolve_lindblad` - rotating-frame density-matrix evolution with
  zero-temperature single-photon loss.

All three integrate with the same adaptive embedded Runge-Kutta pair as
the moment equations; matrix exponentials are never formed. Evolution
from the vacuum conserves parity exactly, so the odd-sector mass doubles
as a transcription check, and the top four ladder levels are watched as
a truncation alarm.

The density-matrix engine steps only the entries that can be nonzero,
as real numbers. Write sigma = e^(i pi n/4) rho e^(-i pi n/4), so
rho_jk = e^(-i pi (j-k)/4) sigma_jk. There the drive becomes
h [A, sigma] with A real, antisymmetric and tridiagonal on each parity
class, and both loss terms keep real, positive weights, so the
generator has real coefficients. sigma is Hermitian; its symmetric real
part S and antisymmetric imaginary part T therefore evolve apart, and
since the drive moves one index by two and loss moves both by one, each
keeps the parity of j - k. The engine stores the lower triangles (j >= k
for S, j > k for T) as float64, diagonal by diagonal, one class per
(part, parity) that is nonzero at the start; a class that starts at
zero stays exactly zero. From the vacuum that is the even diagonals of
S alone, about a quarter of the dim^2 entries, and any state takes at
most dim^2 reals. Only the rows the observables read are interpolated
at the sample instants. Once stepping ends the solver and the stencil
are freed, and the complex rho is built for the final state; its
spectrum, which sigma shares, comes from sigma's two blocks of even and
of odd levels whenever only even diagonals are stored. Before
allocating, the engine compares the bytes the run needs with the
smaller of physical RAM and the RLIMIT_AS soft limit and fails at once
if they do not fit.

numpy is bound lazily, as in :mod:`qbattery.dynamics`: importing this
module runs none of it, and :func:`choose_truncation` is pure Python, so
sizing a ladder, and refusing one, needs no numpy. It loads on the first
state or engine call; scipy loads when an engine steps.
"""
from __future__ import annotations

import cmath
import functools
import gc
import math
import os
import resource
from dataclasses import dataclass
from pathlib import Path

from .dynamics import (
    DriveParams,
    IntegrationError,
    _csv_text,
    _lazy,
    _rk45,
    require_resonant,
)
from .merit import QuadratureReport
from .pulses import DeltaLimit, UnsupportedPulseError
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

# How many top ladder levels count as the truncation alarm zone.
_TAIL_LEVELS = 4

# Largest pair number choose_truncation sizes a ladder for: it refuses
# a squeezed vacuum that needs more than 2 * 10^7 + 6 levels.
_TRUNCATION_TERMS = 10_000_000

# Convergence threshold of _pair_tail's continued fraction, and the floor
# that keeps its modified-Lentz recurrence off zero divisors.
_LENTZ_EPS = math.ulp(1.0)
_LENTZ_TINY = 1e-300

# e^(i pi m / 4) for m = 0..7, exact at the multiples of pi/2 so that the
# frame rotation leaves populations and the even diagonals unrounded.
_C8 = math.sqrt(0.5)
_EIGHTH_TURNS = (
    1.0 + 0j, _C8 + _C8 * 1j, 1j, -_C8 + _C8 * 1j,
    -1.0 + 0j, -_C8 - _C8 * 1j, -1j, _C8 - _C8 * 1j,
)

# The two parts of the rotated Lindblad state: S = Re sigma, T = Im sigma.
_S, _T = 0, 1

# Arrays the size of the stored Lindblad state that can be alive at once
# besides the stencil, the observed rows and one step's interpolated rows.
# While the stencil is built: the initial state, the entry coordinates,
# one neighbour's index, weight and mask arrays, and the intp columns
# with their int32 copy. While RK45 steps: its seven stages, y, y_old and
# f, a stage's increment and trial state, the error-norm temporaries and
# the right-hand side's temporaries; the dense output takes the stages of
# the observed rows alone. tracemalloc peaks at dims 60-454 on the
# 57-point fock-check grid, from the vacuum and from a complex state,
# less those named above, came to 9.2-16.5 copies while stepping and at
# most 13.7 while the stencil is built; the rest is headroom for other
# numpy and scipy versions, and the tests hold the bound against the
# measured peaks.
_WORK_COPIES = 20

# The stencil: the drive's four weights per entry, their int32 column
# indices and row pointers, the jump weights and the damping rates.
_STENCIL_COPIES = 9

# Rows per block of FockDensity's Hermiticity check, which holds three
# temporaries the size of one block.
_HERMITICITY_ROWS = 32

# Arrays of dim^2 complex numbers alive at once after the run, once the
# solver and the stencil are freed: rho with the row blocks of its
# Hermiticity check, then rho and eigvalsh's copy of it, which numpy
# allocates where tracemalloc does not look. From the vacuum eigvalsh
# sees two parity blocks of a quarter of the entries, real, instead.
# tracemalloc measured 1.2-1.5 at dims 200-454 from the vacuum, and
# 1.4-1.7 at dims 200-300 from a complex state before eigvalsh's copy;
# the Hermiticity blocks shrink against the matrix as dim grows.
_FINAL_COPIES = 2


class TruncationError(RuntimeError):
    """The state leaked into the top ladder levels; enlarge the space."""


@dataclass(frozen=True)
class FockVector:
    """Pure state on the truncated ladder |0> .. |dim-1>."""

    amp: np.ndarray

    def __post_init__(self) -> None:
        amp = np.ascontiguousarray(self.amp, dtype=complex)
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
    def _adopt(cls, matrix: np.ndarray, eigenvalues: np.ndarray | None = None) -> "FockDensity":
        """The density on ``matrix``, a fresh C-ordered complex array that
        the caller gives up, checked as the constructor checks it but not
        copied; ``eigenvalues``, when given, is its spectrum in ascending
        order and seeds :attr:`eigenvalues`."""
        rho = cls.__new__(cls)
        rho._check(matrix)
        if eigenvalues is not None:
            eigenvalues.flags.writeable = False
            rho.__dict__["eigenvalues"] = eigenvalues
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
        """Eigenvalues in ascending order (read-only)."""
        lam = np.linalg.eigvalsh(self.matrix)
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


def choose_truncation(zeta: float, tail_tol: float) -> int:
    """Ladder size that holds a squeezed vacuum of squeeze parameter 2 zeta.

    Returns the smallest size whose top four levels, together with all
    the levels it leaves out, hold less than ``tail_tol`` of the mass of
    a squeezed vacuum with r = 2 zeta. A unit-area pulse of drive strength zeta
    reaches at most r = zeta from the vacuum, so a caller sizing for the
    state the pulse produces passes ``0.5 * zeta``, as ``fock-check``
    does. The tail is exact (a regularized incomplete beta), and the
    size is found by bisection; :class:`RuntimeError` is raised at once
    when even 2 * 10^7 + 2 levels leave ``tail_tol`` or more beyond them.
    """
    if not (math.isfinite(zeta) and zeta >= 0.0):
        raise ValueError(f"zeta must be nonnegative and finite, got {zeta!r}")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    r = 2.0 * zeta
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


def _pair_coeffs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix elements of the pair ladder operators.

    lower[n] = <n| b b |n+2> = sqrt((n+1)(n+2)), and
    raise_[n] = <n| b† b† |n-2> = sqrt(n (n-1)).
    """
    n = np.arange(dim, dtype=float)
    return np.sqrt((n + 1.0) * (n + 2.0)), np.sqrt(n * (n - 1.0))


def _validate_times(times) -> np.ndarray:
    arr = np.asarray(times, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("times must be a 1-D grid with at least two points")
    if np.any(np.diff(arr) <= 0.0):
        raise ValueError("times must be strictly increasing")
    return arr


def _pulse_width(p: DriveParams) -> float:
    if isinstance(p.pulse, DeltaLimit):
        raise UnsupportedPulseError(
            "the delta-limit pulse cannot be time stepped; use analytic_moments"
        )
    return p.pulse.tau


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

    def write_csv(self, path: str | Path, ergotropy_ratio: float | None = None) -> None:
        """Columns: t, n, re_s, im_s, var_x_min, tail_mass and, when
        given, a constant ergotropy_ratio column."""
        columns = ["t", "n", "re_s", "im_s", "var_x_min", "tail_mass"]
        rows = zip(self.times, self.n, self.s.real, self.s.imag, self.var_x_min, self.tail_mass)
        if ergotropy_ratio is not None:
            columns.append("ergotropy_ratio")
            rows = (row + (ergotropy_ratio,) for row in rows)
        Path(path).write_text(_csv_text(columns, rows), encoding="utf-8")


def _trajectory(
    times: np.ndarray, pops: np.ndarray, s: np.ndarray, tail_guard: float, final_state
) -> FockTrajectory:
    """The sampled observables of an evolution, from the level
    populations ``pops`` (levels x samples) and the pair correlator ``s``.

    Raises :class:`TruncationError` if the tail mass ever exceeds
    ``tail_guard``. Only then is ``final_state(norms)`` called, with the
    norm (or trace) at every sample, to build the final state.
    """
    dim = pops.shape[0]
    tail = pops[dim - _TAIL_LEVELS:].sum(axis=0)
    worst_tail = float(tail.max())
    if worst_tail > tail_guard:
        raise TruncationError(
            f"tail mass reached {worst_tail:.3e} (guard {tail_guard:.1e}); "
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


def _check_dim(dim: int) -> int:
    dim = int(dim)
    if dim < 6:
        raise ValueError(f"the Fock dimension must be at least 6, got {dim}")
    return dim


def _evolve_vacuum(
    rhs,
    dim: int,
    times: np.ndarray,
    acc: Accuracy | None,
    max_step: float,
    label: str,
    tail_guard: float,
) -> FockTrajectory:
    """Step the state vector |0> on ``dim`` levels with ``rhs`` and
    sample the observables on ``times``; ``label`` opens the message of
    the :class:`IntegrationError` raised if the solver gives up."""
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    if acc is None:
        acc = FOCK_ACCURACY
    Y = _rk45(rhs, (times[0], times[-1]), psi0, acc, max_step, label, t_eval=times).y
    lower, _ = _pair_coeffs(dim)
    s = (lower[: dim - 2, None] * np.conj(Y[:-2]) * Y[2:]).sum(axis=0)
    return _trajectory(
        times,
        np.abs(Y) ** 2,
        s,
        tail_guard,
        lambda norms: FockVector(Y[:, -1] / math.sqrt(norms[-1])),
    )


def evolve_rwa(
    p: DriveParams,
    dim: int,
    times,
    acc: Accuracy | None = None,
    *,
    tail_guard: float = 1e-6,
) -> FockTrajectory:
    """Evolve |0> under the resonant rotating-frame generator
    (zeta/2) f(t) (b†b† + bb) and sample expectation values on ``times``.

    Start the grid at t <= -8 tau so the vacuum boundary condition holds.
    Raises :class:`TruncationError` if the alarm-zone mass ever exceeds
    ``tail_guard``.
    """
    require_resonant(p)
    dim = _check_dim(dim)
    times = _validate_times(times)

    lower, raise_ = _pair_coeffs(dim)
    lc = lower[: dim - 2]
    rc = raise_[2:]
    half_zeta = 0.5 * p.zeta
    value = p.pulse.value

    def rhs(t, psi):
        h = half_zeta * value(t)
        out = np.empty_like(psi)
        out[:-2] = lc * psi[2:]
        out[-2:] = 0.0
        out[2:] += rc * psi[:-2]
        out *= -1j * h
        return out

    return _evolve_vacuum(
        rhs, dim, times, acc, 0.5 * _pulse_width(p), "rotating-frame evolution failed", tail_guard
    )


def evolve_full(
    p: DriveParams,
    dim: int,
    times,
    acc: Accuracy | None = None,
    *,
    tail_guard: float = 1e-6,
) -> FockTrajectory:
    """Evolve |0> under the full carrier-resolved Hamiltonian
    omega_b b†b + zeta cos(2 omega_d t) f(t) (b†b† + bb).

    Integrates in the interaction picture of the bare ladder, which is
    exact (nothing is dropped) but leaves only the carrier phases

        i da/dt = zeta cos(2 omega_d t) f(t)
                  [e^(2 i omega_b t) b†b† + e^(-2 i omega_b t) bb] a

    to resolve, so the step size is capped at 2 pi / (40 omega_d), a
    twentieth of the period pi / omega_d of cos(2 omega_d t). The
    reported n and s live in the same rotating frame as
    :func:`evolve_rwa` and converge to it as omega_b tau grows.
    """
    dim = _check_dim(dim)
    times = _validate_times(times)

    lower, raise_ = _pair_coeffs(dim)
    lc = lower[: dim - 2]
    rc = raise_[2:]
    zeta = p.zeta
    omega_b = p.omega_b
    omega_d = p.omega_d
    value = p.pulse.value

    def rhs(t, psi):
        v = zeta * math.cos(2.0 * omega_d * t) * value(t)
        ph = cmath.exp(2j * omega_b * t)
        out = np.empty_like(psi)
        out[:-2] = lc * psi[2:]
        out[-2:] = 0.0
        out *= ph.conjugate()
        out[2:] += ph * (rc * psi[:-2])
        out *= -1j * v
        return out

    max_step = min(0.5 * _pulse_width(p), 2.0 * math.pi / (40.0 * omega_d))
    return _evolve_vacuum(
        rhs, dim, times, acc, max_step, "carrier-resolved evolution failed", tail_guard
    )


def _class_diagonals(dim: int, part: int, parity: int) -> range:
    """The diagonals d = j - k a class stores: those of its parity, from
    d = 0 in S and from d = 1 in T, which is zero on the main diagonal."""
    return range(2 if (part, parity) == (_T, 0) else parity, dim, 2)


def _class_size(dim: int, part: int, parity: int) -> int:
    """Stored entries of one class: the lengths dim - d of its diagonals."""
    diagonals = _class_diagonals(dim, part, parity)
    return len(diagonals) * (dim - diagonals.start - len(diagonals) + 1)


def _lindblad_bytes(dim: int, entries: int, samples: int, per_step: int) -> int:
    """Upper bound on the bytes :func:`evolve_lindblad` holds at once for
    ``entries`` stored float64 numbers on ``dim`` levels, sampled at
    ``samples`` instants of which one step interpolates at most
    ``per_step``.

    While RK45 steps: the work arrays and the stencil; one step's
    interpolated rows (at most 3 dim per sample) twice, the dense-output
    product and its scaled copy; and the observed rows of every sample
    twice, since ``solve_ivp`` keeps one block per step and stacks them
    when the run ends. No full-state sample is ever interpolated. After
    the run, once the solver and the stencil are freed: the observed rows,
    the solver's last state, and the complex rho with the temporaries of
    its Hermiticity check and of ``eigvalsh``.
    """
    rows = 8 * 3 * dim * samples
    stepping = 8 * entries * (_WORK_COPIES + _STENCIL_COPIES) + 16 * 3 * dim * per_step + 2 * rows
    final = rows + 8 * entries + 16 * dim * dim * _FINAL_COPIES
    return max(stepping, final)


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


def _rotated_diagonals(initial: FockDensity | FockVector, dim: int):
    """sigma[k + d, k] = e^(i pi d/4) rho[k + d, k] of the initial state,
    one diagonal d = 0 .. dim - 1 at a time, so that no dim^2 array is
    formed."""
    for d in range(dim):
        if isinstance(initial, FockVector):
            rho_d = initial.amp[d:] * np.conj(initial.amp[: dim - d])
        else:
            rho_d = np.diagonal(initial.matrix, -d)
        yield d, _EIGHTH_TURNS[d % 8] * rho_d


def _lindblad_stencil(dim: int, start: np.ndarray, classes, kappa: float):
    """The right-hand side on the stored entries, built once.

    Returns the drive as a sparse matrix G, with row i holding the flat
    indices and weights of the four neighbours (J + 2, K), (J - 2, K),
    (J, K - 2) and (J, K + 2) of stored entry i = (J, K) under [A, .];
    the loss weights of the jump sources (J + 1, K + 1), each the next
    stored entry of its diagonal; and the damping rates. A neighbour
    above the diagonal is read from its mirror image, with sign +1 in S
    and -1 in T; a neighbour off the ladder, or on the diagonal of T,
    has weight 0. The right-hand side is then
    damp * y + h * (G @ y) + jump * y[i + 1].

    Each class is written straight into the (entries, 4) blocks G is made
    of: the weights as float64, which G adopts uncopied, and the columns
    as intp, which G keeps as an int32 copy. The intp block is freed on
    return, before RK45 steps, and on glibc that matters: freeing a block
    that large raises malloc's mmap and trim thresholds above the size of
    the state, which keeps the solver's state-sized temporaries on the heap.
    Built in int32 directly, at dim 454, every such temporary came back
    from the kernel: 930 000 page faults doubled the stepping time.
    """
    from scipy.sparse import csr_matrix

    entries = sum(_class_size(dim, part, parity) for part, parity in classes)
    cols = np.zeros((entries, 4), dtype=np.intp)
    weights = np.zeros((entries, 4))
    jump = np.empty(entries)
    damp = np.empty(entries)
    first = 0
    for part, parity in classes:
        diagonals = np.asarray(_class_diagonals(dim, part, parity))
        lengths = dim - diagonals
        size = int(lengths.sum())
        rows = slice(first, first + size)
        first += size
        k = np.arange(size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        j = k + np.repeat(diagonals, lengths)
        lowest = 0 if part == _S else 1
        class_cols, class_weights = cols[rows], weights[rows]
        for col, (a, b, coeff) in enumerate(_drive_neighbours(j, k)):
            lo = np.minimum(a, b)
            off = np.abs(a - b)
            ok = (lo >= 0) & (lo + off < dim) & (off >= lowest)
            class_cols[ok, col] = start[part, off[ok]] + lo[ok]
            if part == _T:
                np.negative(coeff, out=coeff, where=a < b)
            class_weights[ok, col] = coeff[ok]
        jump[rows] = np.where(j + 1 < dim, kappa * np.sqrt((j + 1.0) * (k + 1.0)), 0.0)
        damp[rows] = -0.5 * kappa * (j + k)
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


def _parity_block_spectrum(last: np.ndarray, start: np.ndarray, dim: int) -> np.ndarray:
    """Eigenvalues, ascending, of the stored sigma when only its even
    diagonals are stored.

    sigma[j, k] then vanishes unless j - k is even, so the levels of each
    parity form a block of their own, and the spectrum is that of the two
    blocks. Only their lower triangles are written, since ``eigvalsh``
    reads no more; the blocks are real unless T is stored.
    """
    dtype = complex if np.any(start[_T] >= 0) else float
    spectra = []
    for first in (0, 1):
        size = (dim + 1 - first) // 2
        block = np.zeros((size, size), dtype=dtype)
        flat = block.reshape(-1)
        for m in range(size):
            # sigma[k + 2m, k] for k of this parity: diagonal m of the block
            below = flat[m * size :: size + 1]
            d = 2 * m
            if start[_S, d] >= 0:
                below.real = last[start[_S, d] + first : start[_S, d] + dim - d : 2]
            if start[_T, d] >= 0:
                below.imag = last[start[_T, d] + first : start[_T, d] + dim - d : 2]
        spectra.append(np.linalg.eigvalsh(block))
    return np.sort(np.concatenate(spectra))


def evolve_lindblad(
    p: DriveParams,
    kappa: float,
    dim: int,
    times,
    acc: Accuracy | None = None,
    *,
    initial: FockDensity | FockVector | None = None,
    tail_guard: float = 1e-6,
    positivity_tol: float | None = None,
) -> FockTrajectory:
    """Evolve a density matrix under the rotating-frame generator plus
    the zero-temperature loss dissipator kappa (b rho b† - {b†b, rho}/2).

    Defaults to the vacuum; ``initial`` admits any valid state. Trace
    drift is reported in ``norm_drift``. Positivity is monitored, not
    enforced: integration noise puts the lowest eigenvalue of the final
    state slightly below zero, so the default rejection threshold scales
    with the relative tolerance, max(1e-8, 100 rel_tol). ``acc`` defaults
    to :data:`LINDBLAD_ACCURACY`.

    The state is stepped as sigma = e^(i pi n/4) rho e^(-i pi n/4), in
    which the drive is h [A, sigma] with A real and antisymmetric and
    every loss weight is real, so the generator has real coefficients.
    sigma is Hermitian, and its symmetric real part S and antisymmetric
    imaginary part T evolve apart, each keeping the parity of j - k.
    Only the lower triangles are stored (j >= k for S, j > k for T), as
    float64, one class per (part, parity) that is nonzero at the start:
    from the vacuum, the even diagonals of S alone; a complex state at
    most dim^2 reals. Nothing is stepped in complex arithmetic. The
    right-hand side is one gather stencil built once
    (:func:`_lindblad_stencil`). Observables are read off the stored
    diagonals: each step's interpolant is evaluated on the populations
    and the d = 2 diagonals alone, and the solver's last state is kept
    whole. The solver and the stencil are freed before the full complex
    rho is built for ``final_state``. rho's spectrum is sigma's, and when
    only even diagonals are stored, as from the vacuum, sigma splits into
    the levels of even and of odd j, so the spectrum comes from two blocks
    of a quarter of the entries each (:func:`_parity_block_spectrum`).

    Before anything of size dim^2 or of the stored size is allocated,
    the bytes the run needs (:func:`_lindblad_bytes`) are compared with
    what the process can allocate, the smaller of physical RAM and a
    finite RLIMIT_AS soft limit; a run that cannot fit raises
    :class:`MemoryError` naming both byte counts.
    """
    require_resonant(p)
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa!r}")
    dim = _check_dim(dim)
    times = _validate_times(times)
    if acc is None:
        acc = LINDBLAD_ACCURACY
    if positivity_tol is None:
        positivity_tol = max(1e-8, 100.0 * acc.rel_tol)

    if initial is None:
        nonzero = {(_S, 0)}
    elif isinstance(initial, (FockVector, FockDensity)):
        if initial.dim != dim:
            raise ValueError(f"initial state has dim {initial.dim}, expected {dim}")
        nonzero = set()
        for d, sigma_d in _rotated_diagonals(initial, dim):
            if np.any(sigma_d.real):
                nonzero.add((_S, d % 2))
            if d and np.any(sigma_d.imag):
                nonzero.add((_T, d % 2))
    else:
        raise TypeError("initial must be a FockVector or FockDensity")
    # S even holds the diagonal, so it is always stored, and first
    classes = [c for c in ((_S, 0), (_S, 1), (_T, 0), (_T, 1)) if c in nonzero]

    entries = sum(_class_size(dim, part, parity) for part, parity in classes)
    max_step = 0.5 * _pulse_width(p)
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

    # start[part, d]: flat index of sigma[d, 0] in that part, -1 if not stored
    start = np.full((2, dim + 2), -1, dtype=np.intp)
    offset = 0
    for part, parity in classes:
        for d in _class_diagonals(dim, part, parity):
            start[part, d] = offset
            offset += dim - d

    y0 = np.zeros(entries)
    if initial is None:
        y0[0] = 1.0
    else:
        for d, sigma_d in _rotated_diagonals(initial, dim):
            for part, values in ((_S, sigma_d.real), (_T, sigma_d.imag)):
                if start[part, d] >= 0:
                    y0[start[part, d] : start[part, d] + dim - d] = values

    drive, jump, damp = _lindblad_stencil(dim, start, classes, kappa)
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

    # the rows the trajectory reads: the populations, which are the d = 0
    # diagonal of S, and the d = 2 diagonals of S and, when stored, of T
    read = [np.arange(dim), np.arange(start[_S, 2], start[_S, 2] + dim - 2)]
    if start[_T, 2] >= 0:
        read.append(np.arange(start[_T, 2], start[_T, 2] + dim - 2))

    span = (times[0], times[-1])
    label = "lossy evolution failed"
    sol = _rk45(rhs, span, y0, acc, max_step, label, t_eval=times, rows=np.concatenate(read))
    y, last = sol.y, sol.y_end
    # scipy's solver holds its work arrays, and through rhs the stencil, in
    # a reference cycle; free them before the final state is built on top
    del sol, rhs, drive, jump, damp, y0
    gc.collect()

    pops, pairs = y[:dim], y[dim:]
    # <bb> = sum_j lower[j] rho[j+2, j], and rho[j+2, j] = -i sigma[j+2, j]
    lower = _pair_coeffs(dim)[0][: dim - 2]
    s = -1j * (lower @ pairs[: dim - 2])
    if start[_T, 2] >= 0:
        s += lower @ pairs[dim - 2 :]
    # sigma = e^(i pi n/4) rho e^(-i pi n/4) has rho's spectrum; with only
    # its even diagonals stored, as from the vacuum, it splits in two
    even = all(parity == 0 for _, parity in classes)

    def final_state(_traces) -> FockDensity:
        final = np.zeros((dim, dim), dtype=complex)
        flat = final.reshape(-1)
        for d in range(dim):
            # rho[k + d, k] below the diagonal, its conjugate above
            below = flat[d * dim :: dim + 1][: dim - d]
            for part, view in ((_S, below.real), (_T, below.imag)):
                if start[part, d] >= 0:
                    view[:] = last[start[part, d] : start[part, d] + dim - d]
            below *= _EIGHTH_TURNS[-d % 8]
            if d:
                flat[d :: dim + 1][: dim - d] = below.conj()
        trace = np.trace(final).real
        final /= trace
        spectrum = _parity_block_spectrum(last, start, dim) / trace if even else None
        rho = FockDensity._adopt(final, spectrum)
        min_eig = rho.min_eigenvalue()
        if min_eig < -positivity_tol:
            raise IntegrationError(
                f"final state lost positivity (min eigenvalue {min_eig:.3e}); "
                "tighten the accuracy or enlarge the ladder"
            )
        return rho

    return _trajectory(times, pops, s, tail_guard, final_state)


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


def _shift_down(amp: np.ndarray) -> np.ndarray:
    """b acting on amplitudes, kept at the same length."""
    out = np.zeros(amp.size, dtype=complex)
    k = np.arange(1, amp.size, dtype=float)
    out[:-1] = np.sqrt(k) * amp[1:]
    return out


def _shift_up(amp: np.ndarray) -> np.ndarray:
    """b† acting on amplitudes, output one level longer (nothing spills)."""
    out = np.zeros(amp.size + 1, dtype=complex)
    k = np.arange(1, amp.size + 1, dtype=float)
    out[1:] = np.sqrt(k) * amp
    return out


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
    amp = state.amp * np.exp(-1j * omega_b * t * np.arange(state.dim))
    up = _shift_up(amp)
    down = _shift_down(amp)
    down = np.concatenate([down, [0.0]])
    amp_ext = np.concatenate([amp, [0.0]])

    cu = cmath.exp(1j * 0.5 * theta) / _SQRT2
    x_amp = cu * up + cu.conjugate() * down
    p_amp = 1j * (cu * up) - 1j * (cu.conjugate() * down)

    def _variance(op_amp: np.ndarray) -> float:
        mean = float(np.vdot(amp_ext, op_amp).real)
        second = float(np.vdot(op_amp, op_amp).real)
        return second - mean * mean

    var_x = _variance(x_amp)
    var_p = _variance(p_amp)
    return QuadratureReport(
        theta=theta, var_x=var_x, var_p=var_p, std_product=math.sqrt(var_x * var_p)
    )
