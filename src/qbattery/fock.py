"""Truncated Fock-ladder engines that verify the moment-level results.

A quadratic drive couples |n> only to |n ± 2>, so applying the
Hamiltonian is two shifted ladder products and every right-hand side
below reduces to a handful of vectorized array operations. The cost of
a run still grows as the square of the ladder size: a ladder sized for
the state it holds is occupied up to its top, and the adaptive stepper
takes a number of steps that grows with the level count. From the
vacuum at zeta 2, 454 levels take about 0.05 s; at zeta 4, 24 480 levels
take about 90 s, which is why the lossless engines refuse a ladder
above 10 000 levels. Three engines share that machinery:

* :func:`evolve_rwa` - resonant rotating-frame Schrodinger evolution,
  stepped in the pulse area, where it reads no envelope value,
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
charges. With loss the state stays a zero-mean Gaussian whose squeeze
drives its photon distribution exponentially up the ladder: at kappa
0.1 the lab-frame density matrix needs 318 levels at zeta 2 and 15 859
at zeta 4. Undo the state's own squeeze and what is left is thermal,
which 35 and 216 levels hold. The density-matrix engine therefore steps
the state in that frame, whose angle it reads off the principal
variances of the lossy closed form. There, rotated by e^(i pi n/4),
the generator is real, so the state is one dense real dim x dim array.
Every engine samples seven observables an instant, each read off one
interpolated state, and keeps no state but the last. The engine's work
grows as the cube of the ladder size and as the loss rate, so it refuses
a frame ladder above 150 levels, and a stiff loss, before anything of
size dim^2 exists.

The lossless ladder is sized for the squeezed vacuum the pulse reaches
(:func:`choose_truncation`), the lossy frame ladder for the largest
thermal population on the grid (:func:`frame_truncation`), read off
the variances of the lossy closed form (:func:`qbattery.dynamics.lossy_moments`).

numpy is bound lazily, by the package root's :func:`qbattery._lazy`,
which binds this module the same way: of the CLI's commands only
``fock-check`` runs it, and running it runs none of numpy. Both sizing
rules and the lossy closed form they read are pure Python, and each
engine checks its ladder, then its grid, on Python values, so sizing a
ladder, and refusing a ladder, a grid or a stiff loss, needs no numpy,
with loss or without. It loads on the first state or engine call that
steps; scipy loads when an engine steps.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
from pathlib import Path

from . import _lazy, _write_table
from .dynamics import IntegrationError, _lossy_carry, _lossy_terms, _parts, _rk45, _time_list
from .merit import QuadratureReport
from .pulses import DriveParams
from .specfun import Accuracy, _number, _Value

__all__ = [
    "FOCK_ACCURACY",
    "FockDensity",
    "FockTrajectory",
    "FockVector",
    "LINDBLAD_ACCURACY",
    "LINDBLAD_LEVEL_LIMIT",
    "TruncationError",
    "VECTOR_LEVEL_LIMIT",
    "choose_truncation",
    "ergotropy",
    "evolve_full",
    "evolve_lindblad",
    "evolve_rwa",
    "frame_truncation",
    "quadrature_variances_from_state",
]

np = _lazy("numpy")

_SQRT2 = math.sqrt(2.0)

# Same embedded pair as the moment integrator, but with a much lower
# absolute floor: a state vector spreads its norm over many small
# amplitudes, and the floor is what their norm error accumulates from.
FOCK_ACCURACY = Accuracy(abs_tol=1e-12, rel_tol=1e-10)

# The Lindblad engine's tolerances. Their absolute floor applies to every
# stored entry of the state, and the integration noise in the lowest
# eigenvalue of the final state follows it: at zeta 2 on twice the frame
# ladder (70 levels), a 1e-12 floor left that eigenvalue at -9.8e-12 and
# 1e-13 at -9.8e-13, for 6% more right-hand-side calls. On the rising
# edge of the pulse n then lies within 1.3e-11 of a 1e-15/1e-13 run on
# the 35-level frame ladder (2.0e-10 at a 1e-12 floor).
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
# that turning sigma into the frame density leaves every entry unrounded.
_QUARTER_TURNS = (1.0 + 0j, -1j, -1.0 + 0j, 1j)

# Largest frame ladder the Lindblad engine steps. It steps a dense dim^2
# state, and RK45's step count grows with the level count too, so its
# work grows as the cube of the ladder size. As whole processes on a
# shared 2-core host, fock-check --kappa 0.1 --ergotropy took 1.3-2.7 s
# at 84 levels (zeta 3), 3.2-4.9 s at 106 (zeta 3.25), 5.3-15 s at 134
# (zeta 3.5) and 25 s at 170 (zeta 3.75); zeta 4's 216 levels took 36 s
# in process.
LINDBLAD_LEVEL_LIMIT = 150

# Most right-hand-side calls the Lindblad engine may need by the bound kappa dim L, which its
# fastest decay rate (about kappa dim) sets for an explicit stepper: zeta 1 at kappa 1e3 on the
# default grid made 138 854 for a bound of 8.4e4, in about 7 s on a shared 2-core host.
_STIFFNESS_LIMIT = 2e5

# Largest vector ladder the lossless engines step. A right-sized ladder
# is occupied to its top, so RK45 makes about six right-hand-side calls
# per level, each costing time proportional to the level count: the work
# grows as the square of the ladder size. On the default 57-point grid,
# in process on a shared 2-core host, evolve_rwa takes 1.2 s on 3318
# levels (zeta 3), 9 s on 9010 (zeta 3.5) and 89 s on 24480 (zeta 4);
# evolve_full, which resolves the carrier, takes longer on each.
VECTOR_LEVEL_LIMIT = 10_000


class TruncationError(RuntimeError):
    """The state leaked into the top ladder levels; enlarge the space."""


class FockVector(_Value):
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

    def mean_population(self) -> float:
        return float(np.arange(self.dim) @ (np.abs(self.amp) ** 2))

    def to_density(self) -> "FockDensity":
        return FockDensity(np.outer(self.amp, np.conj(self.amp)))


class FockDensity(_Value):
    """Density matrix on the truncated ladder (Hermitian, unit trace).

    ``matrix`` is written in the squeezed frame of angle ``theta``: it is
    U† rho U with U = exp(-i theta (b†² + b²)), and rho itself at
    theta = 0. The spectrum does not depend on the frame;
    :meth:`mean_population` undoes it.

    Positivity is monitored rather than enforced: construction checks
    trace and Hermiticity, :func:`ergotropy` rejects spectra below the
    -1e-10 tolerance. The spectrum is computed once, on first use of
    :attr:`eigenvalues`, and shared by every reader; ``matrix`` is a
    read-only copy, so the cached spectrum cannot go stale.
    """

    matrix: np.ndarray
    theta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _number("theta", self.theta))
        m = np.array(self.matrix, dtype=complex, order="C")
        m.flags.writeable = False
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "matrix", m)
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError(f"trace deviates from 1 by {tr - 1.0:.3e}")
        herm = float(np.max(np.abs(m - m.conj().T)))
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
        """<b†b> of rho, from the frame's own n and <bb> (:func:`_unsqueeze`)."""
        n = float(np.arange(self.dim) @ self.populations())
        pair = float(_pair_coeffs(self.dim) @ self.matrix.diagonal(-2).imag)
        return _unsqueeze(self.theta, n, pair)[0]


def _unsqueeze(theta: float, n: float, pair: float) -> tuple[float, float]:
    """Lab-frame <b†b> and Im<bb>, c^2 n + s^2 (n + 1) - 2 c s pair and
    (c^2 + s^2) pair - c s (2 n + 1) with c, s = cosh, sinh 2 theta, of a
    state in the squeezed frame of angle ``theta`` with <b†b> ``n`` and <bb> i ``pair`` there."""
    c, s = math.cosh(2.0 * theta), math.sinh(2.0 * theta)
    lab_n = c * c * n + s * s * (n + 1.0) - 2.0 * c * s * pair
    return lab_n, (c * c + s * s) * pair - c * s * (2.0 * n + 1.0)


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
    engine's frame ladder by :func:`frame_truncation` instead. The tail
    is exact (a regularized incomplete beta), and the size is found by
    bisection over whole pairs; :class:`RuntimeError` is raised at once
    when even 2 * 10^7 + 2 levels leave ``tail_tol`` or more beyond them.
    """
    r = _number("r", r, "nonnegative")
    tail_tol = _number("tail_tol", tail_tol, "in (0, 1)")
    lo, hi = 0, _TRUNCATION_TERMS + 1
    beyond = _pair_tail(hi, r)
    if beyond >= tail_tol:
        raise RuntimeError(
            f"a squeezed vacuum of r = {r:g} needs more than the {2 * hi}-level search "
            f"cap: {beyond:.2e} of its mass lies beyond it, above tail_tol {tail_tol:g}"
        )
    # tail(lo) >= tail_tol > tail(hi), and the tail falls with m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _pair_tail(mid, r) < tail_tol else (mid, hi)
    return 2 * hi + _TAIL_LEVELS


def _pair_coeffs(dim: int) -> np.ndarray:
    """Matrix elements of the pair ladder operators on ``dim`` levels:

    c[n] = <n| b b |n+2> = <n+2| b† b† |n> = sqrt((n+1)(n+2)), n < dim - 2.
    """
    n = np.arange(dim - 2, dtype=float)
    return np.sqrt((n + 1.0) * (n + 2.0))


class FockTrajectory(_Value):
    """Expectation values sampled along a Fock-space evolution.

    ``s`` is the rotating-frame pair correlator <bb>; ``var_x_min`` is
    the theta-minimized X-quadrature variance, 1/2 + n - |s| except that
    :func:`evolve_lindblad` reads it off its frame; ``norm_drift`` is the
    worst deviation of the norm (or trace) from 1 over the run.
    ``tail_mass``, ``odd_mass`` and ``norm_drift`` are read on the ladder
    that was stepped, which for :func:`evolve_lindblad` is the frame
    ladder. ``final_state`` is renormalized on wrapping so it is a valid
    state object; the raw drift stays visible in ``norm_drift``.
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

    def write_csv(self, path: str | Path) -> None:
        """The columns and rows of :meth:`table`."""
        _write_table(*self.table(), Path(path))


def _observed(n: float, s: complex, pops: np.ndarray) -> np.ndarray:
    """The seven observables of one state that :func:`_trajectory` reads:
    n, Re s, Im s, 1/2 + n - |s|, and of the populations ``pops`` of the
    ladder stepped the top-four mass, the odd mass and the norm (or trace)."""
    return np.array([n, s.real, s.imag, 0.5 + n - abs(s), pops[-_TAIL_LEVELS:].sum(), pops[1::2].sum(), pops.sum()])


def _trajectory(times: np.ndarray, observed: np.ndarray, dim: int, final_state) -> FockTrajectory:
    """The trajectory of an evolution on ``dim`` levels from its
    :func:`_observed` samples, one column each. Raises
    :class:`TruncationError` if the tail mass ever exceeds the 1e-6
    guard; only then is ``final_state()`` called to build the final state."""
    n, re_s, im_s, var_x_min, tail, odd, norms = observed
    worst_tail = float(tail.max())
    if worst_tail > _TAIL_GUARD:
        raise TruncationError(
            f"tail mass reached {worst_tail:.3e} (guard {_TAIL_GUARD:.1e}); "
            f"increase the Fock dimension beyond {dim}"
        )
    s = re_s.astype(complex)  # re_s + 1j * im_s would turn an imaginary -0.0 into 0.0
    s.imag = im_s
    return FockTrajectory(
        times=times,
        n=n,
        s=s,
        var_x_min=var_x_min,
        tail_mass=tail,
        odd_mass=odd,
        norm_drift=float(np.max(np.abs(norms - 1.0))),
        final_state=final_state(),
    )


def _levels(dim: int, zeta: float, kappa: float | None = None) -> int:
    """An engine's ladder size, an integer of at least 6 levels and at
    most the limit of its engine: :data:`VECTOR_LEVEL_LIMIT` for the
    lossless engines (no ``kappa``), :data:`LINDBLAD_LEVEL_LIMIT` for the
    frame ladder of the lossy one. The refusal names the ladder, the
    inputs that sized it and the limit; pure Python."""
    # a bool, numpy's too ("bool_" before numpy 2), is no count, as _number has it
    if type(dim).__name__ in {"bool", "bool_"} or not hasattr(dim, "__index__"):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    levels = operator.index(dim)
    if levels < _MIN_LEVELS:
        raise ValueError(f"dim must be at least {_MIN_LEVELS}, got {dim!r}")
    if kappa is None:
        ladder, inputs, limit, engine, growth = (
            "vector", f"zeta {zeta:g}", VECTOR_LEVEL_LIMIT, "lossless engines", "square"
        )
    else:
        ladder, inputs, limit, engine, growth = (
            "frame", f"zeta {zeta:g}, kappa {kappa:g}", LINDBLAD_LEVEL_LIMIT, "lossy engine", "cube"
        )
    if levels > limit:
        raise ValueError(
            f"the {ladder} ladder needs {levels} levels ({inputs}), above the {limit}-level "
            f"limit of the {engine}, whose work grows as the {growth} of the ladder size"
        )
    return levels


def _evolve_vacuum(
    rhs, dim: int, times: np.ndarray, steps, tau: float, label: str, cap: float | None = None
) -> FockTrajectory:
    """Step the state vector |0> on ``dim`` levels with ``rhs`` at
    :data:`FOCK_ACCURACY` over ``steps``, the stepping variable at each
    instant of ``times``, and sample the observables there. Instants
    with equal ``steps`` share one sample, and the distinct values are
    stepped in ascending order; ``tau``, ``label`` and ``cap`` go to
    :func:`qbattery.dynamics._rk45`."""
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    levels, pair = np.arange(dim), _pair_coeffs(dim)

    def observe(psi):
        pops = np.abs(psi) ** 2
        return _observed(levels @ pops, pair @ (np.conj(psi[:-2]) * psi[2:]), pops)

    grid, at = np.unique(steps, return_inverse=True)
    sol = _rk45(rhs, grid, psi0, FOCK_ACCURACY, tau, label, observe=observe, cap=cap)
    return _trajectory(times, sol.y[:, at], dim, lambda: FockVector(sol.y_end / np.linalg.norm(sol.y_end)))


def evolve_rwa(p: DriveParams, dim: int, times) -> FockTrajectory:
    """Evolve |0> under the resonant rotating-frame generator
    (zeta/2) f(t) K, K = b†b† + bb, and sample expectation values on
    ``times``.

    The engine reads the drive only through its area: in the pulse area
    Theta = (zeta/2) (A(t) - A(times[0])) the evolution is autonomous,
    d psi/d Theta = -i K psi, so it steps the distinct Theta of the grid,
    from the vacuum at ``times[0]``, with neither a split nor a step cap.
    The envelope's shape costs no steps, the quiet tails none at all
    (their samples share Theta), and the delta limit runs: there Theta
    jumps from 0 through zeta/4 at t = 0 to zeta/2. Steps at
    :data:`FOCK_ACCURACY`, as :func:`evolve_full` does.
    Raises :class:`TruncationError` if the mass in the top four levels
    ever exceeds 1e-6. A ``dim`` above :data:`VECTOR_LEVEL_LIMIT`, as in
    :func:`evolve_full`, raises :class:`ValueError` before ``times`` is
    read, which loads numpy.
    """
    dim = _levels(dim, p.zeta)
    grid = _time_list(times)
    area = p.pulse.area
    start = area(grid[0])
    theta = [0.5 * p.zeta * (area(t) - start) for t in grid]

    pair = _pair_coeffs(dim)

    def rhs(_theta, psi):
        out = np.empty_like(psi)
        out[:-2] = pair * psi[2:]
        out[-2:] = 0.0
        out[2:] += pair * psi[:-2]
        out *= -1j
        return out

    label = "rotating-frame evolution failed in pulse area"
    return _evolve_vacuum(rhs, dim, np.array(grid), theta, math.inf, label)


def evolve_full(p: DriveParams, dim: int, times, *, omega_d: float | None = None) -> FockTrajectory:
    """Evolve |0> under the full carrier-resolved Hamiltonian
    omega_b b†b + zeta cos(2 omega_d t) f(t) (b†b† + bb), the package's
    only off-resonance run; ``omega_d`` defaults to ``p.omega_b``.

    Integrates in the interaction picture of the bare ladder, which is
    exact (nothing is dropped) but leaves only the carrier phases

        i da/dt = zeta cos(2 omega_d t) f(t)
                  [e^(2 i omega_b t) b†b† + e^(-2 i omega_b t) bb] a

    to resolve, so inside +-8 tau steps are capped at
    min(tau / 2, 2 pi / (40 omega_d)), the second a twentieth of the
    period pi / omega_d of cos(2 omega_d t); outside, as in every run,
    they are free. The cap buys accuracy: at zeta 1, 454 levels, 15
    samples on [-8, 6] tau, dropping it cuts the right-hand-side calls
    from 33 590 to 23 462 at omega_b tau 50 and from 117 860 to 71 804
    at 200, but the worst error in n against an abs/rel 1e-14/1e-13 run
    on 200 levels grows from 5.9e-10 to 2.5e-9 and from 5.1e-10 to
    1.9e-8. The reported n and s live in the same rotating frame as
    :func:`evolve_rwa` and, on resonance, converge to it as omega_b tau grows.
    """
    omega_d = _number("omega_d", p.omega_b if omega_d is None else omega_d, "positive")
    dim = _levels(dim, p.zeta)
    times = np.array(_time_list(times))

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

    tau = p.pulse.tau
    cap = min(0.5 * tau, 2.0 * math.pi / (40.0 * omega_d))
    return _evolve_vacuum(rhs, dim, times, times, tau, "carrier-resolved evolution failed", cap)


def frame_truncation(p: DriveParams, kappa: float, times, tail_tol: float) -> int:
    """Frame-ladder size for :func:`evolve_lindblad` that holds the lossy
    states the drive ``p`` reaches from the vacuum at ``times[0]``, at
    each instant of ``times``, under loss at rate ``kappa``.

    Such a state stays a zero-mean Gaussian with principal variances
    V± = e^(±2x - kappa (t - t0)) / 2 + (kappa/2) I±, sums of positive
    terms, read off the walk of :func:`qbattery.dynamics.lossy_moments`,
    which refuses what this refuses. In its own squeezed frame it is thermal,
    of mean population nbar = sqrt(V+) sqrt(V-) - 1/2, and the top four
    levels of a ladder and all beyond hold (nbar / (nbar + 1))^(dim - 4)
    of its mass. The size is the smallest that keeps that below
    ``tail_tol`` at the largest nbar, and at least 6, pure Python:
    max(6, 4 + ceil(ln tail_tol / ln(nbar / (nbar + 1)))).
    """
    tail_tol = _number("tail_tol", tail_tol, "in (0, 1)")
    walk = _lossy_terms(p, kappa, times)
    # rounding leaves sqrt(V+ V-) of a pure state just below 1/2
    nbar = max([0.0, *(math.sqrt(v_plus) * math.sqrt(v_minus) - 0.5 for *_, v_plus, v_minus in walk)])
    if nbar == 0.0:
        return _MIN_LEVELS
    if nbar == math.inf:
        raise OverflowError("the frame ladder's V+ passed the largest double (about 1.8e308)")
    return max(_MIN_LEVELS, _TAIL_LEVELS + math.ceil(math.log(tail_tol) / -math.log1p(1.0 / nbar)))


def evolve_lindblad(p: DriveParams, kappa: float, dim: int, times) -> FockTrajectory:
    """Evolve the vacuum's density matrix under the rotating-frame
    generator plus the zero-temperature loss dissipator
    kappa (b rho b† - {b†b, rho}/2), in the state's own squeezed frame.

    ``dim`` is the size of the frame ladder (:func:`frame_truncation`).
    ``n`` and ``s`` are the rotating-frame observables; ``tail_mass``,
    ``odd_mass`` and the trace drift in ``norm_drift`` are read in the
    frame, and :class:`TruncationError` is raised as by
    :func:`evolve_rwa`. ``final_state`` is the frame state U†rho U,
    with its angle theta. Positivity is monitored, not enforced:
    integration noise puts the lowest eigenvalue of the final state
    slightly below zero, and :class:`IntegrationError` is raised below
    -1e-8. Steps are taken at :data:`LINDBLAD_ACCURACY`. ``kappa`` must
    be positive: without loss the state is pure, which :func:`evolve_rwa`
    steps. A ``dim`` above :data:`LINDBLAD_LEVEL_LIMIT` raises
    :class:`ValueError` before ``times`` is read, as the lossless engines
    refuse one above :data:`VECTOR_LEVEL_LIMIT`, and a loss too stiff
    for the explicit stepper, at least kappa dim L right-hand-side calls
    over the L of the grid inside +-8 tau, raises :class:`IntegrationError`
    above 2e5 after it, both before numpy loads.

    With K = b†² + b² and U = exp(-i theta K), the frame angle is
    theta = ln(V+/V-) / 8, of the principal variances V± the closed form's
    cursor returns: at each time the stepper evaluates from one cursor,
    and at each instant of ``times`` from the walk that sizes the ladder,
    so only the state is stepped.
    In sigma = e^(i pi n/4) U†rho U e^(-i pi n/4) the generator
    is g [A, sigma] + kappa (M sigma M^T - {M^T M, sigma}/2), with
    A = b†² - b², M = cosh(2 theta) b + sinh(2 theta) b† on the
    truncated ladder, and g = zeta f/2 - dtheta/dt
    = kappa (1/V- - 1/V+) / 16. It is real, so sigma is stepped as a
    dense real dim x dim array. The right-hand side is written Z + Z^T,
    exactly symmetric in floating point: sigma's antisymmetric part,
    which rounding would otherwise seed, grows under the dissipator.
    Each sample is read off the populations and the sigma[j + 2, j]
    coherences of one interpolated state, and theta at its instant. The
    lab's least quadrature is e^(-2 theta) times the frame's X at angle
    pi/4: ``var_x_min`` is e^(-4 theta) (1/2 + n + Im s) of the frame's
    samples, which does not cancel where the lab's 1/2 + n - |s| does.
    """
    try:
        kappa = _number("kappa", kappa, "positive")
    except ValueError as err:
        raise ValueError(f"{err}; evolve_rwa steps a lossless run") from None
    dim = _levels(dim, p.zeta, kappa)
    grid = _time_list(times)
    tau = p.pulse.tau
    label = "lossy evolution failed"
    driven = sum(b - a for a, b, capped in _parts(grid[0], grid[-1], tau) if capped)
    if kappa * dim * driven > _STIFFNESS_LIMIT:
        raise IntegrationError(
            f"{label}: kappa {kappa:g} is too stiff for the explicit stepper: on the {dim}-level "
            f"frame ladder over the {driven / tau:g} tau of the grid inside +-8 tau it needs at least "
            f"{kappa * dim * driven:.2g} right-hand-side calls, above the limit of {_STIFFNESS_LIMIT:.0e}"
        )
    times = np.array(grid)

    y0 = np.zeros(dim * dim)  # sigma row by row, from the vacuum
    y0[0] = 1.0
    root = np.sqrt(np.arange(1.0, dim))  # <j| b |j+1>
    levels, pair = np.arange(dim), _pair_coeffs(dim)
    cursor = _lossy_carry(p, kappa, grid[0])

    def rhs(t, y):
        # V+- at t, with t as a Python float, which math takes fastest
        *_, v_plus, v_minus = cursor(_number("t", t))
        sigma = y.reshape(dim, dim)
        two_theta = 0.25 * math.log(v_plus / v_minus)
        c, s = math.cosh(two_theta), math.sinh(two_theta)
        g = pair * (kappa / 16.0 * (1.0 / v_minus - 1.0 / v_plus))
        # w = M sigma
        w = np.empty((dim, dim))
        np.multiply((c * root)[:, None], sigma[1:], out=w[:-1])
        w[-1] = 0.0
        w[1:] += (s * root)[:, None] * sigma[:-1]
        # z = g A sigma + kappa (w M^T - M^T w) / 2, and z + z^T the flow;
        # M^T w is M^T M sigma with the truncated M, whose b b† is 0 on the
        # top level, so the flow keeps the trace
        z = np.zeros((dim, dim))
        z[2:] = g[:, None] * sigma[:-2]
        z[:-2] -= g[:, None] * sigma[2:]
        up, down = (0.5 * kappa * c) * root, (0.5 * kappa * s) * root
        z[1:] -= up[:, None] * w[:-1]
        z[:-1] -= down[:, None] * w[1:]
        z[:, :-1] += w[:, 1:] * up
        z[:, 1:] += w[:, :-1] * down
        return (z + z.T).ravel()

    def observe(y):
        # in the frame, rho~[j + 2, j] = -i sigma[j + 2, j], so <bb> = -i x
        sigma = y.reshape(dim, dim)
        pops = sigma.diagonal()
        return _observed(levels @ pops, complex(0.0, -(pair @ sigma.diagonal(-2))), pops)

    sol = _rk45(rhs, times, y0, LINDBLAD_ACCURACY, tau, label, observe=observe)
    walk = (0.125 * math.log(v_plus / v_minus) for *_, v_plus, v_minus in _lossy_terms(p, kappa, grid))
    theta = [0.0, *walk]  # 0 at the vacuum
    sol.y[3] = np.exp(-4.0 * np.array(theta)) * (0.5 + sol.y[0] + sol.y[2])  # V- of the frame's n, Im s
    lab = [_unsqueeze(*sample) for sample in zip(theta, sol.y[0].tolist(), sol.y[2].tolist())]
    sol.y[0], sol.y[2] = np.array(lab).T
    last = sol.y_end

    def final_state() -> FockDensity:
        # rho~[j, k] = e^(-i pi (j - k)/4) sigma[j, k], nonzero for even j - k only
        turns = np.array(_QUARTER_TURNS)[np.subtract.outer(levels, levels) // 2 % 4]
        final = turns * last.reshape(dim, dim)
        rho = FockDensity(final / np.trace(final).real, theta[-1])
        min_eig = rho.min_eigenvalue()
        if min_eig < -1e-8:
            raise IntegrationError(
                f"final state lost positivity (min eigenvalue {min_eig:.3e}); enlarge the ladder"
            )
        return rho

    return _trajectory(times, sol.y, dim, final_state)


def ergotropy(state: FockDensity | FockVector, omega_b: float) -> float:
    """Maximum work extractable by unitaries on the ladder Hamiltonian:

    omega_b [Tr(rho n) - sum_k lambda_k(desc) * k],

    i.e. mean energy minus the passive-state energy obtained by pairing
    the eigenvalues of rho, sorted descending, with the levels sorted
    ascending. Never exceeds the stored energy. The mean energy of a
    density written in a squeezed frame is its lab-frame
    :meth:`FockDensity.mean_population`; its spectrum is rho's. The passive state of a
    pure state is the ground state (Allahverdyan, Balian & Nieuwenhuizen,
    EPL 67, 565 (2004)), so a :class:`FockVector` gets its full mean
    energy without forming a density matrix.
    """
    omega_b = _number("omega_b", omega_b)
    if isinstance(state, FockVector):
        return omega_b * state.mean_population()
    if not isinstance(state, FockDensity):
        raise TypeError("ergotropy expects a FockDensity or a FockVector")
    lam = state.eigenvalues
    if lam[0] < -1e-10:
        raise ValueError(
            f"density matrix is not positive semidefinite (min eigenvalue {lam[0]:.3e})"
        )
    passive = float(lam[::-1] @ np.arange(state.dim, dtype=float))
    return omega_b * (state.mean_population() - passive)


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
    if not isinstance(state, FockVector):
        raise TypeError("quadrature_variances_from_state expects a FockVector")
    theta, omega_b, t = _number("theta", theta), _number("omega_b", omega_b), _number("t", t)
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
