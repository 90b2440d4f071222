"""Second-moment dynamics of the quadratically driven battery mode.

At driving resonance, in the frame rotating at the bare frequency and
after dropping the counter-rotating terms, the mean population
n = <b†b> and the pair correlator s = <bb> close on themselves:

    dn/dt = -2 zeta f(t) Im(s),        ds/dt = -i zeta f(t) (2 n + 1),

with <b†b†> pinned structurally to conj(s). Started from the vacuum the
solution is a squeezed vacuum whose squeeze parameter is twice the drive
strength times the accumulated pulse area,

    n(t) = sinh^2(zeta A(t)),          s(t) = -(i/2) sinh(2 zeta A(t)),

for every unit-area envelope, the delta limit included; this area law
is :func:`analytic_moments`. :func:`integrate_moments` is the
independent numerical route: an adaptive embedded Runge-Kutta pair on
(n, Re s, Im s), optionally with single-photon loss.

The closed forms run on Python floats. numpy is bound lazily
(:func:`_lazy`) and loads on the first numerical call, an integration or
a :class:`MomentTrajectory`; scipy is imported only when an ODE runs
(:func:`_rk45`). Importing the package therefore loads neither.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
import types
from dataclasses import dataclass
from pathlib import Path

from .pulses import DeltaLimit, PulseShape, UnsupportedPulseError
from .specfun import Accuracy

__all__ = [
    "ODE_ACCURACY",
    "VACUUM",
    "DriveParams",
    "IntegrationError",
    "MomentState",
    "MomentTrajectory",
    "analytic_moments",
    "integrate_moments",
    "require_resonant",
]


def _lazy(name: str) -> types.ModuleType:
    """The module ``name``, executed on its first attribute access.

    The ``importlib.util.LazyLoader`` recipe: the returned object is the
    module registered in ``sys.modules``, so once loaded it is the very
    module an ordinary ``import`` returns. A module that cannot be found
    (not installed, or blocked by a ``None`` entry in ``sys.modules``)
    raises its ``ModuleNotFoundError`` on first use rather than here.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        return _Unavailable(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


class _Unavailable(types.ModuleType):
    """Stand-in for a module that cannot be imported: every attribute
    access repeats the import, which raises."""

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self.__name__), attr)


np = _lazy("numpy")

# Integrator defaults; tighter than these rarely pays off for a smooth
# 3-dimensional system, looser starts to show in conserved quantities.
ODE_ACCURACY = Accuracy(abs_tol=1e-10, rel_tol=1e-10)


class IntegrationError(RuntimeError):
    """Adaptive integration failed (step-size underflow or solver breakdown)."""


def _rk45(rhs, t_span, y0, acc: Accuracy, max_step: float, label: str, *, rows=None, **options):
    """Integrate ``rhs`` over ``t_span`` with scipy's RK45 pair at the
    tolerances of ``acc``; ``options`` go to ``solve_ivp`` unchanged.

    Every ODE in the package goes through here. ``solve_ivp`` is imported
    on each call, so importing the package (and running the closed forms)
    never loads scipy, and whatever ``scipy.integrate.solve_ivp`` is bound
    to at that moment is what runs.

    ``rows``, given with ``t_eval``, indexes the rows of the state that
    are sampled: each step's interpolant is evaluated on those rows alone,
    ``sol.y`` stacks only them, and ``sol.y_end`` is the whole state at
    the end of ``t_span``. It rides inside the same ``solve_ivp`` call
    (:func:`_row_rk45`), so the steps and the right-hand-side calls are
    the ones the plain call makes.

    Raises
    ------
    IntegrationError
        ``"{label}: {solver message}"`` when the solver gives up.
    """
    from scipy.integrate import solve_ivp

    method, end = "RK45", []
    if rows is not None:
        method = _row_rk45()
        options.update(rows=rows, end=end)
    sol = solve_ivp(
        rhs,
        t_span,
        y0,
        method=method,
        rtol=acc.rel_tol,
        atol=acc.abs_tol,
        max_step=max_step,
        **options,
    )
    if not sol.success:
        raise IntegrationError(f"{label}: {sol.message}")
    if rows is not None:
        (sol.y_end,) = end
    return sol


@functools.cache
def _row_rk45() -> type:
    """scipy's RK45 with its dense output cut to ``rows``.

    ``solve_ivp`` evaluates a step's dense output at the ``t_eval``
    instants the step passed and keeps what it returns. Here the
    interpolant is scipy's own, built from the ``rows`` columns of the
    stage derivatives alone, so a step interpolates no more than it keeps.
    The solver's state after its last step is appended to ``end``. Both
    arrive as solver options, which ``solve_ivp`` hands to the solver
    class it is given as ``method``. Built on first use, since scipy
    loads only when an ODE runs.
    """
    from scipy.integrate import RK45
    from scipy.integrate._ivp.rk import RkDenseOutput

    class RowRK45(RK45):
        def __init__(self, fun, t0, y0, t_bound, *, rows, end, **options):
            super().__init__(fun, t0, y0, t_bound, **options)
            self.rows = rows
            self.end = end

        def step(self):
            message = super().step()
            if self.status == "finished":
                self.end.append(self.y)
            return message

        def _dense_output_impl(self):
            rows = self.rows
            Q = self.K[:, rows].T.dot(self.P)
            return RkDenseOutput(self.t_old, self.t, self.y_old[rows], Q)

    return RowRK45


def _csv_text(columns: list[str], rows) -> str:
    """A header line and one line per row, every value at full double
    precision; the one table format of the package."""
    lines = [",".join(columns)]
    lines.extend(",".join(format(float(v), ".17g") for v in row) for row in rows)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DriveParams:
    """Physical parameters of the battery and its quadratic drive.

    Parameters
    ----------
    omega_b : float
        Level spacing of the battery mode, > 0.
    zeta : float
        Dimensionless drive strength, >= 0.
    pulse : PulseShape
        Envelope of the drive.
    omega_d : float, optional
        Half the carrier frequency. Defaults to ``omega_b`` (resonance),
        which is what every closed-form result assumes.
    """

    omega_b: float
    zeta: float
    pulse: PulseShape
    omega_d: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega_b) and self.omega_b > 0.0):
            raise ValueError(f"omega_b must be positive and finite, got {self.omega_b!r}")
        if not (math.isfinite(self.zeta) and self.zeta >= 0.0):
            raise ValueError(f"zeta must be nonnegative and finite, got {self.zeta!r}")
        if not isinstance(self.pulse, PulseShape):
            raise TypeError(f"pulse must be a PulseShape, got {type(self.pulse).__name__}")
        if self.omega_d is None:
            object.__setattr__(self, "omega_d", float(self.omega_b))
        elif not (math.isfinite(self.omega_d) and self.omega_d > 0.0):
            raise ValueError(f"omega_d must be positive and finite, got {self.omega_d!r}")

    @property
    def resonant(self) -> bool:
        return self.omega_d == self.omega_b


def require_resonant(p: DriveParams) -> None:
    """Reject detuned parameters wherever a closed-form branch is used."""
    if not p.resonant:
        raise ValueError(
            "the reduced moment equations hold at driving resonance only "
            "(omega_d == omega_b); use fock.evolve_full for a detuned carrier"
        )


@dataclass(frozen=True)
class MomentState:
    """Second moments at one instant: n = <b†b>, s = <bb> (rotating frame).

    Physical states reached from the vacuum satisfy n >= 0,
    |s|^2 <= n (n + 1) and, along lossless evolution,
    (n + 1/2)^2 - |s|^2 = 1/4. The same container doubles as a time
    derivative, so none of this is enforced on construction.
    """

    n: float
    s: complex

    @property
    def invariant_residual(self) -> float:
        """(n + 1/2)^2 - |s|^2 - 1/4; zero along closed vacuum evolution."""
        return (self.n + 0.5) ** 2 - abs(self.s) ** 2 - 0.25


VACUUM = MomentState(0.0, 0j)


@dataclass(frozen=True)
class MomentTrajectory:
    """Sampled moment evolution over strictly increasing times."""

    times: np.ndarray
    n: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        n = np.asarray(self.n, dtype=float)
        s = np.asarray(self.s, dtype=complex)
        if not (times.size == n.size == s.size):
            raise ValueError("times, n and s must have equal length")
        if times.size > 1 and np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)

    def __len__(self) -> int:
        return int(self.times.size)

    def state_at(self, i: int) -> MomentState:
        return MomentState(float(self.n[i]), complex(self.s[i]))

    def invariant_residual(self) -> np.ndarray:
        """(n + 1/2)^2 - |s|^2 - 1/4 at every sample."""
        return (self.n + 0.5) ** 2 - np.abs(self.s) ** 2 - 0.25

    def write_csv(self, path: str | Path) -> None:
        """Columns: t, n, re_s, im_s, invariant_residual."""
        rows = zip(self.times, self.n, self.s.real, self.s.imag, self.invariant_residual())
        text = _csv_text(["t", "n", "re_s", "im_s", "invariant_residual"], rows)
        Path(path).write_text(text, encoding="utf-8")


def integrate_moments(
    p: DriveParams,
    t_start: float,
    t_end: float,
    acc: Accuracy | None = None,
    *,
    kappa: float = 0.0,
    initial: MomentState = VACUUM,
    times: np.ndarray | None = None,
) -> MomentTrajectory:
    """Integrate the moment equations, from the vacuum by default.

    ``kappa`` adds zero-temperature single-photon loss, which damps both
    moments at the same rate (dn/dt gains -kappa n, ds/dt gains
    -kappa s) and so keeps the moment system exactly closed.

    The vacuum boundary condition lives at t -> -inf; starting at
    t_start <= -8 tau keeps its violation below 1e-13 of the peak drive
    for the Gaussian envelope (heavier-tailed shapes need an earlier
    start, proportionally to their leftover area).

    ``times``, when given, selects the sample instants (must lie inside
    the window); otherwise the solver's own accepted steps are returned.
    The window is split at +-8 tau and the step size is capped inside,
    so windows reaching deep into the quiet tails cannot step across the
    pulse.

    Raises
    ------
    IntegrationError
        If the adaptive solver gives up (e.g. step-size underflow).
    """
    require_resonant(p)
    if isinstance(p.pulse, DeltaLimit):
        raise UnsupportedPulseError(
            "the delta-limit pulse has no finite-time envelope; use analytic_moments"
        )
    if not t_start < t_end:
        raise ValueError(f"need t_start < t_end, got [{t_start!r}, {t_end!r}]")
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa!r}")
    if acc is None:
        acc = ODE_ACCURACY

    if times is not None:
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1-D array")
        if times.size > 1 and np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if times[0] < t_start or times[-1] > t_end:
            raise ValueError("requested times fall outside the integration window")

    zeta = p.zeta
    value = p.pulse.value

    def rhs(t, y):
        zf = zeta * value(t)
        return (
            -2.0 * zf * y[2] - kappa * y[0],
            -kappa * y[1],
            -zf * (2.0 * y[0] + 1.0) - kappa * y[2],
        )

    tau = p.pulse.tau
    hot = 8.0 * tau
    cuts = sorted({float(t_start), float(t_end), *(b for b in (-hot, hot) if t_start < b < t_end)})

    t_parts: list[np.ndarray] = []
    y_parts: list[np.ndarray] = []
    y = np.array([initial.n, initial.s.real, initial.s.imag], dtype=float)
    for a, b in zip(cuts[:-1], cuts[1:]):
        inside_pulse = a < hot and b > -hot
        sol = _rk45(
            rhs,
            (a, b),
            y,
            acc,
            0.5 * tau if inside_pulse else np.inf,
            f"moment integration failed on [{a:g}, {b:g}]",
            dense_output=times is not None,
        )
        if times is None:
            keep = slice(1, None) if t_parts else slice(None)
            t_parts.append(sol.t[keep])
            y_parts.append(sol.y[:, keep])
        else:
            last = b == cuts[-1]
            sel = (times >= a) & ((times <= b) if last else (times < b))
            if np.any(sel):
                t_parts.append(times[sel])
                y_parts.append(sol.sol(times[sel]))
        y = sol.y[:, -1]

    t_all = np.concatenate(t_parts)
    y_all = np.concatenate(y_parts, axis=1)
    return MomentTrajectory(times=t_all, n=y_all[0], s=y_all[1] + 1j * y_all[2])


def analytic_moments(p: DriveParams, t: float, t_start: float = -math.inf) -> MomentState:
    """Closed-form moments from the vacuum for any unit-area envelope.

    The area law: with x = zeta (A(t) - A(t_start)), the state that was
    the vacuum at ``t_start`` is a squeezed vacuum of squeeze parameter
    2 x, so n = sinh^2(x) and s = -(i/2) sinh(2 x). The default start,
    t -> -inf, where A vanishes, is the vacuum boundary condition of the
    paper. ``t`` may be +-inf; in the delta limit A is the unit step with
    A(0) = 1/2.
    """
    require_resonant(p)
    area = p.pulse.area(t)
    if t_start != -math.inf:
        area -= p.pulse.area(t_start)
    x = p.zeta * area
    return MomentState(math.sinh(x) ** 2, -0.5j * math.sinh(2.0 * x))
