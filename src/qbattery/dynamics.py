"""Second-moment dynamics of the quadratically driven battery mode.

At driving resonance, in the frame rotating at the bare frequency and
after dropping the counter-rotating terms, the mean population
n = <b†b> and the pair correlator s = <bb> close on themselves:

    dn/dt = -2 zeta f(t) Im(s),        ds/dt = -i zeta f(t) (2 n + 1),

with <b†b†> pinned structurally to conj(s). Started from the vacuum the
solution is a squeezed vacuum of squeeze parameter r = zeta A(t), the
drive strength times the accumulated pulse area,

    n(t) = sinh^2(zeta A(t)),          s(t) = -(i/2) sinh(2 zeta A(t)),

for every unit-area envelope, the delta limit included; this area law
is :func:`analytic_moments`. With single-photon loss the state stays a
zero-mean Gaussian, and :func:`lossy_moments` gives its moments from
the principal variances, in closed form up to one positive integral
per variance, taken by Gauss-Legendre quadrature, whose terms also size
the lossy Fock ladder. :func:`integrate_moments` is the independent
numerical route: an adaptive embedded Runge-Kutta pair on
(n, Re s, Im s), optionally with the loss. Like every run in the
package it starts from the vacuum at the first instant of the grid it
is given and returns one sample per instant.

The closed forms, the lossy one included, run on Python floats. numpy
is bound lazily, by the package root's :func:`qbattery._lazy`, which
binds this module the same way, and loads on the first numerical call,
an integration or a :class:`MomentTrajectory`; scipy is imported only
when an ODE runs (:func:`_rk45`). Running this module therefore loads
neither, and neither does sizing a lossy Fock ladder.

The drive, :class:`qbattery.pulses.DriveParams`, lives beside the
shapes it validates, so the closed-form figures of merit reach it
without running this module. Every table the package
writes, the CLI's and both trajectories' ``write_csv``, goes through the
package root's :func:`qbattery._write_table`.
"""

from __future__ import annotations

import math
import types
from pathlib import Path

from . import _lazy, _write_table
from .pulses import DriveParams
from .specfun import Accuracy, _number, _Value

__all__ = [
    "ODE_ACCURACY",
    "VACUUM",
    "IntegrationError",
    "MomentState",
    "MomentTrajectory",
    "analytic_moments",
    "integrate_moments",
    "lossy_moments",
]

np = _lazy("numpy")

# The 8-point Gauss-Legendre rule on [-1, 1], one (node, weight) pair of
# each symmetric couple.
_GAUSS_LEGENDRE_8 = (
    (0.183434642495649804939476142360, 0.362683783378361982965150449277),
    (0.525532409916328985817739049189, 0.313706645877887287337962201987),
    (0.796666477413626739591553936476, 0.222381034453374470544355994426),
    (0.960289856497536231683560868569, 0.101228536290376259152531354310),
)

# _carry's panel width per unit of its rule: at 1 lossy_moments lay up to
# 1.8e-13 of 1 + n from a run on 8 times as many panels, at 1/2 1.2e-14.
_PANEL_WIDTH = 0.5

# lossy_moments integrates over the last (4 zeta + _LOSS_REACH) / kappa
# of each grid interval [a, b] only: what decayed before that is at most
# kappa (b - a) e^(-_LOSS_REACH) of what it keeps, so a run at large
# kappa does not take (b - a) kappa panels per interval.
_LOSS_REACH = 50.0

# The moment integrator's tolerances. The ODE is the reference the Fock
# engines are checked against, so its own error must sit well below
# theirs: at 1e-10 it filled fock-check's abs_err at zeta 10, kappa 1e-9.
ODE_ACCURACY = Accuracy(abs_tol=1e-14, rel_tol=1e-13)


class IntegrationError(RuntimeError):
    """Adaptive integration failed (step-size underflow, solver breakdown or overflow)."""


def _parts(start: float, stop: float, tau: float) -> list[tuple[float, float, bool]]:
    """The parts ``(a, b, capped)`` the ODE driver steps [``start``,
    ``stop``] in: cut at +-8 tau, where a Gaussian drive of width ``tau``
    is below 1e-13 of its peak, ``capped`` marking the part inside; a
    ``tau`` of ``math.inf`` leaves one part. The one window rule; pure
    Python."""
    hot = 8.0 * tau
    cuts = [start, *(c for c in (-hot, hot) if start < c < stop), stop]
    return [(a, b, a < hot and b > -hot) for a, b in zip(cuts[:-1], cuts[1:])]


def _rk45(rhs, times, y0, acc: Accuracy, tau: float, label: str, observe=lambda y: y, cap=None):
    """Integrate ``rhs`` from ``y0`` at ``times[0]`` to ``times[-1]`` with
    scipy's RK45 pair at the tolerances of ``acc``, for a drive of width
    ``tau``, and sample ``observe(state)`` at each instant of ``times``.

    Every ODE in the package goes through here, the one place that picks
    step sizes, counts steps and catches overflow. It steps the parts of
    :func:`_parts`, each by one ``solve_ivp`` call with one set of
    keywords, started from the state the last ended in: steps are capped
    at ``cap`` (default tau / 2) on the part inside +-8 tau, so the
    stepper cannot leap over the pulse, and free outside, so quiet tails
    cost a few steps; a ``tau`` of ``math.inf``, for a variable in which
    the drive is constant, gives one part with no cap. ``solve_ivp`` is
    imported on each call, so importing the package never loads scipy,
    and whatever ``scipy.integrate.solve_ivp`` is bound to then runs.

    The solver, a class built per call, is scipy's RK45 with two
    documented hooks overridden: ``_dense_output_impl`` hands scipy's own
    interpolant of a step, one instant at a time, to ``observe``, so a
    sample keeps only what its caller reads, and ``step`` counts the
    steps that advance t and keeps the state a part ends in.

    ``times`` is a numpy grid, finite and strictly increasing; ``observe``
    maps a state to the 1-D array its caller reads, by default the state.
    Returns ``y``, ``y_end``, ``nfev`` and ``steps``, the last two summed
    over the parts. ``y`` stacks the samples, one column an instant, each
    from the interpolant of the step that passed it. A grid of one
    instant spans nothing, takes no step, and its one sample is
    ``observe(y0)``. ``y_end`` is the whole final state.

    Raises
    ------
    IntegrationError
        ``"{label} on [a, b]: {solver message}"`` when the solver gives
        up on the part [a, b], and ``"{label}: {numpy's message}"`` on an
        overflow or invalid value, in ``rhs`` or the solver's error norm.
    """
    from scipy.integrate import RK45, solve_ivp

    run = types.SimpleNamespace(y_end=y0, nfev=0, steps=0)

    class ObservedRK45(RK45):
        def step(self):
            t = self.t
            message = super().step()
            if self.t != t:  # a zero-length part finishes without a step
                run.steps += 1
            if self.status == "finished":
                run.y_end = self.y
            return message

        def _dense_output_impl(self):
            dense = super()._dense_output_impl()
            return lambda ts: np.column_stack([observe(dense(t)) for t in ts])

    if cap is None:
        cap = 0.5 * tau
    stop = times[-1]
    y_parts = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for a, b, capped in _parts(times[0], stop, tau):
                sol = solve_ivp(
                    rhs,
                    (a, b),
                    run.y_end,
                    method=ObservedRK45,
                    t_eval=times[(times >= a) & ((times < b) | (b == stop))],
                    rtol=acc.rel_tol,
                    atol=acc.abs_tol,
                    max_step=cap if capped else np.inf,
                )
                if not sol.success:
                    raise IntegrationError(f"{label} on [{a:g}, {b:g}]: {sol.message}")
                run.nfev += sol.nfev
                if len(sol.t):
                    y_parts.append(sol.y)
    except FloatingPointError as exc:
        raise IntegrationError(f"{label}: {exc}") from None
    if not y_parts:  # solve_ivp samples nothing on the zero-length span
        y_parts.append(observe(y0)[:, None])
    run.y = np.concatenate(y_parts, axis=1)
    return run


def _time_list(times) -> list[float]:
    """``times`` as a list of Python floats, refused unless it is a
    finite, strictly increasing 1-D grid of at least one instant. The
    one grid check; pure Python, so a refused grid loads no numpy."""
    try:
        grid = list(times) if getattr(times, "ndim", 1) == 1 else []
    except TypeError:  # a scalar
        grid = []
    if not grid or any(isinstance(t, (list, tuple)) or getattr(t, "ndim", 0) for t in grid):
        raise ValueError("times must be a 1-D grid with at least 1 point")
    grid = [_number("times", t) for t in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("times must be strictly increasing")
    return grid


class MomentState(_Value):
    """Second moments at one instant: n = <b†b>, s = <bb> (rotating frame).

    Physical states reached from the vacuum satisfy n >= 0,
    |s|^2 <= n (n + 1) and, along lossless evolution,
    (n + 1/2)^2 - |s|^2 = 1/4.
    """

    n: float
    s: complex

    @property
    def invariant_residual(self) -> float:
        """(n + 1/2)^2 - |s|^2 - 1/4; zero along closed vacuum evolution."""
        return (self.n + 0.5) ** 2 - abs(self.s) ** 2 - 0.25


VACUUM = MomentState(0.0, 0j)


class MomentTrajectory(_Value):
    """Sampled moment evolution over strictly increasing times."""

    times: np.ndarray
    n: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        times = np.array(_time_list(self.times))
        n = np.asarray(self.n, dtype=float)
        s = np.asarray(self.s, dtype=complex)
        if not (times.size == n.size == s.size):
            raise ValueError("times, n and s must have equal length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)

    def __len__(self) -> int:
        return int(self.times.size)

    def invariant_residual(self) -> np.ndarray:
        """(n + 1/2)^2 - |s|^2 - 1/4 at every sample."""
        return (self.n + 0.5) ** 2 - np.abs(self.s) ** 2 - 0.25

    def write_csv(self, path: str | Path) -> None:
        """Columns: t, n, re_s, im_s, invariant_residual."""
        rows = zip(self.times, self.n, self.s.real, self.s.imag, self.invariant_residual())
        _write_table(["t", "n", "re_s", "im_s", "invariant_residual"], rows, Path(path))


def integrate_moments(p: DriveParams, times, *, kappa: float = 0.0) -> MomentTrajectory:
    """Integrate the moment equations from the vacuum at ``times[0]`` and
    sample them at each instant of ``times``.

    ``kappa`` adds zero-temperature single-photon loss, which damps both
    moments at the same rate (dn/dt gains -kappa n, ds/dt gains
    -kappa s) and so keeps the moment system exactly closed.

    The vacuum boundary condition lives at t -> -inf; starting the grid
    at t <= -8 tau keeps its violation below 1e-13 of the peak drive for
    the Gaussian envelope (heavier-tailed shapes need an earlier start,
    proportionally to their leftover area). Steps follow the one rule of
    :func:`_rk45`, at the tolerances of :data:`ODE_ACCURACY`.

    Raises
    ------
    ValueError
        If ``kappa`` is negative or not finite, or ``times`` is not a
        finite, strictly increasing 1-D grid of at least one instant.
    UnsupportedPulseError
        For the delta-limit pulse, which has no width to step across.
    IntegrationError
        If the adaptive solver gives up (e.g. step-size underflow), or
        the moments overflow (zeta 400 does on the rising edge).
    """
    kappa = _number("kappa", kappa, "nonnegative")
    times = np.array(_time_list(times))

    zeta = p.zeta
    value = p.pulse.value

    def rhs(t, y):
        zf = zeta * value(t)
        return (
            -2.0 * zf * y[2] - kappa * y[0],
            -kappa * y[1],
            -zf * (2.0 * y[0] + 1.0) - kappa * y[2],
        )

    label = "moment integration failed"
    y = _rk45(rhs, times, np.zeros(3), ODE_ACCURACY, p.pulse.tau, label).y
    return MomentTrajectory(times=times, n=y[0], s=y[1] + 1j * y[2])


def analytic_moments(p: DriveParams, t: float, t_start: float = -math.inf) -> MomentState:
    """Closed-form moments from the vacuum for any unit-area envelope.

    The area law: with x = zeta (A(t) - A(t_start)), the state that was
    the vacuum at ``t_start`` is a squeezed vacuum of squeeze parameter
    x, so n = sinh^2(x) and s = -(i/2) sinh(2 x). The default start,
    t -> -inf, where A vanishes, is the vacuum boundary condition of the
    paper, and gives the squeeze parameter r = zeta A(t). ``t`` may be
    +-inf, ``t_start`` only -inf; in the delta limit A is the unit step
    with A(0) = 1/2.
    """
    area = p.pulse.area(t)
    if t_start != -math.inf:
        area -= p.pulse.area(_number("t_start", t_start))
    x = p.zeta * area
    return MomentState(math.sinh(x) ** 2, -0.5j * math.sinh(2.0 * x))


def lossy_moments(p: DriveParams, kappa: float, times) -> list[MomentState]:
    """Moments from the vacuum at ``times[0]`` under zero-temperature
    single-photon loss at rate ``kappa``, at each instant of ``times``,
    in closed form; pure Python.

    The principal variances V± = 1/2 + n ± |s| obey
    dV±/dt = ±2 zeta f V± - kappa (V± - 1/2), so with
    g±(t) = ±2 zeta A(t) - kappa t and t0 = ``times[0]``,

        V±(t) = e^(g±(t) - g±(t0)) / 2 + (kappa/2) I±(t),
        I±(t) = integral from t0 to t of e^(g±(t) - g±(u)) du.

    I± is carried from grid point to grid point,
    I(b) = I(a) e^(g(b) - g(a)) + integral from a to b, each integral by
    8-point Gauss-Legendre over the last (4 zeta + 50)/kappa of the
    interval alone, on panels 1/(2 (1/l + kappa + 2 zeta |A(b) - A(a)|/(b - a)))
    wide, l the area's scale: tau or, on one side of the pulse, the
    distance from it. Where A(a) = A(b), as where a Gaussian, sech or
    Poschl-Teller area has rounded to 0 or 1, the integrand is
    e^(-kappa (b - u)), and the integral, (1 - e^(-kappa (b - a)))/kappa,
    is taken in closed form, so a quiet tail costs no panels however
    long. The Lorentzian and algebraic areas never stop changing, so
    those shapes take panels everywhere, few where l is long. Every term
    of V± is positive, so none cancels. Then, with
    x = zeta (A(t) - A(t0)) and D = e^(-kappa (t - t0)),

        n = D sinh^2(x) + (D - 1)/2 + (kappa/4) (I+ + I-)
          = (V+ + V-)/2 - 1/2,
        s = -(i/2) (D sinh(2x) + (kappa/2) (I+ - I-)) = -(i/2) (V+ - V-),

    which at ``kappa`` 0 is :func:`analytic_moments` ``(p, t, t0)`` to
    the bit. It refuses what :func:`integrate_moments` refuses.

    Raises
    ------
    ValueError
        If ``kappa`` is negative or not finite, or ``times`` is not a
        finite, strictly increasing 1-D grid of at least one instant.
    UnsupportedPulseError
        For the delta-limit pulse, which has no width to integrate across.
    """
    moments = [VACUUM]
    for x, decay, i_plus, i_minus, _, _ in _lossy_terms(p, kappa, times):
        damp = math.exp(-decay)
        n = (
            damp * math.sinh(x) ** 2
            + 0.5 * math.expm1(-decay)
            + 0.25 * kappa * (i_plus + i_minus)
        )
        s = -0.5j * (damp * math.sinh(2.0 * x) + 0.5 * kappa * (i_plus - i_minus))
        moments.append(MomentState(n, s))
    return moments


def _lossy_terms(p: DriveParams, kappa: float, times):
    """What :func:`_lossy_carry` returns at each of ``times`` after the
    first, by one walk: the terms and the refusals of :func:`lossy_moments`."""
    kappa = _number("kappa", kappa, "nonnegative")
    times = _time_list(times)
    return map(_lossy_carry(p, kappa, times[0]), times[1:])


def _lossy_carry(p: DriveParams, kappa: float, t0: float):
    """A cursor over the terms of :func:`lossy_moments` from the vacuum at
    ``t0``: a function of t >= ``t0`` that returns x, kappa (t - t0), I+
    and I-, carried by :func:`_carry` from the latest instant asked for at
    or before t, and V+- = e^(+-2x - kappa (t - t0))/2 + (kappa/2) I+-. It
    keeps ``t0`` and the last 16, as RK45 steps back at most to the start
    of its step. ``kappa``, ``t0`` and every t are checked Python floats,
    so the quadrature reads the unchecked area."""
    area, tau, zeta, two_zeta = p.pulse._area, p.pulse.tau, p.zeta, 2.0 * p.zeta
    area0 = area(t0)
    carried = [(t0, area0, 0.0, 0.0)]  # (t, A(t), I+, I-)

    def terms(t):
        while carried[-1][0] > t:
            carried.pop()
        a, area_a, i_plus, i_minus = carried[-1]
        if t > a:
            area_t = area(t)
            i_plus, i_minus = _carry(area, two_zeta, kappa, tau, a, area_a, t, area_t, i_plus, i_minus)
            carried.append((t, area_t, i_plus, i_minus))
            del carried[1:-16]
            area_a = area_t
        x, decay = zeta * (area_a - area0), kappa * (t - t0)
        v_plus, v_minus = 0.5 * math.exp(2.0 * x - decay), 0.5 * math.exp(-2.0 * x - decay)
        return x, decay, i_plus, i_minus, v_plus + 0.5 * kappa * i_plus, v_minus + 0.5 * kappa * i_minus

    return terms


def _carry(area, two_zeta, kappa, tau, a, area_a, b, area_b, i_plus, i_minus):
    """I+- at ``b`` from I+- at ``a`` < ``b``, where ``area`` takes the values
    ``area_a`` and ``area_b``, as :func:`lossy_moments` carries them, on
    panels _PANEL_WIDTH / (1/l + kappa + 2 zeta |A(b) - A(a)|/(b - a)) wide, l as there."""
    if area_b == area_a:
        # the drive adds no area on [a, b], so the integrand is e^(-kappa v)
        j_plus = j_minus = -math.expm1(-kappa * (b - a)) / kappa if kappa else b - a
    else:
        # the quadrature runs in the lag v = b - u, which stays
        # resolved however short the reach
        span = min(b - a, (2.0 * two_zeta + _LOSS_REACH) / kappa if kappa else math.inf)
        scale = max(tau, min(abs(a), abs(b))) if a * b > 0.0 else tau
        width = _PANEL_WIDTH / (1.0 / scale + kappa + two_zeta * abs(area_b - area_a) / (b - a))
        panels = max(1, math.ceil(span / width))
        half = 0.5 * span / panels
        q_plus = q_minus = 0.0
        for k in range(panels):
            mid = (2 * k + 1) * half
            for node, weight in _GAUSS_LEGENDRE_8:
                for lag in (mid - half * node, mid + half * node):
                    grow = two_zeta * (area_b - area(b - lag))
                    decay = kappa * lag
                    q_plus += weight * math.exp(grow - decay)
                    q_minus += weight * math.exp(-grow - decay)
        j_plus, j_minus = half * q_plus, half * q_minus
    grow = two_zeta * (area_b - area_a)
    decay = kappa * (b - a)
    return i_plus * math.exp(grow - decay) + j_plus, i_minus * math.exp(-grow - decay) + j_minus
