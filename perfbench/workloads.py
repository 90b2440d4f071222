"""The benchmark's workloads: which operations run, and what each must show.

Every operation is one fresh process, the way a user's shell runs it.
``expect`` names the spans a traced run must record when the operation
exits 0; a failed operation need only record its root span.

Why these workloads:

* ``figures`` - the closed-form commands that reproduce the paper's
  panels. About 0.85 s of each ~0.95 s call is the import; the rest is
  Python loops in cli, merit, pulses and specfun. No ODE runs. The JSON
  and threaded ops drive the table writer and the sweep pool differently
  from the CSV ops.
* ``fock-pure`` - the vector engines, ``choose_truncation`` sizing and
  pure-state ergotropy at every figure-legend zeta, plus the
  carrier-resolved API check of acceptance criterion 11. No Lindblad
  step. zeta = 2 (an 8.93 GiB ``to_density``) and zeta = 4 (truncation
  search gives up) are known defects and stay in as counted failures.
* ``fock-lossy`` - the Lindblad engine and the ``integrate_moments``
  reference, with density matrices from 10 KB (inside L2) through
  3.3 MB to infeasible (zeta = 4, an 8.93 GiB allocation, a known
  defect that stays in). It shares the fock and ode path with
  ``fock-pure`` but takes few expensive steps on dim^2 arrays instead of
  many cheap ones on vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import checks


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # "cli" or "api"
    args: tuple[str, ...]
    check: object  # callable(columns, rows) for cli, callable(dict) for api
    expect: tuple[str, ...] = ()
    fmt: str = "csv"


_FIG_EXPECT = ("cli.main", "merit.")


def _fig(name, args, check, fmt="csv"):
    return Op(name, "cli", tuple(args), check, _FIG_EXPECT, fmt)


FIGURES = (
    _fig("fig-2a", ["fig", "2a"], checks.check_fig_2a),
    _fig("fig-2b", ["fig", "2b"], checks.check_fig_2b),
    _fig("fig-2c", ["fig", "2c"], checks.check_fig_2c),
    _fig("fig-3a", ["fig", "3a"], checks.check_fig_3a),
    _fig("fig-3b", ["fig", "3b"], checks.check_fig_3b),
    _fig("fig-3c", ["fig", "3c"], checks.check_fig_3c),
    _fig("energy", ["energy"], checks.check_energy),
    _fig("power", ["power"], checks.check_power),
    _fig("charge-time", ["charge-time"], checks.check_charge_time),
    _fig("peak-power", ["peak-power"], checks.check_peak_power),
    _fig("quadratures", ["quadratures"], checks.check_quadratures),
    _fig("sweep", ["sweep"], checks.check_sweep),
    _fig(
        "sweep-json-threads",
        ["sweep", "--zetas", "0.5,1,2,4", "--threads", "2", "--format", "json"],
        checks.check_sweep,
        "json",
    ),
    _fig("fig-3b-json", ["fig", "3b", "--format", "json"], checks.check_fig_3b, "json"),
)

_PURE_EXPECT = ("cli.main", "fock.evolve_rwa", "ode.solve_ivp", "ode.rhs", "dynamics.analytic_moments")
_LOSSY_EXPECT = ("cli.main", "fock.evolve_lindblad", "ode.solve_ivp", "ode.rhs", "dynamics.integrate_moments")


def _pure(zeta: str) -> Op:
    return Op(
        f"pure-zeta-{zeta}",
        "cli",
        ("fock-check", "--zeta", zeta, "--tail-tol", "1e-8", "--ergotropy"),
        partial(checks.check_fock, zeta=float(zeta), kappa=0.0),
        _PURE_EXPECT,
    )


def _lossy(zeta: str) -> Op:
    return Op(
        f"lossy-zeta-{zeta}",
        "cli",
        ("fock-check", "--zeta", zeta, "--kappa", "0.1", "--ergotropy"),
        partial(checks.check_fock, zeta=float(zeta), kappa=0.1),
        _LOSSY_EXPECT,
    )


FOCK_PURE = (
    *(_pure(z) for z in ("0.1", "0.5", "1", "2", "4")),
    Op(
        "full-carrier",
        "api",
        ("full-carrier",),
        checks.check_full_carrier,
        ("api.full-carrier", "fock.evolve_full", "fock.evolve_rwa", "ode.solve_ivp", "ode.rhs", "pulses."),
    ),
)

FOCK_LOSSY = tuple(_lossy(z) for z in ("0.5", "1", "2", "4"))

WORKLOADS = {"figures": FIGURES, "fock-pure": FOCK_PURE, "fock-lossy": FOCK_LOSSY}

# Fails on purpose (argparse exits 2); used only by the harness self-test.
BAD_FLAG = Op("bad-flag", "cli", ("energy", "--no-such-flag"), checks.check_energy, _FIG_EXPECT)
