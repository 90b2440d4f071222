"""Two-photon charging of a bosonic quantum battery.

A single harmonic mode driven through its pair ladder (b†b† + bb) by a
unit-area pulse charges exponentially: the stored energy follows
omega_b sinh^2(zeta A(t)) where A is the accumulated pulse area. This
package provides the closed-form figures of merit, the second-moment
equations of motion with an adaptive integrator, an independent
truncated Fock-space verification engine (unitary, carrier-resolved and
lossy), and a CLI that emits all of it as machine-readable tables.

The five modules are bound lazily (:func:`_lazy`): importing the
package, or ``qbattery.cli``, registers them and runs none of them. A
module runs on its first attribute access, so a closed-form command
runs :mod:`qbattery.pulses`, :mod:`qbattery.specfun` and
:mod:`qbattery.merit` only, never the ODE code of
:mod:`qbattery.dynamics` or :mod:`qbattery.fock`. Each public name is
resolved on access from the ``__all__`` of the module defining it,
searched light modules first. The one table writer, :func:`_write_table`,
lives here too, so that writing a table runs no module.
"""

import importlib.util
import sys
import types

__version__ = "0.1.0"


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


def _write_table(columns: list[str], rows, out=None, fmt: str = "csv") -> None:
    """The one table writer: ``columns`` and ``rows`` as CSV (a header
    line and one line per row, every value at full double precision) or,
    with ``fmt="json"``, as compact JSON
    ``{"columns": [...], "rows": [[...], ...]}``. The text goes to
    stdout when ``out`` is None or the string ``"-"``, else to the file
    ``out`` (a ``Path("-")`` is a file) with LF line ends on every
    platform. ``json`` is imported only to write JSON."""
    if fmt == "json":
        import json

        payload = {"columns": columns, "rows": [[float(v) for v in row] for row in rows]}
        text = json.dumps(payload, separators=(",", ":")) + "\n"
    else:
        lines = [",".join(columns)]
        lines.extend(",".join(format(float(v), ".17g") for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as f:
            f.write(text)


# light modules first: resolving a name of pulses, specfun or merit
# runs neither dynamics nor fock
pulses = _lazy(f"{__name__}.pulses")
specfun = _lazy(f"{__name__}.specfun")
merit = _lazy(f"{__name__}.merit")
dynamics = _lazy(f"{__name__}.dynamics")
fock = _lazy(f"{__name__}.fock")
_MODULES = (pulses, specfun, merit, dynamics, fock)


def __getattr__(name: str):
    # each public name is listed once, in the __all__ of the module defining it
    if name == "__all__":
        return [*(n for mod in _MODULES for n in mod.__all__), "__version__"]
    for mod in _MODULES:
        if name in mod.__all__:
            return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
