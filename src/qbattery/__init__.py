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
never runs :mod:`qbattery.fock`. Each public name is resolved on access
from the ``__all__`` of the module defining it.
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


dynamics = _lazy(f"{__name__}.dynamics")
fock = _lazy(f"{__name__}.fock")
merit = _lazy(f"{__name__}.merit")
pulses = _lazy(f"{__name__}.pulses")
specfun = _lazy(f"{__name__}.specfun")
_MODULES = (dynamics, fock, merit, pulses, specfun)


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
