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
import itertools
import os
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


# rows the writer forms and writes at a time: its memory, and the largest
# table it writes whole or not at all
_BLOCK_ROWS = 4096


def _write_table(columns: list[str], rows, out=None, fmt: str = "csv") -> None:
    """The one table writer: ``columns`` and ``rows`` (any iterable) as
    CSV (a header line and one line per row, every value at full double
    precision) or, with ``fmt="json"``, as the compact JSON
    ``{"columns": [...], "rows": [[...], ...]}`` of one ``json.dumps``.
    It writes ``_BLOCK_ROWS`` rows at a time, the first block with the
    head, so a table of at most that many rows is written whole or not at
    all; past that, a row that fails leaves the blocks before it on stdout.
    The text goes to stdout when ``out`` is None or the string ``"-"``,
    else to the file ``out`` (a ``Path("-")`` is a file) with LF line ends
    on every platform. A regular or new file is written beside itself
    under a fresh ``.partial`` name, renamed onto the file (through a
    symlink, keeping its mode) once every row is written and removed if
    one fails, so it is never left half written; anything else, a device
    or a FIFO say, is written through as given. ``json`` is imported only
    for JSON."""
    if fmt == "json":
        import json

        # a block's rows without the brackets around them: the blocks joined
        # by commas are the rows of one json.dumps
        text = lambda block: json.dumps(block, separators=(",", ":"))[1:-1]
        head, sep, tail = text([{"columns": columns, "rows": []}])[:-2], ",", "]}\n"
    else:
        text = lambda block: "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in block)
        head, sep, tail = ",".join(columns) + "\n", "", ""
    rows = iter(rows)
    blocks = iter(lambda: [[float(v) for v in row] for row in itertools.islice(rows, _BLOCK_ROWS)], [])
    pieces = itertools.chain([head + text(next(blocks, []))], (sep + text(block) for block in blocks), [tail])
    if out is None or out == "-":
        sys.stdout.writelines(pieces)
        return
    path = os.fspath(out)
    # neither a regular file nor a new name ("", a directory, /dev/null):
    # open writes through it as given, or raises what it cannot take
    if not os.path.isfile(path) and (os.path.lexists(path) or not os.path.basename(path)):
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.writelines(pieces)
        return
    real = os.path.realpath(path)
    # O_EXCL: the fresh name is never a file that is already there
    partial = f"{real}.{os.urandom(6).hex()}.partial"
    try:
        f = open(os.open(partial, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w", encoding="utf-8", newline="")
    except OSError as exc:
        exc.filename = path  # the diagnostic names the path given
        raise
    try:
        with f:
            f.writelines(pieces)
        if os.path.isfile(real):
            os.chmod(partial, os.stat(real).st_mode & 0o7777)
        os.replace(partial, real)
    except BaseException:
        os.remove(partial)
        raise


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
