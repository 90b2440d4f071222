"""One benchmark operation, run in its own fresh interpreter.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/child.py probe
    python3 perfbench/child.py api full-carrier [--trace FILE]
    python3 perfbench/child.py cli [--trace FILE] -- <qbattery arguments>

``probe`` imports the package and prints the interpreter, numpy, scipy
and BLAS-thread facts the result file records. ``api`` runs an API
operation and prints its result as one JSON line. ``cli`` runs
``qbattery.cli.main`` on the given arguments.

With ``--trace FILE`` the process times ``import qbattery.cli``, counts
the loaded scipy modules, wraps the public functions of each package
module and ``scipy.integrate.solve_ivp``, runs the operation and writes
every span it recorded to FILE as JSON when the operation ends. Without
it nothing is wrapped: the operation runs as a user's shell runs it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

# Modules whose public functions are wrapped, by layer name. ``pulses``
# contributes the value/area methods of every envelope class instead.
_FUNCTION_LAYERS = ("merit", "specfun", "dynamics", "fock")
_EVOLVE = ("evolve_rwa", "evolve_full", "evolve_lindblad")


class Tracer:
    """Spans kept in memory: (id, name, start, end, parent, attrs).

    The span stack is per thread, so the worker threads of a threaded
    sweep nest under the operation's root span instead of under each
    other. Ids come from ``itertools.count``, which is safe to share.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [self.root]
        return stack

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``attrs(args, kwargs, result)`` may add attributes; it sees
        ``result=None`` when the call raised.
        """
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            stack = stack_of()
            parent = stack[-1]
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs else None
                spans.append((sid, name, t0, t1, parent, extra))

        return traced

    def span_root(self, name, fn):
        """Wrap the operation's entry point; its span is every thread's root."""
        self.root = next(self._ids)
        clock = time.perf_counter

        def run(*args, **kwargs):
            self._local.stack = [self.root]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((self.root, name, t0, clock(), 0, None))

        return run


def _rebind(replacements: dict[int, object]) -> None:
    """Point every reference to a wrapped object at its wrapper.

    The package modules import one another's names with ``from ...
    import``, so patching only the defining module would miss callers.
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "scipy.integrate" or mod_name.split(".")[0] == "qbattery"):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


def _evolve_attrs(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = sig.bind_partial(*args, **kwargs).arguments
        out = {"dim": int(bound["dim"]), "samples": len(bound["times"]), "completed": result is not None}
        if result is not None:
            out["odd_mass"] = float(max(result.odd_mass))
        return out

    return attrs


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and ``solve_ivp``."""
    import scipy.integrate

    import qbattery.cli  # noqa: F401  (loads every package module)

    replacements: dict[int, object] = {}
    for layer in _FUNCTION_LAYERS:
        mod = sys.modules[f"qbattery.{layer}"]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn):
                continue
            attrs = _evolve_attrs(fn) if layer == "fock" and name in _EVOLVE else None
            replacements[id(fn)] = tracer.wrap(f"{layer}.{name}", fn, attrs)

    pulses = sys.modules["qbattery.pulses"]
    for obj in vars(pulses).values():
        if inspect.isclass(obj) and issubclass(obj, pulses.PulseShape):
            for meth in ("value", "area"):
                if meth in vars(obj):
                    setattr(obj, meth, tracer.wrap(f"pulses.{obj.__name__}.{meth}", vars(obj)[meth]))

    fock = sys.modules["qbattery.fock"]
    fock.FockVector.to_density = tracer.wrap("fock.FockVector.to_density", fock.FockVector.to_density)

    original = scipy.integrate.solve_ivp
    rhs_wrap = tracer.wrap

    def nfev(args, kwargs, result):
        return {"nfev": int(result.nfev)} if result is not None else None

    def solve_ivp(fun, *args, **kwargs):
        return original(rhs_wrap("ode.rhs", fun), *args, **kwargs)

    replacements[id(original)] = tracer.wrap("ode.solve_ivp", solve_ivp, nfev)
    _rebind(replacements)


def full_carrier() -> dict:
    """Carrier-resolved evolution against the rotating frame at
    zeta = 1, omega_b tau = 50, dim 454, 15 samples on [-8, 6] tau."""
    import numpy as np

    from qbattery import DriveParams, Gaussian, evolve_full, evolve_rwa

    p = DriveParams(omega_b=50.0, zeta=1.0, pulse=Gaussian(1.0))
    grid = np.linspace(-8.0, 6.0, 15)
    full = evolve_full(p, 454, grid)
    rwa = evolve_rwa(p, 454, grid)
    return {
        "dim": 454,
        "t_final": float(grid[-1]),
        "n_full": float(full.n[-1]),
        "n_rwa": float(rwa.n[-1]),
        "odd_mass": max(float(np.max(full.odd_mass)), float(np.max(rwa.odd_mass))),
        "tail_mass": max(float(np.max(full.tail_mass)), float(np.max(rwa.tail_mass))),
    }


API_OPS = {"full-carrier": full_carrier}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def probe() -> dict:
    import numpy
    import scipy

    import qbattery.cli  # noqa: F401

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def main(argv: list[str]) -> int:
    kind, rest = argv[0], argv[1:]
    if kind == "probe":
        print(json.dumps(probe()))
        return 0
    trace_path = None
    if rest and rest[0] == "--trace":
        trace_path, rest = rest[1], rest[2:]
    if kind == "cli":
        if rest and rest[0] == "--":
            rest = rest[1:]
        name = "cli.main"
    elif kind == "api":
        name = f"api.{rest[0]}"
    else:
        raise SystemExit(f"unknown operation kind {kind!r}")

    record = {}
    tracer = None
    if trace_path is not None:
        t0 = time.perf_counter()
        import qbattery.cli  # noqa: F401

        record["import_s"] = time.perf_counter() - t0
        record["scipy_modules"] = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        tracer = Tracer()
        install(tracer)

    if kind == "cli":
        import qbattery.cli

        def op():
            return qbattery.cli.main(rest)
    else:
        api = API_OPS[rest[0]]

        def op():
            print(json.dumps(api()))
            return 0

    if tracer is not None:
        op = tracer.span_root(name, op)
    try:
        code = op()
    except SystemExit as exc:  # argparse rejects unusable flags this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if tracer is not None:
            record["spans"] = tracer.spans
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, separators=(",", ":"))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
