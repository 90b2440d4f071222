"""Every module-level name in the package is read somewhere in the package,
every command-line flag is read by the CLI, no public function takes
a tolerance, no function but ``specfun``'s checks a number itself, and
nothing reads scipy's private solver internals.

A leftover import, constant, function or class that nothing reads any
more is dead code; names a module exports through ``__all__`` are its
public interface and exempt. A flag whose value the CLI never reads is
dead code a user can still type. Each numerical run steps at its
module's accuracy constant, so an API caller gets what the CLI computes;
an ``acc`` parameter on an exported function would bring a tolerance
knob back. What counts as a number is decided once, by
``specfun._number``; a function that converts or tests its own
parameter with ``float()`` or ``math.isfinite()`` writes a second rule
beside it. The ODE driver samples a step through the interpolant that
scipy's documented ``_dense_output_impl`` hook returns; a module that
imports from ``scipy.integrate._ivp`` or reads an RK solver's ``K``,
``P`` or ``y_old`` ties the package to one scipy release. Beside the
CLI's parser, only the standard library's ``ast`` is used, so the
checks run wherever the suite does.
"""

import argparse
import ast
from pathlib import Path

from qbattery.cli import build_parser

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qbattery"


def _bound_names(tree):
    """Module-level names bound by an import, an assignment, a def or a
    class, except ``from __future__`` imports and dunder names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return set()


def _reads(tree):
    """Names the module reads itself, and (module, name) pairs it reads
    from other package modules by import or by attribute."""
    own, foreign = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            foreign.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            # ``from . import x`` reads x from the package root
            foreign.update((node.module or "__init__", a.name) for a in node.names)
    return own, foreign


def test_every_module_level_name_is_read_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    foreign = set().union(*(pairs for _, pairs in reads.values()))
    dead = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in sorted(_bound_names(tree) - _exported(tree))
        if name not in reads[module][0] and (module, name) not in foreign
    ]
    assert dead == []


def test_no_exported_function_takes_an_accuracy():
    knobs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        public = _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                args = node.args
                if "acc" in {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}:
                    knobs.append(f"{path.stem}.{node.name}")
    assert knobs == []


def _flag_dests(parser):
    """The dest of every flag of ``parser`` and of every subcommand and
    panel under it, ``--help`` aside."""
    dests = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                dests |= _flag_dests(sub)
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            dests.add(action.dest)
    return dests


def test_every_flag_is_read_by_the_cli():
    tree = ast.parse((PACKAGE / "cli.py").read_text(), "cli.py")
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
    }
    dests = _flag_dests(build_parser())
    assert {"zeta", "tail_tol", "ergotropy", "threads", "theta_steps"} <= dests
    assert sorted(dests - read) == []


def _is_number_check(func):
    """``float(...)``, ``math.isfinite(...)`` or a bare ``isfinite(...)``."""
    if isinstance(func, ast.Name):
        return func.id in ("float", "isfinite")
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "isfinite"
        and isinstance(func.value, ast.Name)
        and func.value.id == "math"
    )


def test_only_specfun_checks_a_parameter_as_a_number():
    own_checks = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "specfun":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
            own_checks.extend(
                f"{path.stem}.{fn.name}:{node.lineno}"
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and _is_number_check(node.func)
                and any(isinstance(arg, ast.Name) and arg.id in params for arg in node.args)
            )
    assert own_checks == []


def test_no_module_reads_scipys_private_solver_internals():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.integrate._ivp"):
                private.append(f"{path.stem}:{node.lineno}: from {node.module}")
            elif isinstance(node, ast.Import):
                private.extend(
                    f"{path.stem}:{node.lineno}: import {a.name}"
                    for a in node.names
                    if a.name.startswith("scipy.integrate._ivp")
                )
            elif isinstance(node, ast.Attribute) and node.attr in {"K", "P", "y_old"}:
                private.append(f"{path.stem}:{node.lineno}: .{node.attr}")
    assert private == []
