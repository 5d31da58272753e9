"""Source hygiene: fracpot keeps no unused import, no orphaned private name
and no reference to an undefined global, and the entry points the benchmark
harness calls keep their shape.

A refactor that moves work from one module to another tends to leave the
old imports and helpers behind, or a reader of a name it deleted; this
catches them.  __init__.py is exempt from the import check, since its
imports are the package's re-exports.
"""

import ast
import builtins
import dataclasses
import inspect
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "fracpot"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCE.glob("*.py")}


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"cli.py", "riesz.py", "solver.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _imported_names(tree) - _used_names(tree)
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def _private_definitions(tree: ast.Module) -> set[str]:
    """Top-level functions, classes and constants whose names start with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_private_name_is_referenced():
    referenced = set().union(*map(_referenced_names, TREES.values()))
    orphans = {
        f"{module}:{name}"
        for module, tree in TREES.items()
        for name in _private_definitions(tree) - referenced
    }
    assert not orphans, f"private names nothing in fracpot refers to: {sorted(orphans)}"


def _public_functions(tree: ast.Module) -> set[str]:
    """Public top-level functions, and public methods as Class.method."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return {name for name in names if not name.rpartition(".")[2].startswith("_")}


# Public functions whose callers live outside src/fracpot.
_CALLED_FROM_OUTSIDE = {
    "cli.py:load_config",  # perfbench/worker.py reads the scenario's config with it
    # acceptance criterion 4 measures the gradient of I_2s(omega) with it, and
    # perfbench/tracer.py times it as a layer
    "riesz.py:riesz_gradient_measure",
}


def test_every_public_function_has_a_caller_in_fracpot():
    # a function only tests reach is code no command runs; the re-exports in
    # __init__.py are not callers
    referenced = set().union(
        *(_referenced_names(tree) for module, tree in TREES.items() if module != "__init__.py")
    )
    uncalled = {
        f"{path.name}:{name}"
        for path in MODULES
        for name in _public_functions(TREES[path.name])
        if name.rpartition(".")[2] not in referenced
    }
    assert uncalled == _CALLED_FROM_OUTSIDE, (
        f"public functions nothing in fracpot calls: {sorted(uncalled - _CALLED_FROM_OUTSIDE)}; "
        f"allowed but now called or gone: {sorted(_CALLED_FROM_OUTSIDE - uncalled)}"
    )


def _global_references(table: symtable.SymbolTable) -> set[str]:
    """Names looked up as globals anywhere in table or the scopes nested in it."""
    names = {
        sym.get_name()
        for sym in table.get_symbols()
        if sym.is_referenced() and (sym.is_global() or table.get_type() == "module")
    }
    for child in table.get_children():
        names |= _global_references(child)
    return names


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_every_global_name_is_defined(path):
    module = symtable.symtable(path.read_text(), str(path), "exec")
    defined = {s.get_name() for s in module.get_symbols() if s.is_assigned() or s.is_imported()}
    undefined = _global_references(module) - defined - set(dir(builtins))
    assert not undefined, f"{path.name} refers to undefined globals {sorted(undefined)}"


def _json_functions(tree: ast.Module, wanted: set[str]) -> set[str]:
    """The functions of json named in wanted that a module reads, as an attribute or by import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in wanted:
            if isinstance(node.value, ast.Name) and node.value.id == "json":
                names.add(f"json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names.update(f"json.{a.name}" for a in node.names if a.name in wanted)
    return names


def _outside_io(wanted: set[str]) -> set[str]:
    return {
        f"{module}:{name}"
        for module, tree in TREES.items()
        if module != "io.py"
        for name in _json_functions(tree, wanted)
    }


def test_only_io_parses_json():
    # every input file is parsed by io.read_json, so a missing or malformed
    # file meets one rule wherever it is read
    parsers = _outside_io({"load", "loads"})
    assert not parsers, f"JSON parsed outside io.read_json: {sorted(parsers)}"


def test_only_io_writes_json():
    # every JSON document is formatted by io.json_text, which refuses NaN and
    # Infinity: json.dumps writes them by default, and they are not JSON
    writers = _outside_io({"dump", "dumps"})
    assert not writers, f"JSON written outside io.json_text: {sorted(writers)}"


def _except_names(tree: ast.Module) -> set[str]:
    """The exception names a module's except clauses catch."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(c.id for c in caught if isinstance(c, ast.Name))
    return names


def test_every_error_class_is_told_apart():
    # a class exists only where some code tells it apart: the CLI maps it to
    # an exit code, or an except clause catches it; any other refused input
    # is a ConfigError
    from fracpot.cli import _EXIT_CODES

    defined = {node.name for node in TREES["errors.py"].body if isinstance(node, ast.ClassDef)}
    mapped = {kind.__name__ for kind, _ in _EXIT_CODES}
    assert "ConfigError" in mapped
    unused = defined - mapped.union(*map(_except_names, TREES.values()))
    assert not unused, f"error classes nothing tells apart: {sorted(unused)}"


def _value_error_raises(node: ast.AST, scope: str) -> list[str]:
    """The scopes (Class.function) that raise ValueError under node, one entry per raise."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _value_error_raises(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(scope)
        found += _value_error_raises(child, scope)
    return found


def test_no_bare_value_error_on_outside_input():
    # the CLI turns fracpot's errors into exit codes and lets any other
    # exception show its traceback, so a refused input raises ConfigError;
    # the two invariants of a CapacityEstimate are checks of the program itself
    raised = sorted(
        f"{module}:{scope}"
        for module, tree in TREES.items()
        for scope in _value_error_raises(tree, "")
    )
    assert raised == ["capacity.py:CapacityEstimate.__post_init__"] * 2


def test_benchmark_entry_points_keep_their_shape():
    # perfbench/worker.py calls these; a refactor that renames or reorders
    # them turns every benchmark run into a failure no other test sees
    from fracpot import capacity, cli, riesz

    inspect.signature(cli.load_config).bind("config.json")
    inspect.signature(cli.main).bind(["constants"])
    inspect.signature(riesz.riesz_potential_field).bind(object(), 1.0)
    # the worker binds estimate_ball_capacity's first four parameters by position
    ball = list(inspect.signature(capacity.estimate_ball_capacity).parameters)
    assert ball[:4] == ["x0", "r", "alpha", "p"]
    max_iter = inspect.signature(capacity.estimate_capacity).parameters["max_iter"]
    assert max_iter.default is not inspect.Parameter.empty
    fields = {f.name for f in dataclasses.fields(capacity.CapacityEstimate)}
    assert fields >= {"value", "upper_bound", "candidate", "iterations", "feasibility_gap"}


def _pool_modules_after(code: str) -> str:
    """The thread-pool and queue modules a fresh interpreter holds after running code."""
    code += "; print(sorted({'concurrent.futures', 'queue'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    done = subprocess.run([sys.executable, "-c", "import sys; " + code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def test_start_up_loads_no_thread_pool_or_queue():
    # the engine imports its thread pool on the first stage cut into several
    # chunks, so that importing the CLI, which every command pays, stays cheap
    assert _pool_modules_after("import fracpot.cli") == "[]"


@pytest.mark.parametrize("target", [["--sweep", "0.25,0.5,1,2", "--N", "64"],
                                    ["--ball", "0,0,1", "--N", "128"]])
def test_small_capacity_runs_never_start_the_thread_pool(target):
    # every stage of these convolutions fits one chunk, so each runs on the
    # calling thread even with workers to spare
    argv = ["--threads", "2", "capacity", "--alpha", "0.5", "--p", "2", *target]
    assert _pool_modules_after(f"from fracpot.cli import main; main({argv!r})") == "[]"
