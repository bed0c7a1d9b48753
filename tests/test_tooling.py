"""Checks on the source itself: the benchmark tracer names only functions
and methods that exist in rtlab, so a rename in the package cannot
silently break a traced run, no search recurses to a depth that grows
with its input, the package imports nothing but the standard library
and numpy, and no private helper is left without a caller."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rtlab"


def _load_tracer():
    # tracer.py imports only the standard library, so it loads by path
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = _load_tracer()
    for layer, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"rtlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"rtlab.{layer}.{name}"
    for layer, classes in tracer.METHODS.items():
        module = importlib.import_module(f"rtlab.{layer}")
        for cls_name, names in classes.items():
            cls = getattr(module, cls_name)
            for name in names:
                # the tracer patches methods found in the class namespace
                assert callable(vars(cls).get(name)), \
                    f"rtlab.{layer}.{cls_name}.{name}"


def _calls_itself(fn, method):
    """Does the function call itself: by plain name, or as a method on
    self?  (In a method a plain name is a module-level function.)"""
    for call in ast.walk(fn):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if method:
            if (isinstance(func, ast.Attribute) and func.attr == fn.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"):
                return True
        elif isinstance(func, ast.Name) and func.id == fn.name:
            return True
    return False


def _self_calls(node, qual, method=False):
    """Qualified names of the functions under the node that call
    themselves."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{qual}.{child.name}"
            if _calls_itself(child, method):
                found.append(name)
            found += _self_calls(child, name)
        elif isinstance(child, ast.ClassDef):
            found += _self_calls(child, f"{qual}.{child.name}", method=True)
        else:
            found += _self_calls(child, qual, method)
    return found


def test_no_unbounded_recursion():
    # Python's recursion limit caps a search whose depth grows with its
    # input, so such searches keep an explicit stack
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _self_calls(ast.parse(path.read_text()), path.stem)
    assert found == []


def test_runtime_imports_stdlib_or_numpy():
    # numpy is the only runtime dependency (pyproject.toml); relative
    # imports stay inside the package
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.stem}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []


def test_private_names_have_callers():
    # an underscore-named function, method or class that nothing in the
    # package names outside its own definition is a dead helper
    defs, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defs.append((node.name, path, node.lineno,
                                 node.end_lineno))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.append((name, path, node.lineno))
    dead = [f"{path.stem}.{name}" for name, path, first, last in defs
            if not any(used == name and not (where == path
                                             and first <= line <= last)
                       for used, where, line in uses)]
    assert dead == []
