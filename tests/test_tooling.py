"""Checks on the source itself: the benchmark tracer names only functions
and methods that exist in rtlab, so a rename in the package cannot
silently break a traced run, no search recurses to a depth that grows
with its input, the package imports nothing but the standard library
and numpy, no private helper is left without a caller, no public
function, class or method is reached by tests alone, and only the
membership rechecks read the `edges` view of the edge array."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCH / "tracer.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rtlab"

# public names that only tests call, each kept for the reason given
ENTRY_POINTS = {
    "read_partition": "the only reader of the `sphere partition --out` "
                      "format that README documents",
    "check_p4": "the scalar reference that p4_best_margin's vectorised "
                "kernel is tested against",
}

# the functions that read a graph's `edges` frozenset view; every search
# reads `edge_array`
EDGES_READERS = {"recheck_cores", "recheck_sparse_pattern",
                 "recheck_f_witness"}


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


def _uses(path, strings=False):
    """(name, path, line) of every name and attribute in the file, and
    with `strings` of every string constant (the tracer names the
    functions it patches by string)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, path, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, path, node.lineno
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield node.value, path, node.lineno


def _uncalled(defs, uses):
    """The (name, path, first line, last line) definitions that no use
    names outside their own lines."""
    return [f"{path.stem}.{name}" for name, path, first, last in defs
            if not any(used == name and not (where == path
                                             and first <= line <= last)
                       for used, where, line in uses)]


def test_private_names_have_callers():
    # an underscore-named function, method or class that nothing in the
    # package names outside its own definition is a dead helper
    defs, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.endswith("__")):
                defs.append((node.name, path, node.lineno, node.end_lineno))
        uses += _uses(path)
    assert _uncalled(defs, uses) == []


def _public_defs(body):
    """The public functions and classes of the module body, and the
    public methods of its classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in body:
        if (isinstance(node, (*functions, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (method for method in node.body
                        if isinstance(method, functions)
                        and not method.name.startswith("_"))


def test_public_names_have_callers():
    # a top-level public function or class, or a public method of a
    # package class, must be named by the package outside its definition
    # (re-exports in __init__.py do not count) or by the benchmark,
    # unless it is one of the ENTRY_POINTS
    defs, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _public_defs(ast.parse(path.read_text()).body):
            defs.append((node.name, path, node.lineno, node.end_lineno))
        if path.name != "__init__.py":
            uses += _uses(path)
    for path in sorted(BENCH.glob("*.py")):
        uses += _uses(path, strings=True)
    # exactly the ENTRY_POINTS lack a caller, so the list cannot go stale
    assert _uncalled(defs, uses) == [f"{path.stem}.{name}"
                                     for name, path, *_ in defs
                                     if name in ENTRY_POINTS]


def test_searches_read_the_edge_array():
    # the attribute `edges` is read only inside EDGES_READERS (its
    # definition is a method, not an attribute), and the tuple list
    # `sorted_edges` is gone
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        readers = [(fn.lineno, fn.end_lineno) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and fn.name in EDGES_READERS]
        found += [f"{path.stem}:{node.lineno}: .edges"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "edges"
                  and not any(first <= node.lineno <= last
                              for first, last in readers)]
        found += [f"{path.stem}:{fn.lineno}: def sorted_edges"
                  for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name == "sorted_edges"]
        found += [f"{path.stem}:{line}: sorted_edges"
                  for name, _, line in _uses(path) if name == "sorted_edges"]
    assert found == []
