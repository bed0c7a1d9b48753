"""Checks on the source itself: the benchmark tracer names only functions
and methods that exist in rtlab, so a rename in the package cannot
silently break a traced run, no search recurses to a depth that grows
with its input, the package imports nothing but the standard library
and numpy, `bounds` and `capmeasure` nothing but the standard library
and names of the package's `__init__`, no private helper is left
without a caller, no public function, class or method is reached by
tests alone, no package code reads the `edges` view of the edge array,
only the hypergraph constructor converts the part labels, only the node
counter reads and spends the search budget, every clique walk counts on
a counter, the CLI's construction table names the `(params, partition)`
builders, every params field has a kind the CLI's params reader checks,
and every cap reaches the CLI's exit 3 as one exception through one
handler."""

import ast
import importlib
import inspect
import json
import sys
from dataclasses import fields
from pathlib import Path

from helpers import run_fresh
from rtlab import CapExceeded, constructions
from rtlab.cli import CONSTRUCTIONS, build_parser
from rtlab.constructions import ConstructionParams
from rtlab.drc import DrcParams

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

# the functions that read a graph's `edges` frozenset view: none, as the
# searches read `edge_array` and the rechecks look edges up by `contains`
EDGES_READERS = set()

# the calls that would convert the part labels again
LABEL_CONVERTERS = {"asarray", "array", "tuple", "list"}


# in a fresh interpreter, as tracer.install does: import rtlab.cli alone,
# take each layer from sys.modules and resolve each traced name through it;
# prints the names that do not resolve (tracer.py imports only the
# standard library, so it loads by path)
RESOLVE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import rtlab.cli
missing = []
for layer, names in tracer.FUNCTIONS.items():
    module = sys.modules[f"rtlab.{layer}"]
    missing += [f"rtlab.{layer}.{name}" for name in names
                if not callable(getattr(module, name, None))]
for layer, classes in tracer.METHODS.items():
    module = sys.modules[f"rtlab.{layer}"]
    for cls_name, names in classes.items():
        # the tracer patches methods found in the class namespace
        namespace = vars(getattr(module, cls_name))
        missing += [f"rtlab.{layer}.{cls_name}.{name}" for name in names
                    if not callable(namespace.get(name))]
print(json.dumps(missing))
"""


def test_tracer_names_resolve():
    proc = run_fresh(RESOLVE, str(TRACER))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


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


def test_closed_form_layers_import_stdlib_only():
    # `optimize`, `sphere eps-k` and `sphere cap-measure` run without
    # numpy: these layers import the standard library, and from the
    # package only names its `__init__` defines (it imports nothing),
    # never a module, which could import numpy
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    stdlib = sys.stdlib_module_names
    found = []
    for stem in ("bounds", "capmeasure"):
        for node in ast.walk(ast.parse((PACKAGE / f"{stem}.py").read_text())):
            if isinstance(node, ast.Import):
                bad = [alias.name for alias in node.names
                       if alias.name.split(".")[0] not in stdlib]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                bad = ([node.module] if node.module.split(".")[0] not in stdlib
                       else [])
            elif isinstance(node, ast.ImportFrom):
                bad = [f"{'.' * node.level}{node.module or ''} {alias.name}"
                       for alias in node.names if node.module
                       or node.level > 1 or alias.name in modules]
            else:
                continue
            found += [f"{stem}: {name}" for name in bad]
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
    # `construct` calls the builders its table names, through getattr
    uses += [(name, PACKAGE / "cli.py", 0) for name in CONSTRUCTIONS.values()]
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


def _names(node):
    """The names and attributes in the node's subtree."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_labels_are_converted_once():
    # PartitionedHypergraph.__init__ stores `part_of` as an int64 array;
    # no other code of the package wraps it in a LABEL_CONVERTERS call
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        store = [(fn.lineno, fn.end_lineno) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef)
                 and cls.name == "PartitionedHypergraph"
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)
                 and fn.name == "__init__"]
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and call.args):
                continue
            func = call.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if (name in LABEL_CONVERTERS and "part_of" in _names(call.args[0])
                    and not any(first <= call.lineno <= last
                                for first, last in store)):
                found.append(f"{path.stem}:{call.lineno}: {name}(part_of)")
    assert found == []


def test_budget_is_kept_by_the_counter():
    # `_Counter.__init__` alone reads the budget (the string RTLAB_BUDGET
    # and the name DEFAULT_BUDGET), and `_Counter.tick` alone raises
    # BudgetExceeded, so no search resolves or spends a budget its own way
    found, methods = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        spans = {fn.name: (fn.lineno, fn.end_lineno) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name == "_Counter"
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        methods.update(spans)
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(node, ast.Constant) and node.value == "RTLAB_BUDGET":
                what, home = "'RTLAB_BUDGET'", "__init__"
            elif (name == "DEFAULT_BUDGET"
                  and not isinstance(node.ctx, ast.Store)):
                what, home = "DEFAULT_BUDGET", "__init__"
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "BudgetExceeded"):
                what, home = "BudgetExceeded()", "tick"
            else:
                continue
            first, last = spans.get(home, (0, -1))
            if not first <= node.lineno <= last:
                found.append(f"{path.stem}:{node.lineno}: {what}")
    assert {"__init__", "tick"} <= set(methods)
    assert found == []


def test_clique_walks_count_on_a_counter():
    # every call of `_cliques` passes its fourth argument, the counter,
    # and no package code compares a `counter` with None, so no walk
    # runs outside the node budget
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_cliques"
                    and len(node.args) < 4
                    and "counter" not in {k.arg for k in node.keywords}):
                found.append(f"{path.stem}:{node.lineno}: _cliques()")
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if (any(getattr(n, "id", getattr(n, "attr", None))
                        == "counter" for n in sides)
                        and any(isinstance(n, ast.Constant) and n.value is None
                                for n in sides)):
                    found.append(f"{path.stem}:{node.lineno}: "
                                 "counter vs None")
    assert found == []


def test_construction_table_names_the_builders():
    # `construct --type` offers exactly the table's keys; each value names
    # a `constructions` function called as (params, partition); the table
    # stays a literal of strings, so the parser does not run
    # `constructions`
    sub = next(a for a in build_parser()._actions
               if a.dest == "command").choices["construct"]
    (kind,) = [a for a in sub._actions if a.dest == "type"]
    assert list(kind.choices) == list(CONSTRUCTIONS)
    for name in CONSTRUCTIONS.values():
        params = list(inspect.signature(getattr(constructions, name)).parameters)
        assert params[:2] == ["params", "partition"], name
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    (table,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["CONSTRUCTIONS"]]
    assert isinstance(table, ast.Dict)
    assert all(isinstance(node, ast.Constant) and isinstance(node.value, str)
               for node in table.keys + table.values)


def test_params_fields_have_checked_kinds():
    # the CLI's params reader checks an int, a float and either of them
    # or None, so a field of another kind would reach the params unchecked
    kinds = {int, float, int | None, float | None}
    assert [f"{cls.__name__}.{f.name}" for cls in (ConstructionParams, DrcParams)
            for f in fields(cls) if f.type not in kinds] == []


def test_caps_reach_exit_3_through_one_handler():
    # `main` maps input errors, caps and everything else to exits 2, 3
    # and 4, each in one handler; no command catches a package exception
    # but `verify --check alpha_t --bound`, whose budget-out can still
    # prove a violation; and every exception the package defines is an
    # input error or a cap, so no other refusal can reach exit 4
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    (call,) = [node for node in ast.walk(functions["main"])
               if isinstance(node, ast.Try)
               and "args.func(args)" in ast.unparse(node.body)]
    assert [ast.unparse(h.type) for h in call.handlers] == [
        "(OSError, ValueError)", "CapExceeded", "Exception"]
    caught = [(name, ast.unparse(node.type))
              for name, fn in functions.items() if name.startswith("_cmd_")
              for node in ast.walk(fn) if isinstance(node, ast.ExceptHandler)]
    assert caught == [("_cmd_verify", "ver.BudgetExceeded")]
    defined = {cls for path in sorted(PACKAGE.glob("*.py"))
               for cls in vars(importlib.import_module(
                   "rtlab" if path.stem == "__init__" else f"rtlab.{path.stem}"
               )).values()
               if isinstance(cls, type) and issubclass(cls, BaseException)
               and cls.__module__.startswith("rtlab")}
    assert CapExceeded in defined
    assert [cls.__qualname__ for cls in defined
            if not issubclass(cls, (ValueError, CapExceeded))] == []
