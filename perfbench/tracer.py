"""Spans around rtlab's public functions, recorded from outside the package.

`Tracer.install()` replaces every traced function at each of its import
sites (every `rtlab.*` module namespace that holds the same function
object, including re-exports) and the traced methods on their classes, so
calls from inside the package are caught as well as calls from the
benchmark.  `uninstall()` puts the originals back.  Spans stay in memory
as (id, parent, name, start, end) until the caller takes them.

This module imports nothing outside the standard library, so the CLI
child wrapper can load it before `import rtlab` and time that import.
"""

import functools
import sys
import time
from contextlib import contextmanager

# the public functions the workloads reach; span name = "<layer>.<function>",
# the layer being the rtlab module
FUNCTIONS = {
    "sphere": ["build_partition", "p4_best_margin", "find_eps_k",
               "cap_measure", "cap_intersection_measure_mc", "estimate_dt",
               "write_partition"],
    "hypergraph": ["blowup", "shadow", "clean_low_codegree",
                   "write_hypergraph", "read_hypergraph", "write_graph",
                   "read_graph"],
    "constructions": ["full_construction", "sphere_hypergraph",
                      "tuple_vertices", "random_blowup", "bollobas_erdos",
                      "shadow_first_parts", "optimize_a"],
    "verifiers": ["find_clique", "alpha_t", "hyper_independence",
                  "find_tk", "scan_split_core", "scan_sparse_patterns",
                  "sparse_pattern_doomed_edges", "density_report"],
    "drc": ["drc_find_set", "hyper_drc", "find_f_witness", "find_tkf5_tk4"],
    "reports": ["emit_report"],
}
METHODS = {
    "hypergraph": {"PartitionedHypergraph": ["pair_cover_index", "induced"],
                   "SimpleGraph": ["induced"]},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return traced

    def install(self):
        """Wrap the traced functions and methods of the loaded rtlab modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, names in FUNCTIONS.items():
            mod = sys.modules[f"rtlab.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self.wrap(fn, f"{layer}.{name}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rtlab" and not mod_name.startswith("rtlab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for layer, classes in METHODS.items():
            mod = sys.modules[f"rtlab.{layer}"]
            for cls_name, names in classes.items():
                cls = getattr(mod, cls_name)
                for name in names:
                    fn = vars(cls)[name]
                    self._patched.append((cls, name, fn))
                    setattr(cls, name, self.wrap(fn, f"{layer}.{name}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def take(self):
        """Hand over the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# span arithmetic


def graft(spans, child_spans, parent):
    """Append spans recorded in another process below span `parent`."""
    base = len(spans)
    for sid, par, name, start, end in child_spans:
        spans.append([base + sid, parent if par is None else base + par,
                      name, start, end])


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    own = [s[4] - s[3] for s in spans]
    for sid, parent, _, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_self_times(spans):
    """Self time summed per layer (the part of the span name before '.')."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span[2].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def covered_time(spans, names):
    """Wall time covered by spans with any of the given names (nested
    spans of the same group are counted once)."""
    names = set(names)
    total = 0.0
    for sid, parent, name, start, end in spans:
        if name not in names:
            continue
        p = parent
        while p is not None and spans[p][2] not in names:
            p = spans[p][1]
        if p is None:
            total += end - start
    return total


def count(spans, name):
    return sum(1 for s in spans if s[2] == name)
