"""Layer spans and counters for the traced benchmark run.

`Tracer` wraps the public functions of every symcirc layer at each name a
module imports them under (``compilers.rigidify`` as well as
``symmetry.rigidify``), records a span whenever a call crosses into a layer
from outside it, and restores every original attribute on exit.  Calls made
from inside the same layer pass straight through, so a layer's span covers
exactly the time callers spent waiting on it.

Each span stores its name, start, end, parent span and item id in flat
arrays; they stay in memory and are written out by `write_spans` after the
run.  Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

LAYERS = ("exactnum", "pattern", "width", "circuit", "symmetry", "compilers",
          "oracle", "reduce", "cli")

# Metric groups: every layer, with circuit evaluation and expansion split out.
GROUPS = ("exactnum", "pattern", "width", "circuit", "circuit.expand", "circuit.evaluate",
          "symmetry", "compilers", "oracle", "reduce", "cli")

# Public methods wrapped as layer entry points, beside every public module-level
# function.  Cheap accessors (num_gates, adjacency, ...) stay unwrapped: they are
# called per gate from other layers and their spans would cost more than they show.
METHODS = {
    "circuit": {"Circuit": ("evaluate", "expand_symbolic", "validate", "to_json", "serialize",
                            "from_json", "deserialize", "to_dot"),
                "CircuitBuilder": ("finish",)},
    "pattern": {"BipartiteMultigraph": ("canonical_key", "from_json")},
    "symmetry": {"SymmetryAnalysis": ("orbits", "max_orbit", "minimal_support", "all_supports",
                                      "max_support", "support_depth")},
}

# Module-level helpers left unwrapped for the same reason: variable-name
# formatting and parsing run once per gate inside compilers and symmetry.
HELPERS = {"circuit": ("var_name", "parse_var_name", "colour_var_name")}

# Work counters reported with their units; rigidify's gates in and out are
# kept as well, for symmetry.rigidify_kept_ratio.
COUNTERS = {"exactnum.terms_out": "count", "circuit.gate_evals": "count",
            "oracle.maps_enumerated": "count", "pattern.graphs_out": "count",
            "width.dp_subsets": "count", "compilers.gates_out": "count",
            "symmetry.gates_analyzed": "count", "reduce.oracle_handle_calls": "count",
            "reduce.oracle_handle_s": "s", "cli.bytes_out": "bytes"}

WRAPPED = "__perfbench_wrapped__"


def _group(layer: str, qualname: str) -> str:
    if qualname == "Circuit.evaluate":
        return "circuit.evaluate"
    if qualname == "Circuit.expand_symbolic":
        return "circuit.expand"
    return layer


def _count(tracer: "Tracer", qualname: str, args, result):
    """Work counters computed from a crossing call's inputs and outputs."""
    add = tracer.add
    if qualname == "Circuit.evaluate":
        add("circuit.gate_evals", args[0].num_gates())
    elif qualname == "Circuit.expand_symbolic":
        add("exactnum.terms_out", result.num_terms())
    elif qualname == "hom_count":
        f, host = args[0], args[1]
        add("oracle.maps_enumerated", host.n ** f.a_count * host.m ** f.b_count)
    elif qualname == "hom_poly":
        f, n, m = args[0], args[1], args[2]
        add("oracle.maps_enumerated", n ** f.a_count * m ** f.b_count)
    elif qualname in ("colhom_eval", "coloured_hom_eval"):
        f, g = args[0], args[-1]
        colour = (lambda v: v + 1) if qualname == "colhom_eval" else args[1].__getitem__
        maps = 1
        for v in f.vertices():
            maps *= max(g.sizes[colour(v)], 1)
        add("oracle.maps_enumerated", maps)
    elif qualname == "enumerate_bipartite_multigraphs":
        add("pattern.graphs_out", len(result))
    elif qualname in ("treewidth_exact", "pathwidth_exact", "treedepth_exact"):
        add("width.dp_subsets", 2 ** args[0].num_vertices())
    elif qualname.startswith("compile_"):
        add("compilers.gates_out", result.circuit.num_gates())
    elif qualname in ("rigidify", "analyze", "is_symmetric", "is_rigid",
                      "extend_to_automorphism"):
        gates_in = args[0].num_gates()
        add("symmetry.gates_analyzed", gates_in)
        if qualname == "rigidify":
            kept = result.num_gates()
        elif qualname == "analyze" and result.per_gate:
            kept = len(result.per_gate)
        else:
            return
        add("symmetry.rigidify_gates_in", gates_in)
        add("symmetry.rigidify_gates_out", kept)
    elif qualname.startswith("SymmetryAnalysis."):
        add("symmetry.gates_analyzed", args[0].circuit.num_gates())


class Tracer:
    """Spans and counters at the layer boundaries of one benchmark phase.

    Use as a context manager: entering installs the wrappers, leaving removes
    them and puts back every original attribute.
    """

    def __init__(self):
        self.names = []
        self.span_id = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.item = -1
        self.self_s = dict.fromkeys(GROUPS, 0.0)
        self.calls = dict.fromkeys(GROUPS, 0)
        self.errors = dict.fromkeys(GROUPS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.counters.update({"symmetry.rigidify_gates_in": 0, "symmetry.rigidify_gates_out": 0})
        self.top_level_s = 0.0
        self._stack = []  # [span id, layer, time covered by children]
        self._next_id = 0
        self._patched = []  # (owner, attribute name, original value)

    # -- counters -------------------------------------------------------------

    def add(self, key: str, amount) -> None:
        self.counters[key] += amount

    # -- wrappers -------------------------------------------------------------

    def wrap(self, layer: str, qualname: str, fn):
        """A wrapper recording one span per call that crosses into `layer`."""
        name_id = len(self.names)
        self.names.append(f"{layer}.{qualname}")
        group = _group(layer, qualname)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [self._next_id, layer, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[group] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[group] += duration - frame[2]
                self.calls[group] += 1
                if stack:
                    stack[-1][2] += duration
                else:
                    self.top_level_s += duration
                self.span_id.append(frame[0])
                self.span_name.append(name_id)
                self.span_start.append(start)
                self.span_end.append(end)
                self.span_parent.append(parent)
                self.span_item.append(self.item)
            if kwargs:
                args = tuple(inspect.signature(fn).bind(*args, **kwargs).arguments.values())
            _count(self, qualname, args, result)
            return result

        setattr(wrapper, WRAPPED, fn)
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _handle_call(self, fn):
        """OracleHandle.__call__: count calls and inclusive time, no span."""
        clock = time.perf_counter
        counters = self.counters

        def wrapper(handle, host):
            start = clock()
            try:
                return fn(handle, host)
            finally:
                counters["reduce.oracle_handle_calls"] += 1
                counters["reduce.oracle_handle_s"] += clock() - start

        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        modules = {layer: sys.modules[f"symcirc.{layer}"] for layer in LAYERS}
        replacement = {}
        for layer, module in modules.items():
            for name, value in vars(module).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == module.__name__
                        and name not in HELPERS.get(layer, ())):
                    replacement[id(value)] = self.wrap(layer, name, value)
        # Rebind every module-level name that refers to a wrapped function, so
        # `from .symmetry import rigidify` in compilers is covered too.
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if id(value) in replacement and inspect.isfunction(value):
                    self._patch(module, name, replacement[id(value)])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for method in methods:
                    raw = cls.__dict__[method]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self.wrap(layer, f"{cls_name}.{method}", raw.__func__))
                    else:
                        wrapped = self.wrap(layer, f"{cls_name}.{method}", raw)
                    self._patch(cls, method, wrapped)
        handle = modules["reduce"].OracleHandle
        self._patch(handle, "__call__", self._handle_call(handle.__dict__["__call__"]))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------------

    def metrics(self, phase_s: float) -> dict:
        """Per-layer metrics over a traced phase that lasted `phase_s` seconds."""
        out = {"bench.self_s": (phase_s - self.top_level_s, "s")}
        for group in GROUPS:
            out[f"{group}.self_s"] = (self.self_s[group], "s")
            out[f"{group}.calls"] = (self.calls[group], "count")
            out[f"{group}.errors"] = (self.errors[group], "count")
        c = self.counters
        out.update({key: (c[key], unit) for key, unit in COUNTERS.items()})
        gates_in = c["symmetry.rigidify_gates_in"]
        out["symmetry.rigidify_kept_ratio"] = (
            c["symmetry.rigidify_gates_out"] / gates_in if gates_in else 0.0, "ratio")
        return out

    def write_spans(self, fh, phase: str) -> int:
        """Write every span as a CSV row tagged `phase`; returns the count."""
        names = self.names
        for sid, nid, start, end, parent, item in zip(
                self.span_id, self.span_name, self.span_start, self.span_end,
                self.span_parent, self.span_item):
            fh.write(f"{phase},{sid},{names[nid]},{start:.9f},{end:.9f},{parent},{item}\n")
        return len(self.span_id)
