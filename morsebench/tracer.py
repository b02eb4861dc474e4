"""Outside-in tracing of morseflow's layers.

The tracer replaces public functions of the package with wrappers at run
time; nothing under ``src/`` is edited.  A function imported by name into
another module (``from .geometry.flow import flow``) is a separate binding,
so every module of the package is scanned and each binding of the original
object is replaced.  ``reconcile`` then checks that no call path escaped:
every integrator call must sit under a wrapped ``flow`` or
``fixed_time_flow`` call.

Layer-boundary calls become spans (name, start, end, parent, operation id),
kept in memory and written out once at the end.  The field, projection and
distance kernels run more than a million times per operation, so they are
only counted and timed; their time is charged to the enclosing span as
child time, so a span's self time is its duration minus its child spans and
kernel calls.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class _Frame:
    __slots__ = ("sid", "name", "layer", "start", "child", "flows",
                 "kids", "outer")

    def __init__(self, sid, name, layer, start, outer):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0        # time covered by child spans and kernels
        self.flows = 0          # integrator calls underneath
        self.kids = []          # (name, start) of direct child spans
        self.outer = outer      # first open span of its layer


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.calls = Counter()
        self.total = defaultdict(float)     # name -> summed span time
        self.self_time = defaultdict(float)
        self.layer_time = defaultdict(float)
        self.kernel_calls = Counter()
        self.kernel_time = defaultdict(float)
        self.values = Counter()             # steps, nodes, lines, ...
        self.gate_rerun = 0.0
        self._in_kernel = False
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name, layer):
        outer = not any(fr.layer == layer for fr in self.stack)
        fr = _Frame(len(self.spans), name, layer, _clock(), outer)
        self.spans.append(None)
        if self.stack:
            self.stack[-1].kids.append((name, fr.start))
        self.stack.append(fr)
        return fr

    def _close(self, fr):
        end = _clock()
        self.stack.pop()
        dur = end - fr.start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += dur
        self.spans[fr.sid] = (fr.sid, fr.name, fr.start, end,
                              parent.sid if parent else None, self.op)
        self.calls[fr.name] += 1
        self.total[fr.name] += dur
        self.self_time[fr.name] += dur - fr.child
        if fr.outer:
            self.layer_time[fr.layer] += dur
        if fr.name == "counting.count_flow_lines":
            starts = [s for n, s in fr.kids
                      if n == "counting.find_connections"]
            if len(starts) > 1:     # the second search is the 2k rerun
                self.gate_rerun += end - starts[1]
        if fr.name == "counting.find_connections":
            self.values["find_connections.flows"] += fr.flows

    def _span_wrapper(self, name, layer, fn, before=None, after=None):
        tracer = self

        def wrapped(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            fr = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(fr)
            if after is not None:
                after(tracer, fr, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _kernel_wrapper(self, name, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            if tracer._in_kernel:
                return fn(*args, **kwargs)
            tracer._in_kernel = True
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                tracer._in_kernel = False
                tracer.kernel_calls[name] += 1
                tracer.kernel_time[name] += dt
                if tracer.stack:
                    tracer.stack[-1].child += dt

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, name, layer, before=None,
                        after=None):
        """Wrap ``module.attr`` and every other binding of the same object
        in any loaded morseflow module."""
        orig = getattr(module, attr)
        wrapped = self._span_wrapper(name, layer, orig, before, after)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "morseflow"
                                   or modname.startswith("morseflow.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, wrapped)

    def _patch_method(self, cls, attr, name, layer, kernel=False):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                self._span_wrapper(name, layer, raw.__func__))
        elif kernel:
            wrapped = self._kernel_wrapper(name, raw)
        else:
            wrapped = self._span_wrapper(name, layer, raw)
        self._set(cls, attr, wrapped)

    def install(self):
        """Wrap the public boundaries of every layer.  Call after importing
        ``morseflow`` and its submodules."""
        cli = importlib.import_module("morseflow.cli")
        complexes = importlib.import_module("morseflow.complexes")
        counting = importlib.import_module("morseflow.counting")
        fatgraph = importlib.import_module("morseflow.fatgraph")
        F = importlib.import_module("morseflow.geometry.flow")
        manifolds = importlib.import_module("morseflow.geometry.manifolds")
        operations = importlib.import_module("morseflow.operations")
        systems = importlib.import_module("morseflow.geometry.systems")

        # integrator layer
        self._patch_function(F, "integrate", "flow.integrate", "flow",
                             before=_before_integrate, after=_after_integrate)
        self._patch_function(F, "flow", "flow.flow", "flow",
                             before=_before_flow)
        self._patch_function(F, "fixed_time_flow", "flow.fixed_time_flow",
                             "flow", before=_before_fixed_time)
        self._patch_function(F, "transport_frame", "flow.transport_frame",
                             "flow")
        # field and chart kernel: counted, not spanned
        self._patch_method(systems.MorseSystem, "field", "geometry.field",
                           None, kernel=True)
        self._patch_method(operations.AuxiliaryFunction, "field",
                           "geometry.field", None, kernel=True)
        for cls in (manifolds.ManifoldModel, manifolds.SphereModel,
                    manifolds.TorusModel, manifolds.ProductModel):
            for attr in ("project", "distances"):
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, "geometry." + attr, None,
                                       kernel=True)
        # counting
        for attr in ("count_flow_lines", "connection_sign", "point_at_time",
                     "continuation", "relative_complex"):
            self._patch_function(counting, attr, "counting." + attr,
                                 "counting")
        self._patch_function(counting, "boundary_operator",
                             "counting.boundary_operator", "counting",
                             after=_after_boundary)
        self._patch_function(counting, "find_connections",
                             "counting.find_connections", "counting",
                             after=_after_find)
        # operations
        for attr in ("pushforward", "umkehr", "graph_flow_count",
                     "operation_table", "diagram_flow_operation"):
            self._patch_function(operations, attr, "operations." + attr,
                                 "operations")
        # complexes and fatgraph
        for attr in ("homology", "chain_map_defect", "split_complex"):
            self._patch_function(complexes, attr, "complexes." + attr,
                                 "complexes")
        self._patch_method(fatgraph.FatGraph, "from_vertex_cycles",
                           "fatgraph.FatGraph.from_vertex_cycles", "fatgraph")
        self._patch_method(fatgraph.ChordDiagram, "__init__",
                           "fatgraph.ChordDiagram", "fatgraph")
        # command line
        self._patch_function(cli, "main", "cli.main", "cli")
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def counters(self):
        """Deterministic work counts: equal across runs of equal inputs."""
        out = {"calls." + k: v for k, v in self.calls.items()}
        out.update({"kernel." + k: v for k, v in self.kernel_calls.items()})
        out.update(self.values)
        return dict(sorted(out.items()))

    def reconcile(self):
        """Problems found by the import-site check (empty when sound)."""
        problems = []
        integrate = self.calls["flow.integrate"]
        v = self.values
        seen = v["flow.strict"] + v["flow.loose"] + v["flow.fixed_time"] \
            - v["flow.fixed_time.zero"]
        if integrate != seen:
            problems.append(
                "flow.integrate ran %d times but the flow/fixed_time_flow "
                "wrappers saw %d integrating calls; an import site is "
                "unpatched" % (integrate, seen))
        if self.values["integrate.stray"]:
            problems.append("%d integrator calls had no wrapped caller"
                            % self.values["integrate.stray"])
        if self.stack:
            problems.append("spans left open: %s"
                            % [fr.name for fr in self.stack])
        return problems

    def layer_metrics(self):
        """The per-layer metrics named in BENCHMARK.json."""
        calls, total, v = self.calls, self.total, self.values
        kernel = self.kernel_calls
        steps = v["flow.steps"]

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "flow.integrate.calls": calls["flow.integrate"],
            "flow.steps": steps,
            "flow.integrate.self_s": self.self_time["flow.integrate"],
            "flow.us_per_step": ratio(total["flow.integrate"], steps) * 1e6,
            "flow.loose.calls": v["flow.loose"],
            "flow.strict.calls": v["flow.strict"],
            "flow.fixed_time.calls": v["flow.fixed_time"],
            "flow.transport.calls": calls["flow.transport_frame"],
            "flow.transport.s": total["flow.transport_frame"],
            "flow.recorded_nodes": v["flow.recorded_nodes"],
            "geometry.field.calls": kernel["geometry.field"],
            "geometry.field.s": self.kernel_time["geometry.field"],
            "geometry.field_per_step": ratio(kernel["geometry.field"], steps),
            "geometry.project.calls": kernel["geometry.project"],
            "geometry.distances.calls": kernel["geometry.distances"],
            "counting.gate_rerun.s": self.gate_rerun,
            "counting.lines_found": v["counting.lines_found"],
            "counting.flows_per_line": ratio(v["find_connections.flows"],
                                             v["counting.lines_found"]),
            "operations.verify_complexes": v["operations.verify_complexes"],
            "complexes.s": self.layer_time["complexes"],
            "complexes.homology.calls": calls["complexes.homology"],
            "fatgraph.s": self.layer_time["fatgraph"],
            "cli.main.s": total["cli.main"],
            "cli.self_s": self.self_time["cli.main"],
        }
        for span in ("counting.count_flow_lines", "counting.find_connections",
                     "counting.point_at_time", "counting.boundary_operator",
                     "operations.graph_flow_count"):
            out[span + ".calls"] = calls[span]
        for span in ("counting.count_flow_lines", "counting.find_connections",
                     "counting.connection_sign", "counting.point_at_time",
                     "counting.boundary_operator", "counting.continuation",
                     "operations.pushforward", "operations.umkehr",
                     "operations.graph_flow_count",
                     "operations.operation_table"):
            out[span + ".s"] = total[span]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- per-function hooks ------------------------------------------------------

def _before_integrate(tracer, args, kwargs):
    for open_fr in tracer.stack:
        open_fr.flows += 1
    parent = tracer.stack[-1].name if tracer.stack else None
    if parent not in ("flow.flow", "flow.fixed_time_flow"):
        tracer.values["integrate.stray"] += 1


def _after_integrate(tracer, fr, args, kwargs, result):
    tracer.values["flow.steps"] += int(result.steps)
    tracer.values["flow.recorded_nodes"] += len(result.times)


def _before_flow(tracer, args, kwargs):
    tracer.values["flow.loose" if kwargs.get("loose") else "flow.strict"] += 1


def _before_fixed_time(tracer, args, kwargs):
    tracer.values["flow.fixed_time"] += 1
    duration = args[2] if len(args) > 2 else kwargs["duration"]
    if duration == 0.0:     # returns at once, without integrating
        tracer.values["flow.fixed_time.zero"] += 1


def _after_find(tracer, fr, args, kwargs, result):
    tracer.values["counting.lines_found"] += len(result)


def _after_boundary(tracer, fr, args, kwargs, result):
    if any(open_fr.name in ("operations.pushforward", "operations.umkehr")
           for open_fr in tracer.stack):
        tracer.values["operations.verify_complexes"] += 1
