"""Seeded inputs and the operations of the workloads.

The parameters of draw ``i`` come from point ``i`` of a randomly shifted
Halton sequence in the unit cube: coordinate ``j`` is
``frac(h_j(i) + u_j)``, where ``h_j`` is the radical inverse in the j-th
prime base and the shift ``u`` is uniform from the seed.  Each draw is
uniform over the parameter box, as an independent draw would be, but the
first draws of a run already stratify every coordinate, so runs at
different seeds see the same mix of cheap, costly and failing inputs.

A draw is re-drawn only when a constructor rejects it with its documented
precondition error (``StructuralValidationError`` for a factor circle
through a critical point, ``TransversalityError`` for colliding diagram
labels); a re-draw takes a fresh point from
``numpy.random.default_rng([seed, i])`` and is counted.

Operations call the package through module attributes
(``mf.counting.boundary_operator``) so that the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import oracles

TWO_PI = 2.0 * math.pi
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".morsebench")

BAND_CFG = "kind sphere-band\ndim 2\neps 0.15\n"


class SourceMissing(RuntimeError):
    """The checkout holds no morseflow sources to benchmark."""


def require_sources():
    init = os.path.join(SRC, "morseflow", "__init__.py")
    if not os.path.isfile(init):
        raise SourceMissing("no morseflow package at %s" % init)


def load_morseflow():
    """Import morseflow from this checkout's ``src`` and nowhere else."""
    require_sources()
    sys.path.insert(0, SRC)
    names = ("cli", "complexes", "counting", "errors", "fatgraph",
             "geometry", "operations")
    mods = {n: importlib.import_module("morseflow." + n) for n in names}
    where = os.path.realpath(mods["cli"].__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SourceMissing("morseflow was imported from %s" % where)
    return SimpleNamespace(**mods)


@dataclass
class Operation:
    name: str
    run: object                  # () -> JSON-like output
    check: object                # (output, earlier outputs) -> [problems]
    parts: int = 1               # results graded apart, one problem per
                                 # wrong part


@dataclass
class Record:
    unit: int
    op: str
    status: str                  # ok | wrong | error
    seconds: float
    output: object               # output, or the error text
    problems: list = field(default_factory=list)
    parts: int = 1
    bad: int = 0                 # parts that failed


class CliExit(Exception):
    """The command line returned a nonzero status."""


# -- matrices and homology as plain values ------------------------------------

def _matrices(mats):
    return {str(p): [[int(v) for v in row] for row in m.tolist()]
            for p, m in sorted(mats.items())}


def _homology_summary(mf, cx):
    h = mf.complexes.homology(cx)
    degrees = cx.degrees()
    return {
        "generators": {str(p): list(cx.labels(p)) for p in degrees},
        "betti": {str(p): h.betti(p) for p in degrees},
        "torsion": {str(p): list(h.torsion(p)) for p in degrees},
        "differentials": {str(p): [[int(v) for v in row]
                                   for row in cx.map_from(p).tolist()]
                          for p in degrees if cx.map_from(p).size},
    }


# -- complexes ----------------------------------------------------------------

# Amplitudes of the ``complexes`` T2: the 0.005 grid over [0.6, 0.85].  Each
# gave the right complex at baseline, but amplitudes between grid points can
# raise CountInstabilityError (README.md, "Known defects"), and a measured
# workload must not fail; ``complexes-phased`` keeps the failing inputs.
AMPLITUDES = tuple(round(0.600 + 0.005 * k, 3) for k in range(51))


def _draw_complexes(mf, points):
    """The untranslated T2 of an amplitude from AMPLITUDES, picked
    uniformly; its complex is the Kuenneth product of two circle
    complexes."""
    a = AMPLITUDES[int(len(AMPLITUDES) * next(points)[0])]
    return _t2_draw(mf, a, np.zeros(2))


def _draw_complexes_phased(mf, points):
    """The T2 of amplitude a ~ U[0.4, 0.9], translated by phases uniform on
    the torus."""
    u = next(points)
    return _t2_draw(mf, 0.4 + 0.5 * float(u[0]), TWO_PI * u[1:3])


def _t2_draw(mf, a, phases):
    return SimpleNamespace(
        system=mf.geometry.torus_cosine(2, [1.0, a], phases=phases),
        label="a=%.4f phases=%s" % (a, phases.round(4).tolist()))


def _ops_complexes(mf, draw, index):
    ops = []
    if index == 0:
        ops.append(Operation("band-relative-cli", _band_cli(mf),
                             lambda out, done: oracles.check_band_cli(out)))

    def t2():
        return _homology_summary(
            mf, mf.counting.boundary_operator(draw.system))

    ops.append(Operation("t2-homology", t2,
                         lambda out, done: oracles.check_torus_homology(2,
                                                                        out)))
    return ops


def _band_cli(mf):
    path = os.path.join(OUT_DIR, "band.cfg")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(BAND_CFG)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mf.cli.main(["--json", "homology", path,
                                "--relative", "band:0.25"])
        if code != 0:
            raise CliExit("exit status %d: %s"
                          % (code, err.getvalue().strip()))
        return json.loads(out.getvalue())

    return run


# -- embedding maps -----------------------------------------------------------

def _draw_embedding(mf, points):
    for u in points:
        phases = TWO_PI * u[0:2]
        axis = int(2 * u[2])
        level = TWO_PI * float(u[3])
        circle_phase = TWO_PI * float(u[4])
        target_phases = TWO_PI * u[5:7]
        t2 = mf.geometry.torus_cosine(2, [1.0, 0.7], phases=phases)
        try:
            emb = mf.operations.torus_factor_circle(
                t2, fixed_axis=axis, level=level, phase=circle_phase)
        except mf.errors.StructuralValidationError:
            continue
        target = mf.geometry.torus_cosine(2, [1.0, 0.7], phases=target_phases)
        return SimpleNamespace(
            system=t2, embedding=emb, target=target,
            label="phases=%s axis=%d level=%.4f" % (
                phases.round(4).tolist(), axis, level))


def _ops_embedding(mf, draw, index):
    def push():
        return _matrices(mf.operations.pushforward(draw.embedding))

    def umkehr():
        return _matrices(mf.operations.umkehr(draw.embedding))

    def cont():
        return _matrices(mf.counting.continuation(draw.system, draw.target))

    return [
        Operation("pushforward", push,
                  lambda out, done: oracles.check_pushforward(out)),
        Operation("umkehr", umkehr,
                  lambda out, done: oracles.check_umkehr(
                      out, done.get("pushforward"))),
        Operation("continuation", cont,
                  lambda out, done: oracles.check_continuation(out)),
    ]


# -- figure-8 operation table -------------------------------------------------

# the labels of the figure-8 acceptance test, criterion 7 (in1, in2, out)
FIG8_PHASES = np.array([(0.0, 0.0), (0.9, 1.3), (-0.7, 0.55)])
# Torus shifts of those labels, in turns: the 4 x 4 grid of quarter turns.
# Each gave the right table at baseline; the shifts are a grid, not uniform,
# for the same reason as AMPLITUDES.
FIG8_SHIFTS = tuple((j / 4, k / 4) for j in range(4) for k in range(4))


def _draw_fig8(mf, points):
    """The criterion-7 labels, all translated by one shift from
    FIG8_SHIFTS, picked uniformly.  A common shift keeps every distance
    between the labels' critical points, so it never collides them."""
    for u in points:
        shift = FIG8_SHIFTS[int(len(FIG8_SHIFTS) * u[0])]
        draw = _fig8_draw(mf, (FIG8_PHASES + TWO_PI * np.array(shift))
                          % TWO_PI)
        if draw is not None:
            return draw


def _draw_fig8_phased(mf, points):
    """Three labels with independent phases, uniform on the torus."""
    for u in points:
        draw = _fig8_draw(mf, TWO_PI * u.reshape(3, 2))
        if draw is not None:
            return draw


def _fig8_draw(mf, phases):
    """The figure-8 problem on T2 labels with these phases, or None when
    the constructor finds two labels' critical points colliding."""
    labels = [mf.geometry.torus_cosine(2, [1.0, 0.7], phases=ph, name=nm)
              for ph, nm in zip(phases, ("in1", "in2", "out"))]
    graph = mf.fatgraph.FatGraph.from_vertex_cycles(
        pairs=[(0, 1), (2, 3)], vertex_cycles=[(0, 3, 2, 1)])
    try:
        problem = mf.operations.FlowGraphProblem(
            mf.fatgraph.ChordDiagram(graph), labels[:2], labels[2:])
    except mf.errors.TransversalityError:
        return None
    return SimpleNamespace(problem=problem,
                           label="phases=%s" % phases.round(4).tolist())


def _ops_fig8(mf, draw, index):
    def table():
        tab = mf.operations.operation_table(draw.problem, edge_time=0.0)
        return {"%s,%s" % key: {k: int(v) for k, v in sorted(row.items())}
                for key, row in sorted(tab.items())}

    # each product of two basis classes is one graded result
    return [Operation("operation-table", table,
                      lambda out, done: oracles.check_operation_table(out),
                      parts=len(oracles.torus_intersection_table()))]


# -- registry -----------------------------------------------------------------

@dataclass
class Workload:
    name: str
    dims: int             # parameters per draw
    draw: object          # (mf, iterator of points in [0, 1)^dims) -> draw
    ops: object
    pool: int             # draws built during set-up
    trace_units: int      # fixed work of a traced run


# complexes and fig8-table are the measured workloads (BENCHMARK.json); the
# others run the same operations on inputs where the program is known to
# fail or answer wrongly at baseline (README.md, "Known defects")
WORKLOADS = {
    "complexes": Workload("complexes", 1, _draw_complexes, _ops_complexes,
                          pool=16, trace_units=3),
    "complexes-phased": Workload("complexes-phased", 3,
                                 _draw_complexes_phased, _ops_complexes,
                                 pool=16, trace_units=3),
    "embedding-maps": Workload("embedding-maps", 7, _draw_embedding,
                               _ops_embedding, pool=4, trace_units=1),
    "fig8-table": Workload("fig8-table", 1, _draw_fig8, _ops_fig8,
                           pool=4, trace_units=1),
    "fig8-phased": Workload("fig8-phased", 6, _draw_fig8_phased, _ops_fig8,
                            pool=4, trace_units=1),
}


PRIMES = (2, 3, 5, 7, 11, 13, 17)


def radical_inverse(i, base):
    """``i`` written in ``base`` with its digits mirrored behind the
    radix point: the van der Corput sequence."""
    out, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        out += digit * scale
        scale /= base
    return out


class Inputs:
    """The seeded draw stream of one workload; the first ``pool`` draws
    are built up front, later ones on demand."""

    def __init__(self, mf, workload, seed, pool=None):
        self.mf = mf
        self.workload = workload
        self.seed = int(seed)
        self.redraws = 0
        self._shift = np.random.default_rng(self.seed).random(workload.dims)
        self._draws = []
        for i in range(workload.pool if pool is None else pool):
            self.draw(i)

    def _points(self, i):
        yield np.array([radical_inverse(i, b) for b in
                        PRIMES[:self.workload.dims]] + self._shift) % 1.0
        rng = np.random.default_rng([self.seed, i])
        while True:
            self.redraws += 1
            yield rng.random(self.workload.dims)

    def draw(self, i):
        while len(self._draws) <= i:
            points = self._points(len(self._draws))
            self._draws.append(self.workload.draw(self.mf, points))
        return self._draws[i]


def run_unit(mf, workload, inputs, index, on_op=None, log=None):
    """Run every operation of draw ``index``, each after the previous one
    has finished, and check each output against its oracle."""
    draw = inputs.draw(index)
    done = {}
    records = []
    for op_no, op in enumerate(workload.ops(mf, draw, index)):
        if on_op is not None:
            on_op(index, op_no)
        t0 = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a traceback is a defect: count it too
            documented = isinstance(exc, (mf.errors.MorseflowError, CliExit))
            rec = Record(index, op.name, "error", time.perf_counter() - t0,
                         "%s%s: %s" % ("" if documented else "uncaught ",
                                       type(exc).__name__, exc),
                         parts=op.parts, bad=op.parts)
        else:
            seconds = time.perf_counter() - t0
            problems = op.check(output, done)
            if not problems:
                done[op.name] = output
            rec = Record(index, op.name, "wrong" if problems else "ok",
                         seconds, output, problems, parts=op.parts,
                         bad=min(op.parts, len(problems)))
        records.append(rec)
        if log is not None:
            log("unit %d %-18s %-5s %7.2fs  %s%s" % (
                index, op.name, rec.status, rec.seconds, draw.label,
                "" if rec.status == "ok" else "  | %s" % (
                    rec.problems or rec.output)))
    return records
