"""Batch command line: parse inputs, dispatch computations, emit tables.

Exit codes are stable: 0 success, 2 parse error (a malformed file or
command-line spec), 3 structural/validation or outside the supported
counting family, 4 counting incomplete, 5 transversality or count
instability, 1 other.  Under ``--json`` a failure is one JSON object on
stderr (``_error_payload``).
JSON output is key-sorted and the computations are deterministic, so
repeated runs emit identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import fatgraph as fg
from .complexes import RING_Z, RING_Z2, homology
from .counting import (
    band_region,
    boundary_operator,
    cap_region,
    connection_lines,
    empty_region,
    relative_complex,
)
from .errors import MorseflowError, ParseError, StructuralValidationError
from .geometry import (
    SphereModel,
    TorusModel,
    flow,
    parse_system_config,
    probe_limits,
)
from .geometry.bundles import (
    sphere_tangent_bundle,
    torus_tangent_bundle,
    trivial_bundle,
    whitney_sum_with_trivial,
)
from .operations import (
    FlowGraphProblem,
    diagram_flow_operation,
    euler_class,
    operation_table,
    pushforward,
    sphere_equator,
    thom_class,
    thom_complex,
    torus_factor_circle,
    umkehr,
)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))


def _write(path, lines):
    """Write ``lines`` to ``path``, one to a line; a path that cannot be
    written is a ParseError that names it."""
    try:
        with open(path, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise ParseError("cannot write %s: %s" % (path, exc))


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, default=_json_default))
    else:
        for line in text_lines:
            print(line)


def _error_payload(exc, code):
    """The ``--json`` form of a failure: the error's type, exit code and
    message, and its structured fields (``IntegrationError``'s flow state,
    ``UnsupportedPairError``'s pair, ...)."""
    return {"error": {"type": type(exc).__name__, "code": code,
                      "message": str(exc), "fields": vars(exc)}}


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError("not serializable: %r" % (obj,))


def _cycle_str(cyc):
    return "(" + " ".join(str(h) for h in cyc) + ")"


# -- graph commands ---------------------------------------------------------------

def cmd_graph(args):
    data = fg.parse_graph_file(_read(args.file))
    g = data.graph
    b = data.boundary_with_roles()
    if args.graph_cmd == "cycles":
        payload = {
            "cycles": [list(c) for c in b.cycles],
            "roles": list(b.roles),
            "euler_characteristic": g.euler_characteristic(),
        }
        lines = ["boundary cycles (%d):" % len(b.cycles)]
        for i, (cyc, role) in enumerate(zip(b.cycles, b.roles)):
            lines.append("  %d: %s  [%s]" % (i, _cycle_str(cyc), role))
        _emit(args, payload, lines)
    elif args.graph_cmd == "genus":
        if args.components:
            per = g.genus_by_component()
            payload = {"components": [{"genus": gg, "boundary_cycles": n}
                                      for gg, n in per]}
            lines = ["component %d: genus %d, %d boundary cycles"
                     % (i, gg, n) for i, (gg, n) in enumerate(per)]
        else:
            gg, n = g.genus()
            payload = {"genus": gg, "boundary_cycles": n,
                       "euler_characteristic": g.euler_characteristic()}
            lines = ["genus %d with %d boundary cycles (chi = %d)"
                     % (gg, n, g.euler_characteristic())]
        _emit(args, payload, lines)
    elif args.graph_cmd == "validate":
        d = fg.ChordDiagram(g, data.ghost_edges,
                            roles=[data.roles.get(i, fg.OUTGOING)
                                   for i in range(len(b.cycles))]
                            if data.roles else None,
                            validate=False)
        report = fg.validate_chord_diagram(d)
        payload = {"ok": not report, "violations": report}
        lines = (["ok"] if not report
                 else ["violation: %s" % r for r in report])
        _emit(args, payload, lines)
        if report:
            return 3
    elif args.graph_cmd == "reduce":
        d = data.diagram()
        r = fg.reduce_diagram(d)
        roles = {i: role for i, role in enumerate(r.boundary.roles)}
        text = fg.format_graph_file(r.graph, roles=roles)
        payload = {"graph_file": text,
                   "euler_characteristic": r.graph.euler_characteristic(),
                   "incoming": r.incoming_count(),
                   "outgoing": r.outgoing_count()}
        _emit(args, payload, text.splitlines())
    elif args.graph_cmd == "admissible":
        ok = fg.is_admissible(g, b)
        payload = {"admissible": bool(ok)}
        _emit(args, payload, ["admissible" if ok else "not admissible"])
    return 0


# -- geometry commands ---------------------------------------------------------------

def cmd_geom_probe(args):
    if args.seeds < 0:
        raise ParseError("--seeds must not be negative, not %d" % args.seeds)
    if args.seed < 0:
        raise ParseError("--seed must not be negative, not %d" % args.seed)
    system = parse_system_config(_read(args.config))
    stats = probe_limits(system, args.seeds, seed=args.seed)
    payload = {"system": system.name, "seeds": args.seeds,
               "forward": stats["forward"], "backward": stats["backward"],
               "unresolved": stats["unresolved"]}
    lines = ["%s: %d seeds" % (system.name, args.seeds),
             "forward limits:"]
    for name in sorted(stats["forward"]):
        lines.append("  %s: %d" % (name, stats["forward"][name]))
    lines.append("backward limits:")
    for name in sorted(stats["backward"]):
        lines.append("  %s: %d" % (name, stats["backward"][name]))
    lines.append("unresolved: %d" % stats["unresolved"])
    _emit(args, payload, lines)
    if args.trajectories_csv:
        rng = np.random.default_rng(args.seed)
        flows = [flow(system, system.manifold.random_point(rng), +1)
                 for _ in range(min(args.seeds, 8))]
        _write_trajectories_csv(args.trajectories_csv, system,
                                ((r.times, r.points) for r in flows))
    return 0


def _write_trajectories_csv(path, system, paths):
    """One row per node of each (times, points) path."""
    cols = ["trajectory", "t"] + \
        ["x%d" % i for i in range(system.manifold.coord_dim)] + ["f"]
    rows = [[k, t] + list(pt) + [system.f(pt)]
            for k, (times, points) in enumerate(paths)
            for t, pt in zip(times, points)]
    _write(path, [",".join(cols)]
           + [",".join("%.12g" % v for v in row) for row in rows])


def cmd_geom_connections(args):
    system = parse_system_config(_read(args.config))
    x = system.point(args.source)
    y = system.point(args.target)
    found = connection_lines(system, x, y)
    dirs = [u for u, _times, _pts in found]
    payload = {"source": args.source, "target": args.target,
               "count": len(dirs),
               "directions": [list(map(float, u)) for u in dirs]}
    lines = ["%d flow line(s) from %s to %s"
             % (len(dirs), args.source, args.target)]
    _emit(args, payload, lines)
    if args.csv:
        _write_trajectories_csv(
            args.csv, system, ((times, pts) for _u, times, pts in found))
    return 0


# -- homology ---------------------------------------------------------------------------

def _spec_value(spec, cast, text, valid=None, need=""):
    """``cast(text)`` for a field of the command-line spec ``spec``; a
    malformed field, or a value that ``valid`` rejects (``need`` says
    why), is a ParseError that names the spec."""
    try:
        value = cast(text)
    except ValueError:
        raise ParseError("malformed spec %r" % spec) from None
    if valid is not None and not valid(value):
        raise ParseError("malformed spec %r: %s" % (spec, need))
    return value


def _region_from_spec(spec):
    if spec in (None, "", "empty"):
        return empty_region()
    kind, _, value = spec.partition(":")
    if kind in ("cap", "band"):
        # a nan level holds no point and an infinite one every point
        level = _spec_value(spec, float, value, math.isfinite,
                            "the level must be finite")
        return (cap_region if kind == "cap" else band_region)(level)
    raise ParseError("unknown region spec %r (use empty|cap:C|band:C)" % spec)


def cmd_homology(args):
    system = parse_system_config(_read(args.config))
    ring = RING_Z2 if args.ring == "z2" else RING_Z
    if args.relative:
        pair = relative_complex(system, _region_from_spec(args.relative),
                                ring=ring)
        blocks = {"subcomplex": pair.sub, "quotient": pair.quotient,
                  "total": pair.total}
    else:
        blocks = {"total": boundary_operator(system, ring=ring)}
    payload = {"system": system.name, "ring": ring, "blocks": {}}
    lines = ["%s (ring %s)" % (system.name, ring)]
    homologies = {label: homology(cx) for label, cx in blocks.items()}
    for label, cx in sorted(blocks.items()):
        h = homologies[label]
        degrees = cx.degrees()
        entry = {
            "generators": {str(p): list(cx.labels(p)) for p in degrees},
            "betti": {str(p): h.betti(p) for p in degrees},
            "torsion": {str(p): list(h.torsion(p)) for p in degrees},
            "differentials": {str(p): cx.map_from(p).astype(int).tolist()
                              for p in degrees if cx.map_from(p).size},
        }
        payload["blocks"][label] = entry
        lines.append("%s:" % label)
        for p in degrees:
            tor = ("  torsion %s" % (h.torsion(p),)) if h.torsion(p) else ""
            lines.append("  H_%d: rank %d%s  (generators: %s)"
                         % (p, h.betti(p), tor, " ".join(cx.labels(p))))
    _emit(args, payload, lines)
    if args.matrices_out:
        lines = []
        for label, cx in sorted(blocks.items()):
            for p in cx.degrees():
                mat = cx.map_from(p)
                if not mat.size:
                    continue
                lines.append("# %s degree %d -> %d" % (label, p, p - 1))
                lines += [" ".join(str(int(v)) for v in row) for row in mat]
        _write(args.matrices_out, lines)
    if args.csv:
        lines = ["block,degree,betti,torsion,generators"]
        for label, cx in sorted(blocks.items()):
            h = homologies[label]
            for p in cx.degrees():
                lines.append("%s,%d,%d,%s,%s" % (
                    label, p, h.betti(p),
                    ";".join(str(t) for t in h.torsion(p)),
                    ";".join(cx.labels(p))))
        _write(args.csv, lines)
    return 0


# -- operations -----------------------------------------------------------------------

def _embedding_from_spec(system, spec):
    kind, _, rest = spec.partition(":")
    if kind == "factor":
        parts = rest.split(":") if rest else []
        axis = _spec_value(spec, int, parts[0], lambda a: a in (0, 1),
                           "the axis must be 0 or 1") if parts else 1
        level = (_spec_value(spec, float, parts[1], math.isfinite,
                             "the level must be finite")
                 if len(parts) > 1 else 2.0)
        phase = _spec_value(spec, float, parts[2]) if len(parts) > 2 else 0.3
        return torus_factor_circle(system, fixed_axis=axis, level=level,
                                   phase=phase)
    if kind == "equator":
        return sphere_equator(system)
    if kind == "identity":
        from .operations import identity_embedding
        return identity_embedding(system)
    raise ParseError("unknown embedding spec %r" % spec)


def _bundle_from_spec(system, spec):
    if spec == "tangent":
        man = system.manifold
        if isinstance(man, TorusModel):
            return torus_tangent_bundle(man)
        if isinstance(man, SphereModel):
            return sphere_tangent_bundle(man)
        raise StructuralValidationError(
            "--bundle tangent needs a torus or a sphere, not %r" % (man,))
    if spec.startswith("trivial:"):
        # one field: the rank
        return trivial_bundle(system.manifold, _spec_value(
            spec, int, spec.partition(":")[2], lambda rank: rank >= 0,
            "the rank must not be negative"))
    if spec == "tangent+trivial":
        return whitney_sum_with_trivial(_bundle_from_spec(system, "tangent"))
    raise ParseError("unknown bundle spec %r" % spec)


def _matrices_payload(mats):
    return {str(p): m.astype(int).tolist() for p, m in sorted(mats.items())}


def cmd_op(args):
    if args.op_cmd in ("push", "umkehr"):
        system = parse_system_config(_read(args.config))
        emb = _embedding_from_spec(system, args.embedding)
        mats = pushforward(emb) if args.op_cmd == "push" else umkehr(emb)
        payload = {"embedding": emb.name, "matrices": _matrices_payload(mats)}
        lines = ["%s matrices for %s:" % (args.op_cmd, emb.name)]
        for p in sorted(mats):
            lines.append("  degree %d: %s" % (p, mats[p].astype(int).tolist()))
        _emit(args, payload, lines)
        return 0
    if args.op_cmd in ("thom", "euler"):
        system = parse_system_config(_read(args.config))
        bundle = _bundle_from_spec(system, args.bundle)
        if args.op_cmd == "thom":
            td = thom_complex(bundle, system)
            tc = thom_class(bundle, system, thom=td)
            h = homology(td.relative)
            payload = {
                "bundle": bundle.name, "rank": bundle.rank,
                "relative_betti": {str(p): h.betti(p)
                                   for p in td.relative.degrees()},
                "unit_cochain": tc.unit_cochain,
                "fiber_pairing": tc.fiber_pairing,
            }
            lines = ["Thom data for %s (rank %d):" % (bundle.name, bundle.rank)]
            for p in td.relative.degrees():
                lines.append("  relative H_%d rank %d" % (p, h.betti(p)))
            lines.append("  class = dual of %s"
                         % " + ".join(sorted(tc.unit_cochain)))
            lines.append("  fiber pairing %+d" % tc.fiber_pairing)
        else:
            e = euler_class(bundle, system)
            payload = {
                "bundle": bundle.name,
                "coefficients": {k: int(v)
                                 for k, v in sorted(e.coefficients.items())},
                "pairing_with_fundamental_class": e.fundamental_pairing,
                "zeros": [{"point": list(map(float, z)), "owner": o,
                           "sign": s} for z, o, s in e.zeros],
            }
            lines = ["Euler class of %s:" % bundle.name,
                     "  cochain: %s" % (dict(sorted(e.coefficients.items()))
                                        or "0"),
                     "  pairing with fundamental class: %s"
                     % e.fundamental_pairing]
        _emit(args, payload, lines)
        return 0
    if args.op_cmd == "nu":
        # a flow cannot run backwards or forever
        if not 0.0 <= args.edge_time < math.inf:
            raise ParseError("--edge-time must be finite and not negative, "
                             "not %g" % args.edge_time)
        # only a table is written as CSV
        if args.csv and not args.table:
            raise ParseError("--csv needs --table")
        data = fg.parse_graph_file(_read(args.graph))
        diagram = data.diagram()
        labels = [parse_system_config(_read(p)) for p in args.label]
        p = diagram.incoming_count()
        problem = FlowGraphProblem(diagram, labels[:p], labels[p:])
        if args.table:
            table = operation_table(problem, edge_time=args.edge_time)
            payload = {"edge_time": args.edge_time,
                       "table": {"%s,%s" % k: v for k, v in sorted(table.items())}}
            lines = ["operation table (edge time %g):" % args.edge_time]
            for k in sorted(table):
                if table[k]:
                    lines.append("  %s * %s -> %s" % (k[0], k[1],
                                                      dict(sorted(table[k].items()))))
            _emit(args, payload, lines)
            if args.csv:
                _write_table_csv(args.csv, problem, table)
        else:
            chain = _parse_chain(args.input)
            out = diagram_flow_operation(problem, chain,
                                         edge_time=args.edge_time)
            payload = {"edge_time": args.edge_time,
                       "output": dict(sorted(out.items()))}
            _emit(args, payload,
                  ["output chain: %s" % (dict(sorted(out.items())) or "0")])
        return 0
    raise ParseError("unknown op %r" % args.op_cmd)


def _parse_chain(spec):
    if not spec:
        raise ParseError("op nu needs --input 'a,b[:coeff];...' or --table")
    chain = []
    for term in spec.split(";"):
        names, _, coeff = term.partition("=")
        pair = tuple(s.strip() for s in names.split(","))
        if len(pair) != 2:
            raise ParseError("malformed input term %r in %r" % (term, spec))
        chain.append((pair, _spec_value(spec, int, coeff) if coeff else 1))
    return chain


def _write_table_csv(path, problem, table):
    out_names = [cp.name for cp in problem.outgoing[0].critical_points]
    _write(path, ["in1,in2," + ",".join(out_names)] + [
        "%s,%s," % (a, b) + ",".join(str(table[(a, b)].get(nm, 0))
                                     for nm in out_names)
        for (a, b) in sorted(table)])


# -- entry point ------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="morseflow",
        description="Morse homology and chord-diagram operations on "
                    "explicit manifolds")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable output")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--deterministic", action="store_true",
                    help="accepted for interface stability: computations "
                         "are single-threaded and seeded already, so "
                         "outputs are byte-stable without it")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("graph", help="fat graph and chord diagram tools")
    g.add_argument("graph_cmd",
                   choices=["cycles", "genus", "validate", "reduce",
                            "admissible"])
    g.add_argument("file")
    g.add_argument("--components", action="store_true",
                   help="per-component genus for disconnected graphs")
    g.set_defaults(func=cmd_graph)

    ge = sub.add_parser("geom", help="flow probes on catalog systems")
    gsub = ge.add_subparsers(dest="geom_cmd", required=True)
    pr = gsub.add_parser("probe")
    pr.add_argument("config")
    pr.add_argument("--seeds", type=int, default=50)
    pr.add_argument("--trajectories-csv")
    pr.set_defaults(func=cmd_geom_probe)
    co = gsub.add_parser("connections")
    co.add_argument("config")
    co.add_argument("--source", required=True)
    co.add_argument("--target", required=True)
    co.add_argument("--csv")
    co.set_defaults(func=cmd_geom_connections)

    ho = sub.add_parser("homology", help="Morse (co)homology of a system")
    ho.add_argument("config")
    ho.add_argument("--ring", choices=["z", "z2"], default="z")
    ho.add_argument("--relative", help="empty | cap:C | band:C")
    ho.add_argument("--matrices-out", help="plain-text integer matrices")
    ho.add_argument("--csv", help="betti/torsion summary table")
    ho.set_defaults(func=cmd_homology)

    op = sub.add_parser("op", help="chain-level operations")
    osub = op.add_subparsers(dest="op_cmd", required=True)
    for name in ("push", "umkehr"):
        o = osub.add_parser(name)
        o.add_argument("config")
        o.add_argument("--embedding", required=True,
                       help="factor[:axis:level:phase] | equator | identity")
        o.set_defaults(func=cmd_op)
    for name in ("thom", "euler"):
        o = osub.add_parser(name)
        o.add_argument("config")
        o.add_argument("--bundle", required=True,
                       help="tangent | trivial:R | tangent+trivial")
        o.set_defaults(func=cmd_op)
    nu = osub.add_parser("nu")
    nu.add_argument("graph")
    nu.add_argument("--label", action="append", required=True,
                    help="system config per boundary cycle (incoming first)")
    nu.add_argument("--input", help="input chain 'a,b[=coeff];...'")
    nu.add_argument("--table", action="store_true")
    nu.add_argument("--edge-time", type=float, default=0.0)
    nu.add_argument("--csv")
    nu.set_defaults(func=cmd_op)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args) or 0
    except (MorseflowError, ValueError) as exc:
        code = exc.code if isinstance(exc, MorseflowError) else 1
        if args.json:
            print(json.dumps(_error_payload(exc, code), sort_keys=True,
                             default=_json_default), file=sys.stderr)
        else:
            print("error: %s" % exc, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
