"""Marked metric fat graphs and Sullivan chord diagrams.

A fat graph is stored as a pair of permutations on half-edge indices
``0 .. n-1``:

* ``involution`` -- fixed-point-free pairing swapping the two oriented
  copies of each edge,
* ``rotation`` -- "next half-edge at the same source vertex", whose cycles
  are the vertices together with their cyclic order.

Every operation here is a permutation computation.  The walk producing
boundary cycles follows an oriented edge to its target vertex and turns to
the next half-edge in the cyclic order there, i.e. the successor map is
``rotation(involution(h))``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

from .errors import (
    DisconnectedGraphError,
    InternalInconsistencyError,
    ParseError,
    StructuralValidationError,
)

INCOMING = "incoming"
OUTGOING = "outgoing"
UNASSIGNED = "unassigned"

Cycle = tuple  # cyclic sequence of half-edge indices


def canonical_cycle(seq):
    """Rotate a cyclic sequence so it starts at its least element."""
    seq = tuple(seq)
    k = seq.index(min(seq))
    return seq[k:] + seq[:k]


def _perm_cycles(perm, domain):
    """Cycles of a permutation (dict or sequence), canonically ordered."""
    seen = set()
    cycles = []
    for start in sorted(domain):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        h = perm[start]
        while h != start:
            cyc.append(h)
            seen.add(h)
            h = perm[h]
        cycles.append(tuple(cyc))
    cycles.sort(key=lambda c: c[0])
    return cycles


def _parts(n, links):
    """Connected parts of the graph on nodes 0..n-1 with edges ``links``
    (node pairs; loops and repeated pairs allowed), by union-find.  Returns
    (part, cyclic): ``part[v]`` is the least node of v's part, and
    ``cyclic`` holds the parts in which some link closed a cycle."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    closing = []
    for a, b in links:
        ra, rb = find(a), find(b)
        if ra == rb:
            closing.append(ra)
        else:
            parent[max(ra, rb)] = min(ra, rb)
    part = [find(v) for v in range(n)]
    return part, {part[r] for r in closing}


class FatGraph:
    """Immutable fat graph on half-edges 0..n-1.

    Vertices are the cycles of ``rotation``; unoriented edges are the orbits
    of ``involution``, indexed by their smaller half-edge, sorted.  A graph
    has at least one half-edge.
    """

    __slots__ = (
        "n",
        "involution",
        "rotation",
        "vertices",
        "vertex_of",
        "edges",
        "edge_lengths",
        "_edge_index",
        "_boundary",
    )

    def __init__(self, involution, rotation, edge_lengths=None,
                 allow_low_valence=False):
        inv = tuple(involution)
        rot = tuple(rotation)
        n = len(inv)
        if n == 0:
            raise StructuralValidationError("a fat graph needs half-edges")
        if len(rot) != n:
            raise StructuralValidationError(
                "involution and rotation act on different sets")
        dom = range(n)
        if sorted(inv) != list(dom) or sorted(rot) != list(dom):
            raise StructuralValidationError(
                "involution/rotation are not permutations of 0..n-1")
        for h in dom:
            if inv[h] == h:
                raise StructuralValidationError(
                    "involution fixes half-edge %d" % h)
            if inv[inv[h]] != h:
                raise StructuralValidationError(
                    "involution is not an involution at %d" % h)
        self.n = n
        self.involution = inv
        self.rotation = rot
        self.vertices = tuple(_perm_cycles(rot, dom))
        vo = [0] * n
        for vi, cyc in enumerate(self.vertices):
            for h in cyc:
                vo[h] = vi
        self.vertex_of = tuple(vo)
        self.edges = tuple(sorted((min(h, inv[h]), max(h, inv[h]))
                                  for h in dom if h < inv[h]))
        self._edge_index = {}
        for ei, (a, b) in enumerate(self.edges):
            self._edge_index[a] = ei
            self._edge_index[b] = ei
        if not allow_low_valence:
            for cyc in self.vertices:
                if len(cyc) < 3:
                    raise StructuralValidationError(
                        "vertex %s has valence %d < 3" % (cyc, len(cyc)))
        if edge_lengths is not None:
            lengths = tuple(float(x) for x in edge_lengths)
            if len(lengths) != len(self.edges):
                raise StructuralValidationError(
                    "expected %d edge lengths, got %d"
                    % (len(self.edges), len(lengths)))
            if not all(0.0 < x < math.inf for x in lengths):
                raise StructuralValidationError(
                    "edge lengths must be positive and finite")
            self.edge_lengths = lengths
        else:
            self.edge_lengths = None
        self._boundary = None

    # -- basic structure ---------------------------------------------------

    @classmethod
    def from_vertex_cycles(cls, pairs, vertex_cycles, edge_lengths=None,
                           allow_low_valence=False):
        """Build from explicit `(h, hbar)` pairs and per-vertex cyclic orders."""
        flat = [h for cyc in vertex_cycles for h in cyc]
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise StructuralValidationError(
                "vertex cycles must partition 0..n-1")
        inv = [None] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise StructuralValidationError("bad pair (%s, %s)" % (a, b))
            if inv[a] is not None or inv[b] is not None:
                raise StructuralValidationError(
                    "half-edge paired twice in (%s, %s)" % (a, b))
            inv[a], inv[b] = b, a
        if any(x is None for x in inv):
            raise StructuralValidationError("unpaired half-edges remain")
        rot = [None] * n
        for cyc in vertex_cycles:
            for i, h in enumerate(cyc):
                rot[h] = cyc[(i + 1) % len(cyc)]
        return cls(inv, rot, edge_lengths, allow_low_valence)

    def edge_of(self, h):
        return self._edge_index[h]

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_vertices(self):
        return len(self.vertices)

    def length_of(self, edge_index):
        if self.edge_lengths is None:
            return 1.0
        return self.edge_lengths[edge_index]

    def valence(self, vertex_index):
        return len(self.vertices[vertex_index])

    def euler_characteristic(self):
        return self.num_vertices - self.num_edges

    def component_labels(self):
        """Connected-component label per vertex, numbered by least vertex."""
        vo = self.vertex_of
        part, _ = _parts(self.num_vertices,
                         ((vo[a], vo[b]) for a, b in self.edges))
        # a part's least vertex is the first of its vertices in this order
        labels = {}
        return [labels.setdefault(p, len(labels)) for p in part]

    def is_connected(self):
        return self.num_vertices <= 1 or max(self.component_labels()) == 0

    def relabeled(self, perm):
        """Apply a half-edge relabeling (list: old index -> new index)."""
        if sorted(perm) != list(range(self.n)):
            raise StructuralValidationError("not a permutation")
        inv = [0] * self.n
        rot = [0] * self.n
        for h in range(self.n):
            inv[perm[h]] = perm[self.involution[h]]
            rot[perm[h]] = perm[self.rotation[h]]
        lengths = None
        if self.edge_lengths is not None:
            g = FatGraph(inv, rot)
            lengths = [0.0] * self.num_edges
            for ei, (a, b) in enumerate(self.edges):
                lengths[g.edge_of(perm[a])] = self.edge_lengths[ei]
        return FatGraph(inv, rot, lengths)

    def __repr__(self):
        return "FatGraph(vertices=%r, edges=%r)" % (self.vertices, self.edges)

    # -- boundary cycles ---------------------------------------------------

    def successor(self, h):
        """Next oriented edge of the boundary walk through h."""
        return self.rotation[self.involution[h]]

    def boundary_cycles(self):
        if self._boundary is None:
            succ = [self.successor(h) for h in range(self.n)]
            cycles = _perm_cycles(succ, range(self.n))
            self._boundary = BoundaryCycleSet(
                graph=self,
                cycles=tuple(cycles),
                roles=(UNASSIGNED,) * len(cycles),
                marked_points=(None,) * len(cycles),
            )
        return self._boundary

    def genus(self):
        """(genus, boundary cycle count) of the thickened surface."""
        if not self.is_connected():
            raise DisconnectedGraphError(
                "genus requires a connected graph; use genus_by_component")
        n_cycles = len(self.boundary_cycles().cycles)
        chi = self.euler_characteristic()
        if (2 - n_cycles - chi) % 2 != 0:
            raise InternalInconsistencyError(
                "2 - n - chi is odd: chi=%d n=%d" % (chi, n_cycles))
        g = (2 - n_cycles - chi) // 2
        if g < 0:
            raise InternalInconsistencyError("negative genus %d" % g)
        return g, n_cycles

    def genus_by_component(self):
        """genus() applied to each connected component, in label order."""
        labels = self.component_labels()
        n_comp = max(labels) + 1 if labels else 0
        out = []
        for c in range(n_comp):
            keep = sorted(h for h in range(self.n)
                          if labels[self.vertex_of[h]] == c)
            pos = {h: i for i, h in enumerate(keep)}
            inv = [pos[self.involution[h]] for h in keep]
            rot = [pos[self.rotation[h]] for h in keep]
            out.append(FatGraph(inv, rot).genus())
        return out


@dataclass(frozen=True)
class BoundaryCycleSet:
    """Orbit partition of the oriented edges under the boundary walk.

    Cycles are sorted by least half-edge and each starts at its least
    half-edge, so output is deterministic.
    """

    graph: FatGraph
    cycles: tuple
    roles: tuple
    marked_points: tuple

    def __post_init__(self):
        flat = sorted(h for cyc in self.cycles for h in cyc)
        if flat != list(range(self.graph.n)):
            raise StructuralValidationError(
                "cycles do not partition the oriented edges")
        if len(self.roles) != len(self.cycles):
            raise StructuralValidationError("one role per cycle required")
        for r in self.roles:
            if r not in (INCOMING, OUTGOING, UNASSIGNED):
                raise StructuralValidationError("bad role %r" % (r,))

    def with_roles(self, roles):
        roles = tuple(roles)
        return replace(self, roles=roles)

    def with_marked_point(self, cycle_index, half_edge, offset):
        cyc = self.cycles[cycle_index]
        if half_edge not in cyc:
            raise StructuralValidationError(
                "half-edge %d not on cycle %d" % (half_edge, cycle_index))
        length = self.graph.length_of(self.graph.edge_of(half_edge))
        if not (0.0 <= offset < length):
            raise StructuralValidationError(
                "offset %g outside [0, %g)" % (offset, length))
        marks = list(self.marked_points)
        marks[cycle_index] = (half_edge, float(offset))
        return replace(self, marked_points=tuple(marks))

    def circumference(self, cycle_index):
        g = self.graph
        return sum(g.length_of(g.edge_of(h)) for h in self.cycles[cycle_index])

    def incoming(self):
        return tuple(c for c, r in zip(self.cycles, self.roles)
                     if r == INCOMING)

    def outgoing(self):
        return tuple(c for c, r in zip(self.cycles, self.roles)
                     if r == OUTGOING)


# -- module-level operations ------------------------------------------------

def boundary_cycles(graph):
    return graph.boundary_cycles()


def euler_characteristic(graph):
    return graph.euler_characteristic()


def genus(graph):
    return graph.genus()


def is_admissible(graph, boundary):
    """True iff each oriented edge on an incoming cycle has its reversal on
    an outgoing cycle."""
    role = {}
    for cyc, r in zip(boundary.cycles, boundary.roles):
        for h in cyc:
            role[h] = r
    for h in range(graph.n):
        if role[h] == INCOMING and role[graph.involution[h]] != OUTGOING:
            return False
    return True


# -- chord diagrams ----------------------------------------------------------

def _cycle_is_embedded(graph, cyc):
    verts = [graph.vertex_of[h] for h in cyc]
    return len(set(verts)) == len(verts)


def _cycle_edges(graph, cyc):
    return [graph.edge_of(h) for h in cyc]


class ChordDiagram:
    """Fat graph split into incoming circles and ghost trees.

    ``ghost_edges`` holds unoriented edge indices; the rest are circle
    edges.  ``circles`` are oriented edge cycles, each of which must be a
    boundary cycle of the underlying fat graph (this includes the reduced
    case where distinct circles share vertices).
    """

    __slots__ = ("graph", "ghost_edges", "circles", "boundary")

    def __init__(self, graph, ghost_edges=(), circles=None, roles=None,
                 validate=True):
        self.graph = graph
        self.ghost_edges = frozenset(int(e) for e in ghost_edges)
        for e in self.ghost_edges:
            if not (0 <= e < graph.num_edges):
                raise StructuralValidationError("ghost edge %d out of range" % e)
        bset = graph.boundary_cycles()
        if roles is not None:
            roles = tuple(roles)
            if len(roles) != len(bset.cycles):
                raise StructuralValidationError("one role per boundary cycle")
            self.circles = tuple(c for c, r in zip(bset.cycles, roles)
                                 if r == INCOMING)
        elif circles is not None:
            self.circles = tuple(canonical_cycle(c) for c in circles)
            keyed = {c: i for i, c in enumerate(bset.cycles)}
            roles = [OUTGOING] * len(bset.cycles)
            for c in self.circles:
                if c not in keyed:
                    raise StructuralValidationError(
                        "declared circle %s is not a boundary cycle" % (c,))
                roles[keyed[c]] = INCOMING
            roles = tuple(roles)
        else:
            self.circles, roles = self._infer_circles(bset)
        self.boundary = bset.with_roles(roles)
        if validate:
            report = validate_chord_diagram(self)
            if report:
                raise StructuralValidationError("; ".join(report))

    def _infer_circles(self, bset):
        g = self.graph
        candidates = []
        for cyc in bset.cycles:
            if not _cycle_is_embedded(g, cyc):
                continue
            edges = _cycle_edges(g, cyc)
            if any(e in self.ghost_edges for e in edges):
                continue
            if len(set(edges)) != len(edges):
                continue
            candidates.append(cyc)
        covered = {}
        for cyc in candidates:
            for e in _cycle_edges(g, cyc):
                if e in covered:
                    raise StructuralValidationError(
                        "circle inference ambiguous (edge %d on two embedded "
                        "cycles); pass explicit roles" % e)
                covered[e] = cyc
        circle_edges = set(range(g.num_edges)) - self.ghost_edges
        if set(covered) != circle_edges:
            raise StructuralValidationError(
                "circle edges not covered by embedded boundary cycles; "
                "pass explicit roles")
        roles = tuple(INCOMING if c in candidates else OUTGOING
                      for c in bset.cycles)
        return tuple(candidates), roles

    @property
    def circle_edges(self):
        return frozenset(range(self.graph.num_edges)) - self.ghost_edges

    def circular_vertices(self):
        """Vertices visited by some incoming circle, sorted."""
        out = set()
        for cyc in self.circles:
            for h in cyc:
                out.add(self.graph.vertex_of[h])
        return tuple(sorted(out))

    def incoming_count(self):
        return len(self.circles)

    def outgoing_count(self):
        return len(self.boundary.cycles) - len(self.circles)

    def __repr__(self):
        return ("ChordDiagram(p=%d, q=%d, ghosts=%s)"
                % (self.incoming_count(), self.outgoing_count(),
                   sorted(self.ghost_edges)))


def validate_chord_diagram(d):
    """Check every chord-diagram invariant; return a list of violations.

    Circles must be embedded and pairwise vertex-disjoint in a strict
    diagram (one with ghost edges); collapsing ghosts identifies circle
    points, so the ghost-free reduced form may revisit vertices.
    """
    g = d.graph
    report = []
    strict = bool(d.ghost_edges)
    seen_edges = {}
    seen_verts = {}
    for ci, cyc in enumerate(d.circles):
        if strict and not _cycle_is_embedded(g, cyc):
            report.append("circle %d revisits a vertex" % ci)
        if strict:
            for h in cyc:
                v = g.vertex_of[h]
                if v in seen_verts and seen_verts[v] != ci:
                    report.append("circles %d and %d share vertex %d"
                                  % (seen_verts[v], ci, v))
                seen_verts[v] = ci
        for h in cyc:
            e = g.edge_of(h)
            if e in d.ghost_edges:
                report.append("circle %d uses ghost edge %d" % (ci, e))
            if e in seen_edges and seen_edges[e] != ci:
                report.append("edge %d lies on two circles" % e)
            seen_edges[e] = ci
    missing = d.circle_edges - set(seen_edges)
    if missing:
        report.append("circle edges %s lie on no circle" % sorted(missing))
    # each circle is an incoming boundary cycle
    incoming = set(d.boundary.incoming())
    for ci, cyc in enumerate(d.circles):
        if canonical_cycle(cyc) not in incoming:
            report.append("circle %d is not an incoming boundary cycle" % ci)
    if len(incoming) != len(d.circles):
        report.append("incoming cycles and circles do not match")
    # the ghost subgraph is a forest whose leaves sit on circles
    ends = [(g.vertex_of[a], g.vertex_of[b])
            for a, b in (g.edges[e] for e in sorted(d.ghost_edges))]
    _, cyclic = _parts(g.num_vertices, ends)
    for v in sorted(cyclic):
        report.append("ghost component at vertex %d contains a cycle" % v)
    degree = Counter(v for end in ends for v in end)
    circ_verts = set(d.circular_vertices())
    for v in sorted(degree):
        if degree[v] == 1 and v not in circ_verts:
            report.append("ghost tree endpoint at vertex %d is not on a "
                          "circle" % v)
    return report


def circular_vertex_classes(d):
    """Partition circular vertices: equivalent iff some ghost tree contains
    both.  Returned as sorted tuples, singletons included, ordered by least
    member."""
    g = d.graph
    part, _ = _parts(g.num_vertices,
                     ((g.vertex_of[a], g.vertex_of[b])
                      for a, b in (g.edges[e] for e in d.ghost_edges)))
    classes = {}
    for v in d.circular_vertices():   # sorted
        classes.setdefault(part[v], []).append(v)
    return tuple(tuple(c) for c in classes.values())


# -- contraction / reduction -------------------------------------------------

class _Builder:
    """Mutable half-edge structure used by contraction and smoothing.

    Tracks surviving half-edges of an ambient id space; emits a canonical
    FatGraph plus the id map at the end.
    """

    def __init__(self, graph=None):
        if graph is not None:
            self.inv = {h: graph.involution[h] for h in range(graph.n)}
            self.rot = {h: graph.rotation[h] for h in range(graph.n)}
            self.prev = {graph.rotation[h]: h for h in range(graph.n)}
            self.length = {}
            for ei, (a, b) in enumerate(graph.edges):
                val = (graph.edge_lengths[ei]
                       if graph.edge_lengths is not None else None)
                self.length[a] = self.length[b] = val
        else:
            self.inv, self.rot, self.prev, self.length = {}, {}, {}, {}

    def add_vertex(self, cyc):
        for i, h in enumerate(cyc):
            self.rot[h] = cyc[(i + 1) % len(cyc)]
            self.prev[cyc[(i + 1) % len(cyc)]] = h

    def same_vertex(self, h1, h2):
        h = h1
        while True:
            if h == h2:
                return True
            h = self.rot[h]
            if h == h1:
                return False

    def _drop(self, h):
        del self.inv[h], self.rot[h], self.prev[h], self.length[h]

    def remove_from_vertex(self, h):
        """Unlink h from its vertex cycle (leaves involution untouched)."""
        p, s = self.prev[h], self.rot[h]
        if p == h:
            return  # h was alone at its vertex
        self.rot[p] = s
        self.prev[s] = p

    def contract_edge(self, h):
        """Contract the non-loop edge carrying h, merging its endpoints."""
        hbar = self.inv[h]
        a, b = self.prev[h], self.rot[h]
        c, d = self.prev[hbar], self.rot[hbar]
        if b == h and d == hbar:
            pass  # isolated single-edge component vanishes
        elif b == h:
            self.remove_from_vertex(hbar)
        elif d == hbar:
            self.remove_from_vertex(h)
        else:
            # splice: ... a h b ... and ... c hbar d ...  ->  ... a d ... c b ...
            self.rot[a] = d
            self.prev[d] = a
            self.rot[c] = b
            self.prev[b] = c
        self._drop(h)
        self._drop(hbar)

    def smooth_bivalent(self, h1):
        """Remove the bivalent vertex {h1, h2}, merging the two edges."""
        h2 = self.rot[h1]
        p1, p2 = self.inv[h1], self.inv[h2]
        if p1 == h2:
            raise StructuralValidationError(
                "cannot smooth the last vertex of a bare circle")
        ln1, ln2 = self.length[h1], self.length[h2]
        merged = None if (ln1 is None or ln2 is None) else ln1 + ln2
        self.inv[p1] = p2
        self.inv[p2] = p1
        self.length[p1] = self.length[p2] = merged
        self._drop(h1)
        self._drop(h2)

    def smooth_all_bivalent(self):
        changed = True
        while changed:
            changed = False
            for h in sorted(self.rot):
                if h not in self.rot:
                    continue
                h2 = self.rot[h]
                if h2 != h and self.rot[h2] == h and self.inv[h] != h2:
                    self.smooth_bivalent(h)
                    changed = True

    def vertex_cycles(self):
        return _perm_cycles(self.rot, self.rot.keys())

    def emit(self, allow_low_valence=False):
        """(FatGraph, old-id -> new-id map) with ids compacted in order."""
        keep = sorted(self.rot)
        pos = {h: i for i, h in enumerate(keep)}
        inv = [pos[self.inv[h]] for h in keep]
        rot = [pos[self.rot[h]] for h in keep]
        have_lengths = keep and all(self.length[h] is not None for h in keep)
        graph = FatGraph(inv, rot, None, allow_low_valence)
        if have_lengths:
            lengths = [0.0] * graph.num_edges
            for h in keep:
                lengths[graph.edge_of(pos[h])] = self.length[h]
            graph = FatGraph(inv, rot, lengths, allow_low_valence)
        return graph, pos


def _transport_roles(old_boundary, new_graph, id_map):
    """Match surviving-edge restrictions of old cycles to new cycles."""
    new_bset = new_graph.boundary_cycles()
    new_index = {c: i for i, c in enumerate(new_bset.cycles)}
    roles = [UNASSIGNED] * len(new_bset.cycles)
    for cyc, role in zip(old_boundary.cycles, old_boundary.roles):
        filtered = tuple(id_map[h] for h in cyc if h in id_map)
        if not filtered:
            continue
        key = canonical_cycle(filtered)
        if key not in new_index:
            raise InternalInconsistencyError(
                "boundary cycle %s did not survive reduction" % (cyc,))
        roles[new_index[key]] = role
    return new_bset.with_roles(tuple(roles))


def reduce_diagram(d, ghost_order=None):
    """Collapse every ghost edge; smooth bivalent leftovers.

    Preserves the Euler characteristic, the boundary-cycle count and the
    incoming/outgoing split; the result has no ghost edges.  The contraction
    order (default: sorted) does not affect the result.
    """
    g = d.graph
    b = _Builder(g)
    if ghost_order is None:
        ghost_order = sorted(d.ghost_edges)
    elif set(ghost_order) != set(d.ghost_edges):
        raise StructuralValidationError("ghost_order must list each ghost once")
    for e in ghost_order:
        a, _ = g.edges[e]
        if a not in b.inv:
            raise InternalInconsistencyError("ghost edge vanished early")
        if b.same_vertex(a, b.inv[a]):
            raise InternalInconsistencyError(
                "ghost edge %d became a loop; ghosts are not a forest" % e)
        b.contract_edge(a)
    b.smooth_all_bivalent()
    new_graph, id_map = b.emit()
    new_boundary = _transport_roles(d.boundary, new_graph, id_map)
    circles = tuple(canonical_cycle(c) for c in new_boundary.incoming())
    out = ChordDiagram(new_graph, ghost_edges=(), circles=circles)
    if out.graph.euler_characteristic() != g.euler_characteristic():
        raise InternalInconsistencyError("reduction changed chi")
    if len(out.boundary.cycles) != len(d.boundary.cycles):
        raise InternalInconsistencyError("reduction changed boundary count")
    if out.incoming_count() != d.incoming_count():
        raise InternalInconsistencyError("reduction changed incoming count")
    return out


def joined_incoming_circles(d):
    """Rebuild the diagram from its incoming circles alone.

    Each circle is copied with an interval ("hair") attached at every vertex
    whose ghost-tree class has more than one member; interval tips of one
    class are glued at a fresh vertex.  Bivalent glue points are smoothed
    away and classless circles are left bare, so the output may contain
    low-valence circle components.

    Returns (graph, circles, ghost_edges) where ghost_edges are the glue
    intervals surviving in the output.
    """
    classes = circular_vertex_classes(d)
    class_of = {}
    for cls in classes:
        for v in cls:
            class_of[v] = cls
    g = d.graph
    b = _Builder()
    nxt = [0]

    def fresh():
        h = nxt[0]
        nxt[0] += 1
        return h

    hair_at = {}        # original vertex -> hair half-edge (circle side)
    circle_halves = []  # per circle, list of new half-edge ids in order
    for cyc in d.circles:
        k = len(cyc)
        outs = [fresh() for _ in range(k)]      # circle half-edge leaving v_i
        backs = [fresh() for _ in range(k)]     # its reversal, at v_{i+1}
        hairs = {}
        for i, h in enumerate(cyc):
            v = g.vertex_of[h]
            if len(class_of[v]) > 1:
                if v in hair_at:
                    raise StructuralValidationError(
                        "vertex %d shared by two circles sits on a ghost "
                        "tree; circles must be disjoint to rebuild" % v)
                hairs[i] = (fresh(), fresh())   # (at circle vertex, at tip)
                hair_at[v] = hairs[i]
        for i, h in enumerate(cyc):
            v_cyc = [outs[i], backs[i - 1]]
            if i in hairs:
                # order (out, hair, back-reversal) keeps the circle a
                # boundary cycle of the rebuilt graph
                v_cyc = [outs[i], hairs[i][0], backs[i - 1]]
            b.add_vertex(v_cyc)
            ln = g.length_of(g.edge_of(h))
            b.inv[outs[i]] = backs[i]
            b.inv[backs[i]] = outs[i]
            b.length[outs[i]] = b.length[backs[i]] = (
                ln if g.edge_lengths is not None else None)
        circle_halves.append(outs)
    for cls in classes:
        if len(cls) <= 1:
            continue
        tips = []
        for v in cls:
            circ_side, tip = hair_at[v]
            b.inv[circ_side] = tip
            b.inv[tip] = circ_side
            b.length[circ_side] = b.length[tip] = (
                1.0 if g.edge_lengths is not None else None)
            tips.append(tip)
        b.add_vertex(tuple(tips))
    b.smooth_all_bivalent()
    # a bare circle keeps one (bivalent) vertex as its marker
    graph, id_map = b.emit(allow_low_valence=True)
    circles = []
    for outs in circle_halves:
        kept = tuple(id_map[h] for h in outs if h in id_map)
        circles.append(canonical_cycle(kept))
    hair_ids = set()
    for v, (circ_side, tip) in hair_at.items():
        for h in (circ_side, tip):
            if h in id_map:
                hair_ids.add(graph.edge_of(id_map[h]))
    return graph, tuple(circles), frozenset(hair_ids)


# -- file format --------------------------------------------------------------

@dataclass
class GraphFileData:
    graph: FatGraph
    roles: dict = field(default_factory=dict)       # cycle index -> role
    ghost_edges: frozenset = frozenset()

    def diagram(self):
        bset = self.graph.boundary_cycles()
        roles = None
        if self.roles:
            roles = [self.roles.get(i, OUTGOING)
                     for i in range(len(bset.cycles))]
        return ChordDiagram(self.graph, self.ghost_edges, roles=roles)

    def boundary_with_roles(self):
        bset = self.graph.boundary_cycles()
        roles = [self.roles.get(i, UNASSIGNED)
                 for i in range(len(bset.cycles))]
        return bset.with_roles(roles)


def parse_graph_file(text):
    """Parse the line-oriented graph format.

    Directives: ``halfedges N`` (once, N at least 1), ``pair i j``,
    ``vertex v: h1 h2 ...``, ``length e x``, ``cycle-role k
    incoming|outgoing``, ``ghost e [e2 ...]``.  Every directive but
    ``vertex`` and ``ghost`` takes exactly the fields shown; a line with
    more is a ``ParseError``.
    """
    fields = {"halfedges": 2, "pair": 3, "length": 3, "cycle-role": 3}
    n = None
    pairs = []
    vertex_lines = {}
    lengths = {}
    roles = {}
    ghosts = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0].lower()
        if len(parts) > fields.get(kw, len(parts)):
            raise ParseError("extra fields on a %s line: %s" % (
                kw, " ".join(parts[fields[kw]:])), lineno)
        try:
            if kw == "halfedges":
                if n is not None:
                    raise ParseError("halfedges declared twice", lineno)
                n = int(parts[1])
                if n < 1:
                    raise ParseError("halfedges must be at least 1, got %d"
                                     % n, lineno)
            elif kw == "pair":
                pairs.append((int(parts[1]), int(parts[2])))
            elif kw == "vertex":
                head = line.split(":", 1)
                if len(head) != 2:
                    raise ParseError("vertex line needs ':'", lineno)
                v = int(head[0].split()[1])
                cyc = tuple(int(x) for x in head[1].split())
                if v in vertex_lines:
                    raise ParseError("vertex %d declared twice" % v, lineno)
                vertex_lines[v] = cyc
            elif kw == "length":
                lengths[int(parts[1])] = float(parts[2])
            elif kw == "cycle-role":
                role = parts[2].lower()
                if role not in (INCOMING, OUTGOING):
                    raise ParseError("bad role %r" % role, lineno)
                if roles.setdefault(int(parts[1]), role) != role:
                    raise ParseError("cycle-role %s conflicts with an "
                                     "earlier role" % parts[1], lineno)
            elif kw == "ghost":
                ghosts.update(int(x) for x in parts[1:])
            else:
                raise ParseError("unknown directive %r" % kw, lineno)
        except (ValueError, IndexError) as exc:
            raise ParseError("cannot parse: %s (%s)" % (raw.strip(), exc),
                             lineno) from exc
    if n is None:
        raise ParseError("missing 'halfedges N' line")
    cycles = [vertex_lines[v] for v in sorted(vertex_lines)]
    flat = [h for c in cycles for h in c]
    if sorted(flat) != list(range(n)):
        raise ParseError("vertex lines do not partition 0..%d" % (n - 1))
    graph = FatGraph.from_vertex_cycles(pairs, cycles)
    edge_lengths = None
    if lengths:
        edge_lengths = [1.0] * graph.num_edges
        for e, x in lengths.items():
            if not (0 <= e < graph.num_edges):
                raise ParseError("length for unknown edge %d" % e)
            edge_lengths[e] = x
        graph = FatGraph(graph.involution, graph.rotation, edge_lengths)
    for e in ghosts:
        if not (0 <= e < graph.num_edges):
            raise ParseError("ghost for unknown edge %d" % e)
    for k in roles:
        if not (0 <= k < len(graph.boundary_cycles().cycles)):
            raise ParseError("cycle-role for unknown cycle %d" % k)
    return GraphFileData(graph=graph, roles=roles,
                         ghost_edges=frozenset(ghosts))


def _length_text(x):
    """``%.12g`` of x where that reads back as x, else ``repr(x)``."""
    short = "%.12g" % x
    return short if float(short) == x else repr(x)


def format_graph_file(graph, roles=None, ghost_edges=()):
    lines = ["halfedges %d" % graph.n]
    for a, b in graph.edges:
        lines.append("pair %d %d" % (a, b))
    for v, cyc in enumerate(graph.vertices):
        lines.append("vertex %d: %s" % (v, " ".join(str(h) for h in cyc)))
    if graph.edge_lengths is not None:
        for e, x in enumerate(graph.edge_lengths):
            lines.append("length %d %s" % (e, _length_text(x)))
    if roles:
        for k in sorted(roles):
            if roles[k] in (INCOMING, OUTGOING):
                lines.append("cycle-role %d %s" % (k, roles[k]))
    if ghost_edges:
        lines.append("ghost %s" % " ".join(str(e) for e in sorted(ghost_edges)))
    return "\n".join(lines) + "\n"
