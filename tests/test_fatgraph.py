import numpy as np
import pytest

from morseflow.errors import (
    DisconnectedGraphError,
    ParseError,
    StructuralValidationError,
)
from morseflow.fatgraph import (
    INCOMING,
    OUTGOING,
    ChordDiagram,
    FatGraph,
    canonical_cycle,
    circular_vertex_classes,
    format_graph_file,
    is_admissible,
    joined_incoming_circles,
    parse_graph_file,
    reduce_diagram,
    validate_chord_diagram,
)

# Half-edge conventions used throughout:
#   figure-8:  A=0, A~=1, B=2, B~=3, one vertex with cyclic order (0, 3, 2, 1)
#   dumbbell:  loop A at v0, loop B at v1, connecting edge g=(4,5)


def fig8():
    return FatGraph.from_vertex_cycles(
        pairs=[(0, 1), (2, 3)], vertex_cycles=[(0, 3, 2, 1)])


def dumbbell():
    return FatGraph.from_vertex_cycles(
        pairs=[(0, 1), (2, 3), (4, 5)],
        vertex_cycles=[(0, 1, 4), (2, 3, 5)])


def theta_planar():
    # two vertices, three parallel edges; opposite cyclic orders
    return FatGraph.from_vertex_cycles(
        pairs=[(0, 1), (2, 3), (4, 5)],
        vertex_cycles=[(0, 2, 4), (1, 5, 3)])


def theta_twisted():
    # same edges, equal cyclic orders: thickens to a once-holed torus
    return FatGraph.from_vertex_cycles(
        pairs=[(0, 1), (2, 3), (4, 5)],
        vertex_cycles=[(0, 2, 4), (1, 3, 5)])


def five_edge_graph():
    # A=0/1, B=2/3, C=4/5, D=6/7, E=8/9; rotation system recovered from the
    # boundary partition (A,B,C)(A~,D~,E,B~,D,C~,E~) via rot = walk o inv
    return FatGraph.from_vertex_cycles(
        pairs=[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)],
        vertex_cycles=[(0, 7, 5), (2, 6, 8, 1), (4, 9, 3)])


def brute_force_orbits(inv, rot):
    """Independent successor-orbit enumeration used as the oracle."""
    succ = {h: rot[inv[h]] for h in range(len(inv))}
    left = set(succ)
    orbits = []
    while left:
        start = min(left)
        cyc = [start]
        left.remove(start)
        h = succ[start]
        while h != start:
            cyc.append(h)
            left.remove(h)
            h = succ[h]
        orbits.append(tuple(cyc))
    return sorted(orbits)


class TestBoundaryCycles:
    def test_figure8_matches_printed_partition(self):
        cycles = fig8().boundary_cycles().cycles
        assert cycles == ((0,), (1, 3), (2,))  # (A), (A~, B~), (B)

    def test_figure8_genus(self):
        assert fig8().genus() == (0, 3)

    def test_theta_planar(self):
        g = theta_planar()
        cycles = g.boundary_cycles().cycles
        assert len(cycles) == 3
        assert g.euler_characteristic() == -1
        assert g.genus() == (0, 3)
        assert brute_force_orbits(g.involution, g.rotation) == sorted(cycles)

    def test_theta_twisted(self):
        g = theta_twisted()
        assert g.genus() == (1, 1)

    def test_five_edge_graph_partition(self):
        g = five_edge_graph()
        cycles = g.boundary_cycles().cycles
        assert cycles == ((0, 2, 4), (1, 7, 8, 3, 6, 5, 9))
        assert g.euler_characteristic() == -2
        assert g.genus() == (1, 2)

    def test_bivalent_vertex_rejected(self):
        with pytest.raises(StructuralValidationError):
            FatGraph.from_vertex_cycles(pairs=[(0, 1)], vertex_cycles=[(0, 1)])

    def test_empty_graph_rejected(self):
        # it read as genus 1 with no boundary cycles
        with pytest.raises(StructuralValidationError, match="half-edges"):
            FatGraph([], [])

    def test_fixed_point_involution_rejected(self):
        with pytest.raises(StructuralValidationError):
            FatGraph([0, 1, 3, 2], [1, 2, 3, 0])

    def test_cycles_partition_oriented_edges(self):
        for g in (fig8(), dumbbell(), theta_planar(), five_edge_graph()):
            cycles = g.boundary_cycles().cycles
            flat = sorted(h for c in cycles for h in c)
            assert flat == list(range(g.n))
            assert sum(len(c) for c in cycles) == 2 * g.num_edges

    def test_successor_closes_each_cycle(self):
        g = five_edge_graph()
        for cyc in g.boundary_cycles().cycles:
            for i, h in enumerate(cyc):
                assert g.successor(h) == cyc[(i + 1) % len(cyc)]


class TestEulerGenus:
    def test_euler_characteristic(self):
        assert fig8().euler_characteristic() == -1
        assert theta_planar().euler_characteristic() == -1

    def test_disjoint_union_additivity(self):
        g = FatGraph.from_vertex_cycles(
            pairs=[(0, 1), (2, 3), (4, 5), (6, 7)],
            vertex_cycles=[(0, 3, 2, 1), (4, 7, 6, 5)])
        assert g.euler_characteristic() == -2
        with pytest.raises(DisconnectedGraphError):
            g.genus()
        assert g.genus_by_component() == [(0, 3), (0, 3)]

    def test_component_labels_follow_the_least_vertex(self):
        # a planar theta on vertices 0 and 2, a dumbbell on 1 and 4 and a
        # figure-8 on 3: vertices are numbered by least half-edge
        g = FatGraph.from_vertex_cycles(
            pairs=[(0, 2), (5, 6), (7, 8), (1, 9), (10, 4), (11, 12), (3, 13),
                   (14, 15)],
            vertex_cycles=[(0, 5, 7), (2, 8, 6), (1, 9, 10), (4, 11, 12),
                           (3, 14, 13, 15)])
        assert g.vertices[1] == (1, 9, 10)
        assert g.component_labels() == [0, 1, 0, 2, 1]
        assert not g.is_connected()
        assert g.genus_by_component() == [(0, 3), (0, 3), (1, 1)]


def random_fat_graph(rng, max_edges=12):
    """Random rotation system: random pairing split into vertices of
    valence >= 3."""
    while True:
        n_edges = int(rng.integers(2, max_edges + 1))
        n = 2 * n_edges
        halves = list(rng.permutation(n))
        # split into chunks of size >= 3
        cycles = []
        i = 0
        while n - i >= 3:
            largest = n - i - 3
            size = 3 + int(rng.integers(0, largest + 1)) if largest > 0 else 3
            if n - i - size in (1, 2):
                size = n - i
            cycles.append(tuple(halves[i:i + size]))
            i += size
        if i < n:
            if cycles and n - i < 3:
                cycles[-1] = cycles[-1] + tuple(halves[i:])
            else:
                cycles.append(tuple(halves[i:]))
        pairs = [(2 * k, 2 * k + 1) for k in range(n_edges)]
        g = FatGraph.from_vertex_cycles(pairs, cycles)
        if g.is_connected():
            return g


class TestFuzzIdentity:
    def test_chi_genus_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            g = random_fat_graph(rng)
            gen, n_cycles = g.genus()
            assert gen >= 0
            assert 2 - 2 * gen - n_cycles == g.euler_characteristic()
            flat = sorted(h for c in g.boundary_cycles().cycles for h in c)
            assert flat == list(range(g.n))


class TestAdmissible:
    def test_figure8_standard_split(self):
        g = fig8()
        b = g.boundary_cycles().with_roles([INCOMING, OUTGOING, INCOMING])
        assert is_admissible(g, b)  # (A),(B) in; (A~,B~) out

    def test_figure8_bad_split(self):
        g = fig8()
        b = g.boundary_cycles().with_roles([INCOMING, INCOMING, OUTGOING])
        assert not is_admissible(g, b)

    def test_all_outgoing_vacuous(self):
        g = fig8()
        b = g.boundary_cycles().with_roles([OUTGOING] * 3)
        assert is_admissible(g, b)

    def test_relabel_invariance(self):
        g = fig8()
        roles = [INCOMING, OUTGOING, INCOMING]
        base = is_admissible(g, g.boundary_cycles().with_roles(roles))
        rng = np.random.default_rng(3)
        for _ in range(20):
            perm = list(rng.permutation(g.n))
            g2 = g.relabeled(perm)
            b2 = g2.boundary_cycles()
            # transport roles through the relabeling
            old = g.boundary_cycles()
            role_by_new_key = {}
            for cyc, role in zip(old.cycles, roles):
                key = canonical_cycle([perm[h] for h in cyc])
                role_by_new_key[key] = role
            new_roles = [role_by_new_key[c] for c in b2.cycles]
            assert is_admissible(g2, b2.with_roles(new_roles)) == base


class TestChordDiagram:
    def test_figure8_is_reduced_diagram(self):
        d = ChordDiagram(fig8())
        assert d.circles == ((0,), (2,))
        assert validate_chord_diagram(d) == []
        assert d.incoming_count() == 2
        assert d.outgoing_count() == 1

    def test_dumbbell_diagram(self):
        g = dumbbell()
        d = ChordDiagram(g, ghost_edges=[g.edge_of(4)])
        assert validate_chord_diagram(d) == []
        assert d.incoming_count() == 2
        assert len(d.boundary.cycles) == 3

    def test_ghost_loop_reported(self):
        g = fig8()
        d = ChordDiagram(g, ghost_edges=[0], roles=[OUTGOING, OUTGOING, INCOMING],
                         validate=False)
        report = validate_chord_diagram(d)
        assert any("cycle" in r for r in report)

    def test_ghost_loop_report(self):
        # dumbbell: loop A at vertex 0 and the bridge are ghosts, loop B at
        # vertex 1 is the circle
        g = dumbbell()
        d = ChordDiagram(g, ghost_edges=[g.edge_of(0), g.edge_of(4)],
                         circles=[(3,)], validate=False)
        assert validate_chord_diagram(d) == [
            "ghost component at vertex 0 contains a cycle"]

    def test_ghost_multi_edge_report(self):
        # two circles joined by two parallel ghost edges
        g = FatGraph.from_vertex_cycles(
            pairs=[(0, 1), (2, 3), (4, 5), (6, 7)],
            vertex_cycles=[(0, 1, 4, 6), (2, 3, 7, 5)])
        d = ChordDiagram(g, ghost_edges=[g.edge_of(4), g.edge_of(6)],
                         circles=[(1,), (3,)], validate=False)
        assert validate_chord_diagram(d) == [
            "ghost component at vertex 0 contains a cycle"]
        assert circular_vertex_classes(d) == ((0, 1),)

    def test_dangling_ghost_leaf_report(self):
        # the dumbbell's ghost bridge plus a ghost hair to vertex 2, which
        # lies on no circle
        g = FatGraph.from_vertex_cycles(
            pairs=[(0, 1), (2, 3), (4, 5), (6, 7)],
            vertex_cycles=[(0, 1, 4, 6), (2, 3, 5), (7,)],
            allow_low_valence=True)
        d = ChordDiagram(g, ghost_edges=[g.edge_of(4), g.edge_of(6)],
                         circles=[(1,), (3,)], validate=False)
        assert validate_chord_diagram(d) == [
            "ghost tree endpoint at vertex 2 is not on a circle"]
        assert circular_vertex_classes(d) == ((0, 1),)

    def test_vertex_classes_no_ghosts(self):
        d = ChordDiagram(fig8())
        assert circular_vertex_classes(d) == ((0,),)

    def test_vertex_classes_dumbbell(self):
        g = dumbbell()
        d = ChordDiagram(g, ghost_edges=[g.edge_of(4)])
        assert circular_vertex_classes(d) == ((0, 1),)

    def test_vertex_classes_three_circles_one_tree(self):
        # three loops joined to a central ghost vertex by three ghost edges
        g = FatGraph.from_vertex_cycles(
            pairs=[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)],
            vertex_cycles=[(0, 1, 6), (2, 3, 8), (4, 5, 10), (7, 9, 11)])
        ghosts = [g.edge_of(6), g.edge_of(8), g.edge_of(10)]
        d = ChordDiagram(g, ghost_edges=ghosts)
        classes = circular_vertex_classes(d)
        assert classes == ((0, 1, 2),)


class TestReduce:
    def test_reduce_figure8_fixed_point(self):
        d = ChordDiagram(fig8())
        r = reduce_diagram(d)
        assert r.graph.n == d.graph.n
        assert r.graph.rotation == d.graph.rotation
        assert r.circles == d.circles

    def test_reduce_dumbbell_gives_figure8_shape(self):
        g = dumbbell()
        d = ChordDiagram(g, ghost_edges=[g.edge_of(4)])
        r = reduce_diagram(d)
        assert r.graph.num_vertices == 1
        assert r.graph.num_edges == 2
        assert r.graph.euler_characteristic() == -1
        assert len(r.boundary.cycles) == 3
        assert r.incoming_count() == 2
        assert r.ghost_edges == frozenset()

    def test_reduce_idempotent(self):
        g = dumbbell()
        d = ChordDiagram(g, ghost_edges=[g.edge_of(4)])
        r1 = reduce_diagram(d)
        r2 = reduce_diagram(r1)
        assert r1.graph.involution == r2.graph.involution
        assert r1.graph.rotation == r2.graph.rotation

    def test_reduce_preserves_chi_and_counts(self):
        g = two_circle_two_ghost_graph()
        d = ChordDiagram(g, ghost_edges=ghost_edges_of_two_ghost_graph(g))
        r = reduce_diagram(d)
        assert r.graph.euler_characteristic() == g.euler_characteristic()
        assert len(r.boundary.cycles) == len(d.boundary.cycles)
        assert r.incoming_count() == d.incoming_count()

    def test_contraction_order_independent(self):
        g = two_circle_two_ghost_graph()
        ghosts = sorted(ghost_edges_of_two_ghost_graph(g))
        d = ChordDiagram(g, ghost_edges=ghosts)
        r1 = reduce_diagram(d, ghost_order=ghosts)
        r2 = reduce_diagram(d, ghost_order=list(reversed(ghosts)))
        assert r1.graph.involution == r2.graph.involution
        assert r1.graph.rotation == r2.graph.rotation

    def test_reduce_merges_lengths(self):
        # dumbbell with lengths: ghost contraction then no smoothing needed
        g = FatGraph.from_vertex_cycles(
            pairs=[(0, 1), (2, 3), (4, 5)],
            vertex_cycles=[(0, 1, 4), (2, 3, 5)],
            edge_lengths=[2.0, 3.0, 1.0])
        d = ChordDiagram(g, ghost_edges=[g.edge_of(4)])
        r = reduce_diagram(d)
        assert sorted(r.graph.edge_lengths) == [2.0, 3.0]


def two_circle_two_ghost_graph():
    """Two triangle circles joined by a two-edge ghost path through an
    extra circle vertex (tree with 2 edges, 2 leaves, spanning 3 circular
    vertices is not possible; this one has a 2-edge path between circles
    through a trivalent circle vertex on circle one)."""
    # circle 1: loop A at v0 (0,1); circle 2: loop B at v1 (2,3)
    # ghost path: v0 -(4,5)- v2 ... need v2 at least trivalent: make circle 2
    # a 2-gon with vertices v1, v2 instead.
    #   circle 2 edges: (2,3) between v1 and v2, (6,7) between v2 and v1
    #   ghosts: (4,5) from v0 to v1, (8,9) from v0 to v2
    return FatGraph.from_vertex_cycles(
        pairs=[(0, 1), (2, 3), (6, 7), (4, 5), (8, 9)],
        vertex_cycles=[(0, 1, 4, 8), (2, 7, 5), (6, 3, 9)])


def ghost_edges_of_two_ghost_graph(g):
    return [g.edge_of(4), g.edge_of(8)]


class TestJoinedCircles:
    def test_reduced_input_yields_bare_circles(self):
        d = ChordDiagram(fig8())
        graph, circles, hairs = joined_incoming_circles(d)
        assert hairs == frozenset()
        assert len(circles) == 2
        # two bare circles, one bivalent marker vertex each
        assert graph.num_vertices == 2
        assert graph.num_edges == 2
        labels = graph.component_labels()
        assert max(labels) == 1

    def test_dumbbell_rebuilds_dumbbell(self):
        g = dumbbell()
        d = ChordDiagram(g, ghost_edges=[g.edge_of(4)])
        graph, circles, hairs = joined_incoming_circles(d)
        assert graph.euler_characteristic() == g.euler_characteristic()
        assert sorted(len(v) for v in graph.vertices) == [3, 3]
        assert len(hairs) == 1
        # rebuilt graph carries the same incoming circles
        d2 = ChordDiagram(graph, ghost_edges=hairs, circles=circles)
        assert validate_chord_diagram(d2) == []

    def test_two_ghost_tree_rebuild_homotopy_equivalent(self):
        g = two_circle_two_ghost_graph()
        d = ChordDiagram(g, ghost_edges=ghost_edges_of_two_ghost_graph(g))
        graph, circles, hairs = joined_incoming_circles(d)
        # same homotopy type as the original: equal Euler characteristic
        assert graph.euler_characteristic() == g.euler_characteristic()
        assert len(circles) == 2


class TestGraphFile:
    FIG8 = """\
halfedges 4
pair 0 1
pair 2 3
vertex 0: 0 3 2 1
cycle-role 0 incoming
cycle-role 2 incoming
cycle-role 1 outgoing
"""

    def test_parse_figure8(self):
        data = parse_graph_file(self.FIG8)
        assert data.graph.boundary_cycles().cycles == ((0,), (1, 3), (2,))
        b = data.boundary_with_roles()
        assert b.roles == (INCOMING, OUTGOING, INCOMING)
        assert is_admissible(data.graph, b)

    def test_roundtrip(self):
        data = parse_graph_file(self.FIG8)
        text = format_graph_file(data.graph, roles=data.roles)
        again = parse_graph_file(text)
        assert again.graph.involution == data.graph.involution
        assert again.graph.rotation == data.graph.rotation
        assert again.roles == data.roles

    def test_lengths_and_ghosts(self):
        text = """\
halfedges 6
pair 0 1
pair 2 3
pair 4 5
vertex 0: 0 1 4
vertex 1: 2 3 5
length 0 2.5
length 2 0.5
ghost 2
"""
        data = parse_graph_file(text)
        assert data.graph.edge_lengths == (2.5, 1.0, 0.5)
        assert data.ghost_edges == frozenset({2})
        d = data.diagram()
        assert validate_chord_diagram(d) == []

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_graph_file("pair 0 1\n")
        with pytest.raises(ParseError):
            parse_graph_file("halfedges 2\npair 0 1\nvertex 0: 0\n")
        with pytest.raises(ParseError):
            parse_graph_file("halfedges 2\nnonsense 1 2\n")


class TestMarkedPoints:
    def test_marked_point_on_metric_cycle(self):
        g = FatGraph.from_vertex_cycles(
            pairs=[(0, 1), (2, 3)], vertex_cycles=[(0, 3, 2, 1)],
            edge_lengths=[2.0, 5.0])
        b = g.boundary_cycles()
        assert b.circumference(1) == 7.0
        b2 = b.with_marked_point(1, 3, 4.5)
        assert b2.marked_points[1] == (3, 4.5)
        with pytest.raises(StructuralValidationError):
            b.with_marked_point(1, 0, 0.0)   # half-edge 0 not on cycle 1
        with pytest.raises(StructuralValidationError):
            b.with_marked_point(0, 0, 2.0)   # offset beyond edge length
