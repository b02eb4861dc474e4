import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from morseflow.complexes import chain_map_defect, homology
import morseflow.counting as counting
from morseflow.counting import boundary_operator, continuation
from morseflow.errors import (
    DegenerateCrossingError,
    GeometryError,
    OrientationError,
    StructuralValidationError,
    TransversalityError,
    UnsupportedDiagramError,
)
from morseflow.fatgraph import ChordDiagram, FatGraph
from morseflow.geometry import (
    CriticalPoint,
    MorseSystem,
    sphere_band,
    sphere_height,
    torus_cosine,
)
from morseflow.geometry.bundles import (
    sphere_tangent_bundle,
    torus_tangent_bundle,
    trivial_bundle,
    unorientable_stub,
    whitney_sum_with_trivial,
)
from morseflow.geometry.flow import fixed_time_flow
from morseflow.operations import (
    FlowGraphProblem,
    diagram_flow_operation,
    euler_class,
    expected_dimension,
    graph_flow_count,
    identity_embedding,
    operation_table,
    pushforward,
    sphere_equator,
    thom_class,
    thom_complex,
    torus_factor_circle,
    umkehr,
    verify_operation_chain_map,
)
import morseflow.operations as operations

from oracles import curve_intersections_per_pair, torus_intersection_table


@pytest.fixture(scope="module")
def t2():
    return torus_cosine(2, [1.0, 0.7], phases=[0.9, 1.3])


@pytest.fixture(scope="module")
def s2():
    return sphere_height(2)


@pytest.fixture(scope="module")
def factor(t2):
    return torus_factor_circle(t2, fixed_axis=1, level=2.0, phase=0.3)


@pytest.fixture(scope="module")
def factor_push(factor):
    return pushforward(factor)


@pytest.fixture(scope="module")
def factor_umkehr(factor):
    return umkehr(factor)


# -- independent Poincare-Hopf oracle (no package zero-finding reused) --------

def zero_index_sum(man, field, n_grid=400, seed=3):
    """Count zeros of a tangent field with chart-orientation signs."""
    rng = np.random.default_rng(seed)
    zeros = []
    for _ in range(n_grid):
        x = man.random_point(rng)
        for _ in range(80):
            v = field(x)
            if np.linalg.norm(v) < 1e-11:
                break
            basis = man.oriented_tangent_basis(x)
            eps = 1e-6
            J = np.zeros((basis.shape[1], basis.shape[1]))
            for j in range(basis.shape[1]):
                xp = man.project(x + eps * basis[:, j])
                xm = man.project(x - eps * basis[:, j])
                J[:, j] = basis.T @ (field(xp) - field(xm)) / (2 * eps)
            try:
                step = np.linalg.solve(J, -(basis.T @ v))
            except np.linalg.LinAlgError:
                break
            if np.linalg.norm(step) > 0.4:
                step *= 0.4 / np.linalg.norm(step)
            x = man.project(x + basis @ step)
        else:
            continue
        if np.linalg.norm(field(x)) >= 1e-11:
            continue
        if any(man.distance(x, z) < 1e-5 for z, _s in zeros):
            continue
        basis = man.oriented_tangent_basis(x)
        eps = 1e-6
        J = np.zeros((basis.shape[1], basis.shape[1]))
        for j in range(basis.shape[1]):
            xp = man.project(x + eps * basis[:, j])
            xm = man.project(x - eps * basis[:, j])
            J[:, j] = basis.T @ (field(xp) - field(xm)) / (2 * eps)
        det = np.linalg.det(J)
        assert abs(det) > 1e-8
        zeros.append((x, 1 if det > 0 else -1))
    return sum(s for _x, s in zeros), len(zeros)


class TestEmbeddings:
    def test_construction_checks(self, t2, factor):
        assert factor.codim == 1
        # a critical point sitting on the image is rejected
        with pytest.raises(StructuralValidationError):
            torus_factor_circle(t2, fixed_axis=1, level=float(
                t2.point("x00").point[1]), phase=0.3)

    @pytest.mark.parametrize("axis, level, what", [
        (2, 2.0, "axis"), (-1, 2.0, "axis"), (9, 1.0, "axis"),
        (0, math.nan, "level"), (0, math.inf, "level"),
        (1, -math.inf, "level")])
    def test_bad_factor_circle_raises(self, t2, axis, level, what):
        # before, an axis outside {0, 1} indexed past the point (IndexError)
        # and a non-finite level failed in an SVD (LinAlgError)
        with pytest.raises(GeometryError, match=what):
            torus_factor_circle(t2, fixed_axis=axis, level=level, phase=0.3)

    def test_identity_pushforward_and_umkehr(self, t2):
        emb = identity_embedding(t2)
        for mats in (pushforward(emb), umkehr(emb)):
            for p, m in mats.items():
                assert np.array_equal(m, np.eye(m.shape[0], dtype=object))


class TestPushforward:
    def test_factor_circle_hits_one_generator(self, t2, factor, factor_push):
        # degree 0: the domain minimum lands on the torus minimum
        assert factor_push[0].tolist() == [[1]]
        # degree 1: the circle class maps onto the saddle whose unstable
        # circle winds the same coordinate direction; pinned with its sign
        assert factor_push[1].tolist() == [[1], [0]]

    def test_chain_map_identity_exact(self, t2, factor, factor_push):
        dom = boundary_operator(factor.domain)
        cod = boundary_operator(t2)
        assert chain_map_defect(dom, cod, factor_push, 0) == 0

    @pytest.mark.parametrize("phase", [0.905, 0.895])
    def test_near_alignment_circle_hits_one_saddle(self, t2, phase):
        # the circle's maximum sits 0.005 from the vertical stable curve
        # of x10, so the crossing lies within 0.02 of it in the domain
        emb = torus_factor_circle(t2, fixed_axis=1, level=2.0, phase=phase)
        push = pushforward(emb)
        assert push[0].tolist() == [[1]]
        assert sorted(abs(int(v)) for v in push[1].flat) == [0, 1]

    def test_equator_kills_h1(self, s2):
        emb = sphere_equator(s2)
        push = pushforward(emb)
        assert push[0].tolist() == [[1]]
        # no index-1 generators upstairs: the circle class dies
        assert push[1].shape == (0, 1)


class TestUmkehr:
    def test_degree_shift_and_factor_circle_counts(self, factor_umkehr):
        # index-2 generator crosses the circle once, onto the domain saddle
        assert factor_umkehr[2].tolist() == [[1]]
        # exactly one of the two saddles has its unstable circle crossing;
        # both pinned with their signs
        assert factor_umkehr[1].tolist() == [[0, 1]]

    def test_chain_map_identity_exact(self, t2, factor, factor_umkehr):
        dom = boundary_operator(factor.domain)
        cod = boundary_operator(t2)
        assert chain_map_defect(cod, dom, factor_umkehr, -1) == 0

    def test_umkehr_then_pushforward_vanishes(self, factor, factor_push,
                                              factor_umkehr):
        # trivial normal bundle: e_! o e_* = 0 on the domain homology
        for p in factor_push:
            target = p - factor.codim
            if target in factor_umkehr and factor_umkehr[target].size \
                    and factor_push[p].size:
                comp = factor_umkehr[p] @ factor_push[p] \
                    if p in factor_umkehr else None
        # degree 1 of the domain: e_*(p1) hits the saddle whose unstable
        # circle is parallel to the embedded circle, so e_! returns zero
        comp = factor_umkehr[1] @ factor_push[1]
        assert np.array_equal(comp, np.zeros_like(comp))

    def test_documented_draw_top_entry(self):
        # the fundamental class caps to the circle's class; the circle
        # lattice that counted this entry before returned [0] here
        t2 = torus_cosine(2, [1.0, 0.7], phases=[5.6212, 5.372])
        emb = torus_factor_circle(t2, fixed_axis=0, level=6.0683,
                                  phase=0.2643)
        assert np.abs(umkehr(emb, verify=True)[2]).tolist() == [[1]]

    def test_seeded_draws_top_entry(self):
        # factor circles drawn as the embedding benchmark draws them
        rng = np.random.default_rng(11)
        tops = []
        while len(tops) < 8:
            u = rng.random(7)
            t2 = torus_cosine(2, [1.0, 0.7], phases=2 * np.pi * u[0:2])
            try:
                emb = torus_factor_circle(t2, fixed_axis=int(2 * u[2]),
                                          level=2 * np.pi * u[3],
                                          phase=2 * np.pi * u[4])
            except StructuralValidationError:
                continue
            tops.append(np.abs(umkehr(emb, verify=False)[2]).tolist())
        assert tops == [[[1]]] * 8

    @settings(max_examples=10, derandomize=True, deadline=None,
              database=None)
    @given(axis=st.integers(0, 1),
           level=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
           phase=st.floats(0.0, 2.0 * np.pi, exclude_max=True))
    def test_factor_circle_draws(self, t2, axis, level, phase):
        # the fundamental class caps to the circle's class, exactly one
        # saddle's unstable circle crosses the circle, and e_! e_* = 0 in
        # degree one
        try:
            emb = torus_factor_circle(t2, fixed_axis=axis, level=level,
                                      phase=phase)
        except StructuralValidationError:
            assume(False)
        push, shriek = pushforward(emb), umkehr(emb)
        assert np.abs(shriek[2]).tolist() == [[1]]
        assert sorted(abs(int(v)) for v in shriek[1].flat) == [0, 1]
        comp = shriek[1] @ push[1]
        assert np.array_equal(comp, np.zeros_like(comp))

    def test_equator_top_entry(self, s2):
        # the backward shot from e(p) in the sphere's 3-D coordinates
        mats = umkehr(sphere_equator(s2))
        assert {p: m.tolist() for p, m in mats.items() if m.size} == \
            {2: [[1]]}


class TestThom:
    def test_trivial_rank1_suspension(self, s2):
        td = thom_complex(trivial_bundle(s2.manifold, 1), s2)
        assert homology(td.relative).betti_vector([0, 1, 2, 3]) == (0, 1, 0, 1)

    def test_rank0_identity(self, s2):
        td = thom_complex(trivial_bundle(s2.manifold, 0), s2)
        assert homology(td.relative).betti_vector([0, 1, 2]) == (1, 0, 1)

    def test_ts2_thom_betti(self, s2):
        td = thom_complex(sphere_tangent_bundle(s2.manifold), s2)
        assert homology(td.relative).betti_vector([0, 1, 2, 3, 4]) == \
            (0, 0, 1, 0, 1)

    def test_degree_shift_structarally(self, s2):
        td = thom_complex(trivial_bundle(s2.manifold, 2), s2)
        assert sorted(td.relative.degrees()) == [2, 4]
        T = td.identification(0)
        assert T.shape == (1, 1) and int(T[0, 0]) == 1

    def test_thom_class_and_fiber_pairing(self, s2):
        tc = thom_class(sphere_tangent_bundle(s2.manifold), s2)
        assert tc.unit_cochain == {"south": 1}
        assert tc.fiber_pairing == 1

    def test_unorientable_rejected(self, s2):
        with pytest.raises(OrientationError):
            thom_class(unorientable_stub(s2.manifold), s2)


class TestEuler:
    def test_trivial_bundle_zero(self, s2):
        e = euler_class(trivial_bundle(s2.manifold, 2), s2)
        assert e.coefficients == {}
        assert e.fundamental_pairing == 0

    def test_whitney_trivial_summand_zero(self, s2):
        e = euler_class(whitney_sum_with_trivial(
            sphere_tangent_bundle(s2.manifold)), s2)
        assert e.coefficients == {}

    def test_tangent_sphere_is_chi(self, s2):
        e = euler_class(sphere_tangent_bundle(s2.manifold), s2)
        assert abs(e.fundamental_pairing) == 2
        assert sum(s for _z, _o, s in e.zeros) == e.fundamental_pairing

    def test_tangent_sphere_matches_poincare_hopf(self, s2):
        e = euler_class(sphere_tangent_bundle(s2.manifold), s2)
        axis = np.array([0.1, 0.8, 0.58])

        def field(x):
            return axis - np.dot(axis, x) * x

        total, count = zero_index_sum(s2.manifold, field, n_grid=60)
        assert total == 2 and count == 2
        assert abs(e.fundamental_pairing) == abs(total)

    def test_tangent_torus_zero(self, t2):
        bundle = torus_tangent_bundle(t2.manifold)
        assert euler_class(bundle, t2).coefficients == {}

        def section(x):
            return np.array([np.sin(x[0] - 2.1), np.sin(x[1] - 0.8)])

        honest = euler_class(bundle, t2, section=section)
        assert honest.fundamental_pairing == 0
        assert len(honest.zeros) == 4

        def oracle_field(x):
            return np.array([np.sin(x[0] - 1.234), np.sin(x[1] + 0.567)])

        total, count = zero_index_sum(t2.manifold, oracle_field, n_grid=60)
        assert total == 0 and count == 4


def figure8_diagram():
    g = FatGraph.from_vertex_cycles(pairs=[(0, 1), (2, 3)],
                                    vertex_cycles=[(0, 3, 2, 1)])
    return ChordDiagram(g)


@pytest.fixture(scope="module")
def nu_problem():
    E1 = torus_cosine(2, [1.0, 0.7], phases=[0.0, 0.0], name="in1")
    E2 = torus_cosine(2, [1.0, 0.7], phases=[0.9, 1.3], name="in2")
    E3 = torus_cosine(2, [1.0, 0.7], phases=[-0.7, 0.55], name="out")
    return FlowGraphProblem(figure8_diagram(), [E1, E2], [E3])


@pytest.fixture(scope="module")
def nu_table(nu_problem):
    return operation_table(nu_problem, edge_time=0.0)


ORACLE_NAMES = {"pt": "x00", "c1": "x10", "c2": "x01", "top": "x11"}


def assert_oracle_table(table):
    """The table is the intersection product in the shared naming."""
    basis, _deg, oracle = torus_intersection_table(eps=-1)
    for a in basis:
        for b in basis:
            got = table.get((ORACLE_NAMES[a], ORACLE_NAMES[b]), {})
            want = {ORACLE_NAMES[c]: v for c, v in oracle[(a, b)].items()}
            assert got == want, (a, b, got, want)


def phased_problem(phases, perturb=0.0, seeds=(0, 0, 0)):
    labels = [torus_cosine(2, [1.0, 0.7], phases=list(ph), name=name,
                           perturb=perturb, seed=seed)
              for ph, name, seed in zip(phases, ("in1", "in2", "out"), seeds)]
    return FlowGraphProblem(figure8_diagram(), labels[:2], labels[2:])


# the criterion-7 labels (in1, in2, out), and torus shifts of all three
# by the 4 x 4 grid of quarter turns
CRITERION7_PHASES = np.array([(0.0, 0.0), (0.9, 1.3), (-0.7, 0.55)])
QUARTER_TURNS = [(j / 4, k / 4) for j in range(4) for k in range(4)]


# perturbed labels (phases, perturb, seeds) whose outgoing stable curve a
# forward flow from a crossing missed
OUTGOING_LABELS = {
    "945": ([(0.8488, 3.7706), (2.6327, 2.0351), (1.0697, 4.9033)], 0.05,
            (945, 650, 914)),
    "115": ([(5.6317, 5.3918), (0.0178, 3.4021), (0.6714, 1.6208)], 0.05,
            (115, 351, 416)),
    "276": ([(4.9849, 2.949), (6.2568, 0.6178), (1.8502, 5.5373)], 0.05,
            (276, 714, 435)),
}


def crossing_bits(crossings, curve_a, curve_b):
    """Each crossing's point, branches (by position in their curves),
    segments and parameters, floats as bits."""
    def at(curve, branch):
        return [k for k, C in enumerate(curve) if C is branch]

    return [(c.point.tobytes(), at(curve_a, c.a), c.k, float(c.theta).hex(),
             at(curve_b, c.b), c.l, float(c.u).hex()) for c in crossings]


def segment_gaps(man, polyline, z):
    """The distance from z to each segment of the polyline, on the chart
    at the segment's start."""
    d = man.displacement(polyline[:-1], polyline[1:])
    rel = man.displacement(polyline[:-1], z)
    t = np.clip(np.sum(rel * d, axis=1)
                / np.maximum(np.sum(d * d, axis=1), 1e-300), 0.0, 1.0)
    return np.linalg.norm(rel - t[:, None] * d, axis=1)


def near_alignment_phases(seed, rho=0.02):
    """Uniform label phases, except that one angle of in2 sits within rho
    of in1's modulo pi: one of in2's index-1 points is then within rho of
    one of in1's index-1 points in that angle."""
    rng = np.random.default_rng(seed)
    in1, in2, out = rng.uniform(0.0, 2.0 * np.pi, size=(3, 2))
    axis = rng.integers(2)
    in2[axis] = (in1[axis] + np.pi * rng.integers(2)
                 + rng.uniform(-rho, rho)) % (2.0 * np.pi)
    return in1, in2, out


class TestDiagramOperation:
    def test_expected_dimension_formula(self, nu_problem):
        assert nu_problem.chi_times_dim() == -2
        assert expected_dimension(nu_problem, ("x10", "x01"), ["x00"]) == 0
        assert expected_dimension(nu_problem, ("x10", "x01"), ["x10"]) == -1
        assert expected_dimension(nu_problem, ("x11", "x11"), ["x11"]) == 0

    def test_gate_rejects_nonzero_dimension(self, nu_problem):
        with pytest.raises(ValueError):
            graph_flow_count(nu_problem, ("x10", "x01"), "x10")

    @pytest.mark.parametrize("edge_time", [-1.0, np.nan, np.inf])
    def test_bad_edge_time_raises(self, nu_problem, edge_time):
        # before, -1 and nan gave the table of edge time 0, and inf ran
        # the step budget out
        with pytest.raises(GeometryError, match="^duration must be finite"):
            operation_table(nu_problem, edge_time=edge_time)

    def test_same_label_rejected(self):
        E = torus_cosine(2, [1.0, 0.7])
        E3 = torus_cosine(2, [1.0, 0.7], phases=[-0.7, 0.55])
        with pytest.raises(TransversalityError):
            FlowGraphProblem(figure8_diagram(), [E, E], [E3])

    def test_unsupported_diagram(self):
        # dumbbell reduces to the figure-8 family; the raw dumbbell with a
        # ghost edge must be reduced first
        g = FatGraph.from_vertex_cycles(
            pairs=[(0, 1), (2, 3), (4, 5)],
            vertex_cycles=[(0, 1, 4), (2, 3, 5)])
        d = ChordDiagram(g, ghost_edges=[g.edge_of(4)])
        E1 = torus_cosine(2, [1.0, 0.7], phases=[0.0, 0.0])
        E2 = torus_cosine(2, [1.0, 0.7], phases=[0.9, 1.3])
        E3 = torus_cosine(2, [1.0, 0.7], phases=[-0.7, 0.55])
        with pytest.raises(StructuralValidationError):
            FlowGraphProblem(d, [E1, E2], [E3])

    def test_intersection_table(self, nu_table):
        # continuation between the phase-shifted labels is the identity in
        # the shared naming, so the table reads directly as the product
        assert_oracle_table(nu_table)

    def test_near_alignment_labels_give_the_oracle_table(self):
        # the (x01, x10) -> x00 configuration sits 0.0052 from in1's x01,
        # since in1's x01 and in2's x10 nearly share their second angle
        assert_oracle_table(operation_table(phased_problem(
            [(5.2212, 2.2679), (4.4154, 5.4043), (4.0295, 3.4455)])))

    def test_perturbed_labels_give_the_oracle_table(self):
        # perturbation bends every branch curve, so a crossing must lie on
        # both curves closely enough for the signs' closest passes
        assert_oracle_table(operation_table(phased_problem(
            [(3.9276, 5.6374), (4.8738, 1.415), (1.886, 5.4887)],
            perturb=0.02, seeds=(91, 0, 49))))

    @pytest.mark.parametrize("phases, perturb, seeds, R", [
        ([(4.5796, 3.7717), (4.4702, 3.3683), (3.5077, 5.6931)], 0.05,
         (815, 282, 876), 0.0),
        ([(5.95, 5.9258), (2.9908, 5.0314), (4.67, 5.9644)], 0.05,
         (222, 354, 81), 0.0),
        ([(5.6639, 1.3644), (0.2078, 1.2615), (2.1724, 2.9462)], 0.02,
         (202, 339, 906), 1.0),
    ], ids=["p05-815", "p05-222", "p02-202-R1"])
    def test_incoming_frames_from_the_crossing(self, phases, perturb, seeds,
                                               R):
        # a backward flow from the crossing to an index-1 input missed it
        # by about 1.1e-3; its frame is carried along the branch instead
        assert_oracle_table(operation_table(
            phased_problem(phases, perturb, seeds), edge_time=R))

    @pytest.mark.parametrize("label, R", [("945", 0.0), ("115", 1.0),
                                          ("276", 1.0)],
                             ids=["945", "115-R1", "276-R1"])
    def test_outgoing_frames_from_the_branch(self, label, R):
        # a forward flow from the crossing on W^s(x10) to x10 missed it by
        # 0.0011-0.0084; the stable tangent is read off the branch instead
        assert_oracle_table(operation_table(
            phased_problem(*OUTGOING_LABELS[label]), edge_time=R))

    def test_rotated_sphere_band_labels(self):
        # backward flows from the (pole-, rim_hi) -> rim_hi and (rim_hi,
        # rim_hi) -> rim_lo configurations left the band's weakly
        # attracting equator and missed rim_hi by 0.09 and 0.23
        band = sphere_band(2, 0.15)

        def rotated(tilt, turn, name):
            c, s = np.cos(tilt), np.sin(tilt)
            R = np.array([[np.cos(turn), -np.sin(turn), 0.0],
                          [np.sin(turn), np.cos(turn), 0.0],
                          [0.0, 0.0, 1.0]]) @ np.array(
                [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
            return MorseSystem(
                band.manifold, lambda x: band.f(R.T @ x),
                lambda x: R @ band.grad(R.T @ x),
                [CriticalPoint(cp.name, R @ cp.point, cp.index)
                 for cp in band.critical_points], name=name)

        labels = [rotated(0.0, 0.0, "in1"), rotated(0.4, 1.1, "in2"),
                  rotated(-0.3, 2.3, "out")]
        problem = FlowGraphProblem(figure8_diagram(), labels[:2], labels[2:])
        assert verify_operation_chain_map(problem, operation_table(problem))

    @pytest.mark.parametrize("delta", [1e-7, -1e-7, 1e-9])
    def test_crossing_in_the_last_gap_of_a_branch(self, delta):
        # in2's minimum sits delta off in1's unstable curve of x10, so the
        # (x10, x01) and (x01, x10) configurations lie within delta of it:
        # past the last node of in2's branch flows, which stop within
        # eps_conv of their limit
        assert_oracle_table(operation_table(phased_problem(
            [(0.0, 0.0), (0.9, delta), (-0.7, 0.55)])))

    def test_aligned_labels_raise(self):
        # with delta = 0, in2's minimum lies on in1's unstable curve of
        # x10, and the backward flows of in2 from the configurations of
        # (x00, x11) and three more pairs converge into its saddle x10
        problem = phased_problem([(0.0, 0.0), (0.9, 0.0), (-0.7, 0.55)])
        with pytest.raises(TransversalityError,
                           match="ends at x10 of index 1"):
            graph_flow_count(problem, ("x00", "x11"), "x00")
        with pytest.raises(DegenerateCrossingError) as err:
            graph_flow_count(problem, ("x10", "x01"), "x00")
        e = err.value
        assert isinstance(e, TransversalityError) and e.code == 5
        assert (e.systems, e.limits) == (("in1", "in2"), ("x00", "x00"))
        # in2's limit, the end of its last segment, lies on in1's curve
        assert e.params[1] == 1.0 and 0.0 <= e.params[0] <= 1.0
        with pytest.raises(TransversalityError):
            operation_table(problem)

    @pytest.mark.parametrize("seed", range(8))
    def test_near_alignment_sweep(self, seed):
        assert_oracle_table(operation_table(phased_problem(
            near_alignment_phases(seed))))

    @settings(max_examples=10, derandomize=True, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), R=st.sampled_from([0.0, 1.0]))
    def test_perturbed_label_sweep(self, seed, R):
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(3, 2))
        seeds = tuple(int(v) for v in rng.integers(0, 1000, size=3))
        assert_oracle_table(operation_table(
            phased_problem(phases, 0.05, seeds), edge_time=R))

    @pytest.mark.parametrize("shift", QUARTER_TURNS)
    def test_shifted_tables_cross_as_the_per_pair_oracle(self, shift,
                                                         monkeypatch):
        # every curve pair, crossed in one pass, gives the crossings of
        # crossing it branch pair by branch pair on all segments
        real = operations.curve_intersections
        pairs = []

        def checked(man, curve_a, curve_b):
            got = real(man, curve_a, curve_b)
            want = curve_intersections_per_pair(man, curve_a, curve_b)
            assert crossing_bits(got, curve_a, curve_b) == crossing_bits(
                want, curve_a, curve_b)
            pairs.append(len(got))
            return got

        monkeypatch.setattr(operations, "curve_intersections", checked)
        assert_oracle_table(operation_table(phased_problem(
            (CRITERION7_PHASES + 2.0 * np.pi * np.array(shift))
            % (2.0 * np.pi))))
        assert len(pairs) == 12 and sum(pairs) > 0

    @pytest.mark.parametrize("R", [0.0, 1.0])
    def test_chord_crossings_lie_on_the_flow(self, R, monkeypatch):
        # a crossing is a point on the chords of the curves, off the flow
        # by up to the chord's sagitta: it must lie within 2e-3 of the
        # flow of its segment of c.a, re-integrated in 32 short pieces,
        # and classify as the nearest point of that flow does
        real = operations.curve_intersections
        crossings = []

        def kept(man, curve_a, curve_b):
            got = real(man, curve_a, curve_b)
            crossings.extend(got)
            return got

        monkeypatch.setattr(operations, "curve_intersections", kept)
        problem = phased_problem(CRITERION7_PHASES)
        assert_oracle_table(operation_table(problem, edge_time=R))
        E1, E2 = problem.incoming
        E3 = problem.outgoing[0]
        man = problem.manifold

        def classify(c, z):
            if c.b.system is E3:
                # case (2, 1): z must lie on W^u of the other input's
                # maximum
                other = E2 if c.a.system is E1 else E1
                return operations._flows_into(other, z, other.by_index(2)[0],
                                              -1)
            # case (1, 1): z's R-flow must land on W^s of the minimum
            return operations._flows_into(
                E3, operations._aux_time_map(problem, z, R),
                E3.by_index(0)[0])

        assert len(crossings) == 6
        for c in crossings:
            A, k = c.a, c.k
            fine = [A.nodes[k]]
            if 0 < k < len(A.times) - 1:
                dt = (A.times[k + 1] - A.times[k]) / 32
                for _ in range(32):
                    fine.extend(fixed_time_flow(A.system, fine[-1], dt,
                                                A.direction).points[1:])
            fine.append(A.nodes[k + 1])
            fine = np.array(fine)
            gaps = [np.linalg.norm(man.displacement(p, c.point))
                    for p in fine]
            assert min(segment_gaps(man, fine, c.point)) < 2e-3
            assert classify(c, c.point) == classify(
                c, fine[int(np.argmin(gaps))])

    def test_each_branch_is_charted_once(self, monkeypatch):
        # a table charts the two branches of W^u of each input's saddles
        # and of W^s of the output's saddles, once each; a complex crosses
        # no curves and charts nothing
        real = counting._chart
        charted = []

        def counted(man, R):
            charted.append(R)
            return real(man, R)

        monkeypatch.setattr(counting, "_chart", counted)
        operation_table(phased_problem(CRITERION7_PHASES))
        assert len(charted) == 12
        assert len({id(R) for R in charted}) == 12
        charted.clear()
        boundary_operator(torus_cosine(2, [1.0, 0.7]))
        assert charted == []

    def test_public_calls_keep_no_branch_flows(self):
        # a kept system must not hold the branch flows of a finished call
        problem = phased_problem([(0.0, 0.0), (0.9, 1.3), (-0.7, 0.55)])
        labels = problem.incoming + problem.outgoing

        def kept():
            return [system.name for system in labels if system.branches]

        for system in labels:
            boundary_operator(system)
        assert kept() == []
        continuation(*problem.incoming)
        assert kept() == []
        operation_table(problem, edge_time=1.0)
        assert kept() == [] and problem.pullbacks == {}

    def test_unit_is_fundamental_class(self, nu_table):
        for x in ("x00", "x10", "x01", "x11"):
            assert nu_table[("x11", x)] == {x: 1}
            assert nu_table[(x, "x11")] == {x: 1}

    def test_degree_one_pairings(self, nu_table):
        assert nu_table[("x10", "x01")] == {"x00": -1}
        assert nu_table[("x01", "x10")] == {"x00": 1}
        assert nu_table[("x10", "x10")] == {}
        assert nu_table[("x01", "x01")] == {}

    def test_chain_map_property(self, nu_problem, nu_table):
        assert verify_operation_chain_map(nu_problem, nu_table)

    def test_operation_on_chains_is_linear(self, nu_problem, nu_table):
        out = diagram_flow_operation(
            nu_problem, [(("x10", "x01"), 2), (("x01", "x10"), 1)])
        assert out == {"x00": -1}

    def test_r_one_matches(self, nu_problem, nu_table):
        tab = operation_table(nu_problem, edge_time=1.0)
        assert {k: v for k, v in tab.items() if v} == \
            {k: v for k, v in nu_table.items() if v}

    def test_associativity_on_basis_triples(self):
        from morseflow.counting import continuation

        amps = [1.0, 0.7]
        Ea = torus_cosine(2, amps, phases=[0.0, 0.0], name="a")
        Eb = torus_cosine(2, amps, phases=[0.9, 1.3], name="b")
        Ec = torus_cosine(2, amps, phases=[-0.7, 0.55], name="c")
        Em = torus_cosine(2, amps, phases=[1.9, 2.2], name="m")
        Eo = torus_cosine(2, amps, phases=[2.7, 0.9], name="o")
        diagram = figure8_diagram()
        # continuation between every pair is the identity in shared names,
        # so tables compose by name
        for s, t in ((Ea, Em), (Eb, Em), (Ec, Eo), (Em, Eo)):
            phi = continuation(s, t)
            for p, mat in phi.items():
                assert np.array_equal(mat, np.eye(mat.shape[0], dtype=object))
        t_ab = operation_table(FlowGraphProblem(diagram, [Ea, Eb], [Em]))
        t_mc = operation_table(FlowGraphProblem(diagram, [Em, Ec], [Eo]))
        t_bc = operation_table(FlowGraphProblem(diagram, [Eb, Ec], [Em]))
        t_am = operation_table(FlowGraphProblem(diagram, [Ea, Em], [Eo]))
        names = [cp.name for cp in Ea.critical_points]
        for a in names:
            for b in names:
                for c in names:
                    lhs = {}
                    for u, cu in t_ab.get((a, b), {}).items():
                        for o, co in t_mc.get((u, c), {}).items():
                            lhs[o] = lhs.get(o, 0) + cu * co
                    rhs = {}
                    for v, cv in t_bc.get((b, c), {}).items():
                        for o, co in t_am.get((a, v), {}).items():
                            rhs[o] = rhs.get(o, 0) + cv * co
                    lhs = {k: v for k, v in lhs.items() if v}
                    rhs = {k: v for k, v in rhs.items() if v}
                    assert lhs == rhs, (a, b, c, lhs, rhs)


class TestOrientationConvention:
    def test_flipping_an_unstable_orientation_conjugates_counts(self):
        from morseflow.geometry import sphere_band

        base = sphere_band(2, 0.15)
        flipped = sphere_band(2, 0.15)
        rim = flipped.point("rim_hi")
        rim.frame[:, 0] = -rim.frame[:, 0]   # reverse W^u(rim_hi)
        d_base = boundary_operator(base).map_from(2)
        d_flip = boundary_operator(flipped).map_from(2)
        assert np.array_equal(d_flip, -d_base)
        # magnitudes and the square-zero identity are convention-free
        assert [abs(int(v)) for v in d_flip.flat] == \
            [abs(int(v)) for v in d_base.flat]
