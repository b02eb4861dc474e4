"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here: combinatorial and integer results
are exact, timing budgets are asserted with time.perf_counter.
"""

import time

import numpy as np
import pytest

from morseflow.complexes import chain_map_defect, cochain_complex, homology
from morseflow.counting import (
    band_region,
    boundary_operator,
    continuation,
    count_flow_lines,
    relative_complex,
)
import morseflow.counting
from morseflow.errors import CountInstabilityError
from morseflow.fatgraph import ChordDiagram, FatGraph
from morseflow.geometry import (
    product_system,
    sphere_band,
    sphere_height,
    torus_cosine,
)
from morseflow.geometry.bundles import sphere_tangent_bundle, torus_tangent_bundle
from morseflow.operations import (
    FlowGraphProblem,
    euler_class,
    expected_dimension,
    graph_flow_count,
    operation_table,
    thom_class,
    thom_complex,
    torus_factor_circle,
    umkehr,
)

from oracles import (
    circle_complex,
    s2xs2_complex,
    sphere2_complex,
    tensor_complex,
    torus3_complex,
    torus_delta_complex,
    torus_intersection_table,
)
from test_fatgraph import random_fat_graph
from test_operations import zero_index_sum


def report(number, text):
    print("ACCEPTANCE %d PASS: %s" % (number, text))


def figure8():
    return FatGraph.from_vertex_cycles(pairs=[(0, 1), (2, 3)],
                                       vertex_cycles=[(0, 3, 2, 1)])


class TestCriterion1:
    def test_figure8_cycles_and_genus(self):
        g = figure8()
        t0 = time.perf_counter()
        cycles = g.boundary_cycles().cycles
        genus = g.genus()
        elapsed = time.perf_counter() - t0
        # half-edges: A=0, A~=1, B=2, B~=3
        assert cycles == ((0,), (1, 3), (2,))
        assert genus == (0, 3)
        assert elapsed < 1e-3
        report(1, "figure-8 cycles (A)(B)(A~ B~), genus (0, 3), %.0f us"
               % (elapsed * 1e6))


class TestCriterion2:
    def test_fuzz_chi_identity(self):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        n_cases = 10_000
        for _ in range(n_cases):
            g = random_fat_graph(rng, max_edges=12)
            genus, n_cycles = g.genus()
            assert genus >= 0
            assert 2 - 2 * genus - n_cycles == g.euler_characteristic()
            flat = sorted(h for c in g.boundary_cycles().cycles for h in c)
            assert flat == list(range(g.n))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        report(2, "chi = 2 - 2g - n over %d random systems in %.1f s"
               % (n_cases, elapsed))


class TestCriterion3:
    def test_four_catalog_homologies(self):
        t0 = time.perf_counter()
        cases = [
            ("S2", sphere_height(2), sphere2_complex(), (0, 1, 2)),
            ("T2", torus_cosine(2, [1.0, 0.7]), torus_delta_complex(),
             (0, 1, 2)),
            ("T3", torus_cosine(3, [1.0, 0.7, 0.55]), torus3_complex(),
             (0, 1, 2, 3)),
            ("S2xS2", product_system(sphere_height(2), sphere_height(2)),
             s2xs2_complex(), (0, 1, 2, 3, 4)),
            ("S1xS2-band", product_system(torus_cosine(1, [1.0]),
                                          sphere_band(2)),
             tensor_complex(circle_complex(), sphere2_complex()),
             (0, 1, 2, 3)),
        ]
        summary = []
        for name, system, oracle, degrees in cases:
            cx = boundary_operator(system)      # raises if d o d != 0
            cx.check_square_zero()
            h = homology(cx)
            h_oracle = homology(oracle)
            assert h.betti_vector(degrees) == h_oracle.betti_vector(degrees), \
                name
            for p in degrees:
                assert h.torsion(p) == ()
                assert h_oracle.torsion(p) == ()
            summary.append("%s %s" % (name, h.betti_vector(degrees)))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        report(3, "d^2 = 0 and Betti match the cell oracles: %s in %.0f s"
               % ("; ".join(summary), elapsed))


class TestCriterion4:
    @pytest.mark.parametrize("n", [2, 3])
    def test_relative_cohomology_of_complement_band(self, n):
        system = sphere_band(n, 0.15)
        pair = relative_complex(system, band_region(0.25))
        hc = homology(cochain_complex(pair.sub))
        assert hc.betti(n - 1) == 1
        assert hc.torsion(n - 1) == ()
        # the band complex carries exactly the (n-1)-sphere's cohomology
        expected = tuple(1 if p in (0, n - 1) else 0 for p in range(n))
        assert hc.betti_vector(list(range(n))) == expected
        report(4, "H^%d of the complement band region is Z (n = %d)"
               % (n - 1, n))


class TestCriterion5:
    def test_thom_euler(self):
        t0 = time.perf_counter()
        s2 = sphere_height(2)
        t2 = torus_cosine(2, [1.0, 0.7])
        ts2 = sphere_tangent_bundle(s2.manifold)
        tt2 = torus_tangent_bundle(t2.manifold)

        e_sphere = euler_class(ts2, s2)
        assert abs(e_sphere.fundamental_pairing) == 2

        def sphere_field(x):
            axis = np.array([0.1, 0.8, 0.58])
            return axis - np.dot(axis, x) * x

        ph_sphere, _ = zero_index_sum(s2.manifold, sphere_field, n_grid=60)
        assert abs(ph_sphere) == abs(e_sphere.fundamental_pairing) == 2

        def torus_section(x):
            return np.array([np.sin(x[0] - 2.1), np.sin(x[1] - 0.8)])

        e_torus = euler_class(tt2, t2, section=torus_section)
        assert e_torus.fundamental_pairing == 0

        def torus_field(x):
            return np.array([np.sin(x[0] - 1.234), np.sin(x[1] + 0.567)])

        ph_torus, _ = zero_index_sum(t2.manifold, torus_field, n_grid=60)
        assert ph_torus == 0 == e_torus.fundamental_pairing

        # structural Thom checks: degree shift +r; fiber pairing +1
        td = thom_complex(ts2, s2)
        assert sorted(td.relative.degrees()) == \
            sorted(p + ts2.rank for p in td.base_complex.degrees())
        tc = thom_class(ts2, s2, thom=td)
        assert tc.fiber_pairing == 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        report(5, "<e(TS2), [S2]> = %+d (PH oracle %+d), e(TT2) = 0 "
               "(PH oracle 0), Thom shift +r, fiber pairing +1, %.0f s"
               % (e_sphere.fundamental_pairing, ph_sphere, elapsed))


class TestCriterion6:
    def test_factor_circle_umkehr(self):
        t2 = torus_cosine(2, [1.0, 0.7], phases=[0.9, 1.3])
        emb = torus_factor_circle(t2, fixed_axis=1, level=2.0, phase=0.3)
        mats = umkehr(emb)
        # degree -1 chain map, exact over the integers
        dom = boundary_operator(emb.domain)
        cod = boundary_operator(t2)
        assert chain_map_defect(cod, dom, mats, -1) == 0
        for p, mat in mats.items():
            if mat.size:
                assert mat.shape[0] == dom.dim(p - 1)
        # intersection oracle: the fundamental class caps to the circle
        # class; the parallel saddle maps to the domain point class once;
        # the perpendicular saddle dies
        assert [abs(int(v)) for v in mats[2].flat] == [1]
        degree1 = sorted(abs(int(v)) for v in mats[1].flat)
        assert degree1 == [0, 1]
        report(6, "factor-circle umkehr: exact degree -1 chain map, "
               "homology action matches the intersection oracle")


@pytest.fixture(scope="module")
def nu_problem():
    E1 = torus_cosine(2, [1.0, 0.7], phases=[0.0, 0.0], name="in1")
    E2 = torus_cosine(2, [1.0, 0.7], phases=[0.9, 1.3], name="in2")
    E3 = torus_cosine(2, [1.0, 0.7], phases=[-0.7, 0.55], name="out")
    return FlowGraphProblem(ChordDiagram(figure8()), [E1, E2], [E3])


class TestCriteria789:
    def test_criterion7_intersection_table_and_r_independence(self,
                                                              nu_problem):
        t0 = time.perf_counter()
        name = {"pt": "x00", "c1": "x10", "c2": "x01", "top": "x11"}
        basis, _deg, oracle = torus_intersection_table(eps=-1)
        tables = {}
        for R in (0.0, 1.0, 2.0):
            tables[R] = operation_table(nu_problem, edge_time=R)
        for a in basis:
            for b in basis:
                want = {name[c]: v for c, v in oracle[(a, b)].items()}
                assert tables[0.0].get((name[a], name[b]), {}) == want, (a, b)
        assert {k: v for k, v in tables[1.0].items() if v} == \
            {k: v for k, v in tables[0.0].items() if v}
        assert {k: v for k, v in tables[2.0].items() if v} == \
            {k: v for k, v in tables[0.0].items() if v}
        # dimension gating: counting refuses off-dimension tuples
        assert expected_dimension(nu_problem, ("x10", "x01"), ["x10"]) == -1
        with pytest.raises(ValueError):
            graph_flow_count(nu_problem, ("x10", "x01"), "x10")
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        report(7, "figure-8 operation on the torus reproduces the "
               "intersection table (unit +1, c1.c2 = -c2.c1 = -pt), "
               "R-independent for R in {0, 1, 2}, %.0f s" % elapsed)

    def test_criterion8_continuation_roundtrip(self):
        f = torus_cosine(2, [1.0, 0.7])
        g = torus_cosine(2, [1.0, 0.7], phases=[0.9, 1.3])
        fwd = continuation(f, g)
        back = continuation(g, f)
        cf = boundary_operator(f)
        cg = boundary_operator(g)
        assert chain_map_defect(cf, cg, fwd, 0) == 0
        assert chain_map_defect(cg, cf, back, 0) == 0
        for p in fwd:
            comp = back[p] @ fwd[p]
            assert np.array_equal(comp, np.eye(comp.shape[0], dtype=object))
        report(8, "continuation round trip induces the identity on H_*(T2)")

    def test_criterion9_stability_gate(self, monkeypatch):
        # the doubling gate guards the level search, which counts
        # index-2 -> index-1 pairs only on 3-manifolds
        t3 = torus_cosine(3, [1.0, 0.7, 0.55])
        # the gate passes on honest counts
        assert count_flow_lines(t3, "x110", "x100") == 0

        # and fails loudly when a resolution-dependent count is injected
        real = morseflow.counting.find_connections
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            out = real(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] % 2 == 0 and out:
                return out[:-1]
            return out

        monkeypatch.setattr(morseflow.counting, "find_connections", flaky)
        with pytest.raises(CountInstabilityError):
            count_flow_lines(t3, "x110", "x100")
        report(9, "signed counts stable under resolution doubling; injected "
               "instability raises CountInstabilityError")
