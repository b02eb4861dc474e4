import numpy as np
import pytest

from morseflow.complexes import (
    RING_Z,
    RING_Z2,
    chain_map_defect,
    cochain_complex,
    homology,
)
from morseflow.counting import (
    band_region,
    boundary_operator,
    cap_region,
    check_region_admissible,
    continuation,
    count_flow_lines,
    empty_region,
    find_connections,
    morse_homology,
    relative_complex,
)
import morseflow.counting as counting
from morseflow.errors import (
    AdmissibilityError,
    CountingIncompleteError,
    GeometryError,
)
from morseflow.geometry import (
    CriticalPoint,
    MorseSystem,
    product_system,
    sphere_band,
    sphere_height,
    torus_cosine,
)

from oracles import circle_complex, tensor_complex


@pytest.fixture(scope="module")
def t2():
    return torus_cosine(2, [1.0, 0.7])


@pytest.fixture(scope="module")
def t3():
    return torus_cosine(3, [1.0, 0.7, 0.55])


@pytest.fixture(scope="module")
def band2():
    return sphere_band(2, 0.15)


@pytest.fixture(scope="module")
def band_complex(band2):
    return boundary_operator(band2)


class TestCounts:
    def test_precondition(self, t2):
        with pytest.raises(ValueError):
            count_flow_lines(t2, "x11", "x00")

    def test_sphere_has_no_adjacent_pairs(self):
        s2 = sphere_height(2)
        cx = boundary_operator(s2)
        assert cx.maps == {}
        assert homology(cx).betti_vector([0, 1, 2]) == (1, 0, 1)

    def test_torus_max_to_saddle_cancels(self, t2):
        # two flow lines with opposite signs
        assert count_flow_lines(t2, "x11", "x10") == 0
        assert len(find_connections(t2, t2.point("x11"), t2.point("x10"))) == 2

    def test_torus_saddle_to_min_cancels(self, t2):
        assert count_flow_lines(t2, "x10", "x00") == 0
        assert count_flow_lines(t2, "x01", "x00") == 0

    def test_band_sphere_nonzero_differential(self, band_complex):
        # each cap maximum reaches the rim saddle along one meridian
        d2 = band_complex.map_from(2)
        assert sorted(abs(int(x)) for x in d2.flat) == [1, 1]
        d1 = band_complex.map_from(1)
        assert int(d1[0, 0]) == 0

    def test_band_sphere_homology(self, band_complex):
        h = homology(band_complex)
        assert h.betti_vector([0, 1, 2]) == (1, 0, 1)
        assert h.torsion(1) == ()

    def test_mod2_matches_reduction(self, t2, band2, band_complex):
        for system, cx in ((t2, boundary_operator(t2)), (band2, band_complex)):
            cx2 = boundary_operator(system, ring=RING_Z2)
            for p in cx.maps:
                assert np.array_equal(cx2.map_from(p) % 2,
                                      cx.map_from(p).astype(object) % 2)

    def test_rho_independence(self, t2):
        assert count_flow_lines(t2, "x11", "x01", rho=0.01) == 0
        assert count_flow_lines(t2, "x11", "x01", rho=0.04) == 0

    def test_perturbed_torus_counts_still_cancel(self):
        # seeded coupling term breaks the product symmetry; the catalog is
        # re-solved by Newton and the cancellations must survive honestly
        pert = torus_cosine(2, [1.0, 0.7], perturb=0.02, seed=3)
        assert sorted(cp.index for cp in pert.critical_points) == [0, 1, 1, 2]
        h = morse_homology(pert)
        assert h.betti_vector([0, 1, 2]) == (1, 2, 1)

    def test_reversed_flow_recount_matches_transpose(self, band2,
                                                     band_complex):
        # counting ascending flow lines on the negated system reproduces
        # the transposed differential magnitudes
        from morseflow.geometry import CriticalPoint, MorseSystem

        man = band2.manifold
        rev = MorseSystem(
            man, lambda x: -band2.f(x), lambda x: -band2.grad(x),
            [CriticalPoint(cp.name, cp.point, man.dim - cp.index)
             for cp in band2.critical_points],
            name="band_rev")
        d2 = band_complex.map_from(2)   # rows: rim_hi; cols: pole+, pole-
        rows = band_complex.labels(1)
        cols = band_complex.labels(2)
        for i, rname in enumerate(rows):
            for j, cname in enumerate(cols):
                rev_count = count_flow_lines(rev, rname, cname)
                assert abs(rev_count) == abs(int(d2[i, j]))


class TestIntoCodimensionOne:
    """Sources of index 3 and up: the two curves of W^s(y), followed up."""

    @pytest.fixture(scope="class")
    def t4(self):
        return torus_cosine(4, [1.0, 0.8, 0.65, 0.5])

    @pytest.mark.parametrize("target, axis",
                             [("x110", 2), ("x101", 1), ("x011", 0)])
    def test_torus3_two_lines_per_pair(self, t3, target, axis):
        # the lines run along the one coordinate circle that drops,
        # leaving x111 along +-e_axis of its unstable frame
        dirs = find_connections(t3, t3.point("x111"), t3.point(target))
        e = np.eye(3)[axis]
        assert len(dirs) == 2
        assert all(np.isclose(np.linalg.norm(u), 1.0) for u in dirs)
        for want in (e, -e):
            assert sum(np.allclose(u, want, atol=1e-6) for u in dirs) == 1
        assert count_flow_lines(t3, "x111", target) == 0

    def test_s1xs2_band_matches_kunneth(self):
        circle, band = torus_cosine(1, [1.0]), sphere_band(2)
        system = product_system(circle, band)
        oracle = tensor_complex(boundary_operator(circle),
                                boundary_operator(band))
        d3 = oracle.map_from(3)
        for j, x in enumerate(oracle.labels(3)):
            for i, y in enumerate(oracle.labels(2)):
                want = abs(int(d3[i, j]))
                lines = len(find_connections(system, system.point(x),
                                             system.point(y)))
                # one line into x1|rim_hi; two cancelling lines or none
                # into x0|pole+-
                assert lines in ((1,) if y == "x1|rim_hi" else (0, 2))
                assert abs(count_flow_lines(system, x, y)) == want, (x, y)

    def test_torus4_top_pair(self, t4):
        dirs = find_connections(t4, t4.point("x1111"), t4.point("x1110"))
        assert len(dirs) == 2
        assert count_flow_lines(t4, "x1111", "x1110") == 0

    def test_torus4_lower_target_raises_before_flowing(self, t4,
                                                       monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow was launched")

        monkeypatch.setattr(counting, "flow", no_flow)
        with pytest.raises(GeometryError):
            count_flow_lines(t4, "x1110", "x1100")
        with pytest.raises(GeometryError):
            find_connections(t4, t4.point("x1110"), t4.point("x1100"))


def assert_kunneth_t2(system, ring):
    """The T2 complex is the tensor square of the circle's: all zero."""
    want = tensor_complex(circle_complex(), circle_complex())
    got = boundary_operator(system, ring=ring)
    for p in (1, 2):
        assert got.map_from(p).shape == want.map_from(p).shape
        assert not got.map_from(p).any(), (system.name, p, got.map_from(p))


# T2 inputs on which the index-2 circle lattice raised, returned a wrong
# count or lost every line
LATTICE_DEFECTS = {
    "a0.803171": dict(amplitudes=[1.0, 0.803171]),
    "a0.494-phased": dict(amplitudes=[1.0, 0.494], phases=[0.346, 1.728]),
    "a0.55-phased": dict(amplitudes=[1.0, 0.55], phases=[0.3, 2.0]),
    "a0.400": dict(amplitudes=[1.0, 0.400]),
    "a0.890": dict(amplitudes=[1.0, 0.890]),
    "perturbed-seed3": dict(amplitudes=[1.0, 0.7], perturb=0.02, seed=3),
}


class TestSurfacesFromTheTarget:
    """Every surface pair from index 2 ascends the two curves of W^s(y)."""

    @pytest.mark.parametrize("ring", [RING_Z, RING_Z2])
    @pytest.mark.parametrize("name", sorted(LATTICE_DEFECTS))
    def test_lattice_defect_inputs_give_kunneth(self, name, ring):
        assert_kunneth_t2(torus_cosine(2, **LATTICE_DEFECTS[name]), ring)

    def test_seeded_sweep_gives_kunneth_with_two_lines(self):
        rng = np.random.default_rng(6)
        systems = [torus_cosine(2, [1.0, rng.uniform(0.4, 0.9)],
                                phases=rng.uniform(0.0, 2 * np.pi, 2))
                   for _ in range(12)]
        systems += [torus_cosine(2, [1.0, 0.7], perturb=0.02, seed=seed)
                    for seed in range(6)]
        for system in systems:
            assert_kunneth_t2(system, RING_Z)
            # two cancelling lines per index-2 pair, none lost
            for y in ("x10", "x01"):
                assert len(find_connections(system, system.point("x11"),
                                            system.point(y))) == 2

    @pytest.mark.parametrize("make", [
        lambda: torus_cosine(2, [1.0, 0.7]),
        lambda: torus_cosine(2, [1.0, 0.7], perturb=0.02, seed=3),
        lambda: sphere_band(2),
    ], ids=["t2", "t2-perturbed", "s2-band"])
    def test_surfaces_never_reach_the_lattice(self, make, monkeypatch):
        def no_lattice(*args, **kwargs):
            raise AssertionError("the circle lattice was searched")

        monkeypatch.setattr(counting, "_find_connections_d2", no_lattice)
        boundary_operator(make())


class TestLatticeDrops:
    def test_candidate_failing_verification_near_y_raises(self, t3,
                                                          monkeypatch):
        # both lines pass within the detection radius of x100, so losing
        # them in the strict flow must raise instead of returning []
        monkeypatch.setattr(counting, "_verify_connection",
                            lambda *args, **kwargs: None)
        with pytest.raises(CountingIncompleteError, match="x110 -> x100"):
            find_connections(t3, t3.point("x110"), t3.point("x100"))


class TestRelative:
    def test_empty_region_is_absolute(self, band2, band_complex):
        pair = relative_complex(band2, empty_region())
        assert pair.sub.generators == {}
        hq = homology(pair.quotient)
        assert hq.betti_vector([0, 1, 2]) == (1, 0, 1)

    def test_sphere_cap_pair(self):
        # region holds only the minimum: quotient computes H(S^2, pt)
        s2 = sphere_height(2)
        pair = relative_complex(s2, cap_region(-0.5))
        assert [cp for cp in pair.sub.labels(0)] == ["south"]
        hq = homology(pair.quotient)
        assert hq.betti_vector([0, 1, 2]) == (0, 0, 1)

    def test_band_region_carries_circle_homology(self, band2):
        pair = relative_complex(band2, band_region(0.25))
        hs = homology(pair.sub)
        assert hs.betti_vector([0, 1]) == (1, 1)      # the rim is a circle
        cc = cochain_complex(pair.sub)
        hcc = homology(cc)
        assert hcc.betti(1) == 1                      # top cohomology of S^1
        # relative classes: one per cap (each cap collapses to a sphere)
        hq = homology(pair.quotient)
        assert hq.betti_vector([0, 1, 2]) == (0, 0, 2)

    def test_inward_region_rejected(self, band2):
        # the lower cap: descending flows exit it across the boundary
        with pytest.raises(AdmissibilityError):
            check_region_admissible(band2, cap_region(-0.5))

    def test_critical_point_near_boundary_rejected(self, band2):
        with pytest.raises(AdmissibilityError):
            check_region_admissible(band2, band_region(1e-8))

    def test_connecting_map_band(self, band2):
        # H_2(X, A) -> H_1(A) hits the rim circle; its kernel is the image
        # of H_2(X) = Z, so the 1x2 matrix has unit content
        pair = relative_complex(band2, band_region(0.25))
        delta = pair.connecting_map(2)
        assert delta.shape == (1, 2)
        entries = sorted(abs(int(x)) for x in delta.flat)
        assert entries == [1, 1]


class TestContinuation:
    def test_identity_for_same_system(self, t2):
        phi = continuation(t2, t2)
        for p, mat in phi.items():
            assert np.array_equal(mat, np.eye(mat.shape[0], dtype=object))

    def test_constant_shift_is_identity(self, t2):
        g = torus_cosine(2, [1.0, 0.7])  # same potential, fresh object
        phi = continuation(t2, g)
        for p, mat in phi.items():
            assert np.array_equal(mat, np.eye(mat.shape[0], dtype=object))

    @pytest.mark.parametrize("phases", [(0.9, 0.005), (0.005, 1.3),
                                        (0.012, 0.9)])
    def test_near_alignment_phases_are_unimodular(self, phases):
        # each phase pair puts a crossing of W^u(m; f) with W^s(m'; g)
        # within 0.02 of m; a continuation map is an isomorphism on
        # homology, and T2's differentials vanish, so every block is
        # unimodular
        f = torus_cosine(2, [1.0, 0.7])
        phi = continuation(f, torus_cosine(2, [1.0, 0.7], phases=phases))
        for p, mat in phi.items():
            det = np.linalg.det(np.array(mat, dtype=float))
            assert round(abs(det)) == 1, (p, mat.tolist())

    @pytest.mark.parametrize("tilt, turn", [(0.3, 0.5), (0.4, 0.005)])
    def test_rotated_sphere_band_roundtrip(self, tilt, turn):
        # curves on the sphere's 3-D coordinates cross in tangent-plane
        # charts; a turn of 0.005 puts the crossing of the equator
        # W^u(rim_hi; f) with the rotated meridian W^s(rim_hi; g) within
        # 0.02 of rim_hi
        f = sphere_band(2, 0.15)
        c, s = np.cos(tilt), np.sin(tilt)
        R = np.array([[np.cos(turn), -np.sin(turn), 0.0],
                      [np.sin(turn), np.cos(turn), 0.0],
                      [0.0, 0.0, 1.0]]) @ np.array(
            [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        g = MorseSystem(f.manifold, lambda x: f.f(R.T @ x),
                        lambda x: R @ f.grad(R.T @ x),
                        [CriticalPoint(cp.name, R @ cp.point, cp.index)
                         for cp in f.critical_points], name="rotated")
        fwd, back = continuation(f, g), continuation(g, f)
        assert [abs(int(v)) for v in fwd[1].flat] == [1]
        for p in fwd:
            comp = back[p] @ fwd[p]
            assert np.array_equal(comp, np.eye(comp.shape[0], dtype=object))

    def test_roundtrip_phase_shift(self, t2):
        g = torus_cosine(2, [1.0, 0.7], phases=[0.9, 1.3])
        fwd = continuation(t2, g)
        back = continuation(g, t2)
        cf = boundary_operator(t2)
        cg = boundary_operator(g)
        assert chain_map_defect(cf, cg, fwd, 0) == 0
        assert chain_map_defect(cg, cf, back, 0) == 0
        for p in fwd:
            comp = back[p] @ fwd[p]
            assert np.array_equal(comp, np.eye(comp.shape[0], dtype=object)), \
                "degree %d roundtrip is %s" % (p, comp)
