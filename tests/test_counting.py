import importlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    branches,
    cap_region,
    check_region_admissible,
    continuation,
    count_flow_lines,
    empty_region,
    find_connections,
    morse_homology,
    orientation_class,
    relative_complex,
)
import morseflow.counting as counting
from morseflow.cli import main
from morseflow.errors import (
    AdmissibilityError,
    CountingIncompleteError,
    DegenerateCrossingError,
    GeometryError,
    StructuralValidationError,
    UnsupportedPairError,
)
from morseflow.geometry import (
    CriticalPoint,
    MorseSystem,
    parse_system_config,
    product_system,
    sphere_band,
    sphere_height,
    torus_cosine,
)
import morseflow.geometry as geometry
from morseflow.geometry.flow import (
    fixed_time_flow,
    flow,
    orientation_sign,
    transport_frame,
)
from morseflow.geometry.manifolds import SphereModel, TorusModel
from morseflow.geometry.systems import LAMBDA_MIN, level_trap
import morseflow.operations as operations

from oracles import (
    check_ends_all_segments,
    chord_hits_all_pairs,
    circle_complex,
    curve_intersections_per_pair,
    landed_point,
    refined_angle,
    tensor_complex,
    transported_sign,
)
from test_geometry import trap_limit
from test_operations import (
    CRITERION7_PHASES,
    OUTGOING_LABELS,
    family_crossings,
    phased_problem,
    read_pair,
)


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

    def test_rho_independence(self, t3, monkeypatch):
        # RHO is the radius of the circles of the level search, which T3
        # x110 -> x100 reaches; surface pairs are branch curves and never
        # read it
        for rho in (0.01, 0.04):
            monkeypatch.setattr(counting, "RHO", rho)
            assert count_flow_lines(t3, "x110", "x100") == 0

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


def t3_draw(rng):
    """(amplitudes, phases) of a T3 draw: [1, U(0.5, 0.9), U(0.3, 0.5)],
    then three phases from U(0, 2 pi)."""
    amps = [1.0, rng.uniform(0.5, 0.9), rng.uniform(0.3, 0.5)]
    return amps, rng.uniform(0.0, 2.0 * np.pi, 3)


def t3_inputs():
    """The twelve T3 inputs of the level search's regression tests: four
    unphased amplitude vectors, and 8 phased draws of default_rng(7)."""
    out = {"unphased %s" % a: (a, None) for a in (
        [1.0, 0.7, 0.5], [1.0, 0.8, 0.6], [1.0, 0.6, 0.45],
        [1.0, 0.7, 0.55])}
    rng = np.random.default_rng(7)
    for i in range(1, 9):
        out["phased draw %d" % i] = t3_draw(rng)
    return out


T3_INPUTS = t3_inputs()


def t3_system(name):
    amps, phases = T3_INPUTS[name]
    return torus_cosine(3, amps, phases=phases)


def phased_t3_draw(i):
    """Phased draw i (0 to 19) of default_rng(11)."""
    rng = np.random.default_rng(11)
    for _ in range(i):
        t3_draw(rng)
    amps, phases = t3_draw(rng)
    return torus_cosine(3, amps, phases=phases)


def perturbed_t3_draw(i):
    """Perturbed draw i (0 to 19) of default_rng(11): 20 phased draws,
    then the amplitudes of 20 more with perturb 0.05 and seed 100 + i."""
    rng = np.random.default_rng(11)
    for _ in range(20 + i):
        t3_draw(rng)
    amps = [1.0, rng.uniform(0.5, 0.9), rng.uniform(0.3, 0.5)]
    return torus_cosine(3, amps, perturb=0.05, seed=100 + i)


def assert_kunneth_t3(system, ring=RING_Z):
    """The T3 complex is the tensor cube of the circle's: Betti (1, 3, 3,
    1) and every matrix zero.  Returns it."""
    cx = boundary_operator(system, ring=ring)
    assert homology(cx).betti_vector([0, 1, 2, 3]) == (1, 3, 3, 1)
    for p in (1, 2, 3):
        assert not cx.map_from(p).any(), (p, cx.map_from(p))
    return cx


def open_beside_a_crossing(monkeypatch):
    """Split every W^s(y) on a level at the chord before the chord of its
    first crossing with W^u(x), so that crossing lies beside a split."""
    real = counting._level_curve
    seen = {}

    def opened(system, cp, direction, c, k):
        curve = real(system, cp, direction, c, k)
        if direction == +1:
            seen["P"] = curve
            return curve
        hits = counting._chord_hits(counting._level_chart(system),
                                    seen["P"].points, curve.points)
        if not hits:
            return curve
        whole = list(curve.whole)
        whole[hits[0][1] - 1] = False
        return curve._replace(whole=tuple(whole))

    monkeypatch.setattr(counting, "_level_curve", opened)


class TestLevelSearch:
    """Index-2 -> index-1 lines on 3-manifolds, as crossings of W^u(x) and
    W^s(y) on a level between them (``counting._level_lines``)."""

    @pytest.mark.parametrize("name", sorted(T3_INPUTS))
    def test_t3_inputs_give_kunneth(self, name):
        # the gate keeps the lines of both resolutions, so the line set
        # at k = 48 and 96 flies nothing more; an interpolated direction
        # lies within 1.4e-4 radians of its axis at k = 48, and the bound
        # falls with the chords' 1/k^2
        system = t3_system(name)
        with counting.keeping():
            assert_kunneth_t3(system)
            for k in (48, 96):
                assert assert_single_axis_lines(
                    system, k, angle=2e-4 * (48 / k) ** 2) == 12

    @pytest.mark.parametrize("name", ["unphased [1.0, 0.7, 0.5]",
                                      "phased draw 3"])
    def test_mod2_matches_reduction(self, name):
        system = t3_system(name)
        cx = assert_kunneth_t3(system)
        cx2 = boundary_operator(system, ring=RING_Z2)
        for p in cx.maps:
            assert np.array_equal(cx2.map_from(p) % 2,
                                  cx.map_from(p).astype(object) % 2)

    @pytest.mark.parametrize("i", [2, 15])
    def test_perturbed_draws_give_kunneth(self, i):
        # a chord bound that does not shrink with k returned Betti (1, 2,
        # 2, 1) on these two draws at both resolutions
        assert_kunneth_t3(perturbed_t3_draw(i))

    @pytest.mark.parametrize("name", [
        "unphased [1.0, 0.7, 0.55]", "phased draw 1", "phased draw 2",
        "phased draw 4", "phased draw 6", "s1xs2-band"])
    def test_sign_is_the_transported_sign(self, name):
        # each line's closed-form sign equals the sign of x's unstable
        # frame carried along the strict flow into y, the long way
        # (``oracles.transported_sign``), at the line's direction refined
        # until that flow enters y's ball
        system = (product_system(torus_cosine(1, [1.0]), sphere_band(2))
                  if name == "s1xs2-band" else t3_system(name))
        rho = counting.RHO
        checked = total = 0
        with counting.keeping():
            for x in system.by_index(2):
                for y in system.by_index(1):
                    for line in counting._level_lines(
                            system, x, y, counting.DEFAULT_K_CIRCLE):
                        total += 1
                        a = refined_angle(system, x, y, line.u, rho)
                        sign = (None if a is None else
                                transported_sign(system, x, y, a, rho))
                        if sign is not None:
                            assert line.sign == sign, (x.name, y.name)
                            checked += 1
        assert checked == total >= 4

    def test_counts_land_no_flight(self, t3, monkeypatch):
        # each level point is read off the chord of its flight's last step
        # (``counting._level_read``); before, each was landed on the level
        # by 3.5 fixed-time flows on average
        def no_landing(*args, **kwargs):
            raise AssertionError("a fixed-time flow was launched")

        monkeypatch.setattr(counting, "fixed_time_flow", no_landing)
        assert count_flow_lines(t3, "x110", "x100") == 0

    def test_level_points_lie_beside_the_landed_points(self, t3,
                                                       monkeypatch):
        # every read lies within 2e-3 of the point that flowing on to the
        # level reaches (``oracles.landed_point``), 4 % of the 0.05 chord
        # bound of the gate's doubled run
        reads = []
        real = counting._level_read

        def kept(system, res, direction, c, name):
            z, t = real(system, res, direction, c, name)
            reads.append((res.x_end, c, z))
            return z, t

        monkeypatch.setattr(counting, "_level_read", kept)
        assert count_flow_lines(t3, "x110", "x100") == 0
        assert len(reads) >= 4 * counting.DEFAULT_K_CIRCLE
        for p, c, z in reads:
            landed, _dt = landed_point(t3, p, c)
            assert t3.manifold.distance(z, landed) < 2e-3
            assert abs(t3.f(z) - c) < 1e-3

    def test_flight_that_starts_past_the_level_is_refused(self, t3):
        # one node and no chord to read: a refusal, never a guess
        x = t3.point("x110")
        c = x.value + 1.0
        res = counting._level_flight(t3, x, +1, c, 0.0)
        assert len(res.times) == 1
        with pytest.raises(CountingIncompleteError,
                           match="level flight of x110") as err:
            counting._level_read(t3, res, +1, c, x.name)
        assert (err.value.status, err.value.steps) == ("converged", 0)

    def test_connections_csv_joins_the_half_flights(self, tmp_path, capsys):
        # each line x110 -> x100 is x's flight down to the level, then y's
        # flight reversed, joined where x's flight crosses the level
        # (``counting._joined_line``)
        text = "kind torus\ndim 3\namplitudes 1.0 0.7 0.55\n"
        cfg, csv = tmp_path / "t3.cfg", tmp_path / "lines.csv"
        cfg.write_text(text)
        assert main(["geom", "connections", str(cfg), "--source", "x110",
                     "--target", "x100", "--csv", str(csv)]) == 0
        capsys.readouterr()
        system = parse_system_config(text)
        x, y = system.point("x110"), system.point("x100")
        c, rho = counting._level(system, x, y), counting.RHO
        rows = np.array([[float(v) for v in row.split(",")]
                         for row in csv.read_text().splitlines()[1:]])
        assert sorted(set(rows[:, 0])) == [0, 1]
        for k in (0, 1):
            t, points, f = (rows[rows[:, 0] == k][:, cols]
                            for cols in (1, slice(2, 5), 5))
            assert system.manifold.distance(points[0], x.point) < rho + 1e-9
            assert system.manifold.distance(points[-1], y.point) < rho + 1e-9
            assert np.all(np.diff(t) >= 0) and np.all(np.diff(f) < 1e-3)
            assert np.min(np.abs(f - c)) < 1e-3

    def test_pair_with_higher_target_flies_nothing(self, monkeypatch):
        # on this draw f(x011) = -0.023 < f(x100) = 0.023: no line runs
        # uphill, and no level lies between them
        system = t3_system("phased draw 3")
        x, y = system.point("x011"), system.point("x100")
        assert x.value < y.value

        def no_flow(*args, **kwargs):
            raise AssertionError("a flow was launched")

        monkeypatch.setattr(counting, "flow", no_flow)
        monkeypatch.setattr(counting, "fixed_time_flow", no_flow)
        assert count_flow_lines(system, x, y) == 0
        assert find_connections(system, x, y) == []


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
    def test_surfaces_never_reach_the_level_search(self, make, monkeypatch):
        def no_level(*args, **kwargs):
            raise AssertionError("the level search was run")

        monkeypatch.setattr(counting, "_level_lines", no_level)
        boundary_operator(make())


def one_dimensional_sides(system):
    """(cp, direction) of each one-dimensional W^u (direction +1) or W^s
    (-1) of the system's critical points."""
    return [(cp, direction) for cp in system.critical_points
            for direction, frame in ((+1, cp.unstable_frame),
                                     (-1, cp.stable_frame))
            if frame.shape[1] == 1]


# the catalogs whose branches tier 1 counts
BRANCH_CATALOGS = {
    "t2-amplitudes": lambda: [torus_cosine(2, [1.0, round(0.6 + 0.005 * k,
                                                          3)])
                              for k in range(51)],
    "t2-phased": lambda: [
        torus_cosine(2, **LATTICE_DEFECTS[name])
        for name in ("a0.494-phased", "a0.55-phased")],
    "t2-perturbed": lambda: [
        torus_cosine(2, [1.0, 0.7], perturb=perturb, seed=seed)
        for perturb, seed in ((0.02, 3), (0.05, 7))],
    "s2-band": lambda: [sphere_band(2)],
    "s1xs2-band": lambda: [product_system(torus_cosine(1, [1.0]),
                                          sphere_band(2))],
    "t3": lambda: [torus_cosine(3, [1.0, 0.7, 0.55])],
}


def phased_t2_draws():
    """16 phased T2 catalogs: a second amplitude from U(0.4, 0.9) and two
    phases from U(0, 2 pi) each, from ``default_rng(21)``."""
    rng = np.random.default_rng(21)
    return [torus_cosine(2, [1.0, float(rng.uniform(0.4, 0.9))],
                         phases=rng.uniform(0.0, 2 * np.pi, 2).tolist())
            for _ in range(16)]


TRAP_CATALOGS = {
    "t2-amplitudes": BRANCH_CATALOGS["t2-amplitudes"],
    "t2-phased": phased_t2_draws,
    "t3": BRANCH_CATALOGS["t3"],
    "t4": lambda: [torus_cosine(4, [1.0, 0.8, 0.65, 0.5])],
}

# the steps that the trapped descending branch reads of each catalog fly
# in all, at most: a change that loses the trap, or part of it, flies more
# (the 51 amplitudes fly 23,154 untrapped)
TRAPPED_STEP_BUDGETS = {"t2-amplitudes": 5039, "t2-phased": 1656,
                        "t3": 195, "t4": 290}


class TestLimitReads:
    """Counts read a branch's side, limit and end alone, off a flow that
    records no nodes (``branch_ends``); curve readers fly recorded ones
    (``branches``), and a limit read reuses a curve already flown.  A
    descending limit read on uncoupled cosine wells ends at the level trap
    of its minimum (``level_trap``)."""

    @pytest.mark.parametrize("name", sorted(BRANCH_CATALOGS))
    def test_unrecorded_flights_equal_recorded(self, name):
        # every unrecorded flight is the recorded one, bit for bit, except
        # a trapped one: it keeps status, side and limit, and ends in fewer
        # steps below the trap's level, where the trap takes it
        for system in BRANCH_CATALOGS[name]():
            trap = level_trap(system)
            trapped = trap is not None
            assert trapped == (name in ("t2-amplitudes", "t2-phased", "t3"))
            for cp, direction in one_dimensional_sides(system):
                recorded = counting._branch_flows(system, cp, direction, True)
                bare = counting._branch_flows(system, cp, direction, False)
                assert [side for side, _res in recorded] == [1, -1]
                assert [side for side, _res in bare] == [1, -1]
                for (_side, a), (_same, b) in zip(recorded, bare):
                    assert len(b.points) == len(b.times) == 1
                    assert (a.status, a.limit.name) == (b.status,
                                                        b.limit.name)
                    if trapped and direction == +1:
                        assert b.steps < a.steps
                        assert system.f(b.x_end) < trap.args[0]
                        assert trap_limit(system, b.x_end) == b.limit.name
                        continue
                    assert (a.steps, a.t_end) == (b.steps, b.t_end)
                    assert b.x_end.tobytes() == a.points[-1].tobytes() \
                        == a.x_end.tobytes()

    @pytest.mark.parametrize("name", sorted(TRAP_CATALOGS))
    def test_trapped_reads_keep_sides_limits_and_matrices(self, name,
                                                          monkeypatch):
        def untrapped(system):
            return None

        steps = 0
        for system in TRAP_CATALOGS[name]():
            for cp in system.by_index(1):
                trapped = counting._branch_flows(system, cp, +1, False)
                with monkeypatch.context() as patch:
                    patch.setattr(counting, "level_trap", untrapped)
                    full = counting._branch_flows(system, cp, +1, False)
                for (side, a), (same, b) in zip(full, trapped):
                    assert (side, a.status, a.limit.name) == (
                        same, b.status, b.limit.name)
                    assert b.steps < a.steps
                    steps += b.steps
            # T3's complex, level search included, is criterion 3's, and T4
            # has pairs no search supports
            if system.manifold.dim == 2:
                cx = boundary_operator(system)
                with monkeypatch.context() as patch:
                    patch.setattr(counting, "level_trap", untrapped)
                    full = boundary_operator(system)
                for p in (1, 2):
                    assert cx.map_from(p).tolist() == \
                        full.map_from(p).tolist()
        # the count is exact: the trapped loop is deterministic
        assert steps <= TRAPPED_STEP_BUDGETS[name]

    def test_standalone_calls_keep_no_branch_flows(self, monkeypatch):
        system = torus_cosine(2, [1.0, 0.7])
        shifted = torus_cosine(2, [1.0, 0.7], phases=[0.9, 1.3],
                               name="shifted")
        x11, x10 = system.point("x11"), system.point("x10")
        flights, real_flights = [], counting._branch_flows

        def spy_flights(system, cp, direction, record):
            flights.append((system.name, cp.name, direction, record))
            return real_flights(system, cp, direction, record)

        def calls():
            # the count reads W^u(x10) twice, for the lines and their
            # signs, and flies it once
            assert count_flow_lines(system, "x10", "x00") == 0
            assert len(find_connections(system, x11, x10)) == 2
            assert len(counting.connection_lines(system, x11, x10)) == 2
            assert counting.hybrid_entry(system, shifted, x10,
                                         shifted.point("x10")) == 1

        monkeypatch.setattr(counting, "_branch_flows", spy_flights)
        calls()
        once = [("torus2", "x10", 1, False), ("torus2", "x10", -1, False),
                ("torus2", "x10", -1, True), ("torus2", "x10", 1, True),
                ("shifted", "x10", -1, True)]
        assert flights == once
        # nothing outlives its call, so a second call flies it all again
        calls()
        assert flights == once + once
        # inside one block each branch flies once
        flights.clear()
        with counting.keeping():
            calls()
            calls()
        assert flights == once
        # a block that raises drops its store too
        flights.clear()
        with pytest.raises(ZeroDivisionError):
            with counting.keeping():
                calls()
                1 / 0
        calls()
        assert flights == once + once

    def test_boundary_operator_flies_each_branch_once_unrecorded(
            self, monkeypatch):
        system = torus_cosine(2, [1.0, 0.7])
        flights, records = [], []
        real_flights, real_flow = counting._branch_flows, counting.flow

        def spy_flights(system, cp, direction, record):
            flights.append((cp.name, direction, record))
            return real_flights(system, cp, direction, record)

        def spy_flow(*args, **kwargs):
            records.append(kwargs["record"])
            return real_flow(*args, **kwargs)

        monkeypatch.setattr(counting, "_branch_flows", spy_flights)
        monkeypatch.setattr(counting, "flow", spy_flow)
        cx = boundary_operator(system)
        assert not any(cx.map_from(p).any() for p in (1, 2))
        # W^s of the saddles for the maximum, W^u of the saddles for the
        # minimum: each once, both sides, and no node recorded
        assert sorted(flights) == [("x01", -1, False), ("x01", 1, False),
                                   ("x10", -1, False), ("x10", 1, False)]
        assert records == [False] * 8
        # the next complex flies them again
        boundary_operator(system)
        assert flights[4:] == flights[:4] and records == [False] * 16

    def test_limit_read_after_curve_read_flies_nothing(self, monkeypatch):
        system = torus_cosine(2, [1.0, 0.7])
        x11, x10 = system.point("x11"), system.point("x10")

        def no_flow(*args, **kwargs):
            raise AssertionError("a flow was launched")

        with counting.keeping():
            # the curves of W^s(x10) and W^u(x10)
            lines = counting.connection_lines(system, x11, x10)
            curves = branches(system, x10, +1)
            monkeypatch.setattr(counting, "flow", no_flow)
            assert counting.branch_ends(system, x10, +1) is curves
            dirs = find_connections(system, x11, x10)
            assert [u.tobytes() for u in dirs] == [u.tobytes()
                                                   for u, _t, _p in lines]
            assert count_flow_lines(system, x11, x10) == 0
            assert count_flow_lines(system, x10, "x00") == 0
        # the block's end drops every curve
        with pytest.raises(AssertionError, match="a flow was launched"):
            counting.branch_ends(system, x10, +1)


class TestComplexSweeps:
    """Seeded sweeps of the ``complexes`` family: amplitudes, phases and
    perturbations of T2, the band's eps, and the Z/2 reduction."""

    @settings(max_examples=20, derandomize=True, deadline=None,
              database=None)
    @given(a=st.floats(0.4, 0.9),
           phases=st.tuples(*[st.floats(0.0, 2 * np.pi)] * 2),
           perturb=st.sampled_from([0.0, 0.05]),
           seed=st.integers(0, 1000))
    def test_t2_draws_give_kunneth(self, a, phases, perturb, seed):
        system = torus_cosine(2, [1.0, a], phases=list(phases),
                              perturb=perturb, seed=seed)
        cx = boundary_operator(system)
        assert homology(cx).betti_vector([0, 1, 2]) == (1, 2, 1)
        assert all(not cx.map_from(p).any() for p in (1, 2))
        assert_kunneth_t2(system, RING_Z2)

    @settings(max_examples=20, derandomize=True, deadline=None,
              database=None)
    @given(eps=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    def test_band_draws_give_the_sphere_or_raise(self, eps):
        try:
            system = sphere_band(2, eps)
        except StructuralValidationError:
            # rim_hi's Hessian eigenvalue is eps, under the catalog's
            # nondegeneracy floor
            assert eps < 2 * LAMBDA_MIN
            return
        # above the floor every band is the sphere: rim_hi's slow branches
        # fly for as long as their eigenvalue needs
        assert_band_is_the_sphere(system)

    @pytest.mark.parametrize("eps", [0.0002, 0.001, 0.005, 0.02, 0.05,
                                     0.065])
    def test_slow_rim_branches_fly_for_their_eigenvalue(self, eps):
        # rim_hi's unstable eigenvalue is -eps: below about 0.07 its
        # branches need more than t_max = 400 time units, and they
        # raised "branch flow of rim_hi unresolved" when capped there
        assert_band_is_the_sphere(sphere_band(2, eps))

    def test_unresolved_branch_names_its_flow(self):
        # without x00 in the catalog, the branches of W^u(x10) never reach
        # a catalog point
        t2 = torus_cosine(2, [1.0, 0.7])
        partial = MorseSystem(
            t2.manifold, t2.f, t2.grad,
            [CriticalPoint(cp.name, cp.point, cp.index)
             for cp in t2.critical_points if cp.name != "x00"])
        with pytest.raises(CountingIncompleteError,
                           match=r"branch flow of x10 unresolved "
                                 r"\(fixed_time at t=400 after \d+ steps\)"):
            branches(partial, partial.point("x10"), +1)


def assert_single_axis_lines(system, k, angle=None):
    """The line set of uncoupled cosine wells: a line x -> y, with index
    drop one, exists only when the names differ in one coordinate, which
    drops from max to min there, and such a pair has exactly 2 lines, along
    + and - that axis in x's unstable frame (``find_connections`` at
    resolution k): each off the axis by at most ``angle`` radians, or, by
    default, with components off it below 5e-9.  Returns the number of
    pairs with lines."""
    n = system.manifold.dim
    paired = 0
    for x in system.critical_points:
        for y in system.by_index(x.index - 1):
            dirs = find_connections(system, x, y, k=k)
            axes = [i for i in range(n) if x.name[1 + i] != y.name[1 + i]]
            if len(axes) != 1:
                assert dirs == [], (x.name, y.name)
                continue
            (axis,) = axes
            assert (x.name[1 + axis], y.name[1 + axis]) == ("1", "0")
            assert len(dirs) == 2, (x.name, y.name, dirs)
            # a level line's direction is interpolated between two angles
            # of x's circle: by default within 1e-4 radians of the axis
            vs = [x.unstable_frame @ u for u in dirs]
            along = sorted(float(v[axis]) for v in vs)
            if angle is None:
                assert along == pytest.approx([-1.0, 1.0], abs=5e-9), (
                    x.name, y.name, dirs)
            else:
                off = [float(np.arctan2(np.linalg.norm(np.delete(v, axis)),
                                        abs(v[axis]))) for v in vs]
                assert np.sign(along).tolist() == [-1.0, 1.0], (
                    x.name, y.name, dirs)
                assert max(off) <= angle, (x.name, y.name, off)
            paired += 1
    return paired


class TestLineSet:
    """Every line of uncoupled wells, pair by pair, against the line set
    their separable gradient gives (``assert_single_axis_lines``)."""

    def test_complexes_amplitudes(self):
        # the 51 amplitudes of the complexes workload, on the branch search
        for system in BRANCH_CATALOGS["t2-amplitudes"]():
            assert assert_single_axis_lines(system,
                                            counting.DEFAULT_K_CIRCLE) == 4

    @pytest.mark.parametrize("k", [48, 96])
    def test_criterion3_t3(self, t3, k):
        # 3 + 6 + 3 one-axis pairs; 3 of the 9 index 2 -> 1 pairs differ
        # in all three coordinates and have no line
        assert assert_single_axis_lines(t3, k) == 12

    @pytest.mark.parametrize("i", range(3))
    def test_phased_t3_draws(self, i):
        # the first phased draws of default_rng(11), on the level search,
        # whose chords cross through ``counting._curve_hits``: every line
        # set at k = 48 and 96, with the angle bound of the T3 regression
        # inputs (``TestLevelSearch.test_t3_inputs_give_kunneth``)
        system = phased_t3_draw(i)
        with counting.keeping():
            for k in (48, 96):
                assert assert_single_axis_lines(
                    system, k, angle=2e-4 * (48 / k) ** 2) == 12

    @pytest.mark.parametrize("i", range(3, 8))
    def test_later_phased_t3_draws(self, i):
        # phased draws 3 to 7 of default_rng(11), as ``test_phased_t3_draws``
        # pins the first three: one store per draw, so the doubled run
        # reads the level points of the first
        system = phased_t3_draw(i)
        with counting.keeping():
            for k in (48, 96):
                assert assert_single_axis_lines(
                    system, k, angle=2e-4 * (48 / k) ** 2) == 12


def assert_band_is_the_sphere(system):
    cx = boundary_operator(system)
    cx2 = boundary_operator(system, ring=RING_Z2)
    assert homology(cx).betti_vector([0, 1, 2]) == (1, 0, 1)
    assert sorted(abs(int(v)) for v in cx.map_from(2).flat) == [1, 1]
    assert np.array_equal(cx2.map_from(2) % 2,
                          cx.map_from(2).astype(object) % 2)


class TestSignOracles:
    """Checks on the signs themselves, which |entries| and homology leave
    free: the top-index points signed by their orientation form the
    fundamental class, a cycle, and every column of d1 sums to zero (the
    augmentation)."""

    @pytest.mark.parametrize("make", [
        lambda: sphere_band(2),
        lambda: sphere_band(3),
        lambda: product_system(torus_cosine(1, [1.0]), sphere_band(2)),
        lambda: torus_cosine(3, [1.0, 0.7, 0.55]),
        lambda: torus_cosine(2, [1.0, 0.7], perturb=0.02, seed=3),
    ], ids=["s2-band", "s3-band", "s1xs2-band", "t3", "t2-perturbed"])
    def test_fundamental_class_and_augmentation(self, make):
        system = make()
        cx = boundary_operator(system)
        n = system.manifold.dim
        eps = [orientation_sign(
            system.manifold.oriented_tangent_basis(system.point(x).point),
            system.point(x).unstable_frame) for x in cx.labels(n)]
        assert not (cx.map_from(n) @ np.array(eps, dtype=object)).any()
        assert not cx.map_from(1).sum(axis=0).any()


class TestClosedFormFrames:
    """The closed forms that sign every surface count agree with frames
    transported along the flow (``transport_frame``), the answer reached
    the long way."""

    SYSTEMS = [
        lambda: torus_cosine(2, [1.0, 0.7]),
        lambda: torus_cosine(2, [1.0, 0.7], perturb=0.05, seed=3),
        lambda: sphere_band(2),
    ]
    IDS = ["t2", "t2-perturbed", "s2-band"]

    @pytest.mark.parametrize("make", SYSTEMS, ids=IDS)
    def test_branch_tangent_is_the_transported_eigenvector(self, make):
        # closer to a critical point than 0.05 the finite-difference
        # transport drifts (to cos 0.98 near a sink); the closed form does
        # not, so those nodes are left out
        system = make()
        man = system.manifold
        cps = np.stack([cp.point for cp in system.critical_points])
        cosines = []
        for cp in system.by_index(1):
            for direction, frame in ((+1, cp.unstable_frame),
                                     (-1, cp.stable_frame)):
                for b in branches(system, cp, direction):
                    def field(p, b=b):
                        return b.direction * system.field(p)
                    moved = frame
                    for k in range(1, len(b.points) - 1):
                        if k > 1:
                            moved = transport_frame(
                                man, field, b.times[k - 1:k + 1],
                                b.points[k - 1:k + 1], moved)
                        if man.distances(b.points[k], cps).min() > 0.05:
                            cosines.append(
                                float(moved[:, 0] @ b.tangent(k, 0.0)[:, 0]))
        assert len(cosines) > 300 and min(cosines) > 0.999

    @pytest.mark.parametrize("label", ["criterion7", "115", "276"])
    def test_pulled_back_tangent_is_the_transported_stable_tangent(
            self, label, monkeypatch):
        # at edge time R = 1 a (2, 1) configuration x takes the outgoing
        # stable tangent from the chord of W^s(a3) pulled back through the
        # auxiliary flow; the long way takes the branch tangent at the
        # landing point y and carries it back along that flow to x
        problem = (phased_problem(CRITERION7_PHASES) if label == "criterion7"
                   else phased_problem(*OUTGOING_LABELS[label]))
        man, aux = problem.manifold, problem.aux
        crossings, configurations = [], []
        real_cross = operations.curve_intersections
        real_sign = operations._configuration_sign

        def kept(man, curves_a, curves_b):
            got = real_cross(man, curves_a, curves_b)
            crossings.extend(
                c for c in family_crossings(got, curves_a, curves_b)
                if c.b.image is not None)
            return got

        def signed(problem, a1, a2, a3, x, frames):
            configurations.append(x)
            return real_sign(problem, a1, a2, a3, x, frames)

        def no_transport(*args, **kwargs):
            raise AssertionError("a frame was transported")

        monkeypatch.setattr(operations, "curve_intersections", kept)
        monkeypatch.setattr(operations, "_configuration_sign", signed)
        for module in (importlib.import_module("morseflow.geometry.flow"),
                       geometry):
            monkeypatch.setattr(module, "transport_frame", no_transport)
        operations.operation_table(problem, edge_time=1.0)
        cosines = []
        for c in crossings:
            if not any(c.point is x for x in configurations):
                continue
            seg = fixed_time_flow(aux, c.point, 1.0)
            v = c.b.direction * c.b.system.field(seg.x_end)
            moved = transport_frame(
                man, lambda p: -aux.field(p),
                (seg.times[-1] - seg.times)[::-1], seg.points[::-1],
                (c.b.side / np.linalg.norm(v)) * v[:, None])
            cosines.append(float(moved[:, 0]
                                 @ c.b.tangent(c.l, c.u, man)[:, 0]))
        assert len(cosines) >= 4 and min(cosines) > 0.99

    @pytest.mark.parametrize("make", SYSTEMS, ids=IDS)
    def test_top_frame_keeps_its_orientation_class(self, make):
        system = make()
        man = system.manifold
        rng = np.random.default_rng(0)
        for _ in range(4):
            z = man.random_point(rng)
            res = flow(system, z, -1)
            cp = res.limit
            if cp.index != man.dim:
                continue
            moved = transport_frame(man, system.field,
                                    (res.times[-1] - res.times)[::-1],
                                    res.points[::-1], cp.unstable_frame)
            assert orientation_sign(man.oriented_tangent_basis(z), moved) \
                == orientation_class(man, cp)


def chord_walk(man, rng, n, scale, start=None):
    """A polyline of n nodes on the flat T2 or the unit S2 from ``start``
    (a random point if None) whose steps have exponentially distributed
    lengths of mean ``scale`` and a slowly turning heading; on the torus
    it crosses the wrap freely."""
    heads = rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(
        rng.normal(0.0, 0.3, size=n - 1))
    steps = scale * rng.exponential(size=n - 1)[:, None] * np.stack(
        [np.cos(heads), np.sin(heads)], axis=1)
    x = man.random_point(rng) if start is None else start
    if man.dim == man.coord_dim:
        return man.project(x + np.concatenate([[np.zeros(2)],
                                               np.cumsum(steps, axis=0)]))
    pts = [x]
    for step in steps:
        pts.append(man.project(pts[-1] + man.tangent_basis(pts[-1]) @ step))
    return np.array(pts)


def bits(hits):
    """Hits (..., s, u) with s and u as their float bits."""
    return [(*hit[:-2], float(hit[-2]).hex(), float(hit[-1]).hex())
            for hit in hits]


def two_branch_curve(man, rng, n, m, scale):
    """Two chord walks of n and m nodes that share their first node, as
    the two branches of a critical point's curve do."""
    x = man.random_point(rng)
    return [chord_walk(man, rng, n, scale, x),
            chord_walk(man, rng, m, scale, x)]


def laid(man, curve):
    return counting._lay([(R, counting._chart(man, R)) for R in curve])


def as_branches(man, curve, system):
    """``Branch`` objects on the polylines of a curve in ``man``, named
    after ``system`` and numbered limits, for the crossing checks."""
    return [counting.Branch(SimpleNamespace(name=system, manifold=man),
                            R[:-1], None,
                            SimpleNamespace(name="y%d" % k, point=R[-1]),
                            +1, 1)
            for k, R in enumerate(curve)]


def place_end(man, rng, ends, other, offset):
    """Move an end of the curve ``ends`` to ``offset`` off a random point
    of a random segment of the curve ``other``: the last node of one
    branch, or the first node, which both branches share."""
    R = other[int(rng.integers(len(other)))]
    j = int(rng.integers(len(R) - 1))
    d = man.displacement(R[j], R[j + 1])
    normal = (np.array([-d[1], d[0]]) if man.dim == man.coord_dim
              else np.cross(d, R[j]))
    end = R[j] + rng.uniform() * d + offset * normal / np.linalg.norm(normal)
    if man.dim == man.coord_dim:
        end = man.project(end)
    b = int(rng.integers(2))
    if rng.integers(2):
        ends[b][-1] = end
    else:
        ends[0][0] = ends[1][0] = end


def end_check(check, *args):
    """(systems, limits, segments, params bits) of the
    ``DegenerateCrossingError`` the check raises, or None."""
    try:
        check(*args)
    except DegenerateCrossingError as e:
        return e.systems, e.limits, e.segments, bits([e.params])
    return None


def edge_spikes(man, rng, a, radius, count, scale):
    """A polyline of ``count`` spikes around the point a, each a segment
    in from an outer node to an inner one and then one out to the next
    spike: every outer node lies ``radius`` plus its spike's length off a.
    On the flat torus the inner node lies ``radius`` off a and the outer
    one straight beyond it; on the sphere, whose chords do not add up
    along a great circle, the inner node lies further out, and the outer
    one is solved for on their great circle through a: 2 sin(x) - 2 sin(x
    - y) = radius for half their angles x and y from a."""
    T = man.tangent_basis(a)
    nodes = []
    for theta in rng.uniform(0.0, 2.0 * np.pi, size=count):
        n = T @ np.array([np.cos(theta), np.sin(theta)])
        extra = scale * rng.uniform(0.1, 1.0)
        if man.dim == man.coord_dim:
            nodes += [man.project(a + (radius + extra) * n),
                      man.project(a + radius * n)]
            continue
        y = 2.0 * np.arcsin((radius + extra) / 2.0) / 2.0
        x = y / 2.0 + np.arccos(radius / (4.0 * np.sin(y / 2.0)))
        nodes += [a * np.cos(phi) + n * np.sin(phi) for phi in (2 * x, 2 * y)]
    return np.array(nodes)


class TestChordSearch:
    """The block-pruned chord search returns exactly the hits of charting
    every segment pair (``oracles.chord_hits_all_pairs``)."""

    MANIFOLDS = {"torus": TorusModel(2), "sphere": SphereModel(2)}

    @settings(max_examples=60, derandomize=True, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 200),
           m=st.integers(2, 200), scale=st.sampled_from([0.01, 0.1, 0.5, 1.0]),
           kind=st.sampled_from(["walks", "overlap", "near-parallel",
                                 "reversed", "branches"]),
           surface=st.sampled_from(["torus", "sphere"]))
    def test_same_hits_as_all_pairs(self, seed, n, m, scale, kind, surface):
        man = self.MANIFOLDS[surface]
        rng = np.random.default_rng(seed)
        if kind == "branches":
            # one pass over two curves of two branches each gives, pair
            # by pair, the hits of charting every segment pair
            curves = [two_branch_curve(man, rng, n, m, scale),
                      two_branch_curve(man, rng, m, n, scale)]
            got = counting._curve_hits(man, *(laid(man, c) for c in curves))
            want = [(a, b, *hit) for a, P in enumerate(curves[0])
                    for b, Q in enumerate(curves[1])
                    for hit in chord_hits_all_pairs(man, P, Q)]
            assert bits(got) == bits(want)
            return
        P = chord_walk(man, rng, n, scale)
        if kind == "walks":
            Q = chord_walk(man, rng, m, scale)
        elif kind == "overlap":
            # shared nodes and collinear segments
            start = int(rng.integers(0, n - 1))
            Q = P[start:start + max(m, 2)]
        elif kind == "near-parallel":
            Q = man.project(P + rng.normal(
                0.0, 10.0 ** -rng.integers(6, 13), size=P.shape))
            if man.dim != man.coord_dim:
                Q = Q / np.linalg.norm(Q, axis=1)[:, None]
        else:
            Q = P[::-1].copy()
        assert bits(counting._chord_hits(man, P, Q)) == \
            bits(chord_hits_all_pairs(man, P, Q))

    def test_crossing_across_the_wrap(self):
        # a horizontal polyline through theta1 = 0 meets a vertical one at
        # theta1 = 0.05, past the wrap, once
        man = TorusModel(2)
        P = np.array([[6.0, 1.0], [6.2, 1.0], [0.1, 1.0], [0.3, 1.0]])
        Q = np.array([[0.05, 0.5], [0.05, 0.9], [0.05, 1.3]])
        hits = counting._chord_hits(man, P, Q)
        assert [(i, j) for i, j, _s, _u in hits] == [(1, 1)]
        assert bits(hits) == bits(chord_hits_all_pairs(man, P, Q))
        _i, _j, s, u = hits[0]
        assert s == pytest.approx((0.05 + 2.0 * np.pi - 6.2)
                                  / (0.1 + 2.0 * np.pi - 6.2))
        assert u == pytest.approx(0.25)

    @settings(max_examples=60, derandomize=True, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 120),
           m=st.integers(2, 120), scale=st.sampled_from([0.01, 0.1, 0.5]),
           offset=st.sampled_from([None, 0.0, 1e-11, 1e-9]),
           surface=st.sampled_from(["torus", "sphere"]))
    def test_pruned_end_check_matches_all_segments(self, seed, n, m, scale,
                                                   offset, surface):
        # an end placed offset off a segment of the other curve raises at
        # 0 and 1e-11 and passes at 1e-9 (beyond 1e-10), and the pruned
        # check must report what the all-segment oracle reports
        man = self.MANIFOLDS[surface]
        rng = np.random.default_rng(seed)
        curves = [two_branch_curve(man, rng, n, m, scale),
                  two_branch_curve(man, rng, m, n, scale)]
        if offset is not None:
            place_end(man, rng, *curves[::1 if rng.integers(2) else -1],
                      offset)
        curve_a, curve_b = as_branches(man, curves[0], "f"), as_branches(
            man, curves[1], "g")
        want = end_check(check_ends_all_segments, man, curve_a, curve_b)
        got = end_check(lambda: counting.curve_intersections(
            man, [curve_a], [curve_b])[0, 0])
        assert got == want
        if offset is not None and offset < 1e-10:
            assert want is not None


    @settings(max_examples=40, derandomize=True, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(
               st.integers(1, 3), st.integers(1, 3)),
           n=st.integers(2, 80), scale=st.sampled_from([0.1, 0.5, 1.0]),
           ends_on=st.integers(0, 2),
           surface=st.sampled_from(["torus", "sphere"]))
    def test_families_read_as_their_pairs(self, seed, sizes, n, scale,
                                          ends_on, surface):
        # each curve pair of two families crossed in one pass reads as
        # that pair alone, crossings and errors alike, while up to two
        # other pairs have an end of one curve on the other
        man = self.MANIFOLDS[surface]
        rng = np.random.default_rng(seed)
        families = [[two_branch_curve(man, rng, n, int(rng.integers(2, 80)),
                                      scale) for _ in range(size)]
                    for size in sizes]
        for _ in range(ends_on):
            curves = [fam[int(rng.integers(len(fam)))] for fam in families]
            place_end(man, rng, *curves[::1 if rng.integers(2) else -1],
                      0.0)
        curves_a, curves_b = ([as_branches(man, c, name) for c in fam]
                              for fam, name in zip(families, "fg"))
        got = counting.curve_intersections(man, curves_a, curves_b)
        for i, curve_a in enumerate(curves_a):
            for j, curve_b in enumerate(curves_b):
                want = read_pair(lambda: curve_intersections_per_pair(
                    man, curve_a, curve_b), curve_a, curve_b)
                # a flagged pair raises a fresh error with its fields on
                # every read
                for _read in range(2):
                    assert read_pair(lambda: got[i, j], curve_a,
                                     curve_b) == want

    @settings(max_examples=60, derandomize=True, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 80),
           count=st.integers(1, 8), scale=st.sampled_from([0.01, 0.05, 0.2]),
           offset=st.sampled_from([-1e-12, 0.0, 1e-12]),
           surface=st.sampled_from(["torus", "sphere"]))
    def test_segments_at_the_anchor_bound(self, seed, n, count, scale,
                                          offset, surface):
        # the spikes of P start L_i + reach_J (+- 1e-12) off the anchor of
        # a block J of Q, the edge of the segment prune: its hits are
        # still those of charting every segment pair
        man = self.MANIFOLDS[surface]
        rng = np.random.default_rng(seed)
        Q = chord_walk(man, rng, n, scale)
        chart = counting._chart(man, Q)
        J = int(rng.integers(len(chart.anchors)))
        a, reach = chart.anchors[J], chart.reaches[J]
        # spikes well inside the torus's wrap and the sphere's diameter
        assume(reach + scale < 1.0)
        P = edge_spikes(man, rng, a, reach + offset, count, scale)
        ins = counting._chart(man, P).lengths[::2]
        assert np.linalg.norm(man.displacement(P[::2], a), axis=1) \
            == pytest.approx(ins + reach + offset, rel=0.0, abs=1e-14)
        assert bits(counting._chord_hits(man, P, Q)) == \
            bits(chord_hits_all_pairs(man, P, Q))

    def test_table_charts_few_segment_pairs(self, monkeypatch):
        # the rows of torus displacement that the criterion-7 table's
        # three crossing passes chart: the prune tests (``_within``), and
        # the segment pairs they leave; charting every pair of surviving
        # blocks took 3,136 + 4,864 + 2,560 = 10,560 pair rows, the
        # segment prune leaves 262 + 318 + 268
        real_disp, real_within = TorusModel.displacement, counting._within
        real_hits = counting._curve_hits
        passes, inside = [], []

        def displacement(self, x, y):
            d = real_disp(self, x, y)
            if inside:
                passes[-1][0] += len(d)
            return d

        def within(man, x, y, bound):
            if inside:
                passes[-1][1] += len(x)
            return real_within(man, x, y, bound)

        def curve_hits(man, A, B):
            passes.append([0, 0])
            inside.append(True)
            try:
                return real_hits(man, A, B)
            finally:
                inside.pop()

        monkeypatch.setattr(TorusModel, "displacement", displacement)
        monkeypatch.setattr(counting, "_within", within)
        monkeypatch.setattr(counting, "_curve_hits", curve_hits)
        operations.operation_table(phased_problem(CRITERION7_PHASES))
        pairs = [rows - pruned for rows, pruned in passes]
        assert len(passes) == 3 and sum(pairs) < 1056, passes

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("surface", ["torus", "sphere"])
    def test_an_end_on_two_curves_names_each_pair(self, seed, surface):
        # an end of the curve of a placed on a curve of b lies on b's
        # copy too, named h: each pair's error names its own curve of b,
        # as that pair alone does, though the copy's segments tie with
        # the first curve's
        man = self.MANIFOLDS[surface]
        rng = np.random.default_rng(seed)
        ends, other = (two_branch_curve(man, rng, 40, 60, 0.5)
                       for _ in range(2))
        place_end(man, rng, ends, other, 0.0)
        curve_a = as_branches(man, ends, "f")
        curves_b = [as_branches(man, other, name) for name in "gh"]
        got = counting.curve_intersections(man, [curve_a], curves_b)
        for j, curve_b in enumerate(curves_b):
            want = read_pair(lambda: curve_intersections_per_pair(
                man, curve_a, curve_b), curve_a, curve_b)
            assert want[0] == ("f", "gh"[j])
            assert read_pair(lambda: got[0, j], curve_a, curve_b) == want


class TestUnsupportedPairs:
    def test_boundary_operator_refuses_before_any_flow(self, monkeypatch):
        # on T4 no search reaches index 2 -> index 1 or index 3 -> index
        # 2; the refusal names the first such pair, before the index-1
        # counts fly their branches
        t4 = parse_system_config("kind torus\ndim 4\n")

        def no_flow(*args, **kwargs):
            raise AssertionError("a flow was launched")

        monkeypatch.setattr(counting, "flow", no_flow)
        with pytest.raises(UnsupportedPairError) as err:
            boundary_operator(t4)
        assert (err.value.names, err.value.indices) == (
            ("x1100", "x1000"), (2, 1))

    def test_index_two_pair_raises_before_flowing(self, monkeypatch):
        t4 = torus_cosine(4, [1.0, 0.8, 0.65, 0.5])

        def no_flow(*args, **kwargs):
            raise AssertionError("a flow was launched")

        monkeypatch.setattr(counting, "flow", no_flow)
        for call in (count_flow_lines, find_connections):
            with pytest.raises(UnsupportedPairError) as err:
                call(t4, t4.point("x1100"), t4.point("x1000"))
            assert err.value.indices == (2, 1)


class TestSplitRefusals:
    def test_crossing_beside_a_split_raises_with_its_fields(
            self, t3, monkeypatch):
        # W^s(x100) on the level, opened next to its crossing with W^u(x110)
        # (``open_beside_a_crossing``): the crossing must raise instead of
        # being counted, with the pair, the split's angles and the hit
        open_beside_a_crossing(monkeypatch)
        x, y = t3.point("x110"), t3.point("x100")
        with pytest.raises(CountingIncompleteError,
                           match="x110 -> x100: a crossing lies beside a "
                                 "split") as err:
            find_connections(t3, x, y)
        fields = json.loads(json.dumps(vars(err.value)))
        assert fields["names"] == ["x110", "x100"]
        lo, hi = fields["gap"]
        assert lo < hi <= lo + 2.0 * np.pi
        # the hit is on a chord of W^u(x), off the level by its sagitta
        assert t3.f(np.array(fields["hit"])) == pytest.approx(
            counting._level(t3, x, y), abs=1e-2)


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

    def test_perturbed_roundtrip(self):
        # a forward flow from a crossing on W^s(x10; g) to x10 missed it by
        # 0.0066; the stable tangent is read off the branch instead
        f = torus_cosine(2, [1.0, 0.7], phases=[3.4909, 1.7056],
                         perturb=0.05, seed=361)
        g = torus_cosine(2, [1.0, 0.7], phases=[0.4035, 4.2674],
                         perturb=0.05, seed=879)
        assert_unimodular_roundtrip(f, g)

    @settings(max_examples=10, derandomize=True, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_perturbed_roundtrip_sweep(self, seed):
        rng = np.random.default_rng(seed)
        f, g = (torus_cosine(2, [1.0, 0.7], phases=list(phases),
                             perturb=0.05, seed=int(label_seed))
                for phases, label_seed in zip(
                    rng.uniform(0.0, 2.0 * np.pi, size=(2, 2)),
                    rng.integers(0, 1000, size=2)))
        assert_unimodular_roundtrip(f, g)

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


def assert_unimodular_roundtrip(f, g):
    """Both continuations have unimodular blocks, and g -> f after f -> g
    is the identity (T2's differentials vanish, so chain homotopic maps
    are equal)."""
    fwd, back = continuation(f, g), continuation(g, f)
    for p in fwd:
        for mat in (fwd[p], back[p]):
            det = np.linalg.det(np.array(mat, dtype=float))
            assert round(abs(det)) == 1, (p, mat.tolist())
        comp = back[p] @ fwd[p]
        assert np.array_equal(comp, np.eye(comp.shape[0], dtype=object)), \
            (p, comp.tolist())
