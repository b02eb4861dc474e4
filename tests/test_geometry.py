import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morseflow.errors import (
    GeometryError,
    IntegrationError,
    ParseError,
    StructuralValidationError,
)
from morseflow.geometry import (
    CONVERGED,
    FIXED_TIME,
    CriticalPoint,
    ManifoldModel,
    MorseSystem,
    SphereModel,
    TorusModel,
    Tolerances,
    fixed_time_flow,
    flow,
    membership_stable,
    orientation_sign,
    parallel_frame,
    parse_system_config,
    probe_limits,
    product_system,
    sphere_band,
    sphere_directions,
    sphere_height,
    torus_cosine,
    transport_frame,
    unstable_sphere_sample,
)
from morseflow.geometry.systems import CosineWells, numpy_kernels
from morseflow.operations import AuxiliaryFunction

FLOW = sys.modules["morseflow.geometry.flow"]


@pytest.fixture(scope="module")
def s2():
    return sphere_height(2)


@pytest.fixture(scope="module")
def t2():
    return torus_cosine(2, [1.0, 0.7])


class TestManifolds:
    def test_sphere_projection_idempotent(self):
        m = SphereModel(2)
        x = m.project([3.0, -1.0, 0.5])
        assert np.allclose(m.project(x), x)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-14

    def test_torus_wrap_and_distance(self):
        m = TorusModel(2)
        x = m.project([7.0, -1.0])
        assert np.all(x >= 0) and np.all(x < 2 * np.pi)
        d = m.distance([0.1, 0.0], [2 * np.pi - 0.1, 0.0])
        assert abs(d - 0.2) < 1e-12

    def test_tangent_basis_orthonormal(self):
        m = SphereModel(2)
        x = m.project([0.3, -0.5, 1.0])
        b = m.tangent_basis(x)
        assert np.allclose(b.T @ b, np.eye(2), atol=1e-12)
        assert np.allclose(b.T @ x, 0, atol=1e-12)


class TestCatalogs:
    def test_sphere_height_indices(self, s2):
        assert sorted(cp.index for cp in s2.critical_points) == [0, 2]
        north = s2.point("north")
        assert np.all(north.eigenvalues < 0)

    def test_torus_indices_are_bit_counts(self, t2):
        assert sorted(cp.index for cp in t2.critical_points) == [0, 1, 1, 2]

    def test_torus3_indices(self):
        t3 = torus_cosine(3, [1.0, 0.7, 0.55])
        assert sorted(cp.index for cp in t3.critical_points) == [
            0, 1, 1, 1, 2, 2, 2, 3]

    def test_product_additivity(self, s2):
        ss = product_system(s2, s2)
        assert sorted(cp.index for cp in ss.critical_points) == [0, 2, 2, 4]

    def test_band_catalog(self):
        sb = sphere_band(2, 0.15)
        assert sorted(cp.index for cp in sb.critical_points) == [0, 1, 2, 2]

    def test_wrong_index_rejected(self):
        m = SphereModel(2)

        def f(x):
            return float(x[-1])

        def grad(x):
            g = np.zeros(3)
            g[-1] = 1.0
            return g

        with pytest.raises(StructuralValidationError):
            MorseSystem(m, f, grad,
                        [CriticalPoint("south", [0, 0, -1.0], 2)])

    def test_non_critical_point_rejected(self, s2):
        with pytest.raises(StructuralValidationError):
            MorseSystem(s2.manifold, s2.f, s2.grad,
                        [CriticalPoint("fake", [1.0, 0, 0], 0)])

    def test_degenerate_function_rejected(self):
        # vanishing amplitude makes the Hessian singular
        with pytest.raises(StructuralValidationError):
            torus_cosine(2, [1.0, 1e-9])


class TestFlow:
    def test_sphere_descends_to_south(self, s2):
        x0 = s2.manifold.project([0.1, 0.05, 0.99])
        res = flow(s2, x0, +1)
        assert res.status == CONVERGED
        assert res.limit.name == "south"

    def test_sphere_flow_matches_axisymmetric_solution(self, s2):
        # descending height flow obeys d/dt log tan(theta/2) = 1, with
        # theta the polar angle from the maximum
        x0 = s2.manifold.project([0.3, -0.2, 0.9])
        res = flow(s2, x0, +1)
        theta0 = np.arccos(np.clip(x0[2], -1, 1))
        c0 = np.tan(theta0 / 2)
        for t, pt in zip(res.times, res.points):
            theta = np.arccos(np.clip(pt[2], -1, 1))
            if theta > 3.0:        # closed form degenerates at the pole
                continue
            assert abs(np.tan(theta / 2) - c0 * np.exp(t)) <= \
                1e-6 * max(1.0, c0 * np.exp(t))

    def test_flow_from_critical_point_is_constant(self, s2):
        res = flow(s2, s2.point("north").point, +1)
        assert res.status == CONVERGED
        assert res.limit.name == "north"
        assert res.t_end == 0.0

    def test_point_on_stable_manifold_reaches_saddle(self, t2):
        # W^s of the saddle with theta1 pinned at its peak: {theta1 = 0}
        sad = t2.point("x10")
        res = flow(t2, np.array([0.0, 2.2]), +1)
        assert res.status == CONVERGED
        assert res.limit.name == sad.name

    def test_energy_monotone_along_path(self, t2):
        res = flow(t2, np.array([0.4, 1.1]), +1)
        diffs = np.diff(res.f_values)
        assert np.all(diffs <= 1e-8)

    def test_reprojection_error_bounded(self, s2):
        res = flow(s2, s2.manifold.project([0.6, -0.2, 0.75]), +1)
        for p in res.points:
            assert abs(np.linalg.norm(p) - 1.0) < 1e-10

    def test_backward_flow_reaches_maximum(self, t2):
        res = flow(t2, np.array([0.4, 1.1]), -1)
        assert res.status == CONVERGED
        assert res.limit.name == "x11"

    def test_fixed_time(self, t2):
        res = fixed_time_flow(t2, np.array([0.4, 1.1]), 0.7)
        assert res.status == FIXED_TIME
        assert abs(res.t_end - 0.7) < 1e-9

    def test_membership(self, t2):
        sad = t2.point("x10")
        ok, _ = membership_stable(t2, sad, np.array([0.0, 2.0]))
        assert ok
        ok2, _ = membership_stable(t2, sad, np.array([1.0, 2.0]))
        assert not ok2
        ok3, _ = membership_stable(t2, sad, t2.point("x00").point)
        assert not ok3

    def test_limit_partition(self, t2):
        stats = probe_limits(t2, 40, seed=5)
        assert stats["unresolved"] == 0
        n = t2.manifold.dim
        for name in stats["forward"]:
            assert t2.point(name).index < n
        for name in stats["backward"]:
            assert t2.point(name).index > 0


def reference_rk_step(field_fn, x, h, k0):
    """The Cash-Karp step written as numpy vector updates, one stage term
    at a time; the module's kernel must reproduce it bit for bit."""
    k = [k0]
    for stage in range(1, 6):
        xs = x.copy()
        for j, a in enumerate(FLOW._CK_A[stage]):
            if a:
                xs = xs + (h * a) * k[j]
        k.append(field_fn(xs))
    x5 = x.copy()
    x4 = x.copy()
    for j in range(6):
        if FLOW._CK_B5[j]:
            x5 = x5 + (h * FLOW._CK_B5[j]) * k[j]
        if FLOW._CK_B4[j]:
            x4 = x4 + (h * FLOW._CK_B4[j]) * k[j]
    return x5, float(np.linalg.norm(x5 - x4))


def kernel_systems():
    """Flat and perturbed tori, the sphere's 3-D coordinates, a product,
    and the figure-8 auxiliary field."""
    labels = [torus_cosine(2, [1.0, 0.7], phases=ph, name=nm)
              for ph, nm in (([0.3, 1.9], "in1"), ([2.2, 4.0], "in2"))]
    return {
        "t2": torus_cosine(2, [1.0, 0.7]),
        "t2-perturbed": torus_cosine(2, [1.0, 0.7], perturb=0.02, seed=3),
        "band2": sphere_band(2),
        "s1xs2-band": product_system(torus_cosine(1, [1.0]), sphere_band(2)),
        "fig8-aux": AuxiliaryFunction(labels),
    }


def _same_flow(a, b):
    assert a.status == b.status and a.steps == b.steps
    assert getattr(a.limit, "name", None) == getattr(b.limit, "name", None)
    for key in ("times", "points", "f_values"):
        assert bits(getattr(a, key)) == bits(getattr(b, key)), key


class TestKernel:
    @pytest.mark.parametrize("name", ["t2", "t2-perturbed", "band2",
                                      "s1xs2-band", "fig8-aux"])
    def test_step_is_bit_exact(self, name):
        system = kernel_systems()[name]
        rng = np.random.default_rng(11)
        for direction in (+1, -1):
            def field_fn(x):
                return direction * system.field(x)
            for _ in range(4):
                x = system.manifold.random_point(rng)
                k0 = field_fn(x)
                for h in (1e-6, 1e-3, 0.05, 0.4, 2.0):
                    x5, err = FLOW._rk_step(
                        lambda v: field_fn(np.array(v)).tolist(),
                        x.tolist(), h, k0.tolist())
                    x5_ref, err_ref = reference_rk_step(field_fn, x, h, k0)
                    assert np.array_equal(np.array(x5), x5_ref)
                    assert err == err_ref

    @pytest.mark.parametrize("name", ["t2", "t2-perturbed", "band2",
                                      "s1xs2-band"])
    def test_flows_match_the_reference_step(self, name, monkeypatch):
        system = kernel_systems()[name]
        starts = [system.manifold.random_point(np.random.default_rng(seed))
                  for seed in range(3)]

        def run():
            out = []
            for x in starts:
                for direction in (+1, -1):
                    out.append(flow(system, x, direction))
                    out.append(flow(system, x, direction, loose=True))
                    out.append(fixed_time_flow(system, x, 1.3, direction))
            return out

        def reference_on_lists(field, x, h, k0):
            x5, err = reference_rk_step(lambda v: np.array(field(v.tolist())),
                                        np.array(x), h, np.array(k0))
            return x5.tolist(), err

        plain = run()
        monkeypatch.setattr(FLOW, "_rk_step", reference_on_lists)
        for a, b in zip(plain, run()):
            _same_flow(a, b)


def bits(values):
    """The IEEE bytes of a float or a sequence of floats: equal bits, signed
    zeros included."""
    return np.asarray(values, dtype=float).tobytes()


# angles well outside [0, 2 pi), where wrapping and argument reduction act
ANGLES = st.floats(-60.0, 60.0)
SETTINGS = settings(max_examples=150, derandomize=True, deadline=None,
                    database=None)


def numpy_cosine(amps, phis, c, psi):
    """f and the descending field -grad f of cosine wells, as the numpy
    expressions that the float kernels replace."""
    amps, phis = np.array(amps), np.array(phis)

    def f(th):
        base = float(np.sum(amps * np.cos(th - phis)))
        if c:
            base += c * math.cos(float(np.sum(th)) + psi)
        return base

    def field(th):
        g = -amps * np.sin(th - phis)
        if c:
            g = g - c * math.sin(float(np.sum(th)) + psi)
        return -g

    return f, field


@st.composite
def cosine_wells(draw):
    """(amplitudes, phases, c, psi, theta) of n = 1, 2 or 3 wells."""
    n = draw(st.integers(1, 3))
    vectors = st.lists(ANGLES, min_size=n, max_size=n)
    return (draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)),
            draw(vectors), draw(st.sampled_from([0.0, 0.03, -0.2])),
            draw(st.floats(0.0, 2 * np.pi)), draw(vectors))


class TestFloatKernels:
    """Each native kernel of the torus equals, bit for bit, the numpy
    expression it replaces, and so every flow through them equals the flow
    through the numpy adapters."""

    @SETTINGS
    @given(drawn=cosine_wells(), direction=st.sampled_from([1, -1]))
    def test_cosine_field_and_value(self, drawn, direction):
        amps, phis, c, psi, x = drawn
        wells = CosineWells(amps, phis, c, psi)
        f, field = numpy_cosine(amps, phis, c, psi)
        xa = np.array(x)
        # the numpy forms of the wells are those expressions
        assert bits(wells(xa)) == bits(f(xa))
        assert bits(-wells.grad(xa)) == bits(field(xa))
        kernel_field, kernel_value = wells.float_kernels(direction)
        assert bits(kernel_field(x)) == bits(direction * field(xa))
        assert bits(kernel_value(x)) == bits(direction * f(xa))

    @SETTINGS
    @given(n=st.integers(1, 3), data=st.data())
    def test_torus_projection(self, n, data):
        x = data.draw(st.lists(st.one_of(
            ANGLES, st.floats(-1e9, 1e9), st.sampled_from(
                [0.0, -0.0, -1e-300, 2 * np.pi, -2 * np.pi, 1e-17])),
            min_size=n, max_size=n))
        m = TorusModel(n)
        assert bits(m.project_floats(x)) == bits(np.mod(np.array(x),
                                                        2 * np.pi))

    @SETTINGS
    @given(n=st.integers(1, 3), k=st.integers(1, 8), data=st.data())
    def test_torus_distance_sweep(self, n, k, data):
        pts = np.array(data.draw(st.lists(
            st.lists(ANGLES, min_size=n, max_size=n), min_size=k,
            max_size=k)))
        x = data.draw(st.lists(ANGLES, min_size=n, max_size=n))
        m = TorusModel(n)
        assert bits(m.distance_sweep(pts)(x)) == bits(
            m.distances(np.array(x), pts))

    @pytest.mark.parametrize("name", ["t1", "t2", "t3", "t2-perturbed"])
    def test_flows_match_the_numpy_adapters(self, name, monkeypatch):
        system = {
            "t1": lambda: torus_cosine(1, [0.8], phases=[2.0]),
            "t2": lambda: torus_cosine(2, [1.0, 0.7], phases=[0.3, 5.1]),
            "t3": lambda: torus_cosine(3, [1.0, 0.7, 0.55]),
            "t2-perturbed": lambda: torus_cosine(2, [1.0, 0.7],
                                                 perturb=0.05, seed=3),
        }[name]()
        names = [cp.name for cp in system.critical_points]
        rng = np.random.default_rng(21)
        # starts off the chart, and one on a stable manifold
        starts = [rng.uniform(-20.0, 20.0, system.manifold.dim)
                  for _ in range(3)] + [system.point(names[-2]).point + 1e-3]

        def run():
            out = []
            for x in starts:
                for direction in (+1, -1):
                    out.append(flow(system, x, direction))
                    out.append(flow(system, x, direction, t_max=1.0,
                                    approach_targets=names))
                    out.append(flow(system, x, direction, loose=True,
                                    approach_targets=names[:2]))
                    out.append(fixed_time_flow(system, x, 1.3, direction))
            return out

        native = run()
        monkeypatch.setattr(MorseSystem, "float_kernels", numpy_kernels)
        monkeypatch.setattr(TorusModel, "project_floats",
                            ManifoldModel.project_floats)
        monkeypatch.setattr(TorusModel, "distance_sweep",
                            ManifoldModel.distance_sweep)
        assert system.float_kernels(1)[0].__name__ == "<lambda>"
        adapted = run()
        assert len(native) == len(adapted) == 8 * len(starts)
        assert any(res.closest for res in native)
        for a, b in zip(native, adapted):
            _same_flow(a, b)
            assert bits(a.x_end) == bits(b.x_end) and a.t_end == b.t_end
            assert sorted(a.closest) == sorted(b.closest)
            for key, (d, t, pt) in a.closest.items():
                d2, t2, pt2 = b.closest[key]
                assert (d, t, bits(pt)) == (d2, t2, bits(pt2))


class TestIntegrationErrors:
    def test_step_budget_names_the_flow(self):
        system = torus_cosine(2, [1.0, 0.7], tol=Tolerances(max_steps=5))
        x0 = np.array([0.4, 1.1])
        with pytest.raises(IntegrationError,
                           match="^step budget exhausted$") as info:
            flow(system, x0, +1)
        err = info.value
        assert err.steps == 5 and err.t > 0.0 and err.h > 0.0
        assert np.array_equal(err.x0, x0)
        assert err.x.shape == (2,) and not np.array_equal(err.x, x0)


class TestSphereSampling:
    def test_index1_two_points(self, t2):
        sad = t2.point("x10")
        dirs, pts = unstable_sphere_sample(t2, sad, 0.02, 16)
        assert dirs.shape == (2, 1)
        assert pts.shape == (2, 2)

    def test_index2_circle(self, t2):
        top = t2.point("x11")
        dirs, pts = unstable_sphere_sample(t2, top, 0.02, 64)
        assert dirs.shape == (64, 2)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)

    def test_minimum_empty(self, t2):
        mn = t2.point("x00")
        dirs, pts = unstable_sphere_sample(t2, mn, 0.02, 16)
        assert dirs.shape[0] == 0

    def test_directions_deterministic(self):
        a = sphere_directions(3, 50)
        b = sphere_directions(3, 50)
        assert np.array_equal(a, b)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0)


class TestFrames:
    def test_transport_preserves_orientation_short_path(self, t2):
        res = fixed_time_flow(t2, np.array([1.1, 2.0]), 0.5)
        frame0 = np.eye(2)
        moved = transport_frame(t2.manifold, t2.field, res.times, res.points,
                                frame0)
        ref = parallel_frame(t2.manifold, res.x_end, frame0)
        assert orientation_sign(moved, ref) == 1

    def test_orientation_sign_flip(self):
        a = np.eye(3)[:, :2]
        b = a[:, ::-1]
        assert orientation_sign(a, b) == -1


class TestConfig:
    def test_parse_torus(self):
        sys = parse_system_config(
            "kind torus\ndim 2\namplitudes 1.0 0.7\nphases 0.1 0.2\n")
        assert sys.manifold.dim == 2
        assert len(sys.critical_points) == 4

    def test_parse_product(self):
        sys = parse_system_config(
            "kind product\nfactor sphere dim=2\nfactor sphere dim=2\n")
        assert sys.manifold.dim == 4
        assert len(sys.critical_points) == 4

    def test_parse_band_and_tolerance(self):
        sys = parse_system_config(
            "kind sphere-band\ndim 2\neps 0.2\ntol-conv 1e-7\n")
        assert sys.tol.eps_conv == 1e-7

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_system_config("dim 2\n")
        with pytest.raises(ParseError):
            parse_system_config("kind nonsense\n")
