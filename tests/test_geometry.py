import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    orientation_sign,
    parallel_frame,
    parse_system_config,
    probe_limits,
    product_system,
    sphere_band,
    sphere_height,
    torus_cosine,
    transport_frame,
)
from morseflow.geometry._unroll import names, square_sum, unrolled
from morseflow.geometry.systems import (
    MAX_TORUS_DIM,
    CosineWells,
    numpy_kernels,
)
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

    @pytest.mark.parametrize("direction", [0, 2, -2, 0.5])
    def test_direction_other_than_one_raises(self, t2, direction):
        x = np.array([0.4, 1.1])
        with pytest.raises(GeometryError, match="direction"):
            flow(t2, x, direction)
        with pytest.raises(GeometryError, match="direction"):
            fixed_time_flow(t2, x, 0.7, direction)

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

    def test_every_step_goes_through_the_module_stepper(self, monkeypatch):
        # the test above swaps the stepper by name, so it proves something
        # only while integrate looks _rk_step up on every step
        system = kernel_systems()["t2"]
        x = system.manifold.random_point(np.random.default_rng(5))
        step, calls = FLOW._rk_step, []

        def counted(*args):
            calls.append(args[2])
            return step(*args)

        monkeypatch.setattr(FLOW, "_rk_step", counted)
        for run in (lambda: flow(system, x, +1),
                    lambda: flow(system, x, -1, loose=True),
                    lambda: fixed_time_flow(system, x, 1.3)):
            calls.clear()
            res = run()
            assert res.steps > 0 and len(calls) == res.steps


def square_sum_template(n):
    """A kernel that returns the square sum of its n coordinates."""
    lines = ["def kernel(v):", "    %s= v" % names("v", n)]
    return "\n".join(lines + square_sum("v", n) + ["    return ss"]) + "\n"


# the split's exact range ends near 2^-485: below it lo * lo may underflow
SPLIT_EDGE = 2.0 ** -485
SPECIAL_COORDS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.0 ** -1022, 1e-300,
     math.nextafter(SPLIT_EDGE, 0.0), SPLIT_EDGE,
     math.nextafter(SPLIT_EDGE, 1.0), -SPLIT_EDGE, 1.5 * SPLIT_EDGE,
     0.75 * SPLIT_EDGE, 1e154, 1.3e154, 1e160, 1e300, 1.7e308,
     math.inf, -math.inf, math.nan])


# lo * lo of the middle coordinate, 2^-1076, underflows to zero; it decides
# a tie at the second step, and that last bit a tie at the third, in a sum
# well inside the kernel's window: only the guard on coordinates below
# 2^-485 keeps this one on BLAS's bits
UNDERFLOW_TIE = [float.fromhex(h) for h in (
    "0x1.000000000000ep-485", "0x1.0000000000001p-486",
    "0x1.019ce4c605a80p-465")]


@st.composite
def dot_vectors(draw):
    """1 to 10 coordinates: uniform at a scale from 1e-160 to 1e150, mixed
    with the special values, integers and powers of two."""
    n = draw(st.integers(1, 10))
    scale = 10.0 ** draw(st.floats(-160.0, 150.0))
    coords = st.one_of(st.floats(-1.0, 1.0).map(lambda u: u * scale),
                       SPECIAL_COORDS,
                       st.integers(-2 ** 40, 2 ** 40).map(float),
                       st.integers(-1074, 1023).map(
                           lambda e: math.ldexp(1.0, e)))
    return draw(st.lists(coords, min_size=n, max_size=n))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestSquareSum:
    """The square sum of the step's error and the norm of the speed and of
    the state equal BLAS's ``ndarray.dot`` bit for bit, where the
    fused multiply-adds are emulated and where the kernel hands over to
    BLAS."""

    # fsum meets inf - inf, and a finite sum that overflows
    @example([1.0, 1e160])
    @example([1.3e154, 1.3e154])
    @example(UNDERFLOW_TIE)
    @example([1.0, 0.75 * SPLIT_EDGE])
    @example([0.0, -0.0])
    @settings(max_examples=600, derandomize=True, deadline=None,
              database=None)
    @given(dot_vectors())
    def test_square_sum_is_the_blas_dot(self, v):
        a = np.array(v)
        assert bits(unrolled(square_sum_template, len(v))(v)) == \
            bits(a.dot(a))

    @settings(max_examples=300, derandomize=True, deadline=None,
              database=None)
    @given(dot_vectors())
    def test_norm_is_sqrt_of_the_blas_dot(self, v):
        a = np.array(v)
        assert bits(unrolled(FLOW._norm_template, len(v))(v)) == \
            bits(math.sqrt(a.dot(a)))

    @pytest.mark.parametrize("n", [15, 16, 20])
    def test_long_vectors(self, n):
        # 15 entries is the longest emulated chain; from 16 on the kernel is
        # the BLAS dot itself
        rng = np.random.default_rng(n)
        for _ in range(200):
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 3)
            assert bits(unrolled(square_sum_template, n)(a.tolist())) == \
                bits(a.dot(a))


def bits(values):
    """The IEEE bytes of a float or a sequence of floats: equal bits, signed
    zeros included."""
    return np.asarray(values, dtype=float).tobytes()


# angles well outside [0, 2 pi), where wrapping and argument reduction act,
# signed zeros and the ends of the chart
ANGLES = st.one_of(st.floats(-60.0, 60.0), st.sampled_from(
    [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi]))
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
    """(amplitudes, phases, c, psi, theta) of n = 1 to MAX_TORUS_DIM wells:
    from 8 on, numpy's sums pair their terms."""
    n = draw(st.integers(1, MAX_TORUS_DIM))
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
    # a s = +0 and w = c sin(0) = -0: the coupled field's zero takes the
    # sign of -((-a) s - w), not of a s + w
    @example(drawn=([1.0], [0.0], -0.2, 0.0, [0.0]), direction=-1)
    @example(drawn=([1.0, 0.5], [0.0, 2.0], -0.2, 0.0, [0.0, -0.0]),
             direction=1)
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
    @given(drawn=cosine_wells(), h=st.floats(1e-6, 2.0),
           direction=st.sampled_from([1, -1]))
    def test_stepper_matches_the_reference_step(self, drawn, h, direction):
        # the step written out for each n, on a cosine field through numpy
        amps, phis, c, psi, x = drawn
        _f, field = numpy_cosine(amps, phis, c, psi)

        def field_fn(v):
            return direction * field(v)

        xa = np.array(x)
        k0 = field_fn(xa)
        x5, err = FLOW._rk_step(lambda v: field_fn(np.array(v)).tolist(), x,
                                h, k0.tolist())
        x5_ref, err_ref = reference_rk_step(field_fn, xa, h, k0)
        assert bits(x5) == bits(x5_ref)
        assert bits(err) == bits(err_ref)

    @SETTINGS
    @given(n=st.integers(1, 4), data=st.data())
    def test_torus_projection(self, n, data):
        x = data.draw(st.lists(st.one_of(
            ANGLES, st.floats(-1e9, 1e9), st.sampled_from(
                [0.0, -0.0, -1e-300, 2 * np.pi, -2 * np.pi, 1e-17])),
            min_size=n, max_size=n))
        m = TorusModel(n)
        assert bits(m.project_floats(x)) == bits(np.mod(np.array(x),
                                                        2 * np.pi))

    @SETTINGS
    @given(n=st.integers(1, MAX_TORUS_DIM), k=st.integers(1, 16),
           data=st.data())
    def test_torus_distance_sweep(self, n, k, data):
        pts = np.array(data.draw(st.lists(
            st.lists(ANGLES, min_size=n, max_size=n), min_size=k,
            max_size=k)))
        x = data.draw(st.lists(ANGLES, min_size=n, max_size=n))
        m = TorusModel(n)
        assert bits(m.distance_sweep(pts)(x)) == bits(
            m.distances(np.array(x), pts))

    @pytest.mark.parametrize("name", ["t1", "t2", "t3", "t4",
                                      "t2-perturbed", "t8-perturbed"])
    def test_flows_match_the_numpy_adapters(self, name, monkeypatch):
        system = {
            "t1": lambda: torus_cosine(1, [0.8], phases=[2.0]),
            "t2": lambda: torus_cosine(2, [1.0, 0.7], phases=[0.3, 5.1]),
            "t3": lambda: torus_cosine(3, [1.0, 0.7, 0.55]),
            "t4": lambda: torus_cosine(4, [1.0, 0.8, 0.6, 0.45],
                                       phases=[0.2, 1.0, 3.0, 4.4]),
            "t2-perturbed": lambda: torus_cosine(2, [1.0, 0.7],
                                                 perturb=0.05, seed=3),
            # from 8 angles on, numpy's sums pair their terms
            "t8-perturbed": lambda: torus_cosine(
                8, [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.45, 0.4], perturb=0.05,
                seed=3),
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
