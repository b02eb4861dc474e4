import inspect
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from morseflow.geometry._unroll import (
    Kernel,
    names,
    norm_template,
    square_sum,
    unrolled,
)
from morseflow.geometry.flow import MAX_TIME, FlowResult
from morseflow.geometry.manifolds import TORUS_WRAP, _rows_sweep
from morseflow.geometry.systems import (
    COUPLED_WELLS_FIELD,
    COUPLED_WELLS_VALUE,
    EPS_CONV,
    MAX_TORUS_DIM,
    WELLS_FIELD,
    WELLS_VALUE,
    CosineWells,
    level_trap,
    numpy_kernels,
)
import morseflow.counting as counting
import morseflow.geometry.systems as systems
from morseflow.operations import AuxiliaryFunction

from oracles import loop_covariant_hessian

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

    def test_torus_displacement_is_the_remainder_form(self):
        # bit for bit (y - x + pi) % 2 pi - pi, on random angles and on
        # differences at and next to 0, +-pi and multiples of 2 pi; and
        # never -0.0, which the chord search's coordinate chart relies on
        m = TorusModel(2)
        rng = np.random.default_rng(5)
        y = rng.uniform(-20.0, 20.0, size=(6000, 2))
        edges = np.pi * rng.integers(-6, 7, size=(5000, 2))
        d = np.concatenate([rng.uniform(-20.0, 20.0, size=(1000, 2)), edges,
                            np.nextafter(edges, np.inf),
                            np.nextafter(edges, -np.inf)])
        x = np.concatenate([y, y, y])[:len(d)] - d
        y = np.concatenate([y, y, y])[:len(d)]
        want = (y - x + np.pi) % (2.0 * np.pi) - np.pi
        got = m.displacement(x, y)
        assert got.tobytes() == want.tobytes()
        assert not np.any((got == 0.0) & np.signbit(got))
        assert m.displacement(1.0, 7.5).tobytes() == (
            (np.float64(7.5) - 1.0 + np.pi) % (2.0 * np.pi) - np.pi).tobytes()

    def test_tangent_basis_orthonormal(self):
        m = SphereModel(2)
        x = m.project([0.3, -0.5, 1.0])
        b = m.tangent_basis(x)
        assert np.allclose(b.T @ b, np.eye(2), atol=1e-12)
        assert np.allclose(b.T @ x, 0, atol=1e-12)


def plain_wells(n, amplitudes, phases):
    """``torus_cosine``'s system rebuilt on its wells as a plain function
    with no ``hessian``, so that its catalog differences the gradient
    (``systems._covariant_hessian``)."""
    t = torus_cosine(n, amplitudes, phases=phases)
    wells = t.f
    return MorseSystem(t.manifold, lambda p: wells(p), wells.grad, [
        CriticalPoint(cp.name, cp.point, cp.index)
        for cp in t.critical_points], name=t.name)


class TestCentralDifferences:
    """``ManifoldModel.central_differences`` against closed forms."""

    def test_torus_wells_hessian(self):
        amps, phis = np.array([1.0, 0.7]), np.array([0.4, 2.1])
        t2 = torus_cosine(2, amps, phases=phis)
        x = t2.manifold.random_point(np.random.default_rng(5))
        D = t2.manifold.central_differences(t2.grad, x, np.eye(2))
        assert np.allclose(D, np.diag(-amps * np.cos(x - phis)), atol=1e-8)

    def test_sphere_height_along_the_basis_is_its_last_row(self):
        m = SphereModel(2)
        x = m.project(np.random.default_rng(6).standard_normal(3))
        B = m.tangent_basis(x)
        D = m.central_differences(lambda p: float(p[2]), x, B)
        assert D.shape == (1, 2)
        assert np.allclose(D[0], B[2], atol=1e-8)

    def test_product_derivative_is_block_diagonal(self):
        eps = 0.15
        s = product_system(torus_cosine(1, [1.0]), sphere_band(2, eps))
        m = s.manifold
        rng = np.random.default_rng(7)
        x = m.random_point(rng)
        theta, y = x[0], x[1:]
        B = m.tangent_basis(x)
        D = m.central_differences(
            lambda p: m.tangent_project(p, s.grad(p)), x, B)
        # circle: g = -sin(theta), so g' = -cos(theta); band on S^2: g(y)
        # = df - (df . y) y with df = (eps, 0, 2 y_3), whose derivative
        # along a tangent v is Hv - (Hv . y + df . v) y - (df . y) v for H
        # = diag(0, 0, 2)
        df = np.array([eps, 0.0, 2.0 * y[2]])
        want = np.zeros((4, 3))
        want[0, 0] = -math.cos(theta)
        for j in (1, 2):
            v = B[1:, j]
            Hv = np.array([0.0, 0.0, 2.0 * v[2]])
            want[1:, j] = Hv - (Hv @ y + df @ v) * y - (df @ y) * v
        assert np.allclose(D, want, atol=1e-8)

    @pytest.mark.parametrize("make", [
        lambda: torus_cosine(2, [1.0, 0.7]),
        lambda: torus_cosine(2, [1.0, 0.7], phases=[0.4, 1.3]),
        lambda: torus_cosine(2, [1.0, 0.7], perturb=0.05, seed=3),
        lambda: torus_cosine(3, [1.0, 0.7, 0.55]),
        lambda: plain_wells(2, [1.0, 0.7], [0.4, 1.3]),
    ], ids=["t2", "t2-phased", "t2-perturbed", "t3", "t2-no-hessian"])
    def test_catalogs_equal_the_column_loop(self, monkeypatch, make):
        # on a torus B = I, so B^T D rounds as the column loop does: the
        # catalog keeps every bit
        helper = make().catalog
        monkeypatch.setattr(systems, "_covariant_hessian",
                            loop_covariant_hessian)
        loop = make().catalog
        for key in ("point", "eigenvalues", "frame", "value"):
            assert helper[key].tobytes() == loop[key].tobytes()


# the 51 untranslated T2 amplitudes of the complexes workload, and the
# criterion-7 figure-8 labels under the 16 quarter-turn torus shifts
AMPLITUDES = [round(0.6 + 0.005 * k, 3) for k in range(51)]
FIG8_PHASES = np.array([(0.0, 0.0), (0.9, 1.3), (-0.7, 0.55)])
QUARTER_TURNS = [(j / 4, k / 4) for j in range(4) for k in range(4)]


def differenced_eigenframe(system, cp):
    """(eigenvalues, frame) of cp from the central differences of the
    gradient (``systems._covariant_hessian``), the way a catalog takes
    them from a function without a Hessian."""
    H, B = systems._covariant_hessian(system.manifold, system.grad,
                                      cp.point)
    evals, evecs = np.linalg.eigh(H)
    return evals, np.stack([B @ systems._canonical_sign(evecs[:, k])
                            for k in range(len(evals))], axis=1)


class TestExactHessian:
    """Torus catalogs are verified with ``CosineWells.hessian``, which
    leaves every frame of uncoupled wells as the central differences gave
    it: their off-diagonal differences are exactly 0, so both matrices
    are diagonal, in the same order."""

    def test_uncoupled_frames_and_eigenvalues(self):
        labels = [torus_cosine(2, [1.0, a]) for a in AMPLITUDES]
        for shift in QUARTER_TURNS:
            labels += [torus_cosine(2, [1.0, 0.7], phases=ph) for ph in
                       (FIG8_PHASES + 2 * np.pi * np.array(shift))
                       % (2 * np.pi)]
        assert len(labels) == 99
        for system in labels:
            for cp in system.critical_points:
                evals, frame = differenced_eigenframe(system, cp)
                assert cp.frame.tobytes() == frame.tobytes(), cp.name
                assert np.max(np.abs(cp.eigenvalues - evals)) <= 1e-9

    @pytest.mark.parametrize("seed", [3, 945, 115])
    def test_coupled_hessian_is_the_differenced_one(self, seed):
        # the coupling term adds -c cos(sum theta + psi) to every entry
        system = torus_cosine(2, [1.0, 0.7], perturb=0.05, seed=seed)
        for cp in system.critical_points:
            H, _B = systems._covariant_hessian(system.manifold, system.grad,
                                               cp.point)
            exact = system.f.hessian(cp.point)
            assert np.abs(exact - H).max() <= 1e-8
            assert exact[0, 1] == exact[1, 0] != 0.0
            evals, frame = differenced_eigenframe(system, cp)
            assert np.abs(cp.eigenvalues - evals).max() <= 1e-8
            assert np.abs(cp.frame - frame).max() <= 1e-6


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

    def test_empty_catalog_rejected(self, t2):
        # a flow on an empty catalog failed inside the loop, which swept
        # no rows and had no distances
        with pytest.raises(StructuralValidationError,
                           match="catalog is empty"):
            MorseSystem(t2.manifold, t2.f, t2.grad, [])


class TestFlow:
    @pytest.mark.parametrize("duration", [-1.0, -1e-300, np.nan, np.inf,
                                          -np.inf])
    def test_bad_duration_raises(self, t2, duration):
        # before, a negative or nan duration returned the start unmoved
        # as max_time, and inf ran the step budget out
        with pytest.raises(GeometryError, match="^duration must be finite"):
            fixed_time_flow(t2, np.array([1.1, 2.0]), duration)

    def test_zero_duration_stays(self, t2):
        for duration in (0.0, -0.0):
            res = fixed_time_flow(t2, np.array([1.1, 2.0]), duration)
            assert (res.status, res.steps) == (FIXED_TIME, 0)
            assert bits(res.x_end) == bits([1.1, 2.0])

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


def norm(v):
    """The Euclidean norm of an array as the flow loop takes it: the root of
    ``np.sum(v * v)``."""
    return math.sqrt(float(np.sum(v * v)))


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
    return x5, norm(x5 - x4)


def reference_integrate(field, value, project, sweep, x0, *, t_max,
                        eps_conv=None, names=(), record=True, binds=None):
    """The integration loop as plain Python on numpy points, stepping with
    ``reference_rk_step`` under the step control constants of the flow
    module: ``field``, ``value``, ``project`` and ``sweep`` act on arrays,
    and every norm is ``norm``, the speed's at every point.  The generated
    loop of ``integrate`` must give the same flow bit for bit.  ``binds``,
    a list, gets the step count of each attempt whose step the speed cap
    shortens."""
    x = project(np.asarray(x0, dtype=float))
    t = 0.0
    h = FLOW.H_INIT
    f_prev = value(x)
    times, path, fvals = [0.0], [x], [f_prev]
    limit = None
    steps = 0

    def track(xn):
        nonlocal limit
        dists = sweep(xn)
        dmin = float(dists.min())
        if dmin < eps_conv:
            limit = names[int(np.argmin(dists))]
        return dmin

    def result(status):
        return FlowResult(status, limit, t, x, np.array(times),
                          np.array(path), np.array(fvals), steps)

    def failure(message):
        return IntegrationError(message, x0=x0, x=x, t=t, h=h, steps=steps)

    dmin = track(x) if sweep is not None else None
    if limit is not None:
        return result(CONVERGED)
    v0 = None
    while t < t_max and steps < FLOW.MAX_STEPS:
        h = min(h, t_max - t)
        if v0 is None:
            v0 = field(x)
            speed = norm(v0)
            scale = FLOW.ATOL + FLOW.RTOL * max(1.0, norm(x))
        if speed > 1e-14:
            cap = 0.25 if dmin is None else max(0.45 * eps_conv,
                                                min(0.25, 0.5 * dmin))
            if binds is not None and cap / speed < h:
                binds.append(steps)
            h = min(h, cap / speed)
        x5, err = reference_rk_step(field, x, h, v0)
        if err > scale and h > FLOW.H_MIN:
            h = max(FLOW.H_MIN, 0.5 * h * (scale / (err + 1e-300)) ** 0.2)
            steps += 1
            continue
        if h <= FLOW.H_MIN and err > 10 * scale:
            raise failure("step size underflow at t=%.6g" % t)
        xn = project(x5)
        tn = t + h
        f_new = value(xn)
        slack = (1e-9 + 50.0 * FLOW.RTOL) * (1.0 + abs(f_prev))
        if f_new > f_prev + slack:
            raise failure("monotonicity violated at t=%.6g: %.12g -> %.12g"
                          % (t, f_prev, f_new))
        f_prev = f_new
        x, t = xn, tn
        v0 = None
        steps += 1
        if record:
            times.append(t)
            path.append(x)
            fvals.append(f_prev)
        if sweep is not None:
            dmin = track(x)
            if limit is not None:
                return result(CONVERGED)
        if err > 0:
            h = min(5.0 * h, 0.9 * h * (scale / (err + 1e-300)) ** 0.2)
        else:
            h = 5.0 * h
    if steps >= FLOW.MAX_STEPS:
        raise failure("step budget exhausted")
    return result(FIXED_TIME if abs(t - t_max) < 1e-12 else MAX_TIME)


def step_template(n):
    """The flow loop's Cash-Karp step on its own (``_step_lines``): a
    kernel of (field, x, h, k0) on lists of floats that returns the
    fifth-order point and the error norm."""
    lines = ["def kernel(Ffn, x, h, k0):", "    %s= x" % names("x", n),
             "    %s= k0" % names("k0_", n)]
    lines += ["    " + line
              for line in FLOW._step_lines(n, FLOW.ADAPTED_FIELD)]
    return "\n".join(lines + ["    return [%s], err" % names("y", n)]) + "\n"


def rk_step(field, x, h, k0):
    return unrolled(step_template, len(x))(field, x, h, k0)


ADAPTED = {FLOW.ADAPTED_FIELD, FLOW.ADAPTED_VALUE, FLOW.ADAPTED_PROJECT,
           FLOW.ADAPTED_SWEEP, None}
WELLS = {WELLS_FIELD, WELLS_VALUE, COUPLED_WELLS_FIELD, COUPLED_WELLS_VALUE}


def torus(rows):
    """The families of a flow on a torus with cosine wells and a catalog
    of ``rows`` rows."""
    return WELLS | {TORUS_WRAP, _rows_sweep(rows), None}


def record_loops(monkeypatch):
    """The family tuples of the flow loops that run from here on, one per
    ``integrate`` call."""
    seen = []

    def spy(template, n, family=None):
        if template is FLOW._loop_template:
            seen.append(family)
        return unrolled(template, n, family)

    monkeypatch.setattr(FLOW, "unrolled", spy)
    return seen


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
    assert getattr(a.limit, "name", a.limit) == getattr(b.limit, "name",
                                                        b.limit)
    for key in ("times", "points", "f_values"):
        assert bits(getattr(a, key)) == bits(getattr(b, key)), key
    assert bits(a.x_end) == bits(b.x_end) and a.t_end == b.t_end


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
                    x5, err = rk_step(
                        lambda v: field_fn(np.array(v)).tolist(),
                        x.tolist(), h, k0.tolist())
                    x5_ref, err_ref = reference_rk_step(field_fn, x, h, k0)
                    assert np.array_equal(np.array(x5), x5_ref)
                    assert err == err_ref

    @pytest.mark.parametrize("name", ["t2", "t2-perturbed", "band2",
                                      "s1xs2-band", "fig8-aux"])
    def test_flows_match_the_reference_loop(self, name, monkeypatch):
        # flows with events and fixed-time flows; the figure-8 auxiliary
        # field has no catalog, so its flows sweep its labels' critical
        # points, with its first label's ball radius
        system = kernel_systems()[name]
        parts = getattr(system, "systems", (system,))
        points = np.concatenate([s.points for s in parts])
        names = ["%d:%s" % (i, nm) for i, s in enumerate(parts)
                 for nm in s.catalog["name"].tolist()]
        eps_conv = parts[0].eps_conv
        man = system.manifold
        starts = [man.random_point(np.random.default_rng(seed))
                  for seed in range(3)]
        loops = record_loops(monkeypatch)
        count = 0
        statuses = set()
        for x in starts:
            for direction in (+1, -1):
                kernels = FLOW._float_kernels(system, direction)
                numpy_field, numpy_value = (
                    lambda v: direction * system.field(v),
                    lambda v: direction * system.f(v))
                a = FLOW.integrate(
                    *kernels, man.project_floats,
                    man.distance_sweep(points), x, t_max=FLOW.T_MAX,
                    eps_conv=eps_conv, names=names)
                b = reference_integrate(
                    numpy_field, numpy_value, man.project,
                    lambda v: man.distances(v, points), x,
                    t_max=FLOW.T_MAX, eps_conv=eps_conv, names=names)
                _same_flow(a, b)
                count += 1
                statuses.add(a.status)
                a = fixed_time_flow(system, x, 1.3, direction)
                b = reference_integrate(numpy_field, numpy_value,
                                        man.project, None, x, t_max=1.3)
                _same_flow(a, b)
                count += 1
        assert count == len(loops) == 12
        # flows of a Morse system end in strict balls of its catalog; the
        # auxiliary sum's flows never reach its labels' critical points
        assert (CONVERGED in statuses) == isinstance(system, MorseSystem)
        # torus wells and charts are written into the loop, the rest
        # adapted: the figure-8 sum adapts its field on the torus chart
        wells = torus(len(points)) if name.startswith("t2") else ADAPTED
        chart = torus(len(points)) if isinstance(man, TorusModel) else ADAPTED
        assert all(set(f[:2]) <= wells and set(f[2:]) <= chart
                   for f in loops)


def square_sum_template(n):
    """A kernel that returns the square sum of its n coordinates."""
    return "def kernel(v):\n    %s= v\n    return %s\n" % (
        names("v", n), square_sum("v", n))


# a coordinate whose square, 2^-970, lies near the bottom of the normal
# range, which ends at 2^-1022
TINY = 2.0 ** -485
SPECIAL_COORDS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.0 ** -1022, 1e-300,
     math.nextafter(TINY, 0.0), TINY,
     math.nextafter(TINY, 1.0), -TINY, 1.5 * TINY,
     0.75 * TINY, 1e154, 1.3e154, 1e160, 1e300, 1.7e308,
     math.inf, -math.inf, math.nan])


# three tiny coordinates whose sum of squares a fused multiply-add chain
# rounds one bit higher than np.sum(v * v), which rounds each square first
FUSED_TIE = [float.fromhex(h) for h in (
    "0x1.000000000000ep-485", "0x1.0000000000001p-486",
    "0x1.019ce4c605a80p-465")]


@st.composite
def square_sum_vectors(draw):
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
    """The square sum of the step's error, of the speed and of the state,
    and the norm kernel, equal ``np.sum(v * v)`` and its root bit for bit,
    overflow, inf, nan and signed zeros included."""

    # a square that overflows, and a finite sum that does
    @example([1.0, 1e160])
    @example([1.3e154, 1.3e154])
    @example(FUSED_TIE)
    @example([1.0, 0.75 * TINY])
    @example([0.0, -0.0])
    @settings(max_examples=600, derandomize=True, deadline=None,
              database=None)
    @given(square_sum_vectors())
    def test_square_sum_is_numpys(self, v):
        a = np.array(v)
        assert bits(unrolled(square_sum_template, len(v))(v)) == \
            bits(np.sum(a * a))

    @settings(max_examples=300, derandomize=True, deadline=None,
              database=None)
    @given(square_sum_vectors())
    def test_norm_is_sqrt_of_numpys_sum(self, v):
        assert bits(unrolled(norm_template, len(v))(v)) == \
            bits(norm(np.array(v)))

    @pytest.mark.parametrize("n", [15, 16, 20])
    def test_long_vectors(self, n):
        # from 8 entries on numpy keeps eight running sums and adds the
        # entries past the last multiple of 8 after them
        rng = np.random.default_rng(n)
        for _ in range(200):
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 3)
            assert bits(unrolled(square_sum_template, n)(a.tolist())) == \
                bits(np.sum(a * a))


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


@st.composite
def sphere_points(draw):
    """2 to 5 coordinates at a scale from 1e-3 to 1e3, mixed with signed
    zeros and with coordinates whose squares underflow or lie far from
    1."""
    n = draw(st.integers(2, 5))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return draw(st.lists(st.one_of(
        st.floats(-1.0, 1.0).map(lambda u: u * scale),
        st.sampled_from([0.0, -0.0, 1e-160, -1e-160, 5e-324,
                         math.nextafter(TINY, 0.0), 1e150, -1e150])),
        min_size=n, max_size=n))


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
        x5, err = rk_step(lambda v: field_fn(np.array(v)).tolist(), x, h,
                          k0.tolist())
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
    @given(n=st.integers(1, MAX_TORUS_DIM),
           k=st.integers(1, 20), data=st.data())
    def test_torus_distance_sweep(self, n, k, data):
        pts = np.array(data.draw(st.lists(
            st.lists(ANGLES, min_size=n, max_size=n), min_size=k,
            max_size=k)))
        x = data.draw(st.lists(ANGLES, min_size=n, max_size=n))
        m = TorusModel(n)
        sweep = m.distance_sweep(pts)
        assert sweep.family is _rows_sweep(k)
        assert bits(sweep(x)) == bits(m.distances(np.array(x), pts))

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
                    out.append(flow(system, x, direction, t_max=1.0))
                    out.append(fixed_time_flow(system, x, 1.3, direction))
            return out

        loops = record_loops(monkeypatch)
        native = run()
        native_loops = loops[:]
        monkeypatch.setattr(MorseSystem, "float_kernels", numpy_kernels)
        monkeypatch.setattr(TorusModel, "project_floats",
                            ManifoldModel.project_floats)
        monkeypatch.setattr(TorusModel, "distance_sweep",
                            ManifoldModel.distance_sweep)
        del loops[:]
        adapted = run()
        assert len(native) == len(adapted) == 6 * len(starts)
        # every native flow ran the torus loop and every adapted one the
        # adapter loop, so the two runs compare different code
        assert len(native_loops) == len(loops) == len(native)
        assert all(set(f) <= torus(len(names)) for f in native_loops)
        assert all(set(f) <= ADAPTED for f in loops)
        for a, b in zip(native, adapted):
            _same_flow(a, b)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @SETTINGS
    @given(x=sphere_points())
    # a square that underflows, square sums near and past overflow, and
    # norms below 1e-12, which raise
    @example(x=[1.0, 1e-160, -0.5])
    @example(x=[1e150, -2e150, 0.0])
    @example(x=[-0.0, 1e200])
    @example(x=[0.0, -0.0, -1e-3])
    @example(x=[1e-300, -1e-300])
    def test_sphere_projection(self, x):
        m = SphereModel(len(x) - 1)
        try:
            expected = m.project(np.array(x))
        except GeometryError:
            with pytest.raises(GeometryError, match="origin"):
                m.project_floats(x)
            return
        assert bits(m.project_floats(x)) == bits(expected)


FLOW_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None,
                         database=None)


@st.composite
def catalogs(draw):
    """(x, rows) on n = 1 to 4 angles: 1 to 20 rows, the row nearest to x
    sometimes repeated at another place, an exact tie for the minimum."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 20))
    point = st.lists(ANGLES, min_size=n, max_size=n)
    x = draw(point)
    rows = np.array(draw(st.lists(point, min_size=k, max_size=k)))
    if k > 1 and draw(st.booleans()):
        near = int(np.argmin(TorusModel(n).distances(
            np.mod(np.array(x), 2 * np.pi), rows)))
        rows[draw(st.sampled_from([j for j in range(k) if j != near]))] = \
            rows[near]
    return x, rows


# two rows whose squared distances from x differ in the last place while
# their roots are equal, the larger square first: the first minimum of
# the squares is row 1, and the first least distance row 0.  Random draws
# almost never meet such a tie, which is why it is written out
ROOT_TIE = ([4.71, 1.76], np.array([[4.699999999999961, 2.05],
                                    [4.699999999999962, 2.05]]))


def squares_template(n, family):
    """A kernel of a sweep family by rows that returns the squares its
    lines write, before any root."""
    lines = ["def kernel(%s):" % "".join(a + ", " for a in family.params(n)),
             "    def run(x):", "        %s= x" % names("x", n)]
    lines += ["        " + line for line in family.write(n, "x", "r", "")]
    return "\n".join(lines + ["        return [%s]" % names("r", family.rows),
                              "    return run", ""])


class TestLoopSweep:
    """The flow loop sweeps a torus catalog row by row into squares: the
    root of their first minimum is the least of ``TorusModel.distances``,
    the first least distance (numpy's ``argmin``, the first of ties)
    names the limit, and every target's pass is its distance."""

    @SETTINGS
    @given(drawn=catalogs())
    @example(drawn=ROOT_TIE)
    def test_squares_are_the_distances_squared(self, drawn):
        x, rows = drawn
        n, k = len(x), len(rows)
        m = TorusModel(n)
        start = m.project(np.array(x)).tolist()
        squares = unrolled(squares_template, n, _rows_sweep(k))(
            *rows.ravel().tolist())(start)
        dists = m.distances(np.array(start), rows)
        roots = [math.sqrt(v) for v in squares]
        assert bits(roots) == bits(dists)
        # the loop's chain of strict < over the squares, then one root
        least = squares[0]
        for v in squares[1:]:
            if v < least:
                least = v
        dmin = math.sqrt(least)
        assert bits([dmin]) == bits([dists.min()])
        assert roots.index(dmin) == int(np.argmin(dists))

    def test_root_tie_takes_the_first_row(self):
        x, rows = ROOT_TIE
        squares = unrolled(squares_template, 2, _rows_sweep(2))(
            *rows.ravel().tolist())(x)
        assert squares[0] > squares[1]
        assert math.sqrt(squares[0]) == math.sqrt(squares[1])

    @SETTINGS
    @given(drawn=catalogs())
    @example(drawn=ROOT_TIE)
    def test_first_minimum_names_the_limit(self, drawn):
        x, rows = drawn
        n, k = len(x), len(rows)
        m = TorusModel(n)
        sweep = m.distance_sweep(rows)
        assert sweep.family is _rows_sweep(k)
        start = m.project(np.array(x))
        dists = m.distances(start, rows)
        first = int(np.argmin(dists))
        dmin = float(dists[first])
        names = ["r%d" % i for i in range(k)]
        field, value = CosineWells([1.0] * n, [0.0] * n).float_kernels(1)
        # the strict ball is open: a radius of dmin leaves x outside, the
        # next float takes it in
        for eps, limit in ((dmin, None),
                           (float(np.nextafter(dmin, np.inf)), names[first])):
            res = FLOW.integrate(field, value, m.project_floats, sweep, x,
                                 t_max=0.0, eps_conv=eps, names=names)
            assert res.limit == limit and res.steps == 0
            assert res.status == (FIXED_TIME if limit is None else CONVERGED)

    @FLOW_SETTINGS
    @given(seed=st.integers(0, 2 ** 32 - 1),
           direction=st.sampled_from([1, -1]))
    def test_flows_match_the_reference_loop(self, seed, direction):
        # points uniform on the torus, so that most flows take steps
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 4)), int(rng.integers(1, 21))
        x = rng.uniform(0.0, 2 * np.pi, n)
        rows = rng.uniform(0.0, 2 * np.pi, (k, n))
        if k > 1 and rng.integers(2):
            near = int(np.argmin(TorusModel(n).distances(x, rows)))
            rows[rng.choice([j for j in range(k) if j != near])] = rows[near]
        amps, phis = [1.0, 0.7, 0.55][:n], [0.3, 1.9, 4.0][:n]
        f, field = numpy_cosine(amps, phis, 0.0, 0.0)
        m = TorusModel(n)
        names = ["r%d" % i for i in range(len(rows))]
        a = FLOW.integrate(
            *CosineWells(amps, phis).float_kernels(direction),
            m.project_floats, m.distance_sweep(rows), x, t_max=20.0,
            eps_conv=EPS_CONV, names=names)
        b = reference_integrate(
            lambda v: direction * field(v), lambda v: direction * f(v),
            m.project, lambda v: m.distances(v, rows), x, t_max=20.0,
            eps_conv=EPS_CONV, names=names)
        _same_flow(a, b)


def branch_starts(system):
    """(start, direction) of every branch flow: 10 eps_conv off each
    critical point along its one-dimensional unstable (direction +1) or
    stable (-1) manifold, on both sides."""
    out = []
    for cp in system.critical_points:
        for direction, frame in ((+1, cp.unstable_frame),
                                 (-1, cp.stable_frame)):
            if frame.shape[1] == 1:
                out += [(system.manifold.project(
                    cp.point + side * 10.0 * system.eps_conv
                    * frame[:, 0]), direction) for side in (1, -1)]
    return out


class TestSpeedCap:
    """The step cap, base / speed, shortens steps on steep, flat and
    tiny-ball flows; each flow must equal the reference loop's bit for
    bit."""

    @staticmethod
    def pair(system, x, direction, sweep_rows, **kw):
        man = system.manifold
        kernels = FLOW._float_kernels(system, direction)
        names = ["r%d" % i for i in range(len(sweep_rows))] \
            if sweep_rows is not None else ()
        a = FLOW.integrate(
            *kernels, man.project_floats,
            None if sweep_rows is None else man.distance_sweep(sweep_rows),
            x, names=names, **kw)
        binds = []
        b = reference_integrate(
            lambda v: direction * system.field(v),
            lambda v: direction * system.f(v), man.project,
            None if sweep_rows is None
            else lambda v: man.distances(v, sweep_rows),
            x, names=names, binds=binds, **kw)
        _same_flow(a, b)
        return a, binds

    @pytest.mark.parametrize("name", ["t2", "t3", "band2"])
    def test_flows_where_the_cap_binds(self, name, monkeypatch):
        system = {"t2": lambda: torus_cosine(2, [1.0, 0.7]),
                  "t3": lambda: torus_cosine(3, [1.0, 0.7, 0.55]),
                  "band2": lambda: sphere_band(2)}[name]()
        loops = record_loops(monkeypatch)
        binding = 0
        for x, direction in branch_starts(system):
            res, binds = self.pair(system, x, direction, system.points,
                                   t_max=FLOW.T_MAX,
                                   eps_conv=system.eps_conv)
            assert res.status == CONVERGED
            binding += len(binds) > 0
        assert binding == len(loops) > 0
        families = torus(len(system.points)) if name != "band2" else ADAPTED
        assert all(set(f) <= families for f in loops)

    @pytest.mark.parametrize("name", ["t2", "band2"])
    def test_flows_from_a_critical_point(self, name):
        # the field vanishes, or nearly, at the start: the speed is at or
        # below 1e-14, and nothing caps
        system = {"t2": lambda: torus_cosine(2, [1.0, 0.7]),
                  "band2": lambda: sphere_band(2)}[name]()
        zero = 0
        for k, cp in enumerate(system.critical_points):
            zero += not np.any(system.field(cp.point))
            others = np.delete(system.points, k, axis=0)
            for direction in (+1, -1):
                # fixed-time flows, no sweep
                res, _ = self.pair(system, cp.point, direction, None,
                                   t_max=1.3)
                assert res.status == FIXED_TIME
                self.pair(system, cp.point, direction, others, t_max=5.0,
                          eps_conv=system.eps_conv)
        assert zero > 0 or name == "band2"

    @pytest.mark.parametrize("scale", [1e-120, 1e120])
    def test_flat_and_steep_wells(self, scale, monkeypatch):
        # speeds near 1e-120 and 1e120, whose squares underflow or
        # overflow; wells this flat or steep fail a catalog's checks, so
        # the flows sweep their critical points by hand
        amps, phis = [scale, 0.7 * scale], [0.0, 0.0]
        f, field = numpy_cosine(amps, phis, 0.0, 0.0)
        system = SimpleNamespace(
            manifold=TorusModel(2), f=f, field=field,
            float_kernels=CosineWells(amps, phis).float_kernels)
        rows = np.array([[0.0, 0.0], [np.pi, 0.0], [0.0, np.pi],
                         [np.pi, np.pi]])
        # steps far below the least step of 1e-13 on the steep wells
        monkeypatch.setattr(FLOW, "H_MIN", 1e-300)
        t_max = 20.0 / scale if scale > 1.0 else 1.3
        for x in ([1.1, 2.0], [4.0, 0.3]):
            for direction in (+1, -1):
                for rows_or_none in (None, rows):
                    res, _ = self.pair(system, np.array(x), direction,
                                       rows_or_none, t_max=t_max,
                                       eps_conv=EPS_CONV)
                    assert res.steps > 3

    def test_tiny_balls(self):
        # a ball radius of 1e-250 makes base, and so the cap, tiny
        system = torus_cosine(2, [1.0, 0.7], eps_conv=1e-250)
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = system.manifold.random_point(rng)
            self.pair(system, x, +1, system.points, t_max=5.0,
                      eps_conv=system.eps_conv)


def trap_limit(system, x, direction=+1):
    """The name of the catalog point whose level trap for ``direction``
    takes x, by the loop's own test (a flow of no time), or None."""
    res = flow(system, x, direction, t_max=0.0, record=False,
               trap=level_trap(system, direction))
    return res.limit.name if res.status == CONVERGED else None


def extremum(system, direction):
    """The point of a torus catalog that its level trap for ``direction``
    names: the minimum descending, the maximum ascending."""
    top = system.manifold.dim
    return system.by_index(0 if direction == +1 else top)[0]


@st.composite
def trapped_points(draw, direction=+1):
    """(system, point): a phased, uncoupled T2 or T3 catalog, its
    amplitudes often tied, and a point that its level trap for
    ``direction`` takes.  The point is drawn anywhere on the torus; where
    the trap does not take it, the last point that the trap takes on the
    segment from the trap's extremum (``extremum``) towards it, to 2^-40
    of its length, which lies at the level."""
    n = draw(st.sampled_from([2, 3]))
    pool = draw(st.lists(st.floats(0.3, 1.0), min_size=1, max_size=n))
    amps = [draw(st.sampled_from(pool)) for _ in range(n)]
    phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n,
                           max_size=n))
    x = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n,
                               max_size=n)))
    system = torus_cosine(n, amps, phases)
    if trap_limit(system, x, direction) is None:
        m = extremum(system, direction).point
        d = system.manifold.displacement(m, x)
        inside, outside = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (inside + outside)
            if trap_limit(system, system.manifold.project(m + mid * d),
                          direction):
                inside = mid
            else:
                outside = mid
        x = system.manifold.project(m + inside * d)
    return system, x


class TestLevelTrap:
    """A descending flow on uncoupled cosine wells may end where the level
    trap of the minimum m takes it: below the second-lowest critical value
    c_2, less a rounding margin, anywhere on the torus.  An ascending one
    may end where the trap of the maximum M takes it: -f below the same
    level.  The trap proves the limit; flows without it keep every bit."""

    @settings(max_examples=80, derandomize=True, deadline=None,
              database=None)
    @given(drawn=trapped_points())
    @example(drawn=(torus_cosine(2, [0.7, 0.7]), np.array([3.0, 1.6])))
    def test_a_full_flow_from_a_trapped_point_converges_to_m(self, drawn):
        system, x = drawn
        m = system.by_index(0)[0]
        limit = trap_limit(system, x)
        # a point within eps of a saddle is that saddle's, by the strict
        # ball, which the loop tests first
        assume(limit == m.name)
        assert system.f(x) < level_trap(system).args[0]
        res = flow(system, x, +1, t_max=1e3, record=False)
        assert res.status == CONVERGED and res.limit.name == m.name

    def test_the_level_test_is_strict(self):
        system = torus_cosine(2, [1.0, 0.7])
        x = system.manifold.project(system.point("x00").point
                                    + np.array([1.2, -2.1]))
        fx = system.f(x)

        def limit(level):
            res = flow(system, x, +1, t_max=0.0, record=False,
                       trap=Kernel(FLOW.trap_family(0), level))
            return res.limit.name if res.status == CONVERGED else None

        # the loop's value is f bit for bit: a point with f at the level
        # is not taken, one with f an ulp below it is
        assert limit(fx) is None
        assert limit(float(np.nextafter(fx, np.inf))) == "x00"

    @pytest.mark.parametrize("amps", [[1.0, 0.7], [0.7, 1.0], [0.7, 0.7],
                                      [1.0, 0.7, 0.55]])
    def test_points_above_the_level_escape(self, amps):
        system = torus_cosine(len(amps), amps, phases=[0.4] * len(amps))
        values = sorted(set(system.catalog["value"].tolist()))
        (level,) = level_trap(system).args
        assert values[0] < level < values[1]
        assert values[1] - level < 1e-13
        # the saddle at c_2: down its unstable direction the trap takes a
        # point, up its stable direction it does not
        s = next(cp for cp in system.by_index(1)
                 if cp.value == values[1])
        down = s.point + 1e-3 * s.unstable_frame[:, 0]
        up = s.point + 1e-3 * s.stable_frame[:, 0]
        assert trap_limit(system, down) == system.by_index(0)[0].name
        assert trap_limit(system, up) is None

    @settings(max_examples=80, derandomize=True, deadline=None,
              database=None)
    @given(drawn=trapped_points(-1))
    @example(drawn=(torus_cosine(2, [0.7, 0.7]),
                    np.array([3.0, 1.6]) - np.pi))
    def test_a_full_ascending_flow_from_a_trapped_point_converges_to_M(
            self, drawn):
        system, x = drawn
        top = extremum(system, -1)
        limit = trap_limit(system, x, -1)
        # a point within eps of a saddle is that saddle's, by the strict
        # ball, which the loop tests first
        assume(limit == top.name)
        assert -system.f(x) < level_trap(system, -1).args[0]
        res = flow(system, x, -1, t_max=1e3, record=False)
        assert res.status == CONVERGED and res.limit.name == top.name

    @pytest.mark.parametrize("amps", [[1.0, 0.7], [0.7, 1.0], [0.7, 0.7],
                                      [1.0, 0.7, 0.55]])
    def test_points_below_the_level_escape(self, amps):
        n = len(amps)
        system = torus_cosine(n, amps, phases=[0.4] * n)
        values = sorted(set(system.catalog["value"].tolist()))
        # -f's level is f's descending one: -(sum a_i - 2 min a_i)
        (level,) = level_trap(system, -1).args
        assert level == level_trap(system).args[0]
        assert -values[-1] < level < -values[-2]
        assert -values[-2] - level < 1e-13
        # the top saddle, at the second-highest value: up its stable
        # direction the ascending trap takes a point, down its unstable
        # directions it does not
        s = next(cp for cp in system.by_index(n - 1)
                 if cp.value == values[-2])
        up = s.point + 1e-3 * s.stable_frame[:, 0]
        assert trap_limit(system, up, -1) == system.by_index(n)[0].name
        for j in range(n - 1):
            down = s.point + 1e-3 * s.unstable_frame[:, j]
            assert trap_limit(system, down, -1) is None

    def test_a_catalog_without_the_extremum_has_no_trap(self):
        # the trap names a catalog row; a hand-built catalog that lists
        # no maximum gives the ascending flows none
        full = torus_cosine(2, [1.0, 0.7])
        system = MorseSystem(full.manifold, full.f, full.grad, [
            CriticalPoint(cp.name, cp.point, cp.index)
            for cp in full.critical_points if cp.index < 2])
        assert level_trap(system) is not None
        assert level_trap(system, -1) is None

    @pytest.mark.parametrize("make", [
        lambda: torus_cosine(2, [1.0, 0.7], perturb=0.02, seed=3),
        lambda: sphere_band(2),
        lambda: product_system(torus_cosine(1, [1.0]), sphere_band(2)),
        lambda: uphill_torus()], ids=["perturbed", "band", "s1xs2-band",
                                      "subclass"])
    def test_only_uncoupled_wells_have_a_trap(self, make):
        system = make()
        assert level_trap(system) is None
        assert level_trap(system, -1) is None

    @pytest.mark.parametrize("phases", [None, [0.3, 1.9]])
    def test_untrapped_reads_match_the_reference_loop(self, phases,
                                                      monkeypatch):
        # curve reads and ascending limit reads take no trap, and every
        # bit of theirs equals the reference loop's, as the parent's did
        system = torus_cosine(2, [1.0, 0.7], phases=phases)
        man, names = system.manifold, system.catalog["name"].tolist()
        calls, real = [], counting.flow

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append((inspect.signature(real).bind(*args, **kwargs),
                          res))
            return res

        monkeypatch.setattr(counting, "flow", spy)
        with counting.keeping():
            for cp in system.by_index(1):
                counting.branches(system, cp, +1)
                counting.branches(system, cp, -1)
        with counting.keeping():
            for cp in system.by_index(1):
                counting.branch_ends(system, cp, -1)
        assert len(calls) == 12
        for bound, res in calls:
            bound.apply_defaults()
            a = SimpleNamespace(**bound.arguments)
            assert a.trap is None
            b = reference_integrate(
                lambda v: a.direction * system.field(v),
                lambda v: a.direction * system.f(v), man.project,
                lambda v: man.distances(v, system.points), a.x0,
                t_max=a.t_max, eps_conv=system.eps_conv, names=names,
                record=a.record)
            _same_flow(res, b)


def uphill_sphere():
    """The height on the 2-sphere with the gradient of its negative: the
    flow climbs while the driving function must fall."""
    m = SphereModel(2)

    def grad(x):
        return np.array([0.0, 0.0, -1.0])

    return MorseSystem(m, lambda x: float(x[-1]), grad,
                       [CriticalPoint("south", [0, 0, -1.0], 2),
                        CriticalPoint("north", [0, 0, 1.0], 0)],
                       name="uphill")


class UphillWells(CosineWells):
    """Cosine wells whose value kernel is the other direction's: on the
    torus kernels, the flow climbs the driving function."""

    __slots__ = ()

    def float_kernels(self, direction):
        return (super().float_kernels(direction)[0],
                super().float_kernels(-direction)[1])


def uphill_torus():
    amps, phis = [1.0, 0.7], [0.0, 0.0]
    wells = UphillWells(amps, phis)
    return MorseSystem(TorusModel(2), wells, None,
                       [CriticalPoint("x%d%d" % (i, j),
                                      [np.pi * (1 - i), np.pi * (1 - j)],
                                      i + j)
                        for i in (0, 1) for j in (0, 1)], name="uphill-t2")


class TestIntegrationErrors:
    """Each raise of the loop carries the start, the last accepted point,
    its time, the step and the step count, on both loop families."""

    @pytest.mark.parametrize("make, family", [
        (lambda: torus_cosine(2, [1.0, 0.7]), torus(4)),
        (lambda: sphere_band(2), ADAPTED)],
        ids=["torus", "adapter"])
    def test_step_budget_names_the_flow(self, make, family, monkeypatch):
        system = make()
        monkeypatch.setattr(FLOW, "MAX_STEPS", 5)
        x0 = system.manifold.project(np.array([0.4, 1.1, 0.3][
            :system.manifold.coord_dim]))
        loops = record_loops(monkeypatch)
        with pytest.raises(IntegrationError,
                           match="^step budget exhausted$") as info:
            flow(system, x0, +1)
        assert set(loops[0]) <= family
        err = info.value
        assert err.steps == 5 and err.t > 0.0 and err.h > 0.0
        assert np.array_equal(err.x0, x0)
        assert err.x.shape == x0.shape and not np.array_equal(err.x, x0)

    @pytest.mark.parametrize("make, family, x0", [
        (uphill_torus, torus(4), [0.4, 1.1]),
        (uphill_sphere, ADAPTED, [0.6, 0.0, 0.8])],
        ids=["torus", "adapter"])
    def test_monotonicity_violation_names_the_flow(self, make, family, x0,
                                                   monkeypatch):
        system = make()
        x0 = np.array(x0)
        value = FLOW._float_kernels(system, +1)[1]
        loops = record_loops(monkeypatch)
        with pytest.raises(IntegrationError,
                           match="^monotonicity violated at t=0: ") as info:
            flow(system, x0, +1)
        assert set(loops[0]) <= family
        err = info.value
        # the first step climbs: nothing was accepted
        assert err.steps == 0 and err.t == 0.0 and err.h > 0.0
        assert np.array_equal(err.x0, x0)
        assert bits(err.x) == bits(system.manifold.project(x0))
        f0, f1 = (float(v) for v in
                  str(err).split(": ")[1].split(" -> "))
        assert f0 == pytest.approx(value(err.x.tolist()), rel=1e-11)
        assert f1 > f0


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
        assert sys.eps_conv == 1e-7

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_system_config("dim 2\n")
        with pytest.raises(ParseError):
            parse_system_config("kind nonsense\n")
