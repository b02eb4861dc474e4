"""Gradient-flow integration and frame transport.

The stepper is an embedded Cash-Karp 4(5) pair with per-step reprojection
to the manifold, a step-length cap that guarantees event balls are never
jumped over, and a strict monotonicity assertion on the driving function.
It runs its arithmetic on Python floats, float-exact to the written-out
tableau (the same IEEE operations in the same order, not a matrix product):
counts on the 3-manifold circle lattice depend on the last bits of the
trajectories, so a reordered sum changes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError, IntegrationError, OrientationError

# Cash-Karp tableau
_CK_C = (0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8)
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)

CONVERGED = "converged"
MAX_TIME = "max_time"
FIXED_TIME = "fixed_time"


@dataclass
class FlowResult:
    status: str
    limit: object                  # CriticalPoint or None
    t_end: float
    x_end: np.ndarray
    times: np.ndarray
    points: np.ndarray
    f_values: np.ndarray
    closest: dict                  # name -> (dist, t, point)
    steps: int


def _rk_step(field_fn, x, h, k0):
    """One Cash-Karp step; ``k0`` is the field at x (stage 0)."""
    xl, k = x.tolist(), [k0.tolist()]

    def combine(coeffs):
        # x + (h a_0) k_0 + (h a_1) k_1 + ..., left to right, zeros skipped
        out = xl
        for kj, a in zip(k, coeffs):
            if a:
                c = h * a
                out = [p + c * q for p, q in zip(out, kj)]
        return out

    for stage in range(1, 6):
        k.append(field_fn(np.array(combine(_CK_A[stage]))).tolist())
    x5 = np.array(combine(_CK_B5))
    d = x5 - np.array(combine(_CK_B4))
    return x5, math.sqrt(d.dot(d))


def integrate(manifold, field_fn, x0, *, t_max, tol, f_fn=None,
              event_points=None, event_names=None, record=True,
              approach_targets=None):
    """Adaptive negative-flow integration with event tracking.

    ``event_points``: matrix of catalog positions; entering the
    ``tol.eps_conv`` ball of any of them ends the run as CONVERGED.
    ``approach_targets`` (indices into event rows) get closest-approach
    tracking.  Each accepted point is swept for distances once; the sweep
    serves the convergence test, the closest passes and the step cap.
    """
    x = manifold.project(np.asarray(x0, dtype=float))
    t = 0.0
    h = tol.h_init
    strict_radius = tol.eps_conv
    names = list(event_names or ())
    pts = None
    if event_points is not None and len(names):
        pts = np.asarray(event_points, dtype=float)
    targets = list(approach_targets or ()) if pts is not None else []
    f_prev = f_fn(x) if f_fn else None
    times = [0.0]
    path = [x.copy()]
    fvals = [f_prev if f_prev is not None else 0.0]
    closest = {}
    limit_name = None
    status = MAX_TIME
    steps = 0

    def sweep(xn, tn):
        nonlocal limit_name
        dists = manifold.distances(xn, pts)
        for i in targets:
            d = float(dists[i])
            if names[i] not in closest or d < closest[names[i]][0]:
                closest[names[i]] = (d, tn, xn.copy())
        nearest = int(np.argmin(dists))
        dmin = float(dists[nearest])
        if dmin < strict_radius:
            limit_name = names[nearest]
        return dmin

    def failure(message):
        return IntegrationError(message, x0=x0, x=x, t=t, h=h, steps=steps)

    dmin = sweep(x, 0.0) if pts is not None else None
    if limit_name is not None:
        return FlowResult(CONVERGED, limit_name, 0.0, x, np.array(times),
                          np.array(path), np.array(fvals), closest, 0)

    v0 = None
    while t < t_max and steps < tol.max_steps:
        h = min(h, t_max - t)
        if v0 is None:
            v0 = field_fn(x)
            speed = math.sqrt(v0.dot(v0))
        if speed > 1e-14 and dmin is not None:
            cap = max(0.45 * strict_radius, min(0.25, 0.5 * dmin))
            h = min(h, cap / speed)
        elif speed > 1e-14:
            h = min(h, 0.25 / speed)
        x5, err = _rk_step(field_fn, x, h, v0)
        scale = tol.atol + tol.rtol * max(1.0, math.sqrt(x.dot(x)))
        if err > scale and h > tol.h_min:
            h = max(tol.h_min, 0.5 * h * (scale / (err + 1e-300)) ** 0.2)
            steps += 1
            continue
        if h <= tol.h_min and err > 10 * scale:
            raise failure("step size underflow at t=%.6g" % t)
        xn = manifold.project(x5)
        tn = t + h
        if f_fn is not None:
            f_new = f_fn(xn)
            slack = (1e-9 + 50.0 * tol.rtol) * (1.0 + abs(f_prev))
            if f_new > f_prev + slack:
                raise failure(
                    "monotonicity violated at t=%.6g: %.12g -> %.12g"
                    % (t, f_prev, f_new))
            f_prev = f_new
        x, t = xn, tn
        v0 = None
        steps += 1
        if record:
            times.append(t)
            path.append(x)
            fvals.append(f_prev if f_prev is not None else 0.0)
        if pts is not None:
            dmin = sweep(x, t)
            if limit_name is not None:
                status = CONVERGED
                break
        if err > 0:
            h = min(5.0 * h, 0.9 * h * (scale / (err + 1e-300)) ** 0.2)
        else:
            h = 5.0 * h
    else:
        if steps >= tol.max_steps:
            raise failure("step budget exhausted")
        status = FIXED_TIME if abs(t - t_max) < 1e-12 else MAX_TIME
    if abs(t - t_max) < 1e-12 and status == MAX_TIME:
        status = FIXED_TIME
    return FlowResult(status, limit_name, t, x, np.array(times),
                      np.array(path), np.array(fvals), closest, steps)


def flow(system, x0, direction=+1, t_max=None, record=True,
         approach_targets=None, loose=False):
    """Flow of the (anti)gradient field with catalog events.

    ``direction=+1`` descends (integrates the negative gradient), ``-1``
    ascends.  The limit is the catalog point whose strict ball the
    trajectory enters; the driving function is asserted monotone.
    ``loose`` switches to coarse step control for classification flows
    whose exact path does not matter.
    """
    man = system.manifold
    if direction == +1:
        field_fn = system.field
        f_fn = system.f
    elif direction == -1:
        field_fn = lambda x: -system.field(x)
        f_fn = lambda x: -system.f(x)
    else:
        raise GeometryError("direction must be +1 or -1")
    tol = system.tol
    if loose:
        cached = getattr(system, "_loose_tol", None)
        if cached is None:
            cached = tol.loosened()
            system._loose_tol = cached
        tol = cached
    names = [cp.name for cp in system.critical_points]
    pts = np.stack([cp.point for cp in system.critical_points])
    idx_targets = None
    if approach_targets is not None:
        idx_targets = [names.index(nm) for nm in approach_targets]
    res = integrate(man, field_fn, x0,
                    t_max=t_max if t_max is not None else tol.t_max,
                    tol=tol, f_fn=f_fn, event_points=pts,
                    event_names=names, record=record,
                    approach_targets=idx_targets)
    if res.limit is not None:
        res.limit = system.point(res.limit)
    return res


def fixed_time_flow(system, x0, duration, direction=+1, record=True):
    """Integrate for exactly ``duration`` time units, no event stopping."""
    man = system.manifold
    field_fn = system.field if direction == +1 else (
        lambda x: -system.field(x))
    f_fn = system.f if direction == +1 else (lambda x: -system.f(x))
    if duration == 0.0:
        x = man.project(np.asarray(x0, dtype=float))
        return FlowResult(FIXED_TIME, None, 0.0, x, np.array([0.0]),
                          np.array([x]), np.array([f_fn(x)]), {}, 0)
    return integrate(man, field_fn, x0, t_max=duration, tol=system.tol,
                     f_fn=f_fn, record=record)


def membership_stable(system, cp, x, t_max=None):
    """Does x flow forward into cp?  Returns (bool, convergence time)."""
    res = flow(system, x, +1, t_max=t_max, record=False)
    return (res.status == CONVERGED and res.limit.name == cp.name,
            res.t_end)


# -- frames -------------------------------------------------------------------

def orthonormalize(frame):
    """QR with positive diagonal: same span, same orientation."""
    q, r = np.linalg.qr(frame)
    for j in range(q.shape[1]):
        if r[j, j] < 0:
            q[:, j] = -q[:, j]
    return q


def parallel_frame(manifold, point, frame):
    """Tangent-project a nearby frame at ``point`` and orthonormalize."""
    cols = [manifold.tangent_project(point, frame[:, j])
            for j in range(frame.shape[1])]
    out = orthonormalize(np.stack(cols, axis=1))
    if np.linalg.matrix_rank(out, tol=1e-8) < frame.shape[1]:
        raise OrientationError("frame degenerated under parallel transfer")
    return out


def orientation_sign(frame_a, frame_b, floor=0.05):
    """Sign of det(A^T B) for frames spanning nearly equal subspaces."""
    if frame_a.shape != frame_b.shape:
        raise OrientationError("frame shapes differ: %s vs %s"
                               % (frame_a.shape, frame_b.shape))
    if frame_a.shape[1] == 0:
        return 1
    det = float(np.linalg.det(frame_a.T @ frame_b))
    if abs(det) < floor:
        raise OrientationError(
            "orientation comparison is degenerate (|det| = %.3g)" % abs(det))
    return 1 if det > 0 else -1


def transport_frame(manifold, field_fn, times, points, frame0, fd_eps=1e-6):
    """Push a tangent frame along a recorded trajectory.

    Integrates the flow linearization with midpoint steps (directional
    finite differences of the field), re-orthonormalizing at every node so
    the span tracks the invariant subspace and the orientation never flips
    spuriously.
    """

    def dfield(x, v):
        return (field_fn(manifold.project(x + fd_eps * v))
                - field_fn(manifold.project(x - fd_eps * v))) / (2 * fd_eps)

    frame = parallel_frame(manifold, points[0], frame0)
    for k in range(len(times) - 1):
        h = float(times[k + 1] - times[k])
        if h == 0.0:
            continue
        xk = points[k]
        xm = manifold.project(0.5 * (xk + points[k + 1]))
        cols = []
        for j in range(frame.shape[1]):
            v = frame[:, j]
            k1 = dfield(xk, v)
            k2 = dfield(xm, v + 0.5 * h * k1)
            cols.append(v + h * k2)
        nxt = np.stack(cols, axis=1)
        cols = [manifold.tangent_project(points[k + 1], nxt[:, j])
                for j in range(nxt.shape[1])]
        frame = orthonormalize(np.stack(cols, axis=1))
    return frame


# -- unstable sphere sampling ---------------------------------------------------

_ANGLE_OFFSET = 0.5377156339  # irrational-ish: avoids symmetric exact hits


def circle_angles(k):
    """The k lattice angles on the circle.  The k lattice is bit-for-bit
    the even half of the 2k lattice (scaling by two is exact)."""
    return _ANGLE_OFFSET + 2.0 * np.pi * np.arange(k) / k


def sphere_directions(d, k, seed=0):
    """Deterministic directions on S^{d-1}: both points of S^0, the k
    circle lattice angles, seeded Gaussian directions beyond."""
    if d == 0:
        return np.zeros((0, 0))
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = circle_angles(k)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(seed + 1234)
    v = rng.standard_normal((k, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def unstable_sphere_sample(system, cp, rho, k, seed=0):
    """Points on the radius-rho unstable sphere of a critical point.

    Returns (directions, points): directions are unit vectors in the
    ordered unstable-eigenframe coordinates; points lie on the manifold.
    An index-0 point has the empty sphere: both arrays are empty.
    """
    d = cp.index
    dirs = sphere_directions(d, k, seed)
    man = system.manifold
    pts = []
    for u in dirs:
        ambient = cp.point + rho * (cp.unstable_frame @ u)
        pts.append(man.project(ambient))
    pts = np.array(pts) if pts else np.zeros((0, man.coord_dim))
    return dirs, pts


def direction_point(system, cp, rho, u):
    """Manifold point at unstable-frame direction u and radius rho."""
    return system.manifold.project(cp.point + rho * (cp.unstable_frame @ u))


def probe_limits(system, n_seeds, seed=0, t_max=None):
    """Forward/backward limit statistics over random seed points."""
    rng = np.random.default_rng(seed)
    out = {"forward": {}, "backward": {}, "unresolved": 0}
    for _ in range(n_seeds):
        x = system.manifold.random_point(rng)
        for key, direction in (("forward", +1), ("backward", -1)):
            res = flow(system, x, direction, t_max=t_max, record=False)
            if res.status == CONVERGED:
                name = res.limit.name
                out[key][name] = out[key].get(name, 0) + 1
            else:
                out["unresolved"] += 1
    return out
