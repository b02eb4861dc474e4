"""Gradient-flow integration and frame transport.

The stepper is an embedded Cash-Karp 4(5) pair with per-step reprojection
to the manifold, a step-length cap that guarantees event balls are never
jumped over, and a strict monotonicity assertion on the driving function.
It runs float-exact to the written-out tableau (the same IEEE operations in
the same order, not a matrix product): counts on the 3-manifold circle
lattice depend on the last bits of the trajectories, so a reordered sum
changes them.

``integrate`` is the one integration loop.  Between steps it keeps the
state as a list of Python floats, and it reads the system through four
list-in/list-out kernels: the field and the driving function
(``float_kernels`` of the system), the projection (``project_floats`` of the
manifold) and the distance sweep to the catalog (``distance_sweep``).  Tori
with cosine wells supply all four natively; every other system adapts its
numpy forms, which give the same bits by construction.  A native kernel
must equal the numpy expression it replaces bit for bit, so it follows
these rules, checked in ``tests/test_geometry.py``:

- ``math.sin`` and ``math.cos`` equal ``np.sin`` and ``np.cos``, and
  Python's float ``%`` equals ``np.mod``;
- ``np.sum`` and ``add.reduce(axis=1)`` over two or three entries add left
  to right, ``(a0 + a1) + a2``, and so must the kernel (never Python's
  ``sum``, which compensates from Python 3.12 on);
- negation commutes with rounding, so a kernel may fold a sign into a
  product;
- the error norm, the speed and the tolerance scale stay ``ndarray.dot``:
  BLAS contracts a short dot product with fused multiply-adds, which a
  Python sum of squares does not reproduce.

Spheres and products keep the adapters for the last reason: their numpy
projection and tangent projection go through BLAS ``dot`` and ``norm``.
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


def _norm(v):
    a = np.array(v)
    return math.sqrt(a.dot(a))


# the nonzero entries of the stage rows, then of B5 and B4, in the order
# _rk_step unpacks them
_CK_NONZERO = tuple(a for row in _CK_A + (_CK_B5, _CK_B4) for a in row if a)


def _rk_step(field, x, h, k0):
    """One Cash-Karp step on lists of floats; ``k0`` is the field at x
    (stage 0).  Each stage is x + (h a_0) k_0 + (h a_1) k_1 + ..., summed
    left to right over the nonzero tableau entries."""
    (a10, a20, a21, a30, a31, a32, a40, a41, a42, a43,
     a50, a51, a52, a53, a54, b0, b2, b3, b5, e0, e2, e3, e4, e5) = [
        h * a for a in _CK_NONZERO]
    k1 = field([p + a10 * q0 for p, q0 in zip(x, k0)])
    k2 = field([p + a20 * q0 + a21 * q1 for p, q0, q1 in zip(x, k0, k1)])
    k3 = field([p + a30 * q0 + a31 * q1 + a32 * q2
                for p, q0, q1, q2 in zip(x, k0, k1, k2)])
    k4 = field([p + a40 * q0 + a41 * q1 + a42 * q2 + a43 * q3
                for p, q0, q1, q2, q3 in zip(x, k0, k1, k2, k3)])
    k5 = field([p + a50 * q0 + a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4
                for p, q0, q1, q2, q3, q4 in zip(x, k0, k1, k2, k3, k4)])
    x5 = [p + b0 * q0 + b2 * q2 + b3 * q3 + b5 * q5
          for p, q0, q2, q3, q5 in zip(x, k0, k2, k3, k5)]
    x4 = [p + e0 * q0 + e2 * q2 + e3 * q3 + e4 * q4 + e5 * q5
          for p, q0, q2, q3, q4, q5 in zip(x, k0, k2, k3, k4, k5)]
    return x5, _norm([a - b for a, b in zip(x5, x4)])


def integrate(field, value, project, sweep, x0, *, t_max, tol, names=(),
              record=True, approach_targets=None):
    """Adaptive negative-flow integration with event tracking.

    ``field``, ``value``, ``project`` and ``sweep`` are the list-in/list-out
    kernels of the module docstring; ``value`` must not increase along the
    flow.  ``sweep`` (None: no events) gives the distances to the catalog
    points named by ``names``; entering the ``tol.eps_conv`` ball of any of
    them ends the run as CONVERGED.  ``approach_targets`` (indices into
    ``names``) get closest-approach tracking.  Each accepted point is swept
    for distances once; the sweep serves the convergence test, the closest
    passes and the step cap.
    """
    x = project(np.asarray(x0, dtype=float).tolist())
    t = 0.0
    h = tol.h_init
    h_min, atol, rtol = tol.h_min, tol.atol, tol.rtol
    strict_radius = tol.eps_conv
    targets = list(approach_targets or ()) if sweep is not None else []
    f_prev = value(x)
    times = [0.0]
    path = [x]
    fvals = [f_prev]
    closest = {}
    limit_name = None
    status = MAX_TIME
    steps = 0

    def track(xn, tn):
        nonlocal limit_name
        dists = sweep(xn)
        for i in targets:
            d, name = dists[i], names[i]
            if name not in closest or d < closest[name][0]:
                closest[name] = (d, tn, xn)
        dmin = min(dists)
        if dmin < strict_radius:
            limit_name = names[dists.index(dmin)]
        return dmin

    def failure(message):
        return IntegrationError(message, x0=x0, x=np.array(x), t=t, h=h,
                                steps=steps)

    def result():
        return FlowResult(status, limit_name, t, np.array(x),
                          np.array(times), np.array(path), np.array(fvals),
                          {name: (d, tn, np.array(xn))
                           for name, (d, tn, xn) in closest.items()},
                          steps)

    dmin = track(x, 0.0) if sweep is not None else None
    if limit_name is not None:
        status = CONVERGED
        return result()

    v0 = None
    while t < t_max and steps < tol.max_steps:
        h = min(h, t_max - t)
        if v0 is None:
            v0 = field(x)
            speed = _norm(v0)
            scale = atol + rtol * max(1.0, _norm(x))
        if speed > 1e-14 and dmin is not None:
            cap = max(0.45 * strict_radius, min(0.25, 0.5 * dmin))
            h = min(h, cap / speed)
        elif speed > 1e-14:
            h = min(h, 0.25 / speed)
        x5, err = _rk_step(field, x, h, v0)
        if err > scale and h > h_min:
            h = max(h_min, 0.5 * h * (scale / (err + 1e-300)) ** 0.2)
            steps += 1
            continue
        if h <= h_min and err > 10 * scale:
            raise failure("step size underflow at t=%.6g" % t)
        xn = project(x5)
        tn = t + h
        f_new = value(xn)
        slack = (1e-9 + 50.0 * rtol) * (1.0 + abs(f_prev))
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
            dmin = track(x, t)
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
    return result()


def flow(system, x0, direction=+1, t_max=None, record=True,
         approach_targets=None, loose=False):
    """Flow of the (anti)gradient field with catalog events.

    ``direction=+1`` descends (integrates the negative gradient), ``-1``
    ascends.  The limit is the catalog point whose strict ball the
    trajectory enters; the driving function is asserted monotone.
    ``loose`` switches to coarse step control for classification flows
    whose exact path does not matter.
    """
    if direction not in (+1, -1):
        raise GeometryError("direction must be +1 or -1")
    field, value = system.float_kernels(direction)
    tol = system.tol.loosened() if loose else system.tol
    names = system.catalog["name"].tolist()
    idx_targets = None
    if approach_targets is not None:
        idx_targets = [names.index(nm) for nm in approach_targets]
    man = system.manifold
    res = integrate(field, value, man.project_floats,
                    man.distance_sweep(system.points), x0,
                    t_max=t_max if t_max is not None else tol.t_max,
                    tol=tol, names=names, record=record,
                    approach_targets=idx_targets)
    if res.limit is not None:
        res.limit = system.point(res.limit)
    return res


def fixed_time_flow(system, x0, duration, direction=+1, record=True):
    """Integrate for exactly ``duration`` time units, no event stopping."""
    field, value = system.float_kernels(+1 if direction == +1 else -1)
    project = system.manifold.project_floats
    if duration == 0.0:
        x = project(np.asarray(x0, dtype=float).tolist())
        return FlowResult(FIXED_TIME, None, 0.0, np.array(x), np.array([0.0]),
                          np.array([x]), np.array([value(x)]), {}, 0)
    return integrate(field, value, project, None, x0, t_max=duration,
                     tol=system.tol, record=record)


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
