"""Morse complexes by counting flow lines, plus relative complexes and
continuation maps.

``_connection_search`` picks the search for a pair x -> y with index drop
one.  From index 1, both directions of the unstable line of x are flown.
Into index dim - 1, the two curves of W^s(y) are followed upward.
Otherwise, from index 2, the unstable circle of x is shot on a lattice,
sign changes of an offset are bisected, and each candidate is verified by
strict convergence into y; only this search has a resolution, so only it
passes the doubling gate (``gated``), which recounts at doubled resolution
and raises on any change.  Every other pair raises ``GeometryError``.
Index-1 chain-map entries on a surface intersect curves of recorded branch
flows that start at their critical points (``curve_intersections``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .complexes import GradedComplex, RING_Z, RING_Z2, homology, split_complex
from .errors import (
    AdmissibilityError,
    CountingIncompleteError,
    CountInstabilityError,
    GeometryError,
    InternalInconsistencyError,
)
from .geometry.flow import (
    CONVERGED,
    circle_angles,
    direction_point,
    fixed_time_flow,
    flow,
    orientation_sign,
    orthonormalize,
    parallel_frame,
    sphere_directions,
    transport_frame,
)

DEFAULT_RHO = 0.02
DEFAULT_K_CIRCLE = 48


# -- the doubling gate and the shared searches ---------------------------------

def gated(run, k, what):
    """The doubling gate: ``run(k)`` and ``run(2k)`` must agree.

    ``run`` returns (signed count, number of lines); comparing both catches
    cancelling pairs of lines too.  Returns the signed count.
    """
    first, second = run(k), run(2 * k)
    if first != second:
        raise CountInstabilityError(
            "%s changed under resolution doubling (%d/%d lines -> %d/%d)"
            % (what, *first, *second), first, second)
    return first[0]


def approach(system, pt, target, direction=+1):
    """(strict limit name, closest distance, offsets w) of a loose flow.

    w is the displacement at the closest pass of ``target``, on its
    unstable frame for forward flows and its stable frame for backward ones.
    ``target`` may be a tuple of critical points, all tracked by the one
    flow; distance and w are then tuples with one entry per target.
    """
    many = isinstance(target, tuple)
    targets = target if many else (target,)
    res = flow(system, pt, direction, record=False,
               approach_targets=[cp.name for cp in targets], loose=True)
    if res.status != CONVERGED:
        raise CountingIncompleteError("classification flow unresolved")
    dists, ws = [], []
    for cp in targets:
        dist, _t, loc = res.closest[cp.name]
        frame = cp.unstable_frame if direction == +1 else cp.stable_frame
        dists.append(float(dist))
        ws.append(frame.T @ system.manifold.displacement(cp.point, loc))
    if many:
        return res.limit.name, tuple(dists), tuple(ws)
    return res.limit.name, dists[0], ws[0]


def _illinois_root(fn, lo, hi, w_lo, w_hi, tol_x, max_iter=90):
    """Safeguarded regula falsi on a bracketed sign change.

    ``fn(x)`` returns (w, payload); a non-None payload short-circuits (the
    evaluation hit the target exactly).  Returns (root, payload or None).
    """
    flo, fhi = w_lo, w_hi
    side = 0
    for _ in range(max_iter):
        if hi - lo <= tol_x:
            break
        if fhi != flo:
            mid = hi - fhi * (hi - lo) / (fhi - flo)
            pad = 0.02 * (hi - lo)
            if not (lo + pad <= mid <= hi - pad):
                mid = 0.5 * (lo + hi)
        else:
            mid = 0.5 * (lo + hi)
        fm, payload = fn(mid)
        if payload is not None:
            return mid, payload
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
            if side == -1:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = mid, fm
            if side == +1:
                flo *= 0.5
            side = +1
    return 0.5 * (lo + hi), None


def circle_lattice_roots(k, sample, tol):
    """Zeros of an offset sampled on a circle of ``k`` lattice angles.

    ``sample(angle)`` returns (w, payload), with a payload for an exact
    hit.  Returns (angle, payload) for each lattice hit and each refined
    sign change between neighbours (the last angle wraps to the first).
    """
    angles = circle_angles(k)
    vals = [sample(a) for a in angles]
    out = []
    for j in range(k):
        (w0, hit), (w1, _) = vals[j], vals[(j + 1) % k]
        if hit is not None:
            out.append((angles[j], hit))
        elif w0 * w1 < 0:
            a1 = angles[j + 1] if j + 1 < k else angles[0] + 2.0 * np.pi
            out.append(_illinois_root(sample, angles[j], a1, w0, w1, tol))
    return out


# -- curves of branch flows ------------------------------------------------------

class Branch:
    """One branch of a one-dimensional W^u (direction +1) or W^s (-1) of a
    critical point: a polyline from the critical point through the nodes of
    one recorded strict flow that starts 10 eps_conv off it along the
    eigenvector, so the first segment, a chord, is within O(1e-10) of the
    curve.  ``image`` maps the nodes into the manifold where curves are
    intersected (an embedding, or an auxiliary flow); None is the identity.
    """

    def __init__(self, system, points, times, limit, direction, image=None):
        self.system, self.points, self.times = system, points, times
        self.limit, self.direction, self.image = limit, direction, image
        self.x = (points if image is None
                  else np.array([image(p) for p in points]))

    def mapped(self, image):
        return self if image is None else Branch(
            self.system, self.points, self.times, self.limit, self.direction,
            image)

    def velocity(self, k, man=None):
        """Velocity at node k >= 1 in the branch's own manifold, or of its
        image in ``man`` by central differences 1e-6 along the flow."""
        v = self.direction * self.system.field(self.points[k])
        if man is None or self.image is None:
            return v
        e = 1e-6 / max(float(np.linalg.norm(v)), 1e-12)
        return man.displacement(*[self.image(self.system.manifold.project(
            self.points[k] + s * e * v)) for s in (-1.0, 1.0)]) / (2.0 * e)

    def acceleration(self, k):
        """Acceleration at node k >= 1 in the branch's own manifold: the
        derivative of the velocity field along itself, by central
        differences 1e-5 along the flow."""
        v = self.velocity(k)
        e = 1e-5 / max(float(np.linalg.norm(v)), 1e-12)
        return self.direction * (
            self.system.field(self.system.manifold.project(
                self.points[k] + e * v))
            - self.system.field(self.system.manifold.project(
                self.points[k] - e * v))) / (2.0 * e)

    def poly(self, k, man, origin, T):
        """Coefficients in theta of segment k, lowest degree first, in the
        chart T^T displacement(origin, .) of the image's manifold ``man``
        (None: the branch's own).  The first segment is a chord.  Others
        are Hermite interpolants of the two nodes: quintic in positions,
        velocities and accelerations, or cubic without accelerations on a
        mapped image.  A cubic is off the curve by up to about 3e-8 on a
        perturbed torus, which the sign's closest pass of a saddle
        magnifies past the detection radius; a quintic by about 5e-11."""
        own = man is None or self.image is None
        nodes, m = ((self.points, self.system.manifold) if own
                    else (self.x, man))
        p0, p1 = (T.T @ m.displacement(origin, p) for p in nodes[k:k + 2])
        if k == 0:
            return p0, p1 - p0
        h = self.times[k + 1] - self.times[k]
        m0, m1 = (h * (T.T @ self.velocity(n, man)) for n in (k, k + 1))
        if not own:
            return (p0, m0, 3.0 * (p1 - p0) - 2.0 * m0 - m1,
                    2.0 * (p0 - p1) + m0 + m1)
        a0, a1 = (h * h * (T.T @ self.acceleration(n)) for n in (k, k + 1))
        d, e, f = p1 - p0 - m0 - 0.5 * a0, m1 - m0 - a0, a1 - a0
        return (p0, m0, 0.5 * a0, 10.0 * d - 4.0 * e + 0.5 * f,
                -15.0 * d + 7.0 * e - f, 6.0 * d - 3.0 * e + 0.5 * f)

    def point(self, k, theta):
        """The point at theta on segment k, in the branch's own manifold."""
        base, own = self.points[k], self.system.manifold
        c = self.poly(k, None, base, np.eye(own.coord_dim))
        return own.project(base + _poly_at(c, theta)[0])

    def carry(self, k, theta, frame):
        """``frame``, given at the flow's start, transported along the flow
        to the point at theta on segment k (the start, on the first)."""
        t = (1.0 - theta) * self.times[k] + theta * self.times[k + 1]
        keep = self.times[1:] <= t
        return transport_frame(
            self.system.manifold,
            lambda p: self.direction * self.system.field(p),
            np.append(self.times[1:][keep], t),
            np.concatenate([self.points[1:][keep], [self.point(k, theta)]]),
            frame)


def _poly_at(c, theta):
    """(value, derivative) at theta of the polynomial with coefficients c,
    lowest degree first."""
    value = slope = 0.0 * c[0]
    for ci in reversed(c):
        slope = slope * theta + value
        value = value * theta + ci
    return value, slope


def _cross_solve(a, b, r):
    """(s, u) with s a - u b = r in the plane (nan for parallel a, b)."""
    den = a[0] * b[1] - a[1] * b[0]
    if den == 0.0:
        return math.nan, math.nan
    return ((r[0] * b[1] - r[1] * b[0]) / den,
            (r[0] * a[1] - r[1] * a[0]) / den)


def branches(system, cp, direction):
    """The two branches of W^u(cp) (direction +1, one unstable direction)
    or W^s(cp) (direction -1, one stable direction), flown once per
    system and kept on it."""
    key = (cp.name, direction)
    if key not in system.branches:
        frame = cp.unstable_frame if direction == +1 else cp.stable_frame
        if frame.shape[1] != 1:
            raise GeometryError("%s has no one-dimensional manifold in "
                                "direction %d" % (cp.name, direction))
        out = []
        for side in (1.0, -1.0):
            res = flow(system, system.manifold.project(
                cp.point + side * 10.0 * system.tol.eps_conv * frame[:, 0]),
                direction, record=True)
            if res.status != CONVERGED:
                raise CountingIncompleteError("branch flow of %s unresolved"
                                              % cp.name)
            out.append(Branch(
                system, np.concatenate([cp.point[None, :], res.points]),
                np.concatenate([[0.0], res.times]), res.limit, direction))
        system.branches[key] = out
    return system.branches[key]


def _chord_hits(man, P, Q):
    """(i, j, s, u) for each crossing P[i] + s (P[i+1] - P[i]) =
    Q[j] + u (Q[j+1] - Q[j]) with s, u in [0, 1), on the tangent-plane
    chart at P[i] through ``displacement``.  Only segment pairs whose
    starts are closer than their summed lengths are charted."""
    da, db = (man.displacement(R[:-1], R[1:]) for R in (P, Q))
    rel = man.displacement(P[:-1, None, :], Q[None, :-1, :])
    near = np.linalg.norm(rel, axis=2) <= (
        np.linalg.norm(da, axis=1)[:, None] + np.linalg.norm(db, axis=1))
    out = []
    for i, j in zip(*np.nonzero(near)):
        T = man.tangent_basis(P[i])
        s, u = _cross_solve(T.T @ da[i], T.T @ db[j], T.T @ rel[i, j])
        if 0.0 <= s < 1.0 and 0.0 <= u < 1.0:
            out.append((int(i), int(j), s, u))
    return out


def _refine_hit(man, A, B, i, j, s, u, tol=1e-12):
    """Newton's method on the segment interpolants of A and B from a chord
    hit; a solution past a segment's end moves on to its neighbour.
    Returns (segment of A, theta on it, segment of B, u on it)."""
    for _move in range(8):
        T = man.tangent_basis(A.x[i])
        ca, cb = A.poly(i, man, A.x[i], T), B.poly(j, man, A.x[i], T)
        for _it in range(40):
            (pa, va), (pb, vb) = _poly_at(ca, s), _poly_at(cb, u)
            ds, du = _cross_solve(va, vb, pb - pa)
            s, u = s + ds, u + du
            if not abs(ds) + abs(du) > tol:
                break
        if not abs(ds) + abs(du) <= tol:
            break
        ni = i + (s > 1.0 + 1e-9) - (s < -1e-9)
        nj = j + (u > 1.0 + 1e-9) - (u < -1e-9)
        if (ni, nj) == (i, j):
            return i, s, j, u
        if not (0 <= ni < len(A.x) - 1 and 0 <= nj < len(B.x) - 1):
            break
        s = 0.0 if ni > i else 1.0 if ni < i else s
        u = 0.0 if nj > j else 1.0 if nj < j else u
        i, j = ni, nj
    raise CountingIncompleteError("a crossing of the branch flows into %s "
                                  "and %s did not refine"
                                  % (A.limit.name, B.limit.name))


Crossing = namedtuple("Crossing", "point a k theta b l u")


def curve_intersections(man, curve_a, curve_b):
    """The points where two curves of branches meet on the surface ``man``.

    Chords of the polylines are crossed wrap-aware, and each hit is refined
    on the segment interpolants (``_refine_hit``) or raises
    ``CountingIncompleteError``, never dropped.  Returns one ``Crossing``
    per point (branches share their critical point): the point on branch a
    in a's own manifold, at theta on segment k of a and u on segment l of b.
    """
    if man.dim != 2:
        raise GeometryError("curves are intersected on surfaces only")
    out = []
    for A in curve_a:
        for B in curve_b:
            for hit in _chord_hits(man, A.x, B.x):
                k, theta, l, u = _refine_hit(man, A, B, *hit)
                z = A.point(k, theta)
                if all(A.system.manifold.distance(z, c.point) > 1e-9
                       for c in out):
                    out.append(Crossing(z, A, k, theta, B, l, u))
    return out


def _verify_connection(system, x_cp, y_cp, u, rho):
    """Strict test: the trajectory in direction u must converge into y."""
    start = direction_point(system, x_cp, rho, u)
    res = flow(system, start, +1, record=True)
    if res.status == CONVERGED and res.limit.name == y_cp.name:
        return res
    return None


def connection_sign(system, x_cp, y_cp, u, rho):
    """Sign of one isolated flow line from x to y, leaving x along u.

    Transports the ordered unstable frame of x along the trajectory and
    signs it at the first point near y (``_frame_sign``).
    """
    flow_result = _verify_connection(system, x_cp, y_cp, u, rho)
    if flow_result is None:
        raise InternalInconsistencyError("sign requested for a non-connection")
    man = system.manifold
    pts = flow_result.points
    times = flow_result.times
    # truncate the path at the first point near y where frames are compared
    frame_radius = max(100.0 * system.tol.eps_conv, 1e-4)
    cut = len(pts) - 1
    for i in range(len(pts)):
        if man.distance(pts[i], y_cp.point) <= frame_radius:
            cut = i
            break
    moved = transport_frame(man, system.field, times[:cut + 1],
                            pts[:cut + 1], x_cp.unstable_frame)
    return _frame_sign(system, y_cp, pts[cut], moved)


def _frame_sign(system, y_cp, q, moved):
    """Sign of a line from x through q into y, given x's ordered unstable
    frame carried to q: the determinant against (unstable frame of y, then
    the flow direction) at q."""
    v = system.field(q)
    speed = np.linalg.norm(v)
    if speed < 1e-14:
        raise GeometryError("flow direction vanished before reaching y")
    ref_cols = (list(parallel_frame(system.manifold, q, y_cp.unstable_frame).T)
                if y_cp.index else [])
    ref_cols.append(v / speed)
    ref = orthonormalize(np.stack(ref_cols, axis=1))
    return orientation_sign(moved, ref)


# -- connection finding ----------------------------------------------------------

def _lattice_shot(system, x_cp, y_cp, rho, u):
    """``approach`` of y from x's unstable sphere at lattice direction u.

    The shot tracks every critical point of y's index, and the system
    keeps it: each lattice point of a source is flown once per system,
    shared by every target and by each gate resolution that contains it.
    Refinement evaluations are not kept.
    """
    key = (x_cp.name, y_cp.index, rho, tuple(u))
    shot = system.lattice_shots.get(key)
    if shot is None:
        lower = system.by_index(y_cp.index)
        limit, dists, ws = approach(
            system, direction_point(system, x_cp, rho, u), lower)
        shot = system.lattice_shots[key] = (
            limit, {cp.name: (d, w) for cp, d, w in zip(lower, dists, ws)})
    limit, passes = shot
    return (limit, *passes[y_cp.name])


def _find_connections_d2(system, x_cp, y_cp, rho, k):
    # lattice angles go through the shared table; the Illinois iterates
    # between them almost never repeat, so they are flown directly
    lattice = set(circle_angles(k))

    def udir(a):
        return np.array([math.cos(a), math.sin(a)])

    def sample(a):
        if a in lattice:
            limit, _dist, w = _lattice_shot(system, x_cp, y_cp, rho, udir(a))
        else:
            start = direction_point(system, x_cp, rho, udir(a))
            limit, _dist, w = approach(system, start, y_cp)
        return float(w[0]), (udir(a) if limit == y_cp.name else None)

    candidates = [u if u is not None else udir(a)
                  for a, u in circle_lattice_roots(k, sample, 1e-13)]
    return _dedupe_verified(system, x_cp, y_cp, rho, candidates)


def _find_connections_codim1(system, x_cp, y_cp, rho):
    """(direction, sign, (times, points)) of each line from x into y of
    index dim - 1.

    A line of f from x to y is a line of -f from y to x, and W^s(y) is two
    curves, followed upward from distance rho along +-y's stable
    eigenvector.  A maximum attracts the ascent, so each branch reaches a
    limit, and a branch that ends elsewhere carries no line.  The
    direction is where the line leaves x, read off the ascent's closest
    pass of x in x's unstable frame; the sign is taken at the start z, with
    x's unstable frame carried down to z.  The line is the ascent reversed,
    from that closest pass down to z.
    """
    man = system.manifold
    out = []
    for side in (1.0, -1.0):
        z = man.project(y_cp.point + side * rho * y_cp.stable_frame[:, 0])
        source, carry, line = closest_pass_transport(system, z, -1)
        if source.name == x_cp.name:
            u = x_cp.unstable_frame.T @ man.displacement(x_cp.point,
                                                         line[1][0])
            out.append((u / np.linalg.norm(u),
                        _frame_sign(system, y_cp, z,
                                    carry(x_cp.unstable_frame)), line))
    return out


def _dedupe_verified(system, x_cp, y_cp, rho, candidates, min_angle=1e-5):
    """(direction, strict flow) of the distinct unit candidates whose strict
    flow converges into y.

    A candidate that fails verification is dropped when its loose flow
    passes y farther than half the detection radius (a wrap of the offset,
    not a line); a closer pass is a line the strict flow lost, and raises.
    """
    out = []
    for u in candidates:
        u = np.asarray(u, dtype=float)
        u = u / np.linalg.norm(u)
        if any(np.linalg.norm(u - v) < min_angle for v, _res in out):
            continue
        res = _verify_connection(system, x_cp, y_cp, u, rho)
        if res is not None:
            out.append((u, res))
            continue
        _limit, dist, _w = approach(
            system, direction_point(system, x_cp, rho, u), y_cp)
        if dist <= 0.5 * system.tol.detect_radius:
            raise CountingIncompleteError(
                "%s -> %s: direction %s passes within %.3g of %s but fails "
                "strict verification" % (x_cp.name, y_cp.name, u.tolist(),
                                         dist, y_cp.name))
    return out


SHOOT, ASCEND, LATTICE = "shoot", "ascend", "lattice"


def _connection_search(system, x_cp, y_cp):
    """The one rule (module docstring) that picks the search for x -> y;
    any other pair raises before a flow is launched."""
    if x_cp.index - y_cp.index != 1:
        raise ValueError("connections require index difference one, got "
                         "%d - %d" % (x_cp.index, y_cp.index))
    if x_cp.index == 1:
        return SHOOT
    if y_cp.index == system.manifold.dim - 1:
        return ASCEND
    if x_cp.index == 2:
        return LATTICE
    raise GeometryError(
        "connection search from index %d points reaches only index dim "
        "- 1 = %d, not %s of index %d" % (
            x_cp.index, system.manifold.dim - 1, y_cp.name, y_cp.index))


def connection_lines(system, x_cp, y_cp, rho=DEFAULT_RHO, k=None):
    """(direction, times, points) of each line from x to y found by the
    search ``_connection_search`` picks: a shot's verified strict flow, or
    the ascent reversed and closed by y itself, reached at t = inf."""
    search = _connection_search(system, x_cp, y_cp)
    if search == SHOOT:
        shots = [(np.asarray(u, dtype=float),
                  _verify_connection(system, x_cp, y_cp, u, rho))
                 for u in sphere_directions(1, 2)]
    elif search == LATTICE:
        shots = _find_connections_d2(system, x_cp, y_cp, rho,
                                     k or DEFAULT_K_CIRCLE)
    else:
        return [(u, np.append(times, math.inf), np.vstack([pts, y_cp.point]))
                for u, _sign, (times, pts) in _find_connections_codim1(
                    system, x_cp, y_cp, rho)]
    return [(u, res.times, res.points) for u, res in shots if res is not None]


def find_connections(system, x_cp, y_cp, rho=DEFAULT_RHO, k=None):
    """Directions on the unstable sphere of x whose flow lines reach y."""
    return [u for u, _times, _pts in connection_lines(system, x_cp, y_cp,
                                                       rho, k)]


def count_flow_lines(system, x_cp, y_cp, rho=DEFAULT_RHO, k=None,
                     ring=RING_Z, stability=True):
    """Signed (or mod-2) number of flow lines between index-adjacent points.

    Lattice counts pass the doubling gate; the other two searches follow
    finitely many curves and have no resolution to double.
    """
    if isinstance(x_cp, str):
        x_cp = system.point(x_cp)
    if isinstance(y_cp, str):
        y_cp = system.point(y_cp)
    search = _connection_search(system, x_cp, y_cp)
    if search == ASCEND:
        signs = [sign for _u, sign, _line in
                 _find_connections_codim1(system, x_cp, y_cp, rho)]
        return len(signs) % 2 if ring == RING_Z2 else sum(signs)

    def run(kk):
        dirs = find_connections(system, x_cp, y_cp, rho=rho, k=kk)
        if ring == RING_Z2:
            return len(dirs) % 2, len(dirs)
        return (sum(connection_sign(system, x_cp, y_cp, u, rho)
                    for u in dirs), len(dirs))

    if stability and search == LATTICE:
        return gated(run, k or DEFAULT_K_CIRCLE,
                     "count %s->%s" % (x_cp.name, y_cp.name))
    return run(k)[0]


def graded_matrices(degrees, rows_of, cols_of, entry):
    """{degree: integer matrix} with ``entry(col, row)`` at each position.

    ``rows_of(p)`` and ``cols_of(p)`` give the critical points of each
    degree in catalog order; entries are filled column by column.
    """
    out = {}
    for p in degrees:
        rows, cols = rows_of(p), cols_of(p)
        mat = np.zeros((len(rows), len(cols)), dtype=object)
        for j, col in enumerate(cols):
            for i, row in enumerate(rows):
                mat[i, j] = entry(col, row)
        out[p] = mat
    return out


def boundary_operator(system, ring=RING_Z, rho=DEFAULT_RHO, k=None,
                      stability=True):
    """Assemble the Morse complex; verifies the square-zero identity."""
    gens = {p: tuple(cp.name for cp in system.by_index(p))
            for p in system.indices()}
    maps = graded_matrices(
        [p for p in gens if p - 1 in gens], lambda p: system.by_index(p - 1),
        system.by_index,
        lambda x_cp, y_cp: count_flow_lines(system, x_cp, y_cp, rho=rho, k=k,
                                            ring=ring, stability=stability))
    return GradedComplex(gens, maps, ring=ring)


def morse_homology(system, ring=RING_Z, **kw):
    return homology(boundary_operator(system, ring=ring, **kw))


# -- relative complexes -----------------------------------------------------------

@dataclass
class SublevelRegion:
    """Open region {aux < level} used for relative complexes."""

    aux: object
    level: float
    name: str = "region"

    def contains(self, x):
        return self.aux(x) < self.level

    def signed_coordinate(self, x):
        return self.aux(x) - self.level


def empty_region():
    return SublevelRegion(aux=lambda x: 1.0, level=0.0, name="empty")


def band_region(c):
    """{ last-coordinate^2 < c } on an embedded sphere."""
    return SublevelRegion(aux=lambda x: float(x[-1] ** 2), level=float(c),
                          name="band<%g" % c)


def cap_region(c):
    """{ last coordinate < c } on an embedded sphere."""
    return SublevelRegion(aux=lambda x: float(x[-1]), level=float(c),
                          name="cap<%g" % c)


def _aux_gradient(region, x, eps=1e-6):
    g = np.zeros(len(x))
    for i in range(len(x)):
        xp = np.array(x, dtype=float)
        xm = np.array(x, dtype=float)
        xp[i] += eps
        xm[i] -= eps
        g[i] = (region.aux(xp) - region.aux(xm)) / (2 * eps)
    return g


def check_region_admissible(system, region, n_probes=40, seed=0,
                            margin=1e-3, trans_tol=1e-6):
    """Verify the outward-gradient condition on the region boundary.

    Flows from random seeds; every crossing of {aux = level} must be
    transverse and entering (descending flows may only move into the
    region).  Critical points must stay clear of the boundary.
    """
    man = system.manifold
    for cp in system.critical_points:
        if abs(region.signed_coordinate(cp.point)) < margin:
            raise AdmissibilityError(
                "critical point %s lies within %g of the region boundary"
                % (cp.name, margin))
    rng = np.random.default_rng(seed)
    crossings = 0
    for _ in range(n_probes):
        x = man.random_point(rng)
        res = flow(system, x, +1, record=True)
        vals = [region.signed_coordinate(p) for p in res.points]
        for i in range(len(vals) - 1):
            if vals[i] == 0.0:
                continue
            if vals[i] * vals[i + 1] < 0:
                crossings += 1
                if vals[i] < 0:  # leaving the region along a descending flow
                    raise AdmissibilityError(
                        "gradient points into the region at a boundary "
                        "crossing (flow exited %s)" % region.name)
                mid = man.project(0.5 * (res.points[i] + res.points[i + 1]))
                g = man.tangent_project(mid, system.grad(mid))
                a = man.tangent_project(mid, _aux_gradient(region, mid))
                if float(np.dot(g, a)) < trans_tol:
                    raise AdmissibilityError(
                        "gradient not outward-transverse on the boundary "
                        "of %s" % region.name)
    return crossings


def relative_complex(system, region, ring=RING_Z, check=True, **kw):
    """Split the Morse complex along the region; returns a RelativePair."""
    if check and region.name != "empty":
        check_region_admissible(system, region)
    total = boundary_operator(system, ring=ring, **kw)
    members = {cp.name: region.contains(cp.point)
               for cp in system.critical_points}
    return split_complex(total, lambda p, name: members[name])


# -- continuation ------------------------------------------------------------------

def _systems_identical(sys_f, sys_g, samples=8, seed=0, tol=1e-9):
    if sys_f is sys_g:
        return True
    if sys_f.manifold.coord_dim != sys_g.manifold.coord_dim:
        return False
    cf, cg = sys_f.critical_points, sys_g.critical_points
    if len(cf) != len(cg):
        return False
    for a, b in zip(cf, cg):
        if a.index != b.index:
            return False
        if sys_f.manifold.distance(a.point, b.point) > tol:
            return False
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x = sys_f.manifold.random_point(rng)
        if np.linalg.norm(sys_f.field(x) - sys_g.field(x)) > tol:
            return False
    return True


def point_at_time(system, res, t):
    """Point of a recorded trajectory at an intermediate time, re-integrated
    from the preceding node.  No count calls it since branch curves are
    refined on Hermite interpolants; ``morsebench/tracer.py`` still wraps
    it by name."""
    i = int(np.searchsorted(res.times, t, side="right") - 1)
    i = max(0, min(i, len(res.times) - 1))
    dt = float(t - res.times[i])
    if dt <= 0:
        return res.points[i]
    seg = fixed_time_flow(system, res.points[i], dt, record=False)
    return seg.x_end


def closest_pass_transport(system, z, direction, cp=None):
    """Flow z toward cp and carry frames given at cp back to z.

    The path is cut at its closest pass of cp, which must lie within half
    the detection radius (landing exactly on a critical point is
    numerically unreachable when the unstable rate beats the stable one).
    With ``cp`` None the flow must converge and cp is its limit.  Returns
    (cp, carry, (times, points)): ``carry(frame)`` transports a frame at cp
    back to z along the path, which runs from the closest pass to z.
    """
    man = system.manifold
    res = flow(system, z, direction, record=True)
    if cp is None:
        if res.status != CONVERGED:
            raise CountingIncompleteError("flow from the point did not "
                                          "converge")
        cp = res.limit
    dists = man.distances(cp.point, res.points)
    cut = int(np.argmin(dists))
    if float(dists[cut]) > 0.5 * system.tol.detect_radius:
        raise InternalInconsistencyError(
            "point misses %s by %.3g" % (cp.name, dists[cut]))
    times = (res.times[cut] - res.times[:cut + 1])[::-1]
    pts = res.points[cut::-1]

    def back_field(x):
        return -direction * system.field(x)

    def carry(frame):
        if not frame.shape[1]:
            return frame
        return transport_frame(man, back_field, times, pts, frame)

    return cp, carry, (times, pts)


def stable_coorientation_frames(sys_g, m2_cp, z):
    """Frames (U, S) of W^u/W^s eigendata of m2 carried back to z.

    The point z must flow into m2's neighborhood under sys_g; the
    eigenframes of m2 are carried back from the trajectory's closest pass
    (``closest_pass_transport``).  U coorients W^s(m2; g) there, S spans
    its tangent.
    """
    _, carry, _ = closest_pass_transport(sys_g, z, +1, m2_cp)
    return carry(m2_cp.unstable_frame), carry(m2_cp.stable_frame)


def transverse_sign(a_frame, u_frame, s_frame):
    """Sign comparing two complements of a subspace spanned by s_frame."""
    if s_frame.shape[1]:
        def perp(fr):
            return orthonormalize(fr - s_frame @ (s_frame.T @ fr))
        return orientation_sign(perp(a_frame), perp(u_frame))
    return orientation_sign(a_frame, u_frame)


def continuation(sys_f, sys_g):
    """Chain map counting hybrid trajectories W^u(m; f) into W^s(m'; g).

    Returns {degree: matrix} in catalog order: the pushforward along the
    identity (``hybrid_entry`` with its default maps).  Identical systems
    short circuit to the identity: with one Morse-Smale system, an
    equal-index intersection W^u(m) with W^s(m') is empty unless m = m',
    where it is the point m itself with positive sign.
    """
    if _systems_identical(sys_f, sys_g):
        return {p: np.array(np.eye(len(sys_f.by_index(p)), dtype=int),
                            dtype=object)
                for p in sys_f.indices()}
    return graded_matrices(
        sys_f.indices(), sys_g.by_index, sys_f.by_index,
        lambda m_cp, m2_cp: hybrid_entry(sys_f, sys_g, m_cp, m2_cp))


def hybrid_entry(sys_f, sys_g, m_cp, m2_cp, image=None, push=None):
    """Signed count of f-trajectories leaving m whose image under a map e
    flows into m2 under g, i.e. of W^u(m; f) meeting e^-1 W^s(m2; g).

    ``image`` is e on points and ``push(pt, frame)`` its differential on a
    frame at pt; None is the identity, which gives continuation.  Index 0
    flows the image of m; index dim(codomain), reached only when e is the
    identity, compares frames at the closest passes; index 1 crosses
    e(W^u(m; f)) with W^s(m2; g) on the codomain surface and signs each
    crossing by m's unstable frame, carried along its branch and pushed
    through e, against the coorientation of W^s(m2; g).
    """
    d = m_cp.index
    if d == 0:
        start = m_cp.point if image is None else image(m_cp.point)
        res = flow(sys_g, start, +1, record=False)
        if res.status != CONVERGED:
            raise CountingIncompleteError("flow from the image of %s "
                                          "unresolved" % m_cp.name)
        return 1 if res.limit.name == m2_cp.name else 0
    if d == sys_g.manifold.dim:
        source, carry, _ = closest_pass_transport(sys_f, m2_cp.point, -1)
        if source.name != m_cp.name:
            return 0
        U_g, S_g = stable_coorientation_frames(sys_g, m2_cp, m2_cp.point)
        return transverse_sign(carry(m_cp.unstable_frame), U_g, S_g)
    if d != 1:
        raise GeometryError(
            "chain-map counts over index-%d points below the top index are "
            "not implemented" % d)
    total = 0
    for c in curve_intersections(
            sys_g.manifold,
            [b.mapped(image) for b in branches(sys_f, m_cp, +1)],
            branches(sys_g, m2_cp, -1)):
        A = c.a.carry(c.k, c.theta, m_cp.unstable_frame)
        if push is not None:
            A = push(c.point, A)
        U_g, S_g = stable_coorientation_frames(sys_g, m2_cp,
                                               c.b.point(c.l, c.u))
        total += transverse_sign(A, U_g, S_g)
    return total
