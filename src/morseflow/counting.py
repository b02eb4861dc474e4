"""Morse complexes by counting flow lines, plus relative complexes and
continuation maps.

A pair x -> y with index drop one is counted by the search that
``_connection_search`` picks.  From index 1, both directions of the
unstable line of x are flown.  Into index dim - 1 (every other pair on a
surface), the two curves of the stable manifold of y are followed upward
to their limits.  Otherwise, from index 2, the unstable circle of x is
shot: track the closest approach to y and the signed offset w along y's
unstable directions there, isolate sign changes of w by bisection on the
circle, then verify each candidate by strict convergence into y's ball;
these counts pass the doubling gate (``gated``): they are recomputed at
doubled shooting resolution, and any discrepancy raises instead of
returning silently.  Every other pair raises ``GeometryError``.
"""

from __future__ import annotations

import math
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
            % (what, *first, *second))
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


def refine_scalar_samples(eval_fn, t_lo, t_hi, grid, jump=0.5,
                          max_extra=500, min_dt=1e-9):
    """Sample a scalar on [t_lo, t_hi], subdividing fast swings.

    Wrapped offsets can sweep through zero and back inside one interval
    (e.g. when an auxiliary flow compresses the curve), so intervals whose
    values differ by more than ``jump`` are split until resolved.  Genuine
    discontinuities (antipodal wraps) stop at ``min_dt`` and surface as
    sign changes that downstream acceptance rejects.
    """
    ts = [float(t) for t in np.linspace(t_lo, t_hi, grid + 1)]
    ws = [float(eval_fn(t)) for t in ts]
    extra = 0
    i = 0
    while i < len(ts) - 1:
        if abs(ws[i + 1] - ws[i]) > jump and (ts[i + 1] - ts[i]) > min_dt:
            if extra >= max_extra:
                raise CountingIncompleteError(
                    "sample refinement budget exhausted; discriminator "
                    "varies too quickly")
            tm = 0.5 * (ts[i] + ts[i + 1])
            ts.insert(i + 1, tm)
            ws.insert(i + 1, float(eval_fn(tm)))
            extra += 1
        else:
            i += 1
    return ts, ws


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


def bracketed_roots(ts, ws, eval_fn, accept, skip=()):
    """Refine each sign change of sampled values and keep accepted roots.

    ``eval_fn`` is as for ``_illinois_root``: an exact-hit payload is kept,
    otherwise ``accept(root)`` returns the item to keep or None.  Intervals
    containing a time in ``skip`` are passed over.
    """
    out = []
    for i in range(len(ts) - 1):
        t0, t1, w0, w1 = ts[i], ts[i + 1], ws[i], ws[i + 1]
        if w0 * w1 >= 0 or any(t0 <= s <= t1 for s in skip):
            continue
        root, payload = _illinois_root(eval_fn, t0, t1, w0, w1,
                                       1e-13 * max(1.0, abs(t1)))
        hit = payload if payload is not None else accept(root)
        if hit is not None:
            out.append(hit)
    return out


def curve_crossings(curve_sys, cp, grid, probe, target, radius,
                    rho=DEFAULT_RHO):
    """Crossings of the unstable curve of an index-1 point, found by a probe.

    Both branches of W^u(cp) are sampled uniformly in flow time.
    ``probe(pt)`` returns (limit name, closest distance, w) of a flow aimed
    at the point named ``target``.  A sample whose flow converges to the
    target is a crossing; other sign changes of w are refined and kept when
    the probe passes within ``radius`` of the target (an antipodal wrap, or
    a crossing of another stable manifold, refines to an order-one
    distance).  Returns one (branch flow, time, point) per crossing.
    """
    out = []
    for u in sphere_directions(1, 2):
        res = flow(curve_sys, direction_point(curve_sys, cp, rho, u), +1,
                   record=True)
        if res.status != CONVERGED:
            raise CountingIncompleteError("branch flow unresolved")
        hits = []

        def eval_t(t):
            pt = point_at_time(curve_sys, res, t)
            limit, _dist, w = probe(pt)
            return ((float(w[0]) if w.size else 0.0),
                    (t, pt) if limit == target else None)

        def w_at(t):
            w, hit = eval_t(t)
            if hit is not None and not any(abs(t - s) < 1e-9
                                           for s, _ in hits):
                hits.append(hit)
            return w

        def accept(t):
            pt = point_at_time(curve_sys, res, t)
            return (t, pt) if probe(pt)[1] <= radius else None

        ts, ws = refine_scalar_samples(w_at, 0.0, float(res.t_end), grid)
        found = hits + bracketed_roots(ts, ws, eval_t, accept,
                                       skip=[s for s, _ in hits])
        out.extend((res, t, pt) for t, pt in found)
    return out


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
    """(direction, sign) of each line from x into y of index dim - 1.

    A line of f from x to y is a line of -f from y to x, and W^s(y) is two
    curves, followed upward from distance rho along +-y's stable
    eigenvector.  A maximum attracts the ascent, so each branch reaches a
    limit, and a branch that ends elsewhere carries no line.  The
    direction is where the line leaves x, read off the ascent's closest
    pass of x in x's unstable frame; the sign is taken at the start z, with
    x's unstable frame carried down to z.
    """
    man = system.manifold
    out = []
    for side in (1.0, -1.0):
        z = man.project(y_cp.point + side * rho * y_cp.stable_frame[:, 0])
        source, carry, q = closest_pass_transport(system, z, -1)
        if source.name == x_cp.name:
            u = x_cp.unstable_frame.T @ man.displacement(x_cp.point, q)
            out.append((u / np.linalg.norm(u),
                        _frame_sign(system, y_cp, z,
                                    carry(x_cp.unstable_frame))))
    return out


def _dedupe_verified(system, x_cp, y_cp, rho, candidates, min_angle=1e-5):
    """The distinct unit candidates whose strict flow converges into y.

    A candidate that fails verification is dropped when its loose flow
    passes y farther than half the detection radius (a wrap of the offset,
    not a line); a closer pass is a line the strict flow lost, and raises.
    """
    out = []
    for u in candidates:
        u = np.asarray(u, dtype=float)
        u = u / np.linalg.norm(u)
        if any(np.linalg.norm(u - v) < min_angle for v in out):
            continue
        if _verify_connection(system, x_cp, y_cp, u, rho) is not None:
            out.append(u)
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


def find_connections(system, x_cp, y_cp, rho=DEFAULT_RHO, k=None):
    """Directions on the unstable sphere of x whose flow lines reach y."""
    search = _connection_search(system, x_cp, y_cp)
    if search == SHOOT:
        return [np.asarray(u, dtype=float) for u in sphere_directions(1, 2)
                if _verify_connection(system, x_cp, y_cp, u, rho) is not None]
    if search == LATTICE:
        return _find_connections_d2(system, x_cp, y_cp, rho,
                                    k or DEFAULT_K_CIRCLE)
    return [u for u, _sign in _find_connections_codim1(system, x_cp, y_cp,
                                                        rho)]


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
        signs = [sign for _u, sign in
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
    """Point of a recorded trajectory at an intermediate time.

    Re-integrates from the preceding node, so the result sits on the true
    trajectory to integrator accuracy (linear interpolation would spoil the
    bisections that rely on this).
    """
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
    (cp, carry, closest pass): ``carry(frame)`` transports a frame at cp
    back to z.
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

    return cp, carry, pts[0]


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


def _truncated_path(res, t_star, z):
    keep = res.times <= t_star
    times = np.append(res.times[keep], t_star)
    pts = np.concatenate([res.points[keep], z[None, :]], axis=0)
    return times, pts


def continuation(sys_f, sys_g, rho=DEFAULT_RHO, k=None, stability=True):
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
        lambda m_cp, m2_cp: hybrid_entry(sys_f, sys_g, m_cp, m2_cp, rho, k,
                                         stability))


def hybrid_entry(sys_f, sys_g, m_cp, m2_cp, rho, k, stability,
                 image=lambda pt: pt, push=lambda pt, frame: frame):
    """Signed count of f-trajectories leaving m whose image under a map e
    flows into m2 under g, i.e. of W^u(m; f) meeting e^-1 W^s(m2; g).

    ``image`` is e on points and ``push(pt, frame)`` its differential on a
    frame at pt; both default to the identity, which gives continuation.
    Index 0 flows the image of m; index dim(codomain), reached only when e
    is the identity, compares frames at the closest passes; index 1 is the
    gated curve-crossing count ``_hybrid_crossings``.
    """
    d = m_cp.index
    if d == 0:
        res = flow(sys_g, image(m_cp.point), +1, record=False)
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

    def run(grid):
        return _hybrid_crossings(sys_f, sys_g, m_cp, m2_cp, grid, rho, image,
                                 push)

    what = "chain-map entry %s->%s" % (m_cp.name, m2_cp.name)
    return gated(run, k or 20, what) if stability else run(k or 20)[0]


def _hybrid_crossings(sys_f, sys_g, m_cp, m2_cp, grid, rho, image, push):
    """Crossings of the unstable curve W^u(m; f) with e^-1 W^s(m2; g):
    (signed count, number of crossings).

    The discriminator along the curve is the signed offset w of the g-flow
    from the image point at its closest pass of m2 (strict limits cannot
    separate the two sides of a saddle's stable manifold when both fall to
    the same minimum).  Each sign compares the unstable frame of m,
    transported along the f-trajectory and pushed through e, against the
    coorientation of W^s(m2; g).
    """
    signs = []
    for res, t, z in curve_crossings(
            sys_f, m_cp, grid, lambda pt: approach(sys_g, image(pt), m2_cp),
            m2_cp.name, 0.5 * sys_g.tol.detect_radius, rho):
        A = push(z, transport_frame(sys_f.manifold, sys_f.field,
                                    *_truncated_path(res, t, z),
                                    m_cp.unstable_frame))
        U_g, S_g = stable_coorientation_frames(sys_g, m2_cp, image(z))
        signs.append(transverse_sign(A, U_g, S_g))
    return sum(signs), len(signs)
