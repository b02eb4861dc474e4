"""Morse complexes by counting flow lines, plus relative complexes and
continuation maps.

``_connection_search`` picks the search for a pair x -> y with index drop
one.  When x has index 1 or y has index dim - 1, W^u(x) or W^s(y) is one
curve with two branches, and the lines are the branches that end at the
other point, signed in closed form (``_branch_lines``).  A branch is read
in one of two ways.  Limit readers (``find_connections`` and the counts)
need only its side and its limit, and into a top-index point its end
point (``branch_ends``), so its flow records no nodes, and a descending
one on uncoupled cosine wells stops once it falls below the second-lowest
critical value, which proves its limit the minimum
(``geometry.systems.level_trap``), short of the limit's ball; curve
readers (the chord search of chain-map and umkehr entries, and
``connection_lines`` for the command line) need its nodes
(``branches``), so its flow records them up to the ball.  Both are kept
on the system for the outermost public call that flew them
(``dropping``), and a limit read after a curve read reads the curve: no
call flies a branch twice.
Otherwise, from index 2, the unstable circle of x is shot on a lattice,
sign changes of an offset are bisected, and each candidate is verified by
strict convergence into y; only this search has a resolution, so only it
passes the doubling gate (``gated``), which recounts at doubled resolution
and raises on any change.  Every other pair raises ``UnsupportedPairError``
(exit status 3); ``boundary_operator`` asks the rule about every pair before
its first count, so it refuses before launching a flow.  Index-1 chain-map
entries on a surface intersect curves of recorded branch flows that start
at their critical points and end at their limits (``curve_intersections``):
the chords of the recorded polylines are the curves, and a chord hit is the
crossing, since a count needs each crossing and its orientation, not the
point to the last digit.  Each branch is charted once, on its first
intersection (``Branch.chart``: segment displacements and lengths, and
blocks of segments with an anchor and a reach), and two curves are crossed
in one pass over those charts, so the fixed cost of a crossing search is
paid once per pair of curves, not once per pair of branches.  Their signs
need no frame carried along a flow: a one-dimensional W^u or W^s is
oriented at each point of a branch by ``Branch.tangent``, the field there
or, for a curve mapped into the surface, the chord of its image, and a
top-dimensional one by the orientation class of its point's eigenframe
(``orientation_class``).
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .complexes import GradedComplex, RING_Z, RING_Z2, homology, split_complex
from .errors import (
    AdmissibilityError,
    CountingIncompleteError,
    CountInstabilityError,
    DegenerateCrossingError,
    GeometryError,
    InternalInconsistencyError,
    UnsupportedPairError,
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
    transport_frame,
)
from .geometry.systems import level_trap

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


def _resolved(res, what):
    """``res`` if its flow converged; else ``CountingIncompleteError``
    naming the flow ``what``, with its status, end time and step count as
    the fields ``status``, ``t_end`` and ``steps``."""
    if res.status != CONVERGED:
        raise CountingIncompleteError(
            "%s unresolved (%s at t=%.6g after %d steps)" % (
                what, res.status, res.t_end, res.steps),
            status=res.status, t_end=res.t_end, steps=res.steps)
    return res


def approach(system, pt, target, direction=+1):
    """(strict limit name, closest distance, offsets w) of a loose flow.

    w is the displacement at the closest pass of ``target``, on its
    unstable frame for forward flows and its stable frame for backward ones.
    ``target`` may be a tuple of critical points, all tracked by the one
    flow; distance and w are then tuples with one entry per target.
    """
    many = isinstance(target, tuple)
    targets = target if many else (target,)
    res = _resolved(flow(system, pt, direction, record=False,
                         approach_targets=[cp.name for cp in targets],
                         loose=True), "classification flow")
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
    one recorded strict flow that starts 10 eps_conv off it along side
    (+-1) times the eigenvector, and on to the flow's limit point.  Its
    chords are the curve, each off the flow by at most its sagitta (below
    1e-4 at the crossings of the figure-8 sweeps); the last spans the
    flow's last gap of at most eps_conv, so a crossing there is not
    missed.  ``points`` and ``times`` are the flow's nodes from the
    critical point, and ``nodes`` adds the limit.  ``image`` maps the nodes
    into the manifold where curves are intersected (an embedding, or an
    auxiliary flow); None is the identity.
    """

    def __init__(self, system, points, times, limit, direction, side,
                 image=None):
        self.system, self.points, self.times = system, points, times
        self.limit, self.direction, self.side = limit, direction, side
        self.image = image
        self.x_end = points[-1]
        self.nodes = np.concatenate([points, limit.point[None, :]])
        self.x = (self.nodes if image is None
                  else np.array([image(p) for p in self.nodes]))
        self._chart = None

    def chart(self, man):
        """The chart of ``x`` in ``man``, where the branch is intersected
        (``_chart``): built on the branch's first intersection and kept
        with the branch."""
        if self._chart is None:
            self._chart = _chart(man, self.x)
        return self._chart

    def mapped(self, image):
        return self if image is None else Branch(
            self.system, self.points, self.times, self.limit, self.direction,
            self.side, image)

    def point(self, k, theta):
        """The point at theta on the chord of segment k, in the branch's
        own manifold."""
        own = self.system.manifold
        p0 = self.nodes[k]
        return own.project(p0 + theta * own.displacement(p0,
                                                         self.nodes[k + 1]))

    def tangent(self, k, theta, man=None):
        """The eigenvector, oriented, carried along the flow to the point at
        theta on segment k, as a one-column frame: side times the unit
        velocity there, since the linearised flow carries the velocity to
        itself and the branch leaves its point along side times the
        eigenvector.  A branch with an image takes it in the image's
        manifold ``man``: side times the unit chord of the image's segment
        k on the tangent plane there, as the image keeps the order of the
        nodes."""
        if self.image is None:
            v = self.direction * self.system.field(self.point(k, theta))
        else:
            v = man.displacement(self.x[k], self.x[k + 1])
            v = man.tangent_project(man.project(self.x[k] + theta * v), v)
        return (self.side / np.linalg.norm(v)) * v[:, None]


def _cross_solve(a, b, r):
    """(s, u) with s a - u b = r in the plane (nan for parallel a, b)."""
    den = a[0] * b[1] - a[1] * b[0]
    if den == 0.0:
        return math.nan, math.nan
    return ((r[0] * b[1] - r[1] * b[0]) / den,
            (r[0] * a[1] - r[1] * a[0]) / den)


def _branch_flows(system, cp, direction, record):
    """(side, flow) of each branch of W^u(cp) (direction +1) or W^s(cp)
    (direction -1), which must be one-dimensional, flown with ``record``.

    A branch leaves cp at the rate |lambda| of its eigenvalue: from 10
    eps_conv off cp to unit distance takes about ln(1e5) / |lambda| = 11.5
    / |lambda|.  So a branch flies for max(t_max, 40 / |lambda|), which
    leaves room for the approach to its limit; a slow eigenvalue, such as
    rim_hi's -eps on the sphere band, gets the time it needs.  A flow that
    records no nodes is read for its limit alone, so a descending one ends
    where the system's level trap proves that limit (``level_trap``)."""
    frame = cp.unstable_frame if direction == +1 else cp.stable_frame
    if frame.shape[1] != 1:
        raise GeometryError("%s has no one-dimensional manifold in "
                            "direction %d" % (cp.name, direction))
    lam = cp.eigenvalues[0 if direction == +1 else cp.index]
    t_max = max(system.tol.t_max, 40.0 / abs(float(lam)))
    trap = None if record or direction != +1 else level_trap(system)
    return [(side, _resolved(flow(system, system.manifold.project(
        cp.point + side * 10.0 * system.tol.eps_conv * frame[:, 0]),
        direction, t_max=t_max, record=record, trap=trap),
        "branch flow of %s" % cp.name)) for side in (1, -1)]


def branches(system, cp, direction):
    """The two branches of W^u(cp) (direction +1, one unstable direction)
    or W^s(cp) (direction -1, one stable direction) as curves, flown once
    per system and kept on it (``_branch_flows``)."""
    key = (cp.name, direction)
    if key not in system.branches:
        system.branches[key] = [
            Branch(system, np.concatenate([cp.point[None, :], res.points]),
                   np.concatenate([[0.0], res.times]), res.limit, direction,
                   side)
            for side, res in _branch_flows(system, cp, direction, True)]
    return system.branches[key]


BranchEnd = namedtuple("BranchEnd", "side limit x_end")


def branch_ends(system, cp, direction):
    """(side, limit, x_end) of the two branches of ``branches``, for readers
    of limits alone: the curves when the system keeps them, else flows
    that record no nodes, flown once per system and kept on it beside the
    curves.  An ascending branch's ``x_end`` is its curve's last node, the
    same float; a descending one on uncoupled cosine wells ends where the
    level trap proves its limit, anywhere below the second-lowest critical
    value, possibly at its start (``_branch_flows``), and no reader takes
    its ``x_end``."""
    curves = system.branches.get((cp.name, direction))
    if curves is not None:
        return curves
    key = (cp.name, direction, "ends")
    if key not in system.branches:
        system.branches[key] = [
            BranchEnd(side, res.limit, res.x_end)
            for side, res in _branch_flows(system, cp, direction, False)]
    return system.branches[key]


# segments per block of the chord search
_BLOCK = 8
# a crossing closer than this to an end of a curve raises: an order below
# the 1e-9 at which two crossings count as one point
_END_GAP = 1e-10
# rounding allowance of the block tests
_SLACK = 1e-9

Chart = namedtuple("Chart", "d lengths anchors reaches")


def _chart(man, R):
    """The chart of the polyline R in ``man``: its segment displacements
    ``d`` and ``lengths``, and for each run of ``_BLOCK`` consecutive
    segments an anchor (its first node) and a reach (the largest distance
    from the anchor to one of its segment starts plus that segment's
    length)."""
    d = man.displacement(R[:-1], R[1:])
    lengths = np.linalg.norm(d, axis=1)
    starts = np.arange(0, len(lengths), _BLOCK)
    anchors = R[starts]
    off = np.linalg.norm(man.displacement(
        np.repeat(anchors, _BLOCK, axis=0)[:len(lengths)], R[:-1]), axis=1)
    return Chart(d, lengths, anchors,
                 np.maximum.reduceat(off + lengths, starts))


# a curve's charts laid end to end with one segment numbering: ``firsts``
# lists each polyline's first segment and the total, ``starts`` holds the
# segment starts, and each block has its first segment, the end of its
# polyline's segments (``stops``) and its polyline (``owners``)
Laid = namedtuple("Laid", "firsts starts d lengths anchors reaches blocks "
                          "stops owners")


def _lay(polylines):
    """The ``Laid`` curve of (nodes, chart) pairs."""
    firsts = [0]
    for _R, c in polylines:
        firsts.append(firsts[-1] + len(c.lengths))
    blocks = [np.arange(f, e, _BLOCK) for f, e in zip(firsts, firsts[1:])]
    sizes = [len(b) for b in blocks]
    cat = np.concatenate
    return Laid(firsts, cat([R[:-1] for R, _c in polylines]),
                *(cat([c[k] for _R, c in polylines]) for k in range(4)),
                cat(blocks), np.repeat(firsts[1:], sizes),
                np.repeat(np.arange(len(blocks)), sizes))


def _segments(laid, rows):
    """The segments of the blocks ``laid.blocks[rows]`` as a (k, _BLOCK)
    array, and the mask of those that exist."""
    seg = laid.blocks[rows][:, None] + np.arange(_BLOCK)
    return seg, seg < laid.stops[rows][:, None]


def _local(laid, k):
    """(polyline, its segment) of segment k of a laid curve."""
    a = bisect.bisect_right(laid.firsts, k) - 1
    return a, int(k) - laid.firsts[a]


def _curve_hits(man, A, B):
    """(a, b, i, j, s, u) for each crossing P[i] + s (P[i+1] - P[i]) =
    Q[j] + u (Q[j+1] - Q[j]) with s, u in [0, 1) of polyline P = a of the
    laid curve A and Q = b of B, on the tangent-plane chart at P[i] through
    ``displacement``, in (a, b, i, j) order.

    Only segment pairs whose starts are closer than their summed lengths
    are charted, and only pairs of blocks whose anchors are within their
    summed reaches (plus ``_SLACK``) can hold such a pair: the distance
    |displacement| is a metric (flat torus, sphere chords, products), so
    the triangle inequality bounds a pair's distance by its anchors'.  One
    gap matrix covers every block pair of the two curves, and one near
    test every surviving segment pair.
    """
    gap = np.linalg.norm(man.displacement(A.anchors[:, None, :],
                                          B.anchors[None, :, :]), axis=2)
    I, J = np.nonzero(gap <= A.reaches[:, None] + B.reaches + _SLACK)
    (ii, keep_i), (jj, keep_j) = _segments(A, I), _segments(B, J)
    k, p, q = np.nonzero(keep_i[:, :, None] & keep_j[:, None, :])
    na, nb = len(A.lengths), len(B.lengths)
    # polyline pair first, then (i, j): the segment numbers of a curve
    # increase along each of its polylines
    pair = A.owners[I] * (len(B.firsts) - 1) + B.owners[J]
    key = np.sort((pair[k] * na + ii[k, p]) * nb + jj[k, q])
    ii, jj = np.divmod(key % (na * nb), nb)
    rel = man.displacement(A.starts[ii], B.starts[jj])
    near = np.linalg.norm(rel, axis=1) <= A.lengths[ii] + B.lengths[jj]
    out = []
    for i, j, r in zip(ii[near], jj[near], rel[near]):
        T = man.tangent_basis(A.starts[i])
        s, u = _cross_solve(T.T @ A.d[i], T.T @ B.d[j], T.T @ r)
        if 0.0 <= s < 1.0 and 0.0 <= u < 1.0:
            (a, i), (b, j) = _local(A, i), _local(B, j)
            out.append((a, b, i, j, s, u))
    return out


def _chord_hits(man, P, Q):
    """(i, j, s, u) for each crossing of the chords of the polylines P and
    Q, in (i, j) order: ``_curve_hits`` of two curves of one polyline."""
    A, B = (_lay([(R, _chart(man, R))]) for R in (P, Q))
    return [hit[2:] for hit in _curve_hits(man, A, B)]


def _check_ends(man, curve_a, curve_b, laid_a, laid_b):
    """Raise ``DegenerateCrossingError`` when an end of a branch of one
    curve lies on a branch of the other.  An end is a critical point (or
    its image), where the branch has no tangent, and the limit is not on
    its curve at all: the curves do not meet transversally there, and a
    chord hit, which takes half-open segments, would drop a crossing at a
    limit.

    The point of a segment nearest to an end is found on the chart at the
    segment's start.  A segment within ``_END_GAP`` of an end lies in a
    block whose anchor is within its reach plus ``_END_GAP`` of the end
    (the triangle inequality, as in ``_curve_hits``), so only the segments
    of such blocks are measured.
    """
    for ends_of, others, laid, of_a in ((curve_a, curve_b, laid_b, True),
                                        (curve_b, curve_a, laid_a, False)):
        ends = np.concatenate([E.x[[0, -1]] for E in ends_of])
        gap = np.linalg.norm(man.displacement(laid.anchors[None, :, :],
                                              ends[:, None, :]), axis=2)
        e, blocks = np.nonzero(gap <= laid.reaches + (_END_GAP + _SLACK))
        seg, keep = _segments(laid, blocks)
        n, p = np.nonzero(keep)
        e, seg = e[n], seg[n, p]
        d = laid.d[seg]
        rel = man.displacement(laid.starts[seg], ends[e])
        t = np.clip(np.sum(rel * d, axis=1)
                    / np.maximum(np.sum(d * d, axis=1), 1e-300), 0.0, 1.0)
        gaps = np.linalg.norm(rel - t[:, None] * d, axis=1)
        close = np.nonzero(gaps <= _END_GAP)[0]
        if not len(close):
            continue
        # the first end with a close segment, and its nearest segment (the
        # first of equals)
        rows = np.nonzero(e == e[close[0]])[0]
        r = rows[np.argmin(gaps[rows])]
        E = ends_of[e[r] // 2]
        at_end = (0, 0.0) if e[r] % 2 == 0 else (len(E.x) - 2, 1.0)
        c, k = _local(laid, seg[r])
        pair = ((E, *at_end), (others[c], k, float(t[r])))
        (A, i, s), (B, j, u) = pair if of_a else pair[::-1]
        raise DegenerateCrossingError(
            "the branch curves into %s and %s meet within %.3g of an "
            "end, a critical point or its image" % (
                A.limit.name, B.limit.name, gaps[r]),
            systems=(A.system.name, B.system.name),
            limits=(A.limit.name, B.limit.name), segments=(i, j),
            params=(s, u))


Crossing = namedtuple("Crossing", "point a k theta b l u")


def curve_intersections(man, curve_a, curve_b):
    """The points where two curves of branches meet on the surface ``man``.

    The curves are the chords of their polylines, crossed wrap-aware,
    every branch of a with every branch of b in one pass over the
    branches' charts (``_curve_hits``).  Curves that meet at an end of one
    of them raise ``TransversalityError`` (``_check_ends``).
    Returns one ``Crossing`` per point (branches share their critical
    point): the point on branch a in a's own manifold, at theta on segment
    k of a and u on segment l of b.
    """
    if man.dim != 2:
        raise GeometryError("curves are intersected on surfaces only")
    laid_a, laid_b = (_lay([(C.x, C.chart(man)) for C in curve])
                      for curve in (curve_a, curve_b))
    _check_ends(man, curve_a, curve_b, laid_a, laid_b)
    out = []
    for a, b, k, l, theta, u in _curve_hits(man, laid_a, laid_b):
        A = curve_a[a]
        z = A.point(k, theta)
        if all(A.system.manifold.distance(z, c.point) > 1e-9 for c in out):
            out.append(Crossing(z, A, k, theta, curve_b[b], l, u))
    return out


def _verify_connection(system, x_cp, y_cp, u, rho):
    """(verified, res): the strict trajectory res in direction u, and
    whether it converges into y."""
    start = direction_point(system, x_cp, rho, u)
    res = flow(system, start, +1, record=True)
    return res.status == CONVERGED and res.limit.name == y_cp.name, res


def connection_sign(system, x_cp, y_cp, u, rho):
    """Sign of one isolated flow line from x to y, leaving x along u.

    Transports the ordered unstable frame of x along the trajectory to the
    first point q near y, and signs it there against the unstable frame of
    y followed by the flow direction.
    """
    verified, flow_result = _verify_connection(system, x_cp, y_cp, u, rho)
    if not verified:
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
    q = pts[cut]
    v = system.field(q)
    speed = np.linalg.norm(v)
    if speed < 1e-14:
        raise GeometryError("flow direction vanished before reaching y")
    # lattice targets have index 1 or more
    ref_cols = list(parallel_frame(man, q, y_cp.unstable_frame).T)
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


def _dedupe_verified(system, x_cp, y_cp, rho, candidates, min_angle=1e-5):
    """(direction, strict flow) of the distinct unit candidates whose strict
    flow converges into y.

    A candidate that fails verification is dropped when its loose flow
    passes y farther than half the detection radius (a wrap of the offset,
    not a line); a closer pass is a line the strict flow lost, and raises
    with the pair's names, the direction, the pass distance and the strict
    flow's status, end time, limit and step count as fields.
    """
    out = []
    for u in candidates:
        u = np.asarray(u, dtype=float)
        u = u / np.linalg.norm(u)
        if any(np.linalg.norm(u - v) < min_angle for v, _res in out):
            continue
        verified, res = _verify_connection(system, x_cp, y_cp, u, rho)
        if verified:
            out.append((u, res))
            continue
        _limit, dist, _w = approach(
            system, direction_point(system, x_cp, rho, u), y_cp)
        if dist <= 0.5 * system.tol.detect_radius:
            raise CountingIncompleteError(
                "%s -> %s: direction %s passes within %.3g of %s but fails "
                "strict verification" % (x_cp.name, y_cp.name, u.tolist(),
                                         dist, y_cp.name),
                status=res.status, t_end=res.t_end, steps=res.steps,
                names=(x_cp.name, y_cp.name), direction=u.tolist(),
                distance=float(dist),
                limit=None if res.limit is None else res.limit.name)
    return out


def orientation_class(man, cp):
    """Sign of cp's ordered eigenframe (U | S) in the manifold's
    orientation.  A frame that spans the tangent space keeps this class
    under any flow, so a top-dimensional W^u or W^s of cp is oriented by
    it at every point."""
    return orientation_sign(man.oriented_tangent_basis(cp.point), cp.frame)


BRANCH, LATTICE = "branch", "lattice"


def _connection_search(system, x_cp, y_cp):
    """The one rule (module docstring) that picks the search for x -> y;
    any other pair raises before a flow is launched."""
    if x_cp.index - y_cp.index != 1:
        raise ValueError("connections require index difference one, got "
                         "%d - %d" % (x_cp.index, y_cp.index))
    if x_cp.index == 1 or y_cp.index == system.manifold.dim - 1:
        return BRANCH
    if x_cp.index == 2:
        return LATTICE
    raise UnsupportedPairError(
        "connection search from index %d points reaches only index dim "
        "- 1 = %d, not %s of index %d" % (
            x_cp.index, system.manifold.dim - 1, y_cp.name, y_cp.index),
        names=(x_cp.name, y_cp.name), indices=(x_cp.index, y_cp.index))


def _branch_lines(system, x_cp, y_cp, read=branch_ends):
    """(direction, sign, branch) of each line from x to y: each branch of
    W^u(x) if x has index 1, else of W^s(y), whose limit is the other
    point, as ``read`` gives it: ``branch_ends`` for the limits alone, or
    ``branches`` for the curves.

    From x of index 1, direction and sign are the branch's side: the
    linearised flow carries the velocity to itself, and the minimum y adds
    only the flow direction.  Into y of index dim - 1, x has top index, so
    its carried frame keeps the orientation class of x, and near y the flow
    runs along -side S_y: the sign is -side times the classes of x and y.
    The direction is where the branch's end lies from x, in x's unstable
    frame.
    """
    if x_cp.index == 1:
        return [(np.array([float(b.side)]), b.side, b)
                for b in read(system, x_cp, +1)
                if b.limit.name == y_cp.name]
    man = system.manifold
    eps = orientation_class(man, x_cp) * orientation_class(man, y_cp)
    out = []
    for b in read(system, y_cp, -1):
        if b.limit.name == x_cp.name:
            u = x_cp.unstable_frame.T @ man.displacement(x_cp.point, b.x_end)
            out.append((u / np.linalg.norm(u), -b.side * eps, b))
    return out


def connection_lines(system, x_cp, y_cp, rho=DEFAULT_RHO, k=None):
    """(direction, times, points) of each line from x to y found by the
    search ``_connection_search`` picks: a branch curve's nodes ordered
    from x to y (``_branch_lines``) or a lattice shot's verified strict
    flow.  The curves are kept for the outermost public call
    (``dropping``)."""
    with dropping(system.branches):
        if _connection_search(system, x_cp, y_cp) == BRANCH:
            return [(u, b.times, b.points) if b.direction == +1 else
                    (u, b.times[-1] - b.times[::-1], b.points[::-1])
                    for u, _sign, b in _branch_lines(system, x_cp, y_cp,
                                                     branches)]
        return [(u, res.times, res.points) for u, res in _find_connections_d2(
            system, x_cp, y_cp, rho, k or DEFAULT_K_CIRCLE)]


def find_connections(system, x_cp, y_cp, rho=DEFAULT_RHO, k=None):
    """Directions on the unstable sphere of x whose flow lines reach y.
    Branch lines are read off their limits (``branch_ends``), kept for the
    outermost public call (``dropping``)."""
    with dropping(system.branches):
        if _connection_search(system, x_cp, y_cp) == BRANCH:
            return [u for u, _sign, _b in _branch_lines(system, x_cp, y_cp)]
        return [u for u, _res in _find_connections_d2(
            system, x_cp, y_cp, rho, k or DEFAULT_K_CIRCLE)]


def count_flow_lines(system, x_cp, y_cp, rho=DEFAULT_RHO, k=None,
                     ring=RING_Z):
    """Signed (or mod-2) number of flow lines between index-adjacent points.

    Branch lines take their signs in closed form (``_branch_lines``) and
    have no resolution to double; lattice lines are signed by frame
    transport (``connection_sign``), and lattice counts pass the doubling
    gate.
    """
    if isinstance(x_cp, str):
        x_cp = system.point(x_cp)
    if isinstance(y_cp, str):
        y_cp = system.point(y_cp)
    search = _connection_search(system, x_cp, y_cp)

    def run(kk):
        dirs = find_connections(system, x_cp, y_cp, rho=rho, k=kk)
        if ring == RING_Z2:
            return len(dirs) % 2, len(dirs)
        if search == BRANCH:
            # the branch ends are kept on the system: this read flies
            # nothing
            signs = [sign for _u, sign, _b in _branch_lines(system, x_cp,
                                                            y_cp)]
        else:
            signs = [connection_sign(system, x_cp, y_cp, u, rho)
                     for u in dirs]
        return sum(signs), len(dirs)

    with dropping(system.branches):
        if search == LATTICE:
            return gated(run, k or DEFAULT_K_CIRCLE,
                         "count %s->%s" % (x_cp.name, y_cp.name))
        return run(k)[0]


# how many open ``dropping`` blocks hold each cache, by id; every block
# gives back what it took, however it ends
_HELD = {}


@contextmanager
def dropping(*caches):
    """Clear each dict in ``caches`` when the outermost block over it ends,
    however it ends: a public call keeps the branch flows it flies only
    until it returns, and a public call inside another keeps them for the
    outer one."""
    for cache in caches:
        _HELD[id(cache)] = _HELD.get(id(cache), 0) + 1
    try:
        yield
    finally:
        for cache in caches:
            _HELD[id(cache)] -= 1
            if not _HELD[id(cache)]:
                del _HELD[id(cache)]
                cache.clear()


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


def boundary_operator(system, ring=RING_Z, rho=DEFAULT_RHO, k=None):
    """Assemble the Morse complex; verifies the square-zero identity.

    Every pair is given to ``_connection_search`` before the first count,
    in the order of the counts, so an unsupported pair raises before any
    flow is launched."""
    gens = {p: tuple(cp.name for cp in system.by_index(p))
            for p in system.indices()}
    degrees = [p for p in gens if p - 1 in gens]
    graded_matrices(degrees, lambda p: system.by_index(p - 1),
                    system.by_index,
                    lambda x_cp, y_cp: _connection_search(system, x_cp, y_cp))
    with dropping(system.branches):
        maps = graded_matrices(
            degrees, lambda p: system.by_index(p - 1), system.by_index,
            lambda x_cp, y_cp: count_flow_lines(system, x_cp, y_cp, rho=rho,
                                                k=k, ring=ring))
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
    from the preceding node.  No count calls it, since branch curves are
    their chords; ``morsebench/tracer.py`` still wraps it by name."""
    i = int(np.searchsorted(res.times, t, side="right") - 1)
    i = max(0, min(i, len(res.times) - 1))
    dt = float(t - res.times[i])
    if dt <= 0:
        return res.points[i]
    seg = fixed_time_flow(system, res.points[i], dt, record=False)
    return seg.x_end


def backward_limit(system, z):
    """The critical point whose unstable manifold contains z: the limit of
    the backward flow from z, which must converge."""
    return _resolved(flow(system, z, -1, record=False),
                     "backward flow from the point").limit


def continuation(sys_f, sys_g):
    """Chain map counting hybrid trajectories W^u(m; f) into W^s(m'; g).

    Returns {degree: matrix} in catalog order: the pushforward along the
    identity (``hybrid_entry`` with its default map).  Identical systems
    short circuit to the identity: with one Morse-Smale system, an
    equal-index intersection W^u(m) with W^s(m') is empty unless m = m',
    where it is the point m itself with positive sign.
    """
    if _systems_identical(sys_f, sys_g):
        return {p: np.array(np.eye(len(sys_f.by_index(p)), dtype=int),
                            dtype=object)
                for p in sys_f.indices()}
    with dropping(sys_f.branches, sys_g.branches):
        return graded_matrices(
            sys_f.indices(), sys_g.by_index, sys_f.by_index,
            lambda m_cp, m2_cp: hybrid_entry(sys_f, sys_g, m_cp, m2_cp))


def hybrid_entry(sys_f, sys_g, m_cp, m2_cp, image=None):
    """Signed count of f-trajectories leaving m whose image under a map e
    flows into m2 under g, i.e. of W^u(m; f) meeting e^-1 W^s(m2; g).

    ``image`` is e on points; None is the identity, which gives
    continuation.  Index 0 flows the image of m; index dim(codomain),
    reached only when e is the identity, flows m2 backward under f and
    signs a hit on m by the orientation classes of m and m2; index 1
    crosses e(W^u(m; f)) with W^s(m2; g) on the codomain surface and signs
    each crossing by the tangent of e(W^u(m; f)), the unit chord of its
    image segment (``Branch.tangent``), followed by the tangent of m2's
    branch, against the orientation class of m2.
    """
    d = m_cp.index
    if d == 0:
        start = m_cp.point if image is None else image(m_cp.point)
        res = _resolved(flow(sys_g, start, +1, record=False),
                        "flow from the image of %s" % m_cp.name)
        return 1 if res.limit.name == m2_cp.name else 0
    man = sys_g.manifold
    if d == man.dim:
        if backward_limit(sys_f, m2_cp.point).name != m_cp.name:
            return 0
        return (orientation_class(sys_f.manifold, m_cp)
                * orientation_class(man, m2_cp))
    if d != 1:
        raise GeometryError(
            "chain-map counts over index-%d points below the top index are "
            "not implemented" % d)
    total = 0
    for c in curve_intersections(
            man, [b.mapped(image) for b in branches(sys_f, m_cp, +1)],
            branches(sys_g, m2_cp, -1)):
        total += orientation_sign(
            man.oriented_tangent_basis(c.b.point(c.l, c.u)),
            np.hstack([c.a.tangent(c.k, c.theta, man),
                       c.b.tangent(c.l, c.u)]),
            floor=1e-8) * orientation_class(man, m2_cp)
    return total
