"""Morse complexes by counting flow lines, plus relative complexes and
continuation maps.

``_lines``, the one dispatch that ``find_connections``,
``count_flow_lines`` and ``connection_lines`` read, gives each line of a
pair x -> y with index drop one as a ``Line`` (direction, sign, path), by
the search ``_connection_search`` picks.  When x has index 1 or y has
index dim - 1, W^u(x) or W^s(y) is one curve with two branches, and the
lines are the branches that end at the other point, signed in closed form
(``_branch_lines``).  A branch is read in one of two ways.  Limit readers
(the counts) need only its side and its limit, and into a top-index point
its end point (``branch_ends``), so its flow records no nodes, and a
descending one on uncoupled cosine wells stops once it falls below the
second-lowest critical value, which proves its limit the minimum
(``geometry.systems.level_trap``), short of the limit's ball; an
ascending one flies into the ball, since its end point is read; curve
readers (the chord search of chain-map and umkehr entries, and
``connection_lines`` for the command line) need its nodes
(``branches``), so its flow records them up to the ball.  Both are kept
in the store of the outermost public call that flew them (``keeping``,
``_keep``), and a limit read after a curve read reads the curve: no call
flies a branch twice.
Otherwise, on a 3-manifold, x has index 2 and y index 1, and a line
crosses each level f = c between f(y) and f(x) once: the lines are the
crossings of the curves P = W^u(x) and Q = W^s(y) on such a level
(``_level_lines``).  P is flown down from x's unstable circle and Q up
from y's stable circle, both of the constant radius ``RHO``, each flight
stopped past c and its crossing read off its last chord
(``_level_curve``); their chords are crossed as curves on a surface are,
on the level's tangent planes, and signed in closed form
(``connection_sign``).  Only this search has a resolution, the k angles
of each circle (``DEFAULT_K_CIRCLE`` in every count) and a chord bound
that shrinks with 1/k, so only it passes the doubling gate (``gated``),
which recounts at doubled resolution and raises on any change.  Every
other pair, such as index 2 -> 1 and 3 -> 2 on a 4-manifold, raises
``UnsupportedPairError`` (exit status 3); ``boundary_operator`` asks the
rule about every pair before its first count, so it refuses before
launching a flow.  Index-1 chain-map entries on a surface intersect
curves of recorded branch flows that start at their critical points and
end at their limits (``curve_intersections``): the chords of the recorded
polylines are the curves, and a chord hit is the crossing, since a count
needs each crossing and its orientation, not the point to the last digit.
Two families of curves are crossed in one pass, every curve of one with
every curve of the other, and the crossings are kept per curve pair
(``Crossings``).  A family is laid once per call (``_family``), all its
branches charted together: one displacement and one norm over their
segments (``_lay``).  The pass charts only the segment pairs that can
cross: the triangle inequality prunes blocks of segments by their
anchors, then, in each kept block pair, each segment by the other
block's anchor (``_curve_hits``), and the few near pairs are solved as
arrays.  The same pass checks the curves' ends and names the
``DegenerateCrossingError`` of each pair whose curves meet at an end
(``_end_errors``), which the pair raises only when it is read.  A
figure-8 table crosses its three family pairs once; a single count or a
chain passes one-curve families.  Their signs need no frame carried
along a flow: a one-dimensional W^u or W^s is oriented at each point of
a branch by ``Branch.tangent``, the field there or, for a curve mapped
into the surface, the chord of its image, and a top-dimensional one by
the orientation class of its point's eigenframe (``orientation_class``).

Every other read of a limit alone (the classification flows of the
figure-8 configurations, ``backward_limit`` and the index-0 entries of
``hybrid_entry``) goes through ``flow_limit``, which takes the level trap
in either direction: a descending flow ends once it proves the minimum
its limit, an ascending one the maximum.  The trapped reads look
``level_trap`` up in this module, so one patch of it reaches them all.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .complexes import GradedComplex, RING_Z, RING_Z2, homology, split_complex
from .errors import (
    AdmissibilityError,
    CountingIncompleteError,
    CountInstabilityError,
    DegenerateCrossingError,
    GeometryError,
    UnsupportedPairError,
)
from .geometry._unroll import Kernel
from .geometry.flow import (
    CONVERGED,
    T_MAX,
    circle_angle,
    fixed_time_flow,
    flow,
    orientation_sign,
    trap_family,
)
from .geometry.manifolds import TorusModel
from .geometry.systems import level_trap

RHO = 0.02              # radius of the level search's circles
DEFAULT_K_CIRCLE = 48   # angles per circle at the gate's first run


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


def flow_limit(system, x, direction=+1, what="flow"):
    """The limit of the flow from x in ``direction``, which must converge
    (``_resolved`` names it ``what``), for readers of the limit alone: the
    flow records no nodes, and ends where the system's level trap for its
    direction proves its limit (``level_trap``, made once per call and
    kept in its store), short of the limit's ball."""
    trap = _keep((level_trap, system, direction),
                 lambda: level_trap(system, direction))
    return _resolved(flow(system, x, direction, record=False, trap=trap),
                     what).limit


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

    def path(self):
        """(times, points) of the nodes from the upper end down: a W^s
        branch's reversed."""
        if self.direction == +1:
            return self.times, self.points
        return self.times[-1] - self.times[::-1], self.points[::-1]

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

    def tangent(self, k, theta, man=None, point=None):
        """The eigenvector, oriented, carried along the flow to the point at
        theta on segment k, as a one-column frame: side times the unit
        velocity there, since the linearised flow carries the velocity to
        itself and the branch leaves its point along side times the
        eigenvector.  The velocity is the system's float field kernel of
        the branch's direction, which gives ``direction * field`` bit for
        bit, at ``point`` when the caller holds ``self.point(k, theta)``
        (a ``Crossing``'s point on its a-side).  A branch with an image
        takes it in the image's manifold ``man``: side times the unit
        chord of the image's segment k on the tangent plane there, as the
        image keeps the order of the nodes."""
        if self.image is None:
            field = self.system.float_kernels(self.direction)[0]
            if point is None:
                point = self.point(k, theta)
            v = np.array(field(point.tolist()))
        else:
            v = man.displacement(self.x[k], self.x[k + 1])
            v = man.tangent_project(man.project(self.x[k] + theta * v), v)
        return (self.side / np.linalg.norm(v)) * v[:, None]


def _cross_solve(a, b, r):
    """(n, s, u): the rows n where s a[n] - u b[n] = r[n] in the plane
    has its solution with s, u in [0, 1), and that solution (none for
    parallel a, b)."""
    den = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    n = np.nonzero(den != 0.0)[0]
    a, b, r, den = a[n], b[n], r[n], den[n]
    s = (r[:, 0] * b[:, 1] - r[:, 1] * b[:, 0]) / den
    u = (r[:, 0] * a[:, 1] - r[:, 1] * a[:, 0]) / den
    inside = np.nonzero((0.0 <= s) & (s < 1.0) & (0.0 <= u) & (u < 1.0))[0]
    return n[inside], s[inside], u[inside]


def _branch_flows(system, cp, direction, record):
    """(side, flow) of each branch of W^u(cp) (direction +1) or W^s(cp)
    (direction -1), which must be one-dimensional, flown with ``record``.

    A branch leaves cp at the rate |lambda| of its eigenvalue: from 10
    eps_conv off cp to unit distance takes about ln(1e5) / |lambda| = 11.5
    / |lambda|.  So a branch flies for max(t_max, 40 / |lambda|), which
    leaves room for the approach to its limit; a slow eigenvalue, such as
    rim_hi's -eps on the sphere band, gets the time it needs.  A flow that
    records no nodes is read for its limit, so a descending one ends where
    the system's level trap proves that limit (``level_trap``).  An
    ascending one takes no trap: into a top-index point, ``_branch_lines``
    reads the line's direction off its ``x_end``, which must lie in the
    limit's ball."""
    frame = cp.unstable_frame if direction == +1 else cp.stable_frame
    if frame.shape[1] != 1:
        raise GeometryError("%s has no one-dimensional manifold in "
                            "direction %d" % (cp.name, direction))
    lam = cp.eigenvalues[0 if direction == +1 else cp.index]
    t_max = max(T_MAX, 40.0 / abs(float(lam)))
    trap = None if record or direction != +1 else level_trap(system)
    return [(side, _resolved(flow(system, system.manifold.project(
        cp.point + side * 10.0 * system.eps_conv * frame[:, 0]),
        direction, t_max=t_max, record=record, trap=trap),
        "branch flow of %s" % cp.name)) for side in (1, -1)]


def branches(system, cp, direction):
    """The two branches of W^u(cp) (direction +1, one unstable direction)
    or W^s(cp) (direction -1, one stable direction) as curves, flown once
    per call and kept in its store (``_branch_flows``, ``_keep``)."""
    return _keep((branches, system, cp.name, direction), lambda: [
        Branch(system, np.concatenate([cp.point[None, :], res.points]),
               np.concatenate([[0.0], res.times]), res.limit, direction, side)
        for side, res in _branch_flows(system, cp, direction, True)])


class BranchEnd(namedtuple("BranchEnd", "side limit x_end")):
    path = None     # its flow recorded no nodes


def branch_ends(system, cp, direction):
    """(side, limit, x_end) of the two branches of ``branches``, for readers
    of limits alone: the curves when the call's store keeps them, else
    flows that record no nodes, flown once per call and kept in its store
    beside the curves.  An ascending branch's ``x_end`` is its curve's
    last node, the same float; a descending one on uncoupled cosine wells
    ends where the level trap proves its limit, anywhere below the
    second-lowest critical value, possibly at its start
    (``_branch_flows``), and no reader takes its ``x_end``."""
    curves = _kept((branches, system, cp.name, direction))
    if curves is not None:
        return curves
    return _keep((branch_ends, system, cp.name, direction), lambda: [
        BranchEnd(side, res.limit, res.x_end)
        for side, res in _branch_flows(system, cp, direction, False)])


# segments per block of the chord search
_BLOCK = 8
# a crossing closer than this to an end of a curve raises: an order below
# the 1e-9 at which two crossings count as one point
_END_GAP = 1e-10
# rounding allowance of the block tests
_SLACK = 1e-9

# a curve laid with one segment numbering: ``firsts`` lists each
# polyline's first segment and the total, ``starts`` holds the segment
# starts, ``d`` and ``lengths`` their displacements and lengths, and each
# run of ``_BLOCK`` consecutive segments of one polyline, a block, has an
# anchor (its first node), a reach (the summed length of its segments,
# which bounds the distance from the anchor to each of their points:
# |displacement| is a metric), its first segment, the end of its
# polyline's segments (``stops``) and its polyline (``owners``)
Laid = namedtuple("Laid", "firsts starts d lengths anchors reaches blocks "
                          "stops owners")


def _lay(man, polylines):
    """The ``Laid`` curve of the polylines (node arrays) in ``man``, charted
    in one pass: one displacement and one norm over every segment, and
    one sum per block.  Each row's floats depend on its segment alone."""
    firsts = np.cumsum([0] + [len(R) - 1 for R in polylines])
    blocks = [np.arange(f, e, _BLOCK) for f, e in zip(firsts, firsts[1:])]
    sizes = [len(b) for b in blocks]
    cat = np.concatenate
    starts = cat([R[:-1] for R in polylines])
    d = man.displacement(starts, cat([R[1:] for R in polylines]))
    lengths = np.linalg.norm(d, axis=1)
    blocks = cat(blocks)
    return Laid(firsts, starts, d, lengths, starts[blocks],
                np.add.reduceat(lengths, blocks), blocks,
                np.repeat(firsts[1:], sizes),
                np.repeat(np.arange(len(sizes)), sizes))


def _segments(laid, rows):
    """The segments of the blocks ``laid.blocks[rows]`` as a (k, _BLOCK)
    array, and the mask of those that exist."""
    seg = laid.blocks[rows][:, None] + np.arange(_BLOCK)
    return seg, seg < laid.stops[rows][:, None]


def _polylines(laid, seg):
    """(polyline, its segment) of each segment of the array ``seg`` of a
    laid curve."""
    c = np.searchsorted(laid.firsts, seg, side="right") - 1
    return c, seg - laid.firsts[c]


def _within(man, x, y, bound):
    """Whether |displacement(x[n], y[n])| <= bound[n], row by row: a prune
    test, on the squared norm, whose rounding ``_SLACK`` covers."""
    d = man.displacement(x, y)
    return np.square(d) @ np.ones(d.shape[1]) <= bound * bound


def _blocks_near(man, x, reach, B):
    """(n, J): the rows n of the points ``x`` and the blocks J of B where
    x[n] lies within reach[n] plus J's reach plus ``_SLACK`` of J's
    anchor, in (n, J) order."""
    m = len(B.anchors)
    keep = _within(man, np.repeat(x, m, axis=0),
                   np.tile(B.anchors, (len(x), 1)),
                   np.add.outer(reach, B.reaches + _SLACK).ravel())
    return np.divmod(np.nonzero(keep)[0], m)


def _near_segments(man, A, I, B, J):
    """The segments of the blocks ``A.blocks[I]`` (as ``_segments``),
    each kept only if its start lies within its length plus the reach of
    the paired block J[n] of B, plus ``_SLACK``, of that block's
    anchor."""
    seg, keep = _segments(A, I)
    k, p = np.nonzero(keep)
    s, J = seg[k, p], J[k]
    keep[k, p] = _within(man, A.starts[s], B.anchors[J],
                         A.lengths[s] + B.reaches[J] + _SLACK)
    return seg, keep


def _curve_hits(man, A, B):
    """(a, b, i, j, s, u) for each crossing P[i] + s (P[i+1] - P[i]) =
    Q[j] + u (Q[j+1] - Q[j]) with s, u in [0, 1) of polyline P = a of the
    laid curve A and Q = b of B, on the tangent-plane chart at P[i] through
    ``displacement``, in (a, b, i, j) order.

    Only segment pairs whose starts are closer than their summed lengths
    are charted, and the distance |displacement| is a metric (flat torus,
    sphere chords, products), so the triangle inequality prunes twice
    before a pair is measured.  Segment j of block J lies within reach_J
    of J's anchor, so a segment i within L_i + L_j of it lies within L_i
    + reach_J of that anchor: only pairs of blocks whose anchors are
    within their summed reaches can hold such a pair (one gap test over
    every block pair, ``_blocks_near``), and in a kept block pair (I, J)
    only the segments of I within their length plus reach_J of J's
    anchor, and of J within theirs plus reach_I of I's anchor
    (``_near_segments``).  Each test allows ``_SLACK``.  One near test
    covers the pairs of the kept segments, with the floats of testing
    every pair; only the near pairs are sorted, and they are solved as
    arrays (``_cross_solve``).
    """
    I, J = _blocks_near(man, A.anchors, A.reaches, B)
    (ii, keep_i), (jj, keep_j) = (_near_segments(man, A, I, B, J),
                                  _near_segments(man, B, J, A, I))
    k, p, q = np.nonzero(keep_i[:, :, None] & keep_j[:, None, :])
    ii, jj = ii[k, p], jj[k, q]
    rel = man.displacement(A.starts[ii], B.starts[jj])
    near = np.nonzero(np.linalg.norm(rel, axis=1)
                      <= A.lengths[ii] + B.lengths[jj])[0]
    # polyline pair first, then (i, j): the segment numbers of a curve
    # increase along each of its polylines
    pair = (A.owners[I] * (len(B.firsts) - 1) + B.owners[J])[k[near]]
    near = near[np.argsort((pair * len(A.lengths) + ii[near])
                           * len(B.lengths) + jj[near])]
    ii, jj, rel = ii[near], jj[near], rel[near]
    d_a, d_b = A.d[ii], B.d[jj]
    if not isinstance(man, TorusModel):
        # the tangent-plane chart at each P[i]; a torus's is its
        # coordinates, where T.T @ v is v bit for bit (its basis is the
        # identity, and a torus displacement has no -0.0)
        charts = [man.tangent_basis(x).T for x in A.starts[ii]]
        d_a, d_b, rel = (np.array([T @ v for T, v in zip(charts, vs)])
                         .reshape(-1, 2) for vs in (d_a, d_b, rel))
    n, s, u = _cross_solve(d_a, d_b, rel)
    (a, k), (b, l) = _polylines(A, ii[n]), _polylines(B, jj[n])
    return list(zip(a.tolist(), b.tolist(), k.tolist(), l.tolist(),
                    s.tolist(), u.tolist()))


def _chord_hits(man, P, Q):
    """(i, j, s, u) for each crossing of the chords of the polylines P and
    Q, in (i, j) order: ``_curve_hits`` of two curves of one polyline."""
    A, B = (_lay(man, [R]) for R in (P, Q))
    return [hit[2:] for hit in _curve_hits(man, A, B)]


def _end_gaps(man, ends, laid):
    """(e, seg, t, gap) for each end e of a family's branches (row 2 k of
    ``ends`` for the first node of branch k, 2 k + 1 for its last) and
    each segment seg of the laid curve that may lie within ``_END_GAP``
    of it: the parameter t of the segment's point nearest to the end,
    found on the chart at the segment's start, and their distance.

    A segment within ``_END_GAP`` of an end lies in a block whose anchor
    is within its reach plus ``_END_GAP`` of the end (the triangle
    inequality, as in ``_curve_hits``), so only the segments of such
    blocks are measured.  Each row's floats depend on that row's end and
    segment alone.
    """
    e, blocks = _blocks_near(man, ends, np.full(len(ends), _END_GAP),
                             laid)
    seg, keep = _segments(laid, blocks)
    n, p = np.nonzero(keep)
    e, seg = e[n], seg[n, p]
    d = laid.d[seg]
    rel = man.displacement(laid.starts[seg], ends[e])
    t = np.clip(np.sum(rel * d, axis=1)
                / np.maximum(np.sum(d * d, axis=1), 1e-300), 0.0, 1.0)
    return e, seg, t, np.linalg.norm(rel - t[:, None] * d, axis=1)


# a family of curves laid as one: its branches curve by curve, the curve
# of each branch, the ``Laid`` curve of the branches, and their ends (the
# first and last node of each branch)
Family = namedtuple("Family", "branches curve laid ends")


def _family(man, curves):
    """The ``Family`` of ``curves`` in ``man``, its branches laid in one
    chart pass (``_lay``) once per call and kept in its store by the
    curves' branches (``_keep``): a figure-8 table crosses each of its
    three families with both of the others."""
    def lay():
        branches = [C for curve in curves for C in curve]
        return Family(branches, np.array([i for i, curve in enumerate(curves)
                                          for _C in curve], dtype=int),
                      _lay(man, [C.x for C in branches]),
                      np.concatenate([C.x[[0, -1]] for C in branches]))

    return _keep((_family, man, *map(tuple, curves)), lay)


def _end_errors(man, fam_a, fam_b):
    """{(i, j): the fields of the ``DegenerateCrossingError`` of curve i
    of ``fam_a`` and curve j of ``fam_b``} for each pair where an end of a
    branch of one curve lies within ``_END_GAP`` of a branch of the other
    (``_end_gaps``).  An end is a critical point (or its image), where the
    branch has no tangent, and the limit is not on its curve at all: the
    curves do not meet transversally there, and a chord hit, which takes
    half-open segments, would drop a crossing at a limit.  The ends of a
    are checked first; the error names the first end with a close segment
    on the pair's other curve, and the nearest such segment (the first of
    equals).  A pair's rows of the family pass are the rows of the pair
    alone, in their order and with their floats, since blocks never span
    polylines and a branch's chart depends on its nodes alone.
    """
    errors = {}
    for ends_of, other, of_a in ((fam_a, fam_b, True), (fam_b, fam_a, False)):
        e, seg, t, gaps = _end_gaps(man, ends_of.ends, other.laid)
        c, k = _polylines(other.laid, seg)
        mine, theirs = ends_of.curve[e // 2], other.curve[c]
        for first in np.nonzero(gaps <= _END_GAP)[0]:
            ij = (int(mine[first]), int(theirs[first]))[::1 if of_a else -1]
            if ij in errors:
                continue
            rows = np.nonzero((e == e[first]) & (theirs == theirs[first]))[0]
            r = rows[np.argmin(gaps[rows])]
            E = ends_of.branches[e[r] // 2]
            at_end = (0, 0.0) if e[r] % 2 == 0 else (len(E.x) - 2, 1.0)
            pair = ((E, *at_end),
                    (other.branches[c[r]], int(k[r]), float(t[r])))
            (A, i, s), (B, j, u) = pair if of_a else pair[::-1]
            errors[ij] = dict(
                message="the branch curves into %s and %s meet within %.3g "
                "of an end, a critical point or its image" % (
                    A.limit.name, B.limit.name, gaps[r]),
                systems=(A.system.name, B.system.name),
                limits=(A.limit.name, B.limit.name), segments=(i, j),
                params=(s, u))
    return errors


Crossing = namedtuple("Crossing", "point a k theta b l u")


class Crossings:
    """The crossings of two families of curves, read pair by pair:
    ``crossings[i, j]`` is the list of ``Crossing`` of curve i of family a
    with curve j of family b.  A pair whose curves meet at an end raises a
    fresh ``DegenerateCrossingError`` on each read, and only then, with
    the fields the families' one end check gave that pair alone
    (``_end_errors``), whatever the rest of the families hold."""

    def __init__(self, pairs, errors):
        self._pairs, self._errors = pairs, errors

    def __getitem__(self, ij):
        if ij in self._errors:
            raise DegenerateCrossingError(**self._errors[ij])
        return self._pairs.get(ij, [])


def curve_intersections(man, curves_a, curves_b):
    """The points where each curve of branches of the family ``curves_a``
    meets each of ``curves_b`` on the surface ``man``, as ``Crossings``.

    The curves are the chords of their polylines, crossed wrap-aware:
    each family is laid once, in one chart pass (``_lay``), and one pass
    crosses every branch of a with every branch of b (``_curve_hits``),
    polyline pair first.  One end check covers every pair of the
    families and names each pair's error (``_end_errors``); a pair that
    meets at an end of one of its curves raises
    ``DegenerateCrossingError``, a ``TransversalityError`` of exit status
    5, when it is read.  Each pair has one ``Crossing`` per point
    (branches share their critical point): the point on branch a in a's
    own manifold, at theta on segment k of a and u on segment l of b.  A
    single pair is a pair of one-curve families.
    """
    if man.dim != 2:
        raise GeometryError("curves are intersected on surfaces only")
    fam_a, fam_b = (_family(man, f) for f in (curves_a, curves_b))
    pairs = {}
    for a, b, k, l, theta, u in _curve_hits(man, fam_a.laid, fam_b.laid):
        A = fam_a.branches[a]
        z = A.point(k, theta)
        out = pairs.setdefault((int(fam_a.curve[a]), int(fam_b.curve[b])),
                               [])
        if all(A.system.manifold.distance(z, c.point) > 1e-9 for c in out):
            out.append(Crossing(z, A, k, theta, fam_b.branches[b], l, u))
    return Crossings(pairs, _end_errors(man, fam_a, fam_b))


def orientation_class(man, cp):
    """Sign of cp's ordered eigenframe (U | S) in the manifold's
    orientation.  A frame that spans the tangent space keeps this class
    under any flow, so a top-dimensional W^u or W^s of cp is oriented by
    it at every point."""
    return orientation_sign(man.oriented_tangent_basis(cp.point), cp.frame)


BRANCH, LEVEL = "branch", "level"


def _connection_search(system, x_cp, y_cp):
    """The one rule (module docstring) that picks the search for x -> y;
    any other pair raises before a flow is launched."""
    if x_cp.index - y_cp.index != 1:
        raise ValueError("connections require index difference one, got "
                         "%d - %d" % (x_cp.index, y_cp.index))
    dim = system.manifold.dim
    if x_cp.index == 1 or y_cp.index == dim - 1:
        return BRANCH
    if dim == 3:
        return LEVEL
    raise UnsupportedPairError(
        "no connection search reaches %s of index %d -> %s of index %d in "
        "dimension %d" % (x_cp.name, x_cp.index, y_cp.name, y_cp.index, dim),
        names=(x_cp.name, y_cp.name), indices=(x_cp.index, y_cp.index))


# one line from x to y: its direction in x's unstable frame, its sign,
# and ``path``, a callable giving its (times, points) from x to y, or None
# for a branch read by its ends alone
Line = namedtuple("Line", "u sign path")


def _lines(system, x_cp, y_cp, k, read=branch_ends):
    """The ``Line`` of each line from x to y, by the search
    ``_connection_search`` picks: each branch that ends at the other point,
    as ``read`` gives it (``_branch_lines``), or each crossing on a level
    at resolution k (``_level_lines``)."""
    if _connection_search(system, x_cp, y_cp) == BRANCH:
        return _branch_lines(system, x_cp, y_cp, read)
    return _level_lines(system, x_cp, y_cp, k)


def _branch_lines(system, x_cp, y_cp, read):
    """The ``Line`` of each line from x to y: each branch of W^u(x) if x
    has index 1, else of W^s(y), whose limit is the other point, as
    ``read`` gives it: ``branch_ends`` for the limits alone, or
    ``branches`` for the curves, whose nodes are the path.

    From x of index 1, direction and sign are the branch's side: the
    linearised flow carries the velocity to itself, and the minimum y adds
    only the flow direction.  Into y of index dim - 1, x has top index, so
    its carried frame keeps the orientation class of x, and near y the flow
    runs along -side S_y: the sign is -side times the classes of x and y.
    The direction is where the branch's end lies from x, in x's unstable
    frame.
    """
    if x_cp.index == 1:
        return [Line(np.array([float(b.side)]), b.side, b.path)
                for b in read(system, x_cp, +1)
                if b.limit.name == y_cp.name]
    man = system.manifold
    eps = orientation_class(man, x_cp) * orientation_class(man, y_cp)
    out = []
    for b in read(system, y_cp, -1):
        if b.limit.name == x_cp.name:
            u = x_cp.unstable_frame.T @ man.displacement(x_cp.point, b.x_end)
            out.append(Line(u / np.linalg.norm(u), -b.side * eps, b.path))
    return out


# -- the level search --------------------------------------------------------------

# the chord bound of a level curve at DEFAULT_K_CIRCLE angles; k angles
# take it times DEFAULT_K_CIRCLE / k, so the gate's doubled run halves it
_LEVEL_CHORD = 0.1
# a chord still above its bound across fewer radians than this is a split
_SPLIT_ANGLE = 1e-9


def _level(system, x_cp, y_cp):
    """c: the midpoint of the widest gap of (f(y), f(x)) that holds no
    critical value of the catalog."""
    lo, hi = y_cp.value, x_cp.value
    cuts = sorted({lo, hi, *(v for v in system.catalog["value"].tolist()
                             if lo < v < hi)})
    a, b = max(zip(cuts, cuts[1:]), key=lambda gap: gap[1] - gap[0])
    return 0.5 * (a + b)


def _level_flight(system, cp, direction, c, angle):
    """The recorded flight from cp's unstable circle (direction +1) or
    stable circle (-1) of radius ``RHO`` at ``angle``, which stops at its
    first point past f = c (``flow.trap_family`` of no row), and must
    converge: past the level with limit None, or into a ball."""
    frame = cp.unstable_frame if direction == +1 else cp.stable_frame
    start = system.manifold.project(
        cp.point + RHO * (frame @ [math.cos(angle), math.sin(angle)]))
    return _resolved(flow(system, start, direction,
                          trap=Kernel(trap_family(), direction * c)),
                     "level flight of %s" % cp.name)


def _level_read(system, res, direction, c, name):
    """(z, t): where the level flight ``res`` of ``name`` crosses f = c,
    and when, read off its last chord p0 -> p1 by linear interpolation in
    the driving values f0 >= direction c > f1: a count needs each crossing
    and its sign, not the point to the last digit.  A flight with no such
    chord (one node, or into a ball) raises ``CountingIncompleteError``
    naming it, with the fields of ``_resolved``."""
    if res.limit is not None or len(res.times) < 2:
        raise CountingIncompleteError(
            "level flight of %s has no chord across f = %.6g" % (name, c),
            status=res.status, t_end=res.t_end, steps=res.steps)
    (f0, f1), (t0, t1), (p0, p1) = (res.f_values[-2:], res.times[-2:],
                                    res.points[-2:])
    w = (f0 - direction * c) / (f0 - f1)
    man = system.manifold
    return man.project(p0 + w * man.displacement(p0, p1)), t0 + w * (t1 - t0)


def _level_point(system, cp, direction, c, t):
    """The level point of the flight at ``circle_angle(t)``
    (``_level_read``), or None for a flight that enters a ball before the
    level.  Kept in the call's store by the exact fraction t, so the
    gate's doubled run reads the points of its first run."""
    def read():
        res = _level_flight(system, cp, direction, c, circle_angle(t))
        return (None if res.limit is not None else
                _level_read(system, res, direction, c, cp.name)[0])

    return _keep((_level_point, system, cp.name, direction, c, t), read)


LevelCurve = namedtuple("LevelCurve", "t points whole")


def _level_curve(system, cp, direction, c, k):
    """W^u(cp) (direction +1) or W^s(cp) (-1) on the level f = c, as a
    ``LevelCurve``: a closed polyline of the level points, its last node
    its first, their t (a fraction of the turn of cp's circle, the last
    one plus 1), and whether each chord is whole.  The k points j / k are
    refined by bisecting each chord longer than ``_LEVEL_CHORD``
    DEFAULT_K_CIRCLE / k; a chord still that long across fewer than
    ``_SPLIT_ANGLE`` radians is a split, not whole, and so is a chord over
    a point whose flight enters a ball (``_level_point``)."""
    bound = _LEVEL_CHORD * DEFAULT_K_CIRCLE / k
    displacement = system.manifold.displacement

    def nodes(t0, t1):
        # (t, point, whole) of the nodes on [t0, t1)
        p0, p1 = (_level_point(system, cp, direction, c, t % 1)
                  for t in (t0, t1))
        if (p0 is not None and p1 is not None
                and np.linalg.norm(displacement(p0, p1)) <= bound):
            return [(t0, p0, True)]
        if 2.0 * math.pi * (t1 - t0) < _SPLIT_ANGLE:
            return [] if p0 is None else [(t0, p0, False)]
        mid = (t0 + t1) / 2
        return nodes(t0, mid) + nodes(mid, t1)

    t, points, whole = zip(*(node for j in range(k) for node in nodes(
        Fraction(j, k), Fraction(j + 1, k))))
    return LevelCurve(t + (t[0] + 1,), np.array(points + points[:1]), whole)


LevelChart = namedtuple("LevelChart", "displacement tangent_basis")


def _level_chart(system):
    """The chart of a level of f for ``_chord_hits``: the manifold's own
    displacement, and at p the part of its tangent basis orthogonal to
    grad f."""
    man = system.manifold

    def tangent_basis(p):
        T = man.tangent_basis(p)
        g = T.T @ system.field(p)
        return T @ np.linalg.qr(np.column_stack([g, np.eye(len(g))]))[0][
            :, 1:]

    return LevelChart(man.displacement, tangent_basis)


def connection_sign(system, y_cp, z, d_p, d_q):
    """Sign of the line of a 3-manifold through z on a level of f, where
    the chord d_p of W^u(x) and the chord d_q of W^s(y) cross, each taken
    in increasing angle of x's unstable and y's stable frame: the
    orientation of (d_p, d_q, grad f(z)), times the orientation class of
    y."""
    man = system.manifold
    cols = [man.tangent_project(z, d) for d in (d_p, d_q)]
    cols.append(-system.field(z))
    frame = np.stack([v / np.linalg.norm(v) for v in cols], axis=1)
    return orientation_sign(man.oriented_tangent_basis(z), frame,
                            floor=1e-8) * orientation_class(man, y_cp)


def _level_lines(system, x_cp, y_cp, k):
    """The ``Line`` of each line from x (index 2) to y (index 1) on a
    3-manifold: where P = W^u(x) and Q = W^s(y) cross on the level f = c
    (``_level``), as chord hits of their curves (``_level_curve``) on the
    level's chart (``_level_chart``).  Its direction is u in x's unstable
    frame at the hit's interpolated angle, and its path the two
    half-flights at u and at v in y's stable frame (``_joined_line``).  A
    pair with f(x) <= f(y) has no line and flies nothing.  A hit on a
    chord that is not whole is no crossing, and a hit beside one raises
    ``CountingIncompleteError`` with the pair's ``names``, the split's
    ``gap`` of angles, and the ``hit``.  Kept in the call's store."""
    def lines():
        if x_cp.value <= y_cp.value:
            return []
        c = _level(system, x_cp, y_cp)
        chart = _level_chart(system)
        with keeping():
            P, Q = (_level_curve(system, cp, direction, c, k)
                    for cp, direction in ((x_cp, +1), (y_cp, -1)))
        man = system.manifold
        out = []
        for i, j, s, u in _chord_hits(chart, P.points, Q.points):
            if not (P.whole[i] and Q.whole[j]):
                continue
            z = man.project(P.points[i] + s * man.displacement(
                P.points[i], P.points[i + 1]))
            for curve, m, name in ((P, i, "W^u(x)"), (Q, j, "W^s(y)")):
                for e in (m - 1, m + 1):
                    e %= len(curve.whole)
                    if not curve.whole[e]:
                        raise CountingIncompleteError(
                            "%s -> %s: a crossing lies beside a split of %s "
                            "on the level f = %.6g" % (x_cp.name, y_cp.name,
                                                       name, c),
                            names=(x_cp.name, y_cp.name),
                            gap=tuple(map(circle_angle, curve.t[e:e + 2])),
                            hit=z.tolist())
            dir_x, dir_y = (np.array([math.cos(a), math.sin(a)]) for a in (
                circle_angle(t0) + w * (circle_angle(t1) - circle_angle(t0))
                for (t0, t1), w in ((P.t[i:i + 2], s), (Q.t[j:j + 2], u))))
            sign = connection_sign(system, y_cp, z, *(
                man.displacement(*R[m:m + 2])
                for R, m in ((P.points, i), (Q.points, j))))
            out.append(Line(dir_x, sign, partial(_joined_line, system, x_cp,
                                                 y_cp, dir_x, dir_y)))
        return out

    return _keep((_level_lines, system, x_cp.name, y_cp.name, k), lines)


def _joined_line(system, x_cp, y_cp, u, v):
    """(times, points) of the level line at u in x's unstable frame and v
    in y's stable frame: the recorded flight from x at u down to the
    level, then the recorded flight from y at v reversed, joined where x's
    flight crosses the level (``_level_read``)."""
    c = _level(system, x_cp, y_cp)
    halves = []
    for cp, direction, w in ((x_cp, +1, u), (y_cp, -1, v)):
        res = _level_flight(system, cp, direction, c, math.atan2(w[1], w[0]))
        halves.append((res.times[:-1], res.points[:-1],
                       *_level_read(system, res, direction, c, cp.name)))
    (tx, px, z, t_c), (ty, py, _z, t_y) = halves
    return (np.concatenate([tx, [t_c], t_c + t_y - ty[::-1]]),
            np.concatenate([px, z[None, :], py[::-1]]))


def connection_lines(system, x_cp, y_cp):
    """(direction, times, points) of each line from x to y (``_lines``),
    its path read off the branch curve's nodes or the level line's two
    recorded half-flights.  It reads each curve once, so it keeps one only
    inside an open ``keeping`` block."""
    return [(line.u, *line.path())
            for line in _lines(system, x_cp, y_cp, DEFAULT_K_CIRCLE,
                               branches)]


def find_connections(system, x_cp, y_cp, k=DEFAULT_K_CIRCLE):
    """Directions on the unstable sphere of x whose flow lines reach y
    (``_lines``), at resolution k for the level search.  Branch lines are
    read off their limits, once, so they are kept only inside an open
    ``keeping`` block."""
    return [line.u for line in _lines(system, x_cp, y_cp, k)]


def count_flow_lines(system, x_cp, y_cp, ring=RING_Z):
    """Signed (or mod-2) number of flow lines between index-adjacent points.

    Every line takes its sign in closed form (``_lines``): branch lines
    from their branch's side, which have no resolution to double, and
    level lines from their crossing (``connection_sign``), whose counts
    pass the doubling gate, one ``find_connections`` per resolution.
    """
    if isinstance(x_cp, str):
        x_cp = system.point(x_cp)
    if isinstance(y_cp, str):
        y_cp = system.point(y_cp)

    def run(k):
        dirs = find_connections(system, x_cp, y_cp, k=k)
        if ring == RING_Z2:
            return len(dirs) % 2, len(dirs)
        # the lines are kept in the call's store: this read flies nothing
        return (sum(line.sign for line in _lines(system, x_cp, y_cp, k)),
                len(dirs))

    with keeping():
        if _connection_search(system, x_cp, y_cp) == LEVEL:
            return gated(run, DEFAULT_K_CIRCLE,
                         "count %s->%s" % (x_cp.name, y_cp.name))
        return run(DEFAULT_K_CIRCLE)[0]


# the store of the open ``keeping`` block: kept flows by keys that name
# their owner (a system or a figure-8 problem) itself
_KEPT = ContextVar("kept", default=None)


@contextmanager
def keeping():
    """Keep the flows a public call flies until the outermost block ends,
    however it ends; an inner block joins the outer one's store."""
    if _KEPT.get() is not None:
        yield
        return
    token = _KEPT.set({})
    try:
        yield
    finally:
        _KEPT.reset(token)


def _kept(key):
    """What the open ``keeping`` block's store keeps by ``key``, or None:
    a read that makes nothing."""
    return (_KEPT.get() or {}).get(key)


def _keep(key, make):
    """``make()``, kept in the open ``keeping`` block's store by ``key``
    and made once per block; outside any block, made on every call.  A
    key starts with the function that makes the value, then what it was
    made of, so two makers never share a key."""
    store = _KEPT.get()
    if store is None:
        return make()
    if key not in store:
        store[key] = make()
    return store[key]


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


def boundary_operator(system, ring=RING_Z):
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
    with keeping():
        maps = graded_matrices(
            degrees, lambda p: system.by_index(p - 1), system.by_index,
            lambda x_cp, y_cp: count_flow_lines(system, x_cp, y_cp,
                                                ring=ring))
    return GradedComplex(gens, maps, ring=ring)


def morse_homology(system, ring=RING_Z):
    return homology(boundary_operator(system, ring=ring))


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


BOUNDARY_SAMPLES = 512  # seeded points projected onto a region's boundary


def check_region_admissible(system, region):
    """Verify the outward-gradient condition on the region boundary.

    Critical points must stay 0.001 clear of {aux = level}.  On it, grad
    f must point out of the region, transversally, so descending flows
    only enter it: <grad f, a> >= 1e-6, with a the tangent part of the
    central differences of ``region.aux`` along the axes.  That is
    checked at ``BOUNDARY_SAMPLES`` seeded points, each Newton-projected
    onto the boundary, z <- project(z - (aux(z) - level) a / |a|^2); a
    point whose a vanishes (the whole empty region) or that does not
    converge is skipped.  A refusal names the region, the boundary point
    of least margin and that margin.
    """
    man = system.manifold
    for cp in system.critical_points:
        if abs(region.signed_coordinate(cp.point)) < 1e-3:
            raise AdmissibilityError(
                "critical point %s lies within 0.001 of the region boundary"
                % cp.name, region=region.name, point=cp.point.tolist())
    frame = np.eye(man.coord_dim)
    rng = np.random.default_rng(0)
    worst = (1e-6, None)
    for _ in range(BOUNDARY_SAMPLES):
        z = man.random_point(rng)
        for _ in range(50):
            a = man.tangent_project(z, man.central_differences(
                region.aux, z, frame)[0])
            if not a.any():
                break
            r = region.signed_coordinate(z)
            if abs(r) < 1e-12:
                worst = min(worst, (float(np.dot(system.grad(z), a)), z),
                            key=lambda w: w[0])
                break
            z = man.project(z - (r / np.dot(a, a)) * a)
    margin, z = worst
    if z is not None:
        raise AdmissibilityError(
            "gradient not outward-transverse on the boundary of %s: margin "
            "%.3g at %s" % (region.name, margin, np.round(z, 6).tolist()),
            region=region.name, point=z.tolist(), margin=margin)


def relative_complex(system, region, ring=RING_Z):
    """Split the Morse complex along the region; returns a RelativePair."""
    check_region_admissible(system, region)
    total = boundary_operator(system, ring=ring)
    members = {cp.name: region.contains(cp.point)
               for cp in system.critical_points}
    return split_complex(total, lambda p, name: members[name])


# -- continuation ------------------------------------------------------------------

def _systems_identical(sys_f, sys_g):
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
        if sys_f.manifold.distance(a.point, b.point) > 1e-9:
            return False
    rng = np.random.default_rng(0)
    for _ in range(8):
        x = sys_f.manifold.random_point(rng)
        if np.linalg.norm(sys_f.field(x) - sys_g.field(x)) > 1e-9:
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
    return flow_limit(system, z, -1, what="backward flow from the point")


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
    with keeping():
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
        limit = flow_limit(sys_g, start, +1,
                           what="flow from the image of %s" % m_cp.name)
        return 1 if limit.name == m2_cp.name else 0
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
            man, [[b.mapped(image) for b in branches(sys_f, m_cp, +1)]],
            [branches(sys_g, m2_cp, -1)])[0, 0]:
        total += orientation_sign(
            man.oriented_tangent_basis(c.b.point(c.l, c.u)),
            np.hstack([c.a.tangent(c.k, c.theta, man, c.point),
                       c.b.tangent(c.l, c.u)]),
            floor=1e-8) * orientation_class(man, m2_cp)
    return total
