"""Independent reference constructions used to cross-check Morse output.

The complexes here are built from explicit cell structures (simplicial or
delta-complex boundary matrices, tensor products of complexes), with no use
of the flow-counting machinery.  The curve searches measure every
segment, where ``morseflow.counting`` skips the ones that cannot matter.
The sign of a flow line at the end is the long way round: a frame carried
along a strict flow that enters the target's ball.  A point of a level is
landed on it by flowing, where the level search reads it off a chord.  A
catalog's Hessian is differenced one column at a time, where the package
takes every derivative through ``ManifoldModel.central_differences``.
"""

import math
from itertools import combinations

import numpy as np

from morseflow.complexes import GradedComplex
from morseflow.counting import Crossing, orientation_class
from morseflow.errors import DegenerateCrossingError, OrientationError
from morseflow.geometry.flow import (
    CONVERGED,
    fixed_time_flow,
    flow,
    orientation_sign,
    orthonormalize,
    parallel_frame,
    transport_frame,
)


def simplicial_chain_complex(facets):
    """Chain complex of the simplicial complex generated by ``facets``."""
    simplices = {}
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            for s in combinations(f, k):
                simplices.setdefault(len(s) - 1, set()).add(s)
    by_dim = {d: sorted(simplices[d]) for d in simplices}
    gens = {d: tuple("s" + "".join(map(str, s)) for s in by_dim[d])
            for d in by_dim}
    maps = {}
    for d in by_dim:
        if d == 0:
            continue
        rows = {s: i for i, s in enumerate(by_dim[d - 1])}
        mat = np.zeros((len(by_dim[d - 1]), len(by_dim[d])), dtype=object)
        for j, s in enumerate(by_dim[d]):
            for k in range(len(s)):
                face = s[:k] + s[k + 1:]
                mat[rows[face], j] = (-1) ** k
        maps[d] = mat
    return GradedComplex(gens, maps)


def sphere2_complex():
    """Boundary of the tetrahedron."""
    return simplicial_chain_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3),
                                     (1, 2, 3)])


def circle_complex():
    """One vertex, one loop edge."""
    return GradedComplex({0: ("v",), 1: ("a",)},
                         {1: np.zeros((1, 1), dtype=object)})


def torus_delta_complex():
    """Square with identified sides: one vertex, edges a,b,c, two triangles."""
    mat = np.array([[1, 1], [1, 1], [-1, -1]], dtype=object)
    return GradedComplex({0: ("v",), 1: ("a", "b", "c"), 2: ("U", "L")},
                         {1: np.zeros((1, 3), dtype=object), 2: mat})


def tensor_complex(c1, c2):
    """Tensor product of chain complexes with the usual sign rule."""
    degrees = {}
    for p in c1.degrees():
        for q in c2.degrees():
            degrees.setdefault(p + q, []).extend(
                (p, q, i, j)
                for i in range(c1.dim(p)) for j in range(c2.dim(q)))
    gens = {}
    index = {}
    for n, items in degrees.items():
        labels = []
        for pos, (p, q, i, j) in enumerate(items):
            labels.append("%s|%s" % (c1.labels(p)[i], c2.labels(q)[j]))
            index[(p, q, i, j)] = (n, pos)
        gens[n] = tuple(labels)
    maps = {}
    for n, items in degrees.items():
        if (n - 1) not in degrees:
            continue
        mat = np.zeros((len(degrees[n - 1]), len(items)), dtype=object)
        for col, (p, q, i, j) in enumerate(items):
            d1 = c1.map_from(p)
            for r in range(c1.dim(p - 1)):
                if d1.size and int(d1[r, i]):
                    _, row = index[(p - 1, q, r, j)]
                    mat[row, col] += int(d1[r, i])
            d2 = c2.map_from(q)
            for r in range(c2.dim(q - 1)):
                if d2.size and int(d2[r, j]):
                    _, row = index[(p, q - 1, i, r)]
                    mat[row, col] += (-1) ** p * int(d2[r, j])
        maps[n] = mat
    return GradedComplex(gens, maps)


def torus3_complex():
    return tensor_complex(torus_delta_complex(), circle_complex())


def s2xs2_complex():
    return tensor_complex(sphere2_complex(), sphere2_complex())


# Classical intersection products on the torus, written in the basis
# (point, circle_1, circle_2, fundamental class).  circle_i is the class
# whose representative winds once in coordinate direction i; eps fixes the
# sign of circle_1 . circle_2 = eps * point.
def torus_intersection_table(eps=1):
    table = {}
    basis = ["pt", "c1", "c2", "top"]
    deg = {"pt": 0, "c1": 1, "c2": 1, "top": 2}
    for a in basis:
        for b in basis:
            table[(a, b)] = {}
    table[("top", "top")] = {"top": 1}
    table[("top", "pt")] = {"pt": 1}
    table[("pt", "top")] = {"pt": 1}
    table[("top", "c1")] = {"c1": 1}
    table[("c1", "top")] = {"c1": 1}
    table[("top", "c2")] = {"c2": 1}
    table[("c2", "top")] = {"c2": 1}
    table[("c1", "c2")] = {"pt": eps}
    table[("c2", "c1")] = {"pt": -eps}
    return basis, deg, table


def chord_hits_all_pairs(man, P, Q):
    """Every chord crossing of the polylines P and Q, found by charting all
    segment pairs whose starts are closer than their summed lengths: the
    (i, j, s, u) of P[i] + s (P[i+1] - P[i]) = Q[j] + u (Q[j+1] - Q[j])
    with s, u in [0, 1), in ``np.nonzero`` order of the pair matrix."""
    da, db = (man.displacement(R[:-1], R[1:]) for R in (P, Q))
    rel = man.displacement(P[:-1, None, :], Q[None, :-1, :])
    near = np.linalg.norm(rel, axis=2) <= (
        np.linalg.norm(da, axis=1)[:, None] + np.linalg.norm(db, axis=1))
    out = []
    for i, j in zip(*np.nonzero(near)):
        T = man.tangent_basis(P[i])
        a, b, r = T.T @ da[i], T.T @ db[j], T.T @ rel[i, j]
        den = a[0] * b[1] - a[1] * b[0]
        if den == 0.0:
            continue
        s = (r[0] * b[1] - r[1] * b[0]) / den
        u = (r[0] * a[1] - r[1] * a[0]) / den
        if 0.0 <= s < 1.0 and 0.0 <= u < 1.0:
            out.append((int(i), int(j), s, u))
    return out


def _end_on(man, ends, starts, stops):
    """(gap, segment, parameter) of the point nearest to each row of
    ``ends`` on the segments from ``starts`` to ``stops``, on the chart at
    each segment's start."""
    d = man.displacement(starts, stops)
    rel = man.displacement(starts[None, :, :], ends[:, None, :])
    t = np.clip(np.sum(rel * d, axis=2)
                / np.maximum(np.sum(d * d, axis=1), 1e-300), 0.0, 1.0)
    gaps = np.linalg.norm(rel - t[..., None] * d, axis=2)
    k = np.argmin(gaps, axis=1)
    rows = np.arange(len(ends))
    return gaps[rows, k], k, t[rows, k]


def check_ends_all_segments(man, curve_a, curve_b, end_gap=1e-10):
    """Raise ``DegenerateCrossingError`` when an end of a branch of one
    curve lies within ``end_gap`` of a branch of the other, measuring every
    end against every segment; the first end found is reported, with the
    nearest segment to it."""
    for ends_of, others, of_a in ((curve_a, curve_b, True),
                                  (curve_b, curve_a, False)):
        first = np.cumsum([0] + [len(C.x) - 1 for C in others])
        gaps, k, t = _end_on(
            man, np.concatenate([E.x[[0, -1]] for E in ends_of]),
            np.concatenate([C.x[:-1] for C in others]),
            np.concatenate([C.x[1:] for C in others]))
        for e in np.nonzero(gaps <= end_gap)[0]:
            E = ends_of[e // 2]
            c = int(np.searchsorted(first, k[e], side="right")) - 1
            at_end = (0, 0.0) if e % 2 == 0 else (len(E.x) - 2, 1.0)
            on = (int(k[e] - first[c]), float(t[e]))
            pair = ((E, *at_end), (others[c], *on))
            (A, i, s), (B, j, u) = pair if of_a else pair[::-1]
            raise DegenerateCrossingError(
                "the branch curves into %s and %s meet within %.3g of an "
                "end, a critical point or its image" % (
                    A.limit.name, B.limit.name, gaps[e]),
                systems=(A.system.name, B.system.name),
                limits=(A.limit.name, B.limit.name), segments=(i, j),
                params=(s, u))


def curve_intersections_per_pair(man, curve_a, curve_b):
    """``counting.curve_intersections`` one branch pair at a time, on
    ``check_ends_all_segments`` and ``chord_hits_all_pairs``."""
    check_ends_all_segments(man, curve_a, curve_b)
    out = []
    for A in curve_a:
        for B in curve_b:
            for k, l, theta, u in chord_hits_all_pairs(man, A.x, B.x):
                z = A.point(k, theta)
                if all(A.system.manifold.distance(z, c.point) > 1e-9
                       for c in out):
                    out.append(Crossing(z, A, k, theta, B, l, u))
    return out


def landed_point(system, p, c):
    """(z, dt): the point z where the trajectory through p crosses f = c,
    and the time dt from p to z along the descending flow.  p is flown on
    or back along the flow for |f - c| / |grad f|^2 until |f - c| <
    1e-14, at most 8 times: flowing keeps it on its trajectory."""
    dt = 0.0
    for _ in range(8):
        gap = float(system.f(p)) - c
        if abs(gap) < 1e-14:
            return p, dt
        v = system.field(p)
        duration = abs(gap) / float(v @ v)
        p = fixed_time_flow(system, p, duration, 1 if gap > 0 else -1,
                            record=False).x_end
        dt += math.copysign(duration, gap)
    raise AssertionError("no landing on f = %r (f - c = %.3g)" % (c, gap))


def direction_point(system, cp, rho, u):
    """Manifold point at unstable-frame direction u and radius rho."""
    return system.manifold.project(cp.point + rho * (cp.unstable_frame @ u))


def _strict_flight(system, x_cp, a, rho):
    """The recorded strict flow from x's unstable circle of radius rho at
    angle a."""
    return flow(system, direction_point(
        system, x_cp, rho, np.array([math.cos(a), math.sin(a)])), +1)


def _enters(res, y_cp):
    return res.status == CONVERGED and res.limit.name == y_cp.name


def refined_angle(system, x_cp, y_cp, u, rho, spread=1e-3, tol=1e-14):
    """The angle near direction u on x's unstable circle whose strict flow
    enters y's ball, or None.  The angles u +- spread must pass y on
    opposite sides of W^s(y), read off the sign of the offset along y's
    unstable direction at the node nearest y; the bracket is bisected on
    that sign down to ``tol``, and the last angle is returned whether its
    flow enters the ball or not."""
    man = system.manifold

    def side(a):
        res = _strict_flight(system, x_cp, a, rho)
        if _enters(res, y_cp):
            return 0.0
        near = res.points[np.argmin(man.distances(y_cp.point, res.points))]
        return np.sign(y_cp.unstable_frame[:, 0]
                       @ man.displacement(y_cp.point, near))

    a = math.atan2(u[1], u[0])
    lo, hi = a - spread, a + spread
    s_lo = side(lo)
    if s_lo * side(hi) >= 0.0:
        return None
    while hi - lo > tol:
        a = 0.5 * (lo + hi)
        s = side(a)
        if s == 0.0:
            return a
        if s == s_lo:
            lo = a
        else:
            hi = a
    return 0.5 * (lo + hi)


def transported_sign(system, x_cp, y_cp, a, rho):
    """The sign of the line from x of index 2 leaving at angle a of x's
    unstable circle, or None when its strict flow misses y's ball: x's
    ordered unstable frame carried along the flow (``transport_frame``)
    to the first node within max(100 eps_conv, 1e-4) of y, against y's
    unstable frame followed by the flow direction there."""
    res = _strict_flight(system, x_cp, a, rho)
    if not _enters(res, y_cp):
        return None
    man, pts = system.manifold, res.points
    radius = max(100.0 * system.eps_conv, 1e-4)
    cut = next((i for i, p in enumerate(pts)
                if man.distance(p, y_cp.point) <= radius), len(pts) - 1)
    moved = transport_frame(man, system.field, res.times[:cut + 1],
                            pts[:cut + 1], x_cp.unstable_frame)
    v = system.field(pts[cut])
    ref = orthonormalize(np.column_stack([
        parallel_frame(man, pts[cut], y_cp.unstable_frame),
        v / np.linalg.norm(v)]))
    return orientation_sign(moved, ref)


def loop_covariant_hessian(manifold, grad, x):
    """The covariant Hessian in the tangent basis B at x, and B: column j
    is B^T (g(x_j+) - g(x_j-)) / 2h, for g the tangential gradient and x_j+-
    the projections of x +- h b_j, h = 1e-6, symmetrized."""
    h = 1e-6
    basis = manifold.tangent_basis(x)
    n = basis.shape[1]
    H = np.zeros((n, n))
    for j in range(n):
        xp = manifold.project(x + h * basis[:, j])
        xm = manifold.project(x - h * basis[:, j])
        gp = manifold.tangent_project(xp, grad(xp))
        gm = manifold.tangent_project(xm, grad(xm))
        H[:, j] = basis.T @ (gp - gm) / (2 * h)
    return 0.5 * (H + H.T), basis


def doubled_tangent_det(problem, a1, a2, a3, x, frames):
    """The determinant of a figure-8 configuration at x in the doubled
    tangent space: of the 2n x 2n matrix [[U1, 0, S], [0, U2, S]] in the
    basis B at x, the incoming unstable frames U1 (first copy of T_x) and
    U2 (second copy) against the diagonal copy of the outgoing stable frame
    S.  A frame of dimension 0 is empty, one of dimension n the basis at x
    with its first column signed by its point's class, and a
    one-dimensional one its tangent in ``frames``, keyed by system."""
    E1, E2 = problem.incoming
    E3 = problem.outgoing[0]
    man = problem.manifold
    n = man.dim
    B = man.oriented_tangent_basis(x)

    def frame(system, cp, d):
        if d == 0:
            return np.zeros((man.coord_dim, 0))
        if d < n:
            return frames[system]
        F = B.copy()
        F[:, 0] *= orientation_class(man, cp)
        return F

    U1, U2 = frame(E1, a1, a1.index), frame(E2, a2, a2.index)
    S = frame(E3, a3, n - a3.index)
    i1, i2 = a1.index, a2.index
    assert i1 + i2 + S.shape[1] == 2 * n
    M = np.zeros((2 * n, 2 * n))
    M[:n, :i1] = B.T @ U1
    M[n:, i1:i1 + i2] = B.T @ U2
    M[:n, i1 + i2:] = M[n:, i1 + i2:] = B.T @ S
    return float(np.linalg.det(M))


def doubled_tangent_sign(problem, a1, a2, a3, x, frames):
    """The sign of ``doubled_tangent_det`` times the orientation class of
    a3; a determinant below 1e-8 raises ``OrientationError``."""
    det = doubled_tangent_det(problem, a1, a2, a3, x, frames)
    man = problem.manifold
    if abs(det) < 1e-8:
        raise OrientationError("degenerate configuration determinant")
    return (1 if det > 0 else -1) * orientation_class(man, a3)
