"""Gradient-flow integration and frame transport.

The stepper is an embedded Cash-Karp 4(5) pair with per-step reprojection
to the manifold, a step-length cap that guarantees event balls are never
jumped over, and a strict monotonicity assertion on the driving function.
It runs float-exact to the written-out tableau (the same IEEE operations in
the same order, not a matrix product), so that every trajectory equals the
numpy reference loop of the tests bit for bit.  No count needs those last
bits any more: the 3-manifold counts cross curves on a level, and read
each crossing off chords, not off a flow's entry into a ball.

``integrate`` runs the one integration loop, which one writer
(``_loop_template``) generates per state dimension n and per combination
of kernel families: straight-line Python with the state unpacked into
locals, the Cash-Karp stages, the three square sums (error, speed and
tolerance scale), step control, event tracking and recording in one
function body.  It reads the system through four float kernels: the field
and the driving function (``float_kernels`` of the system), the projection
(``project_floats`` of the manifold) and the distance sweep to the catalog
(``distance_sweep``).  Each kernel decides how the loop takes it:

- a ``_unroll.Kernel`` brings a family whose lines the loop writes in.
  Tori with cosine wells give kernels of the cosine-well, wrap and sweep
  families, the lines that also make their standalone kernels, so the two
  cannot drift apart, and a T2 step calls no function written in Python;
- a plain callable on lists of floats is called through an adapter family.
  Spheres, bands, products, hand-built systems and the figure-8
  ``AuxiliaryFunction`` adapt their numpy methods this way (a sphere
  projects in Python), which give the same bits by construction.

So a system whose hooks return the numpy adapters runs the adapter loop.
The loop is cached by (template, n, families), which is code only: a
system's numbers reach it as arguments, and it retains nothing.  A kernel
written in must equal the numpy expression it replaces bit for bit, so it
follows these rules, checked in ``tests/test_geometry.py``:

- ``math.sin`` and ``math.cos`` equal ``np.sin`` and ``np.cos``, and
  Python's float ``%`` equals ``np.mod``;
- ``np.sum`` and ``add.reduce(axis=1)`` add fewer than 8 entries left to
  right, ``(a0 + a1) + a2``; from 8 on they keep eight running sums r_j of
  the entries j, j + 8, ..., add them as ((r0 + r1) + (r2 + r3)) + ((r4 +
  r5) + (r6 + r7)) and then the rest left to right.  A kernel writes its
  sums in that order (``_unroll.numpy_sum``), never with Python's ``sum``,
  which compensates from Python 3.12 on;
- negation commutes with rounding, so a kernel may fold a sign into a
  product;
- every norm on a flow's path (the error norm, the speed and the
  tolerance scale) is the square root of the sum of the squares in
  numpy's order (``_unroll.square_sum``), ``sqrt(np.sum(v * v))`` bit for
  bit, so no trajectory depends on the machine's BLAS.

Beside the arithmetic, the loop keeps only the bookkeeping a flow needs:

- a torus catalog is swept row by row into locals as squared distances
  s_j; the loop keeps their first minimum by strict ``<`` tests and takes
  one square root per point, dmin = sqrt(min s_j).  IEEE ``sqrt`` is
  correctly rounded and monotone, so sqrt(min s_j) = min sqrt(s_j), nan
  and inf pass the same comparisons, and the first row whose root is dmin
  is the row that the distances' first minimum names.  The roots of every
  row are taken only to name the limit;
- the step cap h <= base / speed, with base half the distance to the
  catalog clamped to [0.45 eps, 0.25] (0.25 without a sweep), keeps a
  step from jumping a strict ball.  The speed is taken once per accepted
  point, beside the size, and kept across rejected retries;
- the path is one flat list, which ``integrate`` reshapes once.

A flow may also carry a level trap (``trap_family``, its level from
``systems.level_trap``), which ends it once its limit is proven, short
of the strict ball.  A flow line ends at a critical point whose driving
value is at or below its own, so once it lies below the second-lowest
critical value c_2 of its driving function, its limit is the one
critical point below c_2, that function's minimum (Milnor, Morse Theory,
section 3).  For uncoupled cosine wells f = sum a_i cos(theta_i -
phi_i), every a_i > 0, the critical points are the 2^n points theta_i -
phi_i in {0, pi}, with the values -sum a_i + 2 sum of the a_i at 0: the
one minimum m = phi + pi has -sum a_i, and c_2 = -sum a_i + 2 min a_i.
An ascending flow drives -f, whose values are f's negated: its minimum
is f's maximum M = phi, and its c_2 is -(sum a_i - 2 min a_i), the same
number.  After each sweep the loop tests the driving value alone against
the level, c_2 less a margin that covers the rounding of the loop's
value at any point of the torus, and names the trap's catalog row, of
index 0 descending and of index n ascending, the limit.  A trapped flow
ends CONVERGED at its first accepted point below the level, which may be
its start, with ``x_end`` anywhere in that sublevel set, not within eps
of the limit.  Only extrema of uncoupled wells are trapped, since only
there are the critical values closed-form: a coupling term moves them,
and other systems give none.  Only reads of a limit alone take the trap
(``counting.flow_limit`` and the descending ``counting._branch_flows``):
an ascending branch read into a top-index point gives
``find_connections`` its direction off ``x_end``, a curve read needs its
path up to the ball, and ``probe_limits`` reports the flows that are
unresolved at their time limit, which a trap would resolve early.  A flow
without a trap keeps every bit.  The level search of ``counting`` takes
the trap's other form, of no row (``trap_family(None)``): it stops a
flight at its first point past a level between two critical values,
proves no limit, and leaves the limit None.

Every flow runs one step control, the constants below.  A T2 branch
flow from 10 eps_conv off a saddle (about 119 steps) costs 3.1 us per
step unrecorded, as counts fly it, and 3.3-3.4 us recorded (the fastest
of 15 batches of the 408 branch flows of 51 T2 amplitudes, three
processes, a shared 2-CPU machine, Python 3.11).  A step on numpy
adapters (a sphere-band flow) costs about 32 us, most of it in the six
field calls.
The trap test costs less than the spread between runs, and a trapped
descending T2 branch flight flies 25 steps on average against 113 (the
204 descending branch flights of the 51 amplitudes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import GeometryError, IntegrationError, OrientationError
from ._unroll import Family, Kernel, adapted, names, square_sum, unrolled

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

# the step control of every flow: relative and absolute error per step,
# first and least step; step budget and default time limit
RTOL, ATOL, H_INIT, H_MIN = 1e-9, 1e-11, 1e-3, 1e-13
MAX_STEPS, T_MAX = 400_000, 400.0

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
    steps: int


ADAPTED_FIELD = adapted("adapted field", True)
ADAPTED_VALUE = adapted("adapted value", False)
ADAPTED_PROJECT = adapted("adapted projection", True)
ADAPTED_SWEEP = adapted("adapted sweep", False)
_ADAPTERS = (ADAPTED_FIELD, ADAPTED_VALUE, ADAPTED_PROJECT, ADAPTED_SWEEP,
             None)


@lru_cache(maxsize=64)
def trap_family(row=None):
    """The family of the level trap of catalog row ``row`` (module
    docstring), with the one parameter level.  Written after the sweep,
    its lines name the row the limit and run the statement ``out`` where
    the loop's driving value ``fv`` lies below the level.  Row None names
    no limit: the flow stops at its first point past the level, with limit
    None, as the level search of ``counting`` flies it.  Cached, so each
    row has one family."""
    def write(n, x, out, p):
        named = [] if row is None else ["    limit = names[%d]" % row]
        return ["if fv < %slevel:" % p] + named + ["    " + out]
    return Family("level stop" if row is None else "level trap of row %d"
                  % row, False, lambda n: ["level"], write)


def _step_lines(n, field):
    """Lines of one Cash-Karp step from the point ``x0, ...`` with the
    field ``k0_0, ...`` there (stage 0), the field written by the family
    ``field``: the stage coefficients h a, then each stage point z = x + (h
    a_0) k_0 + (h a_1) k_1 + ..., summed left to right over the nonzero
    tableau entries, and its field k_s; then the fifth-order point y, its
    difference d from the fourth-order one, and ``err``, the norm of d
    (``square_sum``)."""
    rows = [("a%d" % s, row) for s, row in enumerate(_CK_A)]
    rows += [("b", _CK_B5), ("e", _CK_B4)]

    def combo(name, row, i):
        return "x%d" % i + "".join(" + %s%d * k%d_%d" % (name, j, j, i)
                                   for j, a in enumerate(row) if a)

    lines = ["%s%d = h * %r" % (name, j, a)
             for name, row in rows for j, a in enumerate(row) if a]
    for s in range(1, 6):
        lines += ["z%d = %s" % (i, combo("a%d" % s, _CK_A[s], i))
                  for i in range(n)]
        lines += field.write(n, "z", "k%d_" % s, "F")
    lines += ["y%d = %s" % (i, combo("b", _CK_B5, i)) for i in range(n)]
    lines += ["d%d = y%d - (%s)" % (i, i, combo("e", _CK_B4, i))
              for i in range(n)]
    return lines + ["err = sqrt(%s)" % square_sum("d", n)]


def _loop_template(n, families):
    """Source of ``integrate``'s loop on n coordinates, with the field,
    value, projection, sweep and trap written by the five ``families`` (the
    sweep None: no events; the trap None: none, or a ``trap_family``,
    tested after the sweep).

    The loop keeps the state in the locals ``x0, ...`` and takes each
    family's parameters as one tuple (F, V, P, S, T).  It returns (status,
    limit name, t, x, times, path, f values, steps), the path flat, one
    point's coordinates after the other, and raises
    ``fail(message, x, t, h, steps)`` on a failure.  Comparisons stand in
    for ``min`` and ``max``: ``min(a, b)`` is ``b if b < a else a`` and
    ``max(a, b)`` is ``b if b > a else a``, signed zeros and nan included;
    over a catalog swept row by row, ``min`` is a chain of strict ``<``
    tests on the squares, which keeps the first of equal squares, and its
    root is the least distance (module docstring)."""
    field, value, project, sweep, trap = families
    x = "[%s]" % names("x", n)

    def block(depth, lines):
        return ["    " * depth + line for line in lines]

    def track(depth, exit):
        # the distances to the catalog and their first minimum dmin, the
        # limit if x is in a strict ball, and the numerator of the step
        # cap: half the distance to the catalog, between 0.45 eps and
        # 0.25.  A sweep by rows gives squares: dmin is the root of their
        # first minimum, and the roots of all rows are taken only to name
        # the limit
        if sweep.rows:
            row = "[%s]" % ", ".join("sqrt(dsq%d)" % j
                                     for j in range(sweep.rows))
            lines = sweep.write(n, "x", "dsq", "S") + ["smin = dsq0"]
            for j in range(1, sweep.rows):
                lines += ["if dsq%d < smin:" % j, "    smin = dsq%d" % j]
            lines += ["dmin = sqrt(smin)"]
        else:
            row = "dists"
            lines = sweep.write(n, "x", "dists", "S") + ["dmin = min(dists)"]
        lines += [
            "if dmin < eps:",
            "    limit = names[%s.index(dmin)]" % row,
            "    " + exit]
        if trap is not None:
            lines += trap.write(n, "x", exit, "T")
        return block(depth, lines + [
            "base = 0.5 * dmin",
            "if not base < 0.25:",
            "    base = 0.25",
            "if not base > floor:",
            "    base = floor"])

    lines = ["def kernel(F, V, P, S, T, x, t_max, h, h_min, atol, rtol, eps, "
             "max_steps, record, names, fail):"]
    for prefix, family in zip("FVPST", families):
        params = family.params(n) if family is not None else []
        if params:
            lines.append("    %s= %s" % ("".join(
                prefix + name + ", " for name in params), prefix))
    lines += ["    %s= x" % names("x", n)]
    lines += block(1, project.write(n, "x", "x", "P"))
    lines += block(1, value.write(n, "x", "fv", "V"))
    lines += ["    t = 0.0",
              "    times = [t]",
              "    path = [%s]" % names("x", n),
              "    fvals = [fv]",
              "    limit = None",
              "    steps = 0",
              "    slack = 1e-9 + 50.0 * rtol",
              "    fresh = True"]
    lines += ["    floor = 0.45 * eps" if sweep is not None
              else "    base = 0.25"]
    converged = "return %r, limit, t, %s, times, path, fvals, steps" % (
        CONVERGED, x)
    if sweep is not None:
        lines += track(1, converged)
    lines += ["    while t < t_max and steps < max_steps:",
              "        rest = t_max - t",
              "        if rest < h:",
              "            h = rest",
              "        if fresh:"]
    lines += block(3, field.write(n, "x", "k0_", "F"))
    lines += ["            speed = sqrt(%s)" % square_sum("k0_", n),
              "            size = sqrt(%s)" % square_sum("x", n),
              "            scale = atol + rtol * (size if size > 1.0 else 1.0)",
              "            fresh = False",
              # the step never jumps a strict ball: h speed stays below base
              "        if speed > 1e-14:",
              "            cap = base / speed",
              "            if cap < h:",
              "                h = cap"]
    lines += block(2, _step_lines(n, field))
    lines += ["        if err > scale and h > h_min:",
              "            h = 0.5 * h * (scale / (err + 1e-300)) ** 0.2",
              "            if not h > h_min:",
              "                h = h_min",
              "            steps += 1",
              "            continue",
              "        if h <= h_min and err > 10 * scale:",
              "            raise fail('step size underflow at t=%%.6g' %% t, "
              "%s, t, h, steps)" % x]
    lines += block(2, project.write(n, "y", "u", "P"))
    lines += ["        tn = t + h"]
    lines += block(2, value.write(n, "u", "fn", "V"))
    lines += ["        if fn > fv + slack * (1.0 + abs(fv)):",
              "            raise fail('monotonicity violated at t=%%.6g: "
              "%%.12g -> %%.12g' %% (t, fv, fn), %s, t, h, steps)" % x,
              "        fv = fn"]
    lines += ["        x%d = u%d" % (i, i) for i in range(n)]
    lines += ["        t = tn",
              "        fresh = True",
              "        steps += 1",
              "        if record:",
              "            times.append(t)",
              "            fvals.append(fv)"]
    # the path is flat, one coordinate after the other: appending each is
    # cheaper than extending by a tuple
    lines += ["            path.append(x%d)" % i for i in range(n)]
    if sweep is not None:
        lines += track(2, "break")
    lines += ["        if err > 0:",
              "            grow = 5.0 * h",
              "            h = 0.9 * h * (scale / (err + 1e-300)) ** 0.2",
              "            if not h < grow:",
              "                h = grow",
              "        else:",
              "            h = 5.0 * h",
              "    else:",
              "        if steps >= max_steps:",
              "            raise fail('step budget exhausted', %s, t, h, "
              "steps)" % x,
              "        status = %r if abs(t - t_max) < 1e-12 else %r"
              % (FIXED_TIME, MAX_TIME),
              "        return status, limit, t, %s, times, path, fvals, "
              "steps" % x]
    if sweep is not None:
        lines += ["    " + converged]
    return "\n".join(lines) + "\n"


def integrate(field, value, project, sweep, x0, *, t_max, eps_conv=None,
              names=(), record=True, trap=None):
    """Adaptive negative-flow integration with event tracking.

    ``field``, ``value``, ``project`` and ``sweep`` are the float kernels
    of the module docstring, each a ``Kernel`` or a plain callable on lists
    of floats; ``value`` must not increase along the flow.  ``sweep``
    (None: no events) gives the distances to the catalog points named by
    ``names``; entering the ``eps_conv`` ball of any of them ends the
    run as CONVERGED, and so does passing ``trap``, a ``Kernel`` of a
    ``trap_family`` (None: no trap).  Each accepted point is swept for
    distances once; the sweep serves the convergence test, the trap and
    the step cap.  Without a sweep ``eps_conv`` is not read.  The loop
    itself is ``_loop_template``'s, compiled for the dimension and the
    kernels' families, and steps under the module's constants.
    """
    x = np.asarray(x0, dtype=float).tolist()
    n = len(x)
    families, args = [], []
    # a Kernel brings its family and numbers, a plain callable the adapter
    # family around it, and no kernel neither
    for kernel, adapter in zip((field, value, project, sweep, trap),
                               _ADAPTERS):
        if isinstance(kernel, Kernel):
            families.append(kernel.family)
            args.append(kernel.args)
        else:
            families.append(None if kernel is None else adapter)
            args.append(() if kernel is None else (kernel,))
    loop = unrolled(_loop_template, n, tuple(families))

    def fail(message, x, t, h, steps):
        return IntegrationError(message, x0=x0, x=np.array(x), t=t, h=h,
                                steps=steps)

    status, limit, t, x, times, path, fvals, steps = loop(
        *args, x, t_max, H_INIT, H_MIN, ATOL, RTOL, eps_conv, MAX_STEPS,
        record, names, fail)
    return FlowResult(status, limit, t, np.array(x), _floats(times),
                      _floats(path).reshape(-1, n), _floats(fvals), steps)


def _floats(values):
    """The array of a list of floats, without numpy's type discovery."""
    return np.fromiter(values, float, len(values))


def _float_kernels(system, direction):
    """The system's field and value kernels for ``direction`` +1 (descend)
    or -1 (ascend); any other direction raises ``GeometryError``."""
    if direction not in (+1, -1):
        raise GeometryError("direction must be +1 or -1")
    return system.float_kernels(direction)


def flow(system, x0, direction=+1, t_max=T_MAX, record=True, trap=None):
    """Flow of the (anti)gradient field with catalog events.

    ``direction=+1`` descends (integrates the negative gradient), ``-1``
    ascends.  The limit is the catalog point whose strict ball the
    trajectory enters, or whose level ``trap`` (``systems.level_trap`` of
    the system and the same direction; None: none) it passes; the driving
    function is asserted monotone.
    """
    field, value = _float_kernels(system, direction)
    catalog, man = system.catalog, system.manifold
    # the loop names the catalog row whose ball it enters, or its trap's
    res = integrate(field, value, man.project_floats,
                    man.distance_sweep(catalog["point"]), x0, t_max=t_max,
                    eps_conv=system.eps_conv, names=range(len(catalog)),
                    record=record, trap=trap)
    if res.limit is not None:
        res.limit = system.row(res.limit)
    return res


def fixed_time_flow(system, x0, duration, direction=+1, record=True):
    """Integrate for exactly ``duration`` time units, no event stopping;
    ``direction`` as in ``flow``.  A duration that is negative or not
    finite raises ``GeometryError``."""
    if not 0.0 <= duration < math.inf:
        raise GeometryError("duration must be finite and not negative, "
                            "not %g" % duration)
    field, value = _float_kernels(system, direction)
    project = system.manifold.project_floats
    if duration == 0.0:
        x = project(np.asarray(x0, dtype=float).tolist())
        return FlowResult(FIXED_TIME, None, 0.0, np.array(x), np.array([0.0]),
                          np.array([x]), np.array([value(x)]), 0)
    return integrate(field, value, project, None, x0, t_max=duration,
                     record=record)


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


def transport_frame(manifold, field_fn, times, points, frame0):
    """Push a tangent frame along a recorded trajectory.

    Integrates the flow linearization with midpoint steps (central
    differences of the field) and transfers the frame to every node
    (``parallel_frame``), so the span tracks the invariant subspace and the
    orientation never flips spuriously.
    """
    frame = parallel_frame(manifold, points[0], frame0)
    for k in range(len(times) - 1):
        h = float(times[k + 1] - times[k])
        if h == 0.0:
            continue
        xm = manifold.project(0.5 * (points[k] + points[k + 1]))
        k1 = manifold.central_differences(field_fn, points[k], frame)
        frame = parallel_frame(manifold, points[k + 1], frame + h * (
            manifold.central_differences(field_fn, xm, frame + 0.5 * h * k1)))
    return frame


# -- the circles of a critical point -------------------------------------------

_ANGLE_OFFSET = 0.5377156339  # irrational-ish: avoids symmetric exact hits


def circle_angle(t):
    """The angle at t, a ``Fraction`` of the turn.  A fraction is kept in
    lowest terms, so equal positions give equal floats however they were
    reached: the k angles j / k are among the 2k angles j / 2k."""
    return _ANGLE_OFFSET + 2.0 * math.pi * t.numerator / t.denominator


def probe_limits(system, n_seeds, seed=0):
    """Forward/backward limit statistics over random seed points.  Its
    flows take no level trap: it reports the flows unresolved at
    ``T_MAX``, and a trap would resolve some of them early."""
    rng = np.random.default_rng(seed)
    out = {"forward": {}, "backward": {}, "unresolved": 0}
    for _ in range(n_seeds):
        x = system.manifold.random_point(rng)
        for key, direction in (("forward", +1), ("backward", -1)):
            res = flow(system, x, direction, record=False)
            if res.status == CONVERGED:
                name = res.limit.name
                out[key][name] = out[key].get(name, 0) + 1
            else:
                out["unresolved"] += 1
    return out
