"""Float kernels written out for one state dimension.

A template is a module-level function of the dimension n (and, for some,
a family) that returns the source of one function named ``kernel``:
straight-line Python with the n coordinates unpacked into locals (``x0,
x1, = x``) and every sum written out in the order of the loop or numpy
reduction it replaces, so it does the same IEEE operations in the same
order.  ``unrolled`` compiles a template once per (template, n, family).
Its cache holds code for each dimension in use and never a system: a
system's numbers reach a kernel as arguments.

A kernel family (``Family``) writes the lines of one kind of float kernel
(a field, a driving function, a projection, a distance sweep) at a point
held in locals.  The same lines make the family's kernel on its own
(``standalone``, run by calling a ``Kernel``) and are written into the
flow loop (``flow._loop_template``), so the two cannot drift apart.  A
plain callable on lists of floats is a kernel of an adapter family
(``adapted``), which the loop calls.  Templates share two writers:
``numpy_sum``, a sum in numpy's order, and ``square_sum``, the sum of
squares that ``np.sum(v * v)`` gives.
"""

from __future__ import annotations

import math
from functools import lru_cache

_NAMESPACE = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}


@lru_cache(maxsize=128)
def unrolled(template, n, family=None):
    """The function ``kernel`` defined by ``template(n)``, or by
    ``template(n, family)`` when a family is given; tracebacks and profiles
    name it after the template, n and the family."""
    namespace = dict(_NAMESPACE)
    where = "<%s n=%d%s>" % (template.__name__, n,
                             "" if family is None else " %s" % (family,))
    source = template(n) if family is None else template(n, family)
    exec(compile(source, where, "exec"), namespace)
    return namespace["kernel"]


class Family:
    """The lines of one kind of float kernel on n coordinates.

    ``params(n)`` names the numbers the kernel takes.  ``write(n, x, out,
    p)`` gives lines that evaluate it at the point held in the locals
    ``x0, x1, ...`` into ``out``: the locals ``out0, out1, ...`` when
    ``vector``, else the one local ``out``.  A distance sweep with
    ``rows`` writes the square of each catalog row's distance into ``out0,
    ..., out{rows-1}``, so that a reader takes only the roots it needs;
    any other sweep writes the list of distances into ``out``.  A trap
    (``flow.trap_family``) writes a test of the loop's driving value
    instead, after the sweep: ``out`` is the statement that ends the flow.
    Parameters and temporaries carry the prefix ``p``, so kernels of
    several families share one function body.  A family is code, compared
    by identity."""

    __slots__ = ("name", "vector", "params", "write", "rows")

    def __init__(self, name, vector, params, write, rows=None):
        self.name, self.vector = name, vector
        self.params, self.write, self.rows = params, write, rows

    def __repr__(self):
        return self.name


def adapted(name, vector):
    """The family of a plain callable on lists of floats, which the lines
    call: its one parameter ``fn`` is the callable."""
    def write(n, x, out, p):
        target = names(out, n) if vector else out + " "
        return ["%s= %sfn([%s])" % (target, p, names(x, n))]
    return Family(name, vector, lambda n: ["fn"], write)


class Kernel:
    """A float kernel of ``family`` with the numbers ``args``.  Called on a
    point (a list of floats), it runs the family's lines as a function of
    their own (``standalone``); the flow loop writes the same lines into
    its body instead and passes ``args``."""

    __slots__ = ("family", "args")

    def __init__(self, family, *args):
        self.family, self.args = family, args

    def __call__(self, x):
        return unrolled(standalone, len(x), self.family)(*self.args)(x)


def standalone(n, family):
    """Source of ``family``'s kernel on its own: given the parameters, the
    function of one point.  A sweep by rows returns the list of distances,
    the roots of the squares its lines write."""
    if family.rows is not None:
        result = "[%s]" % ", ".join("sqrt(r%d)" % j
                                    for j in range(family.rows))
    else:
        result = "[%s]" % names("r", n) if family.vector else "r"
    return "\n".join(
        ["def kernel(%s):" % "".join(a + ", " for a in family.params(n)),
         "    def run(x):",
         "        %s= x" % names("x", n)]
        + ["        " + line for line in family.write(n, "x", "r", "")]
        + ["        return " + result, "    return run", ""])


def norm_template(n):
    """Source of the Euclidean norm of n coordinates, ``sqrt`` of their
    square sum (``square_sum``)."""
    return "def kernel(v):\n    %s= v\n    return sqrt(%s)\n" % (
        names("v", n), square_sum("v", n))


def names(prefix, n):
    """``"x0, x1, "`` for ``names("x", 2)``: an unpacking target that also
    fits a one-coordinate state."""
    return "".join("%s%d, " % (prefix, i) for i in range(n))


def numpy_sum(terms):
    """The sum of the source expressions ``terms``, parenthesised in the
    order ``np.sum`` and ``add.reduce`` add them: left to right below 8
    entries; from 8 on eight running sums r_j of the entries j, j + 8, ...
    (below the multiple of 8), added as ((r0 + r1) + (r2 + r3)) + ((r4 +
    r5) + (r6 + r7)), then the rest left to right.  That holds up to 128
    entries, where numpy starts to halve the sum; no kernel adds more than
    the ten angles of the largest torus."""
    n = len(terms)
    if n < 8:
        return "(%s)" % " + ".join(terms)
    r = ["(%s)" % " + ".join(terms[j:n - n % 8:8]) for j in range(8)]
    return "(((%s + %s) + (%s + %s)) + ((%s + %s) + (%s + %s))%s)" % (
        *r, "".join(" + " + t for t in terms[n - n % 8:]))


def square_sum(prefix, n):
    """The source expression of the sum of the squares of ``prefix0, ...,
    prefix{n-1}``, added in numpy's order (``numpy_sum``): ``np.sum(v *
    v)`` bit for bit."""
    return numpy_sum(["%s%d * %s%d" % (prefix, i, prefix, i)
                      for i in range(n)])
