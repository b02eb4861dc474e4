"""Float kernels written out for one state dimension.

A template is a module-level function of the dimension n that returns the
source of one function named ``kernel``: straight-line Python with the n
coordinates unpacked into locals (``x0, x1, = x``) and every sum written
out left to right, so it does the same IEEE operations in the same order as
a loop over the coordinates would.  ``unrolled`` compiles a template once
per (template, n).  Its cache holds code for each dimension in use and
never a system: kernels that need a system's numbers take them as
arguments and return a closure, which lives only as long as its caller
keeps it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_NAMESPACE = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt,
              "array": np.array}


@lru_cache(maxsize=64)
def unrolled(template, n):
    """The function ``kernel`` defined by ``template(n)``; tracebacks and
    profiles name it after the template and n."""
    namespace = dict(_NAMESPACE)
    where = "<%s n=%d>" % (template.__name__, n)
    exec(compile(template(n), where, "exec"), namespace)
    return namespace["kernel"]


def names(prefix, n):
    """``"x0, x1, "`` for ``names("x", 2)``: an unpacking target that also
    fits a one-coordinate state."""
    return "".join("%s%d, " % (prefix, i) for i in range(n))
