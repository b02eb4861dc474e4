"""Exception taxonomy shared across the package.

Every error that can escape a public entry point carries a stable ``code``
so the CLI can map failures to fixed exit statuses.
"""


class MorseflowError(Exception):
    code = 1


class StructuralValidationError(MorseflowError):
    """A combinatorial structure violates its construction invariants."""
    code = 3


class ParseError(MorseflowError):
    """Malformed input file."""
    code = 2

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class DisconnectedGraphError(MorseflowError):
    """Operation requires a connected graph."""
    code = 3


class InternalInconsistencyError(MorseflowError):
    """A mathematically impossible state was reached; indicates a bug."""
    code = 1


class UnsupportedDiagramError(MorseflowError):
    """Diagram is valid but outside the supported counting family."""
    code = 3


class GeometryError(MorseflowError):
    """Manifold/flow level failure (drift, step underflow, bad point)."""
    code = 1


class IntegrationError(GeometryError):
    """Adaptive stepping failed (step underflow, monotonicity breach, step
    budget); ``x0``, ``x``, ``t``, ``h`` and ``steps`` are the flow's start,
    its point, time and step length when it failed, and its step count."""
    code = 1

    def __init__(self, message, x0=None, x=None, t=None, h=None, steps=None):
        super().__init__(message)
        self.x0, self.x, self.t, self.h, self.steps = x0, x, t, h, steps


class UnsupportedPairError(GeometryError):
    """A connection x -> y of index drop one that no search reaches: valid,
    but outside the supported counting family.  ``names`` and ``indices``
    are the pair's point names and indices, as (x, y)."""
    code = 3

    def __init__(self, message, names=None, indices=None):
        super().__init__(message)
        self.names, self.indices = names, indices


class CountingIncompleteError(MorseflowError):
    """A trajectory or search did not resolve; counts must not default to 0.
    An unresolved flow gives its ``status``, end time ``t_end`` and step
    count ``steps``.  A crossing of level curves beside a split gives in
    ``more`` the pair's point ``names`` as (x, y), the split's ``gap`` as
    two angles of its circle, and the ``hit`` point."""
    code = 4

    def __init__(self, message, status=None, t_end=None, steps=None,
                 **more):
        super().__init__(message)
        self.status, self.t_end, self.steps = status, t_end, steps
        vars(self).update(more)


class TransversalityError(MorseflowError):
    """Detected non-transverse or unstable intersection data."""
    code = 5


class DegenerateCrossingError(TransversalityError):
    """Two branch curves a and b meet at an end of one of them: a critical
    point, or its image.  ``systems`` and ``limits`` are the names of the
    branches' systems and of their limits, as (a, b); ``segments`` (k, l)
    are the segments of a and b, and ``params`` (s, u) the chord
    parameters on them."""
    code = 5

    def __init__(self, message, systems=None, limits=None, segments=None,
                 params=None):
        super().__init__(message)
        self.systems, self.limits = systems, limits
        self.segments, self.params = segments, params


class CountInstabilityError(TransversalityError):
    """A signed count changed under resolution doubling; ``first`` and
    ``second`` are the (signed count, number of lines) at k and at 2k."""
    code = 5

    def __init__(self, message, first=None, second=None):
        super().__init__(message)
        self.first, self.second = first, second


class OrientationError(MorseflowError):
    """Orientation transport reported an inconsistency; retry over Z/2."""
    code = 5


class AdmissibilityError(MorseflowError):
    """A relative region or function pair fails its gradient condition."""
    code = 3
