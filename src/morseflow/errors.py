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
    """Adaptive stepping failed (step underflow, monotonicity breach)."""
    code = 1


class CountingIncompleteError(MorseflowError):
    """A trajectory or search did not resolve; counts must not default to 0."""
    code = 4


class TransversalityError(MorseflowError):
    """Detected non-transverse or unstable intersection data."""
    code = 5


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
