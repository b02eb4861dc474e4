"""Morse systems: a manifold, a function, its gradient field, and a
verified catalog of nondegenerate critical points.

Construction recomputes the covariant Hessian at every declared critical
point, checks nondegeneracy and the declared index, and stores the ordered
eigenbasis that fixes the unstable-manifold orientations.  The catalog is
one structured array per system, one record per point.  A system hands
the integrator its field and function on lists of Python floats
(``float_kernels``): for torus cosine wells, kernels of the cosine-well
families, which the flow loop writes in; for everything else, numpy
adapters, which it calls.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..errors import GeometryError, ParseError, StructuralValidationError
from ._unroll import Family, Kernel, numpy_sum
from .flow import trap_family
from .manifolds import ProductModel, SphereModel, TorusModel, TWO_PI


@dataclass(frozen=True)
class Tolerances:
    eps_conv: float = 1e-6        # strict convergence ball radius
    detect_radius: float = 2e-3   # coarse event-ball radius
    lambda_min: float = 1e-4      # Hessian eigenvalue floor
    eps_crit: float = 1e-7        # |grad| bound at catalog points
    rtol: float = 1e-9
    atol: float = 1e-11
    t_max: float = 400.0
    h_init: float = 1e-3
    h_min: float = 1e-13
    max_steps: int = 400_000

    @lru_cache(maxsize=16)
    def loosened(self, factor=1e3):
        """Search-phase copy: classification flows tolerate coarser steps."""
        return replace(self, rtol=self.rtol * factor,
                       atol=self.atol * factor, h_init=1e-2)


DEFAULT_TOLERANCES = Tolerances()


@lru_cache(maxsize=32)
def catalog_dtype(coord_dim, dim):
    """The record of one critical point in a system's catalog array."""
    return np.dtype([("name", object), ("index", int),
                     ("point", float, (coord_dim,)),
                     ("eigenvalues", float, (dim,)),
                     ("frame", float, (coord_dim, dim)),
                     ("value", float)])


class CriticalPoint:
    """A named critical point of a given index.

    A verified point is made on access from one record of its system's
    catalog array.  ``point``, ``eigenvalues`` (ascending), ``frame``
    (coord_dim x dim, columns in the order of the eigenvalues) and
    ``value`` are read from that record; the arrays are views into it.  A
    declared point, before a system verifies it, has a record of its own
    holding the fields it was given; the others read as None.
    """

    __slots__ = ("name", "index", "_catalog", "_row")

    def __init__(self, name, point, index, value=0.0, eigenvalues=None,
                 frame=None):
        given = [(key, np.asarray(a, dtype=float)) for key, a in (
            ("point", point), ("eigenvalues", eigenvalues), ("frame", frame),
            ("value", value)) if a is not None]
        record = np.zeros(1, [(key, float, a.shape) for key, a in given])
        record[0] = tuple(a for _key, a in given)
        self.name, self.index = name, int(index)
        self._catalog, self._row = record, 0

    @classmethod
    def _record(cls, name, index, catalog, row):
        cp = cls.__new__(cls)
        cp.name, cp.index, cp._catalog, cp._row = name, index, catalog, row
        return cp

    def _field(self, key):
        catalog = self._catalog
        if key not in catalog.dtype.names:
            return None
        return catalog[key][self._row]

    @property
    def point(self):
        return self._catalog["point"][self._row]

    @property
    def eigenvalues(self):
        return self._field("eigenvalues")

    @property
    def frame(self):
        return self._field("frame")

    @property
    def value(self):
        return float(self._catalog["value"][self._row])

    @property
    def unstable_frame(self):
        return self.frame[:, :self.index]

    @property
    def stable_frame(self):
        return self.frame[:, self.index:]

    def __repr__(self):
        return "CriticalPoint(%s, index=%d)" % (self.name, self.index)


def _canonical_sign(vec):
    k = int(np.argmax(np.abs(vec)))
    return vec if vec[k] > 0 or (vec[k] == 0) else -vec


def _covariant_hessian(manifold, grad, x, fd_step=1e-6):
    """Covariant Hessian in an orthonormal tangent basis (exact at
    critical points, where the connection term drops)."""
    basis = manifold.tangent_basis(x)
    n = basis.shape[1]
    H = np.zeros((n, n))
    for j in range(n):
        xp = manifold.project(x + fd_step * basis[:, j])
        xm = manifold.project(x - fd_step * basis[:, j])
        gp = manifold.tangent_project(xp, grad(xp))
        gm = manifold.tangent_project(xm, grad(xm))
        H[:, j] = basis.T @ (gp - gm) / (2 * fd_step)
    return 0.5 * (H + H.T), basis


def refine_critical_point(manifold, grad, x0, steps=40, target=1e-12,
                          fd_step=1e-6):
    """Newton iteration on the tangential gradient from a seed point."""
    x = manifold.project(np.asarray(x0, dtype=float))
    for _ in range(steps):
        g = manifold.tangent_project(x, grad(x))
        if np.linalg.norm(g) < target:
            return x
        H, basis = _covariant_hessian(manifold, grad, x, fd_step)
        try:
            step = np.linalg.solve(H, basis.T @ g)
        except np.linalg.LinAlgError as exc:
            raise GeometryError("singular Hessian in refinement") from exc
        x = manifold.project(x - basis @ step)
    raise GeometryError("critical point refinement did not converge")


class MorseSystem:
    """Immutable bundle of (manifold, f, grad f, verified critical points).

    ``f`` is a callable on numpy points, and ``grad`` its gradient, or
    None when ``f`` has a ``grad`` method.  When ``f`` also has a
    ``float_kernels(direction)`` method, as ``CosineWells`` does, the
    integrator reads the flow through those kernels, and otherwise through
    numpy adapters (``numpy_kernels``), plain callables.
    """

    __slots__ = ("manifold", "f", "_grad", "name", "tol", "fd_step",
                 "catalog", "_lattice_shots", "branches")

    def __init__(self, manifold, f, grad, critical_points, name="system",
                 tol=None, fd_step=1e-6):
        self.manifold = manifold
        self.f = f
        self._grad = grad
        self.name = name
        self.tol = tol or DEFAULT_TOLERANCES
        self.fd_step = fd_step
        rows = [self._verify(cp) for cp in critical_points]
        if not rows:
            raise StructuralValidationError(
                "system %s: the critical-point catalog is empty" % name)
        names = [row[0] for row in rows]
        if len(set(names)) != len(names):
            raise StructuralValidationError("critical point names collide")
        self.catalog = np.zeros(len(rows), catalog_dtype(manifold.coord_dim,
                                                         manifold.dim))
        for i, row in enumerate(rows):
            self.catalog[i] = row
        # derived data, filled by counting (the catalog itself never
        # changes): branch flows of one-dimensional stable and unstable
        # manifolds, as curves or as their ends alone (branches), and
        # loose circle-lattice shots of the index-2 connection search
        # (lattice_shots), made on first use
        self.branches, self._lattice_shots = {}, None

    # -- catalog ------------------------------------------------------------

    @property
    def grad(self):
        """The gradient on numpy points: ``f.grad`` when the system was
        given none."""
        return self.f.grad if self._grad is None else self._grad

    @property
    def critical_points(self):
        """The verified catalog, in declared order."""
        return tuple(self._catalog_point(i) for i in range(len(self.catalog)))

    def _catalog_point(self, i):
        return CriticalPoint._record(self.catalog["name"][i],
                                     int(self.catalog["index"][i]),
                                     self.catalog, i)

    def point(self, name):
        names = self.catalog["name"].tolist()
        if name not in names:
            raise StructuralValidationError(
                "system %s has no critical point named %r" % (self.name, name))
        return self._catalog_point(names.index(name))

    @property
    def lattice_shots(self):
        """Kept shots of the circle lattice (``counting._lattice_shot``),
        which only manifolds of dimension three and up reach."""
        if self._lattice_shots is None:
            self._lattice_shots = {}
        return self._lattice_shots

    @property
    def points(self):
        """The catalog's points, one row per critical point."""
        return self.catalog["point"]

    def by_index(self, index):
        return tuple(self._catalog_point(i) for i, k in enumerate(
            self.catalog["index"].tolist()) if k == index)

    def indices(self):
        return sorted(set(self.catalog["index"].tolist()))

    def field(self, x):
        """Negative-gradient flow direction."""
        return -self.manifold.tangent_project(x, self.grad(x))

    def float_kernels(self, direction):
        """(field, value) of the flow in ``direction`` (+1 descends, -1
        ascends) on lists of floats, for the integrator."""
        native = getattr(self.f, "float_kernels", None)
        if native is not None:
            return native(direction)
        return numpy_kernels(self, direction)

    def hessian_matrix(self, x):
        """Covariant Hessian in the orthonormal tangent basis at x."""
        return _covariant_hessian(self.manifold, self.grad, x, self.fd_step)

    def _verify(self, cp):
        """(name, index, point, eigenvalues, frame, value) of a declared
        point, verified."""
        p = self.manifold.project(np.asarray(cp.point, dtype=float))
        speed = np.linalg.norm(self.field(p))
        if speed > self.tol.eps_crit:
            raise StructuralValidationError(
                "catalog point %s has |grad| = %.3g > %.3g"
                % (cp.name, speed, self.tol.eps_crit))
        H, basis = self.hessian_matrix(p)
        evals, evecs = np.linalg.eigh(H)
        if np.min(np.abs(evals)) < self.tol.lambda_min:
            raise StructuralValidationError(
                "catalog point %s is numerically degenerate (|lambda|min=%.3g)"
                % (cp.name, float(np.min(np.abs(evals)))))
        index = int(np.sum(evals < 0))
        if index != cp.index:
            raise StructuralValidationError(
                "catalog point %s: declared index %d, computed %d"
                % (cp.name, cp.index, index))
        frame = np.zeros((self.manifold.coord_dim, len(evals)))
        for k in range(len(evals)):
            frame[:, k] = basis @ _canonical_sign(evecs[:, k])
        return cp.name, index, p, evals, frame, float(self.f(p))

    def __repr__(self):
        return "MorseSystem(%s, %d critical points)" % (
            self.name, len(self.critical_points))


def numpy_kernels(system, direction):
    """(field, value) float kernels adapted from a system's numpy ``field``
    and ``f``, negated for direction -1."""
    field, f = system.field, system.f
    if direction == +1:
        return (lambda x: field(np.array(x)).tolist(),
                lambda x: f(np.array(x)))
    return (lambda x: (-field(np.array(x))).tolist(),
            lambda x: -f(np.array(x)))


class CosineWells:
    """f(theta) = sum_i a_i cos(theta_i - phi_i) + c cos(sum_i theta_i +
    psi) on the flat n-torus: the function itself on numpy points, its
    ``grad``, and the float kernels of its flow.

    The float kernels repeat the numpy forms operation for operation:
    ``math.sin`` and ``math.cos`` equal ``np.sin`` and ``np.cos`` bit for
    bit, the kernels add in ``np.sum``'s order (``_unroll.numpy_sum``),
    and negating a product or a sum commutes with rounding.
    """

    __slots__ = ("params", "c", "psi")

    def __init__(self, amps, phis, c=0.0, psi=0.0):
        self.params = np.array([amps, phis], dtype=float)   # rows a, phi
        self.c, self.psi = c, psi

    def __call__(self, th):
        amps, phis = self.params
        th = np.asarray(th, dtype=float)
        base = float(np.sum(amps * np.cos(th - phis)))
        if self.c:
            base += self.c * math.cos(float(np.sum(th)) + self.psi)
        return base

    def grad(self, th):
        amps, phis = self.params
        th = np.asarray(th, dtype=float)
        g = -amps * np.sin(th - phis)
        if self.c:
            g = g - self.c * math.sin(float(np.sum(th)) + self.psi)
        return g

    def float_kernels(self, direction):
        """(field, value) of the flow in ``direction``: -grad f and f,
        both negated for direction -1, as kernels of the cosine-well
        families.  Without coupling the sign folds into the amplitudes
        (s_i = sign a_i), since (-a) s is -(a s), signed zeros included.
        With coupling the field is ``grad``'s -((-a) s - w) times the sign,
        m ((-a) s - w) with m = -sign, whose zeros carry numpy's signs: sign
        (a s + w) has the other sign where a s = +0 and w = -0."""
        sign = float(direction)
        (amps, phis), c, psi = self.params.tolist(), self.c, self.psi
        if c:
            return (Kernel(COUPLED_WELLS_FIELD, -sign, *[-a for a in amps],
                           *phis, c, psi),
                    Kernel(COUPLED_WELLS_VALUE, sign, *amps, *phis, c, psi))
        return (Kernel(WELLS_FIELD, *[sign * a for a in amps], *phis),
                Kernel(WELLS_VALUE, sign, *amps, *phis))


def _wells(coupled, field):
    """The cosine-well family of the field or of the value, with or
    without coupling, on n angles.  Sums run in ``np.sum``'s order
    (``numpy_sum``)."""

    def params(n):
        if field:
            head = ["m"] + _seq("n", n) if coupled else _seq("s", n)
        else:
            head = ["sign"] + _seq("a", n)
        return head + _seq("p", n) + (["c", "psi"] if coupled else [])

    def write(n, x, out, p):
        def well(amp, trig, k):
            return "%s%s%d * %s(%s%d - %sp%d)" % (p, amp, k, trig, x, k, p, k)

        def coupling(trig):
            angle = numpy_sum(["%s%d" % (x, k) for k in range(n)])
            return "%sc * %s(%s + %spsi)" % (p, trig, angle, p)

        if not field:
            wells = numpy_sum([well("a", "cos", k) for k in range(n)])
            if coupled:
                wells += " + " + coupling("cos")
            return ["%s = %ssign * (%s)" % (out, p, wells)]
        if not coupled:
            return ["%s%d = %s" % (out, k, well("s", "sin", k))
                    for k in range(n)]
        return ["%sw = %s" % (p, coupling("sin"))] + [
            "%s%d = %sm * (%s - %sw)" % (out, k, p, well("n", "sin", k), p)
            for k in range(n)]

    return Family("%swells %s" % ("coupled " if coupled else "",
                                  "field" if field else "value"),
                  field, params, write)


def _seq(prefix, n):
    return ["%s%d" % (prefix, k) for k in range(n)]


WELLS_FIELD = _wells(False, True)
WELLS_VALUE = _wells(False, False)
COUPLED_WELLS_FIELD = _wells(True, True)
COUPLED_WELLS_VALUE = _wells(True, False)

def level_trap(system):
    """The level trap (``flow`` module docstring) of the minimum m of
    uncoupled cosine wells with positive amplitudes on a torus, for
    descending flows: a ``Kernel`` of ``flow.trap_family`` on the first
    catalog row of index 0, with the level, or None for any other system.
    Made on each call; the system keeps nothing.

    The wells' critical values are closed-form, the second-lowest c_2 =
    -sum a_i + 2 min a_i, and the descending flow from every point whose
    value lies below c_2 ends at m, the row's point.  The test compares
    rounded numbers, so the level lies below c_2 by a margin that covers
    them, at any point of the torus (|theta_i| <= 2 pi after the loop's
    wrap), not only near m.  The loop's value rounds each difference
    theta_i - phi_i by at most 2^-53 (2 pi + |phi_i|), which moves its
    cosine by no more; the cosine itself rounds by at most 2^-52, the
    product with a_i by 2^-53 a_i, and the sum of the n terms by (n - 1)
    2^-53 sum a_i.  So the value is within 2^-53 sum a_i (n + 10 + |phi_i|)
    of f.  The level, computed as -sum a_i + 2 min a_i less the margin,
    rounds by at most (n + 1) 2^-53 sum a_i.  The margin 2^-50 sum a_i (n
    + 8 + |phi_i|) = 2^-53 sum a_i (8n + 64 + 8 |phi_i|) exceeds both
    together, so a point whose value passes the level has f below c_2."""
    wells, man = system.f, system.manifold
    # the loop's driving value must be f itself, which a subclass's
    # kernels need not give
    if not (type(wells) is CosineWells and not wells.c
            and isinstance(man, TorusModel)):
        return None
    indices = system.catalog["index"].tolist()
    amps, phis = wells.params.tolist()
    if 0 not in indices or min(amps) <= 0.0:
        return None
    margin = 2.0 ** -50 * sum(a * (len(amps) + 8 + abs(p))
                              for a, p in zip(amps, phis))
    return Kernel(trap_family(indices.index(0)),
                  -sum(amps) + 2.0 * min(amps) - margin)


# -- catalog constructors ------------------------------------------------------

def sphere_height(n, tol=None, name=None):
    """Height function on the unit n-sphere: one minimum, one maximum."""
    m = SphereModel(n)

    def f(x):
        return float(x[-1])

    def grad(x):
        g = np.zeros(m.coord_dim)
        g[-1] = 1.0
        return g

    south = np.zeros(m.coord_dim)
    south[-1] = -1.0
    north = -south
    pts = [CriticalPoint("south", south, 0),
           CriticalPoint("north", north, n)]
    return MorseSystem(m, f, grad, pts, name=name or ("sphere%d" % n), tol=tol)


@lru_cache(maxsize=8)
def _torus_model(n):
    """The torus model of dimension n, shared: it holds only n."""
    return TorusModel(n)


def torus_cosine(n, amplitudes, phases=None, perturb=0.0, seed=0,
                 tol=None, name=None):
    """Sum of per-angle cosine wells on the flat n-torus.

    f(theta) = sum_i a_i cos(theta_i - phi_i) (+ optional seeded coupling
    term, with catalog positions re-solved by Newton).  Critical points sit
    at each choice of theta_i in {phi_i, phi_i + pi}; the index counts the
    coordinates at their peak.
    """
    amps = np.asarray(amplitudes, dtype=float)
    if amps.shape != (n,) or np.any(amps <= 0):
        raise StructuralValidationError("need %d positive amplitudes" % n)
    phis = np.zeros(n) if phases is None else np.asarray(phases, dtype=float)
    if phis.shape != (n,):
        raise StructuralValidationError("need %d phases" % n)
    c = float(perturb)
    for key, values in (("amplitudes", amps), ("phases", phis),
                        ("perturb", c)):
        if not np.all(np.isfinite(values)):
            raise StructuralValidationError(
                "%s must be finite, got %s"
                % (key, np.atleast_1d(values).tolist()))
    m = _torus_model(n)
    psi = float(np.random.default_rng(seed).uniform(0, TWO_PI)) if c else 0.0
    wells = CosineWells(amps, phis, c, psi)
    pts = []
    for bits in range(2 ** n):
        pattern = [(bits >> i) & 1 for i in range(n)]
        theta = np.array([phis[i] if pattern[i] else phis[i] + np.pi
                          for i in range(n)])
        if c:
            # the coupling term moves the critical points off the lattice
            theta = refine_critical_point(m, wells.grad, theta)
        index = sum(pattern)
        label = sys.intern("x" + "".join(str(b) for b in pattern))
        pts.append(CriticalPoint(label, theta, index))
    sys_name = name or sys.intern("torus%d" % n)
    return MorseSystem(m, wells, None, pts, name=sys_name, tol=tol)


def sphere_band(n, eps=0.15, tol=None, name=None):
    """Squared height plus a small linear pull on the n-sphere.

    f(x) = x_{n+1}^2 + eps * x_1.  Two index-n maxima near the poles and a
    broken equatorial minimum sphere (an index-0 and an index-(n-1) point),
    so the band between the caps carries the (n-1)-sphere's homology.
    """
    if not (0 < eps < 0.5):
        raise StructuralValidationError("eps must sit in (0, 0.5)")
    m = SphereModel(n)

    def f(x):
        return float(x[-1] ** 2 + eps * x[0])

    def grad(x):
        g = np.zeros(m.coord_dim)
        g[-1] = 2.0 * x[-1]
        g[0] += eps
        return g

    z = math.sqrt(1.0 - (eps / 2.0) ** 2)
    pole_plus = np.zeros(m.coord_dim)
    pole_plus[0] = eps / 2.0
    pole_plus[-1] = z
    pole_minus = pole_plus.copy()
    pole_minus[-1] = -z
    rim_hi = np.zeros(m.coord_dim)
    rim_hi[0] = 1.0
    rim_lo = np.zeros(m.coord_dim)
    rim_lo[0] = -1.0
    pts = [CriticalPoint("pole+", pole_plus, n),
           CriticalPoint("pole-", pole_minus, n),
           CriticalPoint("rim_hi", rim_hi, n - 1),
           CriticalPoint("rim_lo", rim_lo, 0)]
    return MorseSystem(m, f, grad, pts, name=name or ("sphere%d_band" % n),
                       tol=tol)


def product_system(s1, s2, tol=None, name=None):
    """Product manifold with the sum function; catalog = pairs, index adds."""
    m = ProductModel(s1.manifold, s2.manifold)

    def f(x):
        a, b = m.parts(x)
        return s1.f(a) + s2.f(b)

    def grad(x):
        a, b = m.parts(x)
        return m.join(s1.grad(a), s2.grad(b))

    pts = []
    for ca in s1.critical_points:
        for cb in s2.critical_points:
            pts.append(CriticalPoint("%s|%s" % (ca.name, cb.name),
                                     m.join(ca.point, cb.point),
                                     ca.index + cb.index))
    return MorseSystem(m, f, grad, pts,
                       name=name or ("%s*%s" % (s1.name, s2.name)), tol=tol)


# -- config files --------------------------------------------------------------

def _parse_kv(parts):
    out = {}
    for p in parts:
        if "=" not in p:
            raise ParseError("expected key=value, got %r" % p)
        k, v = p.split("=", 1)
        out[k] = v
    return out


def _floats(s):
    return [float(x) for x in s.replace(",", " ").split()]


_REQUIRED = object()

# a torus of dimension n builds 2^n critical points before anything else
# runs, so a config may not ask for more than this
MAX_TORUS_DIM = 10


def _value(kv, key, cast, default=_REQUIRED):
    """``cast(kv[key])``; a missing or malformed value is a ParseError."""
    if key not in kv:
        if default is _REQUIRED:
            raise ParseError("config needs a %r value" % key)
        return default
    try:
        return cast(kv[key])
    except ValueError:
        raise ParseError("malformed %s value %r" % (key, kv[key])) from None


def _dim(kv):
    n = _value(kv, "dim", int)
    if n < 1:
        raise StructuralValidationError("dim must be at least 1, got %d" % n)
    return n


def _system_from_spec(kind, kv, tol=None, name=None):
    """One catalog system (sphere, torus or sphere-band) from its keys."""
    if kind == "sphere":
        return sphere_height(_dim(kv), tol=tol, name=name)
    if kind == "torus":
        n = _dim(kv)
        if n > MAX_TORUS_DIM:
            raise StructuralValidationError(
                "torus dim %d is above the ceiling %d: its catalog would "
                "hold 2^%d critical points" % (n, MAX_TORUS_DIM, n))
        return torus_cosine(n, _value(kv, "amplitudes", _floats, [1.0] * n),
                            _value(kv, "phases", _floats, None),
                            perturb=_value(kv, "perturb", float, 0.0),
                            seed=_value(kv, "seed", int, 0), tol=tol,
                            name=name)
    if kind == "sphere-band":
        return sphere_band(_dim(kv), _value(kv, "eps", float, 0.15), tol=tol,
                           name=name)
    raise ParseError("unknown system kind %r" % kind)


def parse_system_config(text, tol=None):
    """Parse the line-oriented manifold/function config.

    Keys: ``kind``, ``dim``, ``amplitudes``, ``phases``, ``eps``,
    ``perturb``, ``seed``, ``name``, ``tol-conv``, ``factor`` (for
    products, one line per factor: ``factor torus dim=2 amplitudes=1,0.7``).
    A torus ``dim`` above ``MAX_TORUS_DIM``, a ``tol-conv`` that is not
    positive and finite, and a nan or infinite torus ``amplitudes``,
    ``phases`` or ``perturb`` raise ``StructuralValidationError`` before any
    critical point is built.
    """
    kv = {}
    factors = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].lower()
        if key == "factor":
            if len(parts) < 2:
                raise ParseError("factor line needs a kind", line=lineno)
            factors.append((parts[1].lower(), _parse_kv(parts[2:])))
        else:
            kv[key] = " ".join(parts[1:])
    kind = kv.get("kind")
    if kind is None:
        raise ParseError("config needs a 'kind' line")
    tol = tol or DEFAULT_TOLERANCES
    eps_conv = _value(kv, "tol-conv", float, tol.eps_conv)
    if not 0.0 < eps_conv < math.inf:
        raise StructuralValidationError(
            "tol-conv must be positive and finite, got %r" % eps_conv)
    tol = replace(tol, eps_conv=eps_conv)
    name = kv.get("name")
    if kind == "product":
        if len(factors) != 2:
            raise ParseError("product config needs exactly two factor lines")
        s1 = _system_from_spec(*factors[0])
        s2 = _system_from_spec(*factors[1])
        return product_system(s1, s2, tol=tol, name=name)
    return _system_from_spec(kind, kv, tol=tol, name=name)
