"""Morse systems: a manifold, a function, its gradient field, and a
verified catalog of nondegenerate critical points.

Construction recomputes the covariant Hessian at every declared critical
point, checks nondegeneracy and the declared index, and stores the ordered
eigenbasis that fixes the unstable-manifold orientations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError, ParseError, StructuralValidationError
from .manifolds import ProductModel, SphereModel, TorusModel, TWO_PI


@dataclass
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

    def loosened(self, factor=1e3):
        """Search-phase copy: classification flows tolerate coarser steps."""
        out = Tolerances(**self.__dict__)
        out.rtol = self.rtol * factor
        out.atol = self.atol * factor
        out.h_init = 1e-2
        return out


@dataclass
class CriticalPoint:
    name: str
    point: np.ndarray
    index: int
    value: float = 0.0
    eigenvalues: np.ndarray = None
    frame: np.ndarray = None      # coord_dim x dim, ascending eigenvalues

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
    """Immutable bundle of (manifold, f, grad f, verified critical points)."""

    def __init__(self, manifold, f, grad, critical_points, name="system",
                 tol=None, fd_step=1e-6):
        self.manifold = manifold
        self.f = f
        self.grad = grad
        self.name = name
        self.tol = tol or Tolerances()
        self.fd_step = fd_step
        pts = []
        for cp in critical_points:
            pts.append(self._verify(cp))
        self.critical_points = tuple(pts)
        names = [cp.name for cp in pts]
        if len(set(names)) != len(names):
            raise StructuralValidationError("critical point names collide")
        self._by_name = {cp.name: cp for cp in pts}
        # derived data, filled by counting (the catalog itself never
        # changes): loose circle-lattice shots of the index-2 connection
        # search, which only manifolds of dimension three and up reach
        # (_lattice_shot), and branch flows of one-dimensional stable and
        # unstable manifolds (branches)
        self.lattice_shots, self.branches = {}, {}

    # -- catalog ------------------------------------------------------------

    def point(self, name):
        cp = self._by_name.get(name)
        if cp is None:
            raise StructuralValidationError(
                "system %s has no critical point named %r" % (self.name, name))
        return cp

    def by_index(self, index):
        return tuple(cp for cp in self.critical_points if cp.index == index)

    def indices(self):
        return sorted({cp.index for cp in self.critical_points})

    def field(self, x):
        """Negative-gradient flow direction."""
        return -self.manifold.tangent_project(x, self.grad(x))

    def hessian_matrix(self, x):
        """Covariant Hessian in the orthonormal tangent basis at x."""
        return _covariant_hessian(self.manifold, self.grad, x, self.fd_step)

    def _verify(self, cp):
        p = self.manifold.project(np.asarray(cp.point, dtype=float))
        g = self.manifold.tangent_project(p, self.grad(p))
        if np.linalg.norm(g) > self.tol.eps_crit:
            raise StructuralValidationError(
                "catalog point %s has |grad| = %.3g > %.3g"
                % (cp.name, np.linalg.norm(g), self.tol.eps_crit))
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
        return CriticalPoint(name=cp.name, point=p, index=index,
                             value=float(self.f(p)), eigenvalues=evals,
                             frame=frame)

    def __repr__(self):
        return "MorseSystem(%s, %d critical points)" % (
            self.name, len(self.critical_points))


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
    m = TorusModel(n)
    rng = np.random.default_rng(seed)
    psi = float(rng.uniform(0, TWO_PI))
    c = float(perturb)

    def f(th):
        base = float(np.sum(amps * np.cos(th - phis)))
        if c:
            base += c * math.cos(float(np.sum(th)) + psi)
        return base

    def grad(th):
        g = -amps * np.sin(th - phis)
        if c:
            g = g - c * math.sin(float(np.sum(th)) + psi)
        return g

    pts = []
    for bits in range(2 ** n):
        pattern = [(bits >> i) & 1 for i in range(n)]
        theta = np.array([phis[i] if pattern[i] else phis[i] + np.pi
                          for i in range(n)])
        if c:
            # the coupling term moves the critical points off the lattice
            theta = refine_critical_point(m, grad, theta)
        index = sum(pattern)
        label = "x" + "".join(str(b) for b in pattern)
        pts.append(CriticalPoint(label, theta, index))
    sys_name = name or ("torus%d" % n)
    return MorseSystem(m, f, grad, pts, name=sys_name, tol=tol)


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
    tol = tol or Tolerances()
    tol.eps_conv = _value(kv, "tol-conv", float, tol.eps_conv)
    name = kv.get("name")
    if kind == "product":
        if len(factors) != 2:
            raise ParseError("product config needs exactly two factor lines")
        s1 = _system_from_spec(*factors[0])
        s2 = _system_from_spec(*factors[1])
        return product_system(s1, s2, tol=tol, name=name)
    return _system_from_spec(kind, kv, tol=tol, name=name)
