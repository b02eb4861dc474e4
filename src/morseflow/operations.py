"""Chain-level operations: pushforward and umkehr maps across embeddings,
Thom data and Euler classes of oriented bundles, and the chord-diagram
counting operation specialized to point configurations on the manifold.

All maps come back as integer matrices in catalog order, with their chain
identities checkable exactly via ``complexes.chain_map_defect``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import GradedComplex, chain_map_defect, homology
from .counting import (
    DEFAULT_RHO,
    _truncated_path,
    approach,
    boundary_operator,
    bracketed_roots,
    circle_lattice_roots,
    closest_pass_transport,
    continuation,
    curve_crossings,
    gated,
    graded_matrices,
    hybrid_entry,
    point_at_time,
    stable_coorientation_frames,
    transverse_sign,
)
from .errors import (
    CountingIncompleteError,
    GeometryError,
    InternalInconsistencyError,
    OrientationError,
    StructuralValidationError,
    TransversalityError,
    UnsupportedDiagramError,
)
from .geometry.flow import (
    CONVERGED,
    direction_point,
    fixed_time_flow,
    flow,
    orientation_sign,
    orthonormalize,
    sphere_directions,
    transport_frame,
)
from .geometry.systems import Tolerances


# -- embeddings ----------------------------------------------------------------

class EmbeddingModel:
    """A proper embedding e: P -> X between catalog Morse systems.

    Carries the map, a retraction defined near the image, r signed normal
    coordinates vanishing on the image, and an oriented normal frame (the
    coorientation).
    """

    def __init__(self, domain, codomain, embed, retract, normal_coordinate,
                 normal_frame, codim, tubular_radius=0.3, name="embedding",
                 check=True, n_samples=24):
        self.domain = domain
        self.codomain = codomain
        self.embed = embed
        self.retract = retract
        self.normal_coordinate = normal_coordinate
        self.normal_frame = normal_frame
        self.codim = int(codim)
        self.tubular_radius = float(tubular_radius)
        self.name = name
        if self.codim != codomain.manifold.dim - domain.manifold.dim:
            raise StructuralValidationError(
                "declared codimension does not match the dimensions")
        if check and self.codim > 0:
            self._check(n_samples)

    def differential(self, p_point, eps=1e-6):
        """Columns: the pushforward of the domain tangent basis at p."""
        dman, xman = self.domain.manifold, self.codomain.manifold
        basis = dman.tangent_basis(p_point)
        x = xman.project(self.embed(p_point))
        cols = []
        for j in range(basis.shape[1]):
            pp = dman.project(p_point + eps * basis[:, j])
            pm = dman.project(p_point - eps * basis[:, j])
            v = (np.asarray(self.embed(pp), dtype=float)
                 - np.asarray(self.embed(pm), dtype=float)) / (2 * eps)
            cols.append(xman.tangent_project(x, v))
        return np.stack(cols, axis=1)

    def push_frame(self, p_point, frame_in_P):
        """Push a domain tangent frame through the differential."""
        dman, xman = self.domain.manifold, self.codomain.manifold
        basis = dman.tangent_basis(p_point)
        De = self.differential(p_point)
        cols = [De @ (basis.T @ frame_in_P[:, j])
                for j in range(frame_in_P.shape[1])]
        if not cols:
            return np.zeros((xman.coord_dim, 0))
        return orthonormalize(np.stack(cols, axis=1))

    def _check(self, n_samples):
        dman = self.domain.manifold
        rng = np.random.default_rng(4)
        pts = [dman.random_point(rng) for _ in range(n_samples)]
        images = [self.codomain.manifold.project(self.embed(p)) for p in pts]
        # injectivity on samples
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if dman.distance(pts[i], pts[j]) > 1e-3 and \
                        self.codomain.manifold.distance(images[i],
                                                        images[j]) < 1e-6:
                    raise StructuralValidationError(
                        "embedding identifies distinct sample points")
        for p, x in zip(pts, images):
            De = self.differential(p)
            if np.linalg.matrix_rank(De, tol=1e-7) < dman.dim:
                raise StructuralValidationError(
                    "embedding differential drops rank at a sample")
            eta = np.atleast_1d(self.normal_coordinate(x))
            if np.linalg.norm(eta) > 1e-7:
                raise StructuralValidationError(
                    "normal coordinates do not vanish on the image")
            nf = self.normal_frame(p)
            if nf.shape[1] != self.codim:
                raise StructuralValidationError("normal frame has wrong rank")
            if np.linalg.norm(De.T @ nf) > 1e-6:
                raise StructuralValidationError(
                    "normal frame is not normal to the image")
            back = self.retract(x)
            if dman.distance(back, p) > 1e-7:
                raise StructuralValidationError(
                    "retraction does not invert the embedding")
        # no critical point of the ambient function on the image
        for cp in self.codomain.critical_points:
            eta = np.atleast_1d(self.normal_coordinate(cp.point))
            if np.linalg.norm(eta) < 5e-2:
                raise StructuralValidationError(
                    "critical point %s sits on or near the image" % cp.name)

    def __repr__(self):
        return "EmbeddingModel(%s, codim=%d)" % (self.name, self.codim)


def identity_embedding(system):
    man = system.manifold

    def eye(x):
        return np.asarray(x, dtype=float)

    return EmbeddingModel(system, system, eye, eye,
                          lambda x: np.zeros(0),
                          lambda p: np.zeros((man.coord_dim, 0)),
                          codim=0, name="identity", check=False)


def torus_factor_circle(codomain, fixed_axis, level, amplitude=1.0,
                        phase=0.0):
    """The circle {theta_axis = level} in a torus system, with its own
    one-angle cosine function."""
    from .geometry.systems import torus_cosine

    n = codomain.manifold.dim
    if n != 2:
        raise GeometryError("factor circles are built for two-dimensional tori")
    free_axis = 1 - fixed_axis
    domain = torus_cosine(1, [amplitude], [phase],
                          name="factor%d" % free_axis)

    def embed(t):
        out = np.zeros(n)
        out[fixed_axis] = level
        out[free_axis] = t[0]
        return out

    def retract(x):
        return np.array([x[free_axis]])

    def normal_coordinate(x):
        d = (x[fixed_axis] - level + np.pi) % (2 * np.pi) - np.pi
        return np.array([d])

    e_fix = np.zeros((n, 1))
    e_fix[fixed_axis, 0] = 1.0

    return EmbeddingModel(domain, codomain, embed, retract,
                          normal_coordinate, lambda p: e_fix, codim=1,
                          name="factor-circle[axis=%d]" % fixed_axis)


def sphere_equator(codomain, phase=np.pi / 2):
    """The equator of the embedded 2-sphere with a height-like function."""
    from .geometry.systems import torus_cosine

    if codomain.manifold.coord_dim != 3:
        raise GeometryError("equator embedding expects the 2-sphere model")
    domain = torus_cosine(1, [1.0], [phase], name="equator")

    def embed(t):
        return np.array([math.cos(t[0]), math.sin(t[0]), 0.0])

    def retract(x):
        return np.array([math.atan2(x[1], x[0]) % (2 * np.pi)])

    def normal_coordinate(x):
        return np.array([x[2]])

    def normal_frame(p):
        return np.array([[0.0], [0.0], [1.0]])

    return EmbeddingModel(domain, codomain, embed, retract,
                          normal_coordinate, normal_frame, codim=1,
                          name="equator")


# -- pushforward ------------------------------------------------------------------

def pushforward(emb, rho=DEFAULT_RHO, k=None, stability=True, verify=True):
    """Chain map e_*: counts W^u(p; k) meeting W^s(x; f) across the embedding.

    Returns {degree: matrix} with rows over codomain generators: the same
    count as continuation (``hybrid_entry``), through the embedding.  The
    chain-map identity is verified exactly unless ``verify`` is False.
    """
    if emb.codim == 0:
        return continuation(emb.domain, emb.codomain, rho=rho, k=k,
                            stability=stability)
    dom, cod = emb.domain, emb.codomain

    def image(pt):
        return cod.manifold.project(emb.embed(pt))

    out = graded_matrices(
        dom.indices(), cod.by_index, dom.by_index,
        lambda p_cp, x_cp: hybrid_entry(dom, cod, p_cp, x_cp, rho, k,
                                        stability, image, emb.push_frame))
    if verify:
        _verify_chain_map("pushforward", dom, cod, out, 0)
    return out


def _verify_chain_map(what, source, target, maps, shift):
    """Raise unless ``maps`` commutes exactly with both Morse differentials."""
    defect = chain_map_defect(boundary_operator(source),
                              boundary_operator(target), maps, shift)
    if defect:
        raise InternalInconsistencyError(
            "%s is not a chain map (defect %d)" % (what, defect))


# -- umkehr ------------------------------------------------------------------------

def umkehr(emb, rho=DEFAULT_RHO, k=None, stability=True, verify=True):
    """Wrong-way chain map e_! of degree -codim.

    Counts W^u(m; f) meeting W^s(p; k) across the cooriented embedding;
    signs compare the transported frame of W^u(m) against the pushed
    unstable frame of p followed by the normal frame.
    """
    if emb.codim == 0:
        return continuation(emb.codomain, emb.domain, rho=rho, k=k,
                            stability=stability)
    dom, cod = emb.domain, emb.codomain
    r = emb.codim
    out = graded_matrices(
        cod.indices(), lambda d: dom.by_index(d - r), cod.by_index,
        lambda m_cp, p_cp: _umkehr_entry(emb, m_cp, p_cp, rho, k, stability))
    if verify:
        _verify_chain_map("umkehr", cod, dom, out, -r)
    return out


def _umkehr_entry(emb, m_cp, p_cp, rho, k, stability):
    if m_cp.index != p_cp.index + emb.codim:
        raise ValueError("umkehr entries need index(m) = index(p) + codim")
    d = m_cp.index
    if d == 1 and p_cp.index == 0:
        # sampled at the branch flows' own nodes: no resolution to double
        return _umkehr_crossings_d1(emb, m_cp, p_cp, rho)
    if not (d == 2 and p_cp.index == 1 and emb.codim == 1):
        raise GeometryError(
            "umkehr case (index %d over index %d) is not implemented"
            % (d, p_cp.index))

    def run(grid):
        return _umkehr_point_hits_d2(emb, m_cp, p_cp, grid, rho)

    what = "umkehr entry %s->%s" % (m_cp.name, p_cp.name)
    return gated(run, k or 24, what) if stability else run(k or 24)[0]


def _branch_image_crossings(emb, res, zero_tol=1e-8):
    """Transverse crossings (t, z) of a recorded codomain flow with e(P).

    Sign changes are sampled at the recorded nodes.  Wrapped normal
    coordinates jump by 2*pi across the antipodal locus; such sign changes
    refine to an order-one residual and are dropped.
    """
    cod = emb.codomain

    def eta(pt):
        return float(np.atleast_1d(emb.normal_coordinate(pt))[0])

    def eval_t(t):
        return eta(point_at_time(cod, res, t)), None

    def accept(t):
        z = point_at_time(cod, res, t)
        return (t, z) if abs(eta(z)) < zero_tol else None

    return bracketed_roots([float(t) for t in res.times],
                           [eta(pt) for pt in res.points], eval_t, accept)


def _crossing_frames(emb, m_cp, p_cp, res, t_star, z, at):
    """Frames compared at a crossing z of the branch flow ``res`` from m
    with e(P): the unstable frame of m transported along the branch, and
    the pushed unstable frame of p at ``at`` followed by the normal frame.
    """
    cod = emb.codomain
    A = transport_frame(cod.manifold, cod.field,
                        *_truncated_path(res, t_star, z),
                        frame0=m_cp.unstable_frame)
    pushed = emb.push_frame(at, p_cp.unstable_frame)
    nf = emb.normal_frame(at)
    cols = [pushed[:, j] for j in range(pushed.shape[1])]
    cols.extend(cod.manifold.tangent_project(z, nf[:, j])
                for j in range(nf.shape[1]))
    return A, orthonormalize(np.stack(cols, axis=1))


def _umkehr_crossings_d1(emb, m_cp, p_cp, rho):
    """index(m) = codim = 1, so p is a minimum of P: isolated crossings of
    the unstable curve with P, kept when the crossing point flows to p
    inside P.  Returns the signed count."""
    dom, cod = emb.domain, emb.codomain
    signs = []
    for u in sphere_directions(1, 2):
        res = flow(cod, direction_point(cod, m_cp, rho, u), +1, record=True)
        if res.status != CONVERGED:
            raise CountingIncompleteError("branch flow unresolved")
        for t_star, z in _branch_image_crossings(emb, res):
            zeta = dom.manifold.project(emb.retract(z))
            inner = flow(dom, zeta, +1, record=False)
            if inner.status != CONVERGED:
                raise CountingIncompleteError("domain flow unresolved")
            if inner.limit.name != p_cp.name:
                continue
            A, B = _crossing_frames(emb, m_cp, p_cp, res, t_star, z, zeta)
            # project off the tangent of W^s(p; k), which is all of the
            # image because p is a minimum
            S = emb.push_frame(zeta, dom.manifold.tangent_basis(zeta))
            signs.append(transverse_sign(A, B, S))
    return sum(signs)


def _umkehr_point_hits_d2(emb, m_cp, p_cp, grid, rho):
    """index(m) = 2, index(p) = dim P = 1: shots whose crossing IS p.
    Returns (signed count, number of hits)."""
    dom, cod = emb.domain, emb.codomain

    def offset_of(angle):
        u = np.array([math.cos(angle), math.sin(angle)])
        res = flow(cod, direction_point(cod, m_cp, rho, u), +1, record=True)
        if res.status != CONVERGED:
            raise CountingIncompleteError("shot unresolved")
        crossings = _branch_image_crossings(emb, res)
        if not crossings:
            return None, None, res
        t_star, z = crossings[0]
        zeta = dom.manifold.project(emb.retract(z))
        disp = dom.manifold.displacement(p_cp.point, zeta)
        return float(disp[0]), (t_star, z), res

    signs = []
    for angle, _ in circle_lattice_roots(
            grid, lambda a: (offset_of(a)[0], None), 1e-12):
        g_final, hit, res = offset_of(angle)
        if hit is None or abs(g_final) > 1e-5:
            continue
        t_star, z = hit
        signs.append(orientation_sign(
            *_crossing_frames(emb, m_cp, p_cp, res, t_star, z, p_cp.point)))
    return sum(signs), len(signs)


# -- Thom data and the Euler class ---------------------------------------------------

@dataclass
class ThomData:
    """Relative complex of the disk bundle pair, built on the zero section.

    Critical points of (f pulled back minus the fiber quadratic) sit on the
    zero section with index raised by the rank; connecting flows stay in
    the zero section, so the differentials coincide with the base ones.
    """

    bundle: object
    base_system: object
    base_complex: GradedComplex
    relative: GradedComplex
    rank: int

    def identification(self, degree):
        """T: C_degree(base) -> C_{degree+rank}(relative), the identity."""
        n = self.base_complex.dim(degree)
        return np.array(np.eye(n, dtype=int), dtype=object)


def thom_complex(bundle, system, n_checks=10, seed=0):
    """Relative Morse complex of (disk bundle, sphere bundle)."""
    base = boundary_operator(system)
    r = bundle.rank
    man = system.manifold
    rng = np.random.default_rng(seed)
    samples = [man.random_point(rng) for _ in range(n_checks)]
    bundle.check_invariants(samples)
    # outward condition on the sphere bundle: the driving function falls
    # off radially, so its gradient points out of the complement region
    for x in samples:
        P = bundle.projector(x)
        v = _unit_fiber_vector(P, bundle.fiber_ambient_dim, rng)
        if v is None:
            continue
        eps = 1e-6
        q_plus = float(np.dot((1 + eps) * v, (1 + eps) * v))
        q_minus = float(np.dot((1 - eps) * v, (1 - eps) * v))
        radial = -(q_plus - q_minus) / (2 * eps)
        if radial >= 0:
            raise InternalInconsistencyError(
                "fiber gradient fails to point inward on the sphere bundle")
    gens = {p + r: base.labels(p) for p in base.degrees()}
    maps = {p + r: base.map_from(p) for p in base.degrees()
            if base.map_from(p).size}
    rel = GradedComplex(gens, maps, ring=base.ring)
    return ThomData(bundle=bundle, base_system=system, base_complex=base,
                    relative=rel, rank=r)


def _unit_fiber_vector(P, N, rng):
    for _ in range(8):
        raw = P @ rng.standard_normal(N)
        nrm = np.linalg.norm(raw)
        if nrm > 1e-6:
            return raw / nrm
    return None


@dataclass
class ThomClassData:
    thom: ThomData
    unit_cochain: dict          # relative degree-r dual: name -> coefficient
    fiber_pairing: int

    def pair(self, degree, cochain, chain):
        """<T^* phi, c> with both sides in generator coordinates."""
        return int(np.dot(np.asarray(cochain, dtype=object),
                          np.asarray(chain, dtype=object)))


def thom_class(bundle, system, thom=None, seed=0):
    """The relative degree-r class restricting to the fiber generator.

    The identification of generators makes T^*/T_* identity matrices; the
    class of the degree-zero unit is the cochain supported on the zero
    section over every minimum.  The fiber pairing is +1 by the induced
    orientation (unstable frame of (x,0) = unstable frame of x followed by
    the oriented fiber frame); an unorientable bundle raises.
    """
    if not bundle.orientable:
        raise OrientationError(
            "bundle %s is not orientable; no Thom class over the integers"
            % bundle.name)
    if thom is None:
        thom = thom_complex(bundle, system, seed=seed)
    mins = [cp.name for cp in system.critical_points if cp.index == 0]
    if not mins:
        raise InternalInconsistencyError("catalog has no minimum")
    unit = {name: 1 for name in mins}
    x0 = system.point(mins[0])
    bundle.frame_at(x0.point)  # validates the orientation at the minimum
    # duality <T^* phi, c> = <phi, T_* c> on random pairs, exact
    rng = np.random.default_rng(seed + 1)
    for p in thom.base_complex.degrees():
        n = thom.base_complex.dim(p)
        if n == 0:
            continue
        phi = rng.integers(-5, 6, size=n)
        c = rng.integers(-5, 6, size=n)
        T = thom.identification(p)
        lhs = int(np.dot(T @ np.asarray(phi, dtype=object), c))
        rhs = int(np.dot(phi, T.T @ np.asarray(c, dtype=object)))
        if lhs != rhs:
            raise InternalInconsistencyError("Thom duality check failed")
    return ThomClassData(thom=thom, unit_cochain=unit, fiber_pairing=1)


@dataclass
class EulerClassData:
    coefficients: dict           # index-r generator name -> signed zero count
    zeros: tuple                 # (point, owner name, sign)
    fundamental_pairing: object  # int when rank == dim and betti_top == 1


def euler_class(bundle, system, section=None, n_starts=200, seed=0):
    """Euler class as a cochain on the index-r generators.

    Realized as the collapse of the relative unit class: a generic section
    is counted, with orientation signs, at its zeros inside each index-r
    unstable manifold.  A bundle carrying an explicit nowhere-zero section
    short-circuits to zero.
    """
    if not bundle.orientable:
        raise OrientationError("Euler class over Z needs an oriented bundle")
    r = bundle.rank
    n = system.manifold.dim
    base = boundary_operator(system)
    if section is None and bundle.trivial_section is not None:
        return EulerClassData(coefficients={}, zeros=(),
                              fundamental_pairing=_pair_with_fundamental(
                                  system, base, {}, r))
    if section is None:
        aref = _reference_vector(bundle.fiber_ambient_dim)

        def section(x):
            return bundle.projector(x) @ aref
    if r != n:
        raise GeometryError(
            "honest zero counting is implemented for rank == dim; declare a "
            "trivial summand for bundles with a nowhere-zero section")
    zeros = _find_section_zeros(bundle, system.manifold, section, n_starts,
                                seed)
    coeffs = {}
    out_zeros = []
    for z in zeros:
        owner_frame, owner = _owning_unstable_frame(system, z, r)
        sgn = _zero_sign(bundle, system.manifold, section, z, owner_frame)
        coeffs[owner] = coeffs.get(owner, 0) + sgn
        out_zeros.append((z, owner, sgn))
    return EulerClassData(coefficients=coeffs, zeros=tuple(out_zeros),
                          fundamental_pairing=_pair_with_fundamental(
                              system, base, coeffs, r))


def _reference_vector(N):
    rng = np.random.default_rng(91518)
    v = rng.standard_normal(N)
    return v / np.linalg.norm(v)


def _find_section_zeros(bundle, man, section, n_starts, seed, tol=1e-10):
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(n_starts):
        x = man.random_point(rng)
        z = _newton_zero(bundle, man, section, x, tol)
        if z is None:
            continue
        if any(man.distance(z, w) < 1e-5 for w in found):
            continue
        found.append(z)
    return found


def _newton_zero(bundle, man, section, x0, tol, max_iter=60):
    x = man.project(np.asarray(x0, dtype=float))
    for _ in range(max_iter):
        s = np.asarray(section(x), dtype=float)
        if np.linalg.norm(s) < tol:
            return x
        basis = man.tangent_basis(x)
        eps = 1e-6
        J = np.zeros((len(s), basis.shape[1]))
        for j in range(basis.shape[1]):
            xp = man.project(x + eps * basis[:, j])
            xm = man.project(x - eps * basis[:, j])
            J[:, j] = (np.asarray(section(xp)) - np.asarray(section(xm))) \
                / (2 * eps)
        step, *_ = np.linalg.lstsq(J, -s, rcond=None)
        if np.linalg.norm(step) > 0.5:
            step *= 0.5 / np.linalg.norm(step)
        x_new = man.project(x + basis @ step)
        if np.linalg.norm(np.asarray(section(x_new))) > \
                0.95 * np.linalg.norm(s) and np.linalg.norm(s) > 1e-4:
            return None  # stalled far from a zero
        x = x_new
    return None


def _owning_unstable_frame(system, z, r):
    owner, carry = closest_pass_transport(system, z, -1)
    if owner.index != r:
        raise TransversalityError(
            "section zero sits on a lower stratum (owner %s of index %d); "
            "re-seed the section" % (owner.name, owner.index))
    return carry(owner.unstable_frame), owner.name


def _zero_sign(bundle, man, section, z, tangent_frame):
    fiber = bundle.frame_at(z)
    eps = 1e-6
    M = np.zeros((bundle.rank, tangent_frame.shape[1]))
    for j in range(tangent_frame.shape[1]):
        xp = man.project(z + eps * tangent_frame[:, j])
        xm = man.project(z - eps * tangent_frame[:, j])
        M[:, j] = fiber.T @ (np.asarray(section(xp))
                             - np.asarray(section(xm))) / (2 * eps)
    det = float(np.linalg.det(M))
    if abs(det) < 1e-8:
        raise TransversalityError("degenerate section zero; re-seed")
    return 1 if det > 0 else -1


def _pair_with_fundamental(system, base_complex, coeffs, r):
    n = system.manifold.dim
    if r != n:
        return None
    h = homology(base_complex)
    if h.betti(n) != 1:
        return None
    rep = h.representatives(n)[:, 0]
    labels = base_complex.labels(n)
    return int(sum(int(rep[i]) * coeffs.get(labels[i], 0)
                   for i in range(len(labels))))


# -- chord-diagram operations ---------------------------------------------------------

class AuxiliaryFunction:
    """Sum of the incoming labels, flowed on the configuration manifold."""

    def __init__(self, systems, tol=None):
        self.manifold = systems[0].manifold
        self.systems = tuple(systems)
        self.tol = tol or Tolerances()

    def f(self, x):
        return sum(s.f(x) for s in self.systems)

    def grad(self, x):
        g = self.systems[0].grad(x).copy()
        for s in self.systems[1:]:
            g = g + s.grad(x)
        return g

    def field(self, x):
        return -self.manifold.tangent_project(x, self.grad(x))


class FlowGraphProblem:
    """A reduced chord diagram with one Morse system per boundary cycle.

    Supported family: the one-vertex two-loop diagram (two incoming
    circles, one outgoing cycle), whose point-configuration counting
    specializes to intersection products.  Other valid diagrams construct
    but raise on counting.
    """

    def __init__(self, diagram, incoming_labels, outgoing_labels,
                 require_supported=True):
        self.diagram = diagram
        self.incoming = tuple(incoming_labels)
        self.outgoing = tuple(outgoing_labels)
        if diagram.ghost_edges:
            raise StructuralValidationError(
                "counting needs the reduced diagram; collapse ghosts first")
        if len(self.incoming) != diagram.incoming_count():
            raise StructuralValidationError(
                "need one label per incoming circle")
        if len(self.outgoing) != diagram.outgoing_count():
            raise StructuralValidationError(
                "need one label per outgoing cycle")
        man = self.incoming[0].manifold
        for s in self.incoming + self.outgoing:
            if s.manifold.coord_dim != man.coord_dim or \
                    s.manifold.dim != man.dim:
                raise StructuralValidationError(
                    "labels live on different manifolds")
        self.manifold = man
        self.supported = (
            diagram.incoming_count() == 2 and diagram.outgoing_count() == 1
            and diagram.graph.num_vertices == 1
            and diagram.graph.num_edges == 2)
        if require_supported and not self.supported:
            raise UnsupportedDiagramError(
                "unsupported diagram family: counting is implemented for "
                "the one-vertex two-loop diagram")
        self._check_label_separation()
        self.aux = AuxiliaryFunction(self.incoming,
                                     tol=self.incoming[0].tol)

    def _check_label_separation(self, margin=1e-3):
        systems = self.incoming + self.outgoing
        for i in range(len(systems)):
            for j in range(i + 1, len(systems)):
                a, b = systems[i], systems[j]
                if a is b:
                    raise TransversalityError(
                        "labels %d and %d are the same system; configuration "
                        "counting needs distinct (e.g. phase-shifted) labels"
                        % (i, j))
                for ca in a.critical_points:
                    for cb in b.critical_points:
                        if self.manifold.distance(ca.point, cb.point) < margin:
                            raise TransversalityError(
                                "critical points %s/%s of labels %d/%d "
                                "collide; shift the phases" % (
                                    ca.name, cb.name, i, j))

    def chi_times_dim(self):
        return self.diagram.graph.euler_characteristic() * self.manifold.dim


def expected_dimension(problem, input_names, output_names):
    """Index sum of inputs minus outputs plus chi(graph) * dim(M)."""
    total = 0
    for name, sys_in in zip(input_names, problem.incoming):
        total += sys_in.point(name).index
    for name, sys_out in zip(output_names, problem.outgoing):
        total -= sys_out.point(name).index
    return total + problem.chi_times_dim()


def graph_flow_count(problem, inputs, output, edge_time=0.0, k=None,
                     stability=True):
    """Signed count of configurations for one input/output tuple.

    A configuration is a point of the manifold lying on both incoming
    unstable manifolds whose auxiliary flow for ``edge_time`` lands on the
    outgoing stable manifold; at zero edge time this is the transverse
    triple intersection.
    """
    if expected_dimension(problem, inputs, [output]) != 0:
        raise ValueError("counting requires expected dimension zero")
    if not problem.supported:
        raise UnsupportedDiagramError("unsupported diagram family")
    E1, E2 = problem.incoming
    E3 = problem.outgoing[0]
    a1, a2, a3 = E1.point(inputs[0]), E2.point(inputs[1]), E3.point(output)

    def run(grid):
        return _configuration_count(problem, a1, a2, a3, edge_time, grid)

    what = "configuration count (%s,%s)->%s" % (inputs[0], inputs[1], output)
    return gated(run, k or 32, what) if stability else run(k or 32)[0]


def _configuration_count(problem, a1, a2, a3, R, grid):
    """(signed count, number of configurations) at one resolution."""
    signs = [_configuration_sign(problem, a1, a2, a3, x, R)
             for x in _find_configurations(problem, a1, a2, a3, R, grid)]
    return sum(signs), len(signs)


def _aux_time_map(problem, x, edge_time, direction=+1):
    if edge_time == 0.0:
        return np.asarray(x, dtype=float)
    seg = fixed_time_flow(problem.aux, x, edge_time, direction=direction,
                          record=False)
    return seg.x_end


def _find_configurations(problem, a1, a2, a3, R, grid):
    """Isolated points on both incoming unstable manifolds whose R-flow
    lands on the outgoing stable manifold."""
    E1, E2 = problem.incoming
    E3 = problem.outgoing[0]
    i1, i2 = a1.index, a2.index
    n = problem.manifold.dim
    if n != 2:
        raise UnsupportedDiagramError(
            "configuration counting is implemented on surfaces")
    if (i1, i2) == (2, 2):
        x = _aux_time_map(problem, a3.point, R, direction=-1)
        if approach(E1, x, a1, -1)[0] == a1.name \
                and approach(E2, x, a2, -1)[0] == a2.name:
            return [x]
        return []
    if {i1, i2} == {2, 0}:
        x = a2.point if i2 == 0 else a1.point
        other_sys, other_cp = (E1, a1) if i2 == 0 else (E2, a2)
        if approach(other_sys, x, other_cp, -1)[0] != other_cp.name:
            return []
        y = _aux_time_map(problem, x, R)
        return [x] if approach(E3, y, a3)[0] == a3.name else []
    if (i1, i2) == (1, 1):
        configs = curve_crossings(
            E1, a1, grid, lambda x: approach(E2, x, a2, -1), a2.name,
            0.5 * E2.tol.detect_radius)
        return [x for _res, _t, x in configs
                if approach(E3, _aux_time_map(problem, x, R), a3)[0]
                == a3.name]
    if {i1, i2} == {2, 1}:
        curve_sys, curve_cp = (E2, a2) if i2 == 1 else (E1, a1)
        other_sys, other_cp = (E1, a1) if i2 == 1 else (E2, a2)
        configs = curve_crossings(
            curve_sys, curve_cp, grid,
            lambda x: approach(E3, _aux_time_map(problem, x, R), a3),
            a3.name, 0.5 * E3.tol.detect_radius)
        return [x for _res, _t, x in configs
                if approach(other_sys, x, other_cp, -1)[0] == other_cp.name]
    raise InternalInconsistencyError(
        "unreachable index pattern (%d, %d) after the dimension gate"
        % (i1, i2))


def _unstable_coorientation_frame(system, cp, z):
    """Oriented frame of T_z W^u(cp), anchored at the closest backward pass."""
    if cp.index == 0:
        return np.zeros((system.manifold.coord_dim, 0))
    _, carry = closest_pass_transport(system, z, -1, cp)
    return carry(cp.unstable_frame)


def _configuration_sign(problem, a1, a2, a3, x, R):
    """Orientation sign of one configuration.

    Computed in the doubled tangent space: the two incoming unstable
    frames against the diagonal copy of the outgoing stable tangent, with
    the stable tangent oriented by the outgoing unstable frame and the
    manifold orientation; all outgoing data is pulled back through the
    auxiliary time-R flow.
    """
    E1, E2 = problem.incoming
    E3 = problem.outgoing[0]
    man = problem.manifold
    n = man.dim
    U1 = _unstable_coorientation_frame(E1, a1, x)
    U2 = _unstable_coorientation_frame(E2, a2, x)
    if R > 0:
        seg = fixed_time_flow(problem.aux, x, R, record=True)
        y = seg.x_end
    else:
        seg = None
        y = x
    U3, S3 = stable_coorientation_frames(E3, a3, y)
    if seg is not None:
        rev_pts = seg.points[::-1]
        rev_times = (seg.times[-1] - seg.times)[::-1]

        def neg_aux(p):
            return -problem.aux.field(p)

        if U3.shape[1]:
            U3 = transport_frame(man, neg_aux, rev_times, rev_pts, U3)
        if S3.shape[1]:
            S3 = transport_frame(man, neg_aux, rev_times, rev_pts, S3)
    B = man.oriented_tangent_basis(x)
    full = np.concatenate([U3, S3], axis=1)
    if full.shape[1] != n:
        raise InternalInconsistencyError("outgoing frames do not span")
    det_or = float(np.linalg.det(B.T @ full))
    if abs(det_or) < 1e-6:
        raise OrientationError("degenerate outgoing orientation data")
    s2 = 1 if det_or > 0 else -1
    i1, i2, i3 = a1.index, a2.index, a3.index
    cols = i1 + i2 + (n - i3)
    if cols != 2 * n:
        raise InternalInconsistencyError("configuration dimensions are off")
    M = np.zeros((2 * n, cols))
    c = 0
    for j in range(i1):
        M[:n, c] = B.T @ U1[:, j]
        c += 1
    for j in range(i2):
        M[n:, c] = B.T @ U2[:, j]
        c += 1
    for j in range(n - i3):
        v = B.T @ S3[:, j]
        M[:n, c] = v
        M[n:, c] = v
        c += 1
    det = float(np.linalg.det(M))
    if abs(det) < 1e-8:
        raise OrientationError("degenerate configuration determinant")
    sgn = 1 if det > 0 else -1
    return sgn * s2


def diagram_flow_operation(problem, input_chain, edge_time=0.0, k=None,
                           stability=True):
    """Apply the diagram operation to a chain in the incoming tensor basis.

    ``input_chain``: iterable of ((name_in_1, name_in_2), coefficient).
    Returns the output chain as {output name: coefficient}; only output
    generators passing the zero-dimension gate are ever counted, so the
    degree shift is exactly chi(graph) * dim.
    """
    E3 = problem.outgoing[0]
    out = {}
    for (n1, n2), coeff in input_chain:
        if coeff == 0:
            continue
        for cp3 in E3.critical_points:
            if expected_dimension(problem, (n1, n2), [cp3.name]) != 0:
                continue
            cnt = graph_flow_count(problem, (n1, n2), cp3.name,
                                   edge_time=edge_time, k=k,
                                   stability=stability)
            if cnt:
                out[cp3.name] = out.get(cp3.name, 0) + coeff * cnt
    return {name: val for name, val in out.items() if val != 0}


def operation_table(problem, edge_time=0.0, k=None, stability=True):
    """Counts for every basis pair of the incoming systems."""
    E1, E2 = problem.incoming
    table = {}
    for c1 in E1.critical_points:
        for c2 in E2.critical_points:
            table[(c1.name, c2.name)] = diagram_flow_operation(
                problem, [((c1.name, c2.name), 1)], edge_time=edge_time,
                k=k, stability=stability)
    return table


def verify_operation_chain_map(problem, table):
    """Exact check that the operation commutes with the differentials."""
    E1, E2 = problem.incoming
    E3 = problem.outgoing[0]
    d1 = boundary_operator(E1)
    d2 = boundary_operator(E2)
    d3 = boundary_operator(E3)

    def apply_table(n1, n2):
        return table.get((n1, n2), {})

    for c1 in E1.critical_points:
        for c2 in E2.critical_points:
            # boundary after the operation
            lhs = {}
            for name3, cnt in apply_table(c1.name, c2.name).items():
                col = d3.labels(E3.point(name3).index).index(name3)
                mat = d3.map_from(E3.point(name3).index)
                for row, lab in enumerate(d3.labels(E3.point(name3).index - 1)):
                    v = int(mat[row, col]) * cnt if mat.size else 0
                    if v:
                        lhs[lab] = lhs.get(lab, 0) + v
            # operation after the tensor boundary
            rhs = {}
            for (sysd, cp, other, pos) in ((d1, c1, c2, 0), (d2, c2, c1, 1)):
                p = cp.index
                mat = sysd.map_from(p)
                if not mat.size:
                    continue
                col = sysd.labels(p).index(cp.name)
                koszul = 1 if pos == 0 else (-1) ** c1.index
                for row, lab in enumerate(sysd.labels(p - 1)):
                    coeff = int(mat[row, col]) * koszul
                    if not coeff:
                        continue
                    pair = (lab, other.name) if pos == 0 else (other.name, lab)
                    for name3, cnt in apply_table(*pair).items():
                        rhs[name3] = rhs.get(name3, 0) + coeff * cnt
            if {k_: v for k_, v in lhs.items() if v} != \
                    {k_: v for k_, v in rhs.items() if v}:
                raise InternalInconsistencyError(
                    "operation fails the chain identity at (%s, %s)"
                    % (c1.name, c2.name))
    return True

